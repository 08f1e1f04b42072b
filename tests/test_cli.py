import contextlib
import inspect
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwetools import featmaps, metrics, nld
from bwetools.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXTRACTORS, NETWORKS, main
from bwetools.demo import synthetic_speech
from bwetools.signal import Waveform, degrade, load_wav, save_wav


@pytest.fixture(scope="module")
def clip_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("audio") / "clip.wav"
    save_wav(path, synthetic_speech(duration=1.0, seed=0))
    return path


@pytest.fixture(scope="module")
def speech_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("audio") / "speech.wav"
    save_wav(path, synthetic_speech(duration=3.0, seed=0))
    return path


class TestDegradeCommand:
    def test_basic(self, clip_path, tmp_path, capsys):
        out = tmp_path / "low.wav"
        assert main(["degrade", str(clip_path), "8000", str(out)]) == EXIT_OK
        original = load_wav(clip_path)
        degraded = load_wav(out)
        assert len(degraded) == len(original)
        assert degraded.rate == original.rate

    def test_low_rate_above_input(self, clip_path, tmp_path):
        out = tmp_path / "low.wav"
        assert main(["degrade", str(clip_path), "96000", str(out)]) == EXIT_USAGE

    def test_missing_input(self, tmp_path):
        assert main(["degrade", str(tmp_path / "nope.wav"), "8000", str(tmp_path / "o.wav")]) == EXIT_IO

    def test_low_rate_config_key_rejected(self, clip_path, tmp_path):
        # the rate is the positional argument only; degrade reads no config key
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"low_rate": 8000}))
        out = tmp_path / "o.wav"
        assert main(["--config", str(cfg), "degrade", str(clip_path), "8000", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_input_untouched(self, clip_path, tmp_path):
        before = clip_path.read_bytes()
        main(["degrade", str(clip_path), "8000", str(tmp_path / "o.wav")])
        assert clip_path.read_bytes() == before


class TestFeaturesCommand:
    def test_mrld_outputs(self, clip_path, tmp_path, capsys):
        out_dir = tmp_path / "mrld"
        assert main(["features", str(clip_path), "mrld", str(out_dir)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["meta"]["windows"] == [64, 128, 256, 512, 1024]
        assert len(list(out_dir.glob("mrld_ch*.csv"))) == 5
        assert (out_dir / "mrld_meta.json").exists()

    def test_msdfa_shape(self, clip_path, tmp_path, capsys):
        out_dir = tmp_path / "msdfa"
        assert main(["features", str(clip_path), "msdfa", str(out_dir)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["shape"] == [5, 64, 64]

    def test_unknown_extractor(self, clip_path, tmp_path):
        assert main(["features", str(clip_path), "hilbert", str(tmp_path)]) == EXIT_USAGE

    def test_poincare(self, clip_path, tmp_path, capsys):
        assert main(["features", str(clip_path), "poincare", str(tmp_path / "p")]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["sd1"] >= 0 and doc["sd2"] >= 0

    def test_rp(self, clip_path, tmp_path, capsys):
        assert main(["features", str(clip_path), "rp", str(tmp_path / "r")]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["shape"][0] == doc["shape"][1] <= 512

    def test_mrad_mrpd(self, clip_path, tmp_path, capsys):
        assert main(["features", str(clip_path), "mrad_mrpd", str(tmp_path / "m")]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["resolutions"]) == 3


class TestCompareCommand:
    def test_identity_report(self, speech_path, capsys):
        assert main(["compare", str(speech_path), str(speech_path)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["lsd"] == 0.0
        assert doc["si_sdr"] == 200.0
        assert doc["stoi"] >= 0.999

    def test_degraded_report_schema(self, speech_path, tmp_path, capsys):
        low = tmp_path / "low.wav"
        main(["degrade", str(speech_path), "8000", str(low)])
        capsys.readouterr()
        assert main(["compare", str(speech_path), str(low)]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        for key in ("lsd", "si_sdr", "si_snr", "stoi"):
            assert np.isfinite(doc[key])

    def test_table_direction(self, speech_path, tmp_path, capsys):
        values = {}
        for rate in (4000, 8000):
            low = tmp_path / f"low{rate}.wav"
            main(["degrade", str(speech_path), str(rate), str(low)])
            capsys.readouterr()
            main(["compare", str(speech_path), str(low)])
            values[rate] = json.loads(capsys.readouterr().out)
        assert values[4000]["lsd"] > values[8000]["lsd"]

    def test_rate_mismatch(self, speech_path, tmp_path, capsys):
        other = tmp_path / "other.wav"
        save_wav(other, synthetic_speech(duration=1.0, rate=32000))
        assert main(["compare", str(speech_path), str(other)]) == EXIT_USAGE

    def test_empty_estimate_is_usage_error(self, speech_path, tmp_path, capsys):
        empty = tmp_path / "empty.wav"
        save_wav(empty, Waveform(np.zeros(0), load_wav(speech_path).rate))
        assert main(["compare", str(speech_path), str(empty)]) == EXIT_USAGE
        assert "estimate 0" in capsys.readouterr().err

    def test_zero_rate_header_is_io_error(self, speech_path, tmp_path, capsys):
        zero = tmp_path / "zero.wav"
        save_wav(zero, synthetic_speech(duration=0.1, rate=8000), "pcm16")
        blob = bytearray(zero.read_bytes())
        blob[24:32] = bytes(8)  # sample rate and byte rate of the 44-byte header
        zero.write_bytes(bytes(blob))
        assert main(["compare", str(speech_path), str(zero)]) == EXIT_IO
        assert "0 Hz" in capsys.readouterr().err

    def test_byte_identical_rerun(self, speech_path, tmp_path, capsys):
        low = tmp_path / "low.wav"
        main(["degrade", str(speech_path), "8000", str(low)])
        capsys.readouterr()
        main(["compare", str(speech_path), str(low)])
        first = capsys.readouterr().out
        main(["compare", str(speech_path), str(low)])
        second = capsys.readouterr().out
        assert first == second


class TestNetinfoCommand:
    def test_mrld(self, capsys):
        assert main(["netinfo", "mrld"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert 200_200 <= doc["total_params"] <= 270_825
        assert doc["total_params"] == 245_406
        assert [layer["params"] for layer in doc["layers"]] == [414, 8704, 33792, 100224, 100096]
        assert doc["dsc_reduction_ratio"] == 4.08634

    def test_msdfa(self, capsys):
        assert main(["netinfo", "msdfa"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert 210_545 <= doc["total_params"] <= 284_855
        assert doc["total_params"] == 256_770
        assert [layer["params"] for layer in doc["layers"]] == [514, 9984, 36352, 105344, 102400]
        assert doc["dsc_reduction_ratio"] == 17.1859

    def test_generator(self, capsys):
        assert main(["netinfo", "generator"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["conformer_blocks"] == 4
        assert doc["heads"] == 8
        assert doc["total_params"] == 415_171

    def test_unknown(self, capsys):
        assert main(["netinfo", "mpd"]) == EXIT_USAGE

    def test_seed_flag_removed(self, capsys):
        assert main(["--seed", "1", "netinfo", "mrld"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""


class TestNonFiniteResults:
    def test_silent_estimate_is_valid_json(self, clip_path, tmp_path, capsys):
        silent = tmp_path / "silent.wav"
        wf = load_wav(clip_path)
        save_wav(silent, Waveform(np.zeros(len(wf)), wf.rate))
        assert main(["compare", str(clip_path), str(silent)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["stoi"] == 0.0

    def test_constant_reference_is_usage_error(self, clip_path, tmp_path, capsys):
        dc = tmp_path / "dc.wav"
        wf = load_wav(clip_path)
        save_wav(dc, Waveform(np.full(len(wf), 0.5), wf.rate))
        assert main(["compare", str(dc), str(clip_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reference signal is constant" in captured.err

    def test_nan_metric_is_usage_error(self, clip_path, capsys, monkeypatch):
        monkeypatch.setattr(metrics, "stoi", lambda ref, est: float("nan"))
        assert main(["compare", str(clip_path), str(clip_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite" in captured.err

    def test_nan_feature_writes_no_sidecar(self, clip_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(nld, "poincare_sd", lambda x: nld.PoincareDescriptors(float("nan"), 1.0))
        out_dir = tmp_path / "poincare"
        assert main(["features", str(clip_path), "poincare", str(out_dir)]) == EXIT_USAGE
        assert capsys.readouterr().out == ""
        assert not (out_dir / "poincare_meta.json").exists()


class TestConfig:
    def test_config_overrides_defaults(self, clip_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"side": 8}))
        out_dir = tmp_path / "msdfa"
        assert (
            main(["--config", str(cfg), "features", str(clip_path), "msdfa", str(out_dir)])
            == EXIT_OK
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["shape"] == [5, 8, 8]

    @pytest.mark.parametrize(
        "windows", [[0, 64], [-64, 128], [64, 64], [64.7, 128], [], ["a"], [True, 2], [64, None], 64]
    )
    def test_bad_mrld_windows(self, clip_path, tmp_path, windows):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"windows": windows}))
        argv = ["--config", str(cfg), "features", str(clip_path), "mrld", str(tmp_path / "m")]
        assert main(argv) == EXIT_USAGE

    @pytest.mark.parametrize(
        "extractor, config",
        [
            ("msdfa", {"scales": [100, 100, 200]}),
            ("msdfa", {"scales": [100.7, 200]}),
            ("msdfa", {"scales": []}),
            ("msdfa", {"scales": ["a"]}),
            ("msdfa", {"side": "x"}),
            ("msdfa", {"side": 8.7}),
            ("rp", {"max_size": "x"}),
            ("rp", {"max_size": 8.7}),
            ("rp", {"max_size": 0}),
            ("rp", {"max_size": 1}),
            ("rp", {"max_size": -5}),
            ("msdfa", {"side": True}),
            ("msdfa", {"side": None}),
            ("msdfa", {"scales": 100}),
            ("rp", {"max_size": 100.5}),
            ("rp", {"max_size": True}),
        ],
    )
    def test_bad_config_values(self, clip_path, tmp_path, capsys, extractor, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg), "features", str(clip_path), extractor, str(tmp_path / "f")]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "command, config",
        [
            (["degrade", "{clip}", "8000", "{out}/o.wav"], {}),
            (["features", "{clip}", "mrld", "{out}"], {"windows": [64, 128]}),
            (["features", "{clip}", "msdfa", "{out}"], {"scales": [100], "side": 4}),
            (["features", "{clip}", "mrad_mrpd", "{out}"], {}),
            (["features", "{clip}", "rp", "{out}"], {"max_size": 16}),
            (["features", "{clip}", "poincare", "{out}"], {}),
            (["compare", "{clip}", "{clip}"], {}),
            (["netinfo", "mrld"], {}),
        ],
    )
    def test_config_keys_checked(self, clip_path, tmp_path, capsys, command, config):
        argv = [a.format(clip=clip_path, out=tmp_path) for a in command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["--config", str(cfg), *argv]) == EXIT_OK
        # a key the command does not read: a misspelt one, or another extractor's
        unread = "windowz" if "windows" in config else "windows"
        cfg.write_text(json.dumps({**config, unread: [64]}))
        capsys.readouterr()
        assert main(["--config", str(cfg), *argv]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "extractor, integral, config",
        [
            ("msdfa", {"side": 8.0}, {"side": 8}),
            ("rp", {"max_size": 16.0}, {"max_size": 16}),
            ("mrld", {"windows": [64.0, 128.0]}, {"windows": [64, 128]}),
        ],
    )
    def test_integral_floats_accepted(self, clip_path, tmp_path, capsys, extractor, integral, config):
        outputs = []
        for i, value in enumerate((integral, config)):
            cfg = tmp_path / f"cfg{i}.json"
            cfg.write_text(json.dumps(value))
            argv = ["--config", str(cfg), "features", str(clip_path), extractor, str(tmp_path / f"f{i}")]
            assert main(argv) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("extractor", [name for name, entry in EXTRACTORS.items() if entry[2]])
    def test_spelt_out_defaults_match_no_config(self, clip_path, tmp_path, capsys, extractor):
        # the defaults live in the library function whose keyword names the table lists
        function = {
            "mrld": featmaps.mrld_features,
            "msdfa": featmaps.msdfa_features,
            "rp": nld.recurrence_plot,
        }[extractor]
        params = inspect.signature(function).parameters
        defaults = {key: params[key].default for key in EXTRACTORS[extractor][2]}
        assert all(value is not inspect.Parameter.empty for value in defaults.values())
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(defaults))
        runs = []
        for name, prefix in (("plain", []), ("spelt", ["--config", str(cfg)])):
            out_dir = tmp_path / name
            assert main([*prefix, "features", str(clip_path), extractor, str(out_dir)]) == EXIT_OK
            files = {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}
            runs.append((capsys.readouterr().out, files))
        assert runs[0] == runs[1]

    def test_window_longer_than_any_clip_is_degenerate(self, clip_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"windows": [10**30]}))
        argv = ["--config", str(cfg), "features", str(clip_path), "mrld", str(tmp_path / "m")]
        assert main(argv) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["shape"] == [1, 1, 0]
        assert doc["meta"]["channels"] == [{"window": 10**30, "count": 0, "degenerate": True}]

    def test_msdfa_side_past_the_largest_array(self, clip_path, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"side": 1000000000}))
        argv = ["--config", str(cfg), "features", str(clip_path), "msdfa", str(tmp_path / "m")]
        assert main(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: tile side 1000000000 ")

    def test_bad_config(self, clip_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("not json")
        assert main(["--config", str(cfg), "netinfo", "mrld"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "raw", [b'{"side": 8}\xff', '{"side": 8}'.encode("utf-16")], ids=["stray-0xff", "utf-16"]
    )
    def test_undecodable_config(self, tmp_path, capsys, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(raw)
        assert main(["--config", str(cfg), "netinfo", "mrld"]) == EXIT_USAGE
        assert "is not valid JSON" in capsys.readouterr().err


# every subcommand, and features with every extractor
COMMANDS = [
    ("degrade",),
    ("compare",),
    *(("features", name) for name in EXTRACTORS),
    *(("netinfo", name) for name in NETWORKS),
]
# degrade's low rate for each input rate: small resampling plans only (a
# coprime pair of large rates designs plans of tens of MB); 1 -> 1 is refused
LOW_RATES = {1: 1, 2: 1, 7: 3, 8000: 4000, 16000: 8000, 48000: 8000}
KINDS = ["silence", "constant", "impulse", "alternating", "noise", "tiny", "speech"]


def generated(kind, size, seed, speech):
    rng = np.random.default_rng(seed)
    if kind == "silence":
        return np.zeros(size)
    if kind == "constant":
        return np.full(size, 0.5)
    if kind == "impulse":
        return np.eye(1, size, size // 2)[0]
    if kind == "alternating":
        return np.resize([1.0, -1.0], size)
    if kind == "noise":
        return rng.uniform(-1, 1, size)
    if kind == "tiny":
        return (rng.standard_normal(size) * 1e-30).astype(np.float32)
    start = rng.integers(0, 48000 - size)
    return speech(1.0).samples[start : start + size]


@given(
    command=st.sampled_from(COMMANDS),
    rate=st.sampled_from(sorted(LOW_RATES)),
    size=st.integers(0, 3000),
    kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)),
    encoding=st.sampled_from(["pcm16", "float32"]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=200, deadline=None)
def test_every_command_on_generated_wavs(speech, command, rate, size, kinds, encoding, seed):
    """Each run exits 0, 2 or 3; an exit 3 prints one `error: ` line; a
    features run lists only files it wrote, and its sidecar is its stdout."""
    c = metrics.STOI_CONFIG
    if command == ("compare",) and rate >= c["rate"]:
        # one STOI segment of samples at its rate, scaled up to the WAV's, so compare may exit 0 too
        need = (c["segment_frames"] - 1) * c["hop"] + c["n_fft"]
        size += -(-need * rate // c["rate"])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = [tmp / "reference.wav", tmp / "estimate.wav"]
        for path, kind in zip(paths, kinds):
            save_wav(path, Waveform(generated(kind, size, seed, speech), rate), encoding)
        out_dir = tmp / "out"
        argv = {
            "degrade": ["degrade", str(paths[0]), str(LOW_RATES[rate]), str(out_dir)],
            "compare": ["compare", *map(str, paths)],
            "features": ["features", str(paths[0]), command[-1], str(out_dir)],
            "netinfo": list(command),
        }[command[0]]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        out, err = stdout.getvalue(), stderr.getvalue()
        assert code in (EXIT_OK, EXIT_IO, EXIT_USAGE)
        if code == EXIT_USAGE:
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
        if code != EXIT_OK:
            assert out == ""
        elif command[0] == "degrade":
            degraded = load_wav(out_dir)
            assert out == "" and (degraded.rate, len(degraded)) == (rate, size)
        else:
            doc = json.loads(out)
            if command[0] == "features":
                assert all((out_dir / name).is_file() for name in doc.get("files", []))
                assert (out_dir / f"{command[1]}_meta.json").read_text() + "\n" == out
