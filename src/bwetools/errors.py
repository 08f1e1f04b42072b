"""Exception types shared across the library, and the argument checks that
raise InvalidArgumentError: integer sizes and finite arrays. Only the array
check imports numpy."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class UnreadableFileError(OSError):
    """The input file does not exist or cannot be opened."""


class UnsupportedEncodingError(ValueError):
    """The input file exists but is not a supported WAV or `write_f32` encoding."""


def _size(value, what: str, least: int) -> int:
    """`value` as an int: an integral number >= least that is not a bool (8.0
    and numpy integers pass, numpy bools of any shape fail), else
    InvalidArgumentError naming `what`."""
    try:
        kind = getattr(getattr(value, "dtype", None), "kind", "")  # "b" for a numpy bool
        if int(value) == value and value >= least and not isinstance(value, bool) and kind != "b":
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidArgumentError(f"{what} must be an integer >= {least}, got {value!r}")


def _sizes(values, what: str) -> list[int]:
    """`values` as ascending ints: a non-empty set of distinct `_size`s >= 1,
    else InvalidArgumentError naming `what` ("window sizes", "DFA scales")."""
    try:
        sizes = [_size(v, f"each of the {what}", 1) for v in values]
    except TypeError:
        raise InvalidArgumentError(f"{what} must be a list of integers, got {values!r}") from None
    if not sizes or len(set(sizes)) != len(sizes):
        raise InvalidArgumentError(f"{what} must be non-empty and distinct, got {sorted(sizes)}")
    return sorted(sizes)


def _size_fields(obj, least: int, *names: str, optional: bool = False) -> None:
    """Set each named field of the frozen dataclass `obj` to its `_size`
    (>= least); with `optional`, a field that is None stays None."""
    for name in names:
        if getattr(obj, name) is not None or not optional:
            object.__setattr__(obj, name, _size(getattr(obj, name), name, least))


def _finite(x, what: str):
    """x, checked to hold only finite entries, else InvalidArgumentError."""
    import numpy as np

    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError(f"{what} has a non-finite entry")
    return x
