"""Exception types shared across the library, and the strict input readers."""

from __future__ import annotations

import numpy as np


class AlgebraError(Exception):
    """Base class for all structural errors raised by this package."""


class ShapeError(AlgebraError):
    """Input array has the wrong shape or dtype."""


class AxiomViolation(AlgebraError):
    """A structural axiom failed during validation.

    `axiom` names the failed law ("closure", "associativity", "identity",
    "inverse", ...); `witness` is the offending tuple of element indices,
    or None when no single witness applies.
    """

    def __init__(self, axiom: str, witness: tuple | None, message: str = ""):
        self.axiom = axiom
        self.witness = witness
        detail = message or f"{axiom} fails"
        if witness is not None:
            detail += f" at {witness}"
        super().__init__(detail)


class AutomorphismRequired(AlgebraError):
    """The supplied permutation is not a group automorphism.

    `witness` is a pair (a, b) with sigma(a*b) != sigma(a)*sigma(b).
    """

    def __init__(self, witness: tuple[int, int]):
        self.witness = witness
        super().__init__(f"map is not multiplicative at pair {witness}")


class NotARack(AlgebraError):
    """Operation requires a rack but the table fails the rack axioms."""


class SizeMismatch(AlgebraError):
    """Two tables that must share a carrier size do not."""


class BundleMismatch(AlgebraError):
    """Two objects that must live on the same bundle do not."""


class CapExceeded(AlgebraError):
    """An input or enumeration would exceed its configured size cap."""


class NormalizerViolation(AlgebraError):
    """Im(f) is not contained in the normalizer of the subgroup.

    `witness` is a pair (p, h): a total point p and a subgroup element h
    with f(p)^-1 * h * f(p) outside the subgroup.
    """

    def __init__(self, witness: tuple[int, int]):
        self.witness = witness
        super().__init__(
            f"image of the equivariant map leaves the normalizer: witness (point, h) = {witness}"
        )


class CentralizerViolation(AlgebraError):
    """The chosen element does not commute with the whole subgroup.

    `witness` is a subgroup element h with c*h != h*c.
    """

    def __init__(self, witness: int):
        self.witness = witness
        super().__init__(f"element does not centralize the subgroup: witness h = {witness}")


class NonFinite(AlgebraError):
    """A numerical input contains NaN or infinity."""


def int_field(value, what: str) -> int:
    """A Python or numpy integer as int; bools (np.bool_ too), floats, strings and the rest fail."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ShapeError(f"{what} must be an integer, got {value!r}")
    return int(value)


def json_int(value, what: str) -> int:
    """An integer read from JSON: int_field, but integral floats such as 2.0 pass too."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return int_field(value, what)


def json_real(value, what: str) -> float:
    """A real number read from JSON; bools, strings and null fail."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ShapeError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ShapeError(f"{what} is too large for a float") from None


def _holds_bool(values) -> bool:
    """Whether nested lists and tuples hold a bool or a bool array at any depth, one level at a time."""
    stack = [values]
    while stack:
        level = stack.pop()
        kinds = set(map(type, level))
        if bool in kinds or np.bool_ in kinds:
            return True
        if np.ndarray in kinds and any(v.dtype == bool for v in level if isinstance(v, np.ndarray)):
            return True
        if any(issubclass(k, (list, tuple)) for k in kinds):
            stack.extend(v for v in level if isinstance(v, (list, tuple)))
    return False


def read_array(values, what: str) -> np.ndarray:
    """np.asarray, but a bool in a list (numpy reads [0, True] as int64) or ragged rows raise ShapeError.

    Only list and tuple input is scanned, so arrays the library builds pay nothing.
    """
    if isinstance(values, (list, tuple)) and _holds_bool(values):
        raise ShapeError(f"{what} must be integers, got a bool")
    try:
        return np.asarray(values)
    except ValueError:
        raise ShapeError(f"{what} must form a rectangular array, got ragged rows") from None


def index_array(values, bound: int | None, what: str) -> np.ndarray:
    """Element indices of any integer dtype as a read-only, C-ordered int64 copy.

    Bool, float, string and object input fail (read_array also rejects a bool
    in a list and ragged rows), as does an entry outside 0..bound-1
    (bound=None skips the range check, for a caller that reports a bad entry
    with its own witness). Empty input passes whatever its dtype, since
    np.asarray([]) is float.
    """
    arr = read_array(values, what)
    if arr.size and arr.dtype.kind not in "iu":  # signed or unsigned integers
        raise ShapeError(f"{what} must be integers, got dtype {arr.dtype}")
    if bound is not None and arr.size and (arr.min() < 0 or arr.max() >= bound):
        bad = arr[(arr < 0) | (arr >= bound)][0]
        raise ShapeError(f"{what} must lie in 0..{bound - 1}, got {bad}")
    out = np.array(arr, dtype=np.int64, order="C")
    out.setflags(write=False)
    return out
