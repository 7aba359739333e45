"""Exception types shared across the library, and the strict input readers."""

from __future__ import annotations

import functools
import json
import operator
import reprlib
from pathlib import Path

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


def load_json(path: str | Path):
    """The JSON value in a file; nesting too deep for the parser is a ShapeError, not a RecursionError."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ShapeError(f"JSON in {path} nests too deeply to read") from None


def excerpt(value) -> str:
    """repr(value) cut to at most 60 characters, so an error message stays short whatever the input."""
    text = reprlib.repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def int_field(value, what: str) -> int:
    """A Python or numpy integer as int; bools (np.bool_ too), floats, strings and the rest fail."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ShapeError(f"{what} must be an integer, got {excerpt(value)}")
    return int(value)


def json_int(value, what: str) -> int:
    """An integer read from JSON: int_field, but integral floats such as 2.0 pass too."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return int_field(value, what)


def json_real(value, what: str) -> float:
    """A real number read from JSON; bools, strings and null fail."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ShapeError(f"{what} must be a number, got {excerpt(value)}")
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
        if _any_bool(level, kinds):
            return True
        if any(issubclass(k, (list, tuple)) for k in kinds):
            stack.extend(v for v in level if isinstance(v, (list, tuple)))
    return False


def _any_bool(items, kinds: set) -> bool:
    """Whether items, whose types are kinds, holds a bool, a numpy bool or a bool array (of any shape) itself."""
    if bool in kinds or np.bool_ in kinds:
        return True
    return np.ndarray in kinds and any(v.dtype == bool for v in items if isinstance(v, np.ndarray))


def _bool_among_bits(values, arr: np.ndarray) -> bool:
    """Whether the non-empty integer array arr = np.asarray(values) was read from a bool in values.

    numpy reads a bool among ints, or an entry of a bool array among int
    rows, as 0 or 1. So only the entries of arr equal to 0 or 1 are looked
    up in values, each by its index, and their types checked in one call.
    """
    # Read as unsigned, a negative entry is large.
    hits = (h.tolist() for h in np.nonzero(arr.view(f"u{arr.itemsize}") < 2))
    items = [functools.reduce(operator.getitem, index, values) for index in zip(*hits)]
    return _any_bool(items, set(map(type, items)))


def read_array(values, what: str) -> np.ndarray:
    """np.asarray, but a bool in a list (numpy reads [0, True] as int64), ragged rows or nesting
    deeper than numpy's dimension limit raise ShapeError.

    Only list and tuple input is scanned, so arrays the library builds pay
    nothing. When numpy reads the list as a non-empty integer array, only the
    entries it read as 0 or 1 are inspected; every other result is walked
    level by level.
    """
    listed = isinstance(values, (list, tuple))
    try:
        arr = np.asarray(values)
    except ValueError as err:
        if listed and _holds_bool(values):
            raise ShapeError(f"{what} must be integers, got a bool") from None
        # numpy raises ValueError both for ragged rows and for nesting past its dimension limit.
        got = "nesting past numpy's dimension limit" if "maximum number of dimension" in str(err) else "ragged rows"
        raise ShapeError(f"{what} must form a rectangular array, got {got}") from None
    if listed and (_bool_among_bits(values, arr) if arr.size and arr.dtype.kind in "iu" else _holds_bool(values)):
        raise ShapeError(f"{what} must be integers, got a bool")
    return arr


def index_array(values, bound: int | None, what: str) -> np.ndarray:
    """Element indices of any integer dtype as a read-only, C-ordered int64 copy.

    Bool, float, string and object input fail (read_array also rejects a bool
    in a list and ragged rows), as does an entry outside 0..bound-1
    (bound=None skips the range check, for a caller that reports a bad entry
    with its own witness). Python ints too large for int64, which numpy reads
    as objects or floats, fail as out of range when there is a bound. Empty
    input passes whatever its dtype, since np.asarray([]) is float. A list or
    tuple is read into a new array, which is frozen in place, not copied again.
    """
    arr = read_array(values, what)
    listed = isinstance(values, (list, tuple))
    if arr.size and arr.dtype.kind not in "iu":  # signed or unsigned integers
        # numpy reads some lists of Python ints as float64, such as [1, 2**63] and [-1, 2**63].
        leaves = np.array(values, dtype=object) if listed and arr.dtype.kind == "f" else arr
        ints = bound is not None and leaves.dtype == object and all(type(v) is int for v in leaves.flat)
        bad = next((v for v in leaves.flat if not 0 <= v < bound), None) if ints else None
        if bad is not None:
            raise ShapeError(f"{what} must lie in 0..{bound - 1}, got {excerpt(bad)}")
        raise ShapeError(f"{what} must be integers, got dtype {arr.dtype}")
    if bound is not None and arr.size and (arr.min() < 0 or arr.max() >= bound):
        bad = arr[(arr < 0) | (arr >= bound)][0]
        raise ShapeError(f"{what} must lie in 0..{bound - 1}, got {bad}")
    out = (np.asarray if listed else np.array)(arr, dtype=np.int64, order="C")
    out.setflags(write=False)
    return out
