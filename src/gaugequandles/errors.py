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
    """The JSON value in a file, read as UTF-8 (RFC 8259 section 8.1) whatever the locale; nesting too deep
    for the parser is a ShapeError, not a RecursionError."""
    return _parse_json(_read_text(path), path)


def _read_text(path: str | Path) -> str:
    """The file's text as it is, with no newline translation, so JSON error positions count its own "\r"s."""
    with open(path, encoding="utf-8", newline="") as f:
        return f.read()


def _parse_json(text: str, path: str | Path):
    try:
        return json.loads(text)
    except RecursionError:
        raise ShapeError(f"JSON in {path} nests too deeply to read") from None


def load_table_json(path: str | Path):
    """The JSON value in a quandle file, as load_json gives it, but with a top-level "op" that is a list
    of n lists of n non-negative JSON integers (no leading zeros, at most 18 digits, JSON whitespace) read
    straight from the text into a new read-only int64 array, a _ReadTable, with no Python int per entry.

    The object is walked with json's own raw_decode, which parses every key
    and every other value; _read_table reads the table in blocks of whole
    rows. Any other text, a repeated "op" key and any error go to load_json's
    json.loads, so a file gives the value load_json gives, "op" as a list,
    or raises its error.
    """
    text = _read_text(path)
    try:
        obj = _table_object(text)
    except (ValueError, RecursionError):  # raw_decode's errors, which json.loads raises again below
        obj = None
    return _parse_json(text, path) if obj is None else obj


# raw_decode(text, i): the JSON value that starts at text[i] and the index after it.
_decode = json.JSONDecoder().raw_decode

# _skip(text, i).end(): the index of the first character at or after i that is not JSON whitespace.
_skip = json.decoder.WHITESPACE.match


class _ReadTable(np.ndarray):
    """A read-only table that load_table_json has just read from a file; the type tells index readers
    that nothing else holds it, so they keep it rather than copy it."""


def _table_object(text: str) -> dict | None:
    """The top-level object of text with its "op" read by _read_table, or None when text is not a JSON
    object with one "op" key whose value _read_table reads."""
    obj: dict = {}
    i = _skip(text, 0).end()
    if text[i : i + 1] != "{":
        return None
    i = _skip(text, i + 1).end()
    while text[i : i + 1] == '"':
        key, i = _decode(text, i)
        i = _skip(text, i).end()
        if text[i : i + 1] != ":" or key == "op" and key in obj:
            return None
        value, i = (_read_table if key == "op" else _decode)(text, _skip(text, i + 1).end())
        if value is None and key == "op":
            return None
        obj[key] = value
        i = _skip(text, i).end()
        if text[i : i + 1] != ",":
            break
        i = _skip(text, i + 1).end()
        if text[i : i + 1] != '"':  # a comma before the closing brace
            return None
    if text[i : i + 1] != "}" or _skip(text, i + 1).end() != len(text) or "op" not in obj:
        return None
    return obj


# _read_table reads a table in blocks of whole rows, each of at most this
# many characters unless one row is longer, so what it allocates beside the
# table is bounded by the block, not by the text.
_TABLE_BLOCK_CHARS = 1 << 16

# The four whitespace characters of JSON (RFC 8259 section 2).
_WHITESPACE = b" \t\n\r"

# The place value of the k-th digit from the end of a number of at most 18 digits, which int64 holds.
_POWERS_OF_TEN = 10 ** np.arange(18, dtype=np.int64)


def _read_table(text: str, i: int) -> tuple[np.ndarray | None, int]:
    """(table, end): the table of n rows of n non-negative integers whose text starts at text[i], as an
    int64 array of shape (n, n), and the index after its closing bracket; (None, i) for any other text.

    n is read off the first row. Each block of rows, dropped of whitespace
    and digits, must be exactly the brackets and commas of its rows of n
    entries, and hold one run of digits in each entry, with no whitespace
    inside a run, no leading zero and at most 18 digits. Its values are
    read from those runs by numpy.
    """
    p = _skip(text, i + 1).end() if text[i : i + 1] == "[" else -1
    first = text.find("]", p) if p >= 0 else -1
    n = text.count(",", p, first) + 1
    if first < 0 or 2 * n * n > len(text) - p:  # each entry takes a digit and a comma or bracket
        return None, i
    table = np.empty(n * n, dtype=np.int64)
    row = b"[" + b"," * (n - 1) + b"],"
    done = 0
    while done < n:
        # The rows that end within the block, at most the n - done left, and at least one.
        cut, rows = text.find("]", p), 1
        while rows < n - done and (after := text.find("]", cut + 1, p + _TABLE_BLOCK_CHARS)) >= 0:
            cut, rows = after, rows + 1
        block = text[p : cut + 1]
        if cut < 0 or block[0] != "[" or not block.isascii():
            return None, i
        raw = block.encode("ascii")
        packed = raw.translate(None, _WHITESPACE)
        if packed.translate(None, b"0123456789") != (row * rows)[:-1]:
            return None, i
        # The block holds only whitespace and digits beside the brackets and commas of its rows, and packed
        # starts and ends with a bracket, so each run of digits in packed lies inside it.
        codes = np.frombuffer(packed, dtype=np.uint8)
        digits = codes - np.uint8(ord("0"))
        is_digit = digits < 10
        starts, ends = (np.flatnonzero(is_digit[1:] != is_digit[:-1]) + 1).reshape(-1, 2).T
        lengths = ends - starts
        unpacked = np.frombuffer(raw, dtype=np.uint8) - np.uint8(ord("0")) < 10
        if (
            len(starts) != rows * n  # an entry with no digits
            or np.count_nonzero(unpacked[1:] > unpacked[:-1]) != len(starts)  # digits split by whitespace
            or np.any(codes[starts - 1] == ord("]"))  # digits between two rows
            or np.any(codes[ends] == ord("["))
            or lengths.max() > len(_POWERS_OF_TEN)
            or np.any((digits[starts] == 0) & (lengths > 1))  # a leading zero
        ):
            return None, i
        values = table[done * n : (done + rows) * n]
        values[:] = digits[ends - 1]
        for k in range(1, lengths.max()):
            # Cast before the product: NumPy before 2.0 keeps uint8 times a small int64 scalar in uint8.
            place = np.where(lengths > k, digits[ends - 1 - k], 0).astype(np.int64)
            values += place * _POWERS_OF_TEN[k]
        done += rows
        q = _skip(text, cut + 1).end()
        if text[q : q + 1] != ("," if done < n else "]"):
            return None, i
        p = _skip(text, q + 1).end()
    table.setflags(write=False)
    return table.reshape(n, n).view(_ReadTable), q + 1


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
    """Element indices of any integer dtype as a read-only, C-ordered int64 array that nothing else holds.

    Bool, float, string and object input fail (read_array also rejects a bool
    in a list and ragged rows), as does an entry outside 0..bound-1
    (bound=None skips the range check, for a caller that reports a bad entry
    with its own witness). Python ints too large for int64, which numpy reads
    as objects or floats, fail as out of range when there is a bound. Empty
    input passes whatever its dtype, since np.asarray([]) is float. A list or
    tuple is read into a new array, which is frozen in place, not copied
    again; an array is copied, so the caller's stays writeable.
    """
    return _frozen_indices(values, read_array(values, what), bound, what)


def _frozen_indices(values, arr: np.ndarray, bound: int | None, what: str) -> np.ndarray:
    """index_array(values, bound, what), for arr = read_array(values, what) already read.

    An array read from a list or tuple, or a _ReadTable, is new to this
    call, and so is frozen in place, not copied.
    """
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
    out = (np.asarray if listed or isinstance(values, _ReadTable) else np.array)(arr, dtype=np.int64, order="C")
    out.setflags(write=False)
    return out
