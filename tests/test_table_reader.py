"""racks.load_magma reads a table file as magma_from_json(json.loads(text)) does.

errors.load_table_json reads a plain square table of integers straight from
the text, and hands every other text to json.loads. The oracle here is the
json.loads path itself: for each generated text, load_magma must give the
same MagmaTable (equal op, int64, read-only, C-ordered, same labels) or
raise the same exception type with the same message.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaugequandles import cli, errors, racks
from gaugequandles.errors import AlgebraError, ShapeError

LABELS = ["]]", "[1,2]", '"', "é", "a\\b", "Ω]", "x"]

# Tokens spliced over one entry of the table, or over the whole text ("bom", "trailing").
CORRUPTIONS = [
    "true", "1.0", "1e2", "-1", "01", "00", "", "1 2", "1\t\r\n2", "1,", "[0]", "2 ]", "]5,[",
    str(2**63), str(2**64), "9" * 18, "9" * 19, "é", "1é", "١", "1 ", " ", "1\f", "null", "{}",
    "ragged", "deeper", "short", "long", "split and empty", "bom", "trailing",
]


def reference(text: str, path) -> tuple:
    """What magma_from_json(json.loads(text)) gives, RecursionError read as load_json reads it."""
    try:
        obj = json.loads(text)
    except RecursionError:
        return ShapeError, f"JSON in {path} nests too deeply to read"
    except ValueError as exc:
        return type(exc), str(exc)
    return outcome(lambda: racks.magma_from_json(obj))


def outcome(load) -> tuple:
    try:
        m = load()
    except (AlgebraError, ValueError) as exc:
        return type(exc), str(exc)
    assert m.op.dtype == np.int64 and m.op.flags.c_contiguous and not m.op.flags.writeable
    return m.op.tolist(), m.labels, m.size


def dump(obj, layout: dict, ws: str) -> str:
    """json.dumps(obj, **layout) with every space and newline outside strings replaced by ws."""
    text = json.dumps(obj, **layout)
    if ws == " ":
        return text
    # No generated string holds a raw space or newline: json.dumps escapes the newline.
    return text.replace(" ", ws).replace("\n", ws)


@st.composite
def table_texts(draw):
    """(text, clean): a quandle file's text and whether its table is one load_table_json reads itself."""
    n = draw(st.integers(1, 6))
    # Mostly entries in or just past range; in one table of four, entries of up to 18 digits, so every
    # place value is read.
    top = draw(st.sampled_from([n + 1, n + 1, n + 1, 10**18 - 1]))
    rows = draw(st.lists(st.lists(st.integers(0, top), min_size=n, max_size=n), min_size=n, max_size=n))
    layout = draw(st.sampled_from([{}, {"indent": 0}, {"indent": 2}, {"indent": "\t"}]))
    if draw(st.booleans()):
        layout["separators"] = (",", ":")
    layout["ensure_ascii"] = draw(st.booleans())
    ws = draw(st.sampled_from([" ", "\t", "\n", "\r", " \t\n\r"]))
    corruption = draw(st.none() | st.sampled_from(CORRUPTIONS))
    r, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    table = [list(row) for row in rows]
    if corruption == "ragged":
        table[r].pop(c)
    elif corruption == "deeper":
        table[r] = [table[r]]
    elif corruption == "short":  # n rows of n + 1 entries, or n - 1 rows of n
        table = [row + [0] for row in table] if n == 1 or r else table[:-1]
    elif corruption == "long":
        table.append(table[r])
    elif corruption not in (None, "bom", "trailing"):
        table[r][c] = "@corrupt@"
        if corruption == "split and empty" and n > 1:  # one run too many and one too few: the count holds
            table[r][c - 1] = "@empty@"
    obj = {"op": "@op@"}
    if draw(st.booleans()):
        obj["size"] = draw(st.sampled_from([n, n + 1, 2.0 * n, "n", True]))
    if draw(st.booleans()):
        obj["labels"] = draw(st.lists(st.sampled_from(LABELS), min_size=n - 1, max_size=n + 1))
    if draw(st.booleans()):
        obj["provenance"] = {"values": [[1, 2], "]]"], "op": None}
    keys = draw(st.permutations(list(obj)))
    if not draw(st.integers(0, 9)):
        keys.remove("op")
    text = dump({k: obj[k] for k in keys}, layout, ws)
    table_text = dump(table, layout, ws)
    if corruption == "split and empty":
        table_text = table_text.replace('"@corrupt@"', "1 2").replace('"@empty@"', "")
    elif corruption is not None:
        table_text = table_text.replace('"@corrupt@"', corruption)
    text = text.replace('"@op@"', table_text)
    duplicate = not draw(st.integers(0, 7))  # a second "op" before the first
    if duplicate:
        text = '{"op": ' + dump(rows, layout, ws) + "," + text[1:]
    if corruption == "bom":
        text = "\ufeff" + text
    elif corruption == "trailing":
        text += draw(st.sampled_from([" x", "[]", "\n\n", " {}", "\f"]))
    clean = "op" in keys and not duplicate and corruption in (None, "trailing")
    return text, clean


def check(text: str, path, clean: bool) -> None:
    path.write_bytes(text.encode("utf-8"))
    # Files are read as they are, with no newline translation, so an error's position counts each "\r".
    assert outcome(lambda: racks.load_magma(path)) == reference(text, path)
    # The reader itself: the object json.loads gives, or None.
    try:
        expected = json.loads(text)
    except ValueError:
        expected = None
    try:
        obj = errors._table_object(text)
    except (ValueError, RecursionError):
        obj = None
    if obj is not None:
        assert type(obj["op"]) is errors._ReadTable and not obj["op"].flags.writeable
        assert {**obj, "op": obj["op"].tolist()} == expected
    if clean and expected is not None:
        assert obj is not None
        assert isinstance(errors.load_table_json(path)["op"], np.ndarray)


@settings(max_examples=400, deadline=None)
@given(case=table_texts(), block=st.sampled_from([1, 7, 64, errors._TABLE_BLOCK_CHARS]))
@example(case=('{"op": [[1, 2], [1, 2]]}', True), block=1)
@example(case=('{"op": [[0, 1, 2], [1, 0, 2]]}', False), block=1)
@example(case=('{"op": [[1 2, ], [1, 0]]}', False), block=1 << 16)
@example(case=('{"op": [[1, ], [1, 0]]}', False), block=1)
@example(case=('{"op": [[1,0]5,[1,]]}', False), block=1 << 16)
@example(case=('{"op": [[1, 0], [1, 0]], }', False), block=1 << 16)
@example(case=('{"op": [[1, 0], [1, 0]]  \r\n}\n', True), block=1 << 16)
@example(case=('{"op": [[300, 999999999999999999], [10, 123456789012345678]]}', True), block=7)
def test_load_magma_gives_what_json_loads_gives(tmp_path_factory, case, block):
    text, clean = case
    with mock.patch.object(errors, "_TABLE_BLOCK_CHARS", block):
        check(text, tmp_path_factory.getbasetemp() / "q.json", clean)


@pytest.mark.parametrize("layout", [{}, {"indent": 2}, {"indent": "\t"}, {"separators": (",", ":")}])
@pytest.mark.parametrize("corruption", [None, "01", "-1", "1 2", "", "1.0", str(2**63), "999", "ragged"])
def test_tables_of_many_blocks(tmp_path, layout, corruption):
    # 150 rows of 150 entries: 67-225 kB of text, so two blocks at least; each corruption lies in the last row.
    n = 150
    rows = np.random.default_rng(len(layout)).integers(0, n, (n, n)).tolist()
    if corruption == "ragged":
        rows[-1].pop()
    elif corruption is not None:
        rows[-1][n // 2] = "@corrupt@"
    text = json.dumps({"size": n, "op": rows}, **layout).replace('"@corrupt@"', corruption or "")
    assert len(text) > 1 << 16
    check(text, tmp_path / "q.json", corruption is None)


def test_a_built_table_is_read_in_blocks_with_no_python_int_per_entry(tmp_path):
    # At the parent, json.loads made one Python int per entry (28 bytes each
    # for values past 256) and lists of 8 bytes per entry, then np.asarray and
    # a copy made two int64 tables.
    n = 600
    op = np.random.default_rng(0).integers(0, n, (n, n))
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"size": n, "op": op.tolist()}, indent=2))
    text_bytes = path.stat().st_size
    tracemalloc.start()
    try:
        m = racks.load_magma(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(m.op, op)
    assert peak < text_bytes + 8 * n * n + (2 << 20), peak


@pytest.mark.parametrize("newline", ["\r", "\r\n"])
@pytest.mark.parametrize("command", ["verify", "census"])
def test_a_json_error_in_a_cr_or_crlf_file_is_placed_in_the_file_itself(tmp_path, capsys, newline, command):
    # At the parent the file was read with universal newlines: a CRLF file whose error sits at char 34 was
    # reported at char 32.
    text = newline.join(["{", '  "group": "S3",', '  "base_size": 2,', '  "op": [[0]]', "}"])
    text = text.replace('"op": [[0]]', '"op": [[0] [0]]')
    path = tmp_path / "bad.json"
    path.write_bytes(text.encode())
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(text)
    assert cli.main([command, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"


def test_a_clean_crlf_table_is_read_in_blocks_as_its_lf_file_is(tmp_path):
    op = np.random.default_rng(1).integers(0, 40, (40, 40)).tolist()
    text = json.dumps({"size": 40, "op": op}, indent=2)
    (tmp_path / "lf.json").write_bytes(text.encode())
    (tmp_path / "crlf.json").write_bytes(text.replace("\n", "\r\n").encode())
    crlf = errors.load_table_json(tmp_path / "crlf.json")
    assert type(crlf["op"]) is errors._ReadTable
    assert crlf["op"].tolist() == op == racks.load_magma(tmp_path / "lf.json").op.tolist()
    assert racks.load_magma(tmp_path / "crlf.json").op.tolist() == op
