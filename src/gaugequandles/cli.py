"""Command-line front end.

Subcommands: verify, build, rack, census, fiber, reduce, homogeneous,
lie-check. Human output is aligned tables; pass --json for machine output.
The JSON object is built only when --json or --out asks for it.
Exit codes: 0 pass, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import bundles, gauge, groups, lie, racks
from .errors import AlgebraError, ShapeError, excerpt, load_json

MAX_PRINTED_TABLE = 12


def _stream_json(obj, writes: list) -> None:
    """Pass the --json text of obj, chunk after chunk, to each function in writes.

    The chunks join to what json.dumps gives with indent 2, byte for byte.
    A 1-D or 2-D numpy array of non-negative ints, such as an op table or a
    witness array, is written as the text of its tolist(), its digits
    gathered from a table into a byte template (_write_int_array). Only the
    dicts with str keys and the lists that hold such an array are walked,
    their keys quoted by json's own encoder; every other value, including
    other arrays and any type json rejects, goes to json whole, so stdlib
    json still decides its text or raises its TypeError.

    The pieces collect in one list, which is joined and written only at the
    chunk boundaries of _write_int_array and at the end: a document without
    an array is one json call and one write, and one with an array is never
    held whole.
    """
    parts: list[str] = []
    _write_json(obj, "\n", parts, writes)
    _flush(parts, writes)


def _flush(parts: list[str], writes: list) -> None:
    """Write the join of parts to each function in writes, and empty parts."""
    chunk = "".join(parts)
    parts.clear()
    for write in writes:
        write(chunk)


# json.dumps(v, indent=2), with its encoder built once: json.dumps builds a
# new one for every call that passes indent.
_json_text = json.JSONEncoder(indent=2).encode

# _write_int_array builds a digit table of max + 1 words; an array with a
# larger value is written from its tolist().
_DIGIT_TABLE_CAP = 1 << 20

# _write_int_array fills its byte template this many bytes at a time.
_ARRAY_CHUNK_BYTES = 1 << 18


def _holds_array(v) -> bool:
    """Whether v is a numpy array, or a dict or list or tuple that holds one at any depth."""
    if isinstance(v, dict):
        return any(map(_holds_array, v.values()))
    if isinstance(v, (list, tuple)):
        return any(map(_holds_array, v))
    return type(v) is np.ndarray


def _write_json(v, nl: str, parts: list[str], writes: list) -> None:
    """Append v's text, its lines starting with nl, to parts; json writes all but the int arrays, which flush to writes."""
    inner = nl + "  "
    if type(v) is np.ndarray and v.dtype.kind in "iu" and v.ndim in (1, 2) and not (v.size and v.min() < 0):
        top = int(v.max()) if v.size else _DIGIT_TABLE_CAP
        if top < _DIGIT_TABLE_CAP:
            _write_int_array(v, top, nl, parts, writes)
        else:
            _write_json(v.tolist(), nl, parts, writes)
    elif type(v) is dict and set(map(type, v)) == {str} and _holds_array(v):
        sep = "{"
        for key, value in v.items():
            parts += (sep, inner, json.encoder.encode_basestring_ascii(key), ": ")
            _write_json(value, inner, parts, writes)
            sep = ","
        parts += (nl, "}")
    elif type(v) in (list, tuple) and _holds_array(v):
        sep = "["
        for item in v:
            parts += (sep, inner)
            _write_json(item, inner, parts, writes)
            sep = ","
        parts += (nl, "]")
    else:
        # json never writes a raw newline inside a value, so each of its
        # newlines starts a line and takes this value's indent.
        parts.append(_json_text(v).replace("\n", nl))


# bytes.translate drops zero bytes at about 1.5 ns a byte of text and
# bytes.replace at about 20 ns a dropped byte, so translate is the faster
# above about one zero byte in 13. Each frees a chunk's raw bytes on return,
# so that the next chunk's reuse their memory.
def _strip_dense_zeros(raw: bytes) -> bytes:
    return raw.translate(None, b"\0")


def _strip_sparse_zeros(raw: bytes) -> bytes:
    return raw.replace(b"\0", b"")


def _write_int_array(a: np.ndarray, top: int, nl: str, parts: list[str], writes: list) -> None:
    """Write the text of json.dumps(a.tolist(), indent=2), whose lines start with nl, through parts to writes.

    a is a non-empty 1-D or 2-D array of ints in 0..top, top = a.max() <
    _DIGIT_TABLE_CAP.
    Each value takes one word of width bytes, its digits right-aligned after
    zero bytes: a row of the output is a byte template whose word-aligned
    holes are filled by one gather from a digit table for 0..max, and the
    zero bytes (the digits' padding and the holes' alignment) are dropped
    by bytes.translate where they are dense, as in a table of values from
    100 up, and by bytes.replace where they are sparse, as in values below
    10. One buffer of template rows, about _ARRAY_CHUNK_BYTES long, is made
    per call and refilled for each chunk of rows; each chunk's
    text is flushed to writes with the pieces before it, and the closing
    bracket is left in parts. So the buffers stay small whatever the size of
    a, and its text is never held whole.
    """
    inner = nl + "  "
    width = 1 << (len(str(top)) - 1).bit_length()   # 1, 2, 4 or 8 bytes
    powers = 10 ** np.arange(width - 1, -1, -1)
    quotients = np.arange(top + 1)[:, None] // powers
    # A digit is kept where the value has it; 0 keeps its last digit.
    digits = np.where((quotients > 0) | (powers == 1), quotients % 10 + ord("0"), 0).astype(np.uint8)
    table = digits.view(f"<u{width}")[:, 0]
    # Each row of a 2-D array is its own list; a 1-D array is one value per row.
    if a.ndim == 2:
        cell = inner + "  "
        seps, tail = ["[" + cell] + ["," + cell] * (a.shape[1] - 1), inner + "]," + inner
    else:
        a, seps, tail = a[:, None], [""], "," + inner
    template, holes = "", []
    for sep in seps:
        template += "\0" * (-(len(template) + len(sep)) % width) + sep
        holes.append(len(template) // width)
        template += "\0" * width
    template += tail + "\0" * (-(len(template) + len(tail)) % width)
    row = np.frombuffer(template.encode(), dtype=np.uint8)
    # The zero bytes of a row whose values spread evenly over 0..top: the
    # template's, less the digits that fill its holes.
    zeros = np.count_nonzero(row == 0) - len(holes) * np.count_nonzero(digits) / len(digits)
    strip = _strip_dense_zeros if 13 * zeros > len(row) else _strip_sparse_zeros
    step = max(1, _ARRAY_CHUNK_BYTES // len(row))
    buf = np.tile(row, (min(step, len(a)), 1))
    words = buf.view(table.dtype)
    parts.append("[" + inner)
    for start in range(0, len(a), step):
        block = a[start:start + step]
        words[:len(block), holes] = table[block]
        text = strip(buf[:len(block)].tobytes()).decode("ascii")
        if start + step >= len(a):
            text = text[:len(text) - len(inner) - 1]   # the last row's "," + inner
        parts.append(text)
        _flush(parts, writes)
    parts.append(nl + "]")


def _emit(args, code: int, text: str, obj) -> int:
    """Print text, or stream the JSON text of obj() for --json, also writing it to --out if given; return code.

    obj is called only when --json or --out asks for JSON, and before --out
    is opened, so an error in it leaves no file. Each chunk of the text goes
    to stdout and to --out as soon as it is made (_stream_json), so the text
    is never held whole. If a write fails part-way, stdout and --out each
    hold a prefix of the text, and main reports the error with exit 2.
    """
    out = getattr(args, "out", None)
    if args.json or out:
        value = obj()
        with open(out, "w") if out else contextlib.nullcontext() as file:
            writes = ([file.write] if out else []) + ([sys.stdout.write] if args.json else [])
            _stream_json(value, writes)
            _flush(["\n"], writes)
    if not args.json:
        print(text)
    return code


def _emit_table(args, code: int, header: str, m: racks.MagmaTable, tail=(), extra=dict) -> int:
    """_emit for a table: the text is header, the table (if small) and tail; the JSON is m's, then extra()."""
    text = "\n".join([header, _maybe_table(m), *tail])
    return _emit(args, code, text, lambda: {**racks.magma_to_json(m), **extra()})


def format_table(m: racks.MagmaTable) -> str:
    width = max(2, len(str(m.size - 1)))
    header = "    " + " ".join(f"{y:>{width}}" for y in range(m.size))
    rule = "   " + "-" * (len(header) - 3)
    rows = [
        f"{x:>3} " + " ".join(f"{int(v):>{width}}" for v in m.op[x])
        for x in range(m.size)
    ]
    lines = [header, rule, *rows]
    if m.labels:
        lines += ["labels: " + ", ".join(f"{i}={lab}" for i, lab in enumerate(m.labels))]
    return "\n".join(lines)


def _maybe_table(m: racks.MagmaTable) -> str:
    if m.size <= MAX_PRINTED_TABLE:
        return format_table(m)
    return f"(table {m.size}x{m.size} omitted; write it with --out)"


def _parse_subgroup(G: groups.FiniteGroup, text: str) -> groups.Subgroup:
    elems = []
    for tok in text.replace(",", " ").split():
        try:
            elems.append(int(tok))
        except ValueError:
            raise ShapeError(f"--subgroup takes comma-separated element indices, got {excerpt(tok)}") from None
    return groups.subgroup(G, elems)


def _load_map(args) -> bundles.EquivariantMap:
    return bundles.load_map(bundles.load_bundle(args.bundle), args.map)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    m = racks.load_magma(args.quandle)
    report = racks.verify_rack(m)
    ok = report.is_rack if args.rack else report.is_quandle
    return _emit(args, 0 if ok else 1, "\n".join(report.lines()), lambda: {"size": m.size, **report.to_json()})


def cmd_build(args) -> int:
    q = gauge.build(_load_map(args))
    b = q.map.bundle
    header = f"gauge quandle on {q.table.size} points (base {b.base_size}, group order {b.group.order})"
    return _emit(args, 0, "\n".join([header, _maybe_table(q.table)]), lambda: gauge.gauge_quandle_to_json(q))


def cmd_rack(args) -> int:
    m = gauge.rack_from_map(_load_map(args))
    report = racks.verify_rack(m)
    header = f"augmented-rack table on {m.size} points"
    code = 0 if report.is_rack else 1
    return _emit_table(args, code, header, m, report.lines(), lambda: {"report": report.to_json()})


def cmd_census(args) -> int:
    b = bundles.load_bundle(args.bundle)
    classes = gauge.isomorphism_census(b)
    total = sum(len(c) for c in classes)
    lines = [f"{total} equivariant maps fall into {len(classes)} isomorphism classes"]
    for i, c in enumerate(classes):
        lines.append(f"  class {i}: size {len(c)}, representative section values {list(c[0])}")
    return _emit(args, 0, "\n".join(lines), lambda: {
        "maps": total,
        "classes": [{"representative": list(c[0]), "size": len(c)} for c in classes],
    })


def cmd_fiber(args) -> int:
    f = _load_map(args)
    q = gauge.build(f)
    transported = gauge.transport_fiber(q, args.base)
    c = f.section_values[args.base]
    G = f.bundle.group
    expected = racks.generalized_alexander(G, G.inner_automorphism(c))
    matches = transported == expected
    header = f"fiber quandle at base {args.base}, transported to the group"
    tail = [f"matches generalized Alexander table for section value {c}: {'yes' if matches else 'NO'}"]
    return _emit_table(args, 0 if matches else 1, header, transported, tail, lambda: {
        "base": args.base,
        "chart": list(range(G.order)),
        "matches_generalized_alexander": matches,
        "section_value": c,
    })


def cmd_reduce(args) -> int:
    q = gauge.build(_load_map(args))
    H = _parse_subgroup(q.map.bundle.group, args.subgroup)
    reduced = gauge.reduce(q, H)
    classes = reduced.classes
    header = f"reduced quandle on {reduced.table.size} classes (subgroup {list(H.elements)})"
    tail = ["classes: " + " ".join("{" + ",".join(map(str, c)) + "}" for c in classes)]
    return _emit_table(args, 0, header, reduced.table, tail, lambda: {
        "classes": np.array(classes),
        "subgroup": list(H.elements),
    })


def cmd_homogeneous(args) -> int:
    spec = args.group
    from_file = spec not in groups.catalog_names() and Path(spec).exists()
    G = groups.group_from_json(load_json(spec)) if from_file else groups.catalog(spec)
    H = _parse_subgroup(G, args.subgroup)
    table = gauge.homogeneous_quandle(H, args.element)
    header = f"homogeneous quandle on {table.size} right cosets"
    return _emit_table(args, 0, header, table, extra=lambda: {"subgroup": list(H.elements), "element": args.element})


def cmd_lie_check(args) -> int:
    raw = load_json(args.config)
    if args.seed is None and not (isinstance(raw, dict) and "seed" in raw):
        raise ValueError("randomized runs need a seed: set one in the config or pass --seed")
    config = lie.SweepConfig.from_json(raw)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.tolerance is not None:
        config = dataclasses.replace(config, tolerance=args.tolerance)
    report = lie.run_sweep(config)
    return _emit(args, 0 if report.passed else 1, "\n".join(report.lines()), report.to_json)


# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="gaugequandles",
        description="Construct and verify quandles from gauge transformations of discrete principal bundles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out")
    output.add_argument("--json", action="store_true")
    on_map = argparse.ArgumentParser(add_help=False)
    on_map.add_argument("bundle")
    on_map.add_argument("map")

    p = sub.add_parser("verify", help="check the rack/quandle axioms of a table file")
    p.add_argument("quandle", help="quandle JSON file")
    p.add_argument("--rack", action="store_true", help="accept racks (skip idempotency in the verdict)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    sub.add_parser(
        "build", parents=[on_map, output], help="build the gauge quandle of a bundle and an equivariant map"
    ).set_defaults(func=cmd_build)

    sub.add_parser(
        "rack", parents=[on_map, output], help="build the augmented-rack table p1 <| p2 = p1 * f(p2)"
    ).set_defaults(func=cmd_rack)

    p = sub.add_parser(
        "census", parents=[output], help="group all gauge quandles on a bundle into isomorphism classes"
    )
    p.add_argument("bundle")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser(
        "fiber", parents=[on_map, output], help="transport one fiber quandle onto the group and cross-check it"
    )
    p.add_argument("--base", type=int, required=True)
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser(
        "reduce", parents=[on_map, output], help="quotient a gauge quandle by a subgroup of the structure group"
    )
    p.add_argument("--subgroup", required=True, help="comma-separated element indices")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("homogeneous", parents=[output], help="coset quandle of a group for a centralizing element")
    p.add_argument("group", help="catalog name, or else a group JSON file")
    p.add_argument("--subgroup", required=True, help="comma-separated element indices")
    p.add_argument("--element", type=int, required=True)
    p.set_defaults(func=cmd_homogeneous)

    p = sub.add_parser("lie-check", parents=[output], help="run the seeded numerical axiom sweep from a config file")
    p.add_argument("config", help="sweep config JSON file")
    p.add_argument("--seed", type=int)
    p.add_argument("--tolerance", type=float)
    p.set_defaults(func=cmd_lie_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AlgebraError, KeyError, ValueError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes included.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
