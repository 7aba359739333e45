"""Command-line front end.

Subcommands: verify, build, rack, census, fiber, reduce, homogeneous,
lie-check. Human output is aligned tables; pass --json for machine output.
Exit codes: 0 pass, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import bundles, gauge, groups, lie, racks
from .errors import AlgebraError

MAX_PRINTED_TABLE = 12


def _emit(args, obj: dict, human: str) -> None:
    """Write obj to --out (if given) and print it (--json) or the human text.

    The JSON text is made once and shared by the file and stdout.
    """
    out = getattr(args, "out", None)
    text = json.dumps(obj, indent=2) if args.json or out else ""
    if out:
        Path(out).write_text(text + "\n")
    print(text if args.json else human)


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


def _report_lines(report: racks.RackReport) -> str:
    lines = [
        f"rack:    {'yes' if report.is_rack else 'NO'}",
        f"quandle: {'yes' if report.is_quandle else 'NO'}",
        f"self-distributivity violations: {len(report.sd_violations)}",
        f"non-bijective right translations: {len(report.bijectivity_violations)}",
        f"idempotency violations: {len(report.idem_violations)}",
    ]
    if report.sd_violations:
        lines.append(f"  first sd witness (x, y, z): {report.sd_violations[0]}")
    if report.bijectivity_violations:
        lines.append(f"  first non-bijective column y: {report.bijectivity_violations[0]}")
    if report.idem_violations:
        lines.append(f"  first idempotency witness x: {report.idem_violations[0]}")
    return "\n".join(lines)


def _parse_subgroup(G: groups.FiniteGroup, text: str) -> groups.Subgroup:
    elems = [int(tok) for tok in text.replace(",", " ").split()]
    return groups.subgroup(G, elems)


def _load_json(path: str):
    return json.loads(Path(path).read_text())


def _load_map(args) -> bundles.EquivariantMap:
    return bundles.load_map(bundles.load_bundle(args.bundle), args.map)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    m = racks.load_magma(args.quandle)
    report = racks.verify_rack(m)
    ok = report.is_rack if args.rack else report.is_quandle
    _emit(args, {"size": m.size, **report.to_json()}, _report_lines(report))
    return 0 if ok else 1


def cmd_build(args) -> int:
    q = gauge.build(_load_map(args))
    obj = gauge.gauge_quandle_to_json(q)
    b = q.bundle
    human = f"gauge quandle on {q.table.size} points (base {b.base_size}, group order {b.group.order})\n"
    human += _maybe_table(q.table)
    _emit(args, obj, human)
    return 0


def cmd_rack(args) -> int:
    m = gauge.rack_from_map(_load_map(args))
    report = racks.verify_rack(m)
    obj = {**racks.magma_to_json(m), "report": report.to_json()}
    human = f"augmented-rack table on {m.size} points\n" + _maybe_table(m)
    human += "\n" + _report_lines(report)
    _emit(args, obj, human)
    return 0 if report.is_rack else 1


def cmd_census(args) -> int:
    b = bundles.load_bundle(args.bundle)
    classes = gauge.isomorphism_census(b)
    total = sum(c.size for c in classes)
    obj = {
        "maps": total,
        "classes": [
            {"representative": list(c.representative), "size": c.size}
            for c in classes
        ],
    }
    lines = [f"{total} equivariant maps fall into {len(classes)} isomorphism classes"]
    for i, c in enumerate(classes):
        lines.append(f"  class {i}: size {c.size}, representative section values {list(c.representative)}")
    _emit(args, obj, "\n".join(lines))
    return 0


def cmd_fiber(args) -> int:
    f = _load_map(args)
    q = gauge.build(f)
    transported, psi = gauge.transport_fiber(q, args.base)
    c = f.section_values[args.base]
    G = f.bundle.group
    expected = racks.generalized_alexander(G, G.inner_automorphism(c))
    matches = transported == expected
    obj = {
        **racks.magma_to_json(transported),
        "base": args.base,
        "chart": [int(v) for v in psi],
        "matches_generalized_alexander": matches,
        "section_value": c,
    }
    human = f"fiber quandle at base {args.base}, transported to the group\n"
    human += _maybe_table(transported)
    human += f"\nmatches generalized Alexander table for section value {c}: {'yes' if matches else 'NO'}"
    _emit(args, obj, human)
    return 0 if matches else 1


def cmd_reduce(args) -> int:
    q = gauge.build(_load_map(args))
    H = _parse_subgroup(q.bundle.group, args.subgroup)
    reduced = gauge.reduce(q, H)
    obj = {
        **racks.magma_to_json(reduced.table),
        "classes": [list(c) for c in reduced.classes],
        "subgroup": list(H.elements),
    }
    human = f"reduced quandle on {reduced.table.size} classes (subgroup {list(H.elements)})\n"
    human += _maybe_table(reduced.table)
    human += "\nclasses: " + " ".join("{" + ",".join(map(str, c)) + "}" for c in reduced.classes)
    _emit(args, obj, human)
    return 0


def cmd_homogeneous(args) -> int:
    spec = args.group
    G = groups.catalog(spec) if not Path(spec).exists() else groups.group_from_json(_load_json(spec))
    H = _parse_subgroup(G, args.subgroup)
    table = gauge.homogeneous_quandle(H, args.element)
    obj = {**racks.magma_to_json(table), "subgroup": list(H.elements), "element": args.element}
    human = f"homogeneous quandle on {table.size} right cosets\n" + _maybe_table(table)
    _emit(args, obj, human)
    return 0


def cmd_lie_check(args) -> int:
    raw = _load_json(args.config)
    if args.seed is None and not (isinstance(raw, dict) and "seed" in raw):
        raise ValueError("randomized runs need a seed: set one in the config or pass --seed")
    config = lie.SweepConfig.from_json(raw)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.tolerance is not None:
        config = dataclasses.replace(config, tolerance=args.tolerance)
    report = lie.run_sweep(config)
    obj = report.to_json()
    lines = [f"model {config.model}, seed {config.seed}, {config.samples} samples, tolerance {config.tolerance:g}"]
    for name, rep in {**report.axioms, "section_equivariance": report.section_equivariance}.items():
        status = "PASS" if rep.passed else "FAIL"
        lines.append(f"  {name:<22} max residual {rep.max_residual:.3e}  (tol {rep.tolerance:g})  {status}")
    noe = report.noether
    lines.append(
        f"  {'noether_agreement':<22} disagreements {noe.disagreements}, "
        f"equal-pair residual {noe.equal_pair_max_residual:.3e}  "
        f"{'PASS' if noe.passed else 'FAIL'}"
    )
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    _emit(args, obj, "\n".join(lines))
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("group", help="catalog name or group JSON file")
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
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
