"""Every CLI command ends in exit 0, 1 or 2 on fuzzed input files, with short output and no traceback.

The files are small racks, quandles, bundles, maps and sweep configs, all
below every cap, each either as it is, with one entry replaced by a bad value
or dropped, or cut short as text. cli.main must return 0, 1 or 2 without
raising, and keep stdout and stderr each under a fixed size.
"""

import contextlib
import copy
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gaugequandles import cli

GROUPS = {"Z1": 1, "Z2": 2, "Z3": 3, "S3": 6, "D4": 8, "Q8": 8}
# Values spliced over one entry: bounds of small tables and groups, and values of the wrong type.
BAD = [-1, 0, 1, 2, 3, 6, 8, 24, 2**63, 1.5, 2.0, float("nan"), float("inf"), "0", "S3", None, True, [0], {}]
MAX_OUT, MAX_ERR = 200_000, 2_000


def tables(n: int):
    """Small racks and quandles on n elements, and tables that are neither."""
    return st.sampled_from([
        [[x] * n for x in range(n)],  # trivial quandle
        [[(2 * y - x) % n for y in range(n)] for x in range(n)],  # dihedral quandle
        [[(x + 1) % n] * n for x in range(n)],  # permutation rack
    ]) | st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def corrupted(draw, obj):
    """obj as it is, two times in three; else obj with one entry, at any depth, replaced by a BAD value or
    dropped."""
    if draw(st.integers(0, 2)):
        return obj
    obj = copy.deepcopy(obj)
    holder, key = None, None
    node = obj
    while isinstance(node, (dict, list)) and node and (holder is None or draw(st.booleans())):
        holder, key = node, draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    if holder is None:
        return draw(st.sampled_from(BAD))
    if draw(st.integers(0, 3)):
        holder[key] = draw(st.sampled_from(BAD))
    else:
        del holder[key]
    return obj


@st.composite
def cases(draw):
    """(argv, files): a command line and the JSON object each of its files holds."""
    command = draw(st.sampled_from(["verify", "build", "rack", "census", "fiber", "reduce", "lie-check"]))
    flags = ["--json"] if draw(st.booleans()) else []
    if command == "verify":
        n = draw(st.integers(1, 6))
        quandle = {"op": draw(tables(n))}
        if draw(st.booleans()):
            quandle["size"] = n
        return ["verify", "q.json", *flags, *(["--rack"] if draw(st.booleans()) else [])], {"q.json": quandle}
    if command == "lie-check":
        sweep = {"model": draw(st.sampled_from(["SO3", "SU2", "GL2"])), "samples": draw(st.integers(1, 6)),
                 "seed": draw(st.integers(0, 5)), "base_points": draw(st.integers(1, 3)), "t_range": [-2, 2]}
        return ["lie-check", "s.json", *flags], {"s.json": sweep}
    group = draw(st.sampled_from(sorted(GROUPS)))
    base = draw(st.integers(1, 3 if GROUPS[group] < 8 else 2))
    files = {"b.json": {"group": group, "base_size": base}}
    if command == "census":
        return ["census", "b.json", *flags], files
    files["m.json"] = {"section_values": draw(st.lists(st.integers(0, GROUPS[group] - 1), min_size=base,
                                                        max_size=base))}
    extra = {"fiber": ["--base", str(draw(st.integers(-1, base)))],
             "reduce": ["--subgroup", draw(st.sampled_from(["0", "0,1", "0,3,4", "0 1", "1.5", "x", ""]))]}
    return [command, "b.json", "m.json", *flags, *extra.get(command, [])], files


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases(), data=st.data())
def test_every_command_exits_0_1_or_2_with_short_output(tmp_path_factory, case, data):
    argv, files = case
    tmp = tmp_path_factory.getbasetemp()
    for name, obj in files.items():
        text = json.dumps(data.draw(corrupted(obj)))
        if not data.draw(st.integers(0, 9)):
            text = text[: data.draw(st.integers(0, len(text) - 1))]
        (tmp / name).write_text(text)
    argv = [str(tmp / a) if a in files else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert len(out.getvalue()) < MAX_OUT and len(err.getvalue()) < MAX_ERR, argv
