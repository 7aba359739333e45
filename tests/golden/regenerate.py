"""Write the golden CLI outputs that tests/test_golden.py compares against.

    PYTHONPATH=src python tests/golden/regenerate.py

Writes the input files under tests/golden/inputs/ and, for every case, the
argv, exit code, stdout and stderr of `cli.main` to tests/golden/expected.json.
Run it only when a change to the CLI output is intended: the goldens pin the
output byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import numpy as np

from gaugequandles import cli, groups, racks

HERE = Path(__file__).resolve().parent
INPUTS = HERE / "inputs"

# S3 in catalog order is e, (0,2,1), (1,0,2), (1,2,0), (2,0,1), (2,1,0).
# RELABEL sends catalog element a to index RELABEL[a], so the identity sits
# at index 3 and group_from_table has to move it back to 0. After that move
# the group's elements are e, (0,2,1), (1,2,0), (2,1,0), (2,0,1), (1,0,2):
# A3 = {0, 2, 4} and the transpositions are 1, 3 and 5.
RELABEL = np.array([3, 0, 5, 1, 4, 2])

# A seeded random 9-element table: 617 self-distributivity witnesses, 9
# non-bijective columns and 8 idempotency witnesses, so the goldens pin a
# long witness list in --json.
RANDOM_SIZE, RANDOM_SEED = 9, 0


def _relabeled_s3() -> dict:
    t = groups.catalog("S3").table
    new = np.empty_like(t)
    new[np.ix_(RELABEL, RELABEL)] = RELABEL[t]
    return {"name": "S3-relabeled", "order": 6, "table": new.tolist()}


def _random_table() -> dict:
    rng = np.random.default_rng(RANDOM_SEED)
    return {"op": rng.integers(0, RANDOM_SIZE, size=(RANDOM_SIZE, RANDOM_SIZE)).tolist()}


def _inputs() -> dict[str, object]:
    bad = racks.magma_to_json(racks.conjugation_quandle(groups.catalog("S3")))
    bad["op"] = bad["op"].tolist()
    bad["op"][0][1] = (bad["op"][0][1] + 1) % 6
    s3r = _relabeled_s3()
    return {
        "trivial3": racks.magma_to_json(racks.trivial_quandle(3)),
        "conj_s3_bad": bad,
        "shift_rack": {"size": 2, "op": [[1, 1], [0, 0]]},
        "random9": _random_table(),
        "s3_relabeled": s3r,
        "no_identity": {"table": [[0, 0], [0, 0]]},
        "s3x2": {"group": "S3", "base_size": 2},
        "s3r_x2": {"group": s3r, "base_size": 2},
        "d4x1": {"group": "D4", "base_size": 1},
        "d4x3": {"group": "D4", "base_size": 3},
        "q8x2": {"group": "Q8", "base_size": 2},
        "s4x1": {"group": "S4", "base_size": 1},
        "no_identity_x1": {"group": {"table": [[0, 0], [0, 0]]}, "base_size": 1},
        "map_unit2": {"section_values": [0, 0]},
        "map_s3": {"section_values": [2, 3]},
        "map_s3_late": {"section_values": [0, 3]},
        "map_s3r": {"section_values": [5, 2]},
        "map_d4": {"section_values": [4]},
        "map_d4x3": {"section_values": [1, 5, 2]},
        "map_q8": {"section_values": [2, 7]},
        "map_s4": {"section_values": [9]},
        "map_x1": {"section_values": [1]},
    }


def _cases() -> dict[str, list[str]]:
    def i(name: str) -> str:
        return f"{name}.json"

    plain = {
        "verify-trivial": ["verify", i("trivial3")],
        "verify-corrupted": ["verify", i("conj_s3_bad")],
        "verify-rack-mode": ["verify", i("shift_rack"), "--rack"],
        "verify-rack-as-quandle": ["verify", i("shift_rack")],
        "verify-random9": ["verify", i("random9")],
        "verify-random9-rack-mode": ["verify", i("random9"), "--rack"],
        "build-s3x2": ["build", i("s3x2"), i("map_s3")],
        "build-s3-relabeled": ["build", i("s3r_x2"), i("map_s3r")],
        "build-q8x2": ["build", i("q8x2"), i("map_q8")],
        "build-s4x1": ["build", i("s4x1"), i("map_s4")],
        "rack-s3x2": ["rack", i("s3x2"), i("map_s3")],
        "rack-s3-relabeled": ["rack", i("s3r_x2"), i("map_s3r")],
        "rack-d4x3": ["rack", i("d4x3"), i("map_d4x3")],
        # No section value is the unit, so all 16 points are idempotency witnesses.
        "rack-q8x2": ["rack", i("q8x2"), i("map_q8")],
        "census-s3x2": ["census", i("s3x2")],
        "census-s3-relabeled": ["census", i("s3r_x2")],
        "census-d4x1": ["census", i("d4x1")],
        "census-d4x3": ["census", i("d4x3")],
        "census-q8x2": ["census", i("q8x2")],
        "census-s4x1": ["census", i("s4x1")],
        "fiber-s3x2-base0": ["fiber", i("s3x2"), i("map_s3"), "--base", "0"],
        "fiber-s3x2-base1": ["fiber", i("s3x2"), i("map_s3"), "--base", "1"],
        "fiber-s3-relabeled": ["fiber", i("s3r_x2"), i("map_s3r"), "--base", "1"],
        "fiber-s4x1": ["fiber", i("s4x1"), i("map_s4"), "--base", "0"],
        "reduce-s3x2-unit": ["reduce", i("s3x2"), i("map_unit2"), "--subgroup", "0,1"],
        "reduce-s3x2-a3": ["reduce", i("s3x2"), i("map_s3"), "--subgroup", "0,3,4"],
        "reduce-s3-relabeled": ["reduce", i("s3r_x2"), i("map_s3r"), "--subgroup", "0,2,4"],
        "reduce-q8x2-center": ["reduce", i("q8x2"), i("map_q8"), "--subgroup", "0,1"],
        "reduce-d4x3-center": ["reduce", i("d4x3"), i("map_d4x3"), "--subgroup", "0,2"],
        "homogeneous-s3": ["homogeneous", "S3", "--subgroup", "0,1", "--element", "1"],
        "homogeneous-s3-relabeled": ["homogeneous", i("s3_relabeled"), "--subgroup", "0,3", "--element", "3"],
        "homogeneous-d4": ["homogeneous", "D4", "--subgroup", "0,2", "--element", "1"],
        "homogeneous-s4": ["homogeneous", "S4", "--subgroup", "0,7", "--element", "7"],
        # Errors whose witnesses come from the group layer.
        "error-subgroup-not-closed": ["reduce", i("s3x2"), i("map_unit2"), "--subgroup", "0,1,2"],
        "error-subgroup-missing-inverse": ["reduce", i("s3x2"), i("map_unit2"), "--subgroup", "0,3"],
        "error-subgroup-not-closed-relabeled": ["homogeneous", i("s3_relabeled"), "--subgroup", "0,1,3", "--element", "0"],
        "error-subgroup-missing-inverse-relabeled": ["homogeneous", i("s3_relabeled"), "--subgroup", "0,2", "--element", "0"],
        "error-subgroup-missing-inverse-z4": ["homogeneous", "Z4", "--subgroup", "0,1", "--element", "0"],
        "error-normalizer": ["reduce", i("s3x2"), i("map_s3"), "--subgroup", "0,1"],
        "error-normalizer-second-fiber": ["reduce", i("s3x2"), i("map_s3_late"), "--subgroup", "0,1"],
        "error-normalizer-relabeled": ["reduce", i("s3r_x2"), i("map_s3r"), "--subgroup", "0,1"],
        "error-centralizer": ["homogeneous", "S3", "--subgroup", "0,1", "--element", "3"],
        "error-centralizer-a3": ["homogeneous", "S3", "--subgroup", "0,3,4", "--element", "1"],
        "error-centralizer-d4": ["homogeneous", "D4", "--subgroup", "0,4", "--element", "1"],
        "error-no-identity-group": ["homogeneous", i("no_identity"), "--subgroup", "0", "--element", "0"],
        "error-no-identity-bundle": ["build", i("no_identity_x1"), i("map_x1")],
    }
    cases = {}
    for name, argv in plain.items():
        cases[f"{name}-human"] = argv
        cases[f"{name}-json"] = [*argv, "--json"]
    return cases


def run_case(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> None:
    INPUTS.mkdir(exist_ok=True)
    for name, obj in _inputs().items():
        (INPUTS / f"{name}.json").write_text(json.dumps(obj, default=np.ndarray.tolist) + "\n")
    os.chdir(INPUTS)
    expected = {name: run_case(argv) for name, argv in _cases().items()}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
