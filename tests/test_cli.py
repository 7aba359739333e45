import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gaugequandles import bundles, cli, gauge, groups, lie, racks

S3_PERMS = groups.symmetric_group_elements(3)
TRANSPOSITION = S3_PERMS.index((1, 0, 2))
THREE_CYCLE = S3_PERMS.index((1, 2, 0))


def write(tmp_path, name, obj):
    # magma_to_json and group_to_json hand over their tables as arrays.
    path = tmp_path / name
    path.write_text(json.dumps(obj, default=np.ndarray.tolist))
    return str(path)


@pytest.fixture
def s3_point(tmp_path):
    bundle = write(tmp_path, "bundle.json", {"group": "S3", "base_size": 1})
    fmap = write(tmp_path, "map.json", {"section_values": [TRANSPOSITION]})
    return bundle, fmap


def test_verify_passes_on_trivial_quandle(tmp_path, capsys):
    path = write(tmp_path, "q.json", racks.magma_to_json(racks.trivial_quandle(4)))
    assert cli.main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "quandle: yes" in out


def test_verify_fails_with_witness_on_corrupted_table(tmp_path, capsys):
    obj = racks.magma_to_json(racks.conjugation_quandle(groups.catalog("S3")))
    obj["op"] = obj["op"].tolist()
    obj["op"][0][1] = (obj["op"][0][1] + 1) % 6
    path = write(tmp_path, "bad.json", obj)
    assert cli.main(["verify", path]) == 1
    out = capsys.readouterr().out
    assert "NO" in out


def test_verify_conjugation_quandle_export(tmp_path):
    obj = racks.magma_to_json(racks.conjugation_quandle(groups.catalog("S3")))
    path = write(tmp_path, "conj.json", obj)
    assert cli.main(["verify", path]) == 0


def test_verify_json_output(tmp_path, capsys):
    path = write(tmp_path, "q.json", racks.magma_to_json(racks.trivial_quandle(3)))
    assert cli.main(["verify", path, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["is_quandle"] is True and obj["size"] == 3


def test_verify_rack_mode(tmp_path):
    # The constant-shift rack is a rack but not a quandle
    path = write(tmp_path, "rack.json", {"size": 2, "op": [[1, 1], [0, 0]]})
    assert cli.main(["verify", path, "--rack"]) == 0
    assert cli.main(["verify", path]) == 1


def test_verify_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert cli.main(["verify", str(bad)]) == 2
    assert cli.main(["verify", str(tmp_path / "missing.json")]) == 2


def test_build_round_trips_through_verify(tmp_path, capsys, s3_point):
    bundle, fmap = s3_point
    out = str(tmp_path / "quandle.json")
    assert cli.main(["build", bundle, fmap, "--out", out]) == 0
    assert cli.main(["verify", out]) == 0


def test_build_matches_generalized_alexander(tmp_path, capsys, s3_point):
    bundle, fmap = s3_point
    assert cli.main(["build", bundle, fmap, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    G = groups.catalog("S3")
    expected = racks.generalized_alexander(G, G.inner_automorphism(TRANSPOSITION))
    assert obj["op"] == expected.op.tolist()
    assert obj["provenance"]["section_values"] == [TRANSPOSITION]


def test_build_prints_small_tables(tmp_path, capsys, s3_point):
    bundle, fmap = s3_point
    assert cli.main(["build", bundle, fmap]) == 0
    out = capsys.readouterr().out
    assert "0" in out and "gauge quandle on 6 points" in out


def test_build_input_error_exits_2(tmp_path, s3_point):
    bundle, _ = s3_point
    bad_map = write(tmp_path, "badmap.json", {"section_values": [1, 2]})
    assert cli.main(["build", bundle, bad_map]) == 2


def test_rack_subcommand(tmp_path, capsys, s3_point):
    bundle, fmap = s3_point
    assert cli.main(["rack", bundle, fmap, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["report"]["is_rack"] is True
    b = bundles.DiscreteBundle(groups.catalog("S3"), 1)
    f = bundles.EquivariantMap(b, (TRANSPOSITION,))
    assert obj["op"] == gauge.rack_from_map(f).op.tolist()


def test_census_s3_over_point(tmp_path, capsys):
    bundle = write(tmp_path, "bundle.json", {"group": "S3", "base_size": 1})
    assert cli.main(["census", bundle, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["maps"] == 6
    assert sorted(c["size"] for c in obj["classes"]) == [1, 2, 3]


def test_census_cap_exceeded_exits_2(tmp_path, capsys):
    bundle = write(tmp_path, "bundle.json", {"group": "S4", "base_size": 5})  # 24^5 = 7,962,624 maps
    assert cli.main(["census", bundle]) == 2
    assert "7962624 maps exceed the cap 1000000" in capsys.readouterr().err


def test_group_object_without_a_table_exits_2(tmp_path, capsys):
    # The catalog group is named by the bare string "S3", not by {"name": "S3"}.
    bundle = write(tmp_path, "bundle.json", {"group": {"name": "S3"}, "base_size": 1})
    assert cli.main(["census", bundle]) == 2
    assert "group JSON must be a catalog name or carry a 'table'" in capsys.readouterr().err


def test_build_over_group_above_associativity_cap_exits_2(tmp_path, capsys):
    n = groups.ASSOCIATIVITY_CAP + 1
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    bundle = write(tmp_path, "bundle.json", {"group": {"table": table}, "base_size": 1})
    fmap = write(tmp_path, "map.json", {"section_values": [0]})
    assert cli.main(["build", bundle, fmap]) == 2
    err = capsys.readouterr().err
    assert f"associativity check cap {groups.ASSOCIATIVITY_CAP}" in err
    assert f"order {n}" in err


def test_fiber_subcommand(tmp_path, capsys):
    bundle = write(tmp_path, "bundle.json", {"group": "S3", "base_size": 2})
    fmap = write(tmp_path, "map.json", {"section_values": [TRANSPOSITION, THREE_CYCLE]})
    assert cli.main(["fiber", bundle, fmap, "--base", "1", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["matches_generalized_alexander"] is True
    assert obj["section_value"] == THREE_CYCLE


def test_reduce_subcommand(tmp_path, capsys):
    bundle = write(tmp_path, "bundle.json", {"group": "S3", "base_size": 1})
    fmap = write(tmp_path, "map.json", {"section_values": [TRANSPOSITION]})
    G = groups.catalog("S3")
    H = groups.generated_subgroup(G, [THREE_CYCLE])
    sub = ",".join(str(h) for h in H.elements)
    assert cli.main(["reduce", bundle, fmap, "--subgroup", sub, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["size"] == 2


def test_reduce_normalizer_violation_exits_2(tmp_path, capsys):
    bundle = write(tmp_path, "bundle.json", {"group": "S3", "base_size": 1})
    fmap = write(tmp_path, "map.json", {"section_values": [THREE_CYCLE]})
    G = groups.catalog("S3")
    H = groups.generated_subgroup(G, [TRANSPOSITION])
    sub = ",".join(str(h) for h in H.elements)
    assert cli.main(["reduce", bundle, fmap, "--subgroup", sub]) == 2


def test_homogeneous_subcommand(tmp_path, capsys):
    G = groups.catalog("S3")
    H = groups.generated_subgroup(G, [THREE_CYCLE])
    sub = ",".join(str(h) for h in H.elements)
    assert cli.main(["homogeneous", "S3", "--subgroup", sub, "--element", str(THREE_CYCLE), "--json"]) == 0
    assert cli.main(["homogeneous", "S3", "--subgroup", sub, "--element", str(TRANSPOSITION)]) == 2


def test_homogeneous_from_group_file(tmp_path, capsys):
    path = write(tmp_path, "group.json", groups.group_to_json(groups.catalog("Z6")))
    assert cli.main(["homogeneous", path, "--subgroup", "0,3", "--element", "2", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["size"] == 3


def test_homogeneous_reads_a_catalog_name_that_a_path_shadows(tmp_path, monkeypatch, capsys):
    golden = json.loads((Path(__file__).parent / "golden" / "expected.json").read_text())
    case = golden["homogeneous-s3-human"]
    (tmp_path / case["argv"][1]).mkdir()
    monkeypatch.chdir(tmp_path)
    assert cli.main(case["argv"]) == case["code"]
    assert capsys.readouterr() == (case["stdout"], case["stderr"])
    assert cli.main(["homogeneous", "S9", "--subgroup", "0", "--element", "0"]) == 2
    assert "unknown catalog group 'S9'" in capsys.readouterr().err


def test_lie_check(tmp_path, capsys):
    config = write(
        tmp_path,
        "sweep.json",
        {"model": "SO3", "base_points": 2, "samples": 20, "seed": 4, "t_range": [-2, 2], "tolerance": 1e-8},
    )
    assert cli.main(["lie-check", config]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out


def test_lie_check_json_and_overrides(tmp_path, capsys):
    config = write(tmp_path, "sweep.json", {"model": "SU2", "samples": 15, "seed": 1})
    assert cli.main(["lie-check", config, "--seed", "99", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["seed"] == 99 and obj["passed"] is True


def test_lie_check_unknown_model_exits_2(tmp_path):
    config = write(tmp_path, "sweep.json", {"model": "E8", "seed": 1})
    assert cli.main(["lie-check", config]) == 2


@pytest.mark.parametrize(
    "override, message",
    [
        ({"seed": -1}, "seed must be >= 0, got -1"),
        ({"t_range": [-1e100, 1e100]}, "matrix exponential overflows at argument norm"),
    ],
)
def test_lie_check_input_error_is_one_stderr_line(tmp_path, capsys, override, message):
    config = write(tmp_path, "sweep.json", {"model": "SO3", "samples": 5, "seed": 1, **override})
    assert cli.main(["lie-check", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("model", ["SO3", "SU2"])
def test_lie_check_passes_at_large_finite_t(tmp_path, capsys, model):
    # Rodrigues' formula keeps every digit the angle has up to |t| = 1e5; only
    # past double precision (the +-1e100 case above) does the sweep exit 2.
    config = write(tmp_path, "sweep.json", {"model": model, "samples": 5, "seed": 1, "t_range": [-1e5, 1e5]})
    assert cli.main(["lie-check", config]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_lie_check_json_writes_an_infinite_gl_residual_as_null(tmp_path, capsys):
    # A GL membership residual is 0 or inf; past its range the sweep fails (exit 1) with strict JSON.
    config = write(tmp_path, "sweep.json", {"model": "GL2", "samples": 200, "seed": 3, "t_range": [-20, 20]})
    assert cli.main(["lie-check", config, "--json"]) == 1
    obj = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    membership = obj["axioms"]["membership"]
    assert membership["max_residual"] is None and membership["passed"] is False
    assert cli.main(["lie-check", config]) == 1
    assert re.search(r"membership +max residual inf .* FAIL", capsys.readouterr().out)


def test_lie_check_singular_gl_element_exits_2(tmp_path, monkeypatch, capsys):
    # No sampled element is singular in exact arithmetic (det exp(A) = e^tr(A)), so
    # every fiber gets a zero row here: singular however the LU factorization rounds.
    random_point = lie.random_point

    def singular_point(X, rng, size=None):
        m, g = random_point(X, rng, size)
        g[..., 0, :] = 0
        return m, g

    monkeypatch.setattr(lie, "random_point", singular_point)
    config = write(tmp_path, "sweep.json", {"model": "GL3", "samples": 20, "seed": 3})
    assert cli.main(["lie-check", config, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a sampled GL3 element is numerically singular and has no inverse; narrow t_range\n"


def test_lie_check_requires_a_seed(tmp_path):
    config = write(tmp_path, "sweep.json", {"model": "SO3", "samples": 5})
    assert cli.main(["lie-check", config]) == 2
    assert cli.main(["lie-check", config, "--seed", "3"]) == 0


def test_format_table_alignment():
    text = cli.format_table(racks.trivial_quandle(3))
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[2].split()[-3:] == ["0", "0", "0"]


@pytest.mark.parametrize(
    "bundle, values",
    [
        ({"group": "S3", "base_size": 2}, [2.7, 3]),
        ({"group": "S3", "base_size": 2}, [True, 3]),
        ({"group": "S3", "base_size": 2.9}, [2, 3]),
        ({"group": "S3", "base_size": 2}, 23),
        ({"group": {"table": [[0, 1], [1, 0]], "order": 2.9}, "base_size": 2}, [0, 1]),
        ({"group": {"table": [[0]], "order": True}, "base_size": 2}, [0, 0]),
        ({"group": {"table": [[0, True], [True, 0]]}, "base_size": 2}, [0, 1]),
        ({"group": {"table": [[0, 1], [1]]}, "base_size": 2}, [0, 1]),
    ],
)
def test_build_rejects_non_integer_json_exits_2(tmp_path, capsys, bundle, values):
    b = write(tmp_path, "bundle.json", bundle)
    f = write(tmp_path, "map.json", {"section_values": values})
    assert cli.main(["build", b, f]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override",
    [
        {"samples": 0},
        {"base_points": 0},
        {"t_range": [2, -2]},
        {"tolerance": -1},
        {"tolerance": 0},
        {"samples": None},
        {"t_range": 5},
        {"samples": 2.7},
        {"base_points": 1.5},
        {"seed": True},
        {"seed": "1"},
        {"model": 3},
        {"model": ["SO3"]},
        {"model": "GL0"},
        {"model": "GL-1"},
        {"model": "GLx"},
        {"model": f"GL{lie.GL_DIM_CAP + 1}"},
        {"tolerance": "1e-8"},
        {"tolerance": True},
        {"tolerance": None},
        {"tolerance": 10**400},
        {"t_range": ["1", True]},
        {"t_range": ["1", 2]},
        {"t_range": [-1, False]},
        {"t_range": [-1, 0, 1]},
        {"t_range": {"lo": -1, "hi": 1}},
        {"samples": 10**12},
        {"samples": lie.SAMPLES_CAP + 1},
        {"base_points": 10**12},
        {"base_points": lie.BASE_POINTS_CAP + 1},
        {"sample": 5},
        {"tolerence": 1e-20},
    ],
)
def test_lie_check_uncheckable_config_exits_2(tmp_path, capsys, override):
    config = write(tmp_path, "sweep.json", {"model": "SO3", "samples": 5, "seed": 1, **override})
    assert cli.main(["lie-check", config]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("size, op", [(2.9, [[0, 0], [1, 1]]), (True, [[0]]), ("2", [[0, 0], [1, 1]])])
def test_verify_rejects_non_integer_size_exits_2(tmp_path, capsys, size, op):
    path = write(tmp_path, "quandle.json", {"size": size, "op": op})
    assert cli.main(["verify", path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("op", [[[0, True], [1, 1]], [[False, 0], [1, 1]], [[0, 1], [1]]])
def test_verify_rejects_bool_entries_and_ragged_tables_exits_2(tmp_path, capsys, op):
    # numpy alone would read [0, true] as [0, 1] and report a non-bijective column (exit 1).
    path = write(tmp_path, "quandle.json", {"op": op})
    assert cli.main(["verify", path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("labels", [7, "ab", [1, None], ["a", None], None, {"0": "a", "1": "b"}])
def test_verify_rejects_malformed_labels_exits_2(tmp_path, capsys, labels):
    path = write(tmp_path, "quandle.json", {"size": 2, "op": [[0, 0], [1, 1]], "labels": labels})
    assert cli.main(["verify", path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["nan", "-1", "0"])
def test_lie_check_bad_tolerance_override_exits_2(tmp_path, tolerance):
    config = write(tmp_path, "sweep.json", {"model": "SO3", "samples": 5, "seed": 1})
    assert cli.main(["lie-check", config, "--tolerance", tolerance]) == 2


def test_out_file_holds_the_printed_json(tmp_path, capsys, s3_point):
    bundle, fmap = s3_point
    config = write(tmp_path, "sweep.json", {"model": "SO3", "samples": 5, "seed": 1})
    sub = ",".join(map(str, groups.generated_subgroup(groups.catalog("S3"), [THREE_CYCLE]).elements))
    runs = [
        ["build", bundle, fmap],
        ["rack", bundle, fmap],
        ["census", bundle],
        ["fiber", bundle, fmap, "--base", "0"],
        ["reduce", bundle, fmap, "--subgroup", sub],
        ["homogeneous", "S3", "--subgroup", sub, "--element", str(THREE_CYCLE)],
        ["lie-check", config],
    ]
    for argv in runs:
        out = tmp_path / f"{argv[0]}.json"
        code = cli.main([*argv, "--out", str(out), "--json"])
        printed = capsys.readouterr().out
        assert out.read_text() == printed, argv[0]
        out.unlink()
        assert cli.main([*argv, "--out", str(out)]) == code
        assert out.read_bytes() == printed.encode(), argv[0]
        assert capsys.readouterr().out != printed


class _WriteRecorder(io.StringIO):
    """A stdout that records the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, s):
        self.sizes.append(len(s))
        return super().write(s)


@pytest.mark.parametrize("chunk_bytes", [1, 64, cli._ARRAY_CHUNK_BYTES])
def test_json_streams_the_text_of_the_object(tmp_path, monkeypatch, chunk_bytes):
    op = np.random.default_rng(40).integers(0, 40, (40, 40))
    # Above the 40^3 triples, so every witness is listed: megabytes of text.
    monkeypatch.setattr(racks, "WITNESS_CAP", 40**3 + 1)
    f = bundles.EquivariantMap(bundles.DiscreteBundle(groups.catalog("S4"), 2), (1, 5))
    objs = {
        "verify": {"size": 40, **racks.verify_rack(racks.magma_from_table(op)).to_json()},
        "build": gauge.gauge_quandle_to_json(gauge.build(f)),
    }
    expected = {name: json.dumps(obj, indent=2, default=np.ndarray.tolist) + "\n" for name, obj in objs.items()}
    quandle = write(tmp_path, "random40.json", {"op": op.tolist()})
    bundle = write(tmp_path, "bundle.json", {"group": "S4", "base_size": 2})
    fmap = write(tmp_path, "map.json", {"section_values": [1, 5]})
    out = tmp_path / "out.json"
    monkeypatch.setattr(cli, "_ARRAY_CHUNK_BYTES", chunk_bytes)
    stdout = {}
    for name, argv in [("verify", ["verify", quandle, "--json"]),
                       ("build", ["build", bundle, fmap, "--json", "--out", str(out)])]:
        stdout[name] = _WriteRecorder()
        monkeypatch.setattr(sys, "stdout", stdout[name])
        assert cli.main(argv) == (1 if name == "verify" else 0)
        # Compared as a bool: pytest's diff of megabytes of text takes minutes.
        same = stdout[name].getvalue() == expected[name]
        assert same, name
    same = out.read_text() == expected["build"]
    assert same
    # verify's 2.5 MB of text reaches stdout in pieces, never whole.
    assert len(expected["verify"]) > 2_000_000
    assert max(stdout["verify"].sizes) < len(expected["verify"]) // 4


def test_input_error_prints_no_json_and_writes_no_out_file(tmp_path, capsys):
    bundle = write(tmp_path, "bundle.json", {"group": "S3", "base_size": 2})
    fmap = write(tmp_path, "map.json", {"section_values": [0, 6]})
    out = tmp_path / "fresh" / "out.json"
    out.parent.mkdir()
    for command in ("build", "rack", "fiber"):
        extra = ["--base", "0"] if command == "fiber" else []
        assert cli.main([command, bundle, fmap, *extra, "--json", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "", command
        assert "section values must lie in 0..5, got 6" in captured.err, command
        assert not out.exists(), command
    assert list(out.parent.iterdir()) == []


def test_key_error_prints_its_message_without_quotes(tmp_path, capsys):
    line = f"error: unknown catalog group 'S9'; available: {groups.catalog_names()}\n"
    assert cli.main(["homogeneous", "S9", "--subgroup", "0", "--element", "0"]) == 2
    assert capsys.readouterr() == ("", line)
    bundle = write(tmp_path, "bundle.json", {"group": "S9", "base_size": 1})
    fmap = write(tmp_path, "map.json", {"section_values": [0]})
    assert cli.main(["build", bundle, fmap]) == 2
    assert capsys.readouterr() == ("", line)


@pytest.mark.parametrize(
    "bundle",
    [{"group": "S4", "base_size": 10**9}, {"group": "Z1", "base_size": bundles.TOTAL_POINTS_CAP + 1}],
)
def test_bundle_over_total_points_cap_exits_2(tmp_path, capsys, bundle):
    # The map is short for the bundle, so without the cap this would still
    # exit 2, but with a different message; nothing is allocated either way.
    path = write(tmp_path, "bundle.json", bundle)
    fmap = write(tmp_path, "map.json", {"section_values": [0]})
    assert cli.main(["build", path, fmap]) == 2
    assert f"exceed the total points cap {bundles.TOTAL_POINTS_CAP}" in capsys.readouterr().err


def test_bundle_at_total_points_cap_constructs(tmp_path):
    path = write(tmp_path, "bundle.json", {"group": "Q8", "base_size": bundles.TOTAL_POINTS_CAP // 8})
    assert bundles.load_bundle(path).total_size == bundles.TOTAL_POINTS_CAP


# One file of each kind every reader takes, and a command that reads it.
INPUT_FILES = {
    "quandle": ({"op": [[0]]}, lambda f: ["verify", f["quandle"]]),
    "bundle": ({"group": "S3", "base_size": 1}, lambda f: ["build", f["bundle"], f["map"]]),
    "map": ({"section_values": [0]}, lambda f: ["build", f["bundle"], f["map"]]),
    "config": ({"model": "SO3", "samples": 5, "seed": 1}, lambda f: ["lie-check", f["config"]]),
    "group": ({"table": [[0]]}, lambda f: ["homogeneous", f["group"], "--subgroup", "0", "--element", "0"]),
}


@pytest.mark.parametrize("kind", list(INPUT_FILES))
def test_json_nested_too_deeply_is_one_line_input_error(tmp_path, capsys, kind):
    files = {name: write(tmp_path, f"{name}.json", obj) for name, (obj, _) in INPUT_FILES.items()}
    argv = INPUT_FILES[kind][1](files)
    assert cli.main(argv) == 0
    capsys.readouterr()
    Path(files[kind]).write_text('{"op": ' + "[" * 100_000 + "]" * 100_000 + "}")
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: JSON in {files[kind]} nests too deeply to read\n")


@pytest.mark.parametrize("command", ["verify", "build"])
def test_input_files_are_read_as_utf8_under_an_ascii_locale(tmp_path, command):
    # RFC 8259 section 8.1: JSON text is UTF-8 whatever the locale. verify reads its table with
    # errors.load_table_json, build its bundle with errors.load_json.
    files = {
        "quandle": ({"op": [[0, 0], [1, 1]], "labels": ["é", "ü"]}, ["verify"]),
        "bundle": ({"group": {"name": "é", "table": [[0, 1], [1, 0]]}, "base_size": 1}, ["build"]),
    }
    obj, argv = files["quandle" if command == "verify" else "bundle"]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj, ensure_ascii=False), encoding="utf-8")
    argv = [*argv, str(path)]
    if command == "build":
        argv.append(write(tmp_path, "map.json", {"section_values": [1]}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "gaugequandles.cli", *argv], env=env, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("entry", [float("nan"), 1e300])
@pytest.mark.parametrize("command", ["build", "homogeneous"])
def test_group_table_of_non_int64_floats_is_one_line_input_error(tmp_path, capsys, entry, command):
    group = {"table": [[0, 1], [1, entry]]}
    if command == "build":
        argv = ["build", write(tmp_path, "b.json", {"group": group, "base_size": 1}),
                write(tmp_path, "m.json", {"section_values": [0]})]
    else:
        argv = ["homogeneous", write(tmp_path, "g.json", group), "--subgroup", "0", "--element", "0"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: Cayley table entries must be integers, got dtype float64\n")


@pytest.mark.parametrize("command", ["reduce", "homogeneous"])
@pytest.mark.parametrize("text, token", [("0,1.5", "1.5"), ("0 x", "x")])
def test_bad_subgroup_token_names_the_flag(tmp_path, capsys, s3_point, command, text, token):
    argv = ["reduce", *s3_point] if command == "reduce" else ["homogeneous", "S3", "--element", "3"]
    assert cli.main([*argv, "--subgroup", text]) == 2
    line = f"error: --subgroup takes comma-separated element indices, got '{token}'\n"
    assert capsys.readouterr() == ("", line)


@pytest.mark.parametrize("command", ["verify", "rack", "build", "reduce", "homogeneous"])
def test_scan_cap_exits_2_on_every_verifying_command(tmp_path, capsys, monkeypatch, s3_point, command):
    quandle = write(tmp_path, "q.json", racks.magma_to_json(racks.conjugation_quandle(groups.catalog("S3"))))
    argv = {
        "verify": ["verify", quandle],
        "rack": ["rack", *s3_point],
        "build": ["build", *s3_point],
        "reduce": ["reduce", *s3_point, "--subgroup", "0"],
        "homogeneous": ["homogeneous", "S3", "--subgroup", "0", "--element", "3"],
    }[command]
    assert cli.main(argv) in (0, 1)
    capsys.readouterr()
    monkeypatch.setattr(racks, "SD_SCAN_CAP", 0)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: a table of 6 elements with ") and "distinct columns" in err


LONG = list(range(100_000))


@pytest.mark.parametrize(
    "kind, obj",
    [
        ("config", {"model": "SO3", "seed": 1, "samples": LONG}),
        ("config", {"model": "SO3", "seed": 1, "tolerance": LONG}),
        ("config", {"model": LONG, "seed": 1}),
        ("config", {"model": "SO3", "seed": 1, "t_range": LONG}),
        ("config", {"model": "GL" + "9" * 100_000, "seed": 1}),
        ("config", {"model": "x" * 100_000, "seed": 1}),
        ("config", {"model": "SO3", "seed": 1, "x" * 100_000: 1}),
        ("quandle", {"op": [[0]], "labels": ["a"] * 100_000 + [0]}),
        ("quandle", {"op": [[0]], "size": LONG}),
        ("bundle", {"group": "S3", "base_size": LONG}),
        ("map", {"section_values": [LONG]}),
        ("config", {"model": "SO3", "seed": -int("9" * 4000)}),
        ("bundle", {"group": "S3", "base_size": int("9" * 4000)}),
        ("bundle", {"group": "x" * 100_000, "base_size": 1}),
        ("group", {"order": int("9" * 4000), "table": [[0]]}),
    ],
    ids=["samples", "tolerance", "model", "t_range", "GL-digits", "model-name", "key", "labels", "size",
         "base_size", "section_values", "seed-digits", "base_size-digits", "group-name", "order-digits"],
)
def test_long_bad_value_gives_a_short_error_line(tmp_path, capsys, kind, obj):
    files = {name: write(tmp_path, f"{name}.json", default) for name, (default, _) in INPUT_FILES.items()}
    write(tmp_path, f"{kind}.json", obj)
    assert cli.main(INPUT_FILES[kind][1](files)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 300


def test_long_subgroup_token_gives_a_short_error_line(capsys, s3_point):
    assert cli.main(["reduce", *s3_point, "--subgroup", "x" * 100_000]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --subgroup takes") and len(err.encode()) < 300


def _nested(depth):
    v = 0
    for _ in range(depth):
        v = [v]
    return v


@pytest.mark.parametrize(
    "op, got",
    [(_nested(200), "nesting past numpy's dimension limit"), ([[0, 1], [1]], "ragged rows")],
)
def test_non_rectangular_table_names_its_cause(tmp_path, capsys, op, got):
    path = write(tmp_path, "quandle.json", {"op": op})
    assert cli.main(["verify", path]) == 2
    line = f"error: operation table entries must form a rectangular array, got {got}\n"
    assert capsys.readouterr() == ("", line)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["build", "S3x2", "big_values"], "section values must lie in 0..5, got 10000"),
        (["verify", "big_op"], "operation table entries must lie in 0..1, got 10000"),
        (["fiber", "S3x2", "small_values", "--base", str(10**29)], "base index must lie in 0..1, got 10000"),
        (["homogeneous", "S3", "--subgroup", "0", "--element", str(10**26)], "element must lie in 0..5, got 10000"),
        (["reduce", "S3x2", "small_values", "--subgroup", f"0,{10**23}"], "subgroup elements must lie in 0..5"),
    ],
    ids=["section-values", "op", "base", "element", "subgroup"],
)
def test_integers_past_int64_are_out_of_range(tmp_path, capsys, argv, message):
    files = {
        "S3x2": {"group": "S3", "base_size": 2},
        "big_values": {"section_values": [1, 10**30]},
        "small_values": {"section_values": [1, 2]},
        "big_op": {"op": [[0, 10**23], [1, 1]]},
    }
    argv = [write(tmp_path, f"{a}.json", files[a]) if a in files else a for a in argv]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1


def test_build_rebuilt_from_its_provenance_gives_the_same_table(tmp_path, capsys):
    # The golden relabeled S3 renamed "S3": a catalog name that is not its table.
    relabeled = json.loads((Path(__file__).parent / "golden" / "inputs" / "s3_relabeled.json").read_text())
    group = {**relabeled, "name": "S3"}
    bundle = write(tmp_path, "bundle.json", {"group": group, "base_size": 2})
    assert cli.main(["build", bundle, write(tmp_path, "map.json", {"section_values": [2, 3]}), "--json"]) == 0
    first = json.loads(capsys.readouterr().out)
    provenance = first["provenance"]
    assert groups.group_from_json(provenance["bundle"]["group"]) == groups.group_from_json(group)
    rebuilt = [
        "build",
        write(tmp_path, "bundle2.json", provenance["bundle"]),
        write(tmp_path, "map2.json", {"section_values": provenance["section_values"]}),
        "--json",
    ]
    assert cli.main(rebuilt) == 0
    assert json.loads(capsys.readouterr().out)["op"] == first["op"]


def _raise(*args, **kwargs):
    raise RuntimeError("human mode built JSON")


def test_human_mode_builds_no_json(tmp_path, monkeypatch, capsys):
    golden = Path(__file__).resolve().parent / "golden"
    expected = json.loads((golden / "expected.json").read_text())
    commands = {"verify", "build", "rack", "fiber", "reduce", "homogeneous"}
    cases = [c for name, c in expected.items() if name.endswith("-human") and c["argv"][0] in commands]
    assert {c["argv"][0] for c in cases} == commands
    config = write(tmp_path, "sweep.json", {"model": "SO3", "samples": 5, "seed": 1})
    for target, name in [(racks, "magma_to_json"), (gauge, "gauge_quandle_to_json"),
                         (racks.RackReport, "to_json"), (lie.SweepReport, "to_json")]:
        monkeypatch.setattr(target, name, _raise)
    assert cli.main(["lie-check", config]) == 0
    assert capsys.readouterr().out.endswith("overall: PASS\n")
    monkeypatch.chdir(golden / "inputs")
    for case in cases:
        assert cli.main(case["argv"]) == case["code"], case["argv"]
        assert capsys.readouterr().out == case["stdout"], case["argv"]
