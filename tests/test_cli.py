import json

import pytest

from gaugequandles import bundles, cli, gauge, groups, lie, racks

S3_PERMS = groups.symmetric_group_elements(3)
TRANSPOSITION = S3_PERMS.index((1, 0, 2))
THREE_CYCLE = S3_PERMS.index((1, 2, 0))


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
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


def test_build_over_group_above_associativity_cap_exits_2(tmp_path, capsys):
    n = groups.ASSOCIATIVITY_CAP + 1
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    bundle = write(tmp_path, "bundle.json", {"group": {"table": table}, "base_size": 1})
    fmap = write(tmp_path, "map.json", {"section_values": [0]})
    assert cli.main(["build", bundle, fmap]) == 2
    err = capsys.readouterr().err
    assert f"associativity check cap {groups.ASSOCIATIVITY_CAP}" in err
    assert "verify_associativity" not in err  # a Python keyword the command line cannot pass


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
    out = tmp_path / "quandle.json"
    assert cli.main(["build", bundle, fmap, "--out", str(out), "--json"]) == 0
    assert out.read_text() == capsys.readouterr().out


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
