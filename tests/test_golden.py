"""The CLI's output, byte for byte, against the goldens in tests/golden/.

Each case runs `cli.main` in-process from tests/golden/inputs/ and compares
the exit code, stdout and stderr with expected.json. The goldens cover every
finite subcommand in human and --json mode, a group file whose identity is
not at index 0, and the errors whose witnesses come from the group layer.
Regenerate them with tests/golden/regenerate.py only for an intended change.
"""

import json
from pathlib import Path

import pytest

from gaugequandles import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = json.loads((GOLDEN / "expected.json").read_text())


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_cli_output_matches_golden(name, monkeypatch, capsys):
    case = EXPECTED[name]
    monkeypatch.chdir(GOLDEN / "inputs")
    code = cli.main(case["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


def test_goldens_cover_every_finite_subcommand_and_error():
    commands = {case["argv"][0] for case in EXPECTED.values()}
    assert commands == {"verify", "build", "rack", "census", "fiber", "reduce", "homogeneous"}
    stderr = "".join(case["stderr"] for case in EXPECTED.values())
    for text in (
        "not closed under product",
        "not closed under inverses",
        "leaves the normalizer",
        "does not centralize",
        "no two-sided identity",
    ):
        assert text in stderr
    table = json.loads((GOLDEN / "inputs" / "s3_relabeled.json").read_text())["table"]
    assert table[0] != list(range(6))  # identity off index 0: the relabel path runs


def test_a_failed_parse_leaves_the_shared_parser_as_it_was(monkeypatch, capsys):
    # build_parser is built once per process. A parse that exits 2 after
    # reading --json and --rack must not change what the next command prints.
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.chdir(GOLDEN / "inputs")
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "shift_rack.json", "--json", "--rack", "--no-such-option"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    case = EXPECTED["verify-rack-as-quandle-human"]
    code = cli.main(case["argv"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])
