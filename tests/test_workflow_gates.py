"""ci/scale_gates.py keeps each gate's bound, timeout, counts and exit codes, and CI runs it.

The gates are too slow for this suite, so it pins their data: a bound or a
timeout may be tightened, never raised. The workflow is read as text.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
_spec = importlib.util.spec_from_file_location("scale_gates", ROOT / "ci" / "scale_gates.py")
scale_gates = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scale_gates)

# Each gate: its highest peak-RSS bound in MB (None: unbounded), its longest timeout in s, and what it expects.
PINNED = {
    "Build at the total points cap": (600, 300, {"build": 0}),
    "Census at scale": (200, 60, {"S3x6": (28, 46_656), "Q8x5": (25, 32_768), "D4x4": (27, 4_096)}),
    "Census of one key at scale": (150, 60, {"Z1x4096": (1, 1)}),
    "Verify a random table at scale": (100, 60, {"verify": 1, "json_bytes": 500_000}),
    "Verify a built table at scale": (120, 60, {"build": 0, "verify": 1}),
    "Verify a table at the total points cap": (650, 300, {"build": 0, "verify": 0}),
    "Lie sweep at the samples cap": (150, 60, {"SO3": 0, "SU2": 0}),
    "GL sweep past its range": (None, 60, {"GL2": 1, "GL3": 2}),
}


def gate_problems(gates: dict, workflow: str) -> list[str]:
    """One line for each pinned gate that is missing, raised or changed, for a workflow with no step that
    runs the script, and for each step but the README walkthrough that feeds Python to `python -`."""
    problems = [f"{name}: gate missing" for name in PINNED if name not in gates]
    for name, g in gates.items():
        peak_mb, timeout_s, expect = PINNED[name]
        if peak_mb is not None and (g.peak_mb is None or g.peak_mb > peak_mb):
            problems.append(f"{name}: peak-RSS bound {g.peak_mb} MB is above {peak_mb} MB")
        if g.timeout_s > timeout_s:
            problems.append(f"{name}: timeout {g.timeout_s} s is above {timeout_s} s")
        if g.expect != expect:
            problems.append(f"{name}: expects {g.expect}")
    parts = re.split(r"^\s*- name: (.+)$", workflow, flags=re.M)
    steps = dict(zip(parts[1::2], parts[2::2]))
    if not any(re.search(r"^\s*run: python3? ci/scale_gates\.py$", step, re.M) for step in steps.values()):
        problems.append("no step runs ci/scale_gates.py")
    heredocs = [name for name, step in steps.items() if re.search(r"\bpython3? - .*<<", step)]
    return problems + [f"{name}: python heredoc" for name in heredocs if name != "README CLI walkthrough"]


def test_every_gate_keeps_its_bounds_and_counts_and_the_workflow_runs_them():
    assert set(scale_gates.GATES) == set(PINNED)
    assert gate_problems(scale_gates.GATES, WORKFLOW.read_text()) == []


def test_the_check_finds_a_missing_gate_a_raised_bound_a_changed_count_and_a_heredoc():
    text, cap, gl = WORKFLOW.read_text(), "Build at the total points cap", "GL sweep past its range"

    def problems(name=None, workflow=text, **change):
        gates = {k: g._replace(**change) if k == name else g for k, g in scale_gates.GATES.items()}
        return gate_problems({k: g for k, g in gates.items() if change or k != name}, workflow)

    assert problems("Census of one key at scale") == ["Census of one key at scale: gate missing"]
    assert problems(cap, peak_mb=601) == [f"{cap}: peak-RSS bound 601 MB is above 600 MB"]
    assert problems(cap, peak_mb=None) == [f"{cap}: peak-RSS bound None MB is above 600 MB"]
    assert problems(cap, timeout_s=301) == [f"{cap}: timeout 301 s is above 300 s"]
    assert problems(gl, expect={"GL2": 1, "GL3": 1}) == [f"{gl}: expects {{'GL2': 1, 'GL3': 1}}"]
    census = {**PINNED["Census at scale"][2], "S3x6": (29, 46_656)}
    assert problems("Census at scale", expect=census) == [f"Census at scale: expects {census}"]
    assert problems(workflow=text.replace("python ci/scale_gates.py", "true")) == ["no step runs ci/scale_gates.py"]
    step = "      - name: Census at scale\n        run: |\n          python - <<'EOF'\n          EOF\n"
    assert problems(workflow=text.replace("      - name: README", step + "      - name: README")) == [
        "Census at scale: python heredoc"
    ]


def test_each_command_reports_its_own_peak_rss():
    # RUSAGE_CHILDREN would give the second command the 60 MB command's peak.
    big = scale_gates.run([sys.executable, "-c", "b = b'x' * (60 << 20)"], 60)
    small = scale_gates.run([sys.executable, "-c", "pass"], 60)
    assert (big[0], small[0]) == (0, 0)
    assert big[3] > 60 > 30 > small[3], (big[3], small[3])
    with pytest.raises(scale_gates.Failed, match="timed out after 0.5 s"):
        scale_gates.run([sys.executable, "-c", "import time; time.sleep(30)"], 0.5)
