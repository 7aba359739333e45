"""The CI workflow keeps its scale gates, their Python and their memory bounds.

Eight steps of .github/workflows/tests.yml run Python through
`python - <<'EOF'` and bound the peak RSS of what they start. Nothing else
in the test suite runs them, so a gate that drops out, a step body that no
longer compiles or a raised bound would go unnoticed until a runner picks
the workflow up. The workflow is read as text, with no YAML parser. A bound
may be tightened, never raised.
"""

import re
import textwrap
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"

# Each gate step and the highest peak-RSS bound in MB it may hold; None for a step that bounds no memory.
GATES = {
    "Build at the total points cap": 600,
    "Census at scale": 200,
    "Census of one key at scale": 150,
    "Verify a random table at scale": 100,
    "Verify a built table at scale": 120,
    "Verify a table at the total points cap": 650,
    "Lie sweep at the samples cap": 150,
    "GL sweep past its range": None,
}


def steps(text: str) -> dict[str, str]:
    """Each `- name:` step of the workflow text and the text that follows it, up to the next one."""
    parts = re.split(r"^\s*- name: (.+)$", text, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def heredocs(step: str) -> list[str]:
    """The bodies a step feeds to `python - ... <<'EOF'`, as the shell passes them after YAML removes the indent."""
    return [textwrap.dedent(body) for body in re.findall(r"python - [^\n]*<<'EOF'\n(.*?)^\s*EOF$", step, re.S | re.M)]


def gate_problems(text: str) -> list[str]:
    """One line for each gate step that is missing, holds no Python or a raised RSS bound, and for each body
    that does not compile."""
    found = steps(text)
    problems = [f"{name}: step missing" for name in GATES if name not in found]
    for name, step in found.items():
        bodies = heredocs(step)
        if name in GATES and not bodies:
            problems.append(f"{name}: no python heredoc")
        for body in bodies:
            try:
                compile(body, name, "exec")
            except SyntaxError as exc:
                problems.append(f"{name}: heredoc does not compile: {exc}")
        if GATES.get(name) is not None:
            bounds = [int(mb) for body in bodies for mb in re.findall(r"\bpeak_mb > (\d+)", body)]
            if not bounds:
                problems.append(f"{name}: no peak-RSS bound")
            elif max(bounds) > GATES[name]:
                problems.append(f"{name}: peak-RSS bound {max(bounds)} MB is above {GATES[name]} MB")
    return problems


def test_every_gate_runs_compiling_python_under_its_bound():
    assert gate_problems(WORKFLOW.read_text()) == []


def test_the_check_finds_a_missing_gate_a_broken_body_and_a_raised_bound():
    text = WORKFLOW.read_text()

    def problems(old, new):
        assert text.count(old) == 1
        return gate_problems(text.replace(old, new))

    assert problems("- name: Census of one key at scale", "- name: Census of a key") == [
        "Census of one key at scale: step missing"
    ]
    assert problems("if peak_mb > 120 else 0", "if peak_mb > 121 else 0") == [
        "Verify a built table at scale: peak-RSS bound 121 MB is above 120 MB"
    ]
    assert problems("peak_mb > 600", "peak_mb >= 600") == ["Build at the total points cap: no peak-RSS bound"]
    assert problems("python - <<'EOF'\n          import json, subprocess, sys", "python3 -c 'import sys'\n") == [
        "GL sweep past its range: no python heredoc"
    ]
    [broken] = problems("if got != (classes, maps):", "if got != (classes, maps)")
    assert broken.startswith("Census at scale: heredoc does not compile")
