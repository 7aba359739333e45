"""The scale gates: the CLI at its caps, each command under a timeout and a peak-RSS bound.

`PYTHONPATH=$PWD/src python3 ci/scale_gates.py` runs every command as `python -m gaugequandles.cli` in a
temporary directory, prints each gate's wall time and largest peak RSS, and exits 1 naming each gate that
failed. It takes no options. tests/test_workflow_gates.py pins GATES.
"""

import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from gaugequandles.racks import WITNESS_CAP


class Gate(NamedTuple):
    peak_mb: int | None  # the bound on the peak RSS of each of its commands; None bounds none
    timeout_s: int  # the timeout of each of its commands
    expect: dict  # the counts and exit codes it expects, passed to body as keywords
    body: Callable  # body(cli, **expect) runs the gate; cli(*args, code) runs one command


class Failed(Exception):
    """A wrong exit code, count or output, a timeout, or a peak RSS above the gate's bound."""


GATES: dict[str, Gate] = {}


def gate(name: str, peak_mb: int | None, timeout_s: int, **expect):
    """A decorator that puts a gate's body in GATES under its name."""
    return lambda body: GATES.setdefault(name, Gate(peak_mb, timeout_s, expect, body))


# Forks argv, reaps it with os.wait4 and writes its exit code and peak RSS in KB to the pipe fd it is given.
LAUNCH = """import os, sys
if (pid := os.fork()) == 0:
    os.execv(sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
os.write(int(sys.argv[1]), b"%d %d" % (os.waitstatus_to_exitcode(status), usage.ru_maxrss))"""


def run(argv: list[str], timeout_s: float) -> tuple[int, str, str, float]:
    """argv's exit code, stdout, stderr and own peak RSS in MB; Failed when it runs for timeout_s seconds.

    A fresh interpreter runs LAUNCH, since RUSAGE_CHILDREN gives the largest child this process ever reaped
    and a process keeps across exec the peak of the memory it was forked with, here this process's.
    """
    read_fd, fd = os.pipe()
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err, os.fdopen(read_fd, "rb") as report:
        proc = subprocess.Popen([sys.executable, "-c", LAUNCH, str(fd), *argv], stdout=out, stderr=err,
                                pass_fds=[fd], start_new_session=True)
        os.close(fd)
        try:
            proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the launcher and the command
            proc.wait()
            raise Failed(f"{' '.join(argv)} timed out after {timeout_s} s") from None
        code, peak_kb = map(int, report.read().split())
        out.seek(0), err.seek(0)
        return code, out.read().decode(), err.read().decode(), peak_kb / 1024  # ru_maxrss is in KB on Linux


def write(path: str, obj) -> None:
    Path(path).write_text(json.dumps(obj))


def s4x170() -> None:
    """S4 over 170 base points, 4,080 points, the largest S4 bundle under TOTAL_POINTS_CAP, and a seeded map."""
    rng = random.Random(0)
    write("s4x170.json", {"group": "S4", "base_size": 170})
    write("s4x170_map.json", {"section_values": [rng.randrange(24) for _ in range(170)]})


def census(cli, key: str, classes: int, maps: int) -> None:
    group, base = key.split("x")
    write(f"{key}.json", {"group": group, "base_size": int(base)})
    report = json.loads(cli("census", f"{key}.json", "--json", code=0)[0])
    if (got := (len(report["classes"]), report["maps"])) != (classes, maps):
        raise Failed(f"{key} census gave {got[0]} classes over {got[1]} maps, not {classes} over {maps}")


def check_witnesses(text: str, op: np.ndarray) -> int:
    """A numpy recount of op's failing triples, which the verify --json text must list (the first WITNESS_CAP,
    in (x, y, z) order) and count."""
    first, recount = [], 0
    for x in range(len(op)):
        # (x <| y) <| z against (x <| z) <| (y <| z), one x at a time: [y, z]
        fails = np.argwhere(op[op[x]] != op[op[x][None, :], op])
        recount += len(fails)
        first += [[x, y, z] for y, z in fails[: WITNESS_CAP - len(first)].tolist()]
    listed = json.loads(text)
    if listed["sd_violations"] != first:
        raise Failed(f"verify --json wrote {len(listed['sd_violations'])} sd_violations rows that are not "
                     f"the first {len(first)} failing triples of the recount")
    if listed.get("sd_violation_count", len(first)) != recount:
        raise Failed(f"verify --json gave {listed.get('sd_violation_count')} violations; the recount {recount}")
    return recount


# build must verify its quandle axioms well inside the timeout: ids for the 24^2 composites of its 24 distinct
# columns, then one 4,080 x 24 grid of id comparisons. On a shared 2-core Xeon that takes about 0.9-1.1 s,
# launch included (about 2.4 s with one n^2 scan per distinct column). Human mode builds no JSON object, so the
# peak RSS of the build stays under 600 MB (about 350 MB; 762 MB when it built the unused JSON).
@gate("Build at the total points cap", peak_mb=600, timeout_s=300, build=0)
def _(cli, build):
    s4x170()
    cli("build", "s4x170.json", "s4x170_map.json", code=build)


# S3 over 6 base points (46,656 maps), Q8 over 5 and D4 over 4. Only the first map of each Aut(G) orbit of keys
# is verified; every other map is checked by its witness on the |P| x |G| augmented form, in bounded chunks.
# On a shared 2-core Xeon each takes about 0.4-0.8 s (S3x6 took 18 s when every map was built), at a peak RSS of
# about 59-60 MB (70 MB on full tables), and the gate fails above 200 MB. Checking every map in one unchunked
# stack takes S3x6 to about 199.8 MB, just under it, so test_census_allocates_a_few_chunks_beyond_the_maps in
# tests/test_gauge.py bounds the witness pass instead.
@gate("Census at scale", peak_mb=200, timeout_s=60, S3x6=(28, 46_656), Q8x5=(25, 32_768), D4x4=(27, 4_096))
def _(cli, **counts):
    for key, pair in counts.items():
        census(cli, key, *pair)


# Z1 over 4,096 base points has one map, so its census compares nothing and builds no table: its root is
# decided on the 4,096 x 1 augmented form. On a shared 2-core Xeon it takes about 0.3 s at a peak RSS of about
# 32 MB (1.5 s and 350 MB when the census built the 4,096-point table), so the gate fails above 150 MB.
@gate("Census of one key at scale", peak_mb=150, timeout_s=60, Z1x4096=(1, 1))
def _(cli, Z1x4096):
    census(cli, "Z1x4096", *Z1x4096)


# A seeded random 160-element table. Its 160 columns all differ, so verify_rack compares all 160^2 (y, z) pairs
# at every x and counts 4,070,444 self-distributivity violations, but keeps only the first WITNESS_CAP (10,000).
# The human count and the --json witnesses and count must match a numpy recount. On a shared 2-core Xeon each
# run takes about 0.3-0.5 s at a peak RSS of about 34 MB. When every witness was kept, the --json run wrote
# 175 MB of text and peaked at about 125 MB, as did the human run, so the gate fails above 100 MB.
@gate("Verify a random table at scale", peak_mb=100, timeout_s=60, verify=1, json_bytes=500_000)
def _(cli, verify, json_bytes):
    op = np.random.default_rng(0).integers(0, 160, (160, 160))
    write("random160.json", {"op": op.tolist()})
    out = cli("verify", "random160.json", code=verify)[0]
    printed = int(re.search(r"^self-distributivity violations: (\d+)$", out, re.M).group(1))
    text = cli("verify", "random160.json", "--json", code=verify)[0]
    recount = check_witnesses(text, op)
    if printed != recount:
        raise Failed(f"verify printed {printed} self-distributivity violations; the recount gives {recount}")
    if len(text) > json_bytes:
        raise Failed(f"verify --json wrote {len(text)} bytes, above {json_bytes}")


# S4 over 20 base points (480 points), built with --out: the file's text must be json.dumps of its own value
# with indent 2, byte for byte, which checks the table writer on values up to 479. Three pairs of entries are
# then swapped, so the table has fewer distinct columns than points and few failing triples, unlike the random
# table. On a shared 2-core Xeon the build and the verify take about 0.4 s each and peak at about 40 MB, and the
# recount finds 14,196 failing triples. The gate fails above 120 MB.
@gate("Verify a built table at scale", peak_mb=120, timeout_s=60, build=0, verify=1)
def _(cli, build, verify):
    rng = np.random.default_rng(0)
    write("s4x20.json", {"group": "S4", "base_size": 20})
    write("s4x20_map.json", {"section_values": rng.integers(0, 24, 20).tolist()})
    cli("build", "s4x20.json", "s4x20_map.json", "--out", "s4x20_quandle.json", code=build)
    text = Path("s4x20_quandle.json").read_text()
    if text != json.dumps(json.loads(text), indent=2) + "\n":
        raise Failed("build --out wrote text that is not json.dumps(..., indent=2) of its own value")
    op, swaps = np.array(json.loads(text)["op"]), 0
    while swaps < 3:
        x1, y1, x2, y2 = rng.integers(0, len(op), 4).tolist()
        if op[x1, y1] != op[x2, y2]:
            op[x1, y1], op[x2, y2] = op[x2, y2], op[x1, y1]
            swaps += 1
    write("s4x20_swapped.json", {"op": op.tolist()})
    text = cli("verify", "s4x20_swapped.json", "--json", code=verify)[0]
    check_witnesses(text, op)


# S4 over 170 base points, built with --out: about 195 MB of text, which verify --json must read back as a
# quandle, straight from the text in blocks of rows (errors.load_json). On a shared 2-core Xeon the verify
# takes about 1.6-2.0 s at a peak RSS of about 403 MB (the build 1.4 s at 348 MB). When json.loads made a Python
# int per entry, the verify took 2.9-4.2 s and peaked at 891 MB, so the gate fails above 650 MB.
@gate("Verify a table at the total points cap", peak_mb=650, timeout_s=300, build=0, verify=0)
def _(cli, build, verify):
    s4x170()
    cli("build", "s4x170.json", "s4x170_map.json", "--out", "s4x170_quandle.json", code=build)
    if json.loads(cli("verify", "s4x170_quandle.json", "--json", code=verify)[0])["is_quandle"] is not True:
        raise Failed("verify --json did not give is_quandle true")


# SO3, then SU2, with samples = SAMPLES_CAP (10,000). On a shared 2-core Xeon the two take about 0.7 s each,
# launch included, at peak RSSs of about 54 MB and 58 MB, so the gate fails above 150 MB.
@gate("Lie sweep at the samples cap", peak_mb=150, timeout_s=60, SO3=0, SU2=0)
def _(cli, **codes):
    for model, code in codes.items():
        write(f"sweep-{model}.json", {"model": model, "samples": 10_000, "seed": 1})
        cli("lie-check", f"sweep-{model}.json", code=code)


# GL2 over t in [-20, 20] leaves the group (a membership residual of inf): exit 1, with --json output that a
# strict parser reads, inf written as null. GL3 over [-50, 50] samples a numerically singular element: exit 2
# with an error line that names the model and the cause. That element is singular only after rounding (det
# exp(A) = e^tr(A) > 0), so the case rests on the BLAS kernels: 6 to 20 of its 200 elements have an exactly
# zero LU pivot under OpenBLAS's SkylakeX, Haswell, Sandybridge and Prescott kernels alike. tests/test_cli.py
# builds an exactly singular one.
@gate("GL sweep past its range", peak_mb=None, timeout_s=60, GL2=1, GL3=2)
def _(cli, GL2, GL3):
    def reject(name):
        raise Failed(f"lie-check --json wrote {name}, which is not JSON")

    write("gl2.json", {"model": "GL2", "samples": 200, "seed": 3, "t_range": [-20, 20]})
    report = json.loads(cli("lie-check", "gl2.json", "--json", code=GL2)[0], parse_constant=reject)
    if report["axioms"]["membership"]["max_residual"] is not None:
        raise Failed("GL2 membership residual is not null")
    write("gl3.json", {"model": "GL3", "samples": 200, "seed": 3, "t_range": [-50, 50]})
    err = cli("lie-check", "gl3.json", code=GL3)[1]
    if "GL3 element is numerically singular" not in err:
        raise Failed(f"GL3 lie-check wrote {err!r}")


def run_gate(name: str, g: Gate) -> str | None:
    """Run one gate and print its line; why it failed, or None."""
    peaks, start, failure = [0.0], time.monotonic(), None

    def cli(*args, code):
        got, out, err, peak_mb = run([sys.executable, "-m", "gaugequandles.cli", *args], g.timeout_s)
        peaks.append(peak_mb)
        if got != code:
            raise Failed(f"{' '.join(args)} exited {got}, not {code}: {err[-300:]!r}")
        return out, err

    try:
        g.body(cli, **g.expect)
        if g.peak_mb is not None and max(peaks) > g.peak_mb:
            raise Failed(f"peak RSS {max(peaks):.0f} MB is above {g.peak_mb} MB")
    except Failed as exc:
        failure = str(exc)
    except Exception as exc:  # an error fails this gate alone, as a traceback failed its own CI step
        traceback.print_exc()
        failure = f"{type(exc).__name__}: {exc}"
    bound = "no bound" if g.peak_mb is None else f"bound {g.peak_mb} MB"
    line = f"{name}: {time.monotonic() - start:.1f} s, peak RSS {max(peaks):.0f} MB ({bound})"
    print(line + (f"; FAILED: {failure}" if failure else ""), flush=True)
    return failure


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        failed = [name for name, g in GATES.items() if run_gate(name, g)]
    print(f"{len(GATES) - len(failed)} of {len(GATES)} gates passed" + "".join(f"; {n} FAILED" for n in failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
