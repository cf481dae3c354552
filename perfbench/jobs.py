"""The four benchmark workloads: their inputs, their job, and the job's check.

A job is a fixed sequence of `sbc` command lines run in-process through
`sbc.cli.run_cli` with standard output and error captured.  Its check compares
what `sbc` printed and wrote with what the generator says a correct `sbc` must
produce (see sbdgen.py); it never asks `sbc` for the answer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Callable, Optional

import sbdgen

# Sizes per workload.  They keep one job short enough for a run of the
# benchmark's length to hold a few dozen jobs, while each workload's
# dominant cost stays the one it was chosen for (see reference.json).
SIZES = {
    "analyze-dense": {"screens": 24},
    "generate-sparse": {"screens": 80},
    "check-fmt-large": {"screens": 400},
    "simulate-long": {"screens": 60, "gestures": 3000},
}
WORKLOADS = tuple(SIZES)


@dataclass
class Outcome:
    results: list[tuple[int, str, str]]  # (exit code, stdout, stderr) per command
    files: dict[str, str] = field(default_factory=dict)  # generated path -> contents


@dataclass
class Job:
    commands: list[list[str]]
    check: Callable[[Outcome], list[str]]  # problems found; empty when correct
    out_dir: Optional[str] = None  # emptied before each run, read back after


def execute(job: Job, run_cli) -> Outcome:
    """Run the job's commands back to back; this is the timed part."""
    results = []
    for argv in job.commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(argv)
        results.append((code, out.getvalue(), err.getvalue()))
    return Outcome(results)


def prepare(job: Job) -> None:
    if job.out_dir is not None:
        shutil.rmtree(job.out_dir, ignore_errors=True)


def collect(job: Job, outcome: Outcome) -> None:
    """Read back the files the job wrote, keyed by path under out_dir."""
    if job.out_dir is None:
        return
    for dirpath, _, names in os.walk(job.out_dir):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as fh:
                outcome.files[os.path.relpath(path, job.out_dir).replace(os.sep, "/")] = fh.read()


def digest(outcome: Outcome) -> str:
    h = hashlib.sha256()
    for code, out, err in outcome.results:
        h.update(f"{code}\0{len(out)}\0{len(err)}\0".encode())
        h.update(out.encode())
        h.update(err.encode())
    for path in sorted(outcome.files):
        h.update(f"{path}\0{len(outcome.files[path])}\0".encode())
        h.update(outcome.files[path].encode())
    return h.hexdigest()


def _write(path: str, text: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _expect_result(problems, outcome, index, code, stdout=None):
    got_code, out, err = outcome.results[index]
    if got_code != code:
        problems.append(f"command {index + 1}: exit code {got_code}, expected {code}")
    if err:
        problems.append(f"command {index + 1}: unexpected stderr {err[:200]!r}")
    if stdout is not None and out != stdout:
        problems.append(f"command {index + 1}: stdout differs from the expected text")


# ---------------------------------------------------------------------------


def _analyze_dense(workdir: str, seed: int, screens: int) -> Job:
    board = sbdgen.dense_ladder(screens, seed)
    path = _write(os.path.join(workdir, "ladder.sbd"), board.text)
    expected = sbdgen.expected_flow_findings(board.spec)
    unsafe = {e for e, safe in board.spec.edges.items() if not safe}

    def check(outcome: Outcome) -> list[str]:
        problems: list[str] = []
        _expect_result(problems, outcome, 0, 1)
        lines = outcome.results[0][1].splitlines()
        got = set()
        for line in lines:
            rec = json.loads(line)
            w = rec["witness"]
            got.add((rec["code"], w[0], w[-1]))
            if rec["severity"] != "error" or rec["file"] != path:
                problems.append(f"unexpected finding {line[:200]}")
            elif any((a, b) not in unsafe for a, b in zip(w, w[1:])):
                problems.append(f"witness is not a path of undeclassified edges: {w}")
            elif rec["code"] == "IF001" and w[0] not in board.spec.sources:
                problems.append(f"IF001 witness starts at a trusted node: {w}")
        if len(got) != len(lines):
            problems.append("a finding is reported twice")
        if got != expected:
            problems.append(
                f"findings differ: {len(got - expected)} unexpected, {len(expected - got)} missing "
                f"(expected {len(expected)})"
            )
        return problems

    return Job([["analyze", "--format", "machine", path]], check)


def _generate_sparse(workdir: str, seed: int, screens: int) -> Job:
    app = sbdgen.sparse_app(screens, seed)
    path = _write(os.path.join(workdir, "app.sbd"), app.text)
    out_dir = os.path.join(workdir, "out")
    if sbdgen.expected_flow_findings(app.spec):
        raise AssertionError("the sparse app must have no flow errors")

    def check(outcome: Outcome) -> list[str]:
        problems: list[str] = []
        _expect_result(problems, outcome, 0, 0)
        counts: dict[str, int] = {}
        for line in outcome.results[0][1].splitlines():
            if not line.startswith("warning "):
                problems.append(f"unexpected output line {line[:200]!r}")
                continue
            code = line.split()[1]
            counts[code] = counts.get(code, 0) + 1
        if counts != app.warnings:
            problems.append(f"warnings {counts}, expected {app.warnings}")
        files = outcome.files
        if set(files) != app.files:
            problems.append(f"generated {len(files)} files, expected {len(app.files)}")
            return problems
        for screen in app.screens:
            if not files[f"screens/{screen}.ctrl"].startswith(f"controller {screen}\n"):
                problems.append(f"screens/{screen}.ctrl does not open with its controller line")
        funs = {ln[4:].split("(")[0] for ln in files["ops.stub"].splitlines() if ln.startswith("fun ")}
        if funs != app.ops:
            problems.append(f"ops.stub declares {len(funs)} operations, expected {len(app.ops)}")
        hooks = sum(text.count("## HOOK") for text in files.values())
        if hooks != app.hooks:
            problems.append(f"{hooks} HOOK markers, expected {app.hooks}")
        return problems

    return Job([["generate", path, "-o", out_dir]], check, out_dir)


def _check_fmt_large(workdir: str, seed: int, screens: int) -> Job:
    app = sbdgen.sparse_app(screens, seed)
    path = _write(os.path.join(workdir, "large.sbd"), app.text)

    def check(outcome: Outcome) -> list[str]:
        problems: list[str] = []
        _expect_result(problems, outcome, 0, 0, stdout="")
        _expect_result(problems, outcome, 1, 0, stdout=app.text)
        return problems

    return Job([["check", path], ["fmt", path]], check)


def _simulate_long(workdir: str, seed: int, screens: int, gestures: int) -> Job:
    ring = sbdgen.ring_run(screens, gestures, seed)
    path = _write(os.path.join(workdir, "ring.sbd"), ring.text)
    scn = _write(os.path.join(workdir, "long.scn"), ring.scenario)

    def check(outcome: Outcome) -> list[str]:
        problems: list[str] = []
        _expect_result(problems, outcome, 0, 0, stdout=ring.trace)
        if problems:
            walk = [ln.split(" ")[1] for ln in outcome.results[0][1].splitlines()[:-1]]
            if walk != ring.walk:
                problems.append("the screen walk differs from the expected walk")
        return problems

    return Job([["simulate", path, "--scenario", scn]], check)


_BUILDERS = {
    "analyze-dense": _analyze_dense,
    "generate-sparse": _generate_sparse,
    "check-fmt-large": _check_fmt_large,
    "simulate-long": _simulate_long,
}


def make(workload: str, seed: int, workdir: str, **sizes) -> Job:
    """Generate the workload's inputs under workdir and return its job.
    Sizes default to SIZES; tests and the sweep pass smaller or larger ones."""
    return _BUILDERS[workload](workdir, seed, **{**SIZES[workload], **sizes})
