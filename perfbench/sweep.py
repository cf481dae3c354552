"""On-demand sweep of the dense ladder: per-layer cost against size.

    python3 perfbench/sweep.py

Not part of the gated runs.  For each size in SIZES it runs the analyze-dense
job traced REPEAT times, keeps the median of each per-layer metric, and fits a
growth exponent for each: the least-squares slope of log(metric) against
log(screens), and against log(findings).  A flow pass that is linear in the
findings it emits shows an exponent near 1 in the second column.  The table
goes to standard output and the numbers to .perfbench_work/sweep.json.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys

import jobs
from run import ROOT, WORK, Loop, trace_jobs

SIZES = (10, 20, 40, 80)  # screens of the dense ladder
SEED = 1
REPEAT = 3


def slope(xs: list[float], ys: list[float]) -> float | None:
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        return None
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx if sxx else None


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from sbc.cli import run_cli

    rows = {}
    for n in SIZES:
        loop = Loop(jobs.make("analyze-dense", SEED, f"{WORK}/sweep-{n}", screens=n), run_cli, None)
        loop.once(measured=False)
        _, _, per_job = trace_jobs(loop, 0.0, REPEAT, paired=False)
        if loop.problems:
            print(f"error: {n} screens: {loop.problems[0]}", file=sys.stderr)
            return 1
        rows[n] = {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
        print(f"{n} screens: {rows[n]['trace.job_ms']:.0f} ms, {rows[n]['infoflow.findings']:.0f} findings",
              file=sys.stderr)

    sizes = sorted(rows)
    findings = [rows[n]["infoflow.findings"] for n in sizes]
    names = [k for k in rows[sizes[0]] if k.endswith("_ms") or k in ("infoflow.us_per_finding",)]
    fits = {}
    print(f"{'metric':40s}" + "".join(f"{n:>10d}" for n in sizes) + "   exp/screens  exp/findings")
    for k in names:
        ys = [rows[n][k] for n in sizes]
        if not any(ys):
            continue
        fits[k] = {"screens": slope(sizes, ys), "findings": slope(findings, ys)}
        cells = "".join(f"{y:10.1f}" for y in ys)
        exps = "".join(f"{e:14.2f}" if e is not None else f"{'-':>14s}" for e in fits[k].values())
        print(f"{k:40s}{cells}{exps}")
    print(f"{'infoflow.findings':40s}" + "".join(f"{f:10.0f}" for f in findings))
    out = ROOT / WORK / "sweep.json"
    out.write_text(json.dumps({"seed": SEED, "rows": rows, "exponents": fits}, indent=1))
    print(f"wrote {out.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
