"""Benchmark of the `sbc` command line: four workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload analyze-dense --seed 1 --seconds 25 --trace 0

Workloads: analyze-dense, generate-sparse, check-fmt-large, simulate-long
(see jobs.py and reference.json).  The seed picks the generated inputs; `sbc`
receives only the generated files, which go under .perfbench_work/ in the
repository root, as do the files `generate` writes and the span dump.

One client, one process, one thread: jobs run back to back in a closed loop
for --seconds.  A job is a fixed sequence of `sbc` command lines run
in-process through `sbc.cli.run_cli`, output captured, and every job's output
is checked against the generator's expectation and must be byte-identical to
every other job's.

--trace 0 reports the end-to-end metrics: setup_s (wall time of a fresh
interpreter that starts and imports `sbc.cli`, best of ten), job_s (upper
quartile of the wall time of one job), job_s.tail (the 11th-largest job time: the highest
percentile with ten samples beyond it, or the maximum in a run of ten jobs
or fewer) and peak_rss_mb (ru_maxrss of a fresh process that runs one job).
The report line before the result also gives the sample count, median,
trimmed mean, quartiles, the percentile the tail stands for, failed_ratio
and the output digest.
failed_ratio (failed jobs over jobs attempted) is not among the gated
metrics because it is 0 whenever `sbc` is correct; the result line carries
it as `failed` and `attempted`.

Why job_s is the upper quartile and not the median: the benchmark was built
on a shared host that switches between two speed states about 1.4x apart
for a second to minutes at a time.  A run's median jumps from one state's
level to the other's as their mix crosses one half; an upper quantile stays
at the slower state's level while that state holds a quarter of the run.
Over 1,000 draws of ten 25 s windows from one 240 s series of
check-fmt-large jobs, the ten-run spread (quartile distance over median)
exceeded 0.25 in 38% of draws for the median, 17% for the 10%-trimmed mean
and 3% for the upper quartile.  setup_s is the fastest of ten launches spread
evenly over the run, between jobs.  One launch lasts about 0.1 s and so sees
one state; the fastest of ten almost always sees the fast one.  In three
ten-run sets of every workload, the run's fastest launch read 0.1143-0.1145 s
while the sets' medians of a 10%-trimmed mean ranged from 0.128 s to 0.160 s.
Every launch's time is on the report line.

--trace 1 alternates traced and untraced jobs and reports the per-layer
metrics of tracer.py (medians over traced jobs; counts are per job), the
tracing overhead (median over adjacent pairs of traced minus untraced job
time, so that drift in machine speed cancels) and the share of traced job
time outside every layer span.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ".perfbench_work"
SETUP_RUNS = 10
MIN_JOBS = 5
TRIM = 0.1

sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402


def tail(samples: list[float]) -> tuple[float, str]:
    s = sorted(samples)
    if len(s) <= 10:
        return s[-1], "max"
    return s[-11], f"p{100 * (len(s) - 10) / len(s):.1f}"


def trimmed_mean(samples: list[float]) -> float:
    """Mean of the samples left after dropping the lowest and highest TRIM share."""
    s = sorted(samples)
    k = int(len(s) * TRIM)
    return statistics.fmean(s[k:len(s) - k])


def summary(samples: list[float]) -> dict:
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
    value, which = tail(samples)
    return {"n": len(samples), "trimmed_mean": trimmed_mean(samples), "q1": q[0],
            "median": statistics.median(samples), "q3": q[2], "tail": value, "tail_is": which}


def setup_seconds() -> float:
    """Wall time of a fresh interpreter that starts and imports sbc.cli."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import sbc.cli"], env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                   check=True, timeout=60)
    return perf_counter() - t0


def peak_rss(job: jobs.Job) -> tuple[float, list[int]]:
    """ru_maxrss in MiB of a fresh process that runs one job, and its exit codes."""
    jobs.prepare(job)
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), json.dumps(job.commands)],
        capture_output=True, text=True, check=True, timeout=170,
    )
    rec = json.loads(proc.stdout.splitlines()[-1])
    return rec["maxrss_kib"] / 1024, rec["codes"]


class Loop:
    """Runs a job back to back and checks every outcome."""

    def __init__(self, job: jobs.Job, run_cli, reference: str | None):
        self.job, self.run_cli = job, run_cli
        self.first: str | None = reference
        self.checked: dict[str, list[str]] = {}
        self.problems: list[str] = []
        self.attempted = self.failed = 0

    def once(self, measured: bool = True) -> tuple[float, jobs.Outcome]:
        jobs.prepare(self.job)
        gc.collect()
        t0 = perf_counter()
        outcome = jobs.execute(self.job, self.run_cli)
        elapsed = perf_counter() - t0
        jobs.collect(self.job, outcome)
        digest = jobs.digest(outcome)
        if digest not in self.checked:
            try:
                self.checked[digest] = self.job.check(outcome)
            except Exception as exc:  # output too damaged for the check to read
                self.checked[digest] = [f"check failed on this output: {exc!r}"]
        problems = list(self.checked[digest])
        if self.first is None:
            self.first = digest
        elif digest != self.first:
            problems.append(f"output digest {digest} differs from {self.first}")
        if measured:
            self.attempted += 1
            self.failed += bool(problems)
        for p in problems:
            if p not in self.problems:
                self.problems.append(p)
        return elapsed, outcome


def trace_jobs(loop: Loop, seconds: float, min_jobs: int, paired: bool = True, dump: str | None = None):
    """Run traced jobs for `seconds` (at least `min_jobs`), each followed by an
    untraced one when `paired`.  Returns the traced and untraced job times and
    each traced job's per-layer metrics."""
    tracer = Tracer()
    traced, plain, per_job = [], [], []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(traced) < min_jobs:
        tracer.install()
        tracer.begin_job()
        try:
            elapsed, outcome = loop.once()
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        per_job.append(tracer.end_job(elapsed, sum(len(r[1].encode()) for r in outcome.results)))
        if paired:
            plain.append(loop.once()[0])
    if dump:
        tracer.dump(dump)
    return traced, plain, per_job


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sbc" / "cli.py").is_file():
        print(f"error: no sbc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    from sbc.cli import run_cli

    reference = json.loads((HERE / "reference.json").read_text())
    expected_digest = reference["digests"].get(args.workload, {}).get(str(args.seed))
    workdir = f"{WORK}/{args.workload}"
    job = jobs.make(args.workload, args.seed, workdir)
    loop = Loop(job, run_cli, expected_digest)
    _, warm = loop.once(measured=False)
    codes = [r[0] for r in warm.results]

    report = {"workload": args.workload, "seed": args.seed, "python": platform.python_version(),
              "nproc": len(os.sched_getaffinity(0))}
    if args.trace:
        traced, plain, per_job = trace_jobs(loop, args.seconds, MIN_JOBS, dump=f"{workdir}/spans.tsv")
        values = {k: statistics.median(m[k] for m in per_job) for k in per_job[0]}
        values["trace.overhead_ms"] = statistics.median(t - p for t, p in zip(traced, plain)) * 1e3
        metrics = {k: {"value": values[k], "unit": METRICS[k][0]} for k in METRICS}
        report.update(traced=summary(traced), untraced=summary(plain), spans=f"{workdir}/spans.tsv")
    else:
        setup_seconds()  # fills the bytecode cache
        rss_mb, rss_codes = peak_rss(job)
        if rss_codes != codes:
            loop.problems.append(f"fresh process exit codes {rss_codes}, in-process {codes}")
        samples, setup = [], []
        start = perf_counter()
        while perf_counter() - start < args.seconds or len(samples) < MIN_JOBS or len(setup) < SETUP_RUNS:
            if len(setup) < SETUP_RUNS and perf_counter() - start >= len(setup) * args.seconds / SETUP_RUNS:
                setup.append(setup_seconds())
            else:
                samples.append(loop.once()[0])
        s = summary(samples)
        metrics = {
            "setup_s": {"value": min(setup), "unit": "s"},
            "job_s": {"value": s["q3"], "unit": "s"},
            "job_s.tail": {"value": s["tail"], "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        report.update(job_s=s, setup_s=setup, peak_rss_mb=rss_mb)

    report.update(failed_ratio=loop.failed / loop.attempted, digests=sorted(loop.checked),
                  expected_digest=expected_digest, problems=loop.problems[:20])
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not loop.problems, "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
