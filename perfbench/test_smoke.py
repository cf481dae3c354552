"""Smoke check of the benchmark's generators, output checks and tracer at tiny sizes.

    python3 -m unittest perfbench/test_smoke.py

Standard library only.  Each workload's job runs once on a tiny input; its
check must pass on the real output and fail on a damaged copy of it.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import jobs  # noqa: E402
import run  # noqa: E402
import sbdgen  # noqa: E402
import tracer  # noqa: E402
from sbc import infoflow, interp, syntax  # noqa: E402
from sbc.cli import run_cli  # noqa: E402

TINY = {
    "analyze-dense": {"screens": 4},
    "generate-sparse": {"screens": 25},
    "check-fmt-large": {"screens": 25},
    "simulate-long": {"screens": 4, "gestures": 40},
}


def _damage(workload: str, outcome: jobs.Outcome) -> jobs.Outcome:
    bad = copy.deepcopy(outcome)
    code, out, err = bad.results[-1]
    if workload == "generate-sparse":
        bad.files.pop("ops.stub")
    else:
        bad.results[-1] = (code, "".join(out.splitlines(keepends=True)[:-1]), err)
    return bad


class WorkloadChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def run_job(self, workload):
        job = jobs.make(workload, 7, f"{self.tmp.name}/{workload}", **TINY[workload])
        jobs.prepare(job)
        outcome = jobs.execute(job, run_cli)
        jobs.collect(job, outcome)
        return job, outcome

    def test_checks_pass_on_sbc_output_and_fail_on_damaged_output(self):
        for workload in jobs.WORKLOADS:
            with self.subTest(workload=workload):
                job, outcome = self.run_job(workload)
                self.assertEqual(job.check(outcome), [])
                self.assertNotEqual(job.check(_damage(workload, outcome)), [])
                wrong_code = copy.deepcopy(outcome)
                wrong_code.results[0] = (2,) + wrong_code.results[0][1:]
                self.assertNotEqual(job.check(wrong_code), [])

    def test_unreadable_output_is_a_failed_job_not_a_crash(self):
        def garbled(argv):
            print("not json")
            return 1

        for workload in ("analyze-dense", "simulate-long"):
            with self.subTest(workload=workload):
                job = jobs.make(workload, 7, f"{self.tmp.name}/{workload}", **TINY[workload])
                loop = run.Loop(job, garbled, None)
                loop.once()
                self.assertEqual((loop.attempted, loop.failed), (1, 1))
                self.assertTrue(loop.problems)

    def test_same_seed_same_inputs_and_output(self):
        for workload in jobs.WORKLOADS:
            with self.subTest(workload=workload):
                _, first = self.run_job(workload)
                _, second = self.run_job(workload)
                self.assertEqual(jobs.digest(first), jobs.digest(second))

    def test_tracer_reports_every_per_layer_metric_and_restores_sbc(self):
        original = infoflow._op_source_untrusted
        expected = set(tracer.METRICS) - {"trace.overhead_ms"}
        for workload in jobs.WORKLOADS:
            with self.subTest(workload=workload):
                t = tracer.Tracer()
                t.install()
                self.assertIsNot(interp._op_source_untrusted, original)
                t.begin_job()
                try:
                    job, outcome = self.run_job(workload)
                finally:
                    t.uninstall()
                metrics = t.end_job(0.5, 1)
                self.assertEqual(set(metrics), expected)
                self.assertEqual(job.check(outcome), [])
                self.assertIs(interp._op_source_untrusted, original)
                if workload == "simulate-long":
                    self.assertEqual(metrics["interp.step.calls"], TINY[workload]["gestures"] + 1)
                if workload == "analyze-dense":
                    self.assertGreater(metrics["infoflow.findings"], 0)
                    self.assertGreater(metrics["infoflow.op_source_untrusted.calls"], 0)


class ExpectedFindings(unittest.TestCase):
    def test_hand_worked_graph(self):
        spec = sbdgen.FlowSpec()
        u = spec.node("u@S", sbdgen.PARAM)  # exported URI parameter
        w = spec.node("W@S", sbdgen.WIDGET)
        f = spec.node("send", sbdgen.OP)  # untrusted sink
        g = spec.node("G@S", sbdgen.WIDGET)
        spec.sources.add(u)
        spec.sinks.add(f)
        spec.edge(u, w)
        spec.edge(w, f)
        spec.edge(u, g, safe=True)
        self.assertEqual(
            sbdgen.expected_flow_findings(spec),
            {("IF001", u, w), ("IF002", u, f), ("IF002", w, f)},
        )


class GeneratorSpec(unittest.TestCase):
    def test_spec_is_the_influence_graph_sbc_builds(self):
        # the expectations rest on the spec; it must describe the text emitted
        for board in (sbdgen.dense_ladder(5, 3), sbdgen.sparse_app(60, 3)):
            outcome = syntax.parse(board.text, "spec.sbd")
            self.assertTrue(outcome.ok)
            graph = infoflow.build_influences(outcome.model)
            self.assertEqual(set(board.spec.roles), {str(n) for n in graph.nodes})
            self.assertEqual(set(board.spec.edges), {(str(a), str(b)) for a, b in graph.edges})


class Statistics(unittest.TestCase):
    def test_tail_has_ten_samples_beyond_it(self):
        self.assertEqual(run.tail([float(i) for i in range(1, 41)]), (30.0, "p75.0"))
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, "max"))

    def test_trimmed_mean_drops_a_tenth_at_each_end(self):
        self.assertEqual(run.trimmed_mean([0.0] + [1.0] * 8 + [100.0]), 1.0)


class BenchmarkConfig(unittest.TestCase):
    def test_benchmark_json_names_the_workloads_and_metrics(self):
        config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in config["workloads"]], list(jobs.WORKLOADS))
        self.assertEqual([m["name"] for m in config["per_layer"]], list(tracer.METRICS))
        for m in config["per_layer"]:
            self.assertEqual((m["unit"], m["better"]), tracer.METRICS[m["name"]])


if __name__ == "__main__":
    unittest.main()
