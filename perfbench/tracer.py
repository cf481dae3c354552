"""Per-layer tracing of `sbc` from outside the package.

`Tracer.install()` replaces the layer-boundary functions of each `sbc` module
with wrappers that record spans (name, parent, start, end) or count calls.
Every module attribute that is bound to a wrapped function is replaced, so
names copied at import time, such as `interp._op_source_untrusted` or
`cli.validate`, are traced too.  `uninstall()` puts the originals back.

Spans stay in memory; `dump()` writes them out when the run is over.  A
span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

LAYERS = ("syntax", "model", "infoflow", "rules", "codegen", "interp", "cli")

# (module, class or None, attribute): functions timed as spans, named
# "<module>.<attribute without leading underscore>"
SPANS = (
    ("syntax", None, "parse"),
    ("syntax", None, "_lex"),
    ("syntax", None, "format_model"),
    ("model", None, "validate"),
    ("infoflow", None, "flow_diagnostics"),
    ("infoflow", None, "analyze"),
    ("infoflow", None, "build_influences"),
    ("infoflow", None, "classify_endpoints"),
    ("infoflow", None, "closure"),
    ("infoflow", None, "collect_safe"),
    ("infoflow", None, "_least_paths"),
    ("rules", None, "check_all"),
    ("codegen", None, "generate_all"),
    ("codegen", None, "write_units"),
    ("interp", None, "parse_scenario"),
    ("interp", None, "run"),
    ("interp", None, "step"),
    ("interp", "ScenarioState", "next_result"),
    ("cli", None, "emit_diagnostics"),
)

# hot helpers whose calls are only counted, under the given name
COUNTS = (
    ("model", "AppModel", "screen", "model.screen_lookup"),
    ("model", "AppModel", "proxy", "model.screen_lookup"),
    ("model", "AppModel", "resource", "model.screen_lookup"),
    ("infoflow", None, "_op_source_untrusted", "infoflow.op_source_untrusted"),
)

# per_layer metric -> (unit, better); the order is the report order
METRICS = {
    "syntax.lex.self_ms": ("ms", "lower"),
    "syntax.lex.tokens": ("count", "lower"),
    "syntax.parse.self_ms": ("ms", "lower"),
    "syntax.format_model.self_ms": ("ms", "lower"),
    "model.validate.self_ms": ("ms", "lower"),
    "model.screen_lookup.calls": ("count", "lower"),
    "infoflow.build_influences.calls": ("count", "lower"),
    "infoflow.build_influences.self_ms": ("ms", "lower"),
    "infoflow.graph.nodes": ("count", "lower"),
    "infoflow.graph.edges": ("count", "lower"),
    "infoflow.closure.self_ms": ("ms", "lower"),
    "infoflow.closure.pairs": ("count", "lower"),
    "infoflow.closure.useful_ratio": ("ratio", "higher"),
    "infoflow.classify_endpoints.self_ms": ("ms", "lower"),
    "infoflow.collect_safe.calls": ("count", "lower"),
    "infoflow.collect_safe.self_ms": ("ms", "lower"),
    "infoflow.least_paths.calls": ("count", "lower"),
    "infoflow.least_paths.self_ms": ("ms", "lower"),
    "infoflow.analyze.self_ms": ("ms", "lower"),
    "infoflow.flow_diagnostics.calls": ("count", "lower"),
    "infoflow.findings": ("count", "lower"),
    "infoflow.us_per_finding": ("us", "lower"),
    "infoflow.op_source_untrusted.calls": ("count", "lower"),
    "rules.check_all.calls": ("count", "lower"),
    "rules.check_all.self_ms": ("ms", "lower"),
    "codegen.generate_all.self_ms": ("ms", "lower"),
    "codegen.write_units.self_ms": ("ms", "lower"),
    "codegen.units": ("count", "lower"),
    "codegen.bytes": ("bytes", "lower"),
    "interp.parse_scenario.self_ms": ("ms", "lower"),
    "interp.run.self_ms": ("ms", "lower"),
    "interp.step.calls": ("count", "lower"),
    "interp.step.us_per_call": ("us", "lower"),
    "interp.next_result.calls": ("count", "lower"),
    "interp.next_result.self_ms": ("ms", "lower"),
    "cli.emit_diagnostics.self_ms": ("ms", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.job_ms": ("ms", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.uncovered_share": ("ratio", "lower"),
}


def _name(module: str, attr: str) -> str:
    return f"{module}.{attr.lstrip('_')}"


def _size_of_lex(result, counts):
    counts["syntax.lex.tokens"] += len(result[0])


def _size_of_graph(result, counts):
    counts["infoflow.graph.nodes"] = max(counts["infoflow.graph.nodes"], len(result.nodes))
    counts["infoflow.graph.edges"] = max(counts["infoflow.graph.edges"], len(result.edges))


def _size_of_closure(result, counts):
    counts["infoflow.closure.pairs"] += len(result.pairs)


def _size_of_trust(result, counts):
    counts["infoflow.untrusted_reachable"] += len(result.untrusted_reachable)


def _size_of_analysis(result, counts):
    counts["infoflow.violations"] += len(result)


def _size_of_units(result, counts):
    units, _ = result
    counts["codegen.units"] += len(units)
    counts["codegen.bytes"] += sum(len(u.contents.encode()) for u in units)


_SIZES = {
    "syntax.lex": _size_of_lex,
    "infoflow.build_influences": _size_of_graph,
    "infoflow.closure": _size_of_closure,
    "infoflow.classify_endpoints": _size_of_trust,
    "infoflow.analyze": _size_of_analysis,
    "codegen.generate_all": _size_of_units,
}


class Tracer:
    def __init__(self):
        self.modules = {m: importlib.import_module(f"sbc.{m}") for m in LAYERS}
        self.spans: list[list] = []  # [name, parent index, start, end] of the current job
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.stack: list[int] = []
        self.jobs: list[list[list]] = []  # finished jobs' spans, for dump()
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counts, size = self.spans, self.stack, self.counts, _SIZES.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(record)
            stack.append(index)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if size is not None:
                size(result, counts)
            return result

        return traced

    def _count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, module, owner, attr, wrapper_for):
        mod = self.modules[module]
        holder = getattr(mod, owner) if owner else mod
        original = getattr(holder, attr)
        wrapper = wrapper_for(original)
        if owner:
            self._saved.append((holder, attr, original))
            setattr(holder, attr, wrapper)
            return
        for other in self.modules.values():  # rebind copies made at import
            for key, value in list(vars(other).items()):
                if value is original:
                    self._saved.append((other, key, original))
                    setattr(other, key, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, owner, attr in SPANS:
            self._patch(module, owner, attr, lambda fn, n=_name(module, attr): self._span(n, fn))
        for module, owner, attr, name in COUNTS:
            self._patch(module, owner, attr, lambda fn, n=name: self._count(n, fn))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    # -- per job ------------------------------------------------------------

    def begin_job(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.stack.clear()

    def end_job(self, job_s: float, output_bytes: int) -> dict[str, float]:
        """This job's per-layer metrics, from its spans and counts."""
        self.jobs.append([list(s) for s in self.spans])
        spans, counts = self.spans, self.counts
        total: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        covered = 0.0
        for name, parent, start, end in spans:
            d = end - start
            total[name] += d
            own[name] += d
            calls[name] += 1
            if parent >= 0:
                own[spans[parent][0]] -= d
            else:
                covered += d  # top-level spans are the layer spans

        m: dict[str, float] = {}
        for metric in METRICS:
            base, _, kind = metric.rpartition(".")
            if kind == "self_ms":
                m[metric] = own[base] * 1e3
            elif kind == "calls":
                m[metric] = calls[base] if base in calls else counts[base]
        m.update((k, counts[k]) for k in ("syntax.lex.tokens", "infoflow.graph.nodes", "infoflow.graph.edges",
                                          "infoflow.closure.pairs", "codegen.units", "codegen.bytes"))
        pairs = counts["infoflow.closure.pairs"]
        m["infoflow.closure.useful_ratio"] = counts["infoflow.untrusted_reachable"] / pairs if pairs else 0.0
        analyses = calls["infoflow.analyze"]
        violations = counts["infoflow.violations"]
        m["infoflow.findings"] = violations / analyses if analyses else 0
        m["infoflow.us_per_finding"] = total["infoflow.flow_diagnostics"] * 1e6 / violations if violations else 0.0
        steps = calls["interp.step"]
        m["interp.step.us_per_call"] = total["interp.step"] * 1e6 / steps if steps else 0.0
        m["cli.output_bytes"] = output_bytes
        m["trace.job_ms"] = job_s * 1e3
        m["trace.uncovered_share"] = (job_s - covered) / job_s
        return m

    def dump(self, path: str) -> None:
        """Write every recorded span: job, name, parent, start and end in µs
        from the job's first span, tab separated."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("job\tspan\tname\tparent\tstart_us\tend_us\n")
            for j, spans in enumerate(self.jobs):
                t0 = spans[0][2] if spans else 0.0
                for i, (name, parent, start, end) in enumerate(spans):
                    fh.write(f"{j}\t{i}\t{name}\t{parent}\t{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\n")
