import heapq
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sbc import infoflow, syntax
from sbc.model import SourceSpan, validate

FIXTURES = Path(__file__).parent / "fixtures"

# Models that parse but fail validation; generation must refuse both.
ILL_FORMED = {
    "unknown-dest": 'app "a" screen S { Button B = "b"\n'
                    "transition t order 1 dest Nowhere cond B.click }\n",
    "duplicate-screen": 'app "a" screen S { }\nscreen S { }\n',
}


def shown(diags):
    """The findings as (code, message, place), for an assertion's message."""
    return [(d.code, d.message, f"{d.span.file}:{d.span.line}:{d.span.column}") for d in diags]


def span_at(file: str, line: int, column: int) -> SourceSpan:
    """A span built by hand: a character offset in a text of blank lines and
    blanks that puts it at line and column."""
    return SourceSpan(syntax.Source(file, "\n" * (line - 1) + " " * (column - 1)), line + column - 2)


def load_fixture(name: str):
    """Parse a fixture and assert it is well-formed."""
    path = FIXTURES / name
    outcome = syntax.parse(path.read_text(), str(path))
    assert outcome.ok, shown(outcome.diagnostics)
    diags = validate(outcome.model)
    assert not diags, shown(diags)
    return outcome.model


def parse_text(text: str):
    outcome = syntax.parse(text, "<test>")
    assert outcome.ok, shown(outcome.diagnostics)
    return outcome.model


def violations(model):
    """infoflow.analyze over the model's own graph and safe set."""
    graph = infoflow.build_influences(model)
    safe, _ = infoflow.collect_safe(model, graph)
    return infoflow.analyze(model, graph, safe)


FLOW_KINDS = {"IF001": "integrity", "IF002": "confidentiality"}


def flow(d):
    """The kind, source and sink of an IF001 or IF002 diagnostic."""
    return FLOW_KINDS[d.code], d.witness[0], d.witness[-1]


def taint_pairs(trace):
    """(origin, holder) for every taint origin of every value the run held:
    the stores of its steps and the values handed out at a proxy exit."""
    held = [(q, v) for _, config in trace.steps for q, v in config.sigma.items()]
    held += [(q, v) for ev in trace.events if ev[0] == "proxy-exit" for q, v in ev[2].items()]
    return {(origin, holder) for holder, value in held for origin in value.taint}


def oracle_flows(model):
    """All-pairs reachability by naive per-source breadth-first search.

    Intentionally independent of closure(); used as its test oracle."""
    graph = infoflow.build_influences(model)
    succ = {}
    for a, b in graph.edges:
        succ.setdefault(a, []).append(b)
    out = set()
    for src in graph.nodes:
        frontier = [src]
        seen = {src}
        while frontier:
            nxt = []
            for n in frontier:
                for m in succ.get(n, ()):
                    if m not in seen:
                        seen.add(m)
                        nxt.append(m)
            frontier = nxt
        for dst in seen:
            if dst != src:
                out.add((src, dst))
    return out


def oracle_least_paths(start, succ):
    """Lexicographically least (by length, then node names) path from start to
    every reachable node, over the unsafe edge set.  Dijkstra with a composite
    key: extending a path only ever increases the key.

    Independent of infoflow._least_paths (a forward breadth-first search)
    and infoflow._paths_into (a backward one); used as their test oracle."""
    best = {}
    heap = [((1, (str(start),)), (start,))]
    while heap:
        (_, _), path = heapq.heappop(heap)
        node = path[-1]
        if node in best:
            continue
        best[node] = path
        for m in succ.get(node, ()):
            if m not in best:
                p2 = path + (m,)
                heapq.heappush(heap, ((len(p2), tuple(str(n) for n in p2)), p2))
    return best


@pytest.fixture
def messenger():
    return load_fixture("messenger.sbd")


@pytest.fixture
def messenger_safe():
    return load_fixture("messenger_safe.sbd")


@pytest.fixture
def browser():
    return load_fixture("browser.sbd")
