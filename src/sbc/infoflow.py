"""Static information-flow analysis over storyboards.

The analysis builds the direct `influences` relation between qualified
identifiers, classifies untrusted sources and sinks against the builtin
catalog, finds what the sources reach by graph search, collects declassified
(`safe`) edges, and reports integrity/confidentiality violations with a
deterministic witness path for each.  `flow_diagnostics` builds the graph
and the safe set once and passes them to every later step.  The analysis
never builds the reflexive-transitive `closure`, which stays for callers.

Guards never contribute control edges: all transition constraints are assumed
satisfiable, so only data positions induce flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .model import (
    OPERATION,
    AppModel,
    BAnd,
    BNot,
    BOp,
    BOr,
    Diagnostic,
    OperationUse,
    ParamRef,
    QualifiedId,
    Severity,
    SourceSpan,
    Trust,
    WidgetRef,
    builtin_cap,
    iter_operation_uses,
    qualify,
)

Edge = tuple[QualifiedId, QualifiedId]


@dataclass(frozen=True)
class ClosureRelation:
    pairs: frozenset[Edge]

    def __contains__(self, pair: Edge) -> bool:
        return pair in self.pairs


@dataclass(frozen=True)
class TrustMap:
    untrusted_sources: frozenset[QualifiedId]
    untrusted_sinks: frozenset[QualifiedId]
    untrusted_reachable: frozenset[QualifiedId]


class FlowKind(Enum):
    INTEGRITY = "integrity"
    CONFIDENTIALITY = "confidentiality"


@dataclass(frozen=True)
class FlowViolation:
    kind: FlowKind
    source: QualifiedId
    sink: QualifiedId
    witness: tuple[QualifiedId, ...]


# ---------------------------------------------------------------------------
# Node roles


class Role(Enum):
    PARAM = "param"
    WIDGET = "widget"
    OP = "op"
    PROXY_PARAM = "proxy-param"


@dataclass(frozen=True)
class InfluenceGraph:
    roles: dict[QualifiedId, Role]  # every node, with its role
    edges: frozenset[Edge]
    edge_origin: dict[Edge, Optional[SourceSpan]] = field(default_factory=dict)

    @property
    def nodes(self):
        return self.roles.keys()


def node_roles(model: AppModel) -> dict[QualifiedId, Role]:
    roles: dict[QualifiedId, Role] = {}
    for s in model.screens:
        for p in s.all_params:
            roles[qualify(p, s.name)] = Role.PARAM
        for w in s.widgets:
            roles[qualify(w.id, s.name)] = Role.WIDGET
    for p in model.proxies:
        for pn in p.uri.params:
            roles[qualify(pn, p.name)] = Role.PROXY_PARAM
    for _, op in iter_operation_uses(model):
        roles[qualify(op.name, OPERATION)] = Role.OP
    return roles


def _value_node(v, owner: str) -> Optional[QualifiedId]:
    """The graph node a value reference denotes, or None for literals."""
    if isinstance(v, (ParamRef, WidgetRef)):
        return qualify(v.name, owner)
    if isinstance(v, OperationUse):
        return qualify(v.name, OPERATION)
    return None


# ---------------------------------------------------------------------------
# Step 1: direct influences


def build_influences(model: AppModel) -> InfluenceGraph:
    edges: set[Edge] = set()
    origin: dict[Edge, Optional[SourceSpan]] = {}

    def add(src: Optional[QualifiedId], dst: QualifiedId, span):
        if src is None:
            return  # literals induce no flow
        e = (src, dst)
        edges.add(e)
        origin.setdefault(e, span)

    def op_edges(op: OperationUse, owner: str):
        f = qualify(op.name, OPERATION)
        for a in op.args:
            add(_value_node(a.value, owner), f, op.span)
            if isinstance(a.value, OperationUse):
                op_edges(a.value, owner)

    def value_edges(v, owner: str, target: QualifiedId, span):
        add(_value_node(v, owner), target, span)
        if isinstance(v, OperationUse):
            op_edges(v, owner)

    def bool_edges(b, owner: str):
        if isinstance(b, BOp):
            op_edges(b.op, owner)
        elif isinstance(b, (BAnd, BOr)):
            bool_edges(b.left, owner)
            bool_edges(b.right, owner)
        elif isinstance(b, BNot):
            bool_edges(b.inner, owner)

    for s in model.screens:
        for w in s.widgets:
            value_edges(w.value, s.name, qualify(w.id, s.name), w.span)
        for t in s.transitions:
            if t.guard is not None:
                bool_edges(t.guard, s.name)
            for b in t.bindings:
                value_edges(b.value, s.name, qualify(b.target, t.dest), b.span or t.span)

    return InfluenceGraph(node_roles(model), frozenset(edges), origin)


# ---------------------------------------------------------------------------
# Step 2: reachability by search (the test oracle recomputes it independently)


def _successors(edges) -> dict[QualifiedId, list[QualifiedId]]:
    """Successor lists over `edges`, each in node-name order."""
    succ: dict[QualifiedId, list[QualifiedId]] = {}
    for a, b in sorted(edges, key=lambda e: (str(e[0]), str(e[1]))):
        succ.setdefault(a, []).append(b)
    return succ


def _reach(starts, succ: dict[QualifiedId, list[QualifiedId]]) -> set[QualifiedId]:
    """Every node reachable from `starts` over `succ`, the starts included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for m in succ.get(stack.pop(), ()):
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


def closure(graph: InfluenceGraph) -> ClosureRelation:
    succ = _successors(graph.edges)
    nodes = set(graph.nodes).union(*graph.edges)
    return ClosureRelation(frozenset((a, b) for a in nodes for b in _reach((a,), succ)))


# ---------------------------------------------------------------------------
# Step 3: endpoint classification


def _op_source_untrusted(model: AppModel, op: OperationUse) -> bool:
    cap = builtin_cap(op.capability)
    if cap is not None:
        return cap.source_trust is Trust.UNTRUSTED
    if op.capability is not None:
        rn, _ = op.capability
        return model.resource(rn) is None  # foreign resource: untrusted both ways
    return False


def _op_sink_untrusted(model: AppModel, op: OperationUse) -> bool:
    cap = builtin_cap(op.capability)
    if cap is not None:
        return cap.sink_trust is Trust.UNTRUSTED
    if op.capability is not None:
        rn, _ = op.capability
        return model.resource(rn) is None
    return False


def classify_endpoints(model: AppModel, graph: InfluenceGraph) -> TrustMap:
    sources: set[QualifiedId] = set()
    sinks: set[QualifiedId] = set()

    for s in model.screens:
        for p in s.uri_params:
            sources.add(qualify(p, s.name))

    for _, op in iter_operation_uses(model):
        f = qualify(op.name, OPERATION)
        if _op_source_untrusted(model, op):
            sources.add(f)
        if _op_sink_untrusted(model, op):
            sinks.add(f)

    for p in model.proxies:
        if p.app_id is None and not p.safe:
            for pn in p.uri.params:
                sinks.add(qualify(pn, p.name))

    reachable = _reach(sources, _successors(graph.edges))
    return TrustMap(frozenset(sources), frozenset(sinks), frozenset(reachable))


# ---------------------------------------------------------------------------
# Step 4: declassified edges


def collect_safe(model: AppModel, graph: InfluenceGraph) -> tuple[frozenset[Edge], list[Diagnostic]]:
    safe: set[Edge] = set()
    warnings: list[Diagnostic] = []
    out_edges: dict[QualifiedId, list[Edge]] = {}
    in_edges: dict[QualifiedId, list[Edge]] = {}
    for e in graph.edges:
        out_edges.setdefault(e[0], []).append(e)
        in_edges.setdefault(e[1], []).append(e)

    def unused(what: str, span):
        warnings.append(
            Diagnostic(Severity.WARNING, "IF003", f"safe mark on {what} declassifies no flow", span)
        )

    def arg_safe_edges(op: OperationUse, owner: str):
        f = qualify(op.name, OPERATION)
        for a in op.args:
            if a.safe:
                src = _value_node(a.value, owner)
                if src is None:
                    unused(f"literal argument of operation '{op.name}'", op.span)
                else:
                    safe.add((src, f))
            if isinstance(a.value, OperationUse):
                arg_safe_edges(a.value, owner)

    def walk_value(v, owner: str):
        if isinstance(v, OperationUse):
            arg_safe_edges(v, owner)

    def walk_bool(b, owner: str):
        if isinstance(b, BOp):
            arg_safe_edges(b.op, owner)
        elif isinstance(b, (BAnd, BOr)):
            walk_bool(b.left, owner)
            walk_bool(b.right, owner)
        elif isinstance(b, BNot):
            walk_bool(b.inner, owner)

    for s in model.screens:
        for w in s.widgets:
            walk_value(w.value, s.name)
            if w.safe:
                wq = qualify(w.id, s.name)
                touched = False
                src = _value_node(w.value, s.name)
                if src is not None and (src, wq) in graph.edges:
                    safe.add((src, wq))
                    touched = True
                for e in out_edges.get(wq, ()):
                    safe.add(e)
                    touched = True
                if not touched:
                    unused(f"widget '{w.id}'", w.span)
        for t in s.transitions:
            if t.guard is not None:
                walk_bool(t.guard, s.name)
            for b in t.bindings:
                walk_value(b.value, s.name)
                if b.safe:
                    src = _value_node(b.value, s.name)
                    if src is None:
                        unused(f"binding of parameter '{b.target}'", b.span or t.span)
                    else:
                        safe.add((src, qualify(b.target, t.dest)))

    for p in model.proxies:
        if p.safe or p.app_id is not None:
            touched = False
            for pn in p.uri.params:
                for e in in_edges.get(qualify(pn, p.name), ()):
                    safe.add(e)
                    touched = True
            if p.safe and not touched:
                unused(f"proxy '{p.name}'", p.span)

    return frozenset(safe), warnings


# ---------------------------------------------------------------------------
# Step 5: violations


def _least_paths(start: QualifiedId, succ: dict[QualifiedId, list[QualifiedId]]):
    """Lexicographically least (by length, then node names) path from start to
    every reachable node.  A breadth-first search over name-ordered successors
    dequeues each level in least-path order, so it meets each node first along
    its least path."""
    best = {start: (start,)}
    queue = [start]
    for node in queue:  # appending while iterating makes the list a FIFO queue
        path = best[node]
        for m in succ.get(node, ()):
            if m not in best:
                best[m] = path + (m,)
                queue.append(m)
    return best


def analyze(model: AppModel, graph: InfluenceGraph, safe: frozenset[Edge]) -> list[FlowViolation]:
    trust = classify_endpoints(model, graph)
    roles = graph.roles

    unsafe = graph.edges - safe
    succ = _successors(unsafe)

    # Only untrusted sources (integrity) and declared nodes with an unsafe path
    # into an untrusted sink (confidentiality) can start a witness.
    leaks = _reach(trust.untrusted_sinks, _successors((b, a) for a, b in unsafe)) & graph.nodes
    paths = {n: _least_paths(n, succ) for n in trust.untrusted_sources | leaks}

    found: dict[tuple[FlowKind, QualifiedId, QualifiedId], tuple[QualifiedId, ...]] = {}

    # Integrity: a widget or operation consumes, along an unsafe direct edge,
    # a value attributable to an untrusted source.
    tainted = {u for u in trust.untrusted_reachable if roles.get(u) is Role.PARAM}
    tainted |= {u for u in trust.untrusted_sources if roles.get(u) is Role.OP}
    consumers = {k for u, k in unsafe if u in tainted and roles.get(k) in (Role.WIDGET, Role.OP)}
    sources = sorted(trust.untrusted_sources)
    for k in sorted(consumers, key=str):
        for s in sources:
            w = paths[s].get(k)
            if w is not None and len(w) >= 2:
                found[(FlowKind.INTEGRITY, s, k)] = w

    # Confidentiality: any value flowing unsafely into an untrusted sink.
    leakers = sorted(leaks)
    for k in sorted(trust.untrusted_sinks):
        for s in leakers:
            w = paths[s].get(k)
            if w is not None and len(w) >= 2:
                found[(FlowKind.CONFIDENTIALITY, s, k)] = w

    return [
        FlowViolation(kind, s, k, found[(kind, s, k)])
        for kind, s, k in sorted(found, key=lambda t: (t[0].value, str(t[1]), str(t[2])))
    ]


def flow_diagnostics(model: AppModel) -> list[Diagnostic]:
    """Violations and unused-safe warnings rendered as diagnostics."""
    graph = build_influences(model)
    safe, warnings = collect_safe(model, graph)
    out: list[Diagnostic] = []
    for v in analyze(model, graph, safe):
        code = "IF001" if v.kind is FlowKind.INTEGRITY else "IF002"
        last_edge = (v.witness[-2], v.witness[-1])
        span = graph.edge_origin.get(last_edge)
        what = "untrusted value reaches" if v.kind is FlowKind.INTEGRITY else "value leaks to untrusted sink"
        out.append(
            Diagnostic(
                Severity.ERROR,
                code,
                f"{what} '{v.sink}' from '{v.source}'",
                span,
                witness=v.witness,
            )
        )
    out.extend(warnings)
    return out
