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
    sites,
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


def _flow(s, t, holder) -> tuple[QualifiedId, Optional[SourceSpan]]:
    """The node a value position of `sites` flows into, and the span of its edge.
    Guard terms (`holder is t`) flow nowhere."""
    if isinstance(holder, OperationUse):
        return qualify(holder.name, OPERATION), holder.span
    if t is None:  # a widget's value
        return qualify(holder.id, s.name), holder.span
    return qualify(holder.target, t.dest), holder.span or t.span  # a binding's value


# ---------------------------------------------------------------------------
# Step 1: direct influences


def build_influences(model: AppModel) -> InfluenceGraph:
    origin: dict[Edge, Optional[SourceSpan]] = {}  # each edge, with the span of its first position
    for s, t, holder, _, v in sites(model):
        if holder is t:
            continue
        src = _value_node(v, s.name)
        if src is not None:  # literals induce no flow
            dst, span = _flow(s, t, holder)
            origin.setdefault((src, dst), span)
    return InfluenceGraph(node_roles(model), frozenset(origin), origin)


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


def _op_untrusted(model: AppModel, op: OperationUse, trust: str) -> bool:
    """Whether the operation's "source_trust" or "sink_trust" is untrusted.
    A foreign (undeclared) resource is untrusted both ways."""
    cap = builtin_cap(op.capability)
    if cap is not None:
        return getattr(cap, trust) is Trust.UNTRUSTED
    return op.capability is not None and model.resource(op.capability[0]) is None


def _op_source_untrusted(model: AppModel, op: OperationUse) -> bool:
    return _op_untrusted(model, op, "source_trust")


def _op_sink_untrusted(model: AppModel, op: OperationUse) -> bool:
    return _op_untrusted(model, op, "sink_trust")


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
        return Diagnostic(Severity.WARNING, "IF003", f"safe mark on {what} declassifies no flow", span)

    own: list[Diagnostic] = []  # a widget's or binding's own warning follows its arguments'
    for s, t, holder, is_safe, v in sites(model):
        if own and not isinstance(holder, OperationUse):
            warnings += own
            own = []
        if not is_safe:
            continue
        in_op = isinstance(holder, OperationUse)
        src = _value_node(v, s.name)
        dst, span = _flow(s, t, holder)
        if t is None and not in_op:  # a safe widget declassifies its input and its uses
            touched = False
            if src is not None and (src, dst) in graph.edges:
                safe.add((src, dst))
                touched = True
            for e in out_edges.get(dst, ()):
                safe.add(e)
                touched = True
            if not touched:
                own.append(unused(f"widget '{holder.id}'", span))
        elif src is not None:
            safe.add((src, dst))
        elif in_op:
            warnings.append(unused(f"literal argument of operation '{holder.name}'", span))
        else:
            own.append(unused(f"binding of parameter '{holder.target}'", span))
    warnings += own

    for p in model.proxies:
        if p.safe or p.app_id is not None:
            touched = False
            for pn in p.uri.params:
                for e in in_edges.get(qualify(pn, p.name), ()):
                    safe.add(e)
                    touched = True
            if p.safe and not touched:
                warnings.append(unused(f"proxy '{p.name}'", p.span))

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
