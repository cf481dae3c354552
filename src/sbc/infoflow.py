"""Static information-flow analysis over storyboards.

The analysis runs in five steps:

1. `build_influences`: the direct influence edges between qualified
   identifiers, each with the span of the position that induces it, the
   role of every node, and each node's successors and predecessors, which
   every later step reads;
2. `closure`: reflexive-transitive reachability, which only tests build;
3. `classify_endpoints`: the untrusted sources and sinks, against the
   builtin catalog, and what the sources reach by graph search;
4. `collect_safe`: the declassified (`safe`) edges and the IF003 warnings;
5. `analyze`: the IF002 (confidentiality) and IF001 (integrity) diagnostics,
   each with a deterministic witness path and the span of its last edge.

`flow_diagnostics` builds the graph and the safe set once and passes them to
every later step.

`analyze` interns the nodes: it numbers them once in name order, so that
comparing two numbers compares two names, and searches sorted int successor
lists.  Each witness search (`_least_paths`, one per start) keeps only the
breadth-first parent of each node it reaches; a witness is rebuilt from the
parents only for a (source, sink) pair that is reported.

`closure` and `_least_paths` keep their names because the benchmark's tracer
(perfbench/tracer.py) wraps them by name.

Guards never contribute control edges: all transition constraints are assumed
satisfiable, so only data positions induce flows.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from typing import NamedTuple, Optional

from .model import (
    OPERATION,
    AppModel,
    Diagnostic,
    OperationUse,
    QualifiedId,
    Ref,
    SourceSpan,
    Trust,
    builtin_cap,
    qualify,
)

Edge = tuple[QualifiedId, QualifiedId]


class ClosureRelation(NamedTuple):
    pairs: frozenset[Edge]

    def __contains__(self, pair: Edge) -> bool:
        return pair in self.pairs


class TrustMap(NamedTuple):
    untrusted_sources: frozenset[QualifiedId]
    untrusted_sinks: frozenset[QualifiedId]
    untrusted_reachable: frozenset[QualifiedId]


# ---------------------------------------------------------------------------
# Node roles


class Role(Enum):
    PARAM = "param"
    WIDGET = "widget"
    OP = "op"
    PROXY_PARAM = "proxy-param"


class InfluenceGraph(NamedTuple):
    roles: dict[QualifiedId, Role]  # every node, with its role
    edge_origin: dict[Edge, Optional[SourceSpan]]  # every edge, with the span of its first position
    # Each node's successors and predecessors, in the order of their edges;
    # a search may index any node, so a key does not mean the node has edges.
    succ: defaultdict[QualifiedId, list[QualifiedId]]
    pred: defaultdict[QualifiedId, list[QualifiedId]]

    @property
    def nodes(self):
        return self.roles.keys()

    @property
    def edges(self):
        return self.edge_origin.keys()


def _value_node(v, owner: str) -> Optional[QualifiedId]:
    """The graph node a value reference denotes, or None for literals."""
    if isinstance(v, Ref):
        return qualify(v.name, owner)
    if isinstance(v, OperationUse):
        return qualify(v.name, OPERATION)
    return None


def _flow(s, t, holder) -> QualifiedId:
    """The node a value position of `sites` flows into; its edge's span is
    `holder.span`.  Guard terms (`holder is t`) flow nowhere."""
    if isinstance(holder, OperationUse):
        return qualify(holder.name, OPERATION)
    if t is None:  # a widget's value
        return qualify(holder.id, s.name)
    return qualify(holder.target, t.dest)  # a binding's value


# ---------------------------------------------------------------------------
# Step 1: direct influences


def build_influences(model: AppModel) -> InfluenceGraph:
    roles: dict[QualifiedId, Role] = {}
    for s in model.screens:
        for p in s.all_params:
            roles[qualify(p, s.name)] = Role.PARAM
        for w in s.widgets:
            roles[qualify(w.id, s.name)] = Role.WIDGET
    for p in model.proxies:
        for pn in p.uri.params:
            roles[qualify(pn, p.name)] = Role.PROXY_PARAM
    for _, op in model.operations:
        roles[qualify(op.name, OPERATION)] = Role.OP

    graph = InfluenceGraph(roles, {}, defaultdict(list), defaultdict(list))
    for s, t, holder, _, v in model.positions:
        if holder is t:
            continue
        src = _value_node(v, s.name)
        if src is not None:  # literals induce no flow
            dst = _flow(s, t, holder)
            if (src, dst) not in graph.edge_origin:
                graph.edge_origin[src, dst] = holder.span
                graph.succ[src].append(dst)
                graph.pred[dst].append(src)
    return graph


# ---------------------------------------------------------------------------
# Step 2: reachability by search (the test oracle recomputes it independently)


def _reach(starts, succ) -> set:
    """Every node reachable from `starts` over `succ`, the starts included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for m in succ[stack.pop()]:
            if m not in seen:
                seen.add(m)
                stack.append(m)
    return seen


def closure(graph: InfluenceGraph) -> ClosureRelation:
    nodes = set(graph.nodes).union(*graph.edges)
    return ClosureRelation(frozenset((a, b) for a in nodes for b in _reach((a,), graph.succ)))


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


def classify_endpoints(model: AppModel, graph: InfluenceGraph) -> TrustMap:
    sources: set[QualifiedId] = set()
    sinks: set[QualifiedId] = set()

    for s in model.screens:
        for p in s.uri_params:
            sources.add(qualify(p, s.name))

    for _, op in model.operations:
        f = qualify(op.name, OPERATION)
        if _op_source_untrusted(model, op):
            sources.add(f)
        if _op_untrusted(model, op, "sink_trust"):
            sinks.add(f)

    for p in model.proxies:
        if p.app_id is None and not p.safe:
            for pn in p.uri.params:
                sinks.add(qualify(pn, p.name))

    reachable = _reach(sources, graph.succ)
    return TrustMap(frozenset(sources), frozenset(sinks), frozenset(reachable))


# ---------------------------------------------------------------------------
# Step 4: declassified edges


def collect_safe(model: AppModel, graph: InfluenceGraph) -> tuple[frozenset[Edge], list[Diagnostic]]:
    safe: set[Edge] = set()
    warnings: list[Diagnostic] = []

    def unused(what: str, span):
        return Diagnostic("IF003", f"safe mark on {what} declassifies no flow", span)

    own: list[Diagnostic] = []  # a widget's or binding's own warning follows its arguments'
    for s, t, holder, is_safe, v in model.positions:
        if own and not isinstance(holder, OperationUse):
            warnings += own
            own = []
        if not is_safe:
            continue
        in_op = isinstance(holder, OperationUse)
        src = _value_node(v, s.name)
        dst = _flow(s, t, holder)
        if t is None and not in_op:  # a safe widget declassifies its input and its uses
            uses = graph.succ.get(dst, ())
            safe.update((dst, m) for m in uses)
            if src is not None:  # build_influences added this edge
                safe.add((src, dst))
            elif not uses:
                own.append(unused(f"widget '{holder.id}'", holder.span))
        elif src is not None:
            safe.add((src, dst))
        elif in_op:
            warnings.append(unused(f"literal argument of operation '{holder.name}'", holder.span))
        else:
            own.append(unused(f"binding of parameter '{holder.target}'", holder.span))
    warnings += own

    for p in model.proxies:
        if p.safe or p.app_id is not None:
            touched = False
            for pn in p.uri.params:
                q = qualify(pn, p.name)
                for m in graph.pred.get(q, ()):
                    safe.add((m, q))
                    touched = True
            if p.safe and not touched:
                warnings.append(unused(f"proxy '{p.name}'", p.span))

    return frozenset(safe), warnings


# ---------------------------------------------------------------------------
# Step 5: violations


def _number(nodes, edges) -> tuple[list[QualifiedId], dict[QualifiedId, int], list[list[int]], list[list[int]]]:
    """The nodes in name order, each node's number in it, and the sorted
    successor and predecessor lists of `edges` over those numbers."""
    names = sorted(nodes, key=str)
    index = {q: i for i, q in enumerate(names)}
    succ: list[list[int]] = [[] for _ in names]
    pred: list[list[int]] = [[] for _ in names]
    for a, b in sorted([(index[a], index[b]) for a, b in edges]):
        succ[a].append(b)
        pred[b].append(a)
    return names, index, succ, pred


def _least_paths(start: int, succ: list[list[int]]) -> dict[int, int]:
    """The breadth-first parent of every node reachable from start (start is
    its own parent).  Nodes are numbered in name order and successor lists
    are sorted, so the search dequeues each level in least-path order and
    meets each node first along its lexicographically least path (by
    length, then node names): that path is its parent's plus the node."""
    parent = {start: start}
    queue = [start]
    for node in queue:  # appending while iterating makes the list a FIFO queue
        for m in succ[node]:
            if m not in parent:
                parent[m] = node
                queue.append(m)
    return parent


def _witness(parent: dict[int, int], start: int, node: int, names: list[QualifiedId]) -> tuple[QualifiedId, ...]:
    """The least path from start to node, read back through the parents."""
    path = [names[node]]
    while node != start:
        node = parent[node]
        path.append(names[node])
    path.reverse()
    return tuple(path)


def analyze(model: AppModel, graph: InfluenceGraph, safe: frozenset[Edge]) -> list[Diagnostic]:
    trust = classify_endpoints(model, graph)
    roles = graph.roles

    unsafe = graph.edges - safe
    names, index, succ, pred = _number(set(graph.nodes).union(*unsafe), unsafe)
    sources = sorted(index[q] for q in trust.untrusted_sources)
    sinks = sorted(index[q] for q in trust.untrusted_sinks)

    # Only untrusted sources (integrity) and declared nodes with an unsafe path
    # into an untrusted sink (confidentiality) can start a witness.
    leaks = sorted(n for n in _reach(sinks, pred) if names[n] in roles)
    parents = {n: _least_paths(n, succ) for n in set(sources).union(leaks)}

    # Integrity: a widget or operation consumes, along an unsafe direct edge,
    # a value attributable to an untrusted source.
    tainted = {u for u in trust.untrusted_reachable if roles.get(u) is Role.PARAM}
    tainted |= {u for u in trust.untrusted_sources if roles.get(u) is Role.OP}
    consumers = sorted({index[k] for u, k in unsafe if u in tainted and roles.get(k) in (Role.WIDGET, Role.OP)})

    # Report order: confidentiality (IF002) before integrity (IF001), then by
    # source and sink name.  A witness has at least one edge, so k != s.
    out: list[Diagnostic] = []
    for code, what, starts, ends in (("IF002", "value leaks to untrusted sink", leaks, sinks),
                                     ("IF001", "untrusted value reaches", sources, consumers)):
        for s in starts:
            parent = parents[s]
            for k in ends:
                if k != s and k in parent:
                    witness = _witness(parent, s, k, names)
                    message = f"{what} '{names[k]}' from '{names[s]}'"
                    out.append(Diagnostic(code, message, graph.edge_origin[witness[-2:]], witness))
    return out


def flow_diagnostics(model: AppModel) -> list[Diagnostic]:
    """The violations, then the unused-safe warnings."""
    graph = build_influences(model)
    safe, warnings = collect_safe(model, graph)
    return analyze(model, graph, safe) + warnings
