"""Information-flow analysis: influences, closure, classification, violations."""

import random

from conftest import FIXTURES, flow, load_fixture, oracle_flows, oracle_least_paths, parse_text, violations
from golden import rename

from sbc import infoflow, syntax
from sbc.model import OPERATION, QualifiedId, validate
from modelgen import gen_model


def q(s):
    base, _, owner = s.partition("@")
    return QualifiedId(base, owner or OPERATION)


def edge_strs(edges):
    return sorted(f"{a}->{b}" for a, b in edges)


FIG3_EDGES = [
    "Phone@Contacts->savePhone",
    "Phone@Contacts->x@SaveStatus",
    "Phone@Contacts->z@PhoneApp",
    "dispMsg->Status@SaveStatus",
    "getContacts->sendMsg",
    "x@SaveStatus->dispMsg",
    "y@Contacts->Phone@Contacts",
]


class TestInfluences:
    def test_messenger_exact_edge_set(self, messenger):
        g = infoflow.build_influences(messenger)
        assert edge_strs(g.edges) == sorted(FIG3_EDGES)

    def test_literal_values_induce_no_edges(self):
        m = parse_text('app "a" screen S { TextView T = "hi" }')
        assert infoflow.build_influences(m).edges == frozenset()

    def test_edgeless_nodes_still_present(self):
        m = parse_text('app "a" screen S { param p\nTextView T = "hi" }')
        g = infoflow.build_influences(m)
        assert q("p@S") in g.nodes and q("T@S") in g.nodes

    def test_edges_reference_declared_entities(self):
        # `analyze` numbers the role nodes alone, so no model that passes `validate`
        # may have an edge end without a role: here the generated models and
        # their one-word renames that still validate
        rng = random.Random(20)
        checked = 0
        for seed in range(300):
            text = syntax.format_model(gen_model(seed))
            for outcome in (syntax.parse(text), syntax.parse(rename(rng, text))):
                if not outcome.ok or validate(outcome.model):
                    continue
                g = infoflow.build_influences(outcome.model)
                assert {q for edge in g.edges for q in edge} <= g.roles.keys(), seed
                checked += 1
        assert checked > 350


class TestClosure:
    def test_messenger_transitive_pairs(self, messenger):
        cl = infoflow.closure(infoflow.build_influences(messenger))
        for pair in ["y@Contacts->z@PhoneApp", "y@Contacts->x@SaveStatus",
                     "y@Contacts->dispMsg", "y@Contacts->Status@SaveStatus",
                     "x@SaveStatus->Status@SaveStatus"]:
            a, b = pair.split("->")
            assert (q(a), q(b)) in cl.pairs

    def test_reflexive_on_isolated_node(self):
        m = parse_text('app "a" screen S { param n }')
        cl = infoflow.closure(infoflow.build_influences(m))
        assert (q("n@S"), q("n@S")) in cl.pairs

    def test_matches_reachability_oracle(self):
        for seed in range(100):
            m = gen_model(seed)
            g = infoflow.build_influences(m)
            cl = infoflow.closure(g)
            oracle = oracle_flows(m) | {(n, n) for n in g.nodes}
            assert set(cl.pairs) == oracle, f"seed {seed}"


class TestClassify:
    def test_uri_param_is_untrusted_source(self, messenger):
        tm = infoflow.classify_endpoints(messenger, infoflow.build_influences(messenger))
        assert q("y@Contacts") in tm.untrusted_sources

    def test_ext_store_write_is_sink(self, browser):
        tm = infoflow.classify_endpoints(browser, infoflow.build_influences(browser))
        assert q("save") in tm.untrusted_sinks

    def test_literals_and_int_store_all_trusted(self):
        m = parse_text('app "a" screen S { TextView T = f("x") use INT_STORE.read }')
        tm = infoflow.classify_endpoints(m, infoflow.build_influences(m))
        assert not tm.untrusted_sources and not tm.untrusted_sinks

    def test_foreign_resource_untrusted_both_ways(self):
        m = parse_text('app "a" screen S { TextView T = f() use OTHER.cap }')
        tm = infoflow.classify_endpoints(m, infoflow.build_influences(m))
        assert q("f") in tm.untrusted_sources and q("f") in tm.untrusted_sinks

    def test_app_attributed_proxy_params_not_sinks(self, messenger):
        tm = infoflow.classify_endpoints(messenger, infoflow.build_influences(messenger))
        assert q("z@PhoneApp") not in tm.untrusted_sinks

    def test_anonymous_proxy_params_are_sinks(self):
        m = parse_text(
            'app "a" screen S { Button B = "b"\n'
            'transition t order 1 dest P cond B.click { param z = B } }\n'
            'proxy P uri "ext://x/{z}"'
        )
        assert q("z@P") in infoflow.classify_endpoints(m, infoflow.build_influences(m)).untrusted_sinks

    def test_sources_subset_of_reachable(self, messenger):
        tm = infoflow.classify_endpoints(messenger, infoflow.build_influences(messenger))
        assert tm.untrusted_sources <= tm.untrusted_reachable

    def test_reachable_matches_reachability_oracle(self):
        for seed in range(1000):
            m = gen_model(seed)
            tm = infoflow.classify_endpoints(m, infoflow.build_influences(m))
            want = set(tm.untrusted_sources)
            want |= {b for a, b in oracle_flows(m) if a in tm.untrusted_sources}
            assert tm.untrusted_reachable == want, f"seed {seed}"


class TestCollectSafe:
    def test_safe_widget_declassifies_in_edge(self, messenger_safe):
        g = infoflow.build_influences(messenger_safe)
        safe, _ = infoflow.collect_safe(messenger_safe, g)
        assert (q("y@Contacts"), q("Phone@Contacts")) in safe

    def test_safe_widget_declassifies_out_edges_too(self):
        m = parse_text(
            'app "a" screen S uri "app://s/{p}" { safe TextView W = p\nTextView V = f(W) }'
        )
        g = infoflow.build_influences(m)
        safe, _ = infoflow.collect_safe(m, g)
        assert (q("p@S"), q("W@S")) in safe
        assert (q("W@S"), q("f")) in safe

    def test_no_marks_empty_set(self, messenger):
        safe, warnings = infoflow.collect_safe(messenger, infoflow.build_influences(messenger))
        # the app-attributed proxy contributes its inbound edge
        assert safe == {(q("Phone@Contacts"), q("z@PhoneApp"))}
        assert warnings == []

    def test_unused_safe_warns(self):
        m = parse_text('app "a" screen S { safe TextView T = "lit" }')
        _, warnings = infoflow.collect_safe(m, infoflow.build_influences(m))
        assert [w.code for w in warnings] == ["IF003"]

    def test_safe_argument(self):
        m = parse_text('app "a" screen S { param p\nTextView T = f(safe p) }')
        safe, _ = infoflow.collect_safe(m, infoflow.build_influences(m))
        assert (q("p@S"), q("f")) in safe


class TestAnalyze:
    def test_messenger_two_integrity_sites(self, messenger):
        vs = violations(messenger)
        assert [(kind, str(source), str(sink)) for kind, source, sink in map(flow, vs)] == [
            ("integrity", "y@Contacts", "Phone@Contacts"),
            ("integrity", "y@Contacts", "dispMsg"),
        ]
        assert [str(n) for n in vs[0].witness] == ["y@Contacts", "Phone@Contacts"]
        assert [str(n) for n in vs[1].witness] == [
            "y@Contacts", "Phone@Contacts", "x@SaveStatus", "dispMsg",
        ]

    def test_messenger_safe_mark_clears_all(self, messenger_safe):
        assert violations(messenger_safe) == []

    def test_notes_injection_and_fix(self):
        vs = violations(load_fixture("notes.sbd"))
        sinks = {str(v.witness[-1]) for v in vs}
        assert sinks == {"getFrag", "isFragHome", "isFragProfile"}
        token_path = next(v for v in vs if str(v.witness[-1]) == "isFragHome")
        assert [str(n) for n in token_path.witness] == [
            "token@Profile", "getFrag", "fragAddr@LoginFrag", "isFragHome",
        ]
        assert violations(load_fixture("notes_fixed.sbd")) == []

    def test_browser_leak_and_fix(self, browser):
        vs = violations(browser)
        kinds = {(kind, str(source), str(sink)) for kind, source, sink in map(flow, vs)}
        assert ("confidentiality", "Url@Home", "save") in kinds
        assert ("integrity", "show", "DispArea@DisplayFile") in kinds
        assert violations(load_fixture("browser_fixed.sbd")) == []

    def test_witness_edges_are_direct_and_unsafe(self, messenger):
        g = infoflow.build_influences(messenger)
        safe, _ = infoflow.collect_safe(messenger, g)
        for v in violations(messenger):
            for a, b in zip(v.witness, v.witness[1:]):
                assert (a, b) in g.edges and (a, b) not in safe

    def test_deterministic(self, messenger):
        assert violations(messenger) == violations(messenger)

    def test_self_influence_never_a_violation(self):
        m = parse_text('app "a" screen S { TextView T = f() use EXT_STORE.read }')
        assert all(v.witness[0] != v.witness[-1] for v in violations(m))

    def test_violating_pairs_within_reachability(self):
        for seed in range(50):
            m = gen_model(seed)
            flows = oracle_flows(m)
            for v in violations(m):
                assert (v.witness[0], v.witness[-1]) in flows, f"seed {seed}"

    def test_safe_mark_monotone(self):
        # adding a safe mark never introduces a violation
        before = set(map(flow, violations(load_fixture("browser.sbd"))))
        after = set(map(flow, violations(load_fixture("browser_fixed.sbd"))))
        assert after <= before

    def test_guards_do_not_add_edges(self):
        # the same guard under a different boolean structure yields equal graphs
        a = parse_text('app "a" screen S { Button B = "b"\ntransition t order 1 dest S cond B.click and f(B) }')
        b = parse_text('app "a" screen S { Button B = "b"\ntransition t order 1 dest S cond B.click and not f(B) }')
        assert infoflow.build_influences(a).edges == infoflow.build_influences(b).edges


class TestDiagnostics:
    def test_codes_and_witness(self, messenger):
        out = infoflow.flow_diagnostics(messenger)
        assert {d.code for d in out} == {"IF001"}
        assert all(len(d.witness) >= 2 for d in out)

    def test_confidentiality_code(self, browser):
        codes = {d.code for d in infoflow.flow_diagnostics(browser)}
        assert "IF002" in codes


def _unsafe_graph(model):
    graph = infoflow.build_influences(model)
    safe, _ = infoflow.collect_safe(model, graph)
    return graph.nodes, graph.edges - safe


class TestLeastPaths:
    """The breadth-first witness search against the Dijkstra oracle."""

    @staticmethod
    def path(parent, node, names):
        """The path to node, read back through the parent pointers."""
        path = [node]
        while parent[path[-1]] != path[-1]:
            path.append(parent[path[-1]])
        return tuple(names[n] for n in reversed(path))

    def least_paths(self, start, nodes, edges):
        """The least path from start to every node it reaches, each rebuilt
        from _least_paths' parents over the numbered graph."""
        names, index, succ, _ = infoflow._number(set(nodes).union(*edges), edges)
        parent = infoflow._least_paths((index[start],), succ)
        return {names[n]: self.path(parent, n, names) for n in parent}

    def assert_matches_oracle(self, nodes, edges, label):
        oracle_succ = {}
        for a, b in edges:  # built apart from _number, in the given order
            oracle_succ.setdefault(a, []).append(b)
        for n in nodes:
            assert self.least_paths(n, nodes, edges) == oracle_least_paths(n, oracle_succ), f"{label}: {n}"

    def test_fixtures(self):
        paths = sorted(FIXTURES.glob("**/*.sbd"))
        assert len(paths) > 30
        for path in paths:
            nodes, edges = _unsafe_graph(load_fixture(str(path.relative_to(FIXTURES))))
            self.assert_matches_oracle(nodes, edges, path.name)

    def test_random_models(self):
        for seed in range(300):
            nodes, edges = _unsafe_graph(gen_model(seed))
            self.assert_matches_oracle(nodes, edges, f"seed {seed}")

    def test_tie_broken_at_first_hop_not_by_insertion(self):
        # Two length-4 paths a-b-z-t and a-c-d-t split at the first hop, where
        # b < c decides although d < z; edges are listed against name order.
        edges = [(q("a"), q("c")), (q("c"), q("d")), (q("d"), q("t")),
                 (q("a"), q("b")), (q("b"), q("z")), (q("z"), q("t"))]
        nodes = [q(n) for n in "abcdzt"]
        paths = self.least_paths(q("a"), nodes, edges)
        assert paths[q("t")] == (q("a"), q("b"), q("z"), q("t"))
        assert paths[q("d")] == (q("a"), q("c"), q("d"))
        self.assert_matches_oracle(nodes, edges, "hand-built")

    def test_several_starts(self):
        # what classify_endpoints reads: the nodes that any of the starts reaches
        for seed in range(100):
            nodes, edges = _unsafe_graph(gen_model(seed))
            _, index, succ, _ = infoflow._number(set(nodes).union(*edges), edges)
            starts = sorted(index.values())[::3]
            parent = infoflow._least_paths(starts, succ)
            assert set(parent) == set().union(*(infoflow._least_paths((s,), succ) for s in starts)), f"seed {seed}"
            assert all(parent[s] == s for s in starts), f"seed {seed}"


class TestPathsInto:
    """The per-sink witness tables against the Dijkstra oracle: for every node
    k, the table of k holds exactly the nodes that reach k, each with its
    least path into k."""

    @staticmethod
    def tables(nodes, edges):
        names, index, succ, pred = infoflow._number(set(nodes).union(*edges), edges)
        return {k: {names[n]: path for n, path in infoflow._paths_into(index[k], pred, names).items()}
                for k in names}

    def assert_matches_oracle(self, nodes, edges, label):
        oracle_succ = {}
        for a, b in edges:  # built apart from _number, in the given order
            oracle_succ.setdefault(a, []).append(b)
        oracle = {n: oracle_least_paths(n, oracle_succ) for n in set(nodes).union(*edges)}
        for k, table in self.tables(nodes, edges).items():
            assert table == {n: paths[k] for n, paths in oracle.items() if k in paths}, f"{label}: {k}"

    def test_fixtures(self):
        paths = sorted(FIXTURES.glob("**/*.sbd"))
        assert len(paths) > 30
        for path in paths:
            nodes, edges = _unsafe_graph(load_fixture(str(path.relative_to(FIXTURES))))
            self.assert_matches_oracle(nodes, edges, path.name)

    def test_random_models(self):
        for seed in range(300):
            nodes, edges = _unsafe_graph(gen_model(seed))
            self.assert_matches_oracle(nodes, edges, f"seed {seed}")

    def test_least_successor_not_first_met(self):
        # TestLeastPaths' graph: from t the backward search meets d before z,
        # yet a's witness into t goes through b, the lesser of a's successors
        # one step nearer, and so through z.
        edges = [(q("a"), q("c")), (q("c"), q("d")), (q("d"), q("t")),
                 (q("a"), q("b")), (q("b"), q("z")), (q("z"), q("t"))]
        nodes = [q(n) for n in "abcdzt"]
        assert self.tables(nodes, edges)[q("t")][q("a")] == (q("a"), q("b"), q("z"), q("t"))
        self.assert_matches_oracle(nodes, edges, "hand-built")
