"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(bypassing capture) so the suite log shows the verdict per criterion.
"""

import functools
import glob
import json
import sys
import time
from pathlib import Path

from conftest import FIXTURES, flow, load_fixture, oracle_flows, taint_pairs, violations

from modelgen import gen_model, gen_scenario
from sbc import cli, codegen, infoflow, interp, rules, syntax
from sbc.model import OPERATION, QualifiedId


def q(s):
    base, _, owner = s.partition("@")
    return QualifiedId(base, owner or OPERATION)


def verdict(number, label):
    """Decorator: print one PASS/FAIL line for the criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                sys.__stdout__.write(f"ACCEPTANCE {number}: FAIL — {label}\n")
                raise
            dt = time.perf_counter() - t0
            sys.__stdout__.write(f"ACCEPTANCE {number}: PASS — {label} ({dt:.2f}s)\n")

        return run

    return wrap


@verdict(1, "worked-example parity: influences, closure, violations, safe fix")
def test_01_worked_example_parity():
    t0 = time.perf_counter()
    m = load_fixture("messenger.sbd")
    g = infoflow.build_influences(m)
    assert {(str(a), str(b)) for a, b in g.edges} == {
        ("y@Contacts", "Phone@Contacts"),
        ("Phone@Contacts", "savePhone"),
        ("Phone@Contacts", "x@SaveStatus"),
        ("Phone@Contacts", "z@PhoneApp"),
        ("x@SaveStatus", "dispMsg"),
        ("dispMsg", "Status@SaveStatus"),
        ("getContacts", "sendMsg"),
    }
    cl = infoflow.closure(g)
    for a, b in [("y@Contacts", "z@PhoneApp"), ("y@Contacts", "x@SaveStatus"),
                 ("y@Contacts", "dispMsg"), ("y@Contacts", "Status@SaveStatus"),
                 ("x@SaveStatus", "Status@SaveStatus")]:
        assert (q(a), q(b)) in cl.pairs
    vs = violations(m)
    assert [(kind, str(source), str(sink)) for kind, source, sink in map(flow, vs)] == [
        ("integrity", "y@Contacts", "Phone@Contacts"),
        ("integrity", "y@Contacts", "dispMsg"),
    ]
    assert violations(load_fixture("messenger_safe.sbd")) == []
    assert time.perf_counter() - t0 < 1.0


@verdict(2, "data-injection example: witness through the fragment address, fixed by a literal")
def test_02_injection_example():
    t0 = time.perf_counter()
    vs = violations(load_fixture("notes.sbd"))
    assert vs and all(v.code == "IF001" for v in vs)
    witnesses = {tuple(str(n) for n in v.witness) for v in vs}
    assert any(
        w[:3] == ("token@Profile", "getFrag", "fragAddr@LoginFrag") for w in witnesses
    )
    assert violations(load_fixture("notes_fixed.sbd")) == []
    assert time.perf_counter() - t0 < 1.0


@verdict(3, "data-leak example: confidentiality into external storage plus RC002, both fixed")
def test_03_leak_example():
    t0 = time.perf_counter()
    m = load_fixture("browser.sbd")
    kinds = {(kind, str(sink)) for kind, _, sink in map(flow, violations(m))}
    assert ("confidentiality", "save") in kinds
    assert any(f.code == "RC002" and f.severity == "error" for f in rules.check_all(m))
    fixed = load_fixture("browser_fixed.sbd")
    assert violations(fixed) == []
    assert not any(f.severity == "error" for f in rules.check_all(fixed))
    assert time.perf_counter() - t0 < 1.0


@verdict(4, "rule suite: ten fixtures with the exact error/warning split")
def test_04_rule_suite():
    t0 = time.perf_counter()
    expected = {
        "rc001_pos": [("RC001", "error")],
        "rc001_neg": [],
        "rc002_pos": [("RC002", "error")],
        "rc002_neg": [],
        "rc003_pos": [("RC003", "warning")],
        "rc003_neg": [],
        "rc004_pos": [("RC004", "warning")],
        "rc004_neg": [],
        "rc005_pos": [("RC005", "error")],
        "rc005_neg": [],
    }
    for name, want in expected.items():
        got = [(f.code, f.severity) for f in rules.check_all(load_fixture(f"rules/{name}.sbd"))]
        assert got == want, f"{name}: {got}"
    assert time.perf_counter() - t0 < 1.0


@verdict(5, "closure equals brute-force reachability on 1000 random storyboards")
def test_05_closure_oracle():
    t0 = time.perf_counter()
    for seed in range(1000):
        m = gen_model(seed)
        g = infoflow.build_influences(m)
        got = set(infoflow.closure(g).pairs)
        want = oracle_flows(m) | {(n, n) for n in g.nodes}
        assert got == want, f"seed {seed}"
    assert time.perf_counter() - t0 < 30.0


@verdict(6, "dynamic soundness: runtime taint stays inside the static closure on 200 runs")
def test_06_dynamic_soundness():
    t0 = time.perf_counter()
    for seed in range(200):
        m = gen_model(seed)
        trace = interp.run(m, gen_scenario(seed, m), step_budget=10)
        cl = set(infoflow.closure(infoflow.build_influences(m)).pairs)
        pairs = taint_pairs(trace)
        assert pairs <= cl, f"seed {seed}: {pairs - cl}"
    assert time.perf_counter() - t0 < 60.0


@verdict(7, "progress: no run reaches a stuck non-terminal configuration")
def test_07_progress():
    runs = []
    for seed in range(200):
        m = gen_model(seed)
        runs.append((m, gen_scenario(seed, m)))
    scn_dir = FIXTURES / "scenarios"
    for name in ["messenger_run.scn", "messenger_uri.scn", "stop.scn"]:
        sc = interp.parse_scenario((scn_dir / name).read_text(), name)
        runs.append((load_fixture("messenger.sbd"), sc))
    for m, sc in runs:
        trace = interp.run(m, sc, step_budget=10)
        assert trace.error is None, trace.error
        for _, config in trace.steps[:-1]:
            assert not config.terminal


@verdict(8, "generation gate, byte determinism, and marker coverage")
def test_08_codegen():
    blocked = load_fixture("browser.sbd")
    units, findings = codegen.generate_all(blocked)
    assert units == [], "pre-fix model must be refused"
    assert any(f.code == "RC002" for f in findings)
    fixed = load_fixture("browser_fixed.sbd")
    first, _ = codegen.generate_all(fixed)
    second, _ = codegen.generate_all(fixed)
    assert [(u.path, u.contents) for u in first] == [(u.path, u.contents) for u in second]
    for model in (fixed, load_fixture("messenger_safe.sbd")):
        units, _ = codegen.generate_all(model)
        blob = "\n".join(u.contents for u in units)
        for s in model.screens:
            assert f"controller {s.name}" in blob
        for r in model.resources:
            assert r.name in blob
        for name in {u.name for _, u in model.operations}:
            assert f"fun {name}(" in blob


@verdict(9, "category corpus: each fixture flagged by exactly its detection method, clean after fix")
def test_09_category_corpus():
    t0 = time.perf_counter()
    expected = {
        "c3": "RC",
        "i9": "IF",
        "n6": "IF",
        "p2": "RC",
        "s2": "IF",
        "y5": "IF",
        "w2": "RC",
        "w3": "IF&RC",
    }
    for name, method in expected.items():
        m = load_fixture(f"categories/{name}.sbd")
        has_if = bool(violations(m))
        has_rc = bool(rules.check_all(m))
        got = {"IF": has_if and not has_rc, "RC": has_rc and not has_if,
               "IF&RC": has_if and has_rc}
        assert got[method], f"{name}: if={has_if} rc={has_rc}, want {method}"
        fixed = load_fixture(f"categories/{name}_fixed.sbd")
        assert not violations(fixed), name
        assert not rules.check_all(fixed), name
    assert time.perf_counter() - t0 < 5.0


@verdict(10, "formatter fixed point on the corpus and the CLI exit-code contract")
def test_10_roundtrip_and_cli(tmp_path, capsys):
    for path in sorted(glob.glob(str(FIXTURES / "**" / "*.sbd"), recursive=True)):
        m = syntax.parse(Path(path).read_text(), path).model
        once = syntax.format_model(m)
        again = syntax.parse(once, path)
        assert again.ok and again.model == m
        assert syntax.format_model(again.model) == once
    assert cli.run_cli(["analyze", str(FIXTURES / "messenger_safe.sbd")]) == 0
    assert cli.run_cli(["analyze", str(FIXTURES / "messenger.sbd")]) == 1
    bad = tmp_path / "bad.sbd"
    bad.write_text('app "a" screen S { Button }\n')
    assert cli.run_cli(["analyze", str(bad)]) == 2
    capsys.readouterr()
    cli.run_cli(["analyze", "--format", "machine", str(FIXTURES / "messenger.sbd")])
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert records and all(r["code"] == "IF001" for r in records)
