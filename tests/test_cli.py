"""Command-line driver: exit codes, output formats, file handling."""

import errno
import io
import json
import os
import random
import re
import time

import pytest
from conftest import FIXTURES, ILL_FORMED, span_at
from golden import SCENARIO_WORDS, WORDS, mutate, mutate_scenario

from sbc import cli, codegen, infoflow, interp, model, rules, syntax
from sbc.model import OPERATION, Diagnostic, qualify, validate


def fixture(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = cli.run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def malformed(tmp_path):
    p = tmp_path / "bad.sbd"
    p.write_text('app "a" screen S { Button }\n')
    return str(p)


class TestExitCodes:
    def test_clean_model_zero(self, capsys):
        code, out, _ = run(capsys, "analyze", fixture("messenger_safe.sbd"))
        assert code == 0 and out == ""

    def test_violations_one(self, capsys):
        code, out, _ = run(capsys, "analyze", fixture("messenger.sbd"))
        assert code == 1 and "IF001" in out

    def test_parse_failure_two(self, capsys, malformed):
        code, out, _ = run(capsys, "analyze", malformed)
        assert code == 2 and "PAR" in out

    def test_missing_file_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", str(tmp_path / "absent.sbd"))
        assert code == 2 and "absent.sbd" in err

    def test_usage_error_two(self, capsys):
        assert cli.run_cli(["bogus-command"]) == 2
        capsys.readouterr()

    def test_worst_code_across_files(self, capsys, malformed):
        code, _, _ = run(capsys, "analyze", fixture("messenger_safe.sbd"), malformed)
        assert code == 2

    def test_warnings_clean_by_default(self, capsys):
        code, out, _ = run(capsys, "analyze", fixture("rules/rc003_pos.sbd"))
        assert code == 0 and "RC003" in out

    def test_fail_on_warnings_promotes(self, capsys):
        code, _, _ = run(capsys, "analyze", "--fail-on-warnings", fixture("rules/rc003_pos.sbd"))
        assert code == 1


# Hand-built findings, in the order emit_diagnostics sorts them (file, line, code).
HAND_BUILT = [
    Diagnostic("IF003", "safe mark on proxy 'P' declassifies no flow", span_at("a.sbd", 1, 9)),
    Diagnostic("RC002", 'WebView "w" has no trust-patterns whitelist', span_at("a.sbd", 2, 1)),
    Diagnostic("IF001", "untrusted value reaches 'naïve@S' from 'y@S'",
               span_at('dir "q"\\é.sbd', 3, 7), witness=(qualify("y", "S"), qualify("f", OPERATION),
                                                            qualify("naïve", "S"))),
]


class Writes(io.StringIO):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


def record(d):
    """The machine record of a finding, as a dict."""
    return {
        "severity": d.severity,
        "code": d.code,
        "file": d.span.file,
        "line": d.span.line,
        "col": d.span.column,
        "message": d.message,
        "witness": [str(q) for q in d.witness],
    }


class TestEmission:
    # Each test replaces standard output in its own body: output capture
    # puts its own back at the start of the call.
    def test_machine_lines_are_json_dumps_of_the_record(self, monkeypatch):
        out = Writes()
        monkeypatch.setattr("sys.stdout", out)
        cli.emit_diagnostics(list(reversed(HAND_BUILT)), "machine")
        assert out.getvalue() == "".join(json.dumps(record(d)) + "\n" for d in HAND_BUILT)
        assert out.calls == 1

    def test_human_color_output(self, monkeypatch):
        monkeypatch.setenv("SBC_COLOR", "1")
        out = Writes()
        monkeypatch.setattr("sys.stdout", out)
        cli.emit_diagnostics(list(reversed(HAND_BUILT)), "human")
        assert out.getvalue() == (
            "\x1b[33mwarning IF003 a.sbd:1:9 safe mark on proxy 'P' declassifies no flow\x1b[0m\n"
            '\x1b[31merror RC002 a.sbd:2:1 WebView "w" has no trust-patterns whitelist\x1b[0m\n'
            '\x1b[31merror IF001 dir "q"\\é.sbd:3:7 untrusted value reaches \'naïve@S\' from \'y@S\'\n'
            "    flow: y@S -> f -> naïve@S\x1b[0m\n"
        )
        assert out.calls == 1

    @pytest.mark.parametrize("fmt", ["human", "machine"])
    def test_order_is_by_line_then_as_found(self, monkeypatch, fmt):
        # Findings of one line and one code keep validate's order, a later
        # column first; a finding at line 2, column 1 comes after one at line
        # 1, column 40, although its offset in its own text is lower.
        places = [(1, 30), (1, 5), (2, 1), (1, 40)]
        out = Writes()
        monkeypatch.setattr("sys.stdout", out)
        cli.emit_diagnostics([Diagnostic("WF001", "duplicate", span_at("a.sbd", *p)) for p in places], fmt)
        lines = out.getvalue().splitlines()
        if fmt == "machine":
            printed = [(r["line"], r["col"]) for r in map(json.loads, lines)]
        else:
            printed = [tuple(map(int, re.search(r"a\.sbd:(\d+):(\d+)", ln).groups())) for ln in lines]
        assert printed == [(1, 30), (1, 5), (1, 40), (2, 1)]

    def test_nothing_to_emit_writes_nothing(self, monkeypatch):
        out = Writes()
        monkeypatch.setattr("sys.stdout", out)
        cli.emit_diagnostics([], "machine")
        cli.emit_diagnostics([], "human")
        assert out.calls == 0


class TestMachineFormat:
    def test_records_match_findings(self, capsys):
        model_findings = infoflow.flow_diagnostics(
            syntax.parse((FIXTURES / "browser.sbd").read_text(), "f").model
        )
        code, out, _ = run(capsys, "analyze", "--format", "machine", fixture("browser.sbd"))
        records = [json.loads(line) for line in out.splitlines()]
        assert code == 1
        flow = [r for r in records if r["code"].startswith("IF")]
        assert len(flow) == len(model_findings)
        for r in records:
            assert set(r) == {"severity", "code", "file", "line", "col", "message", "witness"}

    def test_witness_paths_serialized(self, capsys):
        _, out, _ = run(capsys, "analyze", "--format", "machine", fixture("messenger.sbd"))
        records = [json.loads(line) for line in out.splitlines()]
        assert any(r["witness"] == ["y@Contacts", "Phone@Contacts"] for r in records)


class TestHumanFormat:
    def test_sorted_by_location_then_code(self, capsys, monkeypatch):
        monkeypatch.setenv("SBC_COLOR", "0")
        _, out, _ = run(capsys, "analyze", "--format", "machine", fixture("categories/w3.sbd"))
        records = [json.loads(line) for line in out.splitlines()]
        keys = [(r["file"], r["line"], r["code"]) for r in records]
        assert keys == sorted(keys)

    def test_color_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SBC_COLOR", "1")
        _, out, _ = run(capsys, "analyze", fixture("messenger.sbd"))
        assert "\x1b[31m" in out
        monkeypatch.setenv("SBC_COLOR", "0")
        _, out, _ = run(capsys, "analyze", fixture("messenger.sbd"))
        assert "\x1b[" not in out

    def test_each_name_is_formatted_once_per_run(self, messenger, monkeypatch):
        findings = rules.findings(messenger)  # the messages name nodes too
        text, calls = model.QualifiedId.__str__, []
        monkeypatch.setattr(model.QualifiedId, "__str__", lambda q: calls.append(q) or text(q))
        monkeypatch.setattr("sys.stdout", io.StringIO())
        cli.emit_diagnostics(findings, "human")
        witness = [q for d in findings for q in d.witness]
        assert len(witness) > len(set(witness)) and sorted(calls) == sorted(set(witness))

    def test_flow_line_included(self, capsys, monkeypatch):
        monkeypatch.setenv("SBC_COLOR", "0")
        _, out, _ = run(capsys, "analyze", fixture("messenger.sbd"))
        assert "flow: y@Contacts -> Phone@Contacts" in out


class TestSimulate:
    def test_walk_output(self, capsys):
        code, out, _ = run(
            capsys, "simulate", fixture("messenger.sbd"),
            "--scenario", str(FIXTURES / "scenarios" / "messenger_uri.scn"),
        )
        lines = out.splitlines()
        assert any("Contacts" in ln for ln in lines)
        assert any("SaveStatus" in ln for ln in lines)
        assert code == 1  # analysis findings still reported

    def test_scenario_not_utf8(self, capsys, tmp_path):
        p = tmp_path / "bad.scn"
        p.write_bytes(b"click Save\n\xff\n")
        code, out, err = run(capsys, "simulate", fixture("messenger.sbd"), "--scenario", str(p))
        assert code == 2 and out == ""
        assert err == f"error: cannot read {p}: not valid UTF-8\n"

    def test_missing_scenario_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", fixture("messenger.sbd"), "--scenario", str(tmp_path / "no.scn")
        )
        assert code == 2

    def test_budget_flag_limits_steps(self, capsys):
        _, out_small, _ = run(
            capsys, "simulate", fixture("messenger.sbd"),
            "--scenario", str(FIXTURES / "scenarios" / "messenger_uri.scn"), "--budget", "1",
        )
        step_lines = [ln for ln in out_small.splitlines()
                      if ln.startswith(("init:", "transition:", "self-transition:", "stop:", "idle:"))]
        assert len(step_lines) == 2  # the launch snapshot plus one step


    @pytest.mark.parametrize("model, text, shown", [
        ("messenger.sbd", 'launch uri "app://contacts/{y}" y="01 23"\nclick Save\nop savePhone -> true\n',
         "transition: SaveStatus [x@SaveStatus='01 23']"),
        ("messenger_safe.sbd", 'env y="a b"\nlaunch\nclick Add\nclick Save\nop savePhone -> true\n',
         "transition: SaveStatus [x@SaveStatus='a b']"),
        ("messenger.sbd", 'launch uri "app://contacts/{y}" y="0"\nclick Save\nop savePhone -> "a#b"\n',
         "no-transition: Contacts"),
        ("messenger_safe.sbd", 'launch uri "app://contacts/{y}" y="0"\nclick Save # saves\nop savePhone -> true\n'
         'op dispMsg -> "a\\"b"\n', """no-transition: SaveStatus [Status@SaveStatus='a"b', x@SaveStatus='0']"""),
    ], ids=["blank-in-launch-argument", "blank-in-env", "hash-in-result", "escaped-quote-and-comment"])
    def test_quoted_scenario_words(self, capsys, tmp_path, model, text, shown):
        p = tmp_path / "quoted.scn"
        p.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "simulate", fixture(model), "--scenario", str(p))
        assert code == (1 if model == "messenger.sbd" else 0) and err == ""
        assert any(line.startswith(shown) for line in out.splitlines())

    def test_negative_budget_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "simulate", fixture("messenger.sbd"),
                             "--scenario", str(FIXTURES / "scenarios" / "messenger_uri.scn"), "--budget", "-1")
        assert code == 2 and out == ""
        assert err == "error: --budget must not be negative: -1\n"

    def test_zero_budget_is_the_default(self, capsys):
        scenario = str(FIXTURES / "scenarios" / "messenger_uri.scn")
        default = run(capsys, "simulate", fixture("messenger.sbd"), "--scenario", scenario)
        assert run(capsys, "simulate", fixture("messenger.sbd"), "--scenario", scenario, "--budget", "0") == default

    @pytest.mark.parametrize("what, code", [("directory", errno.EISDIR), ("missing", errno.ENOENT)])
    def test_unreadable_scenario_path(self, capsys, tmp_path, what, code):
        path = str(tmp_path if what == "directory" else tmp_path / "no.scn")
        status, out, err = run(capsys, "simulate", fixture("messenger.sbd"), "--scenario", path)
        assert status == 2 and out == ""
        assert err == f"error: cannot read {path}: {os.strerror(code)}\n"


class TestGenerate:
    def test_blocked_model_writes_nothing(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "generate", fixture("browser.sbd"), "--out", str(out_dir))
        assert code == 1 and not out_dir.exists()

    @pytest.mark.parametrize("case", sorted(ILL_FORMED))
    def test_ill_formed_model_writes_nothing(self, capsys, tmp_path, case):
        p = tmp_path / "m.sbd"
        p.write_text(ILL_FORMED[case])
        out_dir = tmp_path / "out"
        code, out, _ = run(capsys, "generate", str(p), "--out", str(out_dir))
        assert code == 1 and " WF" in out
        assert not out_dir.exists()

    def test_clean_model_writes_layout(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "generate", fixture("browser_fixed.sbd"), "-o", str(out_dir))
        assert code == 0
        assert (out_dir / "manifest.txt").is_file()
        assert (out_dir / "screens" / "Home.ctrl").is_file()
        assert (out_dir / "ops.stub").is_file()

    def test_out_path_is_a_file(self, capsys, tmp_path):
        out_file = tmp_path / "out"
        out_file.write_text("kept\n")
        code, _, err = run(capsys, "generate", fixture("browser_fixed.sbd"), "-o", str(out_file))
        assert code == 2 and err.splitlines() == [f"error: cannot write {out_file}: {os.strerror(errno.EEXIST)}"]
        assert out_file.read_text() == "kept\n"

    def test_regeneration_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "generate", fixture("messenger_safe.sbd"), "-o", str(a))
        run(capsys, "generate", fixture("messenger_safe.sbd"), "-o", str(b))
        for p in sorted(a.rglob("*")):
            if p.is_file():
                assert p.read_bytes() == (b / p.relative_to(a)).read_bytes()


class TestFmt:
    def test_stdout_canonical(self, capsys):
        code, out, _ = run(capsys, "fmt", fixture("messenger.sbd"))
        assert code == 0
        reparsed = syntax.parse(out, "fmt")
        assert reparsed.ok and not validate(reparsed.model)

    def test_write_idempotent(self, capsys, tmp_path):
        p = tmp_path / "m.sbd"
        p.write_text((FIXTURES / "notes.sbd").read_text())
        run(capsys, "fmt", "-w", str(p))
        once = p.read_text()
        run(capsys, "fmt", "-w", str(p))
        assert p.read_text() == once

    def test_failed_write_is_an_io_error(self, capsys, tmp_path, monkeypatch):
        p = tmp_path / "m.sbd"
        text = (FIXTURES / "notes.sbd").read_text()
        p.write_text(text)
        real_open = open

        def open_for_reading(path, mode="r", *args, **kwargs):
            if "w" in mode:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return real_open(path, mode, *args, **kwargs)

        monkeypatch.setattr("builtins.open", open_for_reading)
        code, out, err = run(capsys, "fmt", "-w", str(p))
        assert code == 2 and out == ""
        assert err.splitlines() == [f"error: cannot write {p}: {os.strerror(errno.EACCES)}"]
        assert p.read_text() == text

    def test_malformed_rejected(self, capsys, tmp_path):
        p = tmp_path / "bad.sbd"
        p.write_text("screen {")
        code, _, _ = run(capsys, "fmt", str(p))
        assert code == 2


class TestCheck:
    def test_well_formedness_only(self, capsys):
        # messenger has flow violations but is well-formed: check stays clean
        code, out, _ = run(capsys, "check", fixture("messenger.sbd"))
        assert code == 0 and out == ""

    def test_not_utf8_two(self, capsys, tmp_path):
        p = tmp_path / "bad.sbd"
        p.write_bytes(b'app "a" screen S { }\n\xff\n')
        code, out, err = run(capsys, "check", str(p))
        assert code == 2 and out == ""
        assert err == f"error: cannot read {p}: not valid UTF-8\n"

    @pytest.mark.parametrize("text", [
        'app "a" screen S { Button B = "b"\ntransition t1 order ² dest S cond B.click }\n',
        'app "a" screen S { Button Bé = "b" }\n',
    ], ids=["superscript-digit", "accented-letter"])
    def test_non_ascii_token_two(self, capsys, tmp_path, text):
        p = tmp_path / "x.sbd"
        p.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "check", str(p))
        assert code == 2 and "PAR001" in out and err == ""

    def test_non_ascii_in_string_accepted(self, capsys, tmp_path):
        p = tmp_path / "x.sbd"
        p.write_text('app "a" screen S { TextView T = "café ²" }\n', encoding="utf-8")
        assert run(capsys, "check", str(p)) == (0, "", "")

    def test_error_in_binding_block_reported_once(self, capsys, tmp_path):
        p = tmp_path / "x.sbd"
        p.write_text('app "a"\nscreen S {\n  Button B = "b"\n  transition t order 1 dest S cond B.click {\n'
                     "    param p = f(p, )\n  }\n}\n")
        code, out, err = run(capsys, "check", str(p))
        assert (code, out, err) == (2, f"error PAR002 {p}:5:20 expected a value, found ')'\n", "")

    @pytest.mark.parametrize("text, expected", [
        ('app "a"\nscreen S {\n  Button B = "b"\nscreen R { }\nproxy P uri "x://y"\n',
         "4:1 expected screen body item or '}', found 'screen'"),
        ('app "a"\nscreen S {\n  WebView W = "u" [trust-patterns={"a"]\n}\nscreen R { }\nproxy P uri "x://y"\n',
         "3:39 expected '}', found ']'"),
    ], ids=["screen", "pattern-set"])
    def test_a_missing_brace_is_one_error(self, capsys, tmp_path, text, expected):
        p = tmp_path / "x.sbd"
        p.write_text(text)
        code, out, err = run(capsys, "check", str(p))
        assert (code, out, err) == (2, f"error PAR002 {p}:{expected}\n", "")

    @pytest.mark.parametrize("text, expected", [
        ('app "a"\nscreen S {\n  TextView T = proxy\n}\n', "3:16 expected a value, found 'proxy'"),
        ('app "a"\nscreen S {\n  TextView T = start\n}\nstart screen R { }\n', "3:16 expected a value, found 'start'"),
        ('app "a"\nscreen S {\n  transition t order 1 dest screen {\n  }\n}\n',
         "3:29 expected destination name, found 'screen'"),
    ], ids=["proxy", "start", "screen"])
    def test_an_item_word_inside_an_item_is_one_error(self, capsys, tmp_path, text, expected):
        # recovery starts a new item at an item word only if the next token fits the item
        p = tmp_path / "x.sbd"
        p.write_text(text)
        code, out, err = run(capsys, "check", str(p))
        assert (code, out, err) == (2, f"error PAR002 {p}:{expected}\n", "")

    @pytest.mark.parametrize("tail, diags", [
        (" " * 100_000, []),
        (" \t\r" * 33_334, []),
        ('\n"' + "x" * 1_000_000, [("PAR001", 3, 1, 1_000_001)]),
        ("#" * 200_000, []),
        ("@" * 300_000, [("PAR001", 2, 13, 300_000)]),
    ], ids=["spaces", "tabs-and-crs", "unterminated-string", "comment", "bad-characters"])
    def test_long_tail_read_in_linear_time(self, capsys, tmp_path, tail, diags):
        # blanks, a comment, a string or a run of bad characters that run to
        # the end of the input are read once and give one diagnostic at most
        text = 'app "a"\nscreen S { }' + tail
        t0 = time.perf_counter()
        out = syntax.parse(text, "t")
        assert time.perf_counter() - t0 < 1
        assert [(d.code, d.span.line, d.span.column, d.span.length) for d in out.diagnostics] == diags
        p = tmp_path / "x.sbd"
        p.write_text(text, encoding="utf-8")
        t0 = time.perf_counter()
        code, stdout, err = run(capsys, "check", str(p))
        assert time.perf_counter() - t0 < 1
        assert (code, len(stdout.splitlines()), err) == (2 if diags else 0, len(diags), "")

    def test_wf_error_reported(self, capsys, tmp_path):
        p = tmp_path / "dup.sbd"
        p.write_text('app "a" screen S { }\nscreen S { }\n')
        code, out, _ = run(capsys, "check", str(p))
        assert code == 1 and "WF" in out


@pytest.fixture
def calls(monkeypatch):
    """Counts the calls of each analysis stage, wherever the package binds it."""
    stages = [(infoflow, "build_influences"), (infoflow, "collect_safe"), (infoflow, "closure"),
              (rules, "check_all"), (model, "validate"), (model, "sites")]
    modules = (cli, codegen, infoflow, interp, model, rules, syntax)
    counts = {}
    for home, name in stages:
        original = getattr(home, name)
        counts[name] = 0

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return counts


class TestOnePass:
    # One walk over the value positions, kept in AppModel.positions, which
    # validate, AppModel.operations, build_influences, collect_safe and
    # codegen read.
    ONCE = {"build_influences": 1, "collect_safe": 1, "closure": 0, "check_all": 1, "validate": 1, "sites": 1}

    def test_generate_runs_each_stage_once(self, capsys, tmp_path, calls):
        code, _, _ = run(capsys, "generate", fixture("messenger_safe.sbd"), "-o", str(tmp_path / "out"))
        assert code == 0 and calls == self.ONCE

    def test_analyze_runs_each_stage_once(self, capsys, calls):
        code, _, _ = run(capsys, "analyze", fixture("messenger.sbd"))
        assert code == 1 and calls == self.ONCE

    def test_simulate_runs_each_stage_once(self, capsys, calls):
        scenario = str(FIXTURES / "scenarios" / "messenger_run.scn")
        code, out, _ = run(capsys, "simulate", fixture("messenger.sbd"), "--scenario", scenario)
        assert code == 1 and "\ntransition: SaveStatus" in out and calls == self.ONCE


def deep_model(n):
    """A well-formed model whose widget value, binding values and three
    guards each hold n operators and calls (n even)."""
    calls = "f(" * n + "p" + ")" * n
    return (
        f'app "deep"\nscreen S {{\n  param p\n  Button B = "b"\n  TextView T = {calls}\n'
        f'  transition t1 order 1 dest S cond B.click and {"not " * (n - 1)}g(p) {{\n    param p = {calls}\n  }}\n'
        f'  transition t2 order 2 dest S cond not {" and ".join(["g(p)"] * (n // 2))} {{\n    param p = p\n  }}\n'
        f'  transition t3 order 3 dest S cond {"(" * (n - 1)}g(p){")" * (n - 1)} {{\n    param p = p\n  }}\n}}\n'
    )


class TestDeepNesting:
    @pytest.mark.parametrize("guard", [
        "not " * 3000 + "g()",
        " and ".join(["g()"] * 2000),
        "(" * 3000 + "g()" + ")" * 3000,
    ], ids=["3000-nots", "2000-ands", "3000-parentheses"])
    def test_deep_guard_is_par004(self, capsys, tmp_path, guard):
        p = tmp_path / "deep.sbd"
        p.write_text(f'app "a" screen S {{ Button B = "b"\ntransition t order 1 dest S cond {guard} }}\n')
        code, out, err = run(capsys, "check", str(p))
        assert code == 2 and err == ""
        assert [ln.split()[1] for ln in out.splitlines()] == ["PAR004"]

    def test_deep_call_arguments_are_par004(self, capsys, tmp_path):
        p = tmp_path / "deep.sbd"
        p.write_text('app "a" screen S { TextView T = ' + "f(" * 2000 + '"x"' + ")" * 2000 + " }\n")
        code, out, err = run(capsys, "check", str(p))
        assert code == 2 and err == ""
        assert [ln.split()[1] for ln in out.splitlines()] == ["PAR004"]

    def test_model_at_the_limit_passes_every_command(self, capsys, tmp_path):
        p = tmp_path / "limit.sbd"
        p.write_text(deep_model(syntax.MAX_EXPRESSION_NODES))
        scn = tmp_path / "run.scn"
        scn.write_text("launch\nclick B\nclick B\n")
        assert run(capsys, "check", str(p)) == (0, "", "")
        assert run(capsys, "analyze", str(p)) == (0, "", "")
        code, out, _ = run(capsys, "fmt", str(p))
        assert code == 0 and syntax.parse(out, "fmt").model == syntax.parse(p.read_text(), "limit").model
        assert run(capsys, "generate", str(p), "-o", str(tmp_path / "out"))[0] == 0
        assert (tmp_path / "out" / "screens" / "S.ctrl").is_file()
        code, out, _ = run(capsys, "simulate", str(p), "--scenario", str(scn))
        assert code == 0 and out.startswith("init: S")


class TestFuzz:
    """Malformed input of any kind gets a diagnostic and exit 2, never a traceback."""

    SEPARATORS = [" ", "", "\n"]

    def check(self, capsys, path):
        code, out, err = run(capsys, "check", str(path))
        assert code in (0, 1, 2)
        if code == 2:
            assert " PAR0" in out or err.startswith("error: cannot read")
        elif code == 1:
            assert " WF0" in out

    def test_token_soup(self, capsys, tmp_path):
        rng = random.Random(1)
        p = tmp_path / "soup.sbd"
        for _ in range(300):
            words = [rng.choice(WORDS) + rng.choice(self.SEPARATORS) for _ in range(rng.randint(0, 60))]
            p.write_text(rng.choice(['app "a" screen S { ', ""]) + "".join(words), encoding="utf-8")
            self.check(capsys, p)

    def test_corpus_mutations(self, capsys, tmp_path):
        rng = random.Random(2)
        corpus = [f.read_text() for f in sorted(FIXTURES.rglob("*.sbd"))]
        p = tmp_path / "mutant.sbd"
        for _ in range(300):
            p.write_text(mutate(rng, corpus), encoding="utf-8")
            self.check(capsys, p)

    def test_random_bytes(self, capsys, tmp_path):
        rng = random.Random(3)
        p = tmp_path / "noise.sbd"
        for _ in range(200):
            p.write_bytes(bytes(rng.randrange(256) for _ in range(rng.randint(0, 200))))
            self.check(capsys, p)


class TestScenarioFuzz:
    """A malformed scenario gets a located error and exit 2, never a traceback."""

    SEPARATORS = [" ", "", "\n", "\t"]

    def check(self, capsys, path):
        code, out, err = run(capsys, "simulate", fixture("messenger_safe.sbd"), "--scenario", str(path))
        assert code in (0, 2)
        if code == 2:
            assert re.match(rf"error: ({re.escape(str(path))}:\d+: |cannot read |scenario failed: )", err), err

    def test_token_soup(self, capsys, tmp_path):
        rng = random.Random(4)
        p = tmp_path / "soup.scn"
        for _ in range(300):
            words = [rng.choice(SCENARIO_WORDS) + rng.choice(self.SEPARATORS) for _ in range(rng.randint(0, 30))]
            p.write_text("".join(words), encoding="utf-8")
            self.check(capsys, p)

    def test_scenario_mutations(self, capsys, tmp_path):
        rng = random.Random(5)
        scenarios = [f.read_text(encoding="utf-8") for f in sorted((FIXTURES / "scenarios").glob("*.scn"))]
        p = tmp_path / "mutant.scn"
        for _ in range(300):
            p.write_text(mutate_scenario(rng, scenarios), encoding="utf-8")
            self.check(capsys, p)
