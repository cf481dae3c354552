"""Command-line front end.

    sbc check    app.sbd            parse + well-formedness
    sbc analyze  app.sbd            check + information flow + security rules
    sbc simulate app.sbd --scenario run.scn
    sbc generate app.sbd --out out/
    sbc fmt      app.sbd            canonical formatting (stdout, or -w in place)

Exit codes: 0 clean, 1 findings, 2 usage/IO/parse failure.
Set SBC_COLOR=0|1 to force color off/on in human output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str  # json.dumps of one str
from typing import Optional

from . import codegen, interp, rules, syntax
from .model import AppModel, Diagnostic, Severity, validate

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_FAILURE = 2


def _use_color(stream) -> bool:
    env = os.environ.get("SBC_COLOR")
    if env in ("0", "1"):
        return env == "1"
    return hasattr(stream, "isatty") and stream.isatty()


_COLORS = {Severity.ERROR: "\x1b[31m", Severity.WARNING: "\x1b[33m"}


def _sort_key(d: Diagnostic):
    return (d.span.file, d.span.line, d.code)


class _Names(dict):
    """Name -> its text, formatted on first use; one per run."""

    def __init__(self, fmt):
        super().__init__()
        self.fmt = fmt

    def __missing__(self, q):
        self[q] = text = self.fmt(q)
        return text


def _human_line(d: Diagnostic, names: _Names) -> str:
    """`SEVERITY CODE FILE:LINE:COL MESSAGE`, and the witness on a second line."""
    span = d.span
    line = f"{d.severity.value} {d.code} {span.file}:{span.line}:{span.column} {d.message}"
    if d.witness:
        line += "\n    flow: " + " -> ".join(map(names.__getitem__, d.witness))
    return line


def _machine_line(d: Diagnostic, names: _Names) -> str:
    """The finding as `json.dumps` writes its record, byte for byte."""
    span = d.span
    return (
        f'{{"severity": {_json_str(d.severity.value)}, "code": {_json_str(d.code)}, '
        f'"file": {_json_str(span.file)}, "line": {span.line}, "col": {span.column}, '
        f'"message": {_json_str(d.message)}, "witness": [{", ".join(map(names.__getitem__, d.witness))}]}}'
    )


def emit_diagnostics(findings: list[Diagnostic], fmt: str) -> None:
    """Print the findings, sorted by place and code, in one write."""
    ordered = sorted(findings, key=_sort_key)
    if fmt == "machine":
        names = _Names(lambda q: _json_str(str(q)))
        lines = [_machine_line(d, names) for d in ordered]
    else:
        names = _Names(str)
        lines = [_human_line(d, names) for d in ordered]
        if _use_color(sys.stdout):
            lines = [_COLORS[d.severity] + line + "\x1b[0m" for d, line in zip(ordered, lines)]
    if lines:
        lines.append("")  # the last line's newline
        sys.stdout.write("\n".join(lines))


def _read_text(path: str) -> Optional[str]:
    """The file's text; None, with the reason printed, if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        print(f"error: cannot read {path}: {e.strerror}", file=sys.stderr)
    except UnicodeDecodeError:
        print(f"error: cannot read {path}: not valid UTF-8", file=sys.stderr)
    return None


def _cannot_write(e: OSError, path: str) -> int:
    print(f"error: cannot write {e.filename or path}: {e.strerror}", file=sys.stderr)
    return EXIT_FAILURE


def _load_model(path: str, fmt: str) -> Optional[AppModel]:
    """The parsed model; None, with the reason printed, if there is none."""
    text = _read_text(path)
    if text is None:
        return None
    outcome = syntax.parse(text, path)
    if not outcome.ok:
        emit_diagnostics(outcome.diagnostics, fmt)
        return None
    return outcome.model


def _result_code(findings: list[Diagnostic], fail_on_warnings: bool) -> int:
    if any(d.severity is Severity.ERROR for d in findings):
        return EXIT_FINDINGS
    if fail_on_warnings and findings:
        return EXIT_FINDINGS
    return EXIT_CLEAN


def _per_file(args, handler) -> int:
    """Run handler(path) per input; worst exit code wins."""
    worst = EXIT_CLEAN
    for path in args.inputs:
        worst = max(worst, handler(path))
    return worst


def _cmd_check(args) -> int:
    def one(path):
        model = _load_model(path, args.format)
        if model is None:
            return EXIT_FAILURE
        diags = validate(model)
        emit_diagnostics(diags, args.format)
        return _result_code(diags, args.fail_on_warnings)

    return _per_file(args, one)


def _full_analysis(path: str, args) -> tuple[Optional[AppModel], list[Diagnostic], int]:
    """Load the file and print its findings; model is None if it cannot be loaded."""
    model = _load_model(path, args.format)
    if model is None:
        return None, [], EXIT_FAILURE
    findings = rules.findings(model)
    emit_diagnostics(findings, args.format)
    return model, findings, _result_code(findings, args.fail_on_warnings)


def _cmd_analyze(args) -> int:
    def one(path):
        return _full_analysis(path, args)[2]

    return _per_file(args, one)


def _trace_lines(trace: interp.Trace) -> list[str]:
    """The trace as text: a line per step, with its store sorted by name, then a
    line per proxy exit."""
    names = _Names(lambda q: f"{q}=")

    def store_text(values: dict) -> str:
        return ", ".join([names[k] + repr(values[k][0]) for k in sorted(values)])

    lines = [f"{rule}: <terminal>" if current is None else f"{rule}: {current} [{store_text(sigma)}]"
             for rule, (current, sigma) in trace.steps]
    lines += [f"proxy-exit {ev[1]} [{store_text(ev[2])}]" for ev in trace.events if ev[0] == "proxy-exit"]
    return lines


def _cmd_simulate(args) -> int:
    if args.budget < 0:
        print(f"error: --budget must not be negative: {args.budget}", file=sys.stderr)
        return EXIT_FAILURE
    text = _read_text(args.scenario)
    if text is None:
        return EXIT_FAILURE
    try:
        scenario = interp.parse_scenario(text, args.scenario)
    except interp.ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILURE

    def one(path):
        model, findings, code = _full_analysis(path, args)
        if model is None or any(d.code.startswith("WF") for d in findings):
            return code
        trace = interp.run(model, scenario, step_budget=args.budget or len(scenario.gestures) + 3)
        lines = _trace_lines(trace)
        if lines:
            lines.append("")  # the last line's newline
            sys.stdout.write("\n".join(lines))
        if trace.error:
            print(f"error: scenario failed: {trace.error}", file=sys.stderr)
            return EXIT_FAILURE
        return code

    return _per_file(args, one)


def _cmd_generate(args) -> int:
    def one(path):
        model = _load_model(path, args.format)
        if model is None:
            return EXIT_FAILURE
        units, findings = codegen.generate_all(model)  # no units while a finding is an error
        emit_diagnostics(findings, args.format)
        try:
            codegen.write_units(units, args.out)
        except OSError as e:
            return _cannot_write(e, args.out)
        return _result_code(findings, args.fail_on_warnings)

    return _per_file(args, one)


def _cmd_fmt(args) -> int:
    def one(path):
        model = _load_model(path, args.format)
        if model is None:
            return EXIT_FAILURE
        text = syntax.format_model(model)
        if args.write:
            try:
                with open(path, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
            except OSError as e:
                return _cannot_write(e, path)
        else:
            sys.stdout.write(text)
        return EXIT_CLEAN

    return _per_file(args, one)


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sbc", description="storyboard compiler and analyzer")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario=False, out=False, write=False):
        p.add_argument("inputs", nargs="+", metavar="FILE.sbd")
        p.add_argument("--format", choices=("human", "machine"), default="human")
        p.add_argument("--fail-on-warnings", action="store_true")
        if scenario:
            p.add_argument("--scenario", required=True, metavar="FILE.scn")
            p.add_argument("--budget", type=int, default=0, help="max steps (default: gestures + 3)")
        if out:
            p.add_argument("--out", "-o", required=True, metavar="DIR")
        if write:
            p.add_argument("--write", "-w", action="store_true", help="rewrite files in place")

    common(sub.add_parser("check", help="parse and validate"))
    common(sub.add_parser("analyze", help="validate, information flow, security rules"))
    common(sub.add_parser("simulate", help="run under a scripted scenario"), scenario=True)
    common(sub.add_parser("generate", help="emit the skeleton package"), out=True)
    common(sub.add_parser("fmt", help="canonical formatting"), write=True)
    return parser


_COMMANDS = {
    "check": _cmd_check,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "generate": _cmd_generate,
    "fmt": _cmd_fmt,
}


def run_cli(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_FAILURE if e.code not in (0, None) else EXIT_CLEAN
    return _COMMANDS[args.command](args)


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
