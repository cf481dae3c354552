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
from operator import attrgetter
from typing import Optional

from . import codegen, interp, rules, syntax
from .model import AppModel, Diagnostic, validate

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_FAILURE = 2


def _use_color(stream) -> bool:
    env = os.environ.get("SBC_COLOR")
    if env in ("0", "1"):
        return env == "1"
    return hasattr(stream, "isatty") and stream.isatty()


_COLORS = {"error": "\x1b[31m", "warning": "\x1b[33m"}


class _Names(dict):
    """Name -> its text, formatted on first use; one per run."""

    def __init__(self, fmt):
        super().__init__()
        self.fmt = fmt

    def __missing__(self, q):
        self[q] = text = self.fmt(q)
        return text


def _human_line(d: Diagnostic, place: tuple[str, int, int], names: _Names) -> str:
    """`SEVERITY CODE FILE:LINE:COL MESSAGE`, and the witness on a second line."""
    line = f"{d.severity} {d.code} {place[0]}:{place[1]}:{place[2]} {d.message}"
    if d.witness:
        line += "\n    flow: " + " -> ".join(map(names.__getitem__, d.witness))
    return line


def _machine_line(d: Diagnostic, place: tuple[str, int, int], names: _Names) -> str:
    """The finding as `json.dumps` writes its record, byte for byte."""
    return (
        f'{{"severity": {_json_str(d.severity)}, "code": {_json_str(d.code)}, '
        f'"file": {_json_str(place[0])}, "line": {place[1]}, "col": {place[2]}, '
        f'"message": {_json_str(d.message)}, "witness": [{", ".join(map(names.__getitem__, d.witness))}]}}'
    )


def emit_diagnostics(findings: list[Diagnostic], fmt: str) -> None:
    """Print the findings in one write, sorted by file, line and code; each distinct span is placed once."""
    places = {span: (span.file, span.line, span.column) for span in {d.span for d in findings}}
    file_lines = {span: place[:2] for span, place in places.items()}
    ordered = sorted(findings, key=attrgetter("code"))  # by code, then stably by file and line
    ordered.sort(key=lambda d: file_lines[d.span])
    if fmt == "machine":
        names = _Names(lambda q: _json_str(str(q)))
        lines = [_machine_line(d, places[d.span], names) for d in ordered]
    else:
        names = _Names(str)
        lines = [_human_line(d, places[d.span], names) for d in ordered]
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


def _report(findings: list[Diagnostic], args) -> int:
    """Print the findings; the exit code they give."""
    emit_diagnostics(findings, args.format)
    if any(d.severity == "error" for d in findings) or (args.fail_on_warnings and findings):
        return EXIT_FINDINGS
    return EXIT_CLEAN


def _per_file(args, command) -> int:
    """Load each input and run command(model) on it; worst exit code wins."""
    worst = EXIT_CLEAN
    for path in args.inputs:
        model = _load_model(path, args.format)
        worst = max(worst, EXIT_FAILURE if model is None else command(model))
    return worst


def _cmd_check(args) -> int:
    return _per_file(args, lambda model: _report(validate(model), args))


def _cmd_analyze(args) -> int:
    return _per_file(args, lambda model: _report(rules.findings(model), args))


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

    def one(model):
        findings = rules.findings(model)
        code = _report(findings, args)
        if any(d.code.startswith("WF") for d in findings):
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
    def one(model):
        units, findings = codegen.generate_all(model)  # no units while a finding is an error
        code = _report(findings, args)
        try:
            codegen.write_units(units, args.out)
        except OSError as e:
            return _cannot_write(e, args.out)
        return code

    return _per_file(args, one)


def _cmd_fmt(args) -> int:
    def one(model):
        text = syntax.format_model(model)
        if args.write:
            path = model.span.file  # the input's path, as the parser recorded it
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
