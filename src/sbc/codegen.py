"""Skeleton code generation.

Translates a verified storyboard into a target-neutral skeleton package:
one controller unit per screen, one endpoint unit per custom resource, an
operations stub with inferred signatures, and a dependency manifest.

Generation is gated on `rules.findings`, the same pass the CLI reports: it
returns no units while the model has any error, whether a well-formedness
error, an information-flow violation or a rule error (warnings do not
block).  A model that passes always yields at least `manifest.txt` and
`ops.stub`.  Output is byte-identical across invocations for the same model.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional

from . import rules
from .model import (
    Access,
    AppModel,
    Diagnostic,
    OperationUse,
    Ref,
    Resource,
    Screen,
    WidgetKind,
    builtin_cap,
)
from .syntax import _fmt_bool, _fmt_value, _quote

HOOK = "## HOOK"  # sentinel marking developer-completion points

_TEXT_WIDGETS = (WidgetKind.TEXT_VIEW, WidgetKind.EDIT_TEXT, WidgetKind.WEB_VIEW)


class ValueType(Enum):
    TEXT = "text"
    BOOLEAN = "boolean"
    OPAQUE = "opaque"


class OpSignature(NamedTuple):  # keyed by its operation's name
    param_types: tuple[ValueType, ...]
    return_type: ValueType
    capability: Optional[tuple[str, str]]


class GeneratedUnit(NamedTuple):
    path: str
    contents: str


# ---------------------------------------------------------------------------
# Signature inference


def infer_signatures(model: AppModel) -> dict[str, OpSignature]:
    bool_ops = {v.name for _, t, holder, _, v in model.positions if holder is t}  # guard terms

    # first pass: which ops and (screen, param) pairs a text-displaying widget
    # shows, then which ops are bound to a displayed param
    text_ops: set[str] = set()
    displayed: set[tuple[str, str]] = set()
    for s in model.screens:
        for w in s.widgets:
            if w.kind in _TEXT_WIDGETS and isinstance(w.value, OperationUse):
                text_ops.add(w.value.name)
            elif w.kind in _TEXT_WIDGETS and isinstance(w.value, Ref):
                displayed.add((s.name, w.value.name))
    for s in model.screens:
        for t in s.transitions:
            for b in t.bindings:
                if isinstance(b.value, OperationUse) and (t.dest, b.target) in displayed:
                    text_ops.add(b.value.name)

    def return_type(name: str) -> ValueType:
        if name in bool_ops:
            return ValueType.BOOLEAN
        if name in text_ops:
            return ValueType.TEXT
        return ValueType.OPAQUE

    def arg_type(screen: Screen, v) -> ValueType:
        if isinstance(v, OperationUse):
            return return_type(v.name)
        if isinstance(v, Ref) and v.name in screen.all_params:
            return ValueType.OPAQUE
        return ValueType.TEXT  # a literal, or a widget's text

    # an argument is typed from every use of its operation: opaque where they disagree
    params: dict[str, tuple[ValueType, ...]] = {}
    # the capability that any use names: validation rules out two, but not a use that names none
    caps: dict[str, tuple[str, str]] = {}
    for s, op in model.operations:
        ptypes = tuple(arg_type(s, a.value) for a in op.args)
        seen = params.get(op.name, ptypes)
        params[op.name] = tuple(t if t is u else ValueType.OPAQUE for t, u in zip(seen, ptypes))
        if op.capability is not None:
            caps[op.name] = op.capability
    return {name: OpSignature(params[name], return_type(name), caps.get(name)) for name in sorted(params)}


# ---------------------------------------------------------------------------
# Units


def _unit(path: str, lines: list[str]) -> GeneratedUnit:
    """The unit at path whose text is the lines, trailing blank ones dropped."""
    while lines and lines[-1] == "":
        lines.pop()
    return GeneratedUnit(path, "\n".join(lines) + "\n")


def generate_screen_unit(model: AppModel, screen: Screen) -> GeneratedUnit:
    lines: list[str] = [f"controller {screen.name}"]
    for u in screen.uris:
        lines.append(f"accepts uri {_quote(u.render())}")
    lines.append("")

    for p in screen.all_params:
        lines.append(f"param {p}")
        lines.append(f"  # get_{p}() faults at runtime if the caller supplied no value")
    if screen.all_params:
        lines.append("")

    for w in screen.widgets:
        lines.append(f"widget {w.kind.value} {w.id} = {_fmt_value(w.value)}")
        patterns = w.attr("trust-patterns")
        if w.kind is WidgetKind.WEB_VIEW and patterns:
            joined = ", ".join(_quote(p) for p in patterns)
            lines.append(f"  # loads only URLs matching: {joined}")
    if screen.widgets:
        lines.append("")

    by_action: dict[Optional[tuple], list] = {}
    for t in screen.ordered_transitions:
        by_action.setdefault(t.user_action, []).append(t)

    def emit_chain(transitions):
        for t in transitions:
            guard = _fmt_bool(t.guard) if t.guard is not None else "true"
            p = model.proxy(t.dest)
            if p is not None:
                target = f"dispatch-external {t.dest} uri {_quote(p.uri.render())}"
                if p.app_id is not None:
                    target += f" app {_quote(p.app_id)}"
            else:
                target = f"goto {t.dest}"
            line = f"  {t.order}: transition {t.id} if {guard} -> {target}"
            if t.bindings:
                binds = ", ".join(f"{b.target} = {_fmt_value(b.value)}" for b in t.bindings)
                line += f" with ({binds})"
            lines.append(line)

    load_chain = by_action.pop(None, None)
    if load_chain:
        lines.append("on load:")
        emit_chain(load_chain)
        lines.append("")
    for action in sorted(by_action, key=lambda a: (a[0], a[1].value)):
        wid, gesture = action
        lines.append(f"on {gesture.value} {wid}:")
        emit_chain(by_action[action])
        lines.append("")
    return _unit(f"screens/{screen.name}.ctrl", lines)


def generate_resource_unit(resource: Resource) -> GeneratedUnit:
    lines = [f"endpoint {resource.name} access={resource.access.value}"]
    if resource.access is Access.OWN:
        lines.append("# callers must share this app's signing identity")
    elif resource.access is Access.USER:
        lines.append("# access mediated by a user permission prompt")
    lines.append("")
    for c in resource.capabilities:
        flag = " privileged" if c.priv else ""
        lines.append(f"capability {c.name}{flag}")
        lines.append(f"{HOOK} {resource.name}.{c.name}")
        lines.append("")
    return _unit(f"resources/{resource.name}.res", lines)


def _ops_stub(model: AppModel) -> GeneratedUnit:
    sigs = infer_signatures(model)
    lines = ["operations"]
    lines.append("")
    for name, sig in sigs.items():
        params = ", ".join(t.value for t in sig.param_types)
        lines.append(f"fun {name}({params}) -> {sig.return_type.value}")
        if sig.capability is not None:
            lines.append(f"  uses {sig.capability[0]}.{sig.capability[1]}")
        cap = builtin_cap(sig.capability)
        if cap is not None:
            if "https" in cap.tags or "ssl-socket" in cap.tags:
                lines.append("  # TLS channel with certificate pinning against the bundled pin set")
            if "cipher" in cap.tags:
                lines.append("  # cipher stub uses a freshly drawn random IV per invocation")
            lines.append(f"  # body generated from {sig.capability[0]}.{sig.capability[1]}")
        else:
            lines.append(f"{HOOK} {name}")
        lines.append("")
    return _unit("ops.stub", lines)


def _manifest(model: AppModel) -> GeneratedUnit:
    lines = [f"app {_quote(model.app_id)}", "", "resources:"]
    lines += [f"  {r.name} access={r.access.value}" for r in model.resources]
    lines.append("dependencies:")
    deps = {op.capability[0] for _, op in model.operations if builtin_cap(op.capability) is not None}
    lines += [f"  builtin {dep}" for dep in sorted(deps)]
    lines.append("exported-uris:")
    lines += [f"  {uri}" for uri in sorted(u.render() for s in model.screens for u in s.uris)]
    return _unit("manifest.txt", lines)


def generate_all(model: AppModel) -> tuple[list[GeneratedUnit], list[Diagnostic]]:
    """The units, none while a finding is an error, and the model's findings."""
    findings = rules.findings(model)
    if any(d.severity == "error" for d in findings):
        return [], findings

    units = [_manifest(model)]
    for s in model.screens:
        units.append(generate_screen_unit(model, s))
    for r in model.resources:
        units.append(generate_resource_unit(r))
    units.append(_ops_stub(model))
    return units, findings


def write_units(units: list[GeneratedUnit], out_dir) -> None:
    import os

    for u in units:
        path = os.path.join(out_dir, u.path)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(u.contents)
