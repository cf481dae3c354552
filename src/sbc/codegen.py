"""Skeleton code generation.

Translates a verified storyboard into a target-neutral skeleton package:
one controller unit per screen, one endpoint unit per custom resource, an
operations stub with inferred signatures, and a dependency manifest.

Generation is gated on `rules.findings`, the same pass the CLI reports: it
refuses to run while the model has any error, whether a well-formedness
error, an information-flow violation or a rule error (warnings do not
block).  Output is byte-identical across invocations for the same model.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from . import rules
from .model import (
    Access,
    AppModel,
    Diagnostic,
    OperationUse,
    ParamRef,
    Resource,
    Screen,
    Severity,
    WidgetKind,
    boolean_position_ops,
    builtin_cap,
)
from .syntax import _fmt_bool, _fmt_value, _quote

HOOK = "## HOOK"  # sentinel marking developer-completion points

_TEXT_WIDGETS = (WidgetKind.TEXT_VIEW, WidgetKind.EDIT_TEXT, WidgetKind.WEB_VIEW)


class ValueType(Enum):
    TEXT = "text"
    BOOLEAN = "boolean"
    OPAQUE = "opaque"


class BodyKind(Enum):
    FROM_CAPABILITY = "generated-from-capability"
    EMPTY_HOOK = "empty-hook"


@dataclass(frozen=True)
class OpSignature:
    name: str
    param_types: tuple[ValueType, ...]
    return_type: ValueType
    capability: Optional[tuple[str, str]]
    body: BodyKind


@dataclass(frozen=True)
class GeneratedUnit:
    path: str
    contents: str


@dataclass(frozen=True)
class Manifest:
    app_id: str
    resources: tuple[tuple[str, Access], ...]
    dependencies: tuple[str, ...]  # builtin resources in use
    exported_uris: tuple[str, ...]

    def render(self) -> str:
        lines = [f"app {_quote(self.app_id)}", ""]
        lines.append("resources:")
        for name, access in self.resources:
            lines.append(f"  {name} access={access.value}")
        lines.append("dependencies:")
        for dep in self.dependencies:
            lines.append(f"  builtin {dep}")
        lines.append("exported-uris:")
        for uri in self.exported_uris:
            lines.append(f"  {uri}")
        return "\n".join(lines) + "\n"


class GenerationBlocked(Exception):
    """Carries every finding of the model, the blocking errors among them."""

    def __init__(self, findings: list[Diagnostic]):
        errors = sum(d.severity is Severity.ERROR for d in findings)
        super().__init__(f"{errors} blocking finding(s); fix them before generating code")
        self.findings = findings


# ---------------------------------------------------------------------------
# Signature inference


def infer_signatures(model: AppModel) -> dict[str, OpSignature]:
    bool_ops = boolean_position_ops(model)

    # first pass: which ops and (screen, param) pairs a text-displaying widget
    # shows, then which ops are bound to a displayed param
    text_ops: set[str] = set()
    displayed: set[tuple[str, str]] = set()
    for s in model.screens:
        for w in s.widgets:
            if w.kind in _TEXT_WIDGETS and isinstance(w.value, OperationUse):
                text_ops.add(w.value.name)
            elif w.kind in _TEXT_WIDGETS and isinstance(w.value, ParamRef):
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

    sigs: dict[str, OpSignature] = {}
    for op in model.operations:
        if op.name in sigs:
            continue
        ptypes = []
        for a in op.args:
            v = a.value
            if isinstance(v, OperationUse):
                ptypes.append(return_type(v.name))
            elif isinstance(v, ParamRef):  # validate keeps a parameter's name apart from a widget's
                ptypes.append(ValueType.OPAQUE)
            else:
                ptypes.append(ValueType.TEXT)  # a literal, or a widget's text
        body = BodyKind.FROM_CAPABILITY if builtin_cap(op.capability) else BodyKind.EMPTY_HOOK
        sigs[op.name] = OpSignature(op.name, tuple(ptypes), return_type(op.name), op.capability, body)
    return dict(sorted(sigs.items()))


# ---------------------------------------------------------------------------
# Units


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
            if model.proxy(t.dest) is not None:
                p = model.proxy(t.dest)
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

    while lines and lines[-1] == "":
        lines.pop()
    return GeneratedUnit(f"screens/{screen.name}.ctrl", "\n".join(lines) + "\n")


def generate_resource_unit(model: AppModel, resource: Resource) -> GeneratedUnit:
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
    while lines and lines[-1] == "":
        lines.pop()
    return GeneratedUnit(f"resources/{resource.name}.res", "\n".join(lines) + "\n")


def _ops_stub(model: AppModel) -> GeneratedUnit:
    sigs = infer_signatures(model)
    lines = ["operations"]
    lines.append("")
    for name, sig in sigs.items():
        params = ", ".join(t.value for t in sig.param_types)
        lines.append(f"fun {name}({params}) -> {sig.return_type.value}")
        if sig.capability is not None:
            lines.append(f"  uses {sig.capability[0]}.{sig.capability[1]}")
        if sig.body is BodyKind.FROM_CAPABILITY:
            cap = builtin_cap(sig.capability)
            if "https" in cap.tags or "ssl-socket" in cap.tags:
                lines.append("  # TLS channel with certificate pinning against the bundled pin set")
            if "cipher" in cap.tags:
                lines.append("  # cipher stub uses a freshly drawn random IV per invocation")
            lines.append(f"  # body generated from {sig.capability[0]}.{sig.capability[1]}")
        else:
            lines.append(f"{HOOK} {name}")
        lines.append("")
    while lines and lines[-1] == "":
        lines.pop()
    return GeneratedUnit("ops.stub", "\n".join(lines) + "\n")


def build_manifest(model: AppModel) -> Manifest:
    deps = sorted({op.capability[0] for op in model.operations if builtin_cap(op.capability) is not None})
    uris = []
    for s in model.screens:
        for u in s.uris:
            uris.append(u.render())
    return Manifest(
        model.app_id,
        tuple((r.name, r.access) for r in model.resources),
        tuple(deps),
        tuple(sorted(uris)),
    )


def generate_all(model: AppModel) -> tuple[list[GeneratedUnit], list[Diagnostic]]:
    """The units and the model's (non-blocking) findings."""
    findings = rules.findings(model)
    if any(d.severity is Severity.ERROR for d in findings):
        raise GenerationBlocked(findings)

    units = [GeneratedUnit("manifest.txt", build_manifest(model).render())]
    for s in model.screens:
        units.append(generate_screen_unit(model, s))
    for r in model.resources:
        units.append(generate_resource_unit(model, r))
    units.append(_ops_stub(model))
    return units, findings


def write_units(units: list[GeneratedUnit], out_dir) -> None:
    import os

    for u in units:
        path = os.path.join(out_dir, u.path)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(u.contents)
