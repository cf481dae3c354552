"""Design-time security rule checks.

Codes:
  RC001 (error)   privileged capability on a resource open to all apps
  RC002 (error)   WebView without a nonempty trust-patterns whitelist
  RC003 (warning) certificate pinning disabled on an https capability
  RC004 (warning) certificate pinning disabled on an ssl-socket capability
  RC005 (error)   cipher keyed by anything but a keystore-backed operation
  RC006 (warning) plaintext HTTP capability in use

Pinning is on by default: absence of disableCertPin means pinned.

`findings` is the one analysis pass every command shares: well-formedness,
then information flow, then these rules.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import infoflow
from .model import (
    Access,
    AppModel,
    Diagnostic,
    OperationUse,
    Severity,
    WidgetKind,
    builtin_cap,
    iter_operation_uses,
    validate,
)


@dataclass(frozen=True)
class RuleReport:
    findings: tuple[Diagnostic, ...]
    blocking: bool


def check_access_control(model: AppModel) -> list[Diagnostic]:
    out = []
    for r in model.resources:
        if r.access is Access.ALL and any(c.priv for c in r.capabilities):
            out.append(
                Diagnostic(
                    Severity.ERROR,
                    "RC001",
                    f"resource '{r.name}' exposes privileged capabilities with access 'all'; "
                    "restrict access to 'user' or 'own'",
                    r.span,
                )
            )
    return out


def check_webview_whitelist(model: AppModel) -> list[Diagnostic]:
    out = []
    for s in model.screens:
        for w in s.widgets:
            if w.kind is not WidgetKind.WEB_VIEW:
                continue
            patterns = w.attr("trust-patterns")
            if not patterns:
                out.append(
                    Diagnostic(
                        Severity.ERROR,
                        "RC002",
                        f"WebView '{w.id}' in screen '{s.name}' has no trust-patterns whitelist",
                        w.span,
                    )
                )
    return out


def check_cert_pinning(model: AppModel) -> list[Diagnostic]:
    out = []
    for _, op in iter_operation_uses(model):
        cap = builtin_cap(op.capability)
        if cap is None or op.attr("disableCertPin") is not True:
            continue
        if "https" in cap.tags:
            out.append(
                Diagnostic(
                    Severity.WARNING,
                    "RC003",
                    f"operation '{op.name}' disables certificate pinning on an https capability",
                    op.span,
                )
            )
        elif "ssl-socket" in cap.tags:
            out.append(
                Diagnostic(
                    Severity.WARNING,
                    "RC004",
                    f"operation '{op.name}' disables certificate pinning on an ssl socket",
                    op.span,
                )
            )
    return out


def _keystore_backed(value) -> bool:
    if not isinstance(value, OperationUse):
        return False
    cap = builtin_cap(value.capability)
    return cap is not None and "keystore" in cap.tags


def check_cipher_keys(model: AppModel) -> list[Diagnostic]:
    # convention: the key is the first argument of a cipher operation
    out = []
    for _, op in iter_operation_uses(model):
        cap = builtin_cap(op.capability)
        if cap is None or "cipher" not in cap.tags:
            continue
        if not op.args or not _keystore_backed(op.args[0].value):
            out.append(
                Diagnostic(
                    Severity.ERROR,
                    "RC005",
                    f"cipher operation '{op.name}' must take its key from a keystore-backed operation",
                    op.span,
                )
            )
    return out


def check_http_use(model: AppModel) -> list[Diagnostic]:
    out = []
    for _, op in iter_operation_uses(model):
        if op.capability is not None and op.capability[0] == "HTTP":
            out.append(
                Diagnostic(
                    Severity.WARNING,
                    "RC006",
                    f"operation '{op.name}' uses plaintext HTTP; prefer an HTTPS capability",
                    op.span,
                )
            )
    return out


_CHECKS = (
    check_access_control,
    check_webview_whitelist,
    check_cert_pinning,
    check_cipher_keys,
    check_http_use,
)


def check_all(model: AppModel) -> RuleReport:
    findings: list[Diagnostic] = []
    for check in _CHECKS:
        findings.extend(check(model))
    return RuleReport(tuple(findings), any(f.severity is Severity.ERROR for f in findings))


def findings(model: AppModel) -> list[Diagnostic]:
    """The WF errors if there are any, else the IF findings, then the RC ones."""
    wf = validate(model)
    if wf:
        return wf
    return infoflow.flow_diagnostics(model) + list(check_all(model).findings)
