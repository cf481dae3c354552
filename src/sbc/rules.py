"""Design-time security rule checks.

Codes:
  RC001 (error)   privileged capability on a resource open to all apps
  RC002 (error)   WebView without a nonempty trust-patterns whitelist
  RC003 (warning) certificate pinning disabled on an https capability
  RC004 (warning) certificate pinning disabled on an ssl-socket capability
  RC005 (error)   cipher keyed by anything but a keystore-backed operation
  RC006 (warning) plaintext HTTP capability in use

Pinning is on by default: absence of disableCertPin means pinned.

RC001 and RC002 read the resources and the widgets; RC003 to RC006 are
per-operation rules over `AppModel.operations`, each returning a finding or
None.  `findings` is the one analysis pass every command shares:
well-formedness, then information flow, then these rules.
"""

from __future__ import annotations

from typing import Optional

from . import infoflow
from .model import (
    Access,
    AppModel,
    Diagnostic,
    OperationUse,
    WidgetKind,
    builtin_cap,
    validate,
)


def check_access_control(model: AppModel) -> list[Diagnostic]:
    out = []
    for r in model.resources:
        if r.access is Access.ALL and any(c.priv for c in r.capabilities):
            out.append(Diagnostic("RC001", f"resource '{r.name}' exposes privileged capabilities with access 'all'; "
                                           "restrict access to 'user' or 'own'", r.span))
    return out


def check_webview_whitelist(model: AppModel) -> list[Diagnostic]:
    out = []
    for s in model.screens:
        for w in s.widgets:
            if w.kind is not WidgetKind.WEB_VIEW:
                continue
            patterns = w.attr("trust-patterns")
            if not patterns:
                out.append(Diagnostic("RC002", f"WebView '{w.id}' in screen '{s.name}' has no trust-patterns whitelist",
                                      w.span))
    return out


def _cert_pinning(op: OperationUse) -> Optional[Diagnostic]:
    cap = builtin_cap(op.capability)
    if cap is None or op.attr("disableCertPin") is not True:
        return None
    if "https" in cap.tags:
        return Diagnostic("RC003", f"operation '{op.name}' disables certificate pinning on an https capability", op.span)
    if "ssl-socket" in cap.tags:
        return Diagnostic("RC004", f"operation '{op.name}' disables certificate pinning on an ssl socket", op.span)
    return None


def _keystore_backed(value) -> bool:
    if not isinstance(value, OperationUse):
        return False
    cap = builtin_cap(value.capability)
    return cap is not None and "keystore" in cap.tags


def _cipher_key(op: OperationUse) -> Optional[Diagnostic]:
    # convention: the key is the first argument of a cipher operation
    cap = builtin_cap(op.capability)
    if cap is None or "cipher" not in cap.tags:
        return None
    if op.args and _keystore_backed(op.args[0].value):
        return None
    return Diagnostic("RC005", f"cipher operation '{op.name}' must take its key from a keystore-backed operation", op.span)


def _http_use(op: OperationUse) -> Optional[Diagnostic]:
    if op.capability is None or op.capability[0] != "HTTP":
        return None
    return Diagnostic("RC006", f"operation '{op.name}' uses plaintext HTTP; prefer an HTTPS capability", op.span)


def check_all(model: AppModel) -> list[Diagnostic]:
    """The five checks' findings, concatenated in the order above."""
    findings = check_access_control(model) + check_webview_whitelist(model)
    for rule in (_cert_pinning, _cipher_key, _http_use):
        findings += filter(None, (rule(op) for _, op in model.operations))
    return findings


def findings(model: AppModel) -> list[Diagnostic]:
    """The WF errors if there are any, else the IF findings, then the RC ones."""
    wf = validate(model)
    if wf:
        return wf
    return infoflow.flow_diagnostics(model) + check_all(model)
