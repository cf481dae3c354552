"""Storyboard domain model: typed AST, builtin resource catalog, well-formedness.

The types here are `typing.NamedTuple` records, immutable because tuples are,
and so safe to share between threads; `record` makes each a value type.  A
`SourceSpan` reads its place through a `syntax.Source`, whose lazy fill is idempotent.
`AppModel` keeps, each built once on first use, its declarations by name and
its value positions (`sites`), which validation, the flow analysis, the rules
and code generation all read.  Validation is pure: the same model always
yields the same diagnostic list, in the same order.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple, Optional, Union

# Distinguished owner for operation names: operations are globally scoped,
# so every use of the same name qualifies to the same id.
OPERATION = "<op>"


def record(cls):
    """Make a NamedTuple class a value type: a record equals only a record of its
    own type, and its `span`, if any, takes no part in == or hash.  Set after the
    class is built, so that a class without a span keeps `tuple.__hash__`."""
    key = itemgetter(*(i for i, f in enumerate(cls._fields) if f != "span"))
    if "span" in cls._fields:
        cls.__hash__ = lambda a: hash(key(a))
    cls.__eq__ = lambda a, b: type(a) is type(b) and key(a) == key(b)
    cls.__ne__ = lambda a, b: not a == b  # tuple.__ne__ would compare across types
    return cls


@record
class SourceSpan(NamedTuple):
    source: "Source"  # syntax.Source
    index: int
    length: int

    file = property(lambda self: self.source.file)
    line = property(lambda self: self.source.position(self.index)[1])  # 1-based
    column = property(lambda self: self.source.position(self.index)[2])  # 1-based


class QualifiedId(NamedTuple):
    """A tuple, so that hashing and comparing ids, which the flow analysis and
    the interpreter do for every lookup, run in C; ids order as (base, owner)."""

    base: str
    owner: str  # screen/proxy name, or OPERATION for operation names

    def __str__(self) -> str:
        if self.owner == OPERATION:
            return self.base
        return f"{self.base}@{self.owner}"


def qualify(ident: str, owner: str) -> QualifiedId:
    """Qualify an identifier by its owning screen (or OPERATION)."""
    if not ident:
        raise ValueError("empty identifier")
    return QualifiedId(ident, owner)


# The codes whose findings are warnings; every other code is an error.
WARNINGS = frozenset({"IF003", "RC003", "RC004", "RC006"})


@record
class Diagnostic(NamedTuple):
    code: str
    message: str
    span: Optional[SourceSpan]  # None only in a model built by hand
    witness: tuple[QualifiedId, ...] = ()

    @property
    def severity(self) -> str:
        return "warning" if self.code in WARNINGS else "error"


# ---------------------------------------------------------------------------
# Value bindings


@record
class Literal(NamedTuple):
    text: str


@record
class Ref(NamedTuple):
    """A name that a value uses.  Widgets and parameters share a screen's
    namespace, so a name is a parameter of the screen that uses it if it is
    in `screen.all_params`, and otherwise a widget of that screen (validate
    reports a name that is neither)."""

    name: str


def _attr(node, name: str):
    """The value of a widget's or an operation use's attribute, or None."""
    for k, v in node.attributes:
        if k == name:
            return v
    return None


@record
class Arg(NamedTuple):
    safe: bool
    value: "ValueBinding"


@record
class OperationUse(NamedTuple):
    name: str
    capability: Optional[tuple[str, str]]  # (resource, capability)
    args: tuple[Arg, ...] = ()
    attributes: tuple[tuple[str, object], ...] = ()
    span: Optional[SourceSpan] = None

    attr = _attr


ValueBinding = Union[Literal, Ref, OperationUse]


# ---------------------------------------------------------------------------
# Boolean expressions


@record
class BConst(NamedTuple):
    value: bool


@record
class BOp(NamedTuple):
    op: OperationUse


@record
class BAnd(NamedTuple):
    left: "BoolExpr"
    right: "BoolExpr"


@record
class BOr(NamedTuple):
    left: "BoolExpr"
    right: "BoolExpr"


@record
class BNot(NamedTuple):
    inner: "BoolExpr"


BoolExpr = Union[BConst, BOp, BAnd, BOr, BNot]


# ---------------------------------------------------------------------------
# Structure


class WidgetKind(Enum):
    TEXT_VIEW = "TextView"
    EDIT_TEXT = "EditText"
    BUTTON = "Button"
    WEB_VIEW = "WebView"


# The attributes of a widget rather than of its value, legal on WebView widgets only.
WIDGET_ATTRS = ("trust-patterns", "allowJS")


class Gesture(Enum):
    CLICK = "click"
    SWIPE = "swipe"
    DRAG = "drag"


class Access(Enum):
    ALL = "all"
    USER = "user"
    OWN = "own"


@record
class Uri(NamedTuple):
    base: str
    params: tuple[str, ...] = ()

    def render(self) -> str:
        out = self.base
        for p in self.params:
            out += "/{" + p + "}"
        return out


_URI_SEG = re.compile(r"/\{([A-Za-z_][A-Za-z0-9_]*)\}")


def parse_uri(text: str) -> Uri:
    """Split a URI string into its base and embraced parameter segments."""
    params = tuple(_URI_SEG.findall(text))
    base = _URI_SEG.sub("", text)
    return Uri(base, params)


@record
class Widget(NamedTuple):
    kind: WidgetKind
    id: str
    value: ValueBinding
    safe: bool = False
    attributes: tuple[tuple[str, object], ...] = ()
    span: Optional[SourceSpan] = None

    attr = _attr


@record
class ParamBinding(NamedTuple):
    target: str
    safe: bool
    value: ValueBinding
    span: Optional[SourceSpan] = None


@record
class Transition(NamedTuple):
    id: str
    order: int
    dest: str
    user_action: Optional[tuple[str, Gesture]] = None
    guard: Optional[BoolExpr] = None
    bindings: tuple[ParamBinding, ...] = ()
    span: Optional[SourceSpan] = None


@record
class Screen(NamedTuple):
    name: str
    uris: tuple[Uri, ...] = ()
    params: tuple[str, ...] = ()  # declared `param` names
    widgets: tuple[Widget, ...] = ()
    transitions: tuple[Transition, ...] = ()
    span: Optional[SourceSpan] = None

    @property
    def uri_params(self) -> tuple[str, ...]:
        return self.uris[0].params if self.uris else ()

    @property
    def all_params(self) -> tuple[str, ...]:
        # URI parameters serve as screen parameters; declared ones first.
        extra = tuple(p for p in self.uri_params if p not in self.params)
        return self.params + extra

    @property
    def ordered_transitions(self) -> tuple[Transition, ...]:
        """The transitions sorted by order index, the order they are tried in;
        each of its readers reads it once per screen."""
        return tuple(sorted(self.transitions, key=lambda t: t.order))


@record
class ProxyScreen(NamedTuple):
    name: str
    uri: Uri
    app_id: Optional[str] = None
    safe: bool = False
    span: Optional[SourceSpan] = None


@record
class Capability(NamedTuple):
    name: str
    priv: bool = False


@record
class Resource(NamedTuple):
    name: str
    access: Access
    capabilities: tuple[Capability, ...]
    span: Optional[SourceSpan] = None


class _AppModel(NamedTuple):
    app_id: str
    screens: tuple[Screen, ...] = ()
    proxies: tuple[ProxyScreen, ...] = ()
    resources: tuple[Resource, ...] = ()
    start: Optional[str] = None  # the screen marked `start`, else the first; None without screens
    span: Optional[SourceSpan] = None


@record
class AppModel(_AppModel):  # a subclass, for its cached properties' __dict__
    @cached_property
    def _by_name(self) -> tuple[dict, dict, dict]:
        # screens, proxies and resources by name; the first declaration wins
        return tuple({d.name: d for d in reversed(decls)} for decls in (self.screens, self.proxies, self.resources))

    def screen(self, name: str) -> Optional[Screen]:
        return self._by_name[0].get(name)

    def proxy(self, name: str) -> Optional[ProxyScreen]:
        return self._by_name[1].get(name)

    def resource(self, name: str) -> Optional[Resource]:
        return self._by_name[2].get(name)

    @cached_property
    def positions(self) -> tuple[tuple, ...]:
        """What `sites` yields, from the one walk that every reader shares."""
        return tuple(sites(self))

    @cached_property
    def operations(self) -> tuple[tuple[Screen, OperationUse], ...]:
        """Every operation use with the screen that holds it, in declaration
        order, those nested in arguments and guards included."""
        return tuple((s, v) for s, _, _, _, v in self.positions if isinstance(v, OperationUse))


# ---------------------------------------------------------------------------
# Builtin resource catalog

class Trust(Enum):
    TRUSTED = "trusted"
    UNTRUSTED = "untrusted"
    NONE = "none"


@record
class BuiltinCap(NamedTuple):
    resource: str
    capability: str
    source_trust: Trust
    sink_trust: Trust
    tags: frozenset[str] = frozenset()


def _cap(r, c, src, snk, *tags):
    return ((r, c), BuiltinCap(r, c, src, snk, frozenset(tags)))


_T, _U, _N = Trust.TRUSTED, Trust.UNTRUSTED, Trust.NONE

BUILTIN_CATALOG: dict[tuple[str, str], BuiltinCap] = dict([
    _cap("INT_STORE", "read", _T, _T),
    _cap("INT_STORE", "write", _T, _T),
    _cap("EXT_STORE", "read", _U, _U),
    _cap("EXT_STORE", "write", _U, _U),
    _cap("HTTP", "get", _U, _U),
    _cap("HTTP", "post", _U, _U),
    _cap("HTTPS", "get", _T, _T, "https"),
    _cap("HTTPS", "post", _T, _T, "https"),
    _cap("SOCKET", "read", _U, _U),
    _cap("SOCKET", "write", _U, _U),
    _cap("SSL_SOCKET", "read", _T, _T, "ssl-socket"),
    _cap("SSL_SOCKET", "write", _T, _T, "ssl-socket"),
    _cap("CLIPBOARD", "read", _U, _U),
    _cap("CLIPBOARD", "write", _U, _U),
    _cap("KEYSTORE", "getKey", _T, _N, "keystore"),
    _cap("CRYPTO", "encrypt", _N, _N, "cipher"),
    _cap("CRYPTO", "decrypt", _N, _N, "cipher"),
])

BUILTIN_RESOURCES = frozenset(r for r, _ in BUILTIN_CATALOG)


builtin_cap = BUILTIN_CATALOG.get  # a capability's catalog entry; None for None or a non-builtin one


# ---------------------------------------------------------------------------
# Value positions


def sites(model: AppModel):
    """Yield (screen, transition, holder, safe, value) for every value position,
    in declaration order, each before the positions nested in its value.

    `holder` is the Widget or ParamBinding whose value it is, the OperationUse
    whose argument it is, or the Transition whose guard holds it as a term (then
    `holder is transition` and `safe` is False).  `transition` is None inside a
    widget.  The parser bounds every expression's size, so the recursion is
    shallow.  The readers read `AppModel.positions`, which keeps one walk.
    """
    for s in model.screens:
        for w in s.widgets:
            yield s, None, w, w.safe, w.value
            if isinstance(w.value, OperationUse):
                yield from _arg_sites(s, None, w.value)
        for t in s.transitions:
            if t.guard is not None:
                yield from _guard_sites(s, t, t.guard)
            for b in t.bindings:
                yield s, t, b, b.safe, b.value
                if isinstance(b.value, OperationUse):
                    yield from _arg_sites(s, t, b.value)


def _arg_sites(s, t, op):
    for a in op.args:
        yield s, t, op, a.safe, a.value
        if isinstance(a.value, OperationUse):
            yield from _arg_sites(s, t, a.value)


def _guard_sites(s, t, b):
    if isinstance(b, BOp):
        yield s, t, t, False, b.op
        yield from _arg_sites(s, t, b.op)
    elif isinstance(b, (BAnd, BOr)):
        yield from _guard_sites(s, t, b.left)
        yield from _guard_sites(s, t, b.right)
    elif isinstance(b, BNot):
        yield from _guard_sites(s, t, b.inner)


# ---------------------------------------------------------------------------
# Well-formedness


def validate(model: AppModel) -> list[Diagnostic]:
    """Check every structural well-formedness constraint; returns all findings."""
    out: list[Diagnostic] = []

    # name clashes across screens and proxies
    seen: dict[str, SourceSpan] = {}
    for s in list(model.screens) + list(model.proxies):
        if s.name in seen:
            out.append(Diagnostic("WF001", f"duplicate screen name '{s.name}'", s.span))
        else:
            seen[s.name] = s.span

    if not model.app_id:
        out.append(Diagnostic("WF001", "app id must be a nonempty string", model.span))

    if not model.screens:
        out.append(Diagnostic("WF008", "storyboard declares no screens", model.span))

    # resources
    rseen = set()
    for r in model.resources:
        if r.name in rseen:
            out.append(Diagnostic("WF001", f"duplicate resource name '{r.name}'", r.span))
        rseen.add(r.name)
        if not r.capabilities:
            out.append(Diagnostic("WF007", f"resource '{r.name}' declares no capabilities", r.span))
        cseen = set()
        for c in r.capabilities:
            if c.name in cseen:
                out.append(Diagnostic("WF001", f"duplicate capability '{c.name}' in resource '{r.name}'", r.span))
            cseen.add(c.name)

    # URI uniqueness across the app (bases, parameters stripped)
    bases: dict[str, str] = {}
    for s in list(model.screens) + list(model.proxies):
        uris = s.uris if isinstance(s, Screen) else (s.uri,)
        for u in uris:
            if u.base in bases:
                out.append(Diagnostic("WF004", f"URI '{u.base}' already used by screen '{bases[u.base]}'", s.span))
            else:
                bases[u.base] = s.name

    # One pass over the value positions gathers the names of the operations
    # used as guard terms and as values, and the unknown names, which
    # `_validate_screen` reports per screen (widgets) and per transition, each
    # at its holder's span (the parser gives every holder one).
    used_as: tuple[set[str], set[str]] = (set(), set())  # names used as guard terms, as values
    named: dict[int, list[Diagnostic]] = {}  # by id of the screen or transition
    scope = None
    for s, t, holder, _, v in model.positions:
        if isinstance(v, OperationUse):
            used_as[holder is not t].add(v.name)
            continue
        if not isinstance(v, Ref):
            continue
        if s is not scope:
            scope, params, widgets = s, set(s.all_params), {w.id for w in s.widgets}
        if v.name in params:
            continue
        if v.name not in widgets:
            d = Diagnostic("WF007", f"unknown identifier '{v.name}' in screen '{s.name}'", holder.span)
        elif isinstance(holder, Widget):
            d = Diagnostic("WF009", f"widget '{v.name}' cannot be the value of another widget", holder.span)
        else:
            continue
        named.setdefault(id(s if t is None else t), []).append(d)

    for s in model.screens:
        out.extend(_validate_screen(model, s, named))

    # operation use consistency (global): arity and capability agreement
    uses: dict[str, list[OperationUse]] = {}
    for _, op in model.operations:
        uses.setdefault(op.name, []).append(op)
    for name, same in uses.items():
        arities = {len(op.args) for op in same}
        if len(arities) > 1:
            out.append(Diagnostic("WF006", f"operation '{name}' used with inconsistent arities {sorted(arities)}",
                                  same[0].span))
        caps = {op.capability for op in same if op.capability is not None}
        if len(caps) > 1:
            out.append(Diagnostic("WF006", f"operation '{name}' used with conflicting capabilities", same[0].span))

    # boolean/non-boolean position consistency
    for name in sorted(used_as[0] & used_as[1]):
        out.append(Diagnostic("WF006", f"operation '{name}' used in both boolean and value positions", uses[name][0].span))

    # capability references must resolve to builtin or declared resources,
    # except foreign resources (another app's), which are legal and untrusted
    declared = {r.name: {c.name for c in r.capabilities} for r in model.resources}
    for _, op in model.operations:
        if op.capability is None:
            continue
        rn, cn = op.capability
        if rn in BUILTIN_RESOURCES:
            if (rn, cn) not in BUILTIN_CATALOG:
                out.append(Diagnostic("WF007", f"builtin resource '{rn}' has no capability '{cn}'", op.span))
        elif rn in declared and cn not in declared[rn]:
            out.append(Diagnostic("WF007", f"resource '{rn}' has no capability '{cn}'", op.span))

    # attribute legality
    for s in model.screens:
        for w in s.widgets:
            if w.kind is not WidgetKind.WEB_VIEW:
                for k, _ in w.attributes:
                    if k in WIDGET_ATTRS:
                        out.append(Diagnostic("WF009", f"attribute '{k}' is only legal on WebView widgets", w.span))
    return out


def _validate_screen(model, s, named):
    out: list[Diagnostic] = []

    # all URIs of a screen must carry the same parameter set
    psets = {frozenset(u.params) for u in s.uris}
    if len(psets) > 1:
        out.append(Diagnostic("WF005", f"URIs of screen '{s.name}' carry different parameter sets", s.span))

    # per-screen namespace: widgets and params share it
    names = set()
    for w in s.widgets:
        if w.id in names:
            out.append(Diagnostic("WF001", f"duplicate widget id '{w.id}' in screen '{s.name}'", w.span))
        names.add(w.id)
    for p in s.all_params:
        if p in names:
            out.append(Diagnostic("WF001", f"name '{p}' used for both a widget and a parameter in screen '{s.name}'",
                                  s.span))
        names.add(p)

    # names the widgets' values use that the screen does not declare
    out.extend(named.get(id(s), ()))

    # transitions: total order 1..n, known destinations, exact binding cover
    orders = sorted(t.order for t in s.transitions)
    if orders != list(range(1, len(orders) + 1)):
        out.append(Diagnostic("WF002", f"transition order indices of screen '{s.name}' must be exactly 1..{len(orders)}",
                              s.span))

    widgets = {w.id for w in s.widgets}
    for t in s.transitions:
        dest_screen = model.screen(t.dest)
        proxy = model.proxy(t.dest) if dest_screen is None else None
        if dest_screen is None and proxy is None:
            out.append(Diagnostic("WF007", f"transition '{t.id}' targets unknown screen '{t.dest}'", t.span))
        if t.user_action is not None:
            wid, _ = t.user_action
            if wid not in widgets:
                out.append(Diagnostic("WF007", f"transition '{t.id}' names unknown widget '{wid}'", t.span))
        out.extend(named.get(id(t), ()))
        targets = [b.target for b in t.bindings]
        if dest_screen is not None:
            dest, want = "screen", set(dest_screen.params)
            if len(targets) != len(set(targets)):
                out.append(Diagnostic("WF003", f"transition '{t.id}' binds a parameter twice", t.span))
        elif proxy is not None:
            dest, want = "proxy", set(proxy.uri.params)
        else:
            continue
        for m in sorted(want - set(targets)):
            out.append(Diagnostic("WF003", f"transition '{t.id}' provides no value for parameter '{m}' of {dest} '{t.dest}'",
                                  t.span))
        for e in sorted(set(targets) - want):
            out.append(Diagnostic("WF003", f"transition '{t.id}' binds '{e}', not a parameter of {dest} '{t.dest}'", t.span))
    return out
