"""Concrete syntax for storyboards (.sbd): lexer, parser, canonical formatter.

The grammar, informally:

    storyboard  := "app" STRING topitem*
    topitem     := resource | screen | proxy
    resource    := "resource" IDENT "access" ("all"|"user"|"own") "{" cap+ "}"
    cap         := "priv"? "capability" IDENT
    screen      := "start"? "screen" IDENT ("uri" STRING)* "{" body* "}"
    body        := "param" IDENT | widget | transition
    widget      := "safe"? KIND IDENT "=" value attrs?
    value       := STRING | IDENT | opcall
    opcall      := IDENT "(" arglist? ")" ("use" IDENT "." IDENT)? attrs?
    arglist     := arg ("," arg)* ;  arg := "safe"? value
    attrs       := "[" IDENT "=" attrval ("," IDENT "=" attrval)* "]"
    attrval     := STRING | "true" | "false" | "{" STRING ("," STRING)* "}"
    proxy       := "proxy" "safe"? IDENT ("app" STRING)? "uri" STRING
    transition  := "transition" IDENT "order" INT "dest" IDENT cond? bindings?
    cond        := "cond" (useraction ("and" bexpr)? | bexpr)
    useraction  := IDENT "." ("click"|"swipe"|"drag")
    bindings    := "{" ("param" IDENT "=" "safe"? value)* "}"
    bexpr       := bterm (("and"|"or") bterm)*
    bterm       := "not" bterm | "(" bexpr ")" | "true" | "false" | opcall

`and`/`or` associate left; `not` binds tightest.  `#` starts a comment.
URI parameters are embraced trailing segments: "app://contacts/{y}".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .model import (
    Access,
    AppModel,
    Arg,
    BAnd,
    BConst,
    BNot,
    BOp,
    BOr,
    BoolExpr,
    Capability,
    Diagnostic,
    Gesture,
    Literal,
    OperationUse,
    ParamBinding,
    ParamRef,
    ProxyScreen,
    Resource,
    Screen,
    Severity,
    SourceSpan,
    Transition,
    Uri,
    ValueBinding,
    Widget,
    WidgetKind,
    WidgetRef,
    parse_uri,
)

KINDS = {k.value: k for k in WidgetKind}
GESTURES = {g.value: g for g in Gesture}
ACCESS = {a.value: a for a in Access}

# alias tolerated for the whitelist attribute
ATTR_ALIASES = {"trusted-patterns": "trust-patterns"}

# attributes that belong to the widget even when written after an opcall value
WIDGET_ATTRS = ("trust-patterns", "allowJS")


class Token(NamedTuple):
    kind: str  # IDENT STRING INT PUNCT EOF
    text: str  # a STRING's text is unescaped and unquoted
    line: int
    column: int
    length: int  # characters of source, quotes and escapes included


class ParseError(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(diag.message)
        self.diag = diag


@dataclass
class ParseOutcome:
    model: Optional[AppModel]
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.model is not None


# One match per token, after any blanks.  The group that matched says what
# it is; the first three are tokens whose text is their source.  Classes are
# ASCII only: int() rejects digits such as '²'.  In a string only \" and \\
# are escapes and any other backslash is literal; a lone backslash may not
# precede " or \, so backtracking cannot end a string at an escaped quote.
# A blank is never unexpected, or the blank prefix could give one back to
# group 8 at the end of the input.
_TOKEN = re.compile(
    r"""[ \t\r]*(?:
      ([A-Za-z_][A-Za-z0-9_-]*)                    # 1 IDENT
    | ([{}()\[\]=,.])                              # 2 PUNCT
    | ([0-9]+)                                     # 3 INT
    | (\n)                                         # 4
    | ("(?:[^"\\\n]|\\["\\]|\\(?!["\\]))*) (")?    # 5 string, 6 its closing quote
    | (\#[^\n]*)                                   # 7 comment
    | ([^ \t\r\n])                                 # 8 unexpected character
    )""",
    re.VERBOSE,
)
_SIMPLE_KINDS = (None, "IDENT", "PUNCT", "INT")
_ESCAPE = re.compile(r'\\(["\\])')
_new = tuple.__new__  # _new(Token, fields) skips NamedTuple's slower Python __new__


def _lex(text: str, file: str) -> tuple[list[Token], list[Diagnostic]]:
    toks: list[Token] = []
    diags: list[Diagnostic] = []
    line, last_nl = 1, -1  # a column is the offset past the last newline
    for m in _TOKEN.finditer(text):
        g = m.lastindex
        if g <= 3:
            word = m.group(g)
            toks.append(_new(Token, (_SIMPLE_KINDS[g], word, line, m.start(g) - last_nl, len(word))))
        elif g == 4:
            line += 1
            last_nl = m.end() - 1
        elif g == 6:
            raw = m.group(5)
            body = _ESCAPE.sub(r"\1", raw[1:]) if "\\" in raw else raw[1:]
            toks.append(_new(Token, ("STRING", body, line, m.start(5) - last_nl, len(raw) + 1)))
        elif g == 5:
            span = SourceSpan(file, line, m.start(5) - last_nl, len(m.group(5)))
            diags.append(Diagnostic(Severity.ERROR, "PAR001", "unterminated string literal", span))
        elif g == 8:
            span = SourceSpan(file, line, m.start(8) - last_nl, 1)
            diags.append(Diagnostic(Severity.ERROR, "PAR001", f"unexpected character {m.group(8)!r}", span))
    toks.append(Token("EOF", "", line, len(text) - last_nl, 0))
    return toks, diags


# An expression (a guard, or a widget's or binding's value) may hold at most
# this many `not`, `and`, `or`, parentheses and operation calls.
MAX_EXPRESSION_NODES = 100

_WORDS = ("IDENT", "PUNCT")  # the kinds whose text at() and eat() match
_SYNC = {"screen", "proxy", "resource", "transition", "param", "start", "app"}


class _Parser:
    def __init__(self, toks: list[Token], file: str):
        self.toks = toks + toks[-1:]  # a second EOF, so peek(1) stays in bounds
        self.file = file
        self.pos = 0
        self.diags: list[Diagnostic] = []
        self.nodes = 0  # operators and calls in the expression being parsed

    # -- token plumbing -----------------------------------------------------

    def span(self, t: Token) -> SourceSpan:
        return SourceSpan(self.file, t.line, t.column, t.length)

    def peek(self, ahead=0) -> Token:
        return self.toks[self.pos + ahead]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "EOF":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.toks[self.pos]
        return t.text == text and t.kind in _WORDS

    def eat(self, text: str) -> bool:
        t = self.toks[self.pos]
        if t.text == text and t.kind in _WORDS:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.toks[self.pos]
        if self.eat(text):
            return t
        raise self.fail(f"expected '{text}'")

    def expect_kind(self, kind: str, what: str) -> Token:
        t = self.toks[self.pos]
        if t.kind == kind:
            self.pos += 1
            return t
        raise self.fail(f"expected {what}")

    def fail(self, msg: str, code: str = "PAR002") -> ParseError:
        t = self.peek()
        got = repr(t.text) if t.kind != "EOF" else "end of input"
        return ParseError(Diagnostic(Severity.ERROR, code, f"{msg}, found {got}", self.span(t)))

    def expression(self, parse):
        # a guard, or a widget's or binding's value: its node count starts over
        self.nodes = 0
        return parse()

    def count_node(self):
        # Bounds the parser's recursion and the depth of the tree that every
        # walker recurses over, and/or chains included.
        self.nodes += 1
        if self.nodes > MAX_EXPRESSION_NODES:
            raise self.fail(f"expected at most {MAX_EXPRESSION_NODES} operators and calls in one expression", "PAR004")

    def recover(self, error: ParseError, in_block: bool = False):
        # record the error, then skip the token it names and on to the next
        # item boundary so later errors can still surface; inside a block, a
        # '}' stays to close it
        self.diags.append(error.diag)
        if not (in_block and self.at("}")):
            self.next()
        while True:
            t = self.peek()
            if t.kind == "EOF":
                return
            if t.kind == "IDENT" and (t.text in _SYNC or t.text in KINDS or t.text == "safe"):
                return
            if t.kind == "PUNCT" and t.text == "}":
                return
            self.next()

    # -- grammar ------------------------------------------------------------

    def storyboard(self) -> Optional[AppModel]:
        try:
            first = self.expect("app")
            app_id = self.expect_kind("STRING", "app id string").text
        except ParseError as e:
            self.diags.append(e.diag)
            return None
        screens: list[Screen] = []
        proxies: list[ProxyScreen] = []
        resources: list[Resource] = []
        start = None
        while self.peek().kind != "EOF":
            try:
                if self.at("resource"):
                    resources.append(self.resource())
                elif self.at("proxy"):
                    proxies.append(self.proxy())
                elif self.at("screen") or self.at("start"):
                    is_start = self.eat("start")
                    s = self.screen()
                    if is_start and start is None:
                        start = s.name
                    screens.append(s)
                else:
                    raise self.fail("expected 'screen', 'proxy', or 'resource'")
            except ParseError as e:
                self.recover(e)
        if start is None and screens:
            start = screens[0].name  # canonical: the default start is explicit
        return AppModel(app_id, tuple(screens), tuple(proxies), tuple(resources), start, self.span(first))

    def resource(self) -> Resource:
        t0 = self.expect("resource")
        name = self.expect_kind("IDENT", "resource name").text
        self.expect("access")
        acc = self.expect_kind("IDENT", "access level")
        if acc.text not in ACCESS:
            raise ParseError(Diagnostic(Severity.ERROR, "PAR003", f"unknown access level '{acc.text}'", self.span(acc)))
        self.expect("{")
        caps: list[Capability] = []
        while not self.eat("}"):
            if self.peek().kind == "EOF":
                raise self.fail("expected 'capability' or '}'")
            priv = self.eat("priv")
            self.expect("capability")
            cn = self.expect_kind("IDENT", "capability name").text
            caps.append(Capability(cn, priv))
        return Resource(name, ACCESS[acc.text], tuple(caps), self.span(t0))

    def proxy(self) -> ProxyScreen:
        t0 = self.expect("proxy")
        safe = self.eat("safe")
        name = self.expect_kind("IDENT", "proxy name").text
        app_id = None
        if self.eat("app"):
            app_id = self.expect_kind("STRING", "app id string").text
        self.expect("uri")
        uri = parse_uri(self.expect_kind("STRING", "uri string").text)
        return ProxyScreen(name, uri, app_id, safe, self.span(t0))

    def screen(self) -> Screen:
        t0 = self.expect("screen")
        name = self.expect_kind("IDENT", "screen name").text
        uris: list[Uri] = []
        while self.eat("uri"):
            uris.append(parse_uri(self.expect_kind("STRING", "uri string").text))
        self.expect("{")
        params: list[str] = []
        widgets: list[Widget] = []
        transitions: list[Transition] = []
        while not self.eat("}"):
            if self.peek().kind == "EOF":
                raise self.fail("expected screen body item or '}'")
            try:
                if self.eat("param"):
                    params.append(self.expect_kind("IDENT", "parameter name").text)
                elif self.at("transition"):
                    transitions.append(self.transition())
                else:
                    widgets.append(self.widget())
            except ParseError as e:
                self.recover(e)
        return Screen(name, tuple(uris), tuple(params), tuple(widgets), tuple(transitions), self.span(t0))

    def widget(self) -> Widget:
        safe = self.eat("safe")
        kt = self.expect_kind("IDENT", "widget kind")
        if kt.text not in KINDS:
            raise ParseError(Diagnostic(Severity.ERROR, "PAR003", f"unknown widget kind '{kt.text}'", self.span(kt)))
        wid = self.expect_kind("IDENT", "widget id").text
        self.expect("=")
        value = self.expression(self.value)
        attrs = self.attrs() if self.at("[") else ()
        # an attribute group after an opcall value binds to the opcall; lift
        # widget-level keys back onto the widget itself
        if isinstance(value, OperationUse):
            lifted = tuple((k, v) for k, v in value.attributes if k in WIDGET_ATTRS)
            if lifted:
                kept = tuple((k, v) for k, v in value.attributes if k not in WIDGET_ATTRS)
                value = OperationUse(value.name, value.capability, value.args, kept, value.span)
                attrs = lifted + attrs
        return Widget(KINDS[kt.text], wid, value, safe, attrs, self.span(kt))

    def value(self) -> ValueBinding:
        t = self.peek()
        if t.kind == "STRING":
            self.next()
            return Literal(t.text)
        if t.kind == "IDENT":
            if self.peek(1).kind == "PUNCT" and self.peek(1).text == "(":
                return self.opcall()
            self.next()
            # resolved to ParamRef/WidgetRef during validation-time lookup;
            # parse keeps the surface name as a ParamRef by default
            return ParamRef(t.text)
        raise self.fail("expected a value")

    def opcall(self) -> OperationUse:
        self.count_node()
        name_tok = self.expect_kind("IDENT", "operation name")
        self.expect("(")
        args: list[Arg] = []
        if not self.at(")"):
            while True:
                safe = self.eat("safe")
                args.append(Arg(safe, self.value()))
                if not self.eat(","):
                    break
        self.expect(")")
        capability = None
        if self.eat("use"):
            rn = self.expect_kind("IDENT", "resource name").text
            self.expect(".")
            cn = self.expect_kind("IDENT", "capability name").text
            capability = (rn, cn)
        attrs = self.attrs() if self.at("[") else ()
        return OperationUse(name_tok.text, capability, tuple(args), attrs, self.span(name_tok))

    def attrs(self) -> tuple[tuple[str, object], ...]:
        self.expect("[")
        out: list[tuple[str, object]] = []
        while True:
            key = self.expect_kind("IDENT", "attribute name").text
            key = ATTR_ALIASES.get(key, key)
            self.expect("=")
            out.append((key, self.attrval()))
            if not self.eat(","):
                break
        self.expect("]")
        return tuple(out)

    def attrval(self):
        t = self.peek()
        if t.kind == "STRING":
            self.next()
            return t.text
        if self.eat("true"):
            return True
        if self.eat("false"):
            return False
        if self.eat("{"):
            items = [self.expect_kind("STRING", "pattern string").text]
            while self.eat(","):
                items.append(self.expect_kind("STRING", "pattern string").text)
            self.expect("}")
            return tuple(items)
        raise self.fail("expected an attribute value")

    def transition(self) -> Transition:
        t0 = self.expect("transition")
        tid = self.expect_kind("IDENT", "transition id").text
        self.expect("order")
        order = int(self.expect_kind("INT", "order index").text)
        self.expect("dest")
        dest = self.expect_kind("IDENT", "destination name").text
        ua = None
        guard = None
        if self.eat("cond"):
            t = self.peek()
            if t.kind == "IDENT" and self.peek(1).text == "." and self.peek(1).kind == "PUNCT":
                self.next()
                self.expect(".")
                g = self.expect_kind("IDENT", "gesture")
                if g.text not in GESTURES:
                    raise ParseError(Diagnostic(Severity.ERROR, "PAR003", f"unknown gesture '{g.text}'", self.span(g)))
                ua = (t.text, GESTURES[g.text])
                if self.eat("and"):
                    guard = self.expression(self.bexpr)
            else:
                guard = self.expression(self.bexpr)
        bindings: list[ParamBinding] = []
        if self.eat("{"):
            while not self.eat("}"):
                if self.peek().kind == "EOF":
                    raise self.fail("expected 'param' or '}'")
                try:
                    p0 = self.expect("param")
                    target = self.expect_kind("IDENT", "parameter name").text
                    self.expect("=")
                    safe = self.eat("safe")
                    bindings.append(ParamBinding(target, safe, self.expression(self.value), self.span(p0)))
                except ParseError as e:
                    # recover inside the block, so that its '}' does not end the screen
                    self.recover(e, in_block=True)
                    if not (self.at("param") or self.at("}")):
                        break  # the block is not closed; the screen resumes here
        return Transition(tid, order, dest, ua, guard, tuple(bindings), self.span(t0))

    def bexpr(self) -> BoolExpr:
        left = self.bterm()
        while True:
            if self.eat("and"):
                op = BAnd
            elif self.eat("or"):
                op = BOr
            else:
                return left
            self.count_node()
            left = op(left, self.bterm())

    def bterm(self) -> BoolExpr:
        if self.eat("not"):
            self.count_node()
            return BNot(self.bterm())
        if self.eat("("):
            self.count_node()
            e = self.bexpr()
            self.expect(")")
            return e
        if self.eat("true"):
            return BConst(True)
        if self.eat("false"):
            return BConst(False)
        if self.peek().kind == "IDENT":
            return BOp(self.opcall())
        raise self.fail("expected a boolean term")


def _resolve_refs(model: AppModel) -> AppModel:
    """Rewrite surface name references into ParamRef/WidgetRef per screen
    namespace.  Names that resolve to neither are left as ParamRef for
    validate to flag."""

    def fix_value(v, params, widgets, widget_value=False):
        if isinstance(v, ParamRef):
            if v.name in params:
                return v
            if v.name in widgets and not widget_value:
                return WidgetRef(v.name)
            return v
        if isinstance(v, OperationUse):
            args = tuple(Arg(a.safe, fix_value(a.value, params, widgets)) for a in v.args)
            return OperationUse(v.name, v.capability, args, v.attributes, v.span)
        return v

    def fix_bool(b, params, widgets):
        if isinstance(b, BOp):
            return BOp(fix_value(b.op, params, widgets))
        if isinstance(b, BAnd):
            return BAnd(fix_bool(b.left, params, widgets), fix_bool(b.right, params, widgets))
        if isinstance(b, BOr):
            return BOr(fix_bool(b.left, params, widgets), fix_bool(b.right, params, widgets))
        if isinstance(b, BNot):
            return BNot(fix_bool(b.inner, params, widgets))
        return b

    screens = []
    for s in model.screens:
        params = set(s.all_params)
        widgets = {w.id for w in s.widgets}
        new_widgets = tuple(
            Widget(w.kind, w.id, fix_value(w.value, params, widgets, widget_value=True), w.safe, w.attributes, w.span)
            for w in s.widgets
        )
        new_trs = []
        for t in s.transitions:
            guard = fix_bool(t.guard, params, widgets) if t.guard is not None else None
            binds = tuple(
                ParamBinding(b.target, b.safe, fix_value(b.value, params, widgets), b.span) for b in t.bindings
            )
            new_trs.append(Transition(t.id, t.order, t.dest, t.user_action, guard, binds, t.span))
        screens.append(Screen(s.name, s.uris, s.params, new_widgets, tuple(new_trs), s.span))
    return AppModel(model.app_id, tuple(screens), model.proxies, model.resources, model.start, model.span)


def parse(text: str, file: str = "<input>") -> ParseOutcome:
    toks, diags = _lex(text, file)
    parser = _Parser(toks, file)
    model = parser.storyboard()
    diags.extend(parser.diags)
    if diags or model is None:
        if not diags:
            diags = [Diagnostic(Severity.ERROR, "PAR002", "empty input", SourceSpan(file, 1, 1, 0))]
        return ParseOutcome(None, diags)
    return ParseOutcome(_resolve_refs(model), [])


# ---------------------------------------------------------------------------
# Canonical formatter


def _fmt_attrval(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return "{" + ", ".join(_quote(x) for x in v) + "}"
    return _quote(v)


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _fmt_attrs(attrs) -> str:
    if not attrs:
        return ""
    return " [" + ", ".join(f"{k}={_fmt_attrval(v)}" for k, v in attrs) + "]"


def _fmt_value(v) -> str:
    if isinstance(v, Literal):
        return _quote(v.text)
    if isinstance(v, (ParamRef, WidgetRef)):
        return v.name
    if isinstance(v, OperationUse):
        return _fmt_op(v)
    raise TypeError(v)


def _fmt_op(op: OperationUse) -> str:
    args = ", ".join(("safe " if a.safe else "") + _fmt_value(a.value) for a in op.args)
    out = f"{op.name}({args})"
    if op.capability:
        out += f" use {op.capability[0]}.{op.capability[1]}"
    return out + _fmt_attrs(op.attributes)


def _fmt_bool(b: BoolExpr, parent: Optional[str] = None) -> str:
    if isinstance(b, BConst):
        return "true" if b.value else "false"
    if isinstance(b, BOp):
        return _fmt_op(b.op)
    if isinstance(b, BNot):
        inner = _fmt_bool(b.inner, "not")
        if isinstance(b.inner, (BAnd, BOr)):
            inner = f"({inner})"
        return f"not {inner}"
    op = "and" if isinstance(b, BAnd) else "or"
    left = _fmt_bool(b.left, op)
    right = _fmt_bool(b.right, op)
    if isinstance(b.left, (BAnd, BOr)) and not isinstance(b.left, type(b)):
        left = f"({left})"
    if isinstance(b.right, (BAnd, BOr)):
        right = f"({right})"  # left-assoc canonical form: parenthesize right nests
    return f"{left} {op} {right}"


def format_model(model: AppModel) -> str:
    """Canonical source text; a fixed point of parse∘format."""
    lines: list[str] = [f"app {_quote(model.app_id)}"]
    for r in model.resources:
        lines.append("")
        lines.append(f"resource {r.name} access {r.access.value} {{")
        for c in r.capabilities:
            lines.append("  " + ("priv " if c.priv else "") + f"capability {c.name}")
        lines.append("}")
    default_start = model.screens[0].name if model.screens else None
    for s in model.screens:
        lines.append("")
        head = "screen " + s.name
        if model.start is not None and model.start == s.name and s.name != default_start:
            head = "start " + head
        for u in s.uris:
            head += f" uri {_quote(u.render())}"
        lines.append(head + " {")
        for p in s.params:
            lines.append(f"  param {p}")
        for w in s.widgets:
            lines.append(
                "  "
                + ("safe " if w.safe else "")
                + f"{w.kind.value} {w.id} = {_fmt_value(w.value)}"
                + _fmt_attrs(w.attributes)
            )
        for t in s.ordered_transitions:
            line = f"  transition {t.id} order {t.order} dest {t.dest}"
            if t.user_action is not None or t.guard is not None:
                line += " cond "
                parts = []
                if t.user_action is not None:
                    parts.append(f"{t.user_action[0]}.{t.user_action[1].value}")
                if t.guard is not None:
                    parts.append(_fmt_bool(t.guard))
                line += " and ".join(parts)
            if t.bindings:
                lines.append(line + " {")
                for b in t.bindings:
                    lines.append(f"    param {b.target} = " + ("safe " if b.safe else "") + _fmt_value(b.value))
                lines.append("  }")
            else:
                lines.append(line)
        lines.append("}")
    for p in model.proxies:
        lines.append("")
        line = "proxy " + ("safe " if p.safe else "") + p.name
        if p.app_id is not None:
            line += f" app {_quote(p.app_id)}"
        line += f" uri {_quote(p.uri.render())}"
        lines.append(line)
    return "\n".join(lines) + "\n"
