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

A token is the plain `str` of its source text, and its first character is
its kind: a letter or `_` starts an IDENT, a digit an INT, `"` a STRING
(quotes and escapes kept, so that no string equals a keyword) and any other
character is punctuation.  The end of the input is "".  The lexer keeps each
token's offset; a line and a column are worked out only for the spans the
parser keeps and for diagnostics.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice
from typing import Optional

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


# Classes are ASCII only: int() rejects digits such as '²'.  In a string only
# \" and \\ are escapes and any other backslash is literal: a lone backslash
# may not precede " or \, so a string splits into its parts one way only and
# a failed match backtracks in linear time.
_STRING = r'"[^"\\\n]*(?:\\(?:["\\]|(?!["\\]))[^"\\\n]*)*'  # up to the closing quote
_BLANK = r"[ \t\r\n]+|\#[^\n]*"  # blanks and comments
_BAD = r'[^ \t\r\n\#"A-Za-z0-9_{}()\[\]=,.]'  # a character that starts no token
_WORD = r"[A-Za-z_][A-Za-z0-9_-]*"
# split() gives, per token, the unmatched text (always empty), the skipped
# text and the token.  What is skipped is never a token: blanks, comments and
# the errors that _ERRORS reports, an unterminated string being one that a
# newline or the end follows.  The token group ends with \Z, so the end of the
# input is the token "" and no match fails, which would retry trailing blanks
# from every position.
_TOKEN = re.compile(rf"((?:{_BLANK}|{_STRING}(?![^\n])|{_BAD})*)({_WORD}|[{{}}()\[\]=,.]|{_STRING}\"|[0-9]+|\Z)")
# The errors in the joined skipped text, where a comment or an unterminated
# string still ends at the newline, or the end, that is skipped with it.
_ERRORS = re.compile(rf"\#[^\n]*|({_STRING})|({_BAD})")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")


def _unquote(tok: str) -> str:
    return tok[1:-1].replace('\\"', '"').replace("\\\\", "\\")  # a lone \ never precedes " or \


def _line_starts(text: str) -> list[int]:
    """The offset of each line after the first, then one past the end."""
    return list(accumulate(map((1).__add__, map(len, text.split("\n")))))


def _span(file: str, starts: list[int], offset: int, length: int) -> SourceSpan:
    line = bisect_right(starts, offset)
    return SourceSpan(file, line + 1, offset - (starts[line - 1] if line else 0) + 1, length)


def _lex(text: str, file: str) -> tuple[list[str], list[int], list[Diagnostic]]:
    """The tokens, ending with one "", their offsets, and the PAR001 diagnostics."""
    parts = _TOKEN.split(text)
    toks = parts[2::3]
    offsets = list(islice(accumulate(map(len, parts)), 1, None, 3))
    if len(toks) > 1 and not toks[-2]:  # skipped text ran to the end, then the end matched again
        del toks[-1], offsets[-1]
    diags: list[Diagnostic] = []
    skipped, ends = parts[1::3], None  # skipped[k] ends where token k starts
    for m in _ERRORS.finditer("".join(skipped)):
        if g := m.lastindex:
            if ends is None:
                ends, starts = list(accumulate(map(len, skipped))), _line_starts(text)
            k = bisect_right(ends, m.start(g))
            offset = offsets[k] - ends[k] + m.start(g)
            msg = "unterminated string literal" if g == 1 else f"unexpected character {m[2]!r}"
            diags.append(Diagnostic(Severity.ERROR, "PAR001", msg, _span(file, starts, offset, len(m[g]))))
    return toks, offsets, diags


# An expression (a guard, or a widget's or binding's value) may hold at most
# this many `not`, `and`, `or`, parentheses and operation calls.
MAX_EXPRESSION_NODES = 100

# The end of the input and the words that start a storyboard item, which no
# block item starts with: at the start of an item they end every open block
# whose '}' is missing, and recovery stops at them at any depth.
_ENDS = frozenset({"", "screen", "start", "proxy", "resource"})
# the words that start a block item, where recovery inside a block also stops
_RESUME = frozenset({"transition", "param", *KINDS})


class _Parser:
    def __init__(self, text: str, file: str, toks: list[str], offsets: list[int]):
        self.toks = toks
        toks.append("")  # a second end, so that the token after the current one exists
        self.offsets = offsets
        self.text = text
        self.starts: Optional[list[int]] = None  # line starts, found for the first span
        self.file = file
        self.pos = 0
        self.diags: list[Diagnostic] = []
        self.nodes = 0  # operators and calls in the expression being parsed
        self.refs: set[str] = set()  # the names that are widgets of the screen being read

    # -- token plumbing -----------------------------------------------------

    def span(self, i: int) -> SourceSpan:
        if self.starts is None:
            self.starts = _line_starts(self.text)
        return _span(self.file, self.starts, self.offsets[i], len(self.toks[i]))

    def at(self, text: str) -> bool:
        return self.toks[self.pos] == text

    def eat(self, text: str) -> bool:
        if self.toks[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> int:
        """The index of the token, which must be text."""
        i = self.pos
        if self.toks[i] == text:
            self.pos = i + 1
            return i
        raise self.fail(f"expected '{text}'")

    def ident(self, what: str) -> str:
        t = self.toks[self.pos]
        if t[:1] in _IDENT_START:
            self.pos += 1
            return t
        raise self.fail(f"expected {what}")

    def string(self, what: str) -> str:
        """A STRING's text, unquoted and unescaped."""
        t = self.toks[self.pos]
        if t[:1] == '"':
            self.pos += 1
            return _unquote(t)
        raise self.fail(f"expected {what}")

    def fail(self, msg: str, code: str = "PAR002") -> ParseError:
        t = self.toks[self.pos]
        got = repr(_unquote(t) if t[:1] == '"' else t) if t else "end of input"
        return ParseError(Diagnostic(Severity.ERROR, code, f"{msg}, found {got}", self.span(self.pos)))

    def known(self, table: dict, what: str):
        """The entry of table that the current IDENT names."""
        i = self.pos
        word = self.ident(what)
        if word not in table:
            raise ParseError(Diagnostic(Severity.ERROR, "PAR003", f"unknown {what} '{word}'", self.span(i)))
        return table[word]

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

    def recover(self, error: ParseError, start: int, in_block: bool = True):
        # Record the error and skip to the next item: a token of _ENDS, even the
        # one the error names, and in a block the next _RESUME word after it or
        # the '}' that closes the innermost open block.  A block that the failed
        # item (from start) opened, such as a pattern set, is skipped whole.
        self.diags.append(error.diag)
        toks, i = self.toks, self.pos
        depth = sum((t == "{") - (t == "}") for t in toks[start:i])
        while toks[i] not in _ENDS and not (
                in_block and depth == 0 and (toks[i] == "}" or i > self.pos and toks[i] in _RESUME)):
            depth = max(depth + (toks[i] == "{") - (toks[i] == "}"), 0)
            i += 1
        self.pos = i

    def unclosed(self, errors: int, what: str) -> bool:
        """Whether the open block ends at the current token, a token of _ENDS,
        without its '}'.  That is an error at the end of the input, and at a
        storyboard item's word unless the block's last item failed (errors
        counts the diagnostics before it), whose error then stands for it."""
        t = self.toks[self.pos]
        if t in _ENDS and (not t or len(self.diags) == errors):
            raise self.fail(f"expected {what} or '}}'")
        return t in _ENDS

    # -- grammar ------------------------------------------------------------

    def storyboard(self) -> Optional[AppModel]:
        try:
            first = self.expect("app")
            app_id = self.string("app id string")
        except ParseError as e:
            self.diags.append(e.diag)
            return None
        screens: list[Screen] = []
        proxies: list[ProxyScreen] = []
        resources: list[Resource] = []
        start = None
        while self.toks[self.pos]:
            item = self.pos
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
                self.recover(e, item, in_block=False)
        if start is None and screens:
            start = screens[0].name  # canonical: the default start is explicit
        return AppModel(app_id, tuple(screens), tuple(proxies), tuple(resources), start, self.span(first))

    def resource(self) -> Resource:
        i0 = self.expect("resource")
        name = self.ident("resource name")
        self.expect("access")
        acc = self.known(ACCESS, "access level")
        self.expect("{")
        caps: list[Capability] = []
        while not self.eat("}"):
            if self.toks[self.pos] in _ENDS:
                raise self.fail("expected 'capability' or '}'")
            priv = self.eat("priv")
            self.expect("capability")
            caps.append(Capability(self.ident("capability name"), priv))
        return Resource(name, acc, tuple(caps), self.span(i0))

    def proxy(self) -> ProxyScreen:
        i0 = self.expect("proxy")
        safe = self.eat("safe")
        name = self.ident("proxy name")
        app_id = None
        if self.eat("app"):
            app_id = self.string("app id string")
        self.expect("uri")
        uri = parse_uri(self.string("uri string"))
        return ProxyScreen(name, uri, app_id, safe, self.span(i0))

    def screen(self) -> Screen:
        i0 = self.expect("screen")
        name = self.ident("screen name")
        uris: list[Uri] = []
        while self.eat("uri"):
            uris.append(parse_uri(self.string("uri string")))
        self.expect("{")
        uri_params = uris[0].params if uris else ()
        body, errors = self.pos, len(self.diags)
        params, widget_ids = self.declarations()
        self.refs = widget_ids.difference(params, uri_params)
        params, widgets, transitions = self.body()
        refs = {w.id for w in widgets}.difference(params, uri_params)
        if refs != self.refs and len(self.diags) == errors:
            # a name spelled as a keyword misled declarations(): read the body again
            self.pos, self.refs = body, refs
            params, widgets, transitions = self.body()
        return Screen(name, tuple(uris), tuple(params), tuple(widgets), tuple(transitions), self.span(i0))

    def declarations(self) -> tuple[set[str], set[str]]:
        """The `param` names and the widget ids (`Kind Id =`) at the top level
        of the screen body that starts at the current token, read ahead so that
        value() can resolve a name; a model is returned only if nothing failed.
        It stops at a token of _ENDS too, where an unclosed body ends, so that
        it reads each token of a file once however many bodies are unclosed."""
        toks, params, widgets = self.toks, set(), set()
        depth, i = 1, self.pos
        while depth and toks[i] not in _ENDS:
            t = toks[i]
            if t == "{":
                depth += 1
            elif t == "}":
                depth -= 1
            elif depth == 1 and t == "=" and toks[i - 2] in KINDS:
                widgets.add(toks[i - 1])
            elif depth == 1 and t == "param":
                params.add(toks[i + 1])
            i += 1
        return params, widgets

    def body(self) -> tuple[list[str], list[Widget], list[Transition]]:
        params: list[str] = []
        widgets: list[Widget] = []
        transitions: list[Transition] = []
        errors = len(self.diags)
        while not self.eat("}") and not self.unclosed(errors, "screen body item"):
            item, errors = self.pos, len(self.diags)
            try:
                if self.eat("param"):
                    params.append(self.ident("parameter name"))
                elif self.at("transition"):
                    transitions.append(self.transition())
                else:
                    widgets.append(self.widget())
            except ParseError as e:
                self.recover(e, item)
        return params, widgets, transitions

    def widget(self) -> Widget:
        safe = self.eat("safe")
        k = self.pos
        kind = self.known(KINDS, "widget kind")
        wid = self.ident("widget id")
        self.expect("=")
        value = self.expression(self.value)
        if type(value) is WidgetRef:
            value = ParamRef(value.name)  # a widget's own value never names a widget; validate reports it
        attrs = self.attrs() if self.at("[") else ()
        # an attribute group after an opcall value binds to the opcall; lift
        # widget-level keys back onto the widget itself
        if isinstance(value, OperationUse):
            lifted = tuple((k, v) for k, v in value.attributes if k in WIDGET_ATTRS)
            if lifted:
                kept = tuple((k, v) for k, v in value.attributes if k not in WIDGET_ATTRS)
                value = OperationUse(value.name, value.capability, value.args, kept, value.span)
                attrs = lifted + attrs
        return Widget(kind, wid, value, safe, attrs, self.span(k))

    def value(self) -> ValueBinding:
        t = self.toks[self.pos]
        if t[:1] == '"':
            self.pos += 1
            return Literal(_unquote(t))
        if t[:1] in _IDENT_START:
            if self.toks[self.pos + 1] == "(":
                return self.opcall()
            self.pos += 1
            # a name that is both resolves to the parameter, and a name that
            # is neither is left for validate to report
            return WidgetRef(t) if t in self.refs else ParamRef(t)
        raise self.fail("expected a value")

    def opcall(self) -> OperationUse:
        self.count_node()
        i0 = self.pos
        name = self.ident("operation name")
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
            rn = self.ident("resource name")
            self.expect(".")
            capability = (rn, self.ident("capability name"))
        attrs = self.attrs() if self.at("[") else ()
        return OperationUse(name, capability, tuple(args), attrs, self.span(i0))

    def attrs(self) -> tuple[tuple[str, object], ...]:
        self.expect("[")
        out: list[tuple[str, object]] = []
        while True:
            key = self.ident("attribute name")
            key = ATTR_ALIASES.get(key, key)
            self.expect("=")
            out.append((key, self.attrval()))
            if not self.eat(","):
                break
        self.expect("]")
        return tuple(out)

    def attrval(self):
        t = self.toks[self.pos]
        if t[:1] == '"':
            self.pos += 1
            return _unquote(t)
        if self.eat("true"):
            return True
        if self.eat("false"):
            return False
        if self.eat("{"):
            items = [self.string("pattern string")]
            while self.eat(","):
                items.append(self.string("pattern string"))
            self.expect("}")
            return tuple(items)
        raise self.fail("expected an attribute value")

    def transition(self) -> Transition:
        i0 = self.expect("transition")
        tid = self.ident("transition id")
        self.expect("order")
        order = self.toks[self.pos]
        if not order.isdigit():
            raise self.fail("expected order index")
        self.pos += 1
        self.expect("dest")
        dest = self.ident("destination name")
        ua = None
        guard = None
        if self.eat("cond"):
            t = self.toks[self.pos]
            if t[:1] in _IDENT_START and self.toks[self.pos + 1] == ".":
                self.pos += 2
                ua = (t, self.known(GESTURES, "gesture"))
                if self.eat("and"):
                    guard = self.expression(self.bexpr)
            else:
                guard = self.expression(self.bexpr)
        bindings: list[ParamBinding] = []
        if self.eat("{"):
            errors = len(self.diags)
            while not self.eat("}") and not self.unclosed(errors, "'param'"):
                p0, errors = self.pos, len(self.diags)
                try:
                    self.expect("param")
                    target = self.ident("parameter name")
                    self.expect("=")
                    safe = self.eat("safe")
                    bindings.append(ParamBinding(target, safe, self.expression(self.value), self.span(p0)))
                except ParseError as e:
                    self.recover(e, p0)
                    if not (self.at("param") or self.at("}")):
                        break  # the block is not closed; the screen resumes here
        return Transition(tid, int(order), dest, ua, guard, tuple(bindings), self.span(i0))

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
        if self.toks[self.pos][:1] in _IDENT_START:
            return BOp(self.opcall())
        raise self.fail("expected a boolean term")


def parse(text: str, file: str = "<input>") -> ParseOutcome:
    toks, offsets, diags = _lex(text, file)
    parser = _Parser(text, file, toks, offsets)
    model = parser.storyboard()
    diags.extend(parser.diags)
    if diags or model is None:
        if not diags:
            diags = [Diagnostic(Severity.ERROR, "PAR002", "empty input", SourceSpan(file, 1, 1, 0))]
        return ParseOutcome(None, diags)
    return ParseOutcome(model, [])


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
