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
At most one screen is marked `start`; without a mark the first screen starts.
URI parameters are embraced trailing segments: "app://contacts/{y}".
A name used as a value becomes a `Ref` whatever it names: a screen may use
a name before it declares it, and the readers that need to know whether it
is a parameter or a widget ask the screen (see `model.Ref`).

A token is the plain `str` of its source text, and its first character is
its kind: a letter or `_` starts an IDENT, a digit an INT, `"` a STRING
(quotes and escapes kept, so that no string equals a keyword) and any other
character is punctuation.  The end of the input is "".  A span is its token's
index in the parse's `Source`, which works out offsets, lines and columns
only when a span's line or column is read: a clean `check` or `fmt` never does.

Both halves are shaped by the cost per token, since `check` and `fmt` read
whole storyboards while they are drawn.  The lexer is one `re.split`, whose
skip group reads a run of blanks before it tries a comment, an unterminated
string or a bad character (see `_TOKEN`).  The parser reads the common heads
(a widget's `safe? KIND ID =`, a transition's `transition ID order INT dest
ID`, a gesture `ID . GESTURE`, `use R . C` and a binding's `param ID =`) with
one test of the whole head on the token list.  When the test fails, the
checked calls read the head again from the same token, so every diagnostic
still comes from them.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, islice
from operator import methodcaller
from typing import NamedTuple, Optional

from .model import (
    WIDGET_ATTRS,
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
    ProxyScreen,
    Ref,
    Resource,
    Screen,
    SourceSpan,
    Transition,
    Uri,
    ValueBinding,
    Widget,
    WidgetKind,
    parse_uri,
)

KINDS = {k.value: k for k in WidgetKind}
GESTURES = {g.value: g for g in Gesture}
ACCESS = {a.value: a for a in Access}

# alias tolerated for the whitelist attribute
ATTR_ALIASES = {"trusted-patterns": "trust-patterns"}


class ParseError(Exception):
    def __init__(self, diag: Diagnostic):
        super().__init__(diag.message)
        self.diag = diag


class ParseOutcome(NamedTuple):
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
_BLANKS = r"[ \t\r\n]*"
_BAD = r'[^ \t\r\n\#"A-Za-z0-9_{}()\[\]=,.]'  # a character that starts no token
_WORD = r"[A-Za-z_][A-Za-z0-9_-]*"
# split() gives, per token, the unmatched text (always empty), the skipped
# text and the token.  What is skipped is never a token: blanks, comments and
# the errors that _ERRORS reports, an unterminated string being one that a
# newline or the end follows.  Nearly every skip is one run of blanks, so the
# skip group reads a blank run first, outside its loop of alternatives, and
# then the rare skips (a comment, an unterminated string, a character that
# starts no token), each followed by its own blank run.  Python 3.10 has no
# atomic group, so a terminated string is still read twice: the rare skip
# reads it as an unterminated one and gives it up at its closing quote.  The
# token group ends with \Z, so the end of the input is the token "" and no
# match fails, which would retry trailing blanks from every position.
_TOKEN = re.compile(rf"({_BLANKS}(?:(?:\#[^\n]*|{_STRING}(?![^\n])|{_BAD}){_BLANKS})*)"
                    rf"({_WORD}|[{{}}()\[\]=,.]|{_STRING}\"|[0-9]+|\Z)")
_ONLY_BLANKS = re.compile(_BLANKS)
_NEWLINES = re.compile("\n")
# The errors in the joined skipped text, where a comment or an unterminated
# string still ends at the newline, or the end, that is skipped with it, and a
# run of characters that start no token may join the runs of two skips.
_ERRORS = re.compile(rf"\#[^\n]*|({_STRING})|({_BAD}+)")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_new = tuple.__new__  # a record from all its fields, in order, at under half the cost of calling its class


def _unescape(s: str) -> str:
    return s.replace('\\"', '"').replace("\\\\", "\\")


def _unquote(tok: str) -> str:
    return _unescape(tok[1:-1])  # a lone \ never precedes " or \


class Source:
    """The file and text of one parse, shared by its spans, whose index is a token's
    (a character offset if there are no split parts).  The first read keeps the offset
    of every 32nd token and the line starts; threads may race through that idempotent fill."""

    def __init__(self, file: str, text: str, parts: Optional[list[str]] = None):
        self.file, self.text, self.parts = file, text, parts
        self.lines = None  # the offsets of tokens 0, 32, 64 and on (None without parts), then the line starts

    def position(self, index: int) -> tuple[int, int, int]:
        """The offset of index, then its line and its column, both from 1."""
        marks, starts = self.lines or self._fill()
        offset = index
        if marks is not None:  # a mark, and the text from its token to this one
            k = index // 32
            offset = marks[k] + sum(map(len, self.parts[3 * 32 * k + 2:3 * index + 2]))
        line = bisect_right(starts, offset)
        return offset, line, offset - starts[line - 1] + 1

    def _fill(self) -> tuple[Optional[list[int]], list[int]]:
        # Few ints, and no string per line: the fill runs while a command's output is held.
        parts = self.parts
        marks = None if parts is None else list(islice(accumulate(map(len, parts)), 1, None, 3 * 32))
        self.lines = lines = marks, [0, *map(methodcaller("end"), _NEWLINES.finditer(self.text))]
        return lines


def _lex(text: str, file: str) -> tuple[list[str], Source, list[Diagnostic]]:
    """The tokens, ending with one "", the source of their spans, and the PAR001
    diagnostics: one per unterminated string and one per run of characters
    that start no token."""
    parts = _TOKEN.split(text)
    toks = parts[2::3]
    if len(toks) > 1 and not toks[-2]:  # skipped text ran to the end, then the end matched again
        del toks[-1]
    source = Source(file, text, parts)
    skipped = parts[1::3]  # skipped[k] ends where token k starts
    joined = "".join(skipped)
    if _ONLY_BLANKS.fullmatch(joined):  # most texts skip blanks alone: no scan for errors
        return toks, source, []
    diags: list[Diagnostic] = []
    ends = None
    for m in _ERRORS.finditer(joined):
        if g := m.lastindex:
            if ends is None:
                ends, chars = list(accumulate(map(len, skipped))), Source(file, text)
            i, j = m.span(g)
            while i < j:  # one diagnostic per skip that the match spans
                k = bisect_right(ends, i)
                n = min(j, ends[k]) - i
                if g == 1:
                    msg = "unterminated string literal"
                elif n == 1:
                    msg = f"unexpected character {m.string[i]!r}"
                else:
                    msg = f"{n} unexpected characters starting with {m.string[i]!r}"
                diags.append(Diagnostic("PAR001", msg, SourceSpan(chars, source.position(k)[0] - ends[k] + i, n)))
                i += n
    return toks, source, diags


# An expression (a guard, or a widget's or binding's value) may hold at most
# this many `not`, `and`, `or`, parentheses and operation calls.
MAX_EXPRESSION_NODES = 100

# The end of the input and the words that start a storyboard item, which no
# block item starts with and no name or value is: at the start of an item they
# end every open block whose '}' is missing, and recovery stops at any depth
# where one starts an item (`starts_item`).
_ENDS = frozenset({"", "screen", "start", "proxy", "resource"})
# the words that start a block item, where recovery inside a block also stops
_RESUME = frozenset({"transition", "param", *KINDS})
# the most tokens a fast path (see the module docstring) reads past the token
# it starts at: a transition head's destination
_LOOKAHEAD = 5


class _Parser:
    def __init__(self, source: Source, toks: list[str]):
        self.source = source
        self.toks = toks
        toks += [""] * _LOOKAHEAD  # more ends, so that every token a fast path reads exists
        self.pos = 0
        self.diags: list[Diagnostic] = []
        self.nodes = 0  # operators and calls in the expression being parsed

    # -- token plumbing -----------------------------------------------------

    def span(self, i: int) -> SourceSpan:
        return _new(SourceSpan, (self.source, i, len(self.toks[i])))

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
        if t[:1] in _IDENT_START and t not in _ENDS:
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
        return ParseError(Diagnostic(code, f"{msg}, found {got}", self.span(self.pos)))

    def known(self, table: dict, what: str):
        """The entry of table that the current IDENT names."""
        i = self.pos
        word = self.ident(what)
        if word not in table:
            self.pos = i  # the error names this word, so recovery starts from it
            raise ParseError(Diagnostic("PAR003", f"unknown {what} '{word}'", self.span(i)))
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

    def starts_item(self, i: int) -> bool:
        # the end, or an item word that the token its item needs next follows
        t, after = self.toks[i], self.toks[i + 1]
        fits = after == "screen" if t == "start" else after[:1] in _IDENT_START and after not in _ENDS
        return not t or t in _ENDS and fits

    def recover(self, error: ParseError, start: int, in_block: bool = True):
        # Record the error and skip to the next item: a storyboard item or the
        # end, even at the token the error names, and in a block the next
        # _RESUME word after it or the '}' that closes the innermost open block.
        # A block that the failed item (from start) opened is skipped whole.
        self.diags.append(error.diag)
        toks, i = self.toks, self.pos
        depth = sum((t == "{") - (t == "}") for t in toks[start:i])
        while not self.starts_item(i) and not (
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
                    if self.at("start") and start is not None:  # recorded, and the screen is read on
                        self.diags.append(self.fail("expected at most one 'start' screen").diag)
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
            start = screens[0].name  # the parser decides the start; readers take `model.start`
        return _new(AppModel, (app_id, tuple(screens), tuple(proxies), tuple(resources), start, self.span(first)))

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
            caps.append(_new(Capability, (self.ident("capability name"), priv)))
        return _new(Resource, (name, acc, tuple(caps), self.span(i0)))

    def proxy(self) -> ProxyScreen:
        i0 = self.expect("proxy")
        safe = self.eat("safe")
        name = self.ident("proxy name")
        app_id = None
        if self.eat("app"):
            app_id = self.string("app id string")
        self.expect("uri")
        uri = parse_uri(self.string("uri string"))
        return _new(ProxyScreen, (name, uri, app_id, safe, self.span(i0)))

    def screen(self) -> Screen:
        i0 = self.expect("screen")
        name = self.ident("screen name")
        uris: list[Uri] = []
        while self.eat("uri"):
            uris.append(parse_uri(self.string("uri string")))
        self.expect("{")
        params: list[str] = []
        widgets: list[Widget] = []
        transitions: list[Transition] = []
        toks, errors = self.toks, len(self.diags)
        while True:
            item = self.pos
            t = toks[item]
            if t == "}":
                self.pos = item + 1
                break
            if t in _ENDS and self.unclosed(errors, "screen body item"):
                break
            errors = len(self.diags)
            try:
                if t == "param":
                    self.pos = item + 1
                    params.append(self.ident("parameter name"))
                elif t == "transition":
                    transitions.append(self.transition())
                else:
                    widgets.append(self.widget())
            except ParseError as e:
                self.recover(e, item)
        return _new(Screen, (name, tuple(uris), tuple(params), tuple(widgets), tuple(transitions), self.span(i0)))

    def widget(self) -> Widget:
        toks, k = self.toks, self.pos
        safe = toks[k] == "safe"
        if safe:
            k += 1
        kind, wid = KINDS.get(toks[k]), toks[k + 1]
        if kind is not None and wid[:1] in _IDENT_START and wid not in _ENDS and toks[k + 2] == "=":
            self.pos = k + 3
        else:
            safe = self.eat("safe")
            k = self.pos
            kind = self.known(KINDS, "widget kind")
            wid = self.ident("widget id")
            self.expect("=")
        value = self.expression(self.value)
        attrs = self.attrs() if self.at("[") else ()
        # an attribute group after an opcall value binds to the opcall; lift
        # widget-level keys back onto the widget itself
        if isinstance(value, OperationUse):
            lifted = tuple((k, v) for k, v in value.attributes if k in WIDGET_ATTRS)
            if lifted:
                value = value._replace(attributes=tuple((k, v) for k, v in value.attributes if k not in WIDGET_ATTRS))
                attrs = lifted + attrs
        return _new(Widget, (kind, wid, value, safe, attrs, self.span(k)))

    def value(self) -> ValueBinding:
        t = self.toks[self.pos]
        if t[:1] == '"':
            self.pos += 1
            return _new(Literal, (_unquote(t),))
        if t[:1] in _IDENT_START and t not in _ENDS:
            if self.toks[self.pos + 1] == "(":
                return self.opcall()
            self.pos += 1
            return _new(Ref, (t,))
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
                args.append(_new(Arg, (safe, self.value())))
                if not self.eat(","):
                    break
        self.expect(")")
        capability = None
        toks, p = self.toks, self.pos
        if toks[p] == "use":
            rn, cn = toks[p + 1], toks[p + 3]
            if rn[:1] in _IDENT_START and rn not in _ENDS and toks[p + 2] == "." and cn[:1] in _IDENT_START \
                    and cn not in _ENDS:
                self.pos = p + 4
                capability = (rn, cn)
            else:
                self.pos = p + 1
                rn = self.ident("resource name")
                self.expect(".")
                capability = (rn, self.ident("capability name"))
        attrs = self.attrs() if self.at("[") else ()
        return _new(OperationUse, (name, capability, tuple(args), attrs, self.span(i0)))

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
        toks, i0 = self.toks, self.pos
        tid, order, dest = toks[i0 + 1], toks[i0 + 3], toks[i0 + 5]
        if toks[i0] == "transition" and tid[:1] in _IDENT_START and tid not in _ENDS and toks[i0 + 2] == "order" \
                and order.isdigit() and toks[i0 + 4] == "dest" and dest[:1] in _IDENT_START and dest not in _ENDS:
            self.pos = i0 + 6
        else:
            self.expect("transition")
            tid = self.ident("transition id")
            self.expect("order")
            order = toks[self.pos]
            if not order.isdigit():
                raise self.fail("expected order index")
            self.pos += 1
            self.expect("dest")
            dest = self.ident("destination name")
        ua = None
        guard = None
        if self.eat("cond"):
            p = self.pos
            t = toks[p]
            if t[:1] in _IDENT_START and toks[p + 1] == ".":
                gesture = GESTURES.get(toks[p + 2])
                if gesture is None:
                    self.pos = p + 2
                    gesture = self.known(GESTURES, "gesture")
                else:
                    self.pos = p + 3
                ua = (t, gesture)
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
                    target = toks[p0 + 1]
                    if toks[p0] == "param" and target[:1] in _IDENT_START and target not in _ENDS \
                            and toks[p0 + 2] == "=":
                        self.pos = p0 + 3
                    else:
                        self.expect("param")
                        target = self.ident("parameter name")
                        self.expect("=")
                    safe = self.eat("safe")
                    bindings.append(_new(ParamBinding, (target, safe, self.expression(self.value), self.span(p0))))
                except ParseError as e:
                    self.recover(e, p0)
                    if not (self.at("param") or self.at("}")):
                        break  # the block is not closed; the screen resumes here
        return _new(Transition, (tid, int(order), dest, ua, guard, tuple(bindings), self.span(i0)))

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
            left = _new(op, (left, self.bterm()))

    def bterm(self) -> BoolExpr:
        if self.eat("not"):
            self.count_node()
            return _new(BNot, (self.bterm(),))
        if self.eat("("):
            self.count_node()
            e = self.bexpr()
            self.expect(")")
            return e
        if self.eat("true"):
            return _new(BConst, (True,))
        if self.eat("false"):
            return _new(BConst, (False,))
        if self.toks[self.pos][:1] in _IDENT_START:
            return _new(BOp, (self.opcall(),))
        raise self.fail("expected a boolean term")


def parse(text: str, file: str = "<input>") -> ParseOutcome:
    toks, source, diags = _lex(text, file)
    parser = _Parser(source, toks)
    model = parser.storyboard()
    diags.extend(parser.diags)  # storyboard() returns no model only after an error
    return ParseOutcome(None, diags) if diags else ParseOutcome(model, [])


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
    if isinstance(v, Ref):
        return v.name
    return _fmt_op(v)


def _fmt_op(op: OperationUse) -> str:
    args = ", ".join(("safe " if a.safe else "") + _fmt_value(a.value) for a in op.args)
    out = f"{op.name}({args})"
    if op.capability:
        out += f" use {op.capability[0]}.{op.capability[1]}"
    return out + _fmt_attrs(op.attributes)


def _fmt_bool(b: BoolExpr) -> str:
    if isinstance(b, BConst):
        return "true" if b.value else "false"
    if isinstance(b, BOp):
        return _fmt_op(b.op)
    if isinstance(b, BNot):
        inner = _fmt_bool(b.inner)
        if isinstance(b.inner, (BAnd, BOr)):
            inner = f"({inner})"
        return f"not {inner}"
    op = "and" if isinstance(b, BAnd) else "or"
    left = _fmt_bool(b.left)
    right = _fmt_bool(b.right)
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
    for s in model.screens:
        lines.append("")
        head = "screen " + s.name
        if s.name == model.start != model.screens[0].name:
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
