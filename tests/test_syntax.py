"""Lexer, parser, and canonical formatter."""

import glob
import random
import sys
import time
from pathlib import Path

import pytest
from conftest import FIXTURES, parse_text, shown
from golden import reorder
from modelgen import gen_model

from sbc import codegen, syntax
from sbc.codegen import ValueType
from sbc.model import Gesture, Literal, OperationUse, Ref

ALL_FIXTURES = sorted(glob.glob(str(FIXTURES / "**" / "*.sbd"), recursive=True))
# the hand-written gate inputs that parse (cutoff.sbd is cut off mid-item)
GATE = sorted(str(p) for p in (Path(__file__).parent / "gate").glob("*.sbd"))
PARSED_GATE = [p for p in GATE if syntax.parse(Path(p).read_text(encoding="utf-8"), p).ok]


def records(node):
    """Every record in a model, the model included."""
    if isinstance(node, tuple):
        if hasattr(node, "_fields"):
            yield node
        for child in node:
            yield from records(child)


def lex_offsets(text):
    """_lex's tokens, each token's offset, read through its source, and its diagnostics."""
    toks, source, diags = syntax._lex(text, "t")
    return toks, [source.position(i)[0] for i in range(len(toks))], diags


class TestParse:
    def test_messenger_screens(self):
        out = syntax.parse((FIXTURES / "messenger.sbd").read_text(), "messenger.sbd")
        assert out.ok
        assert [s.name for s in out.model.screens] == ["Messenger", "Contacts", "MsgStatus", "SaveStatus"]

    @pytest.mark.parametrize("path", ALL_FIXTURES + PARSED_GATE, ids=lambda p: Path(p).stem)
    def test_every_record_has_all_its_fields(self, path):
        # The parser builds records with tuple.__new__, which checks no field
        # count.  It also gives every record a span, which validate and the
        # flow analysis report as `holder.span`, and it decides the start
        # screen, which the interpreter reads as `model.start`.
        model = syntax.parse(Path(path).read_text(), path).model
        found = list(records(model))
        assert [r for r in found if len(r) != len(r._fields)] == []
        assert [r for r in found if "span" in r._fields and r.span is None] == []
        names = [s.name for s in model.screens]
        assert model.start in names if names else model.start is None

    def test_empty_screen(self):
        m = parse_text('app "a" screen S { }')
        assert m.start == "S"
        assert m.screens[0].widgets == ()

    def test_unknown_widget_kind(self):
        out = syntax.parse('app "a" screen S { Foo x = "v" }', "t")
        assert not out.ok
        assert any("Foo" in d.message for d in out.diagnostics)

    @pytest.mark.parametrize("text", ["", "   ", "# c\n"], ids=["empty", "blanks", "comment"])
    def test_no_app_is_one_error(self, text):
        out = syntax.parse(text, "t")
        assert out.model is None
        assert [(d.code, d.message) for d in out.diagnostics] == [("PAR002", "expected 'app', found end of input")]

    def test_failure_never_yields_model(self):
        out = syntax.parse('app "a" screen S { Button }', "t")
        assert out.model is None and out.diagnostics

    def test_recovers_to_report_multiple_errors(self):
        out = syntax.parse(
            'app "a"\nscreen S { Button B = =\nTextView T = =\nButton C = "b" }', "t"
        )
        assert not out.ok
        assert len(out.diagnostics) >= 2

    def test_recovery_after_an_unknown_gesture_reads_the_next_item(self):
        # recovery starts at the unknown word, so t2 is read and its own error reported
        out = syntax.parse('app "a"\nscreen S {\n  Button Next = "n"\n  transition t1 order 1 dest S cond Next.tap\n'
                           '  transition t2 order 2 dest S cond Next.click { param = x }\n}\n', "t")
        assert [(d.span.line, d.span.column, d.code, d.message) for d in out.diagnostics] == [
            (4, 42, "PAR003", "unknown gesture 'tap'"), (5, 56, "PAR002", "expected parameter name, found '='")]

    BLOCK = 'app "a"\nscreen S {\n  Button B = "b"\n  transition t order 1 dest S cond B.click {\n'

    @pytest.mark.parametrize("body, expected", [
        ('    param p = f(p, )\n  }\n}\n', [(5, 20, "expected a value, found ')'")]),
        ('    param p = }\n  TextView T = "x"\n}\n', [(5, 15, "expected a value, found '}'")]),
        ('    param p = f(p, )\n    param q = g(, )\n  }\n}\n',
         [(5, 20, "expected a value, found ')'"), (6, 17, "expected a value, found ','")]),
        ('    param p = f(p, )\n  transition u order 2 dest S\n}\n', [(5, 20, "expected a value, found ')'")]),
        ('    Button X = "x"\n  }\n  TextView T = "y"\n}\n', [(5, 5, "expected 'param', found 'Button'")]),
    ], ids=["bad-argument", "missing-value", "two-bindings", "unclosed-block", "not-a-binding"])
    def test_recovers_inside_a_binding_block(self, body, expected):
        # the block's '}' closes the block, not the screen
        out = syntax.parse(self.BLOCK + body, "t")
        assert [(d.span.line, d.span.column, d.message) for d in out.diagnostics] == expected

    @pytest.mark.parametrize("text, expected", [
        ('screen S { TextView T = }\nscreen R { }\n', [(2, 25, "expected a value, found '}'")]),
        ('screen S { TextView T = [trust-patterns={"a" "b"}] }\nscreen R { }\n',
         [(2, 25, "expected a value, found '['")]),
        ('screen S { TextView T = "x" [trust-patterns={"a" "b"}] }\nscreen R { }\n',
         [(2, 50, "expected '}', found 'b'")]),
        ('screen S uri { TextView T = "x" }\nscreen R { }\n', [(2, 14, "expected uri string, found '{'")]),
        ('screen S { transition t order x dest S { param p = "a" } }\nscreen R { }\n',
         [(2, 31, "expected order index, found 'x'")]),
        ('resource R access own { capability }\nscreen S { }\n', [(2, 36, "expected capability name, found '}'")]),
        ('}\nscreen R { }\n', [(2, 1, "expected 'screen', 'proxy', or 'resource', found '}'")]),
    ], ids=["screen-brace", "pattern-set-at-value", "pattern-set-item", "header-block", "binding-block-skipped",
            "resource-brace", "stray-brace"])
    def test_a_failing_brace_closes_the_innermost_block(self, text, expected):
        # one error each: a block the failed item opened is skipped whole
        out = syntax.parse('app "a"\n' + text, "t")
        assert [(d.span.line, d.span.column, d.message) for d in out.diagnostics] == expected

    @pytest.mark.parametrize("text, expected", [
        ('screen S {\n  Button B = "b"\nscreen R { }\nproxy P uri "x://y"\n',
         [(4, 1, "expected screen body item or '}', found 'screen'")]),
        ('screen S {\n  Button B = "b"\nscreen R { Foo X = "v" }\nproxy P uri "x://y"\n',
         [(4, 1, "expected screen body item or '}', found 'screen'"), (4, 12, "unknown widget kind 'Foo'")]),
        ('screen S {\n  Button B = "b"\nstart screen R { }\n', [(4, 1, "expected screen body item or '}', found 'start'")]),
        ('screen S {\n  WebView W = "u" [trust-patterns={"a"]\n}\nscreen R { }\nproxy P uri "x://y"\n',
         [(3, 39, "expected '}', found ']'")]),
        ('screen S {\n  WebView W = "u" [trust-patterns={"a"]\nscreen R { }\nproxy P uri "x://y"\n',
         [(3, 39, "expected '}', found ']'")]),
        ('screen S {\n  TextView T = "a" [k=\nresource R access own { capability c }\n',
         [(4, 1, "expected an attribute value, found 'resource'")]),
        ('screen S {\n  Button B = "b"\n  transition t order 1 dest S cond B.click {\n    param p = "x"\n'
         'screen R { }\n', [(6, 1, "expected 'param' or '}', found 'screen'")]),
        ('resource R access own { capability c\nscreen S { }\n', [(3, 1, "expected 'capability' or '}', found 'screen'")]),
        ('screen S {\n  Button B = "b"\n  transition t order 1 dest S cond B.click {\n    param p = \n'
         'screen R { }\n', [(6, 1, "expected a value, found 'screen'")]),
    ], ids=["screen", "next-screen-read", "start", "pattern-set", "pattern-set-and-screen", "attribute-value",
            "binding-block", "resource", "missing-value"])
    def test_a_missing_brace_ends_the_block_at_the_next_item(self, text, expected):
        # one error for the missing '}'; the items after it are read as items
        out = syntax.parse('app "a"\n' + text, "t")
        assert [(d.span.line, d.span.column, d.message) for d in out.diagnostics] == expected

    @pytest.mark.parametrize("text, expected", [
        ('screen S { TextView T = proxy }', "expected a value, found 'proxy'"),
        ('screen S { TextView T = f(start) }', "expected a value, found 'start'"),
        ('screen S { Button screen = "b" }', "expected widget id, found 'screen'"),
        ('screen S { TextView T = resource() }', "expected a value, found 'resource'"),
        ('screen proxy { }', "expected screen name, found 'proxy'"),
    ], ids=["value", "argument", "widget-id", "operation", "screen-name"])
    def test_an_item_word_is_no_name(self, text, expected):
        # the words that start a storyboard item are reserved
        out = syntax.parse('app "a"\n' + text, "t")
        assert out.diagnostics[0].message == expected

    def test_a_second_start_marker_is_an_error(self):
        # reported at the marker, and the screens after it are still read
        out = syntax.parse('app "a"\nstart screen A { }\nstart screen B { Button }\nstart screen C { }\n', "t")
        assert [(d.code, d.span.line, d.span.column, d.message) for d in out.diagnostics] == [
            ("PAR002", 3, 1, "expected at most one 'start' screen, found 'start'"),
            ("PAR002", 3, 25, "expected widget id, found '}'"),
            ("PAR002", 4, 1, "expected at most one 'start' screen, found 'start'"),
        ]

    def test_unclosed_bodies_read_in_linear_time(self):
        # each unclosed body ends at the next screen, not at the end of the
        # file (4,000 such bodies took 6.5 s when a read-ahead did not stop)
        t0 = time.perf_counter()
        out = syntax.parse('app "a"\n' + 'screen S {\n  Button B = "b"\n' * 4000, "t")
        assert time.perf_counter() - t0 < 1
        assert [d.span.line for d in out.diagnostics] == list(range(4, 8001, 2)) + [8002]

    @pytest.mark.parametrize("path", [FIXTURES / "messenger.sbd", Path(__file__).parent / "gate" / "guards.sbd"],
                             ids=lambda p: p.stem)
    def test_every_prefix_parses(self, path):
        # A board cut before or after any token parses to a model or to
        # diagnostics, never to an exception: the parser reads several tokens
        # ahead of its position, also where the input ends.
        text = path.read_text(encoding="utf-8")
        toks, offsets, _ = lex_offsets(text)
        cuts = sorted({*offsets, *(o + len(t) for t, o in zip(toks, offsets))})
        assert len(cuts) > len(toks)
        for cut in cuts:
            out = syntax.parse(text[:cut], "t")
            assert out.ok != bool(out.diagnostics), cut

    def test_spans_point_into_input(self):
        text = 'app "a" screen S { Foo x = "v" }'
        out = syntax.parse(text, "t")
        d = out.diagnostics[0]
        assert d.span.line == 1
        assert 1 <= d.span.column <= len(text)

    def test_uri_params_extracted(self):
        m = parse_text('app "a" screen S uri "app://contacts/{y}" { }')
        assert m.screens[0].uris[0].base == "app://contacts"
        assert m.screens[0].uris[0].params == ("y",)
        assert m.screens[0].all_params == ("y",)

    def test_gesture_kinds(self):
        m = parse_text(
            'app "a" screen S { Button B = "b"\n'
            "transition t1 order 1 dest S cond B.swipe\n"
            "transition t2 order 2 dest S cond B.drag }"
        )
        actions = [t.user_action[1] for t in m.screens[0].transitions]
        assert actions == [Gesture.SWIPE, Gesture.DRAG]

    def test_string_escapes(self):
        m = parse_text(r'app "a" screen S { TextView T = "say \"hi\" \\ there" }')
        assert m.screens[0].widgets[0].value == Literal('say "hi" \\ there')

    def test_comments_ignored(self):
        m = parse_text('app "a" # trailing\n# whole line\nscreen S { }')
        assert m.app_id == "a"

    def test_trusted_patterns_alias(self):
        m = parse_text('app "a" screen S { WebView w = "u" [trusted-patterns={"p"}] }')
        assert m.screens[0].widgets[0].attr("trust-patterns") == ("p",)

    def test_widget_attrs_lifted_off_opcall_value(self):
        m = parse_text('app "a" screen S { WebView w = f() use HTTPS.get [allowJS=true, trust-patterns={"p"}] }')
        w = m.screens[0].widgets[0]
        assert w.attr("trust-patterns") == ("p",)
        assert isinstance(w.value, OperationUse) and w.value.attributes == ()

    def test_safe_arg_and_binding(self):
        m = parse_text(
            'app "a" screen S { Button B = "b"\n'
            "transition t order 1 dest T cond B.click and f(safe B) { param x = safe B } }\n"
            "screen T { param x }"
        )
        t = m.screens[0].transitions[0]
        assert t.guard.op.args[0].safe
        assert t.bindings[0].safe

    def test_boolean_precedence_left_assoc(self):
        m = parse_text(
            'app "a" screen S { Button B = "b"\n'
            "transition t order 1 dest S cond B.click and not f() and g() or h() }"
        )
        g = m.screens[0].transitions[0].guard
        # ((not f) and g) or h
        assert type(g).__name__ == "BOr"
        assert type(g.left).__name__ == "BAnd"
        assert type(g.left.left).__name__ == "BNot"

    def test_name_resolution_param_vs_widget(self):
        m = parse_text('app "a" screen S { param p\nTextView T = p\nTextView U = f(T) }')
        s = m.screens[0]
        # a name is a parameter of the screen that uses it, or else its widget
        assert s.widgets[0].value == Ref("p") and "p" in s.all_params
        assert s.widgets[1].value.args[0].value == Ref("T") and "T" not in s.all_params


    def test_name_spelled_as_a_keyword_resolves(self):
        # `param` after `dest` names a screen, so Button here is no parameter
        m = parse_text('app "a" screen param { }\nscreen S { transition t order 1 dest param\n'
                       'Button Button = "b"\nTextView U = f(Button) }')
        assert codegen.infer_signatures(m)["f"].param_types == (ValueType.TEXT,)  # a widget's text


class TestFormat:
    @pytest.mark.parametrize("path", ALL_FIXTURES, ids=lambda p: Path(p).stem)
    def test_round_trip_fixed_point(self, path):
        m = syntax.parse(Path(path).read_text(), path).model
        once = syntax.format_model(m)
        again = syntax.parse(once, path)
        assert again.ok
        assert again.model == m  # structural equality
        assert syntax.format_model(again.model) == once  # fixed point

    def test_empty_screen_layout(self):
        text = syntax.format_model(parse_text('app "a" screen S { }'))
        assert "screen S {\n}" in text

    def test_deterministic(self, messenger):
        assert syntax.format_model(messenger) == syntax.format_model(messenger)

    def test_start_marker_preserved_when_not_first(self):
        m = parse_text('app "a" screen S { } start screen T { }')
        assert "start screen T" in syntax.format_model(m)


def kind(tok):
    """A token's kind, told by its first character."""
    if not tok:
        return "EOF"
    return {'"': "STRING"}.get(tok[0], "INT" if tok[0].isdigit() else "IDENT" if tok[0] in syntax._IDENT_START
                               else "PUNCT")


def lex(text):
    toks, offsets, diags = lex_offsets(text)
    assert toks[-1] == "" and "" not in toks[:-1]
    return ([(kind(t), syntax._unquote(t) if kind(t) == "STRING" else t, text.count("\n", 0, o) + 1,
              o - text.rfind("\n", 0, o), len(t)) for t, o in zip(toks, offsets)],
            [(d.code, d.message, d.span.line, d.span.column, d.span.length) for d in diags])


# (kind, text, line, column, length); a STRING's text is unescaped and its
# length counts the quotes and the escapes
LEX_CASES = [
    (r'"a\"" x', [("STRING", 'a"', 1, 1, 5), ("IDENT", "x", 1, 7, 1), ("EOF", "", 1, 8, 0)], []),
    (r'"a\\" "\q"', [("STRING", "a\\", 1, 1, 5), ("STRING", r"\q", 1, 7, 4), ("EOF", "", 1, 11, 0)], []),
    ('"ab\\', [("EOF", "", 1, 5, 0)], [("PAR001", "unterminated string literal", 1, 1, 4)]),
    ('x \\', [("IDENT", "x", 1, 1, 1), ("EOF", "", 1, 4, 0)], [("PAR001", "unexpected character '\\\\'", 1, 3, 1)]),
    ('"a\\"\nb', [("IDENT", "b", 2, 1, 1), ("EOF", "", 2, 2, 0)], [("PAR001", "unterminated string literal", 1, 1, 4)]),
    ("a\r\n b\r\n", [("IDENT", "a", 1, 1, 1), ("IDENT", "b", 2, 2, 1), ("EOF", "", 3, 1, 0)], []),
    ("12ab 7", [("INT", "12", 1, 1, 2), ("IDENT", "ab", 1, 3, 2), ("INT", "7", 1, 6, 1), ("EOF", "", 1, 7, 0)], []),
    ("trust-patterns a-b- -c", [("IDENT", "trust-patterns", 1, 1, 14), ("IDENT", "a-b-", 1, 16, 4),
                                ("IDENT", "c", 1, 22, 1), ("EOF", "", 1, 23, 0)],
     [("PAR001", "unexpected character '-'", 1, 21, 1)]),
    ('"é²" é ²', [("STRING", "é²", 1, 1, 4), ("EOF", "", 1, 9, 0)],
     [("PAR001", "unexpected character 'é'", 1, 6, 1), ("PAR001", "unexpected character '²'", 1, 8, 1)]),
    ("x @@@ y", [("IDENT", "x", 1, 1, 1), ("IDENT", "y", 1, 7, 1), ("EOF", "", 1, 8, 0)],
     [("PAR001", "3 unexpected characters starting with '@'", 1, 3, 3)]),
    ("@a@", [("IDENT", "a", 1, 2, 1), ("EOF", "", 1, 4, 0)],
     [("PAR001", "unexpected character '@'", 1, 1, 1), ("PAR001", "unexpected character '@'", 1, 3, 1)]),
    ("a # c", [("IDENT", "a", 1, 1, 1), ("EOF", "", 1, 6, 0)], []),
    ("a \t ", [("IDENT", "a", 1, 1, 1), ("EOF", "", 1, 5, 0)], []),
    ("{}()[]=,.", [("PUNCT", c, 1, i, 1) for i, c in enumerate("{}()[]=,.", 1)] + [("EOF", "", 1, 10, 0)], []),
]
LEX_IDS = ["escaped-quote-last", "escaped-backslash-last", "backslash-at-eof", "backslash-outside-string",
           "escaped-quote-at-newline", "crlf", "int-then-ident", "dash-in-ident", "non-ascii", "bad-run",
           "bad-runs-apart", "comment-at-eof", "blanks-at-eof", "punctuation"]


class TestLex:
    @pytest.mark.parametrize("text, tokens, diags", LEX_CASES, ids=LEX_IDS)
    def test_golden(self, text, tokens, diags):
        assert lex(text) == (tokens, diags)


IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
NAME_CHARS = IDENT_START | set("0123456789-")
STARTS = IDENT_START | set('0123456789 \t\r\n#"{}()[]=,.')  # of a token, a blank, a comment or a string


def reference_lex(text):
    """What _lex should give, read one character at a time: (token, offset)
    pairs ending with ("", len(text)), and the PAR001 errors as (message,
    offset, length)."""
    tokens, errors, i, n = [], [], 0, len(text)
    while i < n:
        c, start = text[i], i
        if c in " \t\r\n":
            i += 1
        elif c == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif c == '"':
            i += 1
            while i < n and text[i] not in '"\n':
                i += 2 if text[i] == "\\" and text[i + 1:i + 2] in ('"', "\\") else 1
            if i < n and text[i] == '"':
                tokens.append((text[start:i + 1], start))
                i += 1
            else:
                errors.append(("unterminated string literal", start, i - start))
        elif c in IDENT_START:
            while i < n and text[i] in NAME_CHARS:
                i += 1
            tokens.append((text[start:i], start))
        elif "0" <= c <= "9":
            while i < n and "0" <= text[i] <= "9":
                i += 1
            tokens.append((text[start:i], start))
        elif c in "{}()[]=,.":
            i += 1
            tokens.append((c, start))
        else:  # a run of characters that start no token
            while i < n and text[i] not in STARTS:
                i += 1
            k = i - start
            msg = f"unexpected character {c!r}" if k == 1 else f"{k} unexpected characters starting with {c!r}"
            errors.append((msg, start, k))
    return tokens + [("", n)], errors


def line_and_column(text, offset):
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


# Pieces of the random texts: blanks, comments, strings terminated and not,
# with escapes and lone backslashes, characters that start no token (ASCII and
# not), digits, punctuation and keywords.
LEX_PIECES = [" ", "  ", "\t", "\r", "\n", "\r\n", "#", "# c", '#"x', '"', '"a"', '"a b"', '""', '"\\"', '"\\\\"',
              '"a\\"b"', '"\\q"', '"a\\', "\\", "\\\\", '\\"', "é", "²", "@", "@@", "-", "\v", "\f", "\x85", "\xa0",
              "\u2028", "$", "0", "12", "12ab", "x", "a-b", "_", "screen", "Button", "param", "safe", *"{}()[]=,."]


class TestLexProperties:
    def test_matches_a_reference_tokenizer(self):
        rng = random.Random(19)
        for case in range(3000):
            text = "".join(rng.choice(LEX_PIECES) for _ in range(rng.randint(0, 40)))
            toks, offsets, diags = lex_offsets(text)
            want_tokens, want_errors = reference_lex(text)
            assert list(zip(toks, offsets)) == want_tokens, (case, text)
            assert [(d.code, d.message, d.span.line, d.span.column, d.span.length) for d in diags] == [
                ("PAR001", msg, *line_and_column(text, o), k) for msg, o, k in want_errors], (case, text)

    @pytest.mark.parametrize("text, tokens, errors", [
        ('"\\' * 100_000, 1, [("unterminated string literal", 0, 200_000)]),
        ('x "' + "a" * 100_000, 2, [("unterminated string literal", 2, 100_001)]),
        ("@" * 100_000 + " x", 2, [("100000 unexpected characters starting with '@'", 0, 100_000)]),
        ("# c\n" * 50_000 + "x", 2, []),
    ], ids=["lone-quote-backslash-runs", "unterminated-string", "bad-characters", "comment-lines"])
    def test_long_inputs_read_in_linear_time(self, text, tokens, errors):
        t0 = time.perf_counter()
        toks, _, diags = syntax._lex(text, "t")
        assert time.perf_counter() - t0 < 1
        assert len(toks) == tokens
        assert [(d.message, d.span.column - 1, d.span.length) for d in diags] == errors


class TestEofColumn:
    def test_after_trailing_comment(self):
        out = syntax.parse('app "x"\nscreen S {  # open', "t")
        d = out.diagnostics[-1]
        assert (d.code, d.span.line, d.span.column) == ("PAR002", 2, 19)
        assert d.message.endswith("found end of input")

    def test_after_unterminated_string(self):
        out = syntax.parse('app "x"\nscreen S { TextView T = "abc', "t")
        assert [(d.code, d.span.line, d.span.column, d.span.length) for d in out.diagnostics] == [
            ("PAR001", 2, 25, 4), ("PAR002", 2, 29, 0), ("PAR002", 2, 29, 0)]
        assert out.diagnostics[1].message == "expected a value, found end of input"


def assert_positions(text, file="t"):
    """Parse text twice, and check every span of a record or a diagnostic
    against the reference tokenizer: its line and column are those of its
    offset, counted a character at a time, and its length is its token's or
    its lexer error's.  A span's index is its token's index."""
    out, again = syntax.parse(text, file), syntax.parse(text, file)
    assert (out.model, out.diagnostics) == (again.model, again.diagnostics)
    tokens, errors = reference_lex(text)
    lexer = [d for d in out.diagnostics if d.code == "PAR001"]
    assert [d.message for d in lexer] == [message for message, _, _ in errors]
    placed = [(d.span, offset, length) for d, (_, offset, length) in zip(lexer, errors)]  # (span, offset, length)
    for span in [r.span for r in records(out.model) if "span" in r._fields] + [
            d.span for d in out.diagnostics if d.code != "PAR001"]:
        token, offset = tokens[span.index]
        placed.append((span, offset, len(token)))
    assert placed
    for span, offset, length in placed:
        assert (span.file, span.line, span.column, span.length) == (file, *line_and_column(text, offset), length)


class TestPositions:
    @pytest.mark.parametrize("path", ALL_FIXTURES + GATE, ids=lambda p: Path(p).stem)
    def test_files(self, path):
        assert_positions(Path(path).read_text(encoding="utf-8"), path)

    def test_generated_models(self):
        for seed in range(300):
            assert_positions(syntax.format_model(gen_model(seed)), f"gen{seed}")

    @pytest.mark.parametrize("text", [case[0] for case in LEX_CASES], ids=LEX_IDS)
    def test_lexer_errors(self, text):
        assert_positions(text)

    def test_a_fill_overtaken_at_any_line_keeps_every_position(self):
        # Threads may race through the fill of a source's first read: run a
        # whole second fill at each line of a first one, as a thread switch
        # there would, and every position must still be right.
        text = (FIXTURES / "messenger.sbd").read_text()
        want = [(s.line, s.column) for s in self.spans(text)]
        fill = syntax.Source._fill.__code__
        for stop in sorted({line for _, _, line in fill.co_lines() if line and line > fill.co_firstlineno}):
            spans, overtaken = self.spans(text), []

            def in_fill(frame, event, arg):
                if event == "line" and frame.f_lineno == stop and not overtaken:
                    overtaken.append(spans[0].source.position(0))  # trace functions run untraced
                return in_fill

            previous = sys.gettrace()
            sys.settrace(lambda frame, event, arg: in_fill if frame.f_code is fill else None)
            try:
                got = [(s.line, s.column) for s in spans]
            finally:
                sys.settrace(previous)
            assert overtaken and got == want, stop

    @staticmethod
    def spans(text):
        return [r.span for r in records(syntax.parse(text, "t").model) if "span" in r._fields]


def guard_model(guard):
    return f'app "a" screen S {{ Button B = "b"\ntransition t order 1 dest S cond {guard} }}\n'


LIMIT = syntax.MAX_EXPRESSION_NODES


class TestExpressionLimit:
    # shape -> a model whose one expression holds n operators and calls
    SHAPES = {
        "not": lambda n: guard_model("not " * (n - 1) + "g()"),
        "parentheses": lambda n: guard_model("(" * (n - 1) + "g()" + ")" * (n - 1)),
        "and-chain": lambda n: guard_model("not " * (1 - n % 2) + " and ".join(["g()"] * ((n + 1) // 2))),
        "nested-calls": lambda n: 'app "a" screen S { TextView T = ' + "f(" * n + '"x"' + ")" * n + " }\n",
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_at_limit_parses(self, shape):
        assert syntax.parse(self.SHAPES[shape](LIMIT), "t").ok

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_over_limit_is_par004(self, shape):
        out = syntax.parse(self.SHAPES[shape](LIMIT + 1), "t")
        assert [d.code for d in out.diagnostics] == ["PAR004"]
        assert f"at most {LIMIT} operators and calls in one expression" in out.diagnostics[0].message

    def test_each_expression_counts_alone(self):
        text = guard_model(" and ".join(["g()"] * (LIMIT // 2)) + " { param p = " + "f(" * LIMIT + "p" + ")" * LIMIT + " }")
        assert syntax.parse(text.replace("Button B", "param p Button B"), "t").ok


class TestRandomModels:
    def test_format_parse_format_fixed_point(self):
        for seed in range(1000):
            once = syntax.format_model(gen_model(seed))
            out = syntax.parse(once, "gen")
            assert out.ok, (seed, shown(out.diagnostics))
            assert syntax.format_model(out.model) == once, seed

    def test_names_resolve_whatever_the_item_order(self):
        # shuffled bodies use parameters and widgets before declaring them
        rng = random.Random(5)
        for seed in range(300):
            m = gen_model(seed)
            out = syntax.parse(reorder(rng, syntax.format_model(m), False), "gen")
            for want, got in zip(m.screens, out.model.screens, strict=True):
                assert set(got.widgets) == set(want.widgets), (seed, want.name)
                assert set(got.transitions) == set(want.transitions), (seed, want.name)
            assert codegen.infer_signatures(out.model) == codegen.infer_signatures(m), seed
