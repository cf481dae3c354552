"""Domain model: records, qualification, catalog, well-formedness."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import parse_text, span_at

from sbc import model
from sbc.model import (
    BUILTIN_CATALOG,
    OPERATION,
    BAnd,
    BConst,
    BOr,
    Literal,
    QualifiedId,
    Ref,
    Trust,
    sites,
    validate,
)


def codes(diags):
    return sorted(d.code for d in diags)


# the model's records; QualifiedId is a plain tuple on purpose (edges are pairs of them)
RECORDS = sorted((c for c in vars(model).values() if isinstance(c, type) and issubclass(c, tuple)
                  and c is not QualifiedId and not c.__name__.startswith("_")), key=lambda c: c.__name__)


def make(cls, **fields):
    """A record of cls with placeholder fields, except those given."""
    return cls._make(fields.get(f, f"<{f}>") for f in cls._fields)


class TestRecords:
    def test_every_model_record_is_a_value_type(self):
        assert RECORDS and [c for c in RECORDS if c.__ne__ is tuple.__ne__] == []

    def test_a_record_equals_only_a_record_of_its_own_type(self):
        a, b = BConst(True), BConst(False)
        assert Literal("x") != Ref("x") and not Literal("x") == Ref("x")
        assert BAnd(a, b) != BOr(a, b) and not BAnd(a, b) == BOr(a, b)
        assert Literal("x") != ("x",) and ("x",) != Literal("x")
        assert Literal("x") == Literal("x") and hash(Literal("x")) == hash(Literal("x"))

    @pytest.mark.parametrize("cls", [c for c in RECORDS if "span" in c._fields], ids=lambda c: c.__name__)
    def test_span_takes_no_part_in_equality_or_hash(self, cls):
        a = make(cls, span=span_at("a.sbd", 1, 1))
        b = make(cls, span=span_at("b.sbd", 2, 3))
        assert a == b and not a != b and hash(a) == hash(b)
        other = make(cls, **{cls._fields[0]: "other"}, span=a.span)
        assert a != other and not a == other

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
    def test_fields_are_read_only(self, cls):
        r = make(cls)
        for f in cls._fields:
            with pytest.raises(AttributeError):
                setattr(r, f, "changed")

    def test_importing_the_cli_loads_no_dataclasses(self):
        src = Path(__file__).parent.parent / "src"
        out = subprocess.run([sys.executable, "-S", "-c", "import sys, sbc.cli; print(*sys.modules)"],
                             env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True)
        loaded = out.stdout.split()
        assert "sbc.cli" in loaded and "dataclasses" not in loaded


class TestQualify:
    def test_widget_in_screen(self):
        q = QualifiedId("Phone", "Contacts")
        assert str(q) == "Phone@Contacts"

    def test_operation_is_globally_scoped(self):
        assert QualifiedId("dispMsg", OPERATION) == QualifiedId("dispMsg", OPERATION)
        assert str(QualifiedId("dispMsg", OPERATION)) == "dispMsg"

    def test_same_base_different_screens_differ(self):
        assert QualifiedId("Status", "MsgStatus") != QualifiedId("Status", "SaveStatus")

class TestValidate:
    def test_messenger_is_well_formed(self, messenger):
        assert validate(messenger) == []

    def test_validate_is_pure(self, messenger):
        assert validate(messenger) == validate(messenger)

    def test_duplicate_transition_order(self):
        m = parse_text(
            'app "a" screen S { Button B = "b"\n'
            "transition t1 order 1 dest S cond B.click\n"
            "transition t2 order 1 dest S cond B.click }"
        )
        assert "WF002" in codes(validate(m))

    def test_missing_param_binding(self):
        m = parse_text(
            'app "a" screen S { Button B = "b"\ntransition t order 1 dest T cond B.click }\n'
            'screen T { param x TextView V = x }'
        )
        assert "WF003" in codes(validate(m))

    def test_extra_param_binding(self):
        m = parse_text(
            'app "a" screen S { Button B = "b"\n'
            'transition t order 1 dest T cond B.click { param x = "v" } }\n'
            "screen T { }"
        )
        assert "WF003" in codes(validate(m))

    def test_duplicate_screen_name(self):
        m = parse_text('app "a" screen S { } screen S { }')
        assert "WF001" in codes(validate(m))

    def test_duplicate_uri_base(self):
        m = parse_text('app "a" screen S uri "app://x" { } screen T uri "app://x" { }')
        assert "WF004" in codes(validate(m))

    def test_uri_param_set_mismatch(self):
        m = parse_text('app "a" screen S uri "app://x/{p}" uri "app://y/{q}" { }')
        assert "WF005" in codes(validate(m))

    def test_inconsistent_arity(self):
        m = parse_text(
            'app "a" screen S { TextView A = f("x")\nTextView B = f("x", "y") }'
        )
        assert "WF006" in codes(validate(m))

    def test_mixed_boolean_and_value_position(self):
        m = parse_text(
            'app "a" screen S { Button B = "b"\nTextView A = f("x")\n'
            'transition t order 1 dest S cond B.click and f("x") }'
        )
        # at the operation's first use, as the other two WF006 findings are
        assert [(d.code, d.span.line, d.span.column) for d in validate(m)] == [("WF006", 2, 14)]

    def test_unknown_transition_dest(self):
        m = parse_text('app "a" screen S { Button B = "b"\ntransition t order 1 dest Gone cond B.click }')
        assert "WF007" in codes(validate(m))

    def test_unknown_identifier_in_value(self):
        m = parse_text('app "a" screen S { TextView A = nope }')
        assert "WF007" in codes(validate(m))

    def test_no_screens(self):
        m = parse_text('app "a" proxy P uri "tel://x"')
        assert "WF008" in codes(validate(m))

    def test_widget_as_widget_value_rejected(self):
        m = parse_text('app "a" screen S { TextView A = "x"\nTextView B = A }')
        assert "WF009" in codes(validate(m))

    def test_webview_attr_on_textview_rejected(self):
        m = parse_text('app "a" screen S { TextView A = "x" [allowJS=true] }')
        assert "WF009" in codes(validate(m))

    def test_all_findings_are_diagnostics(self):
        m = parse_text('app "a" screen S { TextView A = nope }')
        assert all(d.severity == "error" for d in validate(m))


    def test_order_interleaves_names_with_each_transition(self):
        # Every finding is a WF on line 1, where the CLI's stable sort keeps
        # validate's order: widget names, then per transition its destination,
        # the names in its bindings, and its binding cover.
        m = parse_text(
            'app "a" screen S { TextView T = q transition t order 1 dest Nowhere { param x = r } '
            "transition u order 2 dest S { param y = w } }"
        )
        assert [d.message for d in validate(m)] == [
            "unknown identifier 'q' in screen 'S'",
            "transition 't' targets unknown screen 'Nowhere'",
            "unknown identifier 'r' in screen 'S'",
            "unknown identifier 'w' in screen 'S'",
            "transition 'u' binds 'y', not a parameter of screen 'S'",
        ]
        assert {d.span.line for d in validate(m)} == {1}


SITES = """app "a"
screen S {
  param p
  Button B = "b"
  TextView T = f(p, safe g("x", B))
  transition t order 1 dest R cond B.click and not h(p) or (k() and true) {
    param q = safe p
  }
}
screen R {
  param q
}
"""


class TestSites:
    def test_each_position_once_in_declaration_order(self):
        m = parse_text(SITES)
        s = m.screens[0]
        button, text = s.widgets
        t = s.transitions[0]
        f = text.value
        g = f.args[1].value
        h = t.guard.left.inner.op
        k = t.guard.right.left.op
        binding = t.bindings[0]
        expected = [
            (s, None, button, False, Literal("b")),
            (s, None, text, False, f),
            (s, None, f, False, Ref("p")),
            (s, None, f, True, g),
            (s, None, g, False, Literal("x")),
            (s, None, g, False, Ref("B")),
            (s, t, t, False, h),
            (s, t, h, False, Ref("p")),
            (s, t, t, False, k),
            (s, t, binding, True, Ref("p")),
        ]

        def ids(site):  # screen, transition and holder by identity
            return (id(site[0]), id(site[1]), id(site[2])) + site[3:]

        assert [ids(x) for x in sites(m)] == [ids(x) for x in expected]

    def test_filters_over_sites(self):
        m = parse_text(SITES)
        assert [(s.name, op.name) for s, op in m.operations] == [("S", "f"), ("S", "g"), ("S", "h"), ("S", "k")]
        assert {v.name for _, t, holder, _, v in m.positions if holder is t} == {"h", "k"}


class TestLookups:
    def test_out_transitions_sorted(self, messenger):
        ts = messenger.screen("Contacts").ordered_transitions
        assert [t.order for t in ts] == [1, 2]
        assert ts[0].dest == "SaveStatus"  # Save-click first

    def test_out_transitions_empty(self, messenger):
        assert list(messenger.screen("MsgStatus").ordered_transitions) == []

    def test_out_transitions_unknown_screen(self, messenger):
        assert messenger.screen("Nope") is None

    def test_start_screen_default_order(self, messenger):
        assert messenger.start == "Messenger"

    def test_first_declaration_wins(self):
        m = parse_text(
            'app "a" resource R access own { capability c }\nresource R access all { capability d }\n'
            'screen S { param x } screen S { } screen T { }\n'
            'proxy P uri "p://a/{z}" proxy P app "b" uri "p://b/{z}"'
        )
        assert m.screen("S") is m.screens[0] and m.screen("T") is m.screens[2]
        assert m.proxy("P") is m.proxies[0] and m.resource("R") is m.resources[0]
        assert m.screen("P") is None and m.proxy("S") is None and m.resource("nope") is None

    def test_start_marker_overrides(self):
        m = parse_text('app "a" screen S { } start screen T { }')
        assert m.start == "T"


class TestCatalog:
    def test_external_storage_untrusted(self):
        cap = BUILTIN_CATALOG[("EXT_STORE", "write")]
        assert cap.source_trust is Trust.UNTRUSTED
        assert cap.sink_trust is Trust.UNTRUSTED

    def test_https_trusted_and_tagged(self):
        cap = BUILTIN_CATALOG[("HTTPS", "get")]
        assert cap.source_trust is Trust.TRUSTED
        assert "https" in cap.tags

    def test_keystore_source_only(self):
        cap = BUILTIN_CATALOG[("KEYSTORE", "getKey")]
        assert cap.source_trust is Trust.TRUSTED
        assert cap.sink_trust is Trust.NONE
        assert "keystore" in cap.tags
