"""Domain model: qualification, catalog, well-formedness."""

import pytest
from conftest import load_fixture, parse_text

from sbc import syntax
from sbc.model import (
    BUILTIN_CATALOG,
    OPERATION,
    Literal,
    ParamRef,
    Severity,
    Trust,
    WidgetRef,
    boolean_position_ops,
    qualify,
    sites,
    start_screen,
    validate,
)


def codes(diags):
    return sorted(d.code for d in diags)


class TestQualify:
    def test_widget_in_screen(self):
        q = qualify("Phone", "Contacts")
        assert str(q) == "Phone@Contacts"

    def test_operation_is_globally_scoped(self):
        assert qualify("dispMsg", OPERATION) == qualify("dispMsg", OPERATION)
        assert str(qualify("dispMsg", OPERATION)) == "dispMsg"

    def test_same_base_different_screens_differ(self):
        assert qualify("Status", "MsgStatus") != qualify("Status", "SaveStatus")

    def test_empty_identifier_rejected(self):
        with pytest.raises(ValueError):
            qualify("", "S")


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
        assert "WF006" in codes(validate(m))

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
        assert all(d.severity is Severity.ERROR for d in validate(m))


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
            (s, None, f, False, ParamRef("p")),
            (s, None, f, True, g),
            (s, None, g, False, Literal("x")),
            (s, None, g, False, WidgetRef("B")),
            (s, t, t, False, h),
            (s, t, h, False, ParamRef("p")),
            (s, t, t, False, k),
            (s, t, binding, True, ParamRef("p")),
        ]

        def ids(site):  # screen, transition and holder by identity
            return (id(site[0]), id(site[1]), id(site[2])) + site[3:]

        assert [ids(x) for x in sites(m)] == [ids(x) for x in expected]

    def test_filters_over_sites(self):
        m = parse_text(SITES)
        assert [op.name for op in m.operations] == ["f", "g", "h", "k"]
        assert boolean_position_ops(m) == {"h", "k"}


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
        assert start_screen(messenger) == "Messenger"

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
        assert start_screen(m) == "T"


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
