"""Domain model: qualification, catalog, well-formedness."""

import pytest
from conftest import load_fixture, parse_text

from sbc import syntax
from sbc.model import (
    BUILTIN_CATALOG,
    OPERATION,
    Severity,
    Trust,
    out_transitions,
    qualify,
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


class TestLookups:
    def test_out_transitions_sorted(self, messenger):
        ts = out_transitions(messenger, "Contacts")
        assert [t.order for t in ts] == [1, 2]
        assert ts[0].dest == "SaveStatus"  # Save-click first

    def test_out_transitions_empty(self, messenger):
        assert out_transitions(messenger, "MsgStatus") == []

    def test_out_transitions_unknown_screen(self, messenger):
        with pytest.raises(KeyError):
            out_transitions(messenger, "Nope")

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
