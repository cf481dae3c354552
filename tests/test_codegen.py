"""Skeleton generation: inference, gating, determinism, coverage."""

import pytest
from conftest import ILL_FORMED, load_fixture, parse_text

from sbc import codegen
from sbc.codegen import ValueType


def manifest_section(model, name):
    """The lines of the `name:` section of the model's manifest.txt."""
    lines = codegen._manifest(model).contents.splitlines()
    first = lines.index(name + ":") + 1
    end = next((i for i in range(first, len(lines)) if not lines[i].startswith("  ")), len(lines))
    return lines[first:end]


class TestSignatures:
    def test_save_phone_boolean_generated(self, messenger):
        sig = codegen.infer_signatures(messenger)["savePhone"]
        assert sig.return_type is ValueType.BOOLEAN
        assert sig.param_types == (ValueType.TEXT,)  # widget-text argument
        assert "fun savePhone(text) -> boolean\n  uses INT_STORE.write\n  # body generated from INT_STORE.write\n" in (
            codegen._ops_stub(messenger).contents)

    def test_disp_msg_text(self, messenger):
        sig = codegen.infer_signatures(messenger)["dispMsg"]
        assert sig.return_type is ValueType.TEXT  # feeds the Status TextView
        assert f"fun dispMsg(opaque) -> text\n{codegen.HOOK} dispMsg\n" in codegen._ops_stub(messenger).contents

    def test_unused_evidence_opaque(self):
        m = parse_text(
            'app "a" screen S { Button B = "b"\n'
            "transition t order 1 dest T cond B.click { param x = f() } }\n"
            "screen T { param x }"
        )
        sig = codegen.infer_signatures(m)["f"]
        assert sig.return_type is ValueType.OPAQUE

    @pytest.mark.parametrize("body", ['param p\nTextView T = "t"\nTextView U = f(p, T, "x")',
                                      'TextView U = f(p, T, "x")\nTextView T = "t"\nparam p'],
                             ids=["declared-first", "declared-after-use"])
    def test_argument_types_follow_the_screen(self, body):
        # a parameter of the using screen is opaque; a widget gives its text
        m = parse_text('app "a" screen S { ' + body + " }")
        assert codegen.infer_signatures(m)["f"].param_types == (ValueType.OPAQUE, ValueType.TEXT, ValueType.TEXT)

    @pytest.mark.parametrize("order", [0, 1], ids=["literal-first", "param-first"])
    def test_disagreeing_uses_make_an_argument_opaque(self, order):
        # f's first argument is text in one use and a parameter in the other,
        # whichever comes first; its second is text in both
        uses = ['TextView T = f("x", "y")', 'TextView U = f(p, "y")']
        m = parse_text('app "a" screen S { param p\n' + "\n".join(uses[order:] + uses[:order]) + " }")
        assert codegen.infer_signatures(m)["f"].param_types == (ValueType.OPAQUE, ValueType.TEXT)

    @pytest.mark.parametrize("order", [0, 1], ids=["bare-first", "capability-first"])
    def test_capability_comes_from_the_use_that_names_it(self, order):
        # a use without `use R.C` leaves the operation's capability to the use that names one
        uses = ["TextView T = f()", "TextView U = f() use HTTPS.get"]
        m = parse_text('app "a" screen S { ' + "\n".join(uses[order:] + uses[:order]) + " }")
        assert codegen.infer_signatures(m)["f"].capability == ("HTTPS", "get")
        units, _ = codegen.generate_all(m)
        stub = next(u.contents for u in units if u.path == "ops.stub")
        assert "  uses HTTPS.get" in stub and f"{codegen.HOOK} f" not in stub

    def test_text_via_displayed_param(self):
        m = parse_text(
            'app "a" screen S { Button B = "b"\n'
            "transition t order 1 dest T cond B.click { param x = f() } }\n"
            "screen T { param x\nTextView V = x }"
        )
        assert codegen.infer_signatures(m)["f"].return_type is ValueType.TEXT


class TestScreenUnit:
    def test_contacts_controller(self, messenger_safe):
        unit = codegen.generate_screen_unit(messenger_safe, messenger_safe.screen("Contacts"))
        assert unit.path == "screens/Contacts.ctrl"
        assert "param y" in unit.contents
        assert "on click Save:" in unit.contents
        assert "savePhone(Phone)" in unit.contents
        assert "goto SaveStatus with (x = Phone)" in unit.contents
        assert 'dispatch-external PhoneApp uri "tel://dial/{z}" app "com.android.phone"' in unit.contents

    def test_widgets_only_screen(self, messenger_safe):
        unit = codegen.generate_screen_unit(messenger_safe, messenger_safe.screen("MsgStatus"))
        assert "widget TextView Status" in unit.contents
        assert "on " not in unit.contents

    def test_guard_chain_in_order(self):
        m = parse_text(
            'app "a" screen S { Button B = "b"\n'
            "transition t1 order 1 dest S cond B.click and f()\n"
            "transition t2 order 2 dest S cond B.click and g()\n"
            "transition t3 order 3 dest S cond B.click and h() }"
        )
        text = codegen.generate_screen_unit(m, m.screens[0]).contents
        assert text.index("1: transition t1") < text.index("2: transition t2") < text.index("3: transition t3")


class TestResourceUnit:
    def test_access_and_hooks(self):
        m = parse_text(
            'app "a" resource NOTIFIER access user { priv capability notify\ncapability peek } screen S { }'
        )
        unit = codegen.generate_resource_unit(m.resources[0])
        assert unit.path == "resources/NOTIFIER.res"
        assert "access=user" in unit.contents
        assert "capability notify privileged" in unit.contents
        assert unit.contents.count(codegen.HOOK) == 2
        assert unit.contents.index("notify") < unit.contents.index("peek")

    def test_own_access_annotated(self):
        m = parse_text('app "a" resource R access own { capability c } screen S { }')
        unit = codegen.generate_resource_unit(m.resources[0])
        assert "signing identity" in unit.contents


class TestGenerateAll:
    def test_refuses_on_blocking_findings(self, browser):
        units, findings = codegen.generate_all(browser)
        assert units == [] and any(d.code == "RC002" for d in findings)

    @pytest.mark.parametrize("case", sorted(ILL_FORMED))
    def test_refuses_ill_formed_model(self, case):
        units, findings = codegen.generate_all(parse_text(ILL_FORMED[case]))
        assert units == [] and any(d.code.startswith("WF") for d in findings)

    def test_succeeds_after_fixes(self):
        m = load_fixture("browser_fixed.sbd")
        units, _ = codegen.generate_all(m)
        assert {u.path for u in units} == {
            "manifest.txt", "screens/Home.ctrl", "screens/Display.ctrl",
            "screens/DisplayFile.ctrl", "ops.stub",
        }
        assert manifest_section(m, "dependencies") == ["  builtin EXT_STORE", "  builtin HTTPS"]

    def test_warnings_do_not_block(self):
        units, _ = codegen.generate_all(load_fixture("rules/rc003_pos.sbd"))
        assert units

    def test_byte_deterministic(self, messenger_safe):
        a, _ = codegen.generate_all(messenger_safe)
        b, _ = codegen.generate_all(messenger_safe)
        assert [(u.path, u.contents) for u in a] == [(u.path, u.contents) for u in b]

    def test_coverage_markers(self, messenger_safe):
        units, _ = codegen.generate_all(messenger_safe)
        blob = "\n".join(u.contents for u in units)
        for s in messenger_safe.screens:
            assert f"controller {s.name}" in blob
            for w in s.widgets:
                assert f" {w.id} = " in blob
            for t in s.transitions:
                assert f"transition {t.id} " in blob
        for name in ["savePhone", "dispMsg", "sendMsg", "getContacts"]:
            assert f"fun {name}(" in blob

    def test_manifest_lists_uris_and_deps(self, messenger_safe):
        assert manifest_section(messenger_safe, "dependencies") == ["  builtin INT_STORE"]
        assert "  app://contacts/{y}" in manifest_section(messenger_safe, "exported-uris")

    def test_hooks_marked_for_undefined_ops(self, messenger_safe):
        units, _ = codegen.generate_all(messenger_safe)
        stub = next(u.contents for u in units if u.path == "ops.stub")
        assert f"{codegen.HOOK} dispMsg" in stub
        assert f"{codegen.HOOK} savePhone" not in stub  # body from INT_STORE.write

    def test_tls_and_cipher_defaults_documented(self):
        m = parse_text(
            'app "a" screen S { EditText M = ""\n'
            "TextView O = enc(k() use KEYSTORE.getKey, M) use CRYPTO.encrypt\n"
            "TextView N = fetch() use HTTPS.get }"
        )
        units, _ = codegen.generate_all(m)
        stub = next(u.contents for u in units if u.path == "ops.stub")
        assert "certificate pinning" in stub
        assert "random IV" in stub
