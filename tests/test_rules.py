"""Security rule checks RC001-RC006."""

import re

import pytest
from conftest import FIXTURES, load_fixture, parse_text

from sbc import rules
from sbc.model import WARNINGS, Diagnostic


def rule_fixture(name):
    return load_fixture(f"rules/{name}.sbd")


def findings_of(model):
    return [(f.code, f.severity) for f in rules.check_all(model)]


def coded(model, *codes):
    """check_all's findings with one of the codes."""
    return [f for f in rules.check_all(model) if f.code in codes]


def cert_pinning(model):
    return coded(model, "RC003", "RC004")


@pytest.mark.parametrize(
    "name,expected",
    [
        ("rc001_pos", [("RC001", "error")]),
        ("rc001_neg", []),
        ("rc002_pos", [("RC002", "error")]),
        ("rc002_neg", []),
        ("rc003_pos", [("RC003", "warning")]),
        ("rc003_neg", []),
        ("rc004_pos", [("RC004", "warning")]),
        ("rc004_neg", []),
        ("rc005_pos", [("RC005", "error")]),
        ("rc005_neg", []),
    ],
)
def test_rule_fixture(name, expected):
    assert findings_of(rule_fixture(name)) == expected


def test_severity_follows_the_code():
    # The module docstring's table, plus the flow codes: IF003 warns, the
    # violations are errors, and so is every parse and well-formedness code.
    table = dict(re.findall(r"^  (RC\d{3}) \((error|warning)\)", rules.__doc__, re.M))
    assert sorted(table) == [f"RC00{i}" for i in range(1, 7)]
    table.update({"IF001": "error", "IF002": "error", "IF003": "warning", "PAR001": "error", "WF006": "error"})
    assert {code: Diagnostic(code, "m", None).severity for code in table} == table
    assert WARNINGS == {code for code, severity in table.items() if severity == "warning"}


class TestAccessControl:
    def test_priv_all_flags(self):
        m = parse_text('app "a" resource R access all { priv capability c } screen S { }')
        assert [f.code for f in rules.check_access_control(m)] == ["RC001"]

    def test_no_priv_all_ok(self):
        m = parse_text('app "a" resource R access all { capability c } screen S { }')
        assert rules.check_access_control(m) == []


class TestWebView:
    def test_nonempty_whitelist_ok(self):
        m = parse_text('app "a" screen S { WebView w = "u" [trust-patterns={"p"}] }')
        assert rules.check_webview_whitelist(m) == []

    def test_no_webview_no_findings(self, messenger):
        assert rules.check_webview_whitelist(messenger) == []


class TestCertPinning:
    def test_pinned_by_default(self):
        m = parse_text('app "a" screen S { TextView T = f() use HTTPS.get }')
        assert cert_pinning(m) == []

    def test_disable_must_be_true(self):
        m = parse_text('app "a" screen S { TextView T = f() use HTTPS.get [disableCertPin=false] }')
        assert cert_pinning(m) == []

    def test_plain_socket_not_pinnable(self):
        # pinning rules only concern TLS-tagged capabilities
        m = parse_text('app "a" screen S { TextView T = f() use SOCKET.read [disableCertPin=true] }')
        assert cert_pinning(m) == []


class TestCipherKeys:
    def test_key_is_first_argument_only(self):
        m = parse_text(
            'app "a" screen S { EditText M = ""\n'
            "TextView O = enc(M, getKey() use KEYSTORE.getKey) use CRYPTO.encrypt }"
        )
        assert [f.code for f in coded(m, "RC005")] == ["RC005"]

    def test_zero_arg_cipher_flags(self):
        m = parse_text('app "a" screen S { TextView O = enc() use CRYPTO.encrypt }')
        assert [f.code for f in coded(m, "RC005")] == ["RC005"]

    def test_decrypt_covered_too(self):
        m = parse_text(
            'app "a" screen S { TextView O = dec(getKey() use KEYSTORE.getKey, "c") use CRYPTO.decrypt }'
        )
        assert coded(m, "RC005") == []


class TestHttp:
    def test_http_warns(self):
        m = load_fixture("categories/w2.sbd")
        assert [(f.code, f.severity) for f in coded(m, "RC006")] == [("RC006", "warning")]

    def test_https_does_not(self):
        m = load_fixture("categories/w2_fixed.sbd")
        assert coded(m, "RC006") == []


class TestCheckAll:
    def test_browser_blocking(self, browser):
        found = rules.check_all(browser)
        assert any(f.severity == "error" for f in found)
        assert any(f.code == "RC002" for f in found)

    def test_messenger_clean(self, messenger):
        assert rules.check_all(messenger) == []

    def test_warnings_do_not_block(self):
        found = rules.check_all(rule_fixture("rc003_pos"))
        assert [f.severity for f in found] == ["warning"]

    def test_concatenation_of_individual_checks(self):
        for path in sorted(FIXTURES.rglob("*.sbd")):
            m = load_fixture(str(path.relative_to(FIXTURES)))
            individual = rules.check_access_control(m) + rules.check_webview_whitelist(m)
            for rule in (rules._cert_pinning, rules._cipher_key, rules._http_use):
                individual += [f for _, op in m.operations if (f := rule(op)) is not None]
            assert rules.check_all(m) == individual, path.name

    def test_rules_independent(self):
        # removing the RC002 trigger leaves RC003 untouched
        both = parse_text(
            'app "a" screen S { WebView w = "u"\nTextView T = f() use HTTPS.get [disableCertPin=true] }'
        )
        one = parse_text(
            'app "a" screen S { TextView T = f() use HTTPS.get [disableCertPin=true] }'
        )
        assert cert_pinning(both) == cert_pinning(one)
