"""Scenario parsing and the small-step interpreter."""

import random
import re

import pytest
from conftest import FIXTURES, parse_text, taint_pairs

from modelgen import gen_model, gen_scenario
from sbc import infoflow, interp
from sbc.interp import Scenario, ScenarioState, Value
from sbc.model import OPERATION, Arg, BAnd, BConst, BNot, BOp, BOr, Gesture, Literal, OperationUse, Ref, qualify


def q(s):
    base, _, owner = s.partition("@")
    return qualify(base, owner or OPERATION)


def scn(name):
    return interp.parse_scenario((FIXTURES / "scenarios" / name).read_text(), name)


class TestScenarioParse:
    def test_gestures_and_ops(self):
        s = scn("messenger_run.scn")
        assert s.gestures == (("Add", Gesture.CLICK), ("Save", Gesture.CLICK))
        assert s.op_results == (("savePhone", True),)
        assert s.stop_after is None

    def test_launch_uri_with_args(self):
        s = scn("messenger_uri.scn")
        assert s.launch_uri == "app://contacts/{y}"
        assert s.launch_args == (("y", "0123"),)

    def test_stop_counts_preceding_gestures(self):
        s = interp.parse_scenario("launch\nclick A\nclick B\nstop\n")
        assert s.stop_after == 3

    def test_immediate_stop(self):
        assert scn("stop.scn").stop_after == 1

    def test_env_entries(self):
        s = interp.parse_scenario('env y="0123"\nenv z="a\\"b"\n')
        assert s.uri_env == (("y", "0123"), ("z", 'a"b'))

    def test_bad_directive_rejected(self):
        with pytest.raises(interp.ScenarioError):
            interp.parse_scenario("jump X\n")

    def test_quoted_blank_in_launch_argument(self):
        s = interp.parse_scenario('launch uri "app://contacts/{y}" y="01 23"\n')
        assert s.launch_uri == "app://contacts/{y}"
        assert s.launch_args == (("y", "01 23"),)

    def test_launch_uri_is_unescaped(self):
        assert interp.parse_scenario('launch uri "app://contac\\"ts/{y}"\n').launch_uri == 'app://contac"ts/{y}'

    @pytest.mark.parametrize("line", ["launch uri app://contacts/{y}", 'launch uri "a"b', "launch url \"a\""])
    def test_launch_uri_must_be_one_quoted_string(self, line):
        with pytest.raises(interp.ScenarioError, match='^run.scn:1: expected: launch uri "..."$'):
            interp.parse_scenario(line + "\n", "run.scn")

    @pytest.mark.parametrize("text, line", [
        ('launch\nlaunch uri "app://contacts/{y}" y="2"\n', 2),
        ('launch uri "app://contacts/{y}"\nenv y="1"\nlaunch\n', 3),
        ('launch\nclick Save\nlaunch uri "app://contacts/{y}" y="2"\n', 3),
        ('click Save\nlaunch\n', 2),
    ])
    def test_launch_comes_once_before_every_gesture(self, text, line):
        with pytest.raises(interp.ScenarioError, match=f"^run.scn:{line}: launch must come once, before every gesture$"):
            interp.parse_scenario(text, "run.scn")

    def test_launch_may_follow_op_env_and_comment_lines(self):
        s = interp.parse_scenario('# c\nop f -> true\nenv y="1"\nlaunch uri "app://contacts/{y}" y="2"\nclick Save\n')
        assert (s.launch_uri, s.launch_args) == ("app://contacts/{y}", (("y", "2"),))

    def test_quoted_blank_in_env(self):
        assert interp.parse_scenario('env y="a b"\n').uri_env == (("y", "a b"),)

    def test_hash_inside_quotes_is_not_a_comment(self):
        assert interp.parse_scenario('op savePhone -> "a#b"\n').op_results == (("savePhone", "a#b"),)

    def test_escaped_quote_and_backslash_in_result(self):
        s = interp.parse_scenario('op x -> "a\\"b"\nop y -> "c\\\\"\n')
        assert s.op_results == (("x", 'a"b'), ("y", "c\\"))

    def test_trailing_comment(self):
        s = interp.parse_scenario('click Save # then save\nop x -> "v" # scripted\n# whole line\n')
        assert s.gestures == (("Save", Gesture.CLICK),)
        assert s.op_results == (("x", "v"),)

    def test_words_split_on_spaces_and_tabs_only(self):
        assert interp.parse_scenario("click\t Save \n").gestures == (("Save", Gesture.CLICK),)
        with pytest.raises(interp.ScenarioError, match="unknown directive 'click\\\\xa0Save'"):
            interp.parse_scenario("click\xa0Save\n")

    @pytest.mark.parametrize("brk", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_lines_end_at_newline_only(self, brk):
        s = interp.parse_scenario(f'launch\nop f -> "a{brk}b"\nclick Save\n', "s.scn")
        assert s.op_results == (("f", f"a{brk}b"),)
        # outside quotes the character is part of a word, and the line count is by "\n" alone
        with pytest.raises(interp.ScenarioError, match="^s\\.scn:3: unknown directive"):
            interp.parse_scenario(f"launch\nclick Save\nclick{brk}Save\n", "s.scn")

    def test_crlf_lines(self):
        s = interp.parse_scenario('launch\r\nclick Save\r\nop x -> "a b"\r\nstop\r', "s.scn")
        assert s.gestures == (("Save", Gesture.CLICK),)
        assert s.op_results == (("x", "a b"),)
        assert s.stop_after == 2
        with pytest.raises(interp.ScenarioError, match="^s\\.scn:2: unknown directive 'jump'$"):
            interp.parse_scenario("launch\r\njump X\r\n", "s.scn")

    def test_a_lone_carriage_return_is_part_of_its_word(self):
        with pytest.raises(interp.ScenarioError, match="^s\\.scn:1: unknown directive 'click\\\\rSave'$"):
            interp.parse_scenario("click\rSave\n", "s.scn")
        with pytest.raises(interp.ScenarioError, match="^s\\.scn:1: expected: click <Widget>$"):
            interp.parse_scenario("click A\rB C\r\n", "s.scn")

    @pytest.mark.parametrize("line", ['op x -> "ab', 'op x -> "a\\"', 'click Sa"ve', 'env y="a b'])
    def test_unclosed_quote_is_located(self, line):
        with pytest.raises(interp.ScenarioError, match=r"^run\.scn:2: No closing quotation$"):
            interp.parse_scenario(f"click Save\n{line}\n", "run.scn")


# The reference reader: the scenario grammar's words as one regular expression
# over each "\n" line, with no memo.  A quoted run's body is written as an
# alternation here, not unrolled as in `interp`.
REF_WORD = re.compile(r'(?:[^ \t"#]|"(?:[^"\\]|\\.)*")+|#.*|"')
REF_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')

# Pieces of random `op` lines: plain words, quoted runs holding blanks, tabs,
# `#`, escaped quotes and backslashes, lone quotes and backslashes, comments,
# non-ASCII characters and characters that `str.split()` splits on, which
# belong to a word here.
PIECES = ["op", "f", "g1", "->", "-", ">", "true", "false", '"', '\\', '\\\\', '\\"', "#", "# c", '"a"', '""',
          '"a b"', '"a\tb"', '"#"', '"a#b"', '"\\""', '"\\\\"', '"a\\"b"', '"x', 'y"', "\x0c", "\x0b", "\x1f",
          "é", "\u2028"]


def reference_op_line(line):
    """What the reference reads from one `op` line: (name, result), or the
    error message."""
    words = REF_WORD.findall(line)
    if words and words[-1][0] == "#":
        words.pop()
    if '"' in words:
        return "No closing quotation"
    if len(words) != 4 or words[0] != "op" or words[2] != "->":
        return 'expected: op <name> -> "<string>"|true|false'
    res = words[3]
    if res in ("true", "false"):
        return words[1], res == "true"
    m = REF_STRING.fullmatch(res)
    if not m:
        return f"bad operation result {res!r}"
    return words[1], m[1].replace('\\"', '"').replace("\\\\", "\\")


def random_op_line(rng, heads=None):
    """A random `op` line; its first three parts come from heads when given, so
    that lines of one text differ in their results alone."""
    def blank():
        return rng.choice([" ", "\t", "  ", " \t"])

    def run():
        return "".join(rng.choice(PIECES) for _ in range(rng.choice([1, 1, 1, 2, 3])))

    head = rng.choice(heads) if heads else ["op", run(), "->" if rng.random() < 0.8 else run()]
    parts = [*head, run() if rng.random() < 0.5 else '"' + run() + '"']
    if rng.random() < 0.2:
        parts.append(rng.choice(["# note", '# "', "#"]))
    return rng.choice(["", " "]) + "".join(p + blank() for p in parts[:-1]) + parts[-1]


class TestScenarioReader:
    def test_reader_agrees_with_the_reference_on_random_lines(self):
        rng = random.Random(18)
        for _ in range(400):
            heads = [["op", rng.choice(["f", "g1", "f g"]), "->"] for _ in range(2)] if rng.random() < 0.5 else None
            lines = [random_op_line(rng, heads) for _ in range(rng.randint(1, 6))]
            lines += rng.sample(lines, rng.randint(0, len(lines)))  # repeated lines are read once
            if rng.random() < 0.3:  # a comment line with a non-ASCII character, which reads as no directive
                lines.insert(rng.randrange(len(lines) + 1), "# é")
            text = "\n".join(lines) + "\n"
            expected = [reference_op_line(line) if line != "# é" else None for line in lines]
            bad = [(i, e) for i, e in enumerate(expected, 1) if isinstance(e, str)]
            if bad:
                lineno, message = bad[0]
                with pytest.raises(interp.ScenarioError) as e:
                    interp.parse_scenario(text, "r.scn")
                assert str(e.value) == f"r.scn:{lineno}: {message}", repr(text)
            else:
                got = interp.parse_scenario(text, "r.scn").op_results
                assert got == tuple(e for e in expected if e is not None), repr(text)

    def test_each_line_alone_agrees_with_the_reference(self):
        rng = random.Random(19)
        for _ in range(3000):
            line = random_op_line(rng)
            expected = reference_op_line(line)
            try:
                got = interp.parse_scenario(line, "r.scn").op_results[0]
            except interp.ScenarioError as e:
                got = str(e).removeprefix("r.scn:1: ")
            assert got == expected, repr(line)


class TestInit:
    def test_normal_launch(self, messenger):
        c = interp.init_app(messenger, Scenario())
        assert c.current == "Messenger" and c.sigma == {}

    def test_uri_launch_seeds_tainted_params(self, messenger):
        c = interp.init_app(messenger, scn("messenger_uri.scn"))
        assert c.current == "Contacts"
        v = c.sigma[q("y@Contacts")]
        assert v.payload == "0123" and v.taint == {q("y@Contacts")}

    def test_unknown_uri_rejected(self, messenger):
        with pytest.raises(interp.ScenarioError):
            interp.init_app(messenger, Scenario(launch_uri="nope://x"))

    def test_single_screen_default(self):
        m = parse_text('app "a" screen Only { }')
        assert interp.init_app(m, Scenario()).current == "Only"


class TestScenarioState:
    def test_results_consumed_per_name_in_order(self):
        state = ScenarioState(Scenario(op_results=(("f", "a"), ("g", True), ("f", "b"), ("g", False))))
        taken = [state.next_result(n) for n in ("f", "g", "g", "f", "f", "h", "g")]
        assert taken == [(1, "a"), (1, True), (2, False), (2, "b"), (3, None), (1, None), (3, None)]


class TestStep:
    def test_save_click_reaches_save_status(self, messenger):
        sc = scn("messenger_uri.scn")
        state = ScenarioState(sc)
        c = interp.init_app(messenger, sc)
        c, rule, _ = interp.step(messenger, c, state)
        assert rule == "transition" and c.current == "SaveStatus"
        assert c.sigma[q("x@SaveStatus")].payload == "0123"

    def test_false_guard_leaves_screen(self, messenger):
        sc = Scenario(gestures=(("Save", Gesture.CLICK),), op_results=(("savePhone", False),),
                      uri_env=(("y", "0123"),))
        state = ScenarioState(sc)
        c = interp.step(messenger, interp.init_app(messenger, sc), state)[0]
        # scripted false: the transition does not fire; widgets were extended
        assert c.current == "Messenger"

    def test_stop_erases_store(self, messenger):
        sc = scn("stop.scn")
        state = ScenarioState(sc)
        c, rule, _ = interp.step(messenger, interp.init_app(messenger, sc), state)
        assert rule == "stop" and c.terminal and c.sigma == {}

    def test_ordered_evaluation_skips_later_guards(self, messenger):
        # Save click fires transition 1; transition 2's destination is a proxy
        sc = Scenario(launch_uri="app://contacts/{y}", launch_args=(("y", "1"),),
                      gestures=(("Save", Gesture.CLICK),), op_results=(("savePhone", True),))
        state = ScenarioState(sc)
        c, rule, _ = interp.step(messenger, interp.init_app(messenger, sc), state)
        assert c.current == "SaveStatus"

    def test_gesture_consumed_even_without_fire(self, messenger):
        # step n takes gesture n: a step that fires nothing still uses up its gesture
        sc = Scenario(gestures=(("Send", Gesture.CLICK), ("Add", Gesture.CLICK)), op_results=(("sendMsg", False),))
        state = ScenarioState(sc)
        c, rule, _ = interp.step(messenger, interp.init_app(messenger, sc), state)
        assert (rule, c.current) == ("no-transition", "Messenger")
        c, rule, _ = interp.step(messenger, c, state)
        assert (rule, c.current) == ("transition", "Contacts")

    def test_stop_between_gestures(self, messenger):
        t = interp.run(messenger, interp.parse_scenario("launch\nclick Save\nstop\nclick Send\n"), step_budget=5)
        assert [(r, c.current) for r, c in t.steps] == [("init", "Messenger"), ("no-transition", "Messenger"),
                                                        ("stop", None)]

    def test_proxy_exit_carries_outbound_values(self, messenger):
        sc = Scenario(launch_uri="app://contacts/{y}", launch_args=(("y", "777"),),
                      gestures=(("Call", Gesture.CLICK),))
        state = ScenarioState(sc)
        c, rule, events = interp.step(messenger, interp.init_app(messenger, sc), state)
        assert rule == "proxy-exit" and c.terminal
        assert events[0][1] == "PhoneApp"
        assert events[0][2][qualify("z", "PhoneApp")].payload == "777"

    def test_self_transition_clears_widgets_keeps_params(self):
        m = parse_text(
            'app "a" screen S uri "app://s/{p}" { param x\nTextView T = p\nButton B = "b"\n'
            "transition t order 1 dest S cond B.click { param x = T } }"
        )
        sc = Scenario(launch_uri="app://s/{p}", launch_args=(("p", "v"),),
                      gestures=(("B", Gesture.CLICK),))
        state = ScenarioState(sc)
        c, rule, _ = interp.step(m, interp.init_app(m, sc), state)
        assert rule == "self-transition"
        assert q("T@S") not in c.sigma
        assert c.sigma[q("p@S")].payload == "v"
        assert c.sigma[q("x@S")].payload == "v"

    def test_cross_screen_erases_everything_but_bindings(self, messenger):
        sc = scn("messenger_uri.scn")
        state = ScenarioState(sc)
        c = interp.init_app(messenger, sc)
        c, _, _ = interp.step(messenger, c, state)
        assert set(c.sigma) == {q("x@SaveStatus")}


class TestEval:
    # each node compiles once per run against a screen and the run's state; the
    # compiled form reads the run's store, which starts empty
    def test_and_const(self, messenger):
        state = ScenarioState(Scenario())
        guard = interp._compile_guard(messenger, messenger.screen("Messenger"), BAnd(BConst(True), BConst(False)), state)
        assert guard() is False

    def test_not_scripted_false(self, messenger):
        state = ScenarioState(Scenario(op_results=(("f", False),)))
        guard = interp._compile_guard(messenger, messenger.screen("Messenger"), BNot(BOp(OperationUse("f", None))), state)
        assert guard() is True

    def test_or_short_circuit_preserves_ordinals(self, messenger):
        state = ScenarioState(Scenario(op_results=(("f", True), ("g", False), ("f", False))))
        expr = BOr(BOp(OperationUse("f", None)), BOp(OperationUse("g", None)))
        guard = interp._compile_guard(messenger, messenger.screen("Messenger"), expr, state)
        assert guard() is True
        assert "g" not in state.op_ordinal  # right operand never evaluated
        assert guard() is False and state.op_ordinal == {"f": 2, "g": 1}  # f false: g decides

    def test_and_short_circuit_preserves_ordinals(self, messenger):
        state = ScenarioState(Scenario(op_results=(("f", False),)))
        expr = BAnd(BOp(OperationUse("f", None)), BOp(OperationUse("g", None)))
        assert interp._compile_guard(messenger, messenger.screen("Messenger"), expr, state)() is False
        assert "g" not in state.op_ordinal

    def test_default_results(self, messenger):
        state = ScenarioState(Scenario())
        value = interp._compile_value(messenger, messenger.screen("Messenger"), OperationUse("mystery", None), state)
        assert [value().payload, value().payload] == ["<mystery#1>", "<mystery#2>"]

    def test_unscripted_guard_defaults_to_true(self, messenger):
        state = ScenarioState(Scenario(op_results=(("f", "true"), ("f", "no"))))
        guard = interp._compile_guard(messenger, messenger.screen("Messenger"), BOp(OperationUse("f", None)), state)
        assert [guard(), guard(), guard()] == [True, False, True]  # the string "true" holds too

    def test_untrusted_source_taints_result(self, messenger):
        state = ScenarioState(Scenario())
        screen = messenger.screen("Messenger")
        v = interp._compile_value(messenger, screen, OperationUse("pull", ("EXT_STORE", "read")), state)()
        assert q("pull") in v.taint

    def test_argument_taint_reaches_result(self, messenger):
        state = ScenarioState(Scenario(op_results=(("f", "r"),)))
        op = OperationUse("f", None, (Arg(False, Ref("Phone")), Arg(False, Literal("x"))))
        value = interp._compile_value(messenger, messenger.screen("Contacts"), op, state)
        state.store[q("Phone@Contacts")] = Value("1", frozenset({q("y@Contacts"), q("Phone@Contacts")}))
        v = value()
        assert v == Value("r", frozenset({q("y@Contacts"), q("Phone@Contacts")}))

    def test_foreign_capability_rejected_at_runtime(self, messenger):
        state = ScenarioState(Scenario())
        screen = messenger.screen("Messenger")
        op = OperationUse("f", ("OTHER", "cap"), (Arg(False, OperationUse("g", None)),))
        value = interp._compile_value(messenger, screen, op, state)  # compiling does not raise
        with pytest.raises(interp.ScenarioError) as e:
            value()
        assert str(e.value) == "operation 'f' uses capability OTHER.cap not available to this app"
        assert state.op_ordinal == {}  # raised before the argument was evaluated
        with pytest.raises(interp.ScenarioError):
            interp._compile_guard(messenger, screen, BOp(op), state)()

    def test_resolve_uri_env_fallback(self, messenger):
        state = ScenarioState(Scenario(uri_env=(("y", "q"),)))
        value = interp._compile_value(messenger, messenger.screen("Contacts"), Ref("y"), state)
        v = value()
        assert v.payload == "q" and v.taint == {q("y@Contacts")}
        state.store[q("y@Contacts")] = stored = Value("s", frozenset())
        assert value() is stored  # the store wins over the env

    def test_resolve_missing_widget_undefined(self, messenger):
        # Phone is a widget of Contacts, so the URI environment never supplies it
        state = ScenarioState(Scenario(uri_env=(("Phone", "q"),)))
        assert interp._compile_value(messenger, messenger.screen("Contacts"), Ref("Phone"), state)() is None

    def test_resolve_literal(self, messenger):
        # a literal compiles to its constant value
        state = ScenarioState(Scenario())
        v = interp._compile_value(messenger, messenger.screen("Messenger"), Literal("hi"), state)
        assert v.payload == "hi" and v.taint == frozenset()

    def test_source_trust_is_settled_once_per_use(self, messenger, monkeypatch):
        calls, evaluations = [], []
        original, next_result = interp._op_source_untrusted, ScenarioState.next_result

        def counted(model, op):
            calls.append(op.name)
            return original(model, op)

        def taken(state, name):  # one scripted result per evaluation
            evaluations.append(name)
            return next_result(state, name)

        monkeypatch.setattr(interp, "_op_source_untrusted", counted)
        monkeypatch.setattr(ScenarioState, "next_result", taken)
        sc = interp.parse_scenario("launch\nclick Send\nop sendMsg -> false\nclick Send\nop sendMsg -> false\n"
                                   "click Add\nclick Save\nop savePhone -> true\n")
        t = interp.run(messenger, sc, step_budget=6)
        assert t.error is None
        stepped = {c.current for (_, c), (rule, _) in zip(t.steps, t.steps[1:]) if rule != "stop"}
        assert stepped == {"Messenger", "Contacts", "SaveStatus"}
        # sendMsg and getContacts ran twice, savePhone once and dispMsg twice:
        # seven evaluations of the four uses on the screens the run stepped from
        assert sorted(calls) == sorted(op.name for s, op in messenger.operations if s.name in stepped)
        assert len(calls) == 4 and len(evaluations) == 7


class TestRun:
    def test_messenger_walk(self, messenger):
        t = interp.run(messenger, scn("messenger_run.scn"), step_budget=4)
        assert [c.current for _, c in t.steps][:3] == ["Messenger", "Contacts", "SaveStatus"]
        assert t.error is None

    def test_immediate_stop(self, messenger):
        t = interp.run(messenger, scn("stop.scn"), step_budget=5)
        assert len(t.steps) == 2 and t.steps[-1][1].terminal

    def test_taint_pairs_within_closure(self, messenger):
        t = interp.run(messenger, scn("messenger_uri.scn"), step_budget=6)
        cl = infoflow.closure(infoflow.build_influences(messenger)).pairs
        assert taint_pairs(t) <= set(cl)
        assert (q("y@Contacts"), q("x@SaveStatus")) in taint_pairs(t)

    def test_literal_only_model_no_cross_taint(self):
        # storing adds the holder itself to the taint, so only reflexive
        # pairs may appear when every value is a literal
        m = parse_text('app "a" screen S { TextView T = "hi" }')
        t = interp.run(m, Scenario(), step_budget=3)
        assert all(a == b for a, b in taint_pairs(t))

    def test_deterministic(self, messenger):
        a = interp.run(messenger, scn("messenger_uri.scn"), step_budget=6)
        b = interp.run(messenger, scn("messenger_uri.scn"), step_budget=6)
        assert [(r, c.current, sorted(map(str, c.sigma))) for r, c in a.steps] == [
            (r, c.current, sorted(map(str, c.sigma))) for r, c in b.steps
        ]

    def test_progress_on_random_pairs(self):
        for seed in range(60):
            m = gen_model(seed)
            t = interp.run(m, gen_scenario(seed, m), step_budget=10)
            assert t.error is None, f"seed {seed}: {t.error}"
            # every non-terminal snapshot except the last stepped successfully
            for rule, c in t.steps[:-1]:
                assert not c.terminal
