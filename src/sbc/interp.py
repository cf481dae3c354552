r"""Scenario-driven execution of storyboards.

A run starts from a launch configuration, repeatedly extends the value store
with the current screen's widget bindings, and takes the first transition
whose user action occurred and whose guard holds, in declared order.  Step n
takes the scenario's nth gesture, whether or not a transition fires on it;
after the last gesture only transitions without a user action can fire.
Widgets, guards and bindings are evaluated against the current screen and
its store: a name reads the store, a parameter of the screen that the store
lacks takes its value from the scenario's `env` lines, and a widget does not.
Values carry a taint set of originating identifiers so that dynamic flows can
be checked against the static influence closure.

A run compiles each screen once, on its first visit, into a plan that its
`ScenarioState` keeps: closures over the run's one store, in which a literal
is a constant Value, a name a store lookup with its env default fixed, and an
operation a callable whose capability verdict, source taint and arguments are
settled.  A step refills that store from its configuration and runs the plan.

Scenario files (`.scn`) are line-oriented.  `parse_scenario` takes LF text and
ends a line at `\n` alone; the CLI reads every file in text mode, which turns
CRLF and a lone CR into LF:

    launch                          | launch uri "app://contacts/{y}" y="0123"
    click <Widget> | swipe <Widget> | drag <Widget>
    op <name> -> "<string>"         | op <name> -> true | op <name> -> false
    env <param>="<string>"
    stop

Words are separated by spaces and tabs.  A quoted run `"..."` belongs to its
word even when it holds blanks or `#`, and in a quoted string `\"` stands for
a quote and `\\` for a backslash.  A `#` outside quotes starts a comment that
runs to the end of the line; a quote left open is an error.

A `launch` line comes at most once, before every gesture; without one the
app starts at its start screen.  `op` results are consumed in order per
operation name; `stop` backgrounds the app after the preceding gestures have
been processed.
"""

from __future__ import annotations

import re
from collections import defaultdict
from math import inf
from typing import NamedTuple, Optional, Union

from .infoflow import _op_source_untrusted
from .model import (
    OPERATION,
    AppModel,
    BAnd,
    BConst,
    BNot,
    BOp,
    BoolExpr,
    Gesture,
    Literal,
    OperationUse,
    QualifiedId,
    Ref,
    Screen,
    ValueBinding,
    builtin_cap,
    parse_uri,
)
from .syntax import GESTURES, _new, _unescape


class ScenarioError(Exception):
    pass


class Value(NamedTuple):
    payload: str
    taint: frozenset[QualifiedId] = frozenset()


class Configuration(NamedTuple):
    current: Optional[str]  # None = terminal
    sigma: dict[QualifiedId, Value]

    @property
    def terminal(self) -> bool:
        return self.current is None


TERMINAL = Configuration(None, {})


class Scenario(NamedTuple):
    launch_uri: Optional[str] = None
    launch_args: tuple[tuple[str, str], ...] = ()
    gestures: tuple[tuple[str, Gesture], ...] = ()
    op_results: tuple[tuple[str, Union[str, bool]], ...] = ()  # consumed per name, in order
    uri_env: tuple[tuple[str, str], ...] = ()
    stop_after: Optional[int] = None


# A word is a run of characters other than blanks, quotes and `#`, and of
# closed quoted runs; `#` outside quotes starts a comment; a lone `"` is a
# quote that is never closed.  Each alternative takes a whole run of plain
# characters at a time, which `re` matches faster than one character at a time.
_WORD = re.compile(r'(?:[^ \t"#]+|"[^"\\]*(?:\\.[^"\\]*)*")+|#.*|"')
_STRING = re.compile(r'"([^"\\]*(?:\\.[^"\\]*)*)"')
_KV = re.compile(r'(\w+)=' + _STRING.pattern)


def _directive(line: str) -> tuple[str, object]:
    """What one line says, as (head, value): a gesture's (widget, Gesture), an
    `op` line's (name, result), a `launch` line's (uri or None, arguments), an
    `env` line's (param, value), or `stop`; head is "" for a line without words.
    A line that says nothing valid raises ScenarioError with the reason alone."""
    words = _WORD.findall(line)
    if words and words[-1][0] == "#":
        words.pop()
    if not words:
        return "", None
    if '"' in words:
        raise ScenarioError("No closing quotation")
    head = words[0]
    if head in GESTURES:
        if len(words) != 2:
            raise ScenarioError(f"expected: {head} <Widget>")
        return head, (words[1], GESTURES[head])
    if head == "op":
        if len(words) != 4 or words[2] != "->":
            raise ScenarioError('expected: op <name> -> "<string>"|true|false')
        res = words[3]
        if res == "true" or res == "false":
            return head, (words[1], res == "true")
        if m := _STRING.fullmatch(res):
            return head, (words[1], _unescape(m[1]))
        raise ScenarioError(f"bad operation result {res!r}")
    if head == "launch":
        if len(words) == 1:
            return head, (None, ())
        m = len(words) >= 3 and words[1] == "uri" and _STRING.fullmatch(words[2])
        if not m:
            raise ScenarioError("expected: launch uri \"...\"")
        args = []
        for w in words[3:]:
            kv = _KV.fullmatch(w)
            if not kv:
                raise ScenarioError(f"bad launch argument {w!r}")
            args.append((kv[1], _unescape(kv[2])))
        return head, (_unescape(m[1]), tuple(args))
    if head == "env":
        m = _KV.fullmatch(words[1]) if len(words) == 2 else None
        if not m:
            raise ScenarioError('expected: env <param>="<string>"')
        return head, (m[1], _unescape(m[2]))
    if head == "stop":
        return head, None
    raise ScenarioError(f"unknown directive {head!r}")


def parse_scenario(text: str, file: str = "<scenario>") -> Scenario:
    launch = None  # (uri or None, arguments)
    gestures: list[tuple[str, Gesture]] = []
    op_results: list[tuple[str, Union[str, bool]]] = []
    uri_env: list[tuple[str, str]] = []
    stop_after = None
    read: dict[str, tuple[str, object]] = {}  # each distinct line is read once
    for lineno, line in enumerate(text.split("\n"), 1):
        d = read.get(line)
        if d is None:
            try:
                d = read[line] = _directive(line)
            except ScenarioError as e:
                raise ScenarioError(f"{file}:{lineno}: {e}") from None
        head, value = d
        if head in GESTURES:
            gestures.append(value)
        elif head == "op":
            op_results.append(value)
        elif head == "launch":
            if launch is not None or gestures:
                raise ScenarioError(f"{file}:{lineno}: launch must come once, before every gesture")
            launch = value
        elif head == "env":
            uri_env.append(value)
        elif head == "stop":
            stop_after = len(gestures) + 1
    launch_uri, launch_args = launch or (None, ())
    return Scenario(launch_uri, launch_args, tuple(gestures), tuple(op_results), tuple(uri_env), stop_after)


class ScenarioState:
    """One run's consumption cursors over an immutable Scenario, `steps_taken`
    being the gesture cursor too, and the compiled plan of each screen the run
    has visited, built on its first visit (`_compile_screen`)."""

    def __init__(self, scenario: Scenario):
        self.gestures = scenario.gestures
        self.stop_after = inf if scenario.stop_after is None else scenario.stop_after
        self.op_ordinal: dict[str, int] = {}
        self.results_by_name: dict[str, list] = defaultdict(list)  # scripted results, in order; read with .get
        for name, res in scenario.op_results:
            self.results_by_name[name].append(res)
        self.steps_taken = 0
        self.uri_env = dict(scenario.uri_env)
        self.plans: dict[str, tuple] = {}  # screen name -> its `_compile_screen` plan
        self.store: dict[QualifiedId, Value] = {}  # the current step's store, which every plan reads

    def next_result(self, name: str) -> tuple[int, Optional[Union[str, bool]]]:
        """Next scripted result for an operation, with its 1-based ordinal."""
        ordinal = self.op_ordinal.get(name, 0) + 1
        self.op_ordinal[name] = ordinal
        results = self.results_by_name.get(name, ())
        return ordinal, results[ordinal - 1] if ordinal <= len(results) else None


class Trace:
    def __init__(self):
        self.steps: list[tuple[str, Configuration]] = []  # (rule, configuration)
        self.events: list[tuple] = []
        self.error: Optional[str] = None  # what ended the run, if anything did


# ---------------------------------------------------------------------------
# Compilation: each screen a run visits becomes closures over the run's store
#
# A value compiles to a callable that reads `state.store` and returns the
# value's Value, or None where a name is undefined; a literal compiles to its
# constant Value.  A guard compiles to a callable that returns a bool.
# Everything a node decides by itself (its kind, an operation's capability
# verdict and source taint, a name's env default) is settled here, once per run
# and use, so that evaluation reads no model record and dispatches on no type.


def _compile_value(model: AppModel, screen: Screen, binding: ValueBinding, state: ScenarioState):
    if isinstance(binding, Literal):
        return Value(binding.text)
    if isinstance(binding, Ref):
        name, store = binding.name, state.store
        q = QualifiedId(name, screen.name)
        # a parameter that the store lacks takes its env value; a widget never does
        env = state.uri_env.get(name) if name in screen.all_params else None
        default = None if env is None else Value(env, frozenset({q}))
        return lambda: store.get(q, default)
    return _compile_operation(model, screen, binding, state)


def _compile_operation(model: AppModel, screen: Screen, op: OperationUse, state: ScenarioState, as_bool=False):
    """The operation's evaluation, with its capability verdict, source taint and
    arguments settled; each evaluation takes the operation's next scripted result,
    and an unscripted one is `true` in a guard and `<name#ordinal>` in a value."""
    name, cap = op.name, op.capability
    if cap is not None and builtin_cap(cap) is None and model.resource(cap[0]) is None:
        error = f"operation '{name}' uses capability {cap[0]}.{cap[1]} not available to this app"

        def unavailable():  # raised before any argument is evaluated, on each evaluation
            raise ScenarioError(error)

        return unavailable
    # a literal argument adds no taint and takes no result, so only the others run
    compiled = (_compile_value(model, screen, a.value, state) for a in op.args)
    args = tuple(c for c in compiled if callable(c))
    source = frozenset({QualifiedId(name, OPERATION)}) if _op_source_untrusted(model, op) else frozenset()
    next_result = state.next_result

    if as_bool:
        def holds() -> bool:
            for arg in args:
                arg()
            res = next_result(name)[1]
            return res is None or res is True or res == "true"

        return holds

    def evaluate() -> Value:
        taint = source
        for arg in args:
            v = arg()
            if v is not None:
                taint = taint | v[1]
        ordinal, res = next_result(name)
        if res is None:
            res = f"<{name}#{ordinal}>"
        elif res is True:
            res = "true"
        elif res is False:
            res = "false"
        return _new(Value, (res, taint))

    return evaluate


def _compile_guard(model: AppModel, screen: Screen, expr: BoolExpr, state: ScenarioState):
    if isinstance(expr, BConst):
        value = expr.value
        return lambda: value
    if isinstance(expr, BOp):
        return _compile_operation(model, screen, expr.op, state, as_bool=True)
    if isinstance(expr, BNot):
        inner = _compile_guard(model, screen, expr.inner, state)
        return lambda: not inner()
    left = _compile_guard(model, screen, expr.left, state)
    right = _compile_guard(model, screen, expr.right, state)
    # left to right, short-circuit: the right operand's operations keep their
    # ordinals unconsumed when the left already decides
    if isinstance(expr, BAnd):
        return lambda: left() and right()
    return lambda: left() or right()  # BOr


def _holding(compiled, holder: QualifiedId):
    """A callable that stores the compiled value in the dict it is given, under
    holder and with holder added to its taint; an undefined value stores nothing."""
    own = frozenset({holder})
    if not callable(compiled):  # a literal: its stored Value is built once per run, not once per step
        stored = Value(compiled.payload, own)

        def hold_constant(into: dict):
            into[holder] = stored

        return hold_constant

    def hold(into: dict):
        v = compiled()
        if v is not None:
            into[holder] = _new(Value, (v[0], v[1] | own))

    return hold


# ---------------------------------------------------------------------------
# Stepping


def init_app(model: AppModel, scenario: Scenario) -> Configuration:
    if scenario.launch_uri is None:
        return Configuration(model.start, {})
    base = parse_uri(scenario.launch_uri).base
    for s in model.screens:
        if any(u.base == base for u in s.uris):
            sigma = {}
            for k, v in scenario.launch_args:
                if k not in s.all_params:
                    raise ScenarioError(f"launch argument '{k}' is not a parameter of screen '{s.name}'")
                q = QualifiedId(k, s.name)
                sigma[q] = Value(v, frozenset({q}))
            return Configuration(s.name, sigma)
    raise ScenarioError(f"no screen exports URI '{scenario.launch_uri}'")


def _compile_screen(model: AppModel, screen: Screen, state: ScenarioState) -> tuple:
    """What `step` runs of a screen: each widget's `_holding` callable, in order,
    the widgets' holders, and per transition, in the order tried, its action, its
    compiled guard or None, its destination, whether that is a proxy, and each
    binding's `_holding` callable."""
    holders = tuple(QualifiedId(w.id, screen.name) for w in screen.widgets)
    widgets = tuple(_holding(_compile_value(model, screen, w.value, state), holder)
                    for w, holder in zip(screen.widgets, holders))
    transitions = tuple(
        (t.user_action, None if t.guard is None else _compile_guard(model, screen, t.guard, state), t.dest,
         model.proxy(t.dest) is not None,
         tuple(_holding(_compile_value(model, screen, b.value, state), QualifiedId(b.target, t.dest))
               for b in t.bindings))
        for t in screen.ordered_transitions)
    return widgets, holders, transitions


def step(model: AppModel, config: Configuration, state: ScenarioState) -> tuple[Configuration, str, list[tuple]]:
    """One small step from a configuration that is not terminal.  Returns
    (configuration, rule name, events)."""
    state.steps_taken = n = state.steps_taken + 1
    if n >= state.stop_after:
        return TERMINAL, "stop", []

    name, sigma = config
    plan = state.plans.get(name)
    if plan is None:
        plan = state.plans[name] = _compile_screen(model, model.screen(name), state)
    widgets, holders, transitions = plan
    store = state.store  # what the plan reads
    store.clear()
    store.update(sigma)

    # widget extension: (re)bind every widget of the current screen, in order
    for hold in widgets:
        hold(store)

    gestures = state.gestures
    gesture = gestures[n - 1] if n <= len(gestures) else None
    for action, guard, dest, to_proxy, bindings in transitions:  # the first whose action occurred and guard holds fires
        if action in (None, gesture) and (guard is None or guard()):
            break
    else:
        return _new(Configuration, (name, dict(store))), "no-transition", []

    # compute destination bindings against the pre-transition store
    bound: dict[QualifiedId, Value] = {}
    for hold in bindings:
        hold(bound)

    if to_proxy:
        # leaving the app: hand the outbound values to the external screen
        event = ("proxy-exit", dest, bound)
        return TERMINAL, "proxy-exit", [event]

    if dest == name:
        # self-transition: parameters survive, widget entries are cleared
        sigma = dict(store)
        for holder in holders:
            sigma.pop(holder, None)
        sigma.update(bound)
        return _new(Configuration, (name, sigma)), "self-transition", []

    return _new(Configuration, (dest, bound)), "transition", []


def run(model: AppModel, scenario: Scenario, step_budget: int) -> Trace:
    state = ScenarioState(scenario)
    trace = Trace()
    try:
        config = init_app(model, scenario)
        trace.steps.append(("init", config))
        for _ in range(step_budget):
            if config.terminal:
                break
            config, rule, events = step(model, config, state)
            trace.steps.append((rule, config))
            trace.events.extend(events)
    except ScenarioError as e:
        trace.error = str(e)
    return trace
