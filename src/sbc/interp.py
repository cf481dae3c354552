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

Scenario files (`.scn`) are line-oriented:

    launch                          | launch uri "app://contacts/{y}" y="0123"
    click <Widget> | swipe <Widget> | drag <Widget>
    op <name> -> "<string>"         | op <name> -> true | op <name> -> false
    env <param>="<string>"
    stop

Words are separated by spaces and tabs.  A quoted run `"..."` belongs to its
word even when it holds blanks or `#`, and in a quoted string `\"` stands for
a quote and `\\` for a backslash.  A `#` outside quotes starts a comment that
runs to the end of the line; a quote left open is an error.

`op` results are consumed in order per operation name; `stop` backgrounds the
app after the preceding gestures have been processed.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional, Union

from .infoflow import _op_source_untrusted
from .model import (
    OPERATION,
    AppModel,
    BAnd,
    BConst,
    BOp,
    BOr,
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
from .syntax import GESTURES, _unescape


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
# quote that is never closed.
_WORD = re.compile(r'(?:[^ \t"#]|"(?:[^"\\]|\\.)*")+|#.*|"')
_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')
_KV = re.compile(r'(\w+)=' + _STRING.pattern)


def _bad(file: str, lineno: int, msg: str) -> ScenarioError:
    return ScenarioError(f"{file}:{lineno}: {msg}")


def parse_scenario(text: str, file: str = "<scenario>") -> Scenario:
    launch_uri = None
    launch_args: list[tuple[str, str]] = []
    gestures: list[tuple[str, Gesture]] = []
    op_results: list[tuple[str, Union[str, bool]]] = []
    uri_env: list[tuple[str, str]] = []
    stop_after = None
    plain = text.isascii() and "\x1f" not in text  # then str.split() splits on blanks alone
    for lineno, line in enumerate(text.splitlines(), 1):
        if plain and '"' not in line and "#" not in line:
            words = line.split()
        else:
            words = _WORD.findall(line)
            if words and words[-1][0] == "#":
                words.pop()
        if not words:
            continue
        if '"' in words:
            raise _bad(file, lineno, "No closing quotation")
        head = words[0]
        if head in GESTURES:
            if len(words) != 2:
                raise _bad(file, lineno, f"expected: {head} <Widget>")
            gestures.append((words[1], GESTURES[head]))
        elif head == "op":
            if len(words) != 4 or words[2] != "->":
                raise _bad(file, lineno, 'expected: op <name> -> "<string>"|true|false')
            res = words[3]
            if res == "true" or res == "false":
                op_results.append((words[1], res == "true"))
            elif m := _STRING.fullmatch(res):
                op_results.append((words[1], _unescape(m[1])))
            else:
                raise _bad(file, lineno, f"bad operation result {res!r}")
        elif head == "launch":
            if len(words) >= 2:
                m = len(words) >= 3 and words[1] == "uri" and _STRING.fullmatch(words[2])
                if not m:
                    raise _bad(file, lineno, "expected: launch uri \"...\"")
                launch_uri = _unescape(m[1])
                for w in words[3:]:
                    m = _KV.fullmatch(w)
                    if not m:
                        raise _bad(file, lineno, f"bad launch argument {w!r}")
                    launch_args.append((m[1], _unescape(m[2])))
        elif head == "env":
            m = _KV.fullmatch(words[1]) if len(words) == 2 else None
            if not m:
                raise _bad(file, lineno, 'expected: env <param>="<string>"')
            uri_env.append((m[1], _unescape(m[2])))
        elif head == "stop":
            stop_after = len(gestures) + 1
        else:
            raise _bad(file, lineno, f"unknown directive {head!r}")
    return Scenario(launch_uri, tuple(launch_args), tuple(gestures), tuple(op_results), tuple(uri_env), stop_after)


class ScenarioState:
    """Consumption cursors over an immutable Scenario, `steps_taken` being the
    gesture cursor too, and the `_plan` of each screen the run has visited."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.op_ordinal: dict[str, int] = {}
        self.results_by_name: dict[str, list] = {}  # scripted results, in order
        for name, res in scenario.op_results:
            self.results_by_name.setdefault(name, []).append(res)
        self.steps_taken = 0
        self.uri_env = dict(scenario.uri_env)
        self.plans: dict[str, tuple] = {}  # screen name -> its `_plan`

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
# Value resolution and operation evaluation, against the current screen's store


def resolve_value(
    model: AppModel, screen: Screen, binding: ValueBinding, sigma: dict, state: ScenarioState
) -> Optional[Value]:
    if isinstance(binding, Literal):
        return Value(binding.text)
    if isinstance(binding, Ref):
        q = QualifiedId(binding.name, screen.name)
        v = sigma.get(q)
        if v is not None:
            return v
        env = state.uri_env.get(binding.name)
        if env is not None and binding.name in screen.all_params:
            return Value(env, frozenset({q}))
        return None
    return eval_operation(model, screen, binding, sigma, state)


def eval_operation(
    model: AppModel, screen: Screen, op: OperationUse, sigma: dict, state: ScenarioState, as_bool: bool = False
) -> Value:
    cap = op.capability
    if cap is not None and builtin_cap(cap) is None and model.resource(cap[0]) is None:
        raise ScenarioError(f"operation '{op.name}' uses capability {cap[0]}.{cap[1]} not available to this app")
    taint: set[QualifiedId] = set()
    for a in op.args:
        v = resolve_value(model, screen, a.value, sigma, state)
        if v is not None:
            taint |= v.taint
    if _op_source_untrusted(model, op):
        taint.add(QualifiedId(op.name, OPERATION))
    ordinal, res = state.next_result(op.name)
    if res is None:
        res = True if as_bool else f"<{op.name}#{ordinal}>"
    payload = ("true" if res else "false") if isinstance(res, bool) else res
    return Value(payload, frozenset(taint))


def eval_bool(model: AppModel, screen: Screen, expr: BoolExpr, sigma: dict, state: ScenarioState) -> bool:
    if isinstance(expr, BConst):
        return expr.value
    if isinstance(expr, BOp):
        return eval_operation(model, screen, expr.op, sigma, state, as_bool=True).payload == "true"
    if isinstance(expr, BAnd):
        # left-to-right, short-circuit: the right operand's operations keep
        # their ordinals unconsumed when the left already decides
        return eval_bool(model, screen, expr.left, sigma, state) and eval_bool(model, screen, expr.right, sigma, state)
    if isinstance(expr, BOr):
        return eval_bool(model, screen, expr.left, sigma, state) or eval_bool(model, screen, expr.right, sigma, state)
    return not eval_bool(model, screen, expr.inner, sigma, state)  # BNot


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


def _plan(model: AppModel, screen: Screen) -> tuple:
    """What `step` reads of a screen: the screen, each widget's value and holder,
    and per transition, in the order tried, its action, guard, destination,
    whether that is a proxy, and each binding's value and target."""
    widgets = tuple((w.value, QualifiedId(w.id, screen.name)) for w in screen.widgets)
    transitions = tuple((t.user_action, t.guard, t.dest, model.proxy(t.dest) is not None,
                         tuple((b.value, QualifiedId(b.target, t.dest)) for b in t.bindings))
                        for t in screen.ordered_transitions)
    return screen, widgets, transitions


def step(model: AppModel, config: Configuration, state: ScenarioState) -> tuple[Configuration, str, list[tuple]]:
    """One small step from a configuration that is not terminal.  Returns
    (configuration, rule name, events)."""
    state.steps_taken = n = state.steps_taken + 1
    scenario = state.scenario
    if scenario.stop_after is not None and n >= scenario.stop_after:
        return TERMINAL, "stop", []

    name = config.current
    plan = state.plans.get(name)
    if plan is None:
        plan = state.plans[name] = _plan(model, model.screen(name))
    screen, widgets, transitions = plan
    sigma = dict(config.sigma)

    # widget extension: (re)bind every widget of the current screen, in order
    for value, holder in widgets:
        v = resolve_value(model, screen, value, sigma, state)
        if v is not None:
            sigma[holder] = Value(v.payload, v.taint | {holder})

    gestures = scenario.gestures
    gesture = gestures[n - 1] if n <= len(gestures) else None
    for action, guard, dest, to_proxy, bindings in transitions:  # the first whose action occurred and guard holds fires
        if action in (None, gesture) and (guard is None or eval_bool(model, screen, guard, sigma, state)):
            break
    else:
        return Configuration(name, sigma), "no-transition", []

    # compute destination bindings against the pre-transition store
    bound: dict[QualifiedId, Value] = {}
    for value, target in bindings:
        v = resolve_value(model, screen, value, sigma, state)
        if v is not None:
            bound[target] = Value(v.payload, v.taint | {target})

    if to_proxy:
        # leaving the app: hand the outbound values to the external screen
        event = ("proxy-exit", dest, {str(q): v for q, v in bound.items()})
        return TERMINAL, "proxy-exit", [event]

    if dest == name:
        # self-transition: parameters survive, widget entries are cleared
        for _, holder in widgets:
            sigma.pop(holder, None)
        sigma.update(bound)
        return Configuration(name, sigma), "self-transition", []

    return Configuration(dest, bound), "transition", []


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
