"""Scenario-driven execution of storyboards.

A run starts from a launch configuration, repeatedly extends the value store
with the current screen's widget bindings, and takes the first transition
whose user action occurred and whose guard holds, in declared order.  Values
carry a taint set of originating identifiers so that dynamic flows can be
checked against the static influence closure.

Scenario files (`.scn`) are line-oriented:

    launch                          | launch uri "app://contacts/{y}" y="0123"
    click <Widget> | swipe <Widget> | drag <Widget>
    op <name> -> "<string>"         | op <name> -> true | op <name> -> false
    env <param>="<string>"
    stop

`op` results are consumed in order per operation name; `stop` backgrounds the
app after the preceding gestures have been processed.
"""

from __future__ import annotations

import re
import shlex
from dataclasses import dataclass, field
from typing import Optional, Union

from .infoflow import _op_source_untrusted
from .model import (
    OPERATION,
    AppModel,
    BAnd,
    BConst,
    BNot,
    BOp,
    BOr,
    BoolExpr,
    Gesture,
    Literal,
    OperationUse,
    ParamRef,
    QualifiedId,
    ValueBinding,
    WidgetRef,
    builtin_cap,
    parse_uri,
    qualify,
    start_screen,
)


class ScenarioError(Exception):
    pass


@dataclass(frozen=True)
class Value:
    payload: str
    taint: frozenset[QualifiedId] = frozenset()


@dataclass(frozen=True)
class Configuration:
    current: Optional[str]  # None = terminal
    sigma: dict[QualifiedId, Value] = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.current is None


TERMINAL = Configuration(None, {})


@dataclass(frozen=True)
class Scenario:
    launch_uri: Optional[str] = None
    launch_args: tuple[tuple[str, str], ...] = ()
    gestures: tuple[tuple[str, Gesture], ...] = ()
    op_results: tuple[tuple[str, Union[str, bool]], ...] = ()  # consumed per name, in order
    uri_env: tuple[tuple[str, str], ...] = ()
    stop_after: Optional[int] = None


_GESTURES = {g.value: g for g in Gesture}
_KV = re.compile(r'^(\w+)="((?:[^"\\]|\\.)*)"$')


def _unescape(s: str) -> str:
    return s.replace('\\"', '"').replace("\\\\", "\\")


def parse_scenario(text: str, file: str = "<scenario>") -> Scenario:
    launch_uri = None
    launch_args: list[tuple[str, str]] = []
    gestures: list[tuple[str, Gesture]] = []
    op_results: list[tuple[str, Union[str, bool]]] = []
    uri_env: list[tuple[str, str]] = []
    stop_after = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        def bad(msg):
            return ScenarioError(f"{file}:{lineno}: {msg}")

        try:
            words = shlex.split(line, posix=False)
        except ValueError as e:
            raise bad(str(e))
        head = words[0]
        if head == "launch":
            if len(words) >= 2:
                if words[1] != "uri" or len(words) < 3:
                    raise bad("expected: launch uri \"...\"")
                launch_uri = words[2].strip('"')
                for w in words[3:]:
                    m = _KV.match(w)
                    if not m:
                        raise bad(f"bad launch argument {w!r}")
                    launch_args.append((m.group(1), _unescape(m.group(2))))
        elif head in _GESTURES:
            if len(words) != 2:
                raise bad(f"expected: {head} <Widget>")
            gestures.append((words[1], _GESTURES[head]))
        elif head == "op":
            if len(words) != 4 or words[2] != "->":
                raise bad('expected: op <name> -> "<string>"|true|false')
            res = words[3]
            if res == "true":
                op_results.append((words[1], True))
            elif res == "false":
                op_results.append((words[1], False))
            elif res.startswith('"') and res.endswith('"'):
                op_results.append((words[1], _unescape(res[1:-1])))
            else:
                raise bad(f"bad operation result {res!r}")
        elif head == "env":
            m = _KV.match(words[1]) if len(words) == 2 else None
            if not m:
                raise bad('expected: env <param>="<string>"')
            uri_env.append((m.group(1), _unescape(m.group(2))))
        elif head == "stop":
            stop_after = len(gestures) + 1
        else:
            raise bad(f"unknown directive {head!r}")
    return Scenario(launch_uri, tuple(launch_args), tuple(gestures), tuple(op_results), tuple(uri_env), stop_after)


class ScenarioState:
    """Consumption cursors over an immutable Scenario."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.gesture_index = 0
        self.op_ordinal: dict[str, int] = {}
        self.results_by_name: dict[str, list] = {}  # scripted results, in order
        for name, res in scenario.op_results:
            self.results_by_name.setdefault(name, []).append(res)
        self.steps_taken = 0
        self.uri_env = dict(scenario.uri_env)

    def peek_gesture(self) -> Optional[tuple[str, Gesture]]:
        gs = self.scenario.gestures
        return gs[self.gesture_index] if self.gesture_index < len(gs) else None

    def consume_gesture(self):
        if self.gesture_index < len(self.scenario.gestures):
            self.gesture_index += 1

    def next_result(self, name: str) -> tuple[int, Optional[Union[str, bool]]]:
        """Next scripted result for an operation, with its 1-based ordinal."""
        ordinal = self.op_ordinal.get(name, 0) + 1
        self.op_ordinal[name] = ordinal
        results = self.results_by_name.get(name, ())
        return ordinal, results[ordinal - 1] if ordinal <= len(results) else None


@dataclass
class Trace:
    steps: list[tuple[str, Configuration]]
    taint_pairs: set[tuple[QualifiedId, QualifiedId]]
    events: list[tuple] = field(default_factory=list)
    error: Optional[str] = None


# ---------------------------------------------------------------------------
# Value resolution and operation evaluation


def resolve_value(
    model: AppModel,
    screen: str,
    binding: ValueBinding,
    config: Configuration,
    state: ScenarioState,
) -> Optional[Value]:
    if isinstance(binding, Literal):
        return Value(binding.text)
    if isinstance(binding, WidgetRef):
        return config.sigma.get(qualify(binding.name, screen))
    if isinstance(binding, ParamRef):
        q = qualify(binding.name, screen)
        v = config.sigma.get(q)
        if v is not None:
            return v
        env = state.uri_env.get(binding.name)
        if env is not None:
            return Value(env, frozenset({q}))
        return None
    if isinstance(binding, OperationUse):
        return eval_operation(model, screen, binding, config, state)
    raise TypeError(binding)


def _check_capability(model: AppModel, op: OperationUse):
    if op.capability is None:
        return
    rn, _ = op.capability
    if builtin_cap(op.capability) is not None or model.resource(rn) is not None:
        return
    raise ScenarioError(f"operation '{op.name}' uses capability {rn}.{op.capability[1]} not available to this app")


def eval_operation(
    model: AppModel,
    screen: str,
    op: OperationUse,
    config: Configuration,
    state: ScenarioState,
    as_bool: bool = False,
) -> Value:
    _check_capability(model, op)
    taint: set[QualifiedId] = set()
    for a in op.args:
        v = resolve_value(model, screen, a.value, config, state)
        if v is not None:
            taint |= v.taint
    if _op_source_untrusted(model, op):
        taint.add(qualify(op.name, OPERATION))
    ordinal, res = state.next_result(op.name)
    if res is None:
        res = True if as_bool else f"<{op.name}#{ordinal}>"
    payload = ("true" if res else "false") if isinstance(res, bool) else res
    return Value(payload, frozenset(taint))


def eval_bool(
    model: AppModel,
    screen: str,
    expr: BoolExpr,
    config: Configuration,
    state: ScenarioState,
) -> bool:
    if isinstance(expr, BConst):
        return expr.value
    if isinstance(expr, BOp):
        return eval_operation(model, screen, expr.op, config, state, as_bool=True).payload == "true"
    if isinstance(expr, BAnd):
        # left-to-right, short-circuit: the right operand's operations keep
        # their ordinals unconsumed when the left already decides
        return eval_bool(model, screen, expr.left, config, state) and eval_bool(
            model, screen, expr.right, config, state
        )
    if isinstance(expr, BOr):
        return eval_bool(model, screen, expr.left, config, state) or eval_bool(
            model, screen, expr.right, config, state
        )
    if isinstance(expr, BNot):
        return not eval_bool(model, screen, expr.inner, config, state)
    raise TypeError(expr)


# ---------------------------------------------------------------------------
# Stepping


def init_app(model: AppModel, scenario: Scenario) -> Configuration:
    if scenario.launch_uri is None:
        return Configuration(start_screen(model), {})
    base = parse_uri(scenario.launch_uri).base
    for s in model.screens:
        if any(u.base == base for u in s.uris):
            sigma = {}
            for k, v in scenario.launch_args:
                if k not in s.all_params:
                    raise ScenarioError(f"launch argument '{k}' is not a parameter of screen '{s.name}'")
                q = qualify(k, s.name)
                sigma[q] = Value(v, frozenset({q}))
            return Configuration(s.name, sigma)
    raise ScenarioError(f"no screen exports URI '{scenario.launch_uri}'")


def _store(sigma: dict, holder: QualifiedId, value: Value):
    sigma[holder] = Value(value.payload, value.taint | {holder})


def step(
    model: AppModel, config: Configuration, state: ScenarioState
) -> tuple[Configuration, str, list[tuple]]:
    """One small step.  Returns (configuration, rule name, events)."""
    if config.terminal:
        raise ScenarioError("cannot step a terminal configuration")
    state.steps_taken += 1
    stop_after = state.scenario.stop_after
    if stop_after is not None and state.steps_taken >= stop_after:
        return TERMINAL, "stop", []

    screen = model.screen(config.current)
    sigma = dict(config.sigma)

    # widget extension: (re)bind every widget of the current screen
    for w in screen.widgets:
        v = resolve_value(model, screen.name, w.value, Configuration(screen.name, sigma), state)
        if v is not None:
            _store(sigma, qualify(w.id, screen.name), v)
    extended = Configuration(screen.name, sigma)

    gesture = state.peek_gesture()
    fired = None
    for t in sorted(screen.transitions, key=lambda t: t.order):
        if t.user_action is not None:
            if gesture is None or gesture != (t.user_action[0], t.user_action[1]):
                continue
        if t.guard is not None and not eval_bool(model, screen.name, t.guard, extended, state):
            continue
        fired = t
        break
    if gesture is not None:
        state.consume_gesture()

    if fired is None:
        return extended, "no-transition", []

    # compute destination bindings against the pre-transition store
    bound: dict[QualifiedId, Value] = {}
    for b in fired.bindings:
        v = resolve_value(model, screen.name, b.value, extended, state)
        if v is not None:
            target = qualify(b.target, fired.dest)
            bound[target] = Value(v.payload, v.taint | {target})

    if model.proxy(fired.dest) is not None:
        # leaving the app: hand the outbound values to the external screen
        event = ("proxy-exit", fired.dest, {str(q): v for q, v in bound.items()})
        return TERMINAL, "proxy-exit", [event]

    if fired.dest == screen.name:
        # self-transition: parameters survive, widget entries are cleared
        widget_ids = {qualify(w.id, screen.name) for w in screen.widgets}
        new_sigma = {q: v for q, v in sigma.items() if q not in widget_ids}
        new_sigma.update(bound)
        return Configuration(screen.name, new_sigma), "self-transition", []

    return Configuration(fired.dest, bound), "transition", []


def _observe(trace: Trace, config: Configuration):
    for holder, value in config.sigma.items():
        for origin in value.taint:
            trace.taint_pairs.add((origin, holder))


def run(model: AppModel, scenario: Scenario, step_budget: int = 100) -> Trace:
    if step_budget < 1:
        raise ValueError("step budget must be at least 1")
    state = ScenarioState(scenario)
    trace = Trace([], set())
    try:
        config = init_app(model, scenario)
    except ScenarioError as e:
        trace.error = str(e)
        return trace
    trace.steps.append(("init", config))
    _observe(trace, config)
    try:
        for _ in range(step_budget):
            if config.terminal:
                break
            config, rule, events = step(model, config, state)
            trace.steps.append((rule, config))
            trace.events.extend(events)
            for ev in events:
                if ev[0] == "proxy-exit":
                    for name, value in ev[2].items():
                        base, _, owner = name.partition("@")
                        holder = QualifiedId(base, owner or OPERATION)
                        for origin in value.taint:
                            trace.taint_pairs.add((origin, holder))
            _observe(trace, config)
    except ScenarioError as e:
        trace.error = str(e)
    return trace

