"""Seeded random storyboard and scenario generation for property tests.

Every generated model is well-formed by construction (asserted in the
property suites): consistent operation usage, exact binding coverage,
contiguous transition orders, unique names.
"""

from __future__ import annotations

import random

from sbc.model import (
    AppModel,
    Arg,
    BAnd,
    BConst,
    BNot,
    BOp,
    BOr,
    Gesture,
    Literal,
    OperationUse,
    ParamBinding,
    ProxyScreen,
    Ref,
    Screen,
    Transition,
    Uri,
    Widget,
    WidgetKind,
)

# value-position capabilities drawn from the builtin catalog, plus None
_VALUE_CAPS = [None, None, ("INT_STORE", "read"), ("EXT_STORE", "read"), ("HTTPS", "get"), ("CLIPBOARD", "read")]
_BOOL_CAPS = [None, None, ("INT_STORE", "write"), ("EXT_STORE", "write"), ("SOCKET", "write"), ("HTTP", "get")]


class _OpPool:
    """Operations with globally consistent arity, position, and capability."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.specs: dict[str, tuple[int, bool, tuple | None]] = {}
        for i in range(rng.randint(1, 5)):
            name = f"op{i}"
            is_bool = rng.random() < 0.5
            caps = _BOOL_CAPS if is_bool else _VALUE_CAPS
            self.specs[name] = (rng.randint(0, 2), is_bool, rng.choice(caps))

    def pick(self, is_bool: bool):
        options = [n for n, (_, b, _c) in self.specs.items() if b == is_bool]
        return self.rng.choice(options) if options else None


def _value(rng, pool, params, widgets, depth=0):
    """A random value binding drawn from the screen's namespace."""
    roll = rng.random()
    if roll < 0.3 or (not params and not widgets and roll < 0.7):
        return Literal(rng.choice(["a", "b", "hello"]))
    if roll < 0.5 and params:
        return Ref(rng.choice(params))
    if roll < 0.7 and widgets:
        return Ref(rng.choice(widgets))
    name = pool.pick(is_bool=False)
    if name is None or depth >= 2:
        return Literal("x")
    return _opcall(rng, pool, name, params, widgets, depth)


def _opcall(rng, pool, name, params, widgets, depth=0):
    arity, _, cap = pool.specs[name]
    args = []
    for _ in range(arity):
        if depth < 1 and rng.random() < 0.2:
            inner = pool.pick(is_bool=False)
            if inner is not None and inner != name:
                args.append(Arg(rng.random() < 0.2, _opcall(rng, pool, inner, params, widgets, depth + 1)))
                continue
        args.append(Arg(rng.random() < 0.2, _value(rng, pool, params, widgets, depth + 1)))
    return OperationUse(name, cap, tuple(args))


def _guard(rng, pool, params, widgets, depth=0):
    roll = rng.random()
    name = pool.pick(is_bool=True)
    if name is None or roll < 0.2:
        return BConst(rng.random() < 0.8)
    leaf = BOp(_opcall(rng, pool, name, params, widgets))
    if depth >= 1:
        return leaf
    if roll < 0.4:
        return BAnd(leaf, _guard(rng, pool, params, widgets, depth + 1))
    if roll < 0.5:
        return BOr(leaf, _guard(rng, pool, params, widgets, depth + 1))
    if roll < 0.6:
        return BNot(leaf)
    return leaf


def gen_model(seed: int) -> AppModel:
    rng = random.Random(seed)
    pool = _OpPool(rng)
    n = rng.randint(1, 6)
    names = [f"S{i}" for i in range(n)]

    decl_params = {s: [f"p{i}_{j}" for j in range(rng.randint(0, 2))] for i, s in enumerate(names)}
    uri_params = {s: [f"u{i}_{j}" for j in range(rng.randint(0, 1))] for i, s in enumerate(names)}

    proxies = []
    if rng.random() < 0.5:
        proxies.append(
            ProxyScreen(
                "Ext",
                Uri("ext://target", ("q",)),
                app_id="com.other.app" if rng.random() < 0.5 else None,
                safe=rng.random() < 0.3,
            )
        )

    screens = []
    for i, s in enumerate(names):
        params = decl_params[s] + uri_params[s]
        widgets = [Widget(WidgetKind.BUTTON, f"Go{i}", Literal("go"))]
        wnames = [w.id for w in widgets]
        for j in range(rng.randint(0, 2)):
            kind = rng.choice([WidgetKind.TEXT_VIEW, WidgetKind.EDIT_TEXT])
            v = _value(rng, pool, params, [])  # no widgets: a widget's own value never names one
            widgets.append(Widget(kind, f"W{i}_{j}", v, safe=rng.random() < 0.15))
            wnames.append(f"W{i}_{j}")

        transitions = []
        dests = [d for d in names if rng.random() < 0.4][:2]
        if proxies and rng.random() < 0.3:
            dests.append("Ext")
        for order, dest in enumerate(dests, 1):
            if dest == "Ext":
                targets = list(proxies[0].uri.params)
            else:
                targets = decl_params[dest]
            bindings = tuple(
                ParamBinding(t, rng.random() < 0.2, _value(rng, pool, params, wnames)) for t in targets
            )
            ua = (wnames[0], rng.choice(list(Gesture))) if rng.random() < 0.8 else None
            guard = _guard(rng, pool, params, wnames) if rng.random() < 0.6 else None
            transitions.append(Transition(f"t{i}_{order}", order, dest, ua, guard, bindings))

        uris = (Uri(f"app://s{i}", tuple(uri_params[s])),) if (uri_params[s] or rng.random() < 0.3) else ()
        screens.append(Screen(s, uris, tuple(decl_params[s]), tuple(widgets), tuple(transitions)))

    return AppModel(f"gen.app.{seed}", tuple(screens), tuple(proxies), (), names[0])


def gen_scenario(seed: int, model: AppModel):
    from sbc.interp import Scenario

    rng = random.Random(seed ^ 0x5EED)
    buttons = [(w.id, rng.choice(list(Gesture))) for s in model.screens for w in s.widgets]
    gestures = tuple(rng.choice(buttons) for _ in range(rng.randint(0, 6))) if buttons else ()
    results = []
    for _ in range(rng.randint(0, 5)):
        name = f"op{rng.randint(0, 4)}"
        results.append((name, rng.choice([True, False, "r1", "r2"])))
    env = tuple((p, f"v{j}") for s in model.screens for j, p in enumerate(s.uri_params) if rng.random() < 0.5)
    stop_after = rng.randint(1, 8) if rng.random() < 0.3 else None
    return Scenario(None, (), gestures, tuple(results), env, stop_after)
