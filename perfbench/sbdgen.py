"""Seeded storyboard and scenario generators for the benchmark.

Each generator returns the source text it wrote together with the answer a
correct `sbc` must give on it, worked out here from the generator's own
knowledge of what it emitted.  Nothing in this module imports `sbc`: the
expected flow findings come from a breadth-first search over the edges the
generator itself emitted, not from `sbc.infoflow`.

The seed changes names, literals and which screens carry which feature; the
sizes, feature counts and graph shape stay fixed, so different seeds cost the
program about the same work.

Every generated text is already in canonical form, so `sbc fmt` must print it
back unchanged.
"""

from __future__ import annotations

import random
import string
from collections import deque
from dataclasses import dataclass, field

PARAM, WIDGET, OP = "param", "widget", "op"


@dataclass
class FlowSpec:
    """The influence graph a storyboard should induce, in `sbc`'s node names
    (`name@Screen` for params and widgets, the bare name for operations)."""

    roles: dict[str, str] = field(default_factory=dict)
    edges: dict[tuple[str, str], bool] = field(default_factory=dict)  # edge -> declassified
    sources: set[str] = field(default_factory=set)
    sinks: set[str] = field(default_factory=set)

    def node(self, name: str, role: str) -> str:
        self.roles[name] = role
        return name

    def edge(self, a: str, b: str, safe: bool = False) -> None:
        self.edges[(a, b)] = self.edges.get((a, b), False) or safe


def _bfs(start: list[str], succ: dict[str, list[str]]) -> set[str]:
    seen = set(start)
    queue = deque(start)
    while queue:
        n = queue.popleft()
        for m in succ.get(n, ()):
            if m not in seen:
                seen.add(m)
                queue.append(m)
    return seen


def expected_flow_findings(spec: FlowSpec) -> set[tuple[str, str, str]]:
    """(code, source, sink) for every IF001/IF002 finding the README's flow
    rules imply on this graph.

    IF001: a widget or operation k takes an undeclassified edge from a param
    reachable from an untrusted source, or from an untrusted-source operation;
    every untrusted source s != k with an undeclassified path to k is reported.
    IF002: every node s != k with an undeclassified path into an untrusted
    sink k is reported."""
    succ: dict[str, list[str]] = {}
    unsafe_succ: dict[str, list[str]] = {}
    unsafe_pred: dict[str, list[str]] = {}
    for (a, b), safe in spec.edges.items():
        succ.setdefault(a, []).append(b)
        if not safe:
            unsafe_succ.setdefault(a, []).append(b)
            unsafe_pred.setdefault(b, []).append(a)
    tainted = _bfs(sorted(spec.sources), succ)

    targets = set()
    for (u, k), safe in spec.edges.items():
        if safe or spec.roles.get(k) not in (WIDGET, OP):
            continue
        role = spec.roles.get(u)
        if (role == PARAM and u in tainted) or (role == OP and u in spec.sources):
            targets.add(k)

    out = set()
    for s in spec.sources:
        for k in _bfs([s], unsafe_succ) & targets:
            if k != s:
                out.add(("IF001", s, k))
    for k in spec.sinks:
        for s in _bfs([k], unsafe_pred):
            if s != k:
                out.add(("IF002", s, k))
    return out


def _tags(rng: random.Random, n: int, length: int = 5) -> list[str]:
    """n distinct lowercase tags of one fixed length, in random order."""
    seen: set[str] = set()
    out = []
    while len(out) < n:
        tag = "".join(rng.choice(string.ascii_lowercase) for _ in range(length))
        if tag not in seen:
            seen.add(tag)
            out.append(tag)
    return out


def _pick(rng: random.Random, n: int, every: int) -> set[int]:
    """Exactly n // every distinct positions out of range(n), at random."""
    return set(rng.sample(range(n), n // every))


# ---------------------------------------------------------------------------
# Dense ladder


@dataclass
class Storyboard:
    text: str
    spec: FlowSpec
    screens: list[str]


def dense_ladder(screens: int, seed: int) -> Storyboard:
    """The strongly connected ladder: screen i has one param, `A = p`,
    `B = fetch(A) use HTTPS.get`, a transition to screen i+1 guarded by an
    INT_STORE.write and one to screen i-1 binding through EXT_STORE.write.
    Every fifth screen exports its param as a URI.  Operations are named per
    screen, so each screen adds one untrusted source and one untrusted sink."""
    if screens < 2:
        raise ValueError("the dense ladder needs at least two screens")
    rng = random.Random(f"dense-{screens}-{seed}")
    tags = _tags(rng, screens)
    spec = FlowSpec()
    lines = [f'app "com.bench.dense.{tags[0]}"']
    for i, tag in enumerate(tags):
        s, nxt, prv = f"S{tag}", f"S{tags[(i + 1) % screens]}", f"S{tags[i - 1]}"
        exported = i % 5 == 0
        head = f"screen {s}" + (f' uri "app://dense/{tag}/{{p}}"' if exported else "")
        lines += [
            "",
            head + " {",
            "  param p",
            "  TextView A = p",
            f"  EditText B = fetch{tag}(A) use HTTPS.get",
            f"  transition t1 order 1 dest {nxt} cond save{tag}(B) use INT_STORE.write {{",
            "    param p = B",
            "  }",
            f"  transition t2 order 2 dest {prv} {{",
            f"    param p = put{tag}(B) use EXT_STORE.write",
            "  }",
            "}",
        ]
        p, a, b = spec.node(f"p@{s}", PARAM), spec.node(f"A@{s}", WIDGET), spec.node(f"B@{s}", WIDGET)
        fetch, save, put = (spec.node(f"{op}{tag}", OP) for op in ("fetch", "save", "put"))
        spec.edge(p, a)
        spec.edge(a, fetch)
        spec.edge(fetch, b)
        spec.edge(b, save)
        spec.edge(b, f"p@{nxt}")
        spec.edge(b, put)
        spec.edge(put, f"p@{prv}")
        if exported:
            spec.sources.add(p)
        spec.sources.add(put)  # EXT_STORE.write is untrusted both ways
        spec.sinks.add(put)
    return Storyboard("\n".join(lines) + "\n", spec, [f"S{t}" for t in tags])


# ---------------------------------------------------------------------------
# Sparse app

_WORDS = ("alpha", "bravo", "delta", "hotel", "kilo", "lima", "oscar", "tango")
RESOURCES = (
    ("Prefs", "own", (("read", False), ("write", True))),
    ("Cache", "user", (("get", False), ("put", False))),
    ("Vault", "own", (("open", True),)),
)


@dataclass
class SparseApp(Storyboard):
    files: set[str] = field(default_factory=set)  # expected `generate` output paths
    ops: set[str] = field(default_factory=set)  # operation names in ops.stub
    hooks: int = 0  # expected `## HOOK` markers across all generated files
    warnings: dict[str, int] = field(default_factory=dict)  # code -> count


def sparse_app(screens: int, seed: int) -> SparseApp:
    """A realistic app whose flows stay within a screen or its successor.

    Screens form a ring of click transitions.  Some export a URI parameter,
    always declassified by a `safe` widget; some read plain HTTP into a `safe`
    widget (RC006 warnings); some carry a `safe` mark on a literal (IF003
    warnings).  No flow is an error, so `generate` passes its gate."""
    if screens < 2:
        raise ValueError("the sparse app needs at least two screens")
    rng = random.Random(f"sparse-{screens}-{seed}")
    tags = _tags(rng, screens)
    exported = _pick(rng, screens, 16)
    info = _pick(rng, screens, 2)
    status = _pick(rng, screens, 8)
    secret = _pick(rng, screens, 16)
    news = _pick(rng, screens, 12)
    label = _pick(rng, screens, 20)
    page = _pick(rng, screens, 20)
    call = _pick(rng, screens, 25)
    forward = _pick(rng, screens, 2)  # t1 binds the Name widget, not a literal

    app = SparseApp("", FlowSpec(), [f"P{t}" for t in tags])
    spec = app.spec
    lines = [f'app "com.bench.sparse.{tags[0]}"']
    for name, access, caps in RESOURCES:
        lines += ["", f"resource {name} access {access} {{"]
        lines += [f"  {'priv ' if priv else ''}capability {c}" for c, priv in caps]
        lines.append("}")
        app.files.add(f"resources/{name}.res")
        app.hooks += len(caps)

    def op(name: str) -> str:
        app.ops.add(name)
        return spec.node(name, OP)

    for i, tag in enumerate(tags):
        s, nxt, prv = f"P{tag}", f"P{tags[(i + 1) % screens]}", f"P{tags[i - 1]}"
        word = rng.choice(_WORDS)
        x, name = spec.node(f"x@{s}", PARAM), spec.node(f"Name@{s}", WIDGET)
        head = f"screen {s}"
        body = ["  param x"]
        if i in exported:
            head += f' uri "app://sparse/{tag}/{{q}}"'
            body.append("  safe TextView Greeting = q")
            q = spec.node(f"q@{s}", PARAM)
            spec.sources.add(q)
            spec.edge(q, spec.node(f"Greeting@{s}", WIDGET), safe=True)
        body += ["  TextView Title = x", f'  EditText Name = "{word}"']
        spec.edge(x, spec.node(f"Title@{s}", WIDGET))
        if i in info:
            body.append(f"  TextView Info = load{tag}(Name) use INT_STORE.read")
            spec.edge(name, op(f"load{tag}"))
            spec.edge(f"load{tag}", spec.node(f"Info@{s}", WIDGET))
        if i in status:
            body.append(f"  TextView Status = sync{tag}(Name) use Prefs.write")
            spec.edge(name, op(f"sync{tag}"))
            spec.edge(f"sync{tag}", spec.node(f"Status@{s}", WIDGET))
            app.hooks += 1  # a declared resource has no builtin body
        if i in secret:
            body.append(
                f"  TextView Secret = enc{tag}(key{tag}() use KEYSTORE.getKey, Name) use CRYPTO.encrypt"
            )
            spec.edge(op(f"key{tag}"), op(f"enc{tag}"))
            spec.edge(name, f"enc{tag}")
            spec.edge(f"enc{tag}", spec.node(f"Secret@{s}", WIDGET))
        if i in news:
            body.append(f"  safe TextView News = news{tag}() use HTTP.get")
            spec.edge(op(f"news{tag}"), spec.node(f"News@{s}", WIDGET), safe=True)
            spec.sources.add(f"news{tag}")  # plain HTTP is untrusted both ways
            spec.sinks.add(f"news{tag}")
            app.warnings["RC006"] = app.warnings.get("RC006", 0) + 1
        if i in label:
            body.append(f'  safe TextView Label = "{word}"')
            spec.node(f"Label@{s}", WIDGET)
            app.warnings["IF003"] = app.warnings.get("IF003", 0) + 1
        if i in page:
            site = f"https://{tag}.example.com"
            body.append(f'  WebView Page = "{site}/" [trust-patterns={{"{site}/*"}}]')
            spec.node(f"Page@{s}", WIDGET)
        body += ['  Button Next = "Next"', '  Button Back = "Back"']
        spec.node(f"Next@{s}", WIDGET)
        spec.node(f"Back@{s}", WIDGET)
        if i in call:
            body.append('  Button Call = "Call"')
            spec.node(f"Call@{s}", WIDGET)
        bound = "Name" if i in forward else f'"{word}"'
        body += [
            f"  transition t1 order 1 dest {nxt} cond Next.click and check{tag}(Name) use INT_STORE.write {{",
            f"    param x = {bound}",
            "  }",
            f"  transition t2 order 2 dest {prv} cond Back.click {{",
            '    param x = "back"',
            "  }",
        ]
        spec.edge(name, op(f"check{tag}"))
        if i in forward:
            spec.edge(name, f"x@{nxt}")
        if i in call:
            body += [
                "  transition t3 order 3 dest Dialer cond Call.click {",
                "    param z = Name",
                "  }",
            ]
            # a proxy with an app id is trusted: its inbound edges are declassified
            spec.edge(name, spec.node("z@Dialer", PARAM), safe=True)
        lines += ["", head + " {", *body, "}"]
        app.files.add(f"screens/{s}.ctrl")
    lines += ["", 'proxy Dialer app "com.android.phone" uri "tel://dial/{z}"']
    spec.node("z@Dialer", PARAM)
    app.files |= {"manifest.txt", "ops.stub"}
    app.text = "\n".join(lines) + "\n"
    return app


# ---------------------------------------------------------------------------
# Ring and long scenario


@dataclass
class RingRun:
    text: str
    scenario: str
    trace: str  # expected `simulate` standard output
    walk: list[str]  # screen after each step


def ring_run(screens: int, gestures: int, seed: int) -> RingRun:
    """A ring of screens and a long scripted scenario over it.

    A click moves forward when the screen's guard operation is scripted true,
    and passes a scripted string on as the next screen's param; a swipe moves
    back, passing a literal.  No value flows further than the next screen, so
    the static analysis that `simulate` runs first stays small and the run
    itself dominates.  The expected trace comes from walking the ring here,
    step by step, by the README's execution rules."""
    if screens < 3:
        raise ValueError("the ring needs at least three screens")
    rng = random.Random(f"ring-{screens}-{gestures}-{seed}")
    tags = _tags(rng, screens)
    names = [f"R{t}" for t in tags]
    lines = [f'app "com.bench.ring.{tags[0]}"']
    for i, tag in enumerate(tags):
        lines += [
            "",
            f"screen {names[i]} {{",
            "  param v",
            "  TextView Show = v",
            '  Button Next = "Next"',
            f"  transition t1 order 1 dest {names[(i + 1) % screens]} cond Next.click and ok{tag}() {{",
            f"    param v = step{tag}(Next)",
            "  }",
            f"  transition t2 order 2 dest {names[i - 1]} cond Next.swipe {{",
            '    param v = "back"',
            "  }",
            "}",
        ]

    clicks = set(rng.sample(range(gestures), gestures * 3 // 5))
    passes = set(rng.sample(sorted(clicks), len(clicks) * 4 // 5))
    scn = ["launch"]
    cur, store = 0, {}  # store: name -> payload for the current screen
    out = [f"init: {names[0]} []"]
    walk = [names[0]]

    def show(screen, store):
        items = sorted(store.items())  # "Next" < "Show" < "v", as QualifiedId sorts
        return f"{screen} [" + ", ".join(f"{k}@{screen}={v!r}" for k, v in items) + "]"

    for g in range(gestures):
        tag = tags[cur]
        store["Next"] = "Next"
        if "v" in store:
            store["Show"] = store["v"]
        if g in clicks:
            scn.append("click Next")
            ok = g in passes
            scn.append(f"op ok{tag} -> {'true' if ok else 'false'}")
            if ok:
                payload = f"w{g}{rng.choice(_WORDS)}"
                scn.append(f'op step{tag} -> "{payload}"')
                cur, store, rule = (cur + 1) % screens, {"v": payload}, "transition"
            else:
                rule = "no-transition"
        else:
            scn.append("swipe Next")
            cur, store, rule = (cur - 1) % screens, {"v": "back"}, "transition"
        out.append(f"{rule}: " + show(names[cur], store))
        walk.append(names[cur])
    scn.append("stop")
    out.append("stop: <terminal>")
    return RingRun("\n".join(lines) + "\n", "\n".join(scn) + "\n", "\n".join(out) + "\n", walk)
