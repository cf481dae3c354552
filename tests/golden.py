"""Golden-output gate: what the `sbc` CLI prints and writes on a fixed corpus.

    python tests/golden.py            check the CLI against tests/golden.json
    python tests/golden.py --update   rewrite tests/golden.json, first listing the
                                      pairs it overwrites and a count per class

The corpus is seeded and built in memory: the fixtures; `modelgen.gen_model`
seeds 10000-10299, formatted by `format_model`, and two copies of each with
one word renamed (most of them fail to parse or to validate); the boards
(`sbdgen.dense_ladder(24, 1)`, `sparse_app(80, 1)` and `ring_run(60, 300, 1)`
with its scenario); 1,500 mutants of the fixtures, edited as the CLI fuzz
tests edit them; and 300 mutants of the fixture scenarios and of the ring
scenario's first lines, with quotes, escapes, `#`, `=`, `->` and quoted blanks
spliced in.  Each input runs through `run_cli` in-process, in a scratch
directory and under relative paths, so the output does not depend on where
the gate runs.  The fixtures and boards run `check` and `analyze`, each in
both formats, `fmt` and `generate`; the fixtures also run `simulate` with
every fixture scenario, and the ring with its own.  The models run the same
commands except `check`, which prints nothing for a well-formed model.  Renamed
models run `check`, mutants `analyze --format machine`, scenario mutants
`simulate fixtures/messenger.sbd --scenario`, and reordered models `check` and
`analyze`, both in machine format, and `generate`, whose operation signatures
type an argument by whether its name is a parameter of the screen.
Last come the hand-written inputs of tests/gate, which reach the branches
that the rest of the corpus misses; each runs the full set of commands,
`analyze --fail-on-warnings`, `analyze` with `gate/starts.sbd` (which fails
to parse) as a second input after it and before it, and `simulate` with
every scenario of tests/gate whose name starts with its own name and `_`.

golden.json holds, per input, a digest of the input itself (so that drift in
a generator shows as a corpus change, not an output change) and one digest
per command of the exit code, standard output, standard error and, for
`generate`, every file written.  A digest is the first 128 bits of a sha256,
in hex.  Update the file only for a change that alters output on purpose,
and list the entries that changed, and why, with the change.

Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
# The gate creates about 3,000 scratch files.  On a Linux host whose disk is
# ext4, creating one took about 0.5 ms there and 0.02 ms on the tmpfs at
# /dev/shm, so the scratch directory goes on /dev/shm when it is writable.
SHM = "/dev/shm"
FIXTURES = HERE / "fixtures"
GATE = HERE / "gate"
for _p in (ROOT / "src", HERE, ROOT / "perfbench"):
    if str(_p) not in sys.path:
        sys.path.append(str(_p))

import sbdgen  # noqa: E402
from modelgen import gen_model  # noqa: E402

from sbc import cli, syntax  # noqa: E402

# Words the mutants splice in (the CLI fuzz tests use them too).
WORDS = ["app", "screen", "start", "proxy", "resource", "access", "own", "capability", "param", "transition",
         "order", "dest", "cond", "and", "or", "not", "true", "false", "safe", "use", "uri", "Button",
         "TextView", "WebView", "click", "S", "f", "a-b", "12", "12ab", "{", "}", "(", ")", "[", "]", "=", ",",
         ".", '"s"', '"a\\"b"', '"\\', '"', "\\", "#c", "\n", "\r\n", "\t", "²", "é", '"é²"', "-", "@"]

# Words and whole lines the scenario mutants splice in (the scenario fuzz
# tests use them too).
SCENARIO_WORDS = ['"', '\\"', "\\", "\\\\", "#", "# c", "=", "->", '" "', '"a b"', '"a#b"', '"a\\"b"', '"\\\\"',
                  'y="0 1"', 'y="#"', " ", "\t", "\n", "launch", "uri", "click", "swipe", "drag", "op", "env", "stop",
                  "true", "false", "Save", "Add", "savePhone", "dispMsg", "y", "é"]
SCENARIO_LINES = ['launch uri "app://contacts/{y}" y="01 23"', 'env y="a b"', 'op savePhone -> "a#b"',
                  'op dispMsg -> "a\\"b"', "click Save # comment", 'op dispMsg -> "x y" # z', 'env y="#\\\\"',
                  'op savePhone -> "a" "b"', 'op savePhone -> "a"b', "op dispMsg -> 'a b'"]

MODEL_SEEDS = range(10000, 10300)
MUTANTS = 1500
SCENARIO_MUTANTS = 300
RING_LINES = 24  # the ring scenario's lines that seed scenario mutants
RENAMES = 2  # renamed copies of each model
REORDERED = 200
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
WIDGET = re.compile(r"  (?:safe )?[A-Z]\w* ([A-Za-z_][\w-]*) = ")  # a widget line of a formatted screen

# command name -> argv, given the input path; generate adds its output directory
COMMANDS = {
    "check": lambda p: ["check", p],
    "check-machine": lambda p: ["check", "--format", "machine", p],
    "analyze": lambda p: ["analyze", p],
    "analyze-machine": lambda p: ["analyze", "--format", "machine", p],
    "fmt": lambda p: ["fmt", p],
    "generate": lambda p: ["generate", p, "-o", "out"],
    "simulate-messenger": lambda p: ["simulate", "fixtures/messenger.sbd", "--scenario", p],
    "analyze-fail-on-warnings": lambda p: ["analyze", "--fail-on-warnings", p],
    "analyze-then-starts": lambda p: ["analyze", p, PARTNER],
    "analyze-after-starts": lambda p: ["analyze", PARTNER, p],
}
PARTNER = "gate/starts.sbd"  # fails to parse; the gate writes it before the other gate inputs
FULL = ("check", "check-machine", "analyze", "analyze-machine", "fmt", "generate")
GATE_COMMANDS = (*FULL, "analyze-fail-on-warnings", "analyze-then-starts", "analyze-after-starts")
MODEL_COMMANDS = ("analyze", "analyze-machine", "fmt", "generate")  # models are well-formed: check prints nothing
MUTANT_COMMANDS = ("analyze-machine",)
RENAMED_COMMANDS = ("check",)
SCENARIO_COMMANDS = ("simulate-messenger",)
REORDERED_COMMANDS = ("check-machine", "analyze-machine", "generate")


def mutate(rng: random.Random, corpus: list[str]) -> str:
    """One fixture text with one to four random deletions and insertions."""
    text = rng.choice(corpus)
    for _ in range(rng.randint(1, 4)):
        i, j = sorted(rng.randrange(len(text) + 1) for _ in range(2))
        text = rng.choice([text[:i] + text[j:], text[:i] + rng.choice(WORDS) + text[i:],
                           text[:i] + "not " * rng.randint(1, 3000) + text[i:]])
    return text


def mutate_scenario(rng: random.Random, scenarios: list[str]) -> str:
    """One scenario text with one to three edits: a short deletion, a word
    inserted anywhere, or a line inserted at a line start."""
    text = rng.choice(scenarios)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        k = rng.choice([0] + [m.end() for m in re.finditer("\n", text)])
        text = rng.choice([text[:i] + text[i + rng.randint(1, 8):], text[:i] + rng.choice(SCENARIO_WORDS) + text[i:],
                           text[:k] + rng.choice(SCENARIO_LINES) + "\n" + text[k:]])
    return text


def rename(rng: random.Random, text: str) -> str:
    """The text with one word replaced by a word that occurs in it, which
    often leaves it ill-formed (several WF findings on one line among them)."""
    spans = [m.span() for m in WORD.finditer(text)]
    i, j = rng.choice(spans)
    return text[:i] + rng.choice(sorted({text[a:b] for a, b in spans})) + text[j:]


def reorder(rng: random.Random, text: str, collide: bool) -> str:
    """A formatted model with the top-level items of each screen body
    shuffled; a transition keeps its binding block.  With collide, one widget
    of the first screen that has parameters takes the name of one of them."""
    out: list[str] = []
    items: list[list[str]] | None = None
    for line in text.split("\n"):
        if items is None:
            out.append(line)
            if line.endswith(" {") and (line.startswith("screen ") or line.startswith("start screen ")):
                items = []
        elif line == "}":
            params = [item[0][len("  param "):] for item in items if item[0].startswith("  param ")]
            widgets = [m[1] for item in items if (m := WIDGET.match(item[0]))]
            if collide and params and widgets:
                word = re.compile(rf"(?<![\w-]){re.escape(rng.choice(widgets))}(?![\w-])")
                new = rng.choice(params)
                items = [[word.sub(new, x) for x in item] for item in items]
                collide = False
            rng.shuffle(items)
            out += [x for item in items for x in item] + [line]
            items = None
        elif line.startswith("    ") or line == "  }":
            items[-1].append(line)
        else:
            items.append([line])
    return "\n".join(out)


def corpus() -> list[tuple[str, str, tuple[str, ...], dict[str, str]]]:
    """(name, text, commands, scenarios by name) for every input, in a fixed order."""
    out = []
    fixtures = sorted(FIXTURES.rglob("*.sbd"))
    scenarios = {f"simulate {p.name}": p.read_text(encoding="utf-8")
                 for p in sorted((FIXTURES / "scenarios").glob("*.scn"))}
    for p in fixtures:
        out.append((f"fixtures/{p.relative_to(FIXTURES).as_posix()}", p.read_text(encoding="utf-8"), FULL,
                    scenarios))
    rng = random.Random(11)
    models = []
    for seed in MODEL_SEEDS:
        text = syntax.format_model(gen_model(seed))
        models.append(text)
        out.append((f"models/{seed}.sbd", text, MODEL_COMMANDS, {}))
        for k in range(RENAMES):
            out.append((f"renamed/{seed}-{k}.sbd", rename(rng, text), RENAMED_COMMANDS, {}))
    out.append(("boards/dense.sbd", sbdgen.dense_ladder(24, 1).text, FULL, {}))
    out.append(("boards/sparse.sbd", sbdgen.sparse_app(80, 1).text, FULL, {}))
    ring = sbdgen.ring_run(60, 300, 1)
    out.append(("boards/ring.sbd", ring.text, FULL, {"simulate ring.scn": ring.scenario}))
    rng = random.Random(7)
    texts = [p.read_text(encoding="utf-8") for p in fixtures]
    for i in range(MUTANTS):
        out.append((f"mutants/{i:04d}.sbd", mutate(rng, texts), MUTANT_COMMANDS, {}))
    rng = random.Random(13)
    bases = [*scenarios.values(), "\n".join(ring.scenario.splitlines()[:RING_LINES]) + "\n"]
    for i in range(SCENARIO_MUTANTS):  # fixtures/messenger.sbd is written by then
        out.append((f"scenarios/{i:04d}.scn", mutate_scenario(rng, bases), SCENARIO_COMMANDS, {}))
    rng = random.Random(17)
    formatted = [syntax.format_model(syntax.parse(text).model) for text in texts]
    for i in range(REORDERED):
        text = reorder(rng, rng.choice(models if i % 2 else formatted), i % 4 == 1)
        out.append((f"reordered/{i:04d}.sbd", text, REORDERED_COMMANDS, {}))
    gate_scenarios = sorted(GATE.glob("*.scn"))
    for p in sorted(GATE.glob("*.sbd"), key=lambda g: (f"gate/{g.name}" != PARTNER, g.name)):
        out.append((f"gate/{p.name}", p.read_text(encoding="utf-8"), GATE_COMMANDS,
                    {f"simulate gate/{q.name}": q.read_text(encoding="utf-8")
                     for q in gate_scenarios if q.name.startswith(p.stem + "_")}))
    return out


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = part.encode()
        h.update(f"{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()[:32]


def _written(top: str) -> list[str]:
    """Path and contents of every file under top, in path order, then removed."""
    parts = []
    for dirpath, _, names in sorted(os.walk(top)):
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as fh:
                parts += [os.path.relpath(path, top).replace(os.sep, "/"), fh.read()]
            os.remove(path)
    return parts


def _run(argv: list[str]) -> list[str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_cli(argv)
    return [str(code), out.getvalue(), err.getvalue()]


def compute() -> dict[str, dict[str, str]]:
    """Input and output digests per input name."""
    result: dict[str, dict[str, str]] = {}
    saved_cwd, saved_color = os.getcwd(), os.environ.get("SBC_COLOR")
    shm = SHM if os.path.isdir(SHM) and os.access(SHM, os.W_OK) else None
    with tempfile.TemporaryDirectory(dir=shm) as tmp:
        try:
            os.chdir(tmp)
            os.environ["SBC_COLOR"] = "0"
            for name, text, commands, scenarios in corpus():
                os.makedirs(os.path.dirname(name), exist_ok=True)
                with open(name, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(text)
                entry = {"input": _digest(text)}
                for command in commands:
                    entry[command] = _digest(*_run(COMMANDS[command](name)), *_written("out"))
                for command, scenario in scenarios.items():
                    scn = command.split(" ", 1)[1]
                    if not os.path.exists(scn):
                        with open(scn, "w", encoding="utf-8", newline="\n") as fh:
                            fh.write(scenario)
                    entry[command] = _digest(_digest(scenario), *_run(["simulate", name, "--scenario", scn]))
                result[name] = entry
        finally:
            os.chdir(saved_cwd)
            if saved_color is None:
                os.environ.pop("SBC_COLOR", None)
            else:
                os.environ["SBC_COLOR"] = saved_color
    return result


def changed_pairs(want: dict, got: dict) -> list[tuple[str, str, str]]:
    """(input, command, what) for every pair whose digest differs, is missing or is new."""
    out = []
    for name in sorted(set(want) | set(got)):
        w, g = want.get(name, {}), got.get(name, {})
        for command in sorted(set(w) | set(g)):
            if w.get(command) != g.get(command):
                what = "input changed" if command == "input" else "output differs"
                if command not in g:
                    what = "no longer run"
                elif command not in w:
                    what = "not in golden.json"
                out.append((name, command, what))
    return out


def differences(want: dict, got: dict) -> list[str]:
    """One line per changed (input, command) pair."""
    return [f"{name} [{command}]: {what}" for name, command, what in changed_pairs(want, got)]


def update_report(want: dict, got: dict) -> list[str]:
    """The pairs an update overwrites, then how many in each (input directory, command) class."""
    pairs = changed_pairs(want, got)
    classes = Counter((name.split("/", 1)[0], command) for name, command, _ in pairs)
    return [
        *(f"{name} [{command}]: {what}" for name, command, what in pairs),
        *(f"{n} {top}/ [{command}]" for (top, command), n in sorted(classes.items())),
        f"{len(pairs)} pairs changed in {len(classes)} classes",
    ]


def dump(digests: dict[str, dict[str, str]]) -> str:
    """golden.json's text: one line per input, in name order."""
    lines = [f"{json.dumps(name)}: {json.dumps(digests[name])}" for name in sorted(digests)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help="rewrite golden.json from the current code")
    args = parser.parse_args(argv)
    got = compute()
    if args.update:
        want = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        print("\n".join(update_report(want, got)))
        GOLDEN.write_text(dump(got), encoding="utf-8")
        print(f"wrote {len(got)} inputs to {GOLDEN}")
        return 0
    diffs = differences(json.loads(GOLDEN.read_text(encoding="utf-8")), got)
    for line in diffs:
        print(line)
    print(f"{len(diffs)} differences over {len(got)} inputs")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
