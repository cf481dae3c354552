"""The statements of `src/sbc` that no input of the golden corpus executes.

    python tests/reach.py

Runs `golden.compute()` under `sys.settrace` and prints each statement in a
function body of `src/sbc` that no corpus input reaches, as
`FILE:LINE FUNCTION: SOURCE` in file and line order, then a count.  Tracing
starts before `sbc` is imported, so code that runs at import time counts as
reached.  A statement is reached when one of its own lines runs: a simple
statement's lines, or a compound statement's lines before its first nested
statement.  Docstrings are not statements here.  A run takes about three
times as long as the gate itself.

Standard library only; pytest does not collect it.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "sbc"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_lines(stmt: ast.stmt) -> range:
    """The lines of the statement that are not lines of a statement nested in it."""
    start = min([stmt.lineno, *(d.lineno for d in getattr(stmt, "decorator_list", ()))])
    nested = [s.lineno for field in ("body", "orelse", "handlers", "finalbody")
              for s in getattr(stmt, field, ())]
    return range(start, min(nested) if nested else stmt.end_lineno + 1)


def _statements(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(function, statement) for every statement in a function body, docstrings aside."""
    docstrings = {id(f.body[0]) for f in ast.walk(tree) if isinstance(f, FUNCTIONS) and ast.get_docstring(f)}
    out: list[tuple[str, ast.stmt]] = []

    def visit(node: ast.AST, owner: str | None, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and owner is not None and id(child) not in docstrings:
                out.append((owner, child))
            if isinstance(child, FUNCTIONS):
                visit(child, prefix + child.name, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, owner, f"{prefix}{child.name}.")  # its body runs at definition
            else:
                visit(child, owner, prefix)

    visit(tree, None, "")
    return out


def _trace(executed: defaultdict[str, set[int]]):
    """A global trace function that adds each line run in `src/sbc` to executed[file]."""
    prefix = str(SRC) + "/"
    tracers: dict[str, object] = {}

    def tracer_for(file: str):
        add = executed[file].add

        def local(frame, event, _arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def trace(frame, _event, _arg):
        file = frame.f_code.co_filename
        local = tracers.get(file)
        if local is None:
            local = tracers[file] = tracer_for(file) if file.startswith(prefix) else False
        return local or None

    return trace


def unreached(executed: dict[str, set[int]]) -> list[str]:
    """`FILE:LINE FUNCTION: SOURCE` for each statement none of whose own lines ran."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        text, rel = path.read_text(encoding="utf-8"), path.relative_to(HERE.parent).as_posix()
        lines, ran = text.splitlines(), executed.get(str(path), set())
        for function, stmt in sorted(_statements(ast.parse(text, str(path))), key=lambda x: x[1].lineno):
            if ran.isdisjoint(_own_lines(stmt)):
                out.append(f"{rel}:{stmt.lineno} {function}: {lines[stmt.lineno - 1].strip()}")
    return out


def main() -> int:
    executed: defaultdict[str, set[int]] = defaultdict(set)
    sys.settrace(_trace(executed))
    try:
        import golden  # imports sbc, so after tracing starts

        golden.compute()
    finally:
        sys.settrace(None)
    found = unreached(executed)
    print("\n".join(found))
    print(f"{len(found)} statements of src/sbc not reached by the golden corpus")
    return 0


if __name__ == "__main__":
    sys.exit(main())
