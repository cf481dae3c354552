"""Nothing in the package exists only for tests: every top-level function and
class of `src/sbc` is used by the package itself or by the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "sbc"
ENTRY_POINTS = {("cli", "main")}  # pyproject's console script


def _names(tree) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_definition_has_a_user_outside_tests():
    used: set[str] = set()
    for path in sorted(ROOT.glob("perfbench/*.py")):
        if not path.name.startswith("test_"):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            used |= _names(tree)  # the tracer names what it wraps in strings
            used |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}

    definitions = []
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        for stmt in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.stem, stmt.name))
            used |= _names(stmt) - {getattr(stmt, "name", None)}  # a recursive call is no use
    assert [f"{m}.{name}" for m, name in definitions if name not in used and (m, name) not in ENTRY_POINTS] == []
