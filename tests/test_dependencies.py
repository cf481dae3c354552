"""The package keeps zero runtime dependencies: it imports only itself and the stdlib."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "sbc"


def test_imports_are_sbc_or_stdlib():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside sbc
            for name in names:
                top = name.split(".")[0]
                if top != "sbc" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno} {name}")
    assert foreign == []
