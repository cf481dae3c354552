"""The package keeps zero runtime dependencies: it imports only itself and the
stdlib.  And it runs on the oldest Python that pyproject.toml names, 3.10."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

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


# Python 3.11 added atomic groups `(?>...)` and the possessive repeats `*+`,
# `++`, `?+` and `{m,n}+`; 3.10 cannot compile them.
NEWER_REGEX = {"ATOMIC_GROUP", "POSSESSIVE_REPEAT"}


def _opcodes(node):
    """The names of the opcodes in a parsed pattern and in all its parts."""
    if isinstance(node, (tuple, list)) or hasattr(node, "data"):
        for item in getattr(node, "data", node):
            if isinstance(item, tuple) and len(item) == 2 and hasattr(item[0], "name"):
                yield item[0].name
            yield from _opcodes(item)


@pytest.mark.skipif(not hasattr(re, "_parser"), reason="before 3.11 such a pattern fails to compile on import")
def test_no_pattern_needs_python_3_11():
    parse = re._parser.parse
    assert [sorted(NEWER_REGEX & set(_opcodes(parse(p)))) for p in ("a*+", "(?>a)", "a{2}+", "[*+](?:a)+")] == [
        ["POSSESSIVE_REPEAT"], ["ATOMIC_GROUP"], ["POSSESSIVE_REPEAT"], []]
    patterns = {f"{path.stem}.{name}": value for path in sorted(SRC.glob("*.py"))
                for name, value in vars(importlib.import_module(f"sbc.{path.stem}")).items()
                if isinstance(value, re.Pattern)}
    assert "syntax._TOKEN" in patterns
    assert [name for name, p in patterns.items() if NEWER_REGEX & set(_opcodes(parse(p.pattern, p.flags)))] == []
