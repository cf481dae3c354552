"""Nothing in the package exists only for tests: every top-level function and
class of `src/sbc` is used by the package itself, and every other top-level
assigned name (dunders aside) by the package or by the benchmark.  Every
parameter of a function in `src/sbc` is read in its body.  Every field of a
`NamedTuple` record is named in the package outside its declaration.  And
every name that a module of `src/sbc` or of `tests/` imports is used in it."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "sbc"
TESTS = ROOT / "tests"
ENTRY_POINTS = {("cli", "main")}  # pyproject's console script
# Functions and classes that only the benchmark calls, each with its reason.
BENCHMARK_ONLY = {
    ("infoflow", "closure"): "perfbench's tracer wraps it and reports its pairs until it moves to tests/",
}
# Record fields that no code of the package names, each with its reason.
UNNAMED_FIELDS = {
    ("interp", "Value", "taint"): "the plans read it by position, as v[1]",
    ("interp", "Configuration", "sigma"): "step and the CLI's trace read it by unpacking",
    ("infoflow", "ClosureRelation", "pairs"): "perfbench's tracer reads it",
}


def _names(tree) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))}


def _definitions() -> tuple[list[tuple[str, str, bool]], set[str]]:
    """(module, name, whether it is a function or class) of every top-level
    definition of `src/sbc`, and the names the package uses."""
    definitions, used = [], set()
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        for stmt in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            code = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if code:
                defined = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
                defined = {n for n in defined if not (n.startswith("__") and n.endswith("__"))}
            else:
                defined = set()
            definitions += [(path.stem, name, code) for name in sorted(defined)]
            used |= _names(stmt) - defined  # a recursive call is no use
    return definitions, used


def test_every_function_and_class_has_a_user_in_the_package():
    definitions, used = _definitions()
    unused = {(m, name) for m, name, code in definitions if code and name not in used} - ENTRY_POINTS
    assert sorted(f"{m}.{name}" for m, name in unused - set(BENCHMARK_ONLY)) == []
    assert unused >= set(BENCHMARK_ONLY), "an exemption that is no longer needed"


def test_every_definition_has_a_user_outside_tests():
    definitions, used = _definitions()
    for path in sorted(ROOT.glob("perfbench/*.py")):
        if not path.name.startswith("test_"):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            used |= _names(tree)  # the tracer names what it wraps in strings
            used |= {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    assert [f"{m}.{name}" for m, name, _ in definitions if name not in used and (m, name) not in ENTRY_POINTS] == []


def _named(tree) -> Counter:
    """How often each attribute, keyword argument and string constant occurs in tree."""
    return Counter(n.attr if isinstance(n, ast.Attribute) else n.arg if isinstance(n, ast.keyword) else n.value
                   for n in ast.walk(tree) if isinstance(n, (ast.Attribute, ast.keyword))
                   or isinstance(n, ast.Constant) and isinstance(n.value, str))


def test_every_record_field_is_named_outside_its_declaration():
    # Name-based: a field that shares its name with another field or
    # attribute, such as `.name`, passes whether or not it is read.  A
    # property of its own class that reads it counts.
    named, records = Counter(), []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        named += _named(tree)
        records += [(path.stem, c) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                    and any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in c.bases)]
    assert records
    unnamed = set()
    for module, cls in records:
        fields = [f for f in cls.body if isinstance(f, ast.AnnAssign)]
        declared = sum(map(_named, fields), Counter())  # string annotations and defaults
        unnamed |= {(module, cls.name, f.target.id) for f in fields if named[f.target.id] == declared[f.target.id]}
    assert sorted(".".join(f) for f in unnamed - set(UNNAMED_FIELDS)) == []
    assert unnamed >= set(UNNAMED_FIELDS), "an exemption that is no longer needed"


def test_every_parameter_is_read():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = fn.args
                params = [*a.posonlyargs, *a.args, *filter(None, (a.vararg, a.kwarg)), *a.kwonlyargs]
                body = fn.body if isinstance(fn.body, list) else [fn.body]
                read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
                unread += [f"{path.name}:{fn.lineno} {p.arg}" for p in params if p.arg not in read]
    assert unread == []


def test_every_name_a_test_module_imports_is_used():
    unused = []
    for path in [*sorted(SRC.glob("*.py")), *sorted(TESTS.glob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unused += [f"{path.relative_to(ROOT)}:{node.lineno} {a.asname or a.name}" for a in node.names
                           if (a.asname or a.name).split(".")[0] not in names]
    assert unused == []
