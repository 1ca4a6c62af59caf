"""Source hygiene: every name a module imports is used in that module, and
every top-level function of the package is referred to outside its own body."""
import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "himie").glob("*.py"))

# Top-level functions that nothing in the package or the benchmark calls,
# each with the reason it stays.
UNCALLED_ALLOWED = {
    # the brute-force reference that recovers the generator's planted
    # annotations from the raw inputs; the synth and acceptance tests compare
    # against it, so it is a reference implementation, not dead code
    "synth.oracle_predict",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def _references(node: ast.AST) -> Counter:
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def uncalled_functions(package: dict[str, str], callers: list[str],
                       entry_points: set[str]) -> list[str]:
    """`module.function` for each top-level function in `package` (module name
    to source) whose name no AST name or attribute uses outside the function's
    own body, in the package or in `callers`, and that is no entry point."""
    total = sum((_references(ast.parse(src)) for src in callers), Counter())
    functions = []
    for mod, src in package.items():
        for stmt in ast.parse(src).body:
            own = _references(stmt)
            total += own
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((f"{mod}.{stmt.name}", stmt.name, own[stmt.name]))
    return [qual for qual, name, own in functions
            if total[name] == own and qual not in entry_points]


def console_scripts(pyproject: str) -> set[str]:
    """`module.function` of each `name = "himie.module:function"` line."""
    return {f"{mod}.{fn}" for mod, fn in
            re.findall(r'^[\w-]+ = "himie\.(\w+):(\w+)"$', pyproject, re.M)}


def test_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == ["b (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_uncalled_function():
    package = {"a": "def used():\n    pass\n\n"
                    "def planted(n):\n    return planted(n - 1) if n else 0\n\n"
                    "def main():\n    used()\n",
               "b": "X = 1\n\ndef by_attribute():\n    pass\n"}
    callers = ["import b\nb.by_attribute()\n"]
    assert uncalled_functions(package, callers, {"a.main"}) == ["a.planted"]
    assert uncalled_functions(package, [], {"a.main"}) == ["a.planted", "b.by_attribute"]
    assert console_scripts('[project.scripts]\nhimie = "himie.cli:main"\n') == {"cli.main"}


def test_every_function_has_a_caller():
    package = {p.stem: p.read_text(encoding="utf-8") for p in SRC}
    callers = [p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "perfbench").glob("*.py"))]
    entry = console_scripts((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert entry == {"cli.main"}
    # the exemptions must still be needed, so none outlives its reason
    assert sorted(uncalled_functions(package, callers, entry)) == sorted(UNCALLED_ALLOWED)
