"""Source hygiene: every name a module imports is used in that module, every
top-level function of the package is referred to outside its own body, and
the package imports no third-party code beyond numpy and scipy.special."""
import ast
import os
import re
import subprocess
import sys
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


def third_party_imports(source: str) -> set[str]:
    """Dotted names of the absolute imports in `source` outside the standard
    library and the package itself."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {n for n in names
            if n.split(".")[0] not in sys.stdlib_module_names | {"himie"}}


def test_finds_third_party_imports():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from scipy.optimize import linear_sum_assignment\nfrom . import data\n"
              "from himie.config import RunConfig\n")
    assert third_party_imports(source) == {"numpy", "scipy.optimize"}


def test_only_numpy_and_scipy_special_are_imported():
    found = set().union(*(third_party_imports(p.read_text(encoding="utf-8")) for p in SRC))
    assert found == {"numpy", "scipy.special"}


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    # scipy.optimize alone pulls in about 250 modules and 23 MB at every start
    heavy = ("scipy.optimize", "scipy.linalg", "scipy.sparse")
    code = ("import sys, himie.cli; "
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert out.stdout.split() == []
