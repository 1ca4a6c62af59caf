"""Source hygiene, checked two ways.

Statically, on the source text: every name a module imports is used in that
module, every top-level function and non-dunder method of the package is
referred to outside its own body, every parameter is read in its function's
body, and the package imports no third-party code beyond numpy and
scipy.special.

At run time: the package is run end to end on a small model (training and
both evaluation pair modes over the shapes the behaviour pin covers, every CLI
command and its error exits) under a `sys.setprofile` hook that records every
function of the package it enters. Every function written in a module and
bound at its top level or in one of its classes, dunders and property getters
included, must be among them or in `UNREACHED_ALLOWED` with its reason. The
static rule cannot see an unused dunder, or a method named like a numpy one
(`sum`, `reshape`, `size`), since any array's call of that name counts as a
use.
"""
import ast
import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from himie.cli import main
from himie.config import config_from_dict
from himie.data import MODALITIES, Corpus
from himie.evaluate import evaluate
from himie.metrics import score_relations
from himie.synth import generate
from himie.trainer import train

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "himie").glob("*.py"))

# Functions and methods that nothing in the package or the benchmark calls,
# each with the reason it stays.
UNCALLED_ALLOWED = {
    # the brute-force reference that recovers the generator's planted
    # annotations from the raw inputs; the synth and acceptance tests compare
    # against it, so it is a reference implementation, not dead code
    "synth.oracle_predict",
    # the override through which argparse reports a bad command line: argparse
    # calls it, so the CLI exits 1 with one line instead of 2 with a usage block
    "cli._Parser.error",
}
FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


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
    """`module.function` for each top-level function, and `module.Class.method`
    for each non-dunder method of a top-level class, in `package` (module name
    to source) whose name no AST name or attribute uses outside the function's
    own body, in the package or in `callers`, and that is no entry point."""
    total = sum((_references(ast.parse(src)) for src in callers), Counter())
    functions = []
    for mod, src in package.items():
        for stmt in ast.parse(src).body:
            total += _references(stmt)
            if isinstance(stmt, FUNCTION_DEFS):
                defs = [(mod, stmt)]
            elif isinstance(stmt, ast.ClassDef):
                defs = [(f"{mod}.{stmt.name}", m) for m in stmt.body
                        if isinstance(m, FUNCTION_DEFS)
                        and not (m.name.startswith("__") and m.name.endswith("__"))]
            else:
                defs = []
            functions += [(f"{prefix}.{d.name}", d.name, _references(d)[d.name])
                          for prefix, d in defs]
    return [qual for qual, name, own in functions
            if total[name] == own and qual not in entry_points]


def unread_parameters(source: str) -> list[str]:
    """`function.parameter` (`<lambda>:line.parameter` for a lambda) for each
    parameter that the function's body never reads; `self`, `cls` and
    `_`-prefixed names are exempt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", f"<lambda>:{node.lineno}")
        found += [f"{name}.{p}" for p in params
                  if p not in read and p not in ("self", "cls") and not p.startswith("_")]
    return found


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
                    "class K:\n    def __init__(self):\n        self.x = 0\n\n"
                    "    def called(self):\n        return 1\n\n"
                    "    def planted_method(self, n):\n"
                    "        return self.planted_method(n - 1) if n else 0\n\n"
                    "def main():\n    used()\n    K().called()\n",
               "b": "X = 1\n\ndef by_attribute():\n    pass\n"}
    callers = ["import b\nb.by_attribute()\n"]
    assert uncalled_functions(package, callers, {"a.main"}) == ["a.planted", "a.K.planted_method"]
    assert uncalled_functions(package, [], {"a.main"}) == ["a.planted", "a.K.planted_method",
                                                           "b.by_attribute"]
    assert console_scripts('[project.scripts]\nhimie = "himie.cli:main"\n') == {"cli.main"}


def test_every_function_has_a_caller():
    package = {p.stem: p.read_text(encoding="utf-8") for p in SRC}
    callers = [p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "perfbench").glob("*.py"))]
    entry = console_scripts((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert entry == {"cli.main"}
    # the exemptions must still be needed, so none outlives its reason
    assert sorted(uncalled_functions(package, callers, entry)) == sorted(UNCALLED_ALLOWED)


def test_finds_an_unread_parameter():
    source = ("def f(a, b, *args, c, _d, **kw):\n    return a + c + len(kw)\n\n"
              "class K:\n    def m(self, x, y=None):\n        def inner(z):\n"
              "            return x\n        return inner\n\n"
              "g = lambda u, v: u\n")
    assert sorted(unread_parameters(source)) == ["<lambda>:10.v", "f.args", "f.b", "inner.z",
                                                 "m.y"]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


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


# Members of the package that no run of it enters, each with the reason it stays.
UNREACHED_ALLOWED = {
    # pytest prints a Tensor through it when an assertion on one fails
    "autodiff.Tensor.__repr__",
    # the brute-force reference that recovers the generator's planted
    # annotations from the raw inputs, and the bucket lookup only it reads: the
    # synth and acceptance tests compare the model's output against it
    "synth.oracle_predict",
    "synth.type_of_bucket",
}
# CI's small model and corpus
SMALL = {"model": {"d_h": 8, "n_l": 6, "heads": 2, "n_p": 4, "d_in": 3, "d_vae": 4,
                   "prompt_len": 3, "vocab": 64, "max_len": 64,
                   "entity_types": ["PERSON", "PLACE"], "grounding_types": ["PERSON"],
                   "relation_types": ["works_for"]},
         "gen": {"docs": 3, "tokens_per_doc": [8, 12], "frames_per_doc": [1, 2]},
         "epochs": 1}
# the model switches of the pinned shapes; frameless documents run on the first
SHAPES = ({}, {"dffm_enabled": False}, {"mmcm_enabled": False},
          {"vae_mode": "sample", "kl_weight": 0.05})


def members(module) -> dict:
    """Code object -> name (`function`, or `Class.member`) of each function
    written in `module`'s file and bound at its top level or in one of its
    classes, dunders, property getters and decorated functions included. An
    alias (`__radd__ = __add__`) shares its target's code, and so its name."""
    found = {}

    def add(name, obj):
        obj = obj.fget if isinstance(obj, property) else obj
        code = getattr(getattr(obj, "__wrapped__", obj), "__code__", None)
        if code is not None and code.co_filename == module.__file__:
            found.setdefault(code, name)

    for name, obj in vars(module).items():
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                add(f"{name}.{attr}", member)
        else:
            add(name, obj)
    return found


def unreached_members(modules, run) -> list[str]:
    """`module.member` for each of the `members` of `modules` whose function
    `run()` never enters, recorded by a `sys.setprofile` hook filtered to the
    modules' files."""
    files = {m.__file__ for m in modules}
    entered = set()

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename in files:
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return sorted(f"{m.__name__.rsplit('.', 1)[-1]}.{name}" for m in modules
                  for code, name in members(m).items() if code not in entered)


def test_finds_an_unreached_member(tmp_path):
    path = tmp_path / "planted.py"
    path.write_text("import functools\n\n"
                    "class K:\n    def __init__(self):\n        self.x = 1\n\n"
                    "    @property\n    def size(self):\n        return 1\n\n"
                    "    def __neg__(self):\n        return self\n\n"
                    "    def used(self):\n        return self.x\n\n"
                    "    alias = used\n\n"
                    "def run():\n    return K().used() + cached()\n\n"
                    "@functools.lru_cache\ndef cached():\n    return 0\n\n"
                    "@functools.lru_cache\ndef planted():\n    return 0\n", encoding="utf-8")
    spec = importlib.util.spec_from_file_location("planted", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert sorted(members(mod).values()) == ["K.__init__", "K.__neg__", "K.size", "K.used",
                                             "cached", "planted", "run"]
    assert unreached_members([mod], mod.run) == ["planted.K.__neg__", "planted.K.size",
                                                 "planted.planted"]


def run_the_package(tmp_path) -> None:
    """Train and evaluate in both pair modes on every pinned shape, each
    document once per modality regime; run every CLI command on CI's config,
    and the CLI's error exits on a bad command line, a malformed corpus line
    and an invalid document; score one matching relation."""
    for switches in SHAPES:
        cfg = config_from_dict(dict(SMALL, model=dict(SMALL["model"], **switches)))
        docs = [dataclasses.replace(d, modality_mask=m)
                for d in generate(cfg.gen, cfg.model).documents for m in MODALITIES]
        if not switches:
            docs.append(dataclasses.replace(docs[0], frames=[], regions=[]))
        corpus = Corpus(docs)
        params = train(cfg, corpus).params
        for mode in ("gold-pairs", "predicted-pairs"):
            evaluate(params, dataclasses.replace(cfg, eval_mode=mode), corpus)
    run, corpus, ckpt, report = (str(tmp_path / name) for name in
                                 ("run.json", "corpus.jsonl", "model.ckpt", "report.json"))
    Path(run).write_text(json.dumps(SMALL), encoding="utf-8")
    # the sweep's missing_ratio axis is the one that reads `ratio_fractions`
    ok = (["gen", "--config", run, "--out", corpus],
          ["train", "--config", run, "--corpus", corpus, "--out", ckpt,
           "--log", str(tmp_path / "steps.jsonl")],
          ["eval", "--checkpoint", ckpt, "--corpus", corpus, "--out", report],
          ["report", "--report", report, "--out", str(tmp_path / "report.csv")],
          ["sweep", "--config", run, "--axis", "missing_ratio", "--values", "0.5",
           "--out", str(tmp_path / "sweep.csv")],
          ["gradcheck", "--config", run, "--samples", "1"])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for argv in ok:
            assert main(argv) == 0, argv
        assert main(["train", "--config", run, "--seed", "abc"]) == 1
        invalid = json.loads(Path(corpus).read_text(encoding="utf-8").splitlines()[0])
        invalid["modality_mask"] = "none"
        for text in ("{\n", json.dumps(invalid) + "\n"):
            bad = tmp_path / "bad.jsonl"
            bad.write_text(text, encoding="utf-8")
            assert main(["eval", "--checkpoint", ckpt, "--corpus", str(bad)]) == 1
    mention = frozenset({(0, 1)})
    relation = (mention, mention, "works_for")
    assert score_relations([relation], [relation])[0] == (1, 0, 0)


def test_every_member_is_reached(tmp_path):
    package = [importlib.import_module(f"himie.{p.stem}") for p in SRC]
    # the allowlist must still be needed, so none of it outlives its reason
    assert unreached_members(package, lambda: run_the_package(tmp_path)) == \
        sorted(UNREACHED_ALLOWED)
