"""Which library modules a command loads, each case in a fresh interpreter.

A command imports only what its input kind and its computation need, so
checking a group or computing its cohomology compiles no simplicial or
2-groupoid code.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FIX = ROOT / "fixtures"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

LOADED = ("import sys\n"
          "from twotypes.cli import main\n"
          "code = main(sys.argv[1:])\n"
          "print(code, *sorted(m for m in sys.modules\n"
          "                    if m.startswith('twotypes.')))\n")

GROUP_ONLY = {"simpset", "twogpd", "weakmaps", "nerve", "reconstruct"}


@pytest.mark.parametrize("argv, unloaded", [
    (["check", "z2.group"], GROUP_ONLY),
    (["cohomology", "--gamma", "z2.group", "--coeff", "z3.group"],
     GROUP_ONLY),
    (["sset2", "nz2.sset"],
     {"twogpd", "weakmaps", "nerve", "reconstruct", "cohom"}),
    # simplicial maps group by boundary and may build products, which
    # load no 2-groupoid code
    (["enumerate-maps", "nz2.sset", "nz2.sset"],
     {"twogpd", "weakmaps", "nerve", "reconstruct", "cohom"}),
], ids=["check", "cohomology", "sset2", "enumerate-maps"])
def test_command_loads_only_what_it_runs(argv, unloaded):
    argv = [str(FIX / a) if (FIX / a).is_file() else a for a in argv]
    done = subprocess.run([sys.executable, "-c", LOADED, *argv],
                          capture_output=True, text=True, env=ENV,
                          timeout=120, check=True)
    code, *modules = done.stdout.splitlines()[-1].split()
    assert code == "0"
    assert "twotypes.cli" in modules
    assert not {f"twotypes.{m}" for m in unloaded} & set(modules)


def test_fiber_products_and_induced_pi_import_from_nerve():
    from twotypes import nerve, simpset, twogpd
    assert nerve.fiber_product_2gpd is twogpd.fiber_product_2gpd
    assert nerve.sset_fiber_product is simpset.sset_fiber_product
    assert callable(nerve.induced_pi)


def test_cli_still_imports_numpy():
    # perfbench/run.py:import_times takes the median of numpy's line in
    # `-X importtime`; it fails on an empty list, so numpy stays imported
    # until the benchmark reads that line as optional (ROADMAP item 1)
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import twotypes.cli"],
        capture_output=True, text=True, env=ENV, timeout=120, check=True)
    assert any(line.split("|")[-1].strip() == "numpy"
               for line in done.stderr.splitlines())


def test_numpy_is_only_imported_by_fingroup():
    # numpy is imported once, unused, for the benchmark's import probe
    # above: no module reads it, so dropping it is one line
    found = []
    for path in sorted((ROOT / "src" / "twotypes").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [(a.name, a.asname) for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module, None)]
            elif isinstance(node, ast.Name):
                names = [(node.id, None)]
            elif isinstance(node, ast.Attribute):
                names = [(node.attr, None)]
            elif isinstance(node, ast.Constant) and node.value == "numpy":
                names = [(node.value, None)]  # importlib.import_module
            else:
                continue
            found += [(path.name, type(node).__name__, name, alias)
                      for name, alias in names
                      if (name or "").split(".")[0] in ("numpy", "np")]
    assert found == [("fingroup.py", "Import", "numpy", None)]


def test_tables_are_kept_on_their_objects():
    # one store of derived tables (`search.derived`) keeps them on the
    # object they are read from, so no module keeps a registry keyed by id
    weak, defined = [], []
    for path in sorted((ROOT / "src" / "twotypes").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                if isinstance(node, ast.FunctionDef) and \
                        node.name == "derived":
                    defined.append(path.name)
                continue
            weak += [path.name for m in modules
                     if m.split(".")[0] == "weakref"]
    assert weak == []
    assert defined == ["search.py"]


def test_a_cap_is_one_budget_for_the_whole_call():
    # every function makes at most one budget, by `search.as_budget`, and
    # hands it on, so each cap takes an int or a Budget to share; only
    # Budget's own cap is the int it holds, and only the commands start a
    # Budget by name
    loose, made = [], set()
    for path in sorted((ROOT / "src" / "twotypes").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) == \
                        "Budget":
                    made.add(path.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                hints = [arg.annotation and ast.unparse(arg.annotation)
                         for arg in a.posonlyargs + a.args + a.kwonlyargs
                         if arg.arg == "cap"]
                loose += [(path.name, node.name, hint) for hint in hints
                          if hint != "int | Budget"]
    assert loose == [("search.py", "__init__", "int")]
    assert made == {"cli.py", "search.py"}


def test_the_library_parses_as_python_3_10():
    # pyproject.toml and README promise Python 3.10+: every module parses
    # with the 3.10 grammar, and none names operator.call, new in 3.11
    late = []
    for path in sorted((ROOT / "src" / "twotypes").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"),
                         feature_version=(3, 10))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "operator":
                late += [(path.name, a.name) for a in node.names
                         if a.name == "call"]
            elif isinstance(node, ast.Attribute) and node.attr == "call" and \
                    getattr(node.value, "id", None) == "operator":
                late.append((path.name, "operator.call"))
    assert late == []
