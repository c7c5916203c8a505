"""Which library modules a command loads, each case in a fresh interpreter.

A command imports only what its input kind and its computation need, so
checking a group or computing its cohomology compiles no simplicial or
2-groupoid code.
"""

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
], ids=["check", "cohomology", "sset2"])
def test_command_loads_only_what_it_runs(argv, unloaded):
    argv = [str(FIX / a) if (FIX / a).is_file() else a for a in argv]
    done = subprocess.run([sys.executable, "-c", LOADED, *argv],
                          capture_output=True, text=True, env=ENV,
                          timeout=120, check=True)
    code, *modules = done.stdout.splitlines()[-1].split()
    assert code == "0"
    assert "twotypes.cli" in modules
    assert not {f"twotypes.{m}" for m in unloaded} & set(modules)


def test_cli_still_imports_numpy():
    # perfbench/run.py:import_times takes the median of numpy's line in
    # `-X importtime`; it fails on an empty list, so numpy stays imported
    # until the benchmark reads that line as optional (ROADMAP item 1)
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import twotypes.cli"],
        capture_output=True, text=True, env=ENV, timeout=120, check=True)
    assert any(line.split("|")[-1].strip() == "numpy"
               for line in done.stderr.splitlines())
