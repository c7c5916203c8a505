"""Golden outputs of the search commands on every fixture pair.

`enumerate-maps`, `hom` and `pi0hom` run over every ordered pair of
fixtures of a matching kind, with and without `--pointed`, and
`cohomology` over every ordered pair of `fixtures/*.group`.  The exit code
and stdout of each must equal `cli_golden.json`.  To record that file
again from the current source:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import io
import itertools
import json
import sys
from pathlib import Path

import pytest

from twotypes.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIX = ROOT / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

SSETS = ("nz2.sset", "sphere.sset")
TWO_GPDS = ("bz2.2gpd", "z2.xmod", "z2to1.xmod", "z3.xmod", "z4to2.xmod")
XMODS = ("z2.xmod", "z2to1.xmod", "z3.xmod", "z4to2.xmod")
GROUPS = ("s3.group", "v4.group", "z2.group", "z3.group", "z4.group")


def commands():
    for command, files in (("enumerate-maps", SSETS), ("hom", TWO_GPDS),
                           ("pi0hom", XMODS)):
        for dom, cod in itertools.product(files, repeat=2):
            yield (command, dom, cod)
            yield (command, dom, cod, "--pointed")
    for gamma, coeff in itertools.product(GROUPS, repeat=2):
        yield ("cohomology", "--gamma", gamma, "--coeff", coeff)


def run(cmd):
    argv = [str(FIX / a) if (FIX / a).is_file() else a for a in cmd]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return [code, out.getvalue()]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("cmd", list(commands()), ids=" ".join)
def test_matches_golden(cmd, golden):
    assert run(cmd) == golden[" ".join(cmd)]


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    record = {" ".join(cmd): run(cmd) for cmd in commands()}
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v, ensure_ascii=False)}"
        for k, v in record.items()) + "\n}\n", encoding="utf-8")
