"""The cap contract: `--cap` bounds every search and every large table.

A size about to be built (the tables of a 2-group, a level of a nerve, the
tables of a hom or of a cohomology group) is admitted by the command's
budget first, so a command on a large input stops at once with exit 3.
Each command runs in a fresh interpreter under a CPU-time limit and an
address-space limit, so that a broken bound fails the test instead of
exhausting the machine.
"""

import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from twotypes import cli, twogpd
from twotypes.fingroup import cyclic
from twotypes.nerve import _level3_count, nerve, xmod_level3_count
from twotypes.search import Budget, SizeCapExceeded
from twotypes.textio import format_group, format_sset, format_xmod
from twotypes.twogpd import xmod_to_2group
from twotypes.xmod import xmod_b2g, xmod_bg, xmod_identity

ROOT = Path(__file__).resolve().parent.parent
ORDERS = (8, 16, 32, 48)
ADDRESS_SPACE = 512 * 2 ** 20  # bytes; the interpreter with numpy maps ~200 MB
CPU_SECONDS = 2  # of the child, its interpreter start and imports included


def _entries(xm) -> int:
    n1, n2 = xm.g1.order, xm.g2.order
    return n1 * n1 + n1 * n2 * n2 + (n1 * n2) ** 2


class TestTwoGroupTables:
    def test_count_is_the_entries_of_the_tables(self, corpus):
        for name, xm in corpus:
            g = xmod_to_2group(xm, cap=_entries(xm))
            assert sum(map(len, [*g.comp1, *g.vcomp, *g.hcomp2])) == \
                _entries(xm), name

    def test_one_below_the_count_builds_nothing(self, corpus, monkeypatch):
        def no_build(*args, **kwargs):
            raise AssertionError("2-group built")
        monkeypatch.setattr(twogpd, "build_two_groupoid", no_build)
        for name, xm in corpus:
            n = _entries(xm)
            with pytest.raises(SizeCapExceeded, match=(
                    f"^crossed module: 2-group tables of {n} entries exceed "
                    f"the cap of {n - 1}$")):
                xmod_to_2group(xm, cap=n - 1)

    def test_identity_on_z32_stops_at_once(self):
        # 32^2 + 32 * 32^2 + 1024^2 = 1 082 368 entries, over the default cap
        xm = xmod_identity(cyclic(32))
        start = time.process_time()
        for cap in (10, 10 ** 6):
            with pytest.raises(SizeCapExceeded, match="1082368 entries"):
                xmod_to_2group(xm, cap=cap)
        assert time.process_time() - start < 1

    def test_the_nerve_shares_one_budget(self):
        # 21 entries, then levels 3 and 4 of 27 and 81 simplices: the
        # shared budget admits each in turn and takes no step
        budget = Budget(81, "nerve")
        x = nerve(xmod_to_2group(xmod_bg(cyclic(3)), budget), budget)
        assert x.counts == (1, 3, 9, 27, 81) and budget.steps == 0


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Identity crossed modules and cyclic groups of the orders in ORDERS,
    and the nerves of four small 2-groups, as files."""
    d = tmp_path_factory.mktemp("cap")
    for n in ORDERS:
        (d / f"id{n}.xmod").write_text(
            format_xmod(f"id{n}", xmod_identity(cyclic(n))))
        (d / f"z{n}.group").write_text(format_group(f"z{n}", cyclic(n)))
    for i, xm in enumerate((xmod_bg(cyclic(2)), xmod_bg(cyclic(4)),
                            xmod_b2g(cyclic(3)), xmod_identity(cyclic(2)))):
        (d / f"n{i}.sset").write_text(
            format_sset(f"n{i}", nerve(xmod_to_2group(xm))))
    return d


def _argv(command, d, i):
    n = ORDERS[i]
    if command == "cohomology":
        return [command, "--gamma", str(d / f"z{n}.group"),
                "--coeff", str(d / f"z{n}.group")]
    if command == "enumerate-maps":
        return [command, str(d / f"n{i}.sset"), str(d / f"n{i}.sset")]
    return [command] + [str(d / f"id{n}.xmod")] * (
        2 if command in ("hom", "pi0hom") else 1)


def _run(argv):
    """(exit code, stdout, stderr) of the command in a fresh interpreter,
    with CPU_SECONDS of CPU time and ADDRESS_SPACE bytes of address space.
    Past its CPU time the child is killed by a signal, a negative exit
    code; the wall timeout only backstops a child that hangs."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS,
                           (ADDRESS_SPACE, ADDRESS_SPACE))
        resource.setrlimit(resource.RLIMIT_CPU, (CPU_SECONDS, CPU_SECONDS))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "twotypes.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60, preexec_fn=limit)
    return done.returncode, done.stdout, done.stderr


def _holds(code, out, err):
    assert code in (0, 1, 3), err
    assert "Traceback" not in err
    if code == 3:
        assert out == "" and err.startswith("cap exceeded: ")


@pytest.mark.parametrize("i", range(len(ORDERS)))
@pytest.mark.parametrize("command", ["nerve", "roundtrip", "hom", "pi0hom",
                                     "enumerate-maps", "cohomology"])
def test_each_capped_command_stops_at_cap_10(inputs, command, i):
    _holds(*_run(_argv(command, inputs, i) + ["--cap", "10"]))


@pytest.mark.parametrize("n", [16, 32], ids=["id16", "id32"])
def test_nerve_stops_at_the_default_cap(inputs, n):
    # level 3 holds n^6 simplices, admitted before the 2-group is built
    assert _run(["nerve", str(inputs / f"id{n}.xmod")]) == (
        3, "", "cap exceeded: nerve: the simplices of level 3 exceed the "
               "cap of 1000000\n")


@pytest.mark.parametrize("command, stage", [
    ("nerve", "nerve"), ("roundtrip", "roundtrip"), ("hom", "hom"),
    ("pi0hom", "pi0hom weak maps")])
def test_2groups_are_admitted_under_the_command_cap(inputs, command, stage):
    # a nerve's level 3, of 32^6 simplices, is admitted before its 2-group
    what = ("the simplices of level 3" if command in ("nerve", "roundtrip")
            else "2-group tables of 1082368 entries")
    assert _run(_argv(command, inputs, ORDERS.index(32)) + ["--cap", "10"]) \
        == (3, "", f"cap exceeded: {stage}: {what} exceed the cap of 10\n")


class TestNerveOfACrossedModule:
    """`nerve` and `roundtrip` admit level 3 of the nerve of a crossed
    module, (|G1| |G2|)^3 simplices, before its 2-group is built."""

    def test_count_is_level_3_of_the_2group(self, corpus):
        for name, xm in corpus:
            assert xmod_level3_count(xm) == \
                _level3_count(xmod_to_2group(xm)), name

    def test_exact_count_passes_level_3(self, corpus):
        for name, xm in corpus:
            n = xmod_level3_count(xm)
            with pytest.raises(SizeCapExceeded, match=(
                    f"^nerve: the simplices of level 3 exceed the cap of "
                    f"{n - 1}$")):
                cli._nerve("xmod", xm, Budget(n - 1, "nerve"))
            try:
                cli._nerve("xmod", xm, Budget(n, "nerve"))
            except SizeCapExceeded as exc:
                assert "level 3" not in str(exc), name

    @pytest.mark.parametrize("command", ["nerve", "roundtrip"])
    def test_2group_is_admitted_under_the_command_cap(
            self, tmp_path, command, capsys):
        # B^2 Z/2: level 3 holds (1 * 2)^3 = 8 simplices and passes the cap
        # of 8; the 2-group, of 1 + 4 + 4 = 9 table entries, does not
        p = tmp_path / "b2z2.xmod"
        p.write_text(format_xmod("b2z2", xmod_b2g(cyclic(2))))
        assert cli.main([command, str(p), "--cap", "8"]) == 3
        assert capsys.readouterr() == (
            "", f"cap exceeded: {command}: 2-group tables of 9 entries "
                f"exceed the cap of 8\n")

    @pytest.mark.parametrize("command", ["nerve", "roundtrip"])
    def test_identity_on_z30_stops_before_its_2group(
            self, tmp_path, monkeypatch, command, capsys):
        # 30^6 simplices; the 2-group has 837 900 entries, under the
        # default cap, and took about 2 s of CPU to build and audit
        p = tmp_path / "id30.xmod"
        p.write_text(format_xmod("id30", xmod_identity(cyclic(30))))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        code, out, err = _run([command, str(p)])
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert (code, out, err) == (
            3, "", f"cap exceeded: {command}: the simplices of level 3 "
                   f"exceed the cap of 1000000\n")
        assert (after.ru_utime + after.ru_stime) - \
            (before.ru_utime + before.ru_stime) < 1

        def no_build(*args, **kwargs):
            raise AssertionError("2-group built")
        monkeypatch.setattr(twogpd, "build_two_groupoid", no_build)
        assert cli.main([command, str(p)]) == 3
        assert capsys.readouterr().err == err
