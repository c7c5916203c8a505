"""One reading of a filled complex per filler choice, and complexes cut
below the levels a reconstruction reads.

`reconstruct`, `pentagon_via_4simplex`, `reconstruct_functor` and
`roundtrip_report` read the filler choice they are given, which is the
reading of its complex: its weak 2-groupoid is built once between them,
and the horn tables are kept on the complex, so all of them together build
a complex's horn tables once.  A complex truncated below level
4 is a valid simplicial set, but it cannot carry the pentagon check; the
`reconstruct` and `roundtrip` commands exit 1 on it with the missing level
named, and write no traceback.
"""

import contextlib
import io
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from twotypes import nerve as nerve_mod
from twotypes import reconstruct as rec
from twotypes.cli import main
from twotypes.fingroup import cyclic
from twotypes.nerve import nerve
from twotypes.simpset import make_sset, simplicial_maps
from twotypes.textio import format_sset, parse_text
from twotypes.twogpd import xmod_to_2group
from twotypes.xmod import FillingFailure, xmod_b2g, xmod_bg

ROOT = Path(__file__).resolve().parent.parent
FIX = ROOT / "fixtures"


def bg(n):
    return xmod_to_2group(xmod_bg(cyclic(n)))


def b2g(m):
    return xmod_to_2group(xmod_b2g(cyclic(m)))


@pytest.fixture
def horn_builds(monkeypatch):
    """Counts the horn tables built, by id of the complex."""
    built = Counter()
    real = rec._unique_horn_tables

    def counting(x):
        built[id(x)] += 1
        return real(x)

    monkeypatch.setattr(rec, "_unique_horn_tables", counting)
    return built


class TestHornTablesOncePerCall:
    """The horn tables depend on the complex alone, so every reading of a
    complex, in any call, reads the one build."""

    def test_pentagon(self, horn_builds):
        x = nerve(b2g(2))
        assert rec.pentagon_via_4simplex(x, rec.choose_fillers(x))
        assert horn_builds == {id(x): 1}

    def test_functor(self, horn_builds):
        xa, xb = nerve(bg(2)), nerve(b2g(2))
        fa, fb = rec.choose_fillers(xa), rec.choose_fillers(xb)
        maps = simplicial_maps(xa, xb)
        assert len(maps) > 1
        for m in maps:
            rec.reconstruct_functor(m, fa, fb)
            assert horn_builds == {id(xa): 1, id(xb): 1}

    def test_roundtrip_builds_the_nerve_first(self, horn_builds,
                                              monkeypatch):
        x, y = nerve(b2g(3)), nerve(b2g(3))  # equal complexes, two objects
        fc = rec.choose_fillers(x)
        w = rec.reconstruct(x, fc)
        assert horn_builds == {id(x): 1}
        events = []
        real = nerve_mod.nerve

        def logged(g, cap=None):
            events.append(("nerve", dict(horn_builds)))
            return real(g, cap=cap)

        monkeypatch.setattr(nerve_mod, "nerve", logged)
        # x's tables are kept from reconstruct: no second build
        assert rec.roundtrip_report(x, fc, w).ok
        assert horn_builds == {id(x): 1}
        # y has none yet: they are built after the nerve, once
        assert rec.roundtrip_report(y, fc, w).ok
        assert horn_builds == {id(x): 1, id(y): 1}
        assert events == [("nerve", {id(x): 1})] * 2

    def test_roundtrip_command_builds_them_once(self, horn_builds):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["roundtrip", str(FIX / "nz2.sset")]) == 0
        assert list(horn_builds.values()) == [1]


@pytest.fixture
def gpd_builds(monkeypatch):
    """Counts the weak 2-groupoids that readers build."""
    built = []
    real = rec.build_weak_2groupoid

    def counting(*args, **kwargs):
        built.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(rec, "build_weak_2groupoid", counting)
    return built


class TestOneWeak2GroupoidPerChoice:
    def test_readers_of_one_choice_share_it(self, gpd_builds):
        x = nerve(b2g(3))
        fc = rec.choose_fillers(x, "seeded:7")
        w = rec.reconstruct(x, fc)
        assert rec.pentagon_via_4simplex(x, fc)
        assert rec.roundtrip_report(x, fc).ok
        assert rec.reconstruct(x, fc) is w and fc.gpd is w
        assert len(gpd_builds) == 1

    def test_functor_reads_each_choice_once(self, gpd_builds):
        xa, xb = nerve(bg(2)), nerve(b2g(2))
        fa, fb = rec.choose_fillers(xa), rec.choose_fillers(xb)
        for m in simplicial_maps(xa, xb):
            rec.reconstruct_functor(m, fa, fb)
        assert len(gpd_builds) == 2

    def test_a_choice_on_another_complex_is_read_again(self, gpd_builds):
        x, y = nerve(b2g(3)), nerve(b2g(3))  # equal complexes, two objects
        fc = rec.choose_fillers(x)
        w = rec.reconstruct(x, fc)
        v = rec.reconstruct(y, fc)
        assert v is not w and v == w and len(gpd_builds) == 2
        assert rec.pentagon_via_4simplex(y, fc)
        assert len(gpd_builds) == 3
        # without a choice, each call chooses "first" afresh
        assert rec.reconstruct(x) == rec.reconstruct(x, rec.choose_fillers(
            x, "first"))


def _nz2_cut(trunc):
    """fixtures/nz2.sset truncated at trunc."""
    _, x = parse_text((FIX / "nz2.sset").read_text(encoding="utf-8")) \
        .objects["nz2"]
    return make_sset(trunc, x.counts[:trunc + 1], x.faces[:trunc + 1],
                     x.degens[:trunc], basepoint=x.basepoint)


def _cut(tmp_path, trunc):
    """fixtures/nz2.sset truncated at trunc, written under tmp_path."""
    path = tmp_path / f"nz2_{trunc}.sset"
    path.write_text(format_sset("nz2", _nz2_cut(trunc)), encoding="utf-8")
    return path


CUTS = [(trunc, command) for trunc in range(4)
        for command in ("reconstruct", "roundtrip")]


@pytest.mark.parametrize("trunc, command", CUTS)
def test_cut_complex_in_process(tmp_path, trunc, command):
    path = _cut(tmp_path, trunc)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["sset2", str(path)]) == 0
        code = main([command, str(path)])
    assert code == 1
    assert "sset2: yes" in out.getvalue()
    missing = max(2, trunc + 1)
    assert err.getvalue() == f"validation error: missing-level: {missing}\n"


@pytest.mark.parametrize("trunc, command", CUTS)
def test_cut_complex_fresh_interpreter(tmp_path, trunc, command):
    env = dict(os.environ, PYTHONIOENCODING="utf-8",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "twotypes.cli", command,
         str(_cut(tmp_path, trunc))],
        capture_output=True, encoding="utf-8", env=env, timeout=120)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("validation error: missing-level")


def test_each_reader_names_the_level_it_needs():
    fc = rec.choose_fillers(_nz2_cut(4))
    for trunc, reader, need in (
            (1, rec.choose_fillers, 2), (2, rec.reconstruct, 3),
            (2, lambda y: rec.roundtrip_report(y, fc), 3),
            (3, lambda y: rec.pentagon_via_4simplex(y, fc), 4)):
        with pytest.raises(FillingFailure) as err:
            reader(_nz2_cut(trunc))
        assert (err.value.reason, err.value.witness) == ("missing-level",
                                                         need)
