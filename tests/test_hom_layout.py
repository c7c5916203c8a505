"""Composition tables as dict rows: the hom tables read back densely equal
those of the dense layout, --cap bounds them, every index is range-checked
at the 2-groupoid constructors, and the strict functor audit is the weak
one with identity coherence cells.

hom_table_hashes.json holds, for each hom_full below, the sha256 of its
fields with every table row written densely (-1 where not composable), as
the dense layout stored them; table_hash computes the same from dict rows.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from twotypes import cli
from twotypes.fingroup import cyclic
from twotypes.search import SizeCapExceeded
from twotypes.textio import Workspace, format_xmod, parse_file
from twotypes.twogpd import (
    build_two_groupoid, check_2functor, dense_table, xmod_to_2group,
)
from twotypes.weakmaps import (
    build_weak_2groupoid, check_weak_functor, hom_full,
)
from twotypes.xmod import Violation, xmod_b2g, xmod_bg

ROOT = Path(__file__).resolve().parent.parent
FIX = ROOT / "fixtures"
HASHES = json.loads((Path(__file__).parent / "hom_table_hashes.json")
                    .read_text(encoding="utf-8"))
FIELDS = ("n_objects", "src1", "tgt1", "id1", "comp1", "inv1", "src2",
          "tgt2", "id2", "vcomp", "hcomp2", "vinv", "basepoint")


def dense_repr(row, n) -> str:
    """repr of the dense form of a dict row of n entries, made from its
    defined entries and runs of -1 (test_dense_repr checks it)."""
    parts, at = [], 0
    for y in sorted(row):
        parts.append("-1, " * (y - at) + f"{row[y]}, ")
        at = y + 1
    text = "".join(parts) + "-1, " * (n - at)
    return "(" + text[:-2] + ("," if n == 1 else "") + ")"


def table_hash(g) -> str:
    h = hashlib.sha256()
    for name in FIELDS:
        value = getattr(g, name)
        if name in ("comp1", "vcomp", "hcomp2"):
            for row in value:
                h.update(dense_repr(row, len(value)).encode())
        else:
            h.update(repr(value).encode())
        h.update(b"\n")
    return h.hexdigest()


def _bg(n):
    return xmod_to_2group(xmod_bg(cyclic(n)))


def _b2g(m):
    return xmod_to_2group(xmod_b2g(cyclic(m)))


def _load(name):
    ws = Workspace()
    parse_file(str(FIX / name), ws)
    kind, _, obj = ws.subject()
    return xmod_to_2group(obj) if kind == "xmod" else obj


def _pair(key):
    """The domain, codomain and pointedness of a hash key: "grid n m ..."
    is BZ/n -> B2Z/m, else two fixture names."""
    words = key.split()
    if words[0] == "grid":
        dom, cod = _bg(int(words[1])), _b2g(int(words[2]))
    else:
        dom, cod = _load(words[0]), _load(words[1])
    return dom, cod, words[-1] == "pointed"


class TestTablesEqualTheDenseLayout:
    def test_every_case_is_recorded(self):
        grid = {f"grid {n} {m} {p}" for n in (2, 3, 4) for m in (2, 3, 4)
                for p in ("pointed", "free")} - {"grid 4 4 free"}
        names = ("bz2.2gpd", "z2.xmod", "z2to1.xmod", "z3.xmod",
                 "z4to2.xmod")
        pairs = {f"{a} {b} {p}" for a in names for b in names
                 for p in ("pointed", "free")}
        assert set(HASHES) == grid | pairs

    def test_dense_repr(self):
        for row, n in (({}, 0), ({0: 5}, 1), ({}, 1), ({1: 0}, 3)):
            assert dense_repr(row, n) == \
                repr(tuple(row.get(y, -1) for y in range(n)))
        h = hom_full(_bg(3), _b2g(4))
        for table in (h.comp1, h.vcomp, h.hcomp2):
            assert [dense_repr(r, len(table)) for r in table] == \
                list(map(repr, dense_table(table)))

    @pytest.mark.parametrize("key", sorted(HASHES))
    def test_hom_full_tables(self, key):
        dom, cod, pointed = _pair(key)
        assert table_hash(hom_full(dom, cod, pointed_only=pointed)) == \
            HASHES[key]


class TestHomCap:
    def test_pointed_4_3_at_its_entry_count(self):
        """40 095 defined entries; its searches take far fewer steps, so
        one below the count raises at the tables."""
        d, c = _bg(4), _b2g(3)
        h = hom_full(d, c, pointed_only=True, cap=40_095)
        assert sum(map(len, h.comp1 + h.vcomp + h.hcomp2)) == 40_095
        with pytest.raises(SizeCapExceeded,
                           match="^hom: tables of 40095 entries exceed the "
                                 "cap of 40094$"):
            hom_full(d, c, pointed_only=True, cap=40_094)

    def test_unpointed_4_4_raises_before_any_row(self):
        """4 096 1-cells and 16 384 2-cells with about 4.5 M defined
        entries; as rows they need hundreds of MB, so a process that lists
        the cells and stops stays far below.  The peak is the child's own
        VmHWM (ru_maxrss would count the memory of this process, which
        starts it)."""
        code = ("from twotypes.fingroup import cyclic\n"
                "from twotypes.search import SizeCapExceeded\n"
                "from twotypes.twogpd import xmod_to_2group\n"
                "from twotypes.weakmaps import hom_full\n"
                "from twotypes.xmod import xmod_b2g, xmod_bg\n"
                "try:\n"
                "    hom_full(xmod_to_2group(xmod_bg(cyclic(4))),\n"
                "             xmod_to_2group(xmod_b2g(cyclic(4))))\n"
                "except SizeCapExceeded as exc:\n"
                "    print(exc)\n"
                "print(open('/proc/self/status').read().split('VmHWM:')[1]"
                ".split()[0])\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(ROOT / "src")] + sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120).stdout.splitlines()
        assert out[0] == ("hom: tables of 4521984 entries exceed the cap of "
                          "1000000")
        assert int(out[1]) < 150 * 1024, out  # KB

    def test_cli_exits_3(self, tmp_path, capsys):
        for name, xm in (("bz4", xmod_bg(cyclic(4))),
                         ("b2z3", xmod_b2g(cyclic(3)))):
            (tmp_path / f"{name}.xmod").write_text(format_xmod(name, xm))
        argv = ["hom", str(tmp_path / "bz4.xmod"), str(tmp_path / "b2z3.xmod"),
                "--pointed", "--cap"]
        assert cli.main(argv + ["40095"]) == 0
        assert capsys.readouterr().out == \
            "objects: 27; cells1: 729; cells2: 729\n"
        assert cli.main(argv + ["40094"]) == 3
        assert capsys.readouterr().err == (
            "cap exceeded: hom: tables of 40095 entries exceed the cap of "
            "40094\n")


def _bz2_with(line_no, text):
    """fixtures/bz2.2gpd with its line line_no (1-based) replaced."""
    lines = (FIX / "bz2.2gpd").read_text().splitlines()
    lines[line_no - 1] = text
    return "\n".join(lines) + "\n"


class TestRangeAudit:
    @pytest.mark.parametrize("line_no, text, error", [
        (3, "tgt1 2 0", "tgt1-range fails at 0"),
        (7, "1 7", "comp1-range fails at (1, 1)"),
        (8, "src2 2 1", "src2-range fails at 0"),
        (12, "0 -2", "vcomp-range fails at (0, 1)"),
        (4, "id1 -1", "id1-range fails at 0"),
        (16, "1 2", "hcomp2-range fails at (1, 1)"),
    ])
    def test_bz2_reproducers_exit_1(self, tmp_path, capsys, line_no, text,
                                    error):
        path = tmp_path / "bad.2gpd"
        path.write_text(_bz2_with(line_no, text))
        for command in (["check"], ["nerve"], ["invariants"]):
            assert cli.main(command + [str(path)]) == 1
            err = capsys.readouterr().err
            assert err == f"validation error: {path}: bz2: {error}\n"

    def test_lengths_and_dict_rows(self):
        base = dict(n_objects=1, src1=[0], tgt1=[0], id1=[0], comp1=[[0]],
                    src2=[0], tgt2=[0], id2=[0], vcomp=[[0]], hcomp2=[[0]])
        for field, value, error in (
                ("id1", [0, 0], ("id1-length", 2)),
                ("tgt2", [], ("tgt2-length", 0)),
                ("comp1", [[0], [0]], ("comp1-length", 2)),
                ("comp1", [{0: 0, 1: 0}], ("comp1-range", (0, 1))),
                ("hcomp2", [{0: 3}], ("hcomp2-range", (0, 0)))):
            with pytest.raises(Violation) as exc:
                build_two_groupoid(**dict(base, **{field: value}))
            assert (exc.value.axiom, exc.value.witness) == error
        with pytest.raises(Violation) as exc:
            build_weak_2groupoid(**base, assoc=[[[1]]])
        assert (exc.value.axiom, exc.value.witness) == ("assoc-range",
                                                        (0, 0, 0))
        assert build_weak_2groupoid(**base, assoc=[[[0]]]).assoc == \
            ({0: {0: 0}},)


class TestOneFunctorAudit:
    def test_strict_names(self):
        d, c = _bg(2), _bg(3)
        with pytest.raises(Violation) as exc:
            check_2functor(d, c, [0], [0, 1], [c.id2[0], c.id2[1]])
        assert (exc.value.axiom, exc.value.witness) == ("functor-comp1",
                                                        (1, 1))
        with pytest.raises(Violation) as exc:
            check_2functor(d, c, [0], [1, 1], [c.id2[1], c.id2[1]])
        assert (exc.value.axiom, exc.value.witness) == ("functor-id1", 0)
        b = _b2g(3)
        with pytest.raises(Violation) as exc:
            check_2functor(b, b, [0], [0], [0, 1, 1])
        assert (exc.value.axiom, exc.value.witness) == ("functor-vcomp",
                                                        (1, 1))
        with pytest.raises(Violation) as exc:
            check_weak_functor(b, b, [0], [0], [0, 1, 1], [[b.id2[0]]])
        assert exc.value.axiom == "wf-vcomp"

    def test_strict_functor_keeps_its_cells(self):
        b = _b2g(3)
        F = check_2functor(b, b, [0], [0], [0, 2, 1])
        assert (F.obj_map, F.map1, F.map2) == ((0,), (0,), (0, 2, 1))
        assert F.eps == ((b.id2[0],),)
