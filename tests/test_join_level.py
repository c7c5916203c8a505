"""Coskeletal levels held as joins, against the explicit-row scans they
replaced.

The `old_*` functions are the level audits as they ran on listed rows
before `coskeleton` returned `JoinLevel`s: the compatible-tuple join over
(prefix, bucket) pairs, `is_kan`, `is_coskeletal_at`, and the face-row and
d-d loops of `check_simplicial_identities`.  They run on the rows of each
level, listed, and must agree with the library run on the level itself.
`old_kan_join` is the Kan audit of a joined level before it counted a join
one position shorter first, and `old_degen_witness` the check of the
degeneracies into a joined level before it read their targets down columns.
"""

import dataclasses
import gc
import itertools
import math
import operator
import random
import time
import weakref
from pathlib import Path

import pytest

from twotypes import nerve as nerve_mod
from twotypes import simpset
from twotypes.fingroup import cyclic, symmetric3
from twotypes.nerve import nerve
from twotypes.reconstruct import (
    choose_fillers, pentagon_via_4simplex, reconstruct, roundtrip_report,
)
from twotypes.search import Budget, SizeCapExceeded
from twotypes.simpset import (
    JoinDegens, JoinLevel, TruncatedSimplicialSet, boundary,
    check_simplicial_map, coskeleton, extend_to_level4, horn, in_sset2,
    is_coskeletal_at, is_k_minimal, is_kan, product, relabel,
    simplicial_maps, standard_simplex,
)
from twotypes.textio import parse_file
from twotypes.twogpd import xmod_to_2group
from twotypes.xmod import Violation, xmod_bg, xmod_identity

from test_simpset import (
    brute_force_tuples, nerve_bg, sphere_base, without_4_simplex,
)

FIX = Path(__file__).resolve().parent.parent / "fixtures"


# -- the explicit-row scans, as they were ------------------------------------

def old_join(below, count, positions):
    if not below:
        return ((prefix, range(count)) for prefix in
                itertools.product(range(count), repeat=len(positions) - 1))
    joined = [((), range(count))]
    for t in range(1, len(positions)):
        index = {}
        for z, row in enumerate(below):
            *head, tail = (row[i] for i in positions[:t])
            index.setdefault(tuple(head), {}).setdefault(tail, []).append(z)
        joined = old_extend(joined, [row[positions[t] - 1] for row in below],
                            index)
    return joined


def old_extend(joined, col, index):
    for prefix, bucket in joined:
        sub = index.get(tuple(map(col.__getitem__, prefix)))
        if sub:
            for z in bucket:
                yield prefix + (z,), sub.get(col[z], ())


def old_rows(joined):
    return (prefix + (z,) for prefix, bucket in joined for z in bucket)


def old_count(joined):
    return sum(len(bucket) for _, bucket in joined)


def old_count_compatible(below, positions, rows):
    if not below:
        return len(rows)
    cols = list(zip(*below))
    pairs = [(cols[i], b, cols[j - 1], a) for b, j in enumerate(positions)
             for a, i in enumerate(positions[:b])]
    return sum(all(di[row[b]] == dj[row[a]] for di, b, dj, a in pairs)
               for row in rows)


def old_indexes(rows, width, count):
    return not rows or (set(map(len, rows)) == {width}
                        and min(map(min, rows)) >= 0
                        and max(map(max, rows)) < count)


def old_is_coskeletal_at(x, k):
    for m in range(k + 1, x.trunc + 1):
        below, rows = x.faces[m - 1], x.faces[m]
        if len(set(rows)) != len(rows):
            return False
        if not old_indexes(rows, m + 1, x.counts[m - 1]):
            return False
        if old_count_compatible(below, range(m + 1), rows) != len(rows):
            return False
        if old_count(old_join(below, x.counts[m - 1], range(m + 1))) != \
           len(rows):
            return False
    return True


def old_is_kan(x, dims):
    for n in dims:
        if n > x.trunc:
            continue
        below, size = x.faces[n - 1], x.counts[n - 1]
        clean = old_indexes(x.faces[n], n + 1, size)
        for k in range(n + 1):
            positions = [i for i in range(n + 1) if i != k]
            horns = old_count(old_join(below, size, positions))
            filled = {row[:k] + row[k + 1:] for row in x.faces[n]}
            fillers = filled if clean else \
                [key for key in filled if old_indexes((key,), n, size)]
            if old_count_compatible(below, positions, fillers) != horns:
                for row in old_rows(old_join(below, size, positions)):
                    if row not in filled:
                        return (n, k, dict(zip(positions, row)))
    return True


def old_face_violation(x, n):
    """The face-row and d-d loops of the identity audit at level n."""
    for z in range(x.counts[n]):
        row = x.faces[n][z]
        if len(row) != n + 1 or any(not 0 <= v < x.counts[n - 1]
                                    for v in row):
            return ("face-row", (n, z))
    for z in range(x.counts[n]):
        for j in range(1, n + 1):
            for i in range(j):
                if x.faces[n - 1][x.faces[n][z][j]][i] != \
                   x.faces[n - 1][x.faces[n][z][i]][j - 1]:
                    return ("dd-identity", (n, z, i, j))
    return None


# -- cases ------------------------------------------------------------------

def listed(x):
    """x with every JoinLevel replaced by its rows, listed from its join,
    so that x keeps its levels unlisted."""
    return dataclasses.replace(x, faces=tuple(
        tuple(level.join) if isinstance(level, JoinLevel) else level
        for level in x.faces))


def top_three(x):
    return dataclasses.replace(x, trunc=3, counts=x.counts[:4],
                               faces=x.faces[:4], degens=x.degens[:3])


def relabelled(x, seed):
    """The nerve x with levels 0-3 relabelled by seeded permutations and
    level 4 joined again over the new level 3."""
    rng = random.Random(seed)
    perms = []
    for n in range(4):
        p = list(range(x.counts[n]))
        rng.shuffle(p)
        perms.append(p)
    return coskeleton(relabel(top_three(x), perms), 3, trunc=4)


def with_level3(x, rows):
    """x with level 3 replaced by rows and level 4 joined over them; the
    degeneracies are left as they were, as no level-4 audit reads them."""
    rows = tuple(rows)
    level = JoinLevel(rows, len(rows), 4)
    return dataclasses.replace(
        x, counts=x.counts[:3] + (len(rows), len(level)),
        faces=x.faces[:3] + (rows, level))


def mutants(x):
    """Level-3 tables of x with a row dropped, a row duplicated, and a
    nondegenerate row with another d_1."""
    rows = list(x.faces[3])
    z = x.degenerate_flags(3).index(False)
    d1 = next(v for v in range(x.counts[2]) if v != rows[z][1])
    return {"dropped": rows[:z] + rows[z + 1:],
            "duplicated": rows + [rows[z]],
            "altered-d1": rows[:z] + [(rows[z][0], d1) + rows[z][2:]]
            + rows[z + 1:]}


def reference_rows(x, m):
    """The rows of level m: by brute force when that is quick, else by the
    old join."""
    if x.counts[m - 1] <= 32:
        return brute_force_tuples(x, m, range(m + 1))
    return list(old_rows(old_join(x.faces[m - 1], x.counts[m - 1],
                                  range(m + 1))))


def assert_audits_agree(x, k=3):
    old = listed(x)
    for n in range(k + 1, x.trunc + 1):
        assert is_kan(x, (n,)) == old_is_kan(old, (n,))
        if isinstance(x.faces[n], JoinLevel):
            assert old_face_violation(old, n) is None
    assert is_coskeletal_at(x, k) == old_is_coskeletal_at(old, k)


def assert_level_agrees(x, m, seed):
    """Length, order, rank and membership of the JoinLevel at m."""
    level = JoinLevel(x.faces[m - 1], x.counts[m - 1], m)
    rows = reference_rows(x, m)
    assert len(level) == len(rows)
    # ranks walk the join before any row is listed
    assert level.ranks(rows) == list(range(len(rows)))
    rng = random.Random(seed)
    present = set(rows)
    others = []
    while len(others) < 100:
        row = tuple(rng.randrange(-1, x.counts[m - 1] + 1)
                    for _ in range(m + 1))
        if row not in present:
            others.append(row)
    assert not any(row in level for row in others)
    assert level.ranks(others) == [None] * len(others)
    with pytest.raises(ValueError):
        level.rank(others[0])
    assert list(level) == rows
    assert level == tuple(rows)
    # once listed, rank and membership agree with the listed tuple
    index = {row: i for i, row in enumerate(rows)}
    assert len(index) == len(rows)
    sample = rng.sample(rows, min(len(rows), 500))
    for row in sample:
        assert row in level and level.rank(row) == index[row] == \
            level.index(row)
    assert level.ranks(sample + others) == \
        [index[row] for row in sample] + [None] * len(others)


CORPUS = ("pt", "b_z2", "b_z3", "b_s3", "b2_z2", "b2_z3", "b2_z4",
          "z4_to_z2", "id_z2", "id_z3", "z3_inv", "v4_to_z2")
# the nerves with more than 20 000 level-4 rows take 3 s each against the
# old scans; they are run plain, and relabelled they would show no shape
# that the others lack
LARGE = ("z4_to_z2", "id_z3", "v4_to_z2")


class TestAgainstExplicitRows:
    @pytest.mark.parametrize("name, relabel", [
        *(pytest.param(name, False, id=f"{name}-plain") for name in CORPUS),
        *(pytest.param(name, True, id=f"{name}-relabelled")
          for name in CORPUS if name not in LARGE)])
    def test_corpus_nerve(self, gpd_nerves, name, relabel):
        seed = CORPUS.index(name)
        x = next(x for entry, _, _, x in gpd_nerves if entry == name)
        assert isinstance(x.faces[4], JoinLevel)
        assert (x.counts[4] > 20_000) == (name in LARGE)
        if relabel:
            x = relabelled(x, seed)
        assert_audits_agree(x)
        assert_level_agrees(x, 4, seed)

    def test_sphere(self):
        x = coskeleton(sphere_base(), 2, trunc=4)
        assert isinstance(x.faces[3], JoinLevel)
        assert_audits_agree(x, k=2)
        assert_audits_agree(x, k=3)
        for m in (3, 4):
            assert_level_agrees(x, m, m)

    def test_nerve_without_a_4_simplex(self):
        y = without_4_simplex(nerve(xmod_to_2group(xmod_bg(cyclic(2)))))[0]
        assert not isinstance(y.faces[4], JoinLevel)
        assert_audits_agree(y)

    @pytest.mark.parametrize("name", ["b_s3", "b2_z3", "z3_inv"])
    def test_mutated_level_3(self, gpd_nerves, name):
        x = next(x for entry, _, _, x in gpd_nerves if entry == name)
        found = {}
        for edit, rows in mutants(x).items():
            y = with_level3(x, rows)
            assert_audits_agree(y)
            found[edit] = is_kan(y, (4,))
        # a dropped 3-simplex leaves horns unfilled; a duplicate fills the
        # same horns twice, so the counts differ but every horn fills
        assert found["dropped"] is not True
        assert found["duplicated"] is True

    def test_level_over_vertices(self):
        # cosk_0 of two points: every tuple of vertices, edges included
        two = TruncatedSimplicialSet(trunc=0, counts=(2,), faces=((),),
                                     degens=())
        y = coskeleton(two, 0, trunc=3)
        assert y.counts == (2, 4, 8, 16)
        for m in (1, 2, 3):
            assert list(y.faces[m]) == brute_force_tuples(y, m, range(m + 1))
        assert is_kan(y) is True
        assert is_coskeletal_at(y, 0)


# -- what builds rows -------------------------------------------------------

def record_rows(monkeypatch):
    """The JoinLevels whose rows are listed while the patch holds."""
    listed_levels, original = [], JoinLevel.rows

    def rows(self):
        listed_levels.append(self)
        return original(self)
    monkeypatch.setattr(JoinLevel, "rows", rows)
    return listed_levels


class TestAuditBudget:
    def test_audits_list_no_level_4_row(self, monkeypatch):
        x = nerve(xmod_to_2group(xmod_bg(cyclic(3))))
        listed_levels = record_rows(monkeypatch)
        assert is_kan(x) is True
        assert is_coskeletal_at(x, 3)
        assert pentagon_via_4simplex(x)
        assert roundtrip_report(x).ok
        assert in_sset2(x).ok
        assert listed_levels == []

    def test_extension_to_level_4_ranks_the_target(self):
        x = nerve(xmod_to_2group(xmod_bg(cyclic(3))))
        y = coskeleton(x, 3)  # the same levels 0-3, level 4 joined anew
        m = check_simplicial_map(x, y, [range(c) for c in x.counts[:4]])
        assert extend_to_level4(m).levels[4] == tuple(range(x.counts[4]))


class TestCountBeforeBuilding:
    def test_id_s3_raises_before_any_row(self, monkeypatch):
        def no_rows(self, *args):
            raise AssertionError("rows built")
        monkeypatch.setattr(simpset._Join, "_rows", no_rows)
        g = xmod_to_2group(xmod_identity(symmetric3()))
        with pytest.raises(SizeCapExceeded, match="^nerve: the simplices of "
                           "level 4 exceed the cap of 1000000$"):
            nerve(g)
        # level 3 holds 6^3 * 6^3 = 46 656 simplices
        with pytest.raises(SizeCapExceeded, match="^nerve: the simplices of "
                           "level 4 exceed the cap of 46656$"):
            nerve(g, cap=46_656)

    def test_levels_0_to_3_are_audited_only_under_the_cap(self, monkeypatch):
        audited = []
        audit = simpset.check_simplicial_identities

        def spy(x):
            audited.append(x)
            return audit(x)
        monkeypatch.setattr(simpset, "check_simplicial_identities", spy)
        with pytest.raises(SizeCapExceeded) as err:
            nerve(xmod_to_2group(xmod_identity(symmetric3())))
        assert str(err.value) == \
            "nerve: the simplices of level 4 exceed the cap of 1000000"
        assert audited == []
        g = xmod_to_2group(xmod_bg(cyclic(3)))
        with pytest.raises(SizeCapExceeded, match="^nerve: the simplices of "
                           "level 4 exceed the cap of 80$"):
            nerve(g, cap=80)
        assert audited == []
        x = nerve(g)
        assert [y.counts for y in audited] == [(1, 3, 9, 27)]
        assert simpset._join_over(x, 4) and x.counts[4] == 81
        # levels 0-3 are those the audit passed
        y = audited[0]
        assert (x.faces[:4], x.degens[:3]) == (y.faces, y.degens)

    def test_cap_is_checked_on_a_cached_nerve(self):
        g = xmod_to_2group(xmod_bg(cyclic(3)))
        assert nerve(g, cap=81).counts[4] == 81
        with pytest.raises(SizeCapExceeded, match="^nerve: the simplices of "
                           "level 4 exceed the cap of 80$"):
            nerve(g, cap=80)

    def test_level_3_is_counted_exactly(self, gpd_nerves):
        # on every strict corpus entry and on a weak reconstruction of it
        for name, _, g, x in gpd_nerves:
            w = reconstruct(x, choose_fillers(x, "seeded:1"))
            assert nerve_mod._level3_count(g) == x.counts[3], name
            assert nerve_mod._level3_count(w) == nerve(w).counts[3], name

    def test_level_3_of_id_z16_raises_before_any_simplex(self, monkeypatch):
        # the 2-group has 16^2 + 16 * 16^2 + 256^2 = 69 888 entries and
        # level 2 16^3; level 3 would hold 16^6 = 16 777 216 simplices
        g = xmod_to_2group(xmod_identity(cyclic(16)), cap=70_000)
        listed = []
        monkeypatch.setattr(nerve_mod, "two_simplices", listed.append)
        start = time.process_time()
        with pytest.raises(SizeCapExceeded, match="^nerve: the simplices of "
                           "level 3 exceed the cap of 70000$"):
            nerve(g, cap=70_000)
        assert time.process_time() - start < 1
        assert listed == []

    @pytest.mark.parametrize("xm, level3, level4", [
        (xmod_bg(symmetric3()), 216, 1296),
        (xmod_identity(cyclic(3)), 729, 59049)])
    def test_level_3_at_its_count(self, xm, level3, level4):
        with pytest.raises(SizeCapExceeded, match="^nerve: the simplices of "
                           f"level 3 exceed the cap of {level3 - 1}$"):
            nerve(xmod_to_2group(xm), cap=level3 - 1)
        with pytest.raises(SizeCapExceeded, match="^nerve: the simplices of "
                           f"level 4 exceed the cap of {level3}$"):
            nerve(xmod_to_2group(xm), cap=level3)
        assert nerve(xmod_to_2group(xm), cap=level4).counts[3:] == \
            (level3, level4)


class TestNerveCache:
    def test_entry_leaves_with_its_2groupoid(self):
        g = xmod_to_2group(xmod_bg(cyclic(2)))
        x = nerve(g)
        assert nerve(g) is x
        ref = weakref.ref(x)
        del x
        gc.collect()
        assert ref() is not None and nerve(g) is ref()
        del g
        gc.collect()
        assert ref() is None


# -- map search into a joined level ------------------------------------------

MAP_NERVES = ("pt", "b_z2", "b_z3", "b2_z2", "b2_z3", "id_z2")


def with_listed_level4(y):
    """y with its level 4 as listed rows, so that the map search checks
    level 3 against it as it does into a complex read from a file."""
    return dataclasses.replace(y, faces=y.faces[:4] + (tuple(y.faces[4]),))


class TestMapsIntoAJoin:
    def test_same_maps_and_no_target_row(self, gpd_nerves, monkeypatch):
        sphere = parse_file(str(FIX / "sphere.sset")).subject()[2]
        complexes = [x for name, _, _, x in gpd_nerves
                     if name in MAP_NERVES] + [sphere]
        assert len(complexes) == len(MAP_NERVES) + 1
        pairs = 0
        for x, y in itertools.product(complexes, repeat=2):
            steps = [Budget(10 ** 6, "map search") for _ in range(2)]
            want = [m.levels for m in simplicial_maps(
                x, with_listed_level4(y), cap=steps[0])]
            listed_levels = record_rows(monkeypatch)
            got = [m.levels for m in simplicial_maps(x, y, cap=steps[1])]
            monkeypatch.undo()
            # the same maps in the same order, through the same nodes
            assert got == want
            assert steps[0].steps == steps[1].steps
            if x is not y:
                # the domain's level-4 rows order the search; the target's
                # are not read
                assert all(level is not y.faces[4] for level in listed_levels)
            pairs += bool(want)
        assert pairs > len(complexes)


# -- degeneracies into a joined level, ranked when read ----------------------

def eager_degens(x, k, trunc=None, listed=None):
    """The degeneracy tables into the joined levels of coskeleton(x, k,
    trunc) as they were ranked when the level was built, or the
    (axiom, witness) of the first target that is not a row.  A copy of that
    code: the faces of s_j y in (y, j) order, each ranked among the rows
    of the level, which the old join lists.  listed, a dict, keeps those
    rows by level for other calls on complexes with the same faces."""
    trunc = x.trunc if trunc is None else trunc
    listed = {} if listed is None else listed
    counts, faces = list(x.counts[:k + 1]), list(x.faces[:k + 1])
    degens = list(x.degens[:k])
    for m in range(k + 1, trunc + 1):
        if m not in listed:
            rows = list(old_rows(old_join(faces[m - 1], counts[m - 1],
                                          range(m + 1))))
            listed[m] = rows, {row: i for i, row in enumerate(rows)}
        rows, index = listed[m]
        down = degens[m - 2] if m >= 2 else ()
        targets = []
        for y in range(counts[m - 1]):
            fy = faces[m - 1][y] if m >= 2 else ()
            for j in range(m):
                targets.append(tuple(
                    y if i == j or i == j + 1 else
                    down[fy[i]][j - 1] if i < j else down[fy[i - 1]][j]
                    for i in range(m + 1)))
        ranks = [index.get(row) for row in targets]
        if None in ranks:
            y, j = divmod(ranks.index(None), m)
            return ("ds-identity", (m - 1, y, j))
        counts.append(len(rows))
        faces.append(tuple(rows))
        degens.append(tuple(tuple(ranks[y * m:(y + 1) * m])
                            for y in range(counts[m - 1])))
    return tuple(degens[k:])


def read_degens(x, k):
    """The degeneracy tables into the joined levels of x, each read whole.
    Each is a JoinDegens, and the top one is not ranked before this read;
    a lower one is, when the check of the level above reads it."""
    assert all(isinstance(t, JoinDegens) for t in x.degens[k:])
    assert x.degens[-1]._rows is None
    return tuple(tuple(t) for t in x.degens[k:])


def outcome(make):
    """make(), or the (axiom, witness) of the Violation it raises."""
    try:
        return make()
    except Violation as v:
        return (v.axiom, v.witness)


def truncated(x, k):
    return dataclasses.replace(
        x, trunc=k, counts=x.counts[:k + 1], faces=x.faces[:k + 1],
        degens=x.degens[:k], coskeletal_at=None)


def eager(x, k):
    """x with its joined degeneracy tables replaced by the eager ranks."""
    return dataclasses.replace(
        x, degens=x.degens[:k] + eager_degens(truncated(x, k), k, x.trunc))


# name -> (base, k): the coskeleta of these, besides the corpus nerves
BASES = {
    "boundary3": lambda: (boundary(3), 3),
    "boundary2": lambda: (boundary(2), 1),
    "horn31": lambda: (horn(3, 1), 2),
    "horn42": lambda: (horn(4, 2), 3),
    "sphere": lambda: (sphere_base(), 2),
}
# nerves small enough to pass through make_sset again in relabel
SMALL = ("pt", "b_z2", "b_z3", "b2_z2", "b2_z3", "id_z2")


def corpus_nerve(gpd_nerves, name):
    return next(x for entry, _, _, x in gpd_nerves if entry == name)


class TestDegeneraciesRankedWhenRead:
    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus_nerve(self, gpd_nerves, name):
        x = corpus_nerve(gpd_nerves, name)
        want = eager_degens(truncated(x, 3), 3, 4)
        assert isinstance(want, tuple) and len(want) == 1
        # a nerve of its own: the one in the session may have been read
        y = coskeleton(truncated(x, 3), 3, trunc=4)
        assert len(y.degens[3]) == y.counts[3] and y.degens[3]._rows is None
        assert read_degens(y, 3) == want
        assert y.degens[3] == want[0] and hash(y.degens[3]) == hash(want[0])
        assert x.degens[3] == want[0] and x.degens == y.degens
        # the same ranks once the level's rows are listed
        z = coskeleton(truncated(x, 3), 3, trunc=4)
        assert tuple(z.faces[4]) == tuple(y.faces[4].join)
        assert read_degens(z, 3) == want

    @pytest.mark.parametrize("name", BASES)
    def test_coskeleta(self, name):
        x, k = BASES[name]()
        assert read_degens(coskeleton(x, k, trunc=4), k) == \
            eager_degens(x, k, 4)

    @pytest.mark.parametrize("name", SMALL)
    def test_after_relabel(self, gpd_nerves, name):
        x = corpus_nerve(gpd_nerves, name)
        rng = random.Random(CORPUS.index(name))
        perms = [rng.sample(range(c), c) for c in x.counts]
        assert relabel(coskeleton(x, 3), perms).degens == \
            relabel(eager(coskeleton(x, 3), 3), perms).degens
        # level 4 joined again over the relabelled level 3
        base = relabel(truncated(x, 3), perms[:4])
        assert read_degens(coskeleton(base, 3, trunc=4), 3) == \
            eager_degens(base, 3, 4)

    @pytest.mark.parametrize("name", ["pt", "b_z2", "b_z3", "b2_z2"])
    def test_after_product(self, gpd_nerves, name):
        x = coskeleton(corpus_nerve(gpd_nerves, name), 3)
        other = coskeleton(corpus_nerve(gpd_nerves, "b_z2"), 3)
        assert product(x, other).degens == \
            product(eager(x, 3), eager(other, 3)).degens
        # level 4 joined again over the product of the levels 3
        base = product(truncated(x, 3), truncated(other, 3))
        assert read_degens(coskeleton(base, 3, trunc=4), 3) == \
            eager_degens(base, 3, 4)

    @pytest.mark.parametrize("name", [
        "boundary3", "boundary2", "horn31", "sphere", "b_z2", "b_z3",
        "b2_z2"])
    def test_mutated_degeneracies(self, gpd_nerves, name):
        if name in BASES:
            x, k = BASES[name]()
        else:
            x, k = truncated(corpus_nerve(gpd_nerves, name), 3), 3
        raised = kept = 0
        listed = {}
        rng = random.Random(name)
        for t in range(k):
            table = x.degens[t]
            # only the table into level k is read; a lower one is tried at
            # its first entry.  Each takes every value at 16 entries at most
            cells = [(y, j) for y in range(len(table))
                     for j in range(t + 1)] if t == k - 1 else [(0, 0)]
            if len(cells) > 16:
                cells = cells[:1] + rng.sample(cells[1:], 15)
            for y, j in cells:
                for v in [*range(x.counts[t + 1]), -1, -2, x.counts[t + 1]]:
                    if v == table[y][j]:
                        continue
                    row = table[y][:j] + (v,) + table[y][j + 1:]
                    edited = table[:y] + (row,) + table[y + 1:]
                    z = dataclasses.replace(
                        x, degens=x.degens[:t] + (edited,) + x.degens[t + 1:])
                    want = eager_degens(z, k, 4, listed)
                    got = outcome(lambda: read_degens(coskeleton(
                        z, k, trunc=4), k))
                    assert got == want, (t, y, j, v)
                    raised += want[0] == "ds-identity"
                    kept += want[0] != "ds-identity"
        assert raised and (kept or name == "boundary2")


class TestFirstNotRow:
    @pytest.mark.parametrize("name", ["b_z3", "b2_z2", "z3_inv"])
    def test_against_a_scan(self, gpd_nerves, name, monkeypatch):
        # rows of level 4 with one entry changed, each after a run of true
        # rows: most break only a few of the ten pairs of positions
        x = corpus_nerve(gpd_nerves, name)
        rows, size = list(x.faces[4].join), x.counts[3]
        below, rng = x.faces[3], random.Random(name)

        def is_row(row):
            return all(0 <= v < size for v in row) and all(
                below[row[b]][a] == below[row[a]][b - 1]
                for b in range(1, 5) for a in range(b))
        for _ in range(200):
            row = list(rng.choice(rows))
            row[rng.randrange(5)] = rng.randrange(-2, size + 2)
            batch = rng.sample(rows, rng.randrange(3)) + [tuple(row)] + \
                rng.sample(rows, 2)
            want = next((i for i, r in enumerate(batch) if not is_row(r)),
                        None)
            assert simpset._first_not_row(x.faces[4].join, batch) == want
        assert simpset._first_not_row(x.faces[4].join, rows) is None
        # the degeneracies into a true level pass on the columns alone, with
        # no row tested by itself
        monkeypatch.setattr(simpset._Join, "__contains__", None)
        assert coskeleton(truncated(x, 3), 3, trunc=4).counts == x.counts


class TestNoRanksInTheAudit:
    def test_nerve_audit_of_z4_to_z2_locates_nothing(self, corpus,
                                                     monkeypatch):
        def no_rows(self, *args):
            raise AssertionError("a level was listed")
        monkeypatch.setattr(simpset._Join, "_rows", no_rows)
        xm = next(xm for name, xm in corpus if name == "z4_to_z2")
        x = nerve(xmod_to_2group(xm))  # a 2-groupoid of its own: no cache
        assert x.degens[3]._rows is None
        assert is_kan(x, (4,)) is True
        assert is_coskeletal_at(x, 3)
        assert is_k_minimal(x, 2) is True
        assert roundtrip_report(x).ok


def widest(node):
    """The size of the largest leaf of a trie node of a `simpset._Join`."""
    if isinstance(node, dict):
        return max(map(widest, node.values()), default=0)
    return len(node)


class TestEachLevelCountedOnce:
    @staticmethod
    def record_counts(monkeypatch):
        joins, original = [], simpset._Join.count

        def count(self, *args):
            joins.append(self)
            return original(self, *args)
        monkeypatch.setattr(simpset._Join, "count", count)
        return joins

    @pytest.mark.parametrize("make, k, cap", [
        (lambda: truncated(nerve_bg(3), 3), 3, None),
        (sphere_base, 2, None),
        (lambda: boundary(2), 1, None),
        # the product of the largest buckets passes the cap at levels 3 and
        # 4 (30 and 45), but the count stops only past the cap; no level
        # passes it
        (lambda: boundary(2), 1, 21),
        (lambda: horn(4, 2), 3, 121),
    ])
    def test_one_count_per_joined_level(self, monkeypatch, make, k, cap):
        x = make()
        sizes = coskeleton(x, k, trunc=4).counts
        joins = self.record_counts(monkeypatch)
        y = coskeleton(x, k, trunc=4, **({} if cap is None else {"cap": cap}))
        levels = [y.faces[m].join for m in range(k + 1, 5)]
        if cap is not None:
            bounds = [math.prod(map(widest, j.roots), start=j.size)
                      for j in levels]
            assert max(bounds) > cap >= max(sizes[k + 1:])
        assert y.counts == sizes
        read_degens(y, k)
        assert [len(y.faces[m]) for m in range(k + 1, 5)] == \
            list(sizes[k + 1:])
        assert len(joins) == len(levels) and \
            all(a is b for a, b in zip(joins, levels))


# -- Kan over a joined level, settled by a shorter join ---------------------

def old_kan_join(x, n):
    """`simpset._kan_join` before the shorter join: the join over every
    position but k is counted, and listed on a mismatch."""
    below, size = x.faces[n - 1], x.counts[n - 1]
    boundaries = set(below)
    unique = len(boundaries) == size
    rows = len(x.faces[n])
    for k in range(n + 1):
        positions = [i for i in range(n + 1) if i != k]
        horns = simpset._Join(below, size, positions)
        if unique and horns.count(rows) == rows:
            continue
        for row in horns:
            need = tuple(below[row[i]][k - 1 if i < k else k]
                         for i in range(n))
            if need not in boundaries:
                return (n, k, dict(zip(positions, row)))
    return True


def kan_shapes(x):
    """For each joined level n >= 2 of x, checked against the old audit:
    (verdict, whether boundaries are unique, whether some face can be
    dropped)."""
    out = []
    for n in range(2, x.trunc + 1):
        if simpset._join_over(x, n):
            found = simpset._kan_join(x, n)
            assert found == old_kan_join(x, n)
            below = x.faces[n - 1]
            out.append((found, len(set(below)) == len(below),
                        bool(simpset._telling_faces(below, n))))
    return out


class TestKanFromAShorterJoin:
    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus_nerve(self, gpd_nerves, name):
        x = corpus_nerve(gpd_nerves, name)
        for y in (x, relabelled(x, 1), relabelled(x, 2)):
            # every face of a 3-simplex of a nerve may be dropped: a
            # 3-horn of a 2-groupoid has one filler
            assert kan_shapes(y) == [(True, True, True)]

    @pytest.mark.parametrize("name", ["b_s3", "b2_z3", "z3_inv"])
    def test_mutated_level_3(self, gpd_nerves, name):
        x = corpus_nerve(gpd_nerves, name)
        shapes = {edit: kan_shapes(with_level3(x, rows))
                  for edit, rows in mutants(x).items()}
        assert shapes["dropped"][0][0] is not True
        assert shapes["duplicated"] == [(True, False, False)]

    def test_coskeleta_of_simplices(self):
        bases = [standard_simplex(n) for n in range(5)] + \
            [boundary(n) for n in range(1, 5)] + \
            [horn(n, k) for n in range(1, 5) for k in range(n + 1)]
        shapes = [s for base in bases for k in (1, 2, 3)
                  for s in kan_shapes(coskeleton(base, k, trunc=4))]
        assert len(shapes) == 138
        # unfillable horns, and unique boundaries with no face to drop
        assert sum(found is not True for found, _, _ in shapes) == 28
        assert sum(unique and not drop for _, unique, drop in shapes) == 19

    def test_sphere(self):
        # two 2-cells share a boundary, and the 16 3-simplices are the
        # tuples over them: no face of a 3-simplex may be dropped
        base = parse_file(str(FIX / "sphere.sset")).subject()[2]
        assert kan_shapes(coskeleton(base, 2, trunc=4)) == \
            [(True, False, False), (True, True, False)]
        assert kan_shapes(coskeleton(base, 3, trunc=4)) == \
            [(True, True, False)]

    @staticmethod
    def over_level_2(rows, e):
        """Level 2 the triples rows over e edges, and level 3 their join;
        no simplicial identity is assumed by the audit, so none holds."""
        level = JoinLevel(rows, len(rows), 3)
        return TruncatedSimplicialSet(
            trunc=3, counts=(1, e, len(rows), len(level)),
            faces=((), ((0, 0),) * e, rows, level), degens=((), (), ()))

    def test_random_level_2_tables(self):
        shapes = []
        for e in (2, 3):
            triples = list(itertools.product(range(e), repeat=3))
            rng = random.Random(e)
            for _ in range(150):
                shapes += kan_shapes(self.over_level_2(tuple(sorted(
                    rng.sample(triples, rng.randrange(1, len(triples) + 1)))),
                    e))
        assert len(shapes) == 300
        for drop in (False, True):
            verdicts = [found is True for found, _, d in shapes if d == drop]
            assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("rows, want", [
        (((0, 0, 0), (0, 1, 1), (1, 0, 2), (1, 1, 2)),
         (3, 1, {0: 1, 2: 2, 3: 3})),
        (((0, 0, 2), (0, 1, 2), (2, 2, 2)), (3, 2, {0: 1, 1: 0, 3: 2})),
    ])
    def test_only_the_face_opposite_k_counts(self, rows, want):
        # d_0 and d_2 may be dropped and d_1 may not; a short join over the
        # wrong position would count as many tuples as rows at k = want[1]
        assert simpset._telling_faces(rows, 3) == {0, 2}
        assert kan_shapes(self.over_level_2(rows, 3)) == [(want, True, True)]

    def test_id_z3_counts_no_join_over_four_positions(self, gpd_nerves,
                                                       monkeypatch):
        x = corpus_nerve(gpd_nerves, "id_z3")
        widths, original = [], simpset._Join.count

        def count(self, *args):
            widths.append(self.r)
            return original(self, *args)
        monkeypatch.setattr(simpset._Join, "count", count)
        assert is_kan(x, (4,)) is True
        # the joins without positions {0, 1}, {2, 3} and {3, 4}
        assert 4 not in widths and widths.count(3) == 3


class TestOneCountPerNerve:
    @staticmethod
    def record(monkeypatch):
        """The joins made and the joins counted, in order."""
        made, counted = [], []
        init, count = simpset._Join.__init__, simpset._Join.count

        def record_init(self, *args):
            made.append(self)
            init(self, *args)

        def record_count(self, *args):
            counted.append(self)
            return count(self, *args)
        monkeypatch.setattr(simpset._Join, "__init__", record_init)
        monkeypatch.setattr(simpset._Join, "count", record_count)
        return made, counted

    def test_id_z3(self, corpus, monkeypatch):
        xm = next(xm for name, xm in corpus if name == "id_z3")
        g = xmod_to_2group(xm)  # a 2-groupoid of its own: no cache
        made, counted = self.record(monkeypatch)
        x = nerve(g)
        assert made == counted == [x.faces[4].join]
        del made[:], counted[:]
        assert is_kan(x, (4,)) is True
        assert len(made) == 3 and counted == made


# -- degeneracy witnesses, against the check that listed every target --------

def old_degen_targets(below, down, count, m):
    """`simpset._degen_targets`, as it was: the faces of s_j y in (y, j)
    order."""
    out = []
    for y in range(count):
        fy = below[y] if m >= 2 else ()
        for j in range(m):
            out.append(tuple(
                y if i == j or i == j + 1 else
                down[fy[i]][j - 1] if i < j else down[fy[i - 1]][j]
                for i in range(m + 1)))
    return out


def old_first_not_row(join, rows):
    """`simpset._first_not_row` with its column phase, as it was: each pair
    of positions tested on all rows at once, then a scan on a failure."""
    cols, face = list(zip(*rows)), join.cols
    if all(0 <= min(c) and max(c) < join.size for c in cols) and all(
            all(map(operator.eq, map(face[a + 1].__getitem__, cols[b]),
                    map(face[b].__getitem__, cols[a])))
            for b in range(1, len(cols)) for a in range(b)):
        return None
    return next((i for i, row in enumerate(rows) if row not in join), None)


def old_degen_witness(x, k, trunc=4):
    """The witness (m-1, y, j) of the first degeneracy s_j y that is no row
    of its joined level in coskeleton(x, k, trunc), found as the check
    found it that listed every target, or None."""
    counts, faces = list(x.counts[:k + 1]), list(x.faces[:k + 1])
    degens = list(x.degens[:k])
    for m in range(k + 1, trunc + 1):
        level = JoinLevel(faces[m - 1], counts[m - 1], m)
        down = degens[m - 2] if m >= 2 else ()
        bad = old_first_not_row(level.join, old_degen_targets(
            faces[m - 1], down, counts[m - 1], m))
        if bad is not None:
            return (m - 1, *divmod(bad, m))
        counts.append(len(level))
        faces.append(level)
        degens.append(JoinDegens(level, down))
    return None


def degen_witness(x, k):
    """The witness of the ds-identity Violation that coskeleton(x, k,
    trunc=4) raises, or None when it raises none."""
    try:
        coskeleton(x, k, trunc=4)
    except Violation as v:
        assert v.axiom == "ds-identity"
        return v.witness
    return None


def with_degens(x, t, edits):
    """x with degens[t][y][j] set to v for each (y, j, v) of edits."""
    table = [list(row) for row in x.degens[t]]
    for y, j, v in edits:
        table[y][j] = v
    return dataclasses.replace(x, degens=x.degens[:t] + (
        tuple(map(tuple, table)),) + x.degens[t + 1:])


def degen_edits(x, t, rng, cells):
    """Edits of degens[t] at up to cells sampled entries: each set to -1,
    to one past the end and to another simplex; and two entries set at
    once, the later row's at a lower j where there is one, so that a later
    column fails at an earlier row."""
    table, count = x.degens[t], x.counts[t + 1]
    every = [(y, j) for y in range(len(table)) for j in range(t + 1)]
    picks = rng.sample(every, min(cells, len(every)))
    out = [[(y, j, v)] for y, j in picks
           for v in (-1, count, rng.randrange(count)) if v != table[y][j]]
    for (y1, j1), (y2, j2) in itertools.combinations(sorted(picks), 2):
        if y1 < y2 and j1 > j2:
            out.append([(y1, j1, rng.randrange(count)),
                        (y2, j2, rng.randrange(count))])
            break
    return out


SIMPLICES = {
    **{f"simplex{n}": (lambda n=n: standard_simplex(n)) for n in range(5)},
    **{f"boundary{n}": (lambda n=n: boundary(n)) for n in range(5)},
    **{f"horn{n}{i}": (lambda n=n, i=i: horn(n, i))
       for n in range(1, 5) for i in range(n + 1)},
}


class TestDegeneracyWitnesses:
    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus_nerve(self, gpd_nerves, name):
        x = truncated(corpus_nerve(gpd_nerves, name), 3)
        rng = random.Random(name)
        assert degen_witness(x, 3) is old_degen_witness(x, 3) is None
        found = []
        # only the table into level 3 is read; the lower two take a few
        # edits each
        for t, cells in ((0, 1), (1, 2), (2, 6 if name in LARGE else 12)):
            for edits in degen_edits(x, t, rng, cells):
                z = with_degens(x, t, edits)
                want = old_degen_witness(z, 3)
                assert degen_witness(z, 3) == want, (t, edits)
                found.append(want)
        assert any(w is None for w in found)
        assert any(w is not None for w in found)

    @pytest.mark.parametrize("name", SIMPLICES)
    def test_simplices(self, name):
        base, rng, found = SIMPLICES[name](), random.Random(name), []
        for k in (1, 2, 3):
            assert degen_witness(base, k) is old_degen_witness(base, k) \
                is None
            if not base.counts[k]:
                continue
            for edits in degen_edits(base, k - 1, rng, 4):
                z = with_degens(base, k - 1, edits)
                want = old_degen_witness(z, k)
                assert degen_witness(z, k) == want, (k, edits)
                found.append(want)
        # boundary0 is empty
        assert any(w is not None for w in found) or not any(base.counts)

    def test_a_correct_level_builds_no_target_row(self, gpd_nerves,
                                                  monkeypatch):
        def no_rows(*args):
            raise AssertionError("a target row was built")
        monkeypatch.setattr(simpset, "_degen_targets", no_rows)
        monkeypatch.setattr(simpset, "_first_not_row", no_rows)
        for name in CORPUS:
            x = corpus_nerve(gpd_nerves, name)
            assert coskeleton(truncated(x, 3), 3, trunc=4).counts == \
                x.counts
        # one joined level each, so no lower JoinDegens is ranked
        for make in SIMPLICES.values():
            base = make()
            for k in (1, 2, 3):
                coskeleton(base, k, trunc=k + 1)
