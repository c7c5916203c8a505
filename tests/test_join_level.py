"""Coskeletal levels held as joins, against the explicit-row scans they
replaced.

The `old_*` functions are the level audits as they ran on listed rows
before `coskeleton` returned `JoinLevel`s: the compatible-tuple join over
(prefix, bucket) pairs, `is_kan`, `is_coskeletal_at`, and the face-row and
d-d loops of `check_simplicial_identities`.  They run on the rows of each
level, listed, and must agree with the library run on the level itself.
"""

import dataclasses
import gc
import itertools
import random
from pathlib import Path

import pytest

from twotypes import nerve as nerve_mod
from twotypes import simpset
from twotypes.fingroup import cyclic, symmetric3
from twotypes.nerve import nerve
from twotypes.reconstruct import pentagon_via_4simplex, roundtrip_report
from twotypes.search import Budget, SizeCapExceeded
from twotypes.simpset import (
    JoinLevel, TruncatedSimplicialSet, check_simplicial_map, coskeleton,
    extend_to_level4, in_sset2, is_coskeletal_at, is_kan, relabel,
    simplicial_maps,
)
from twotypes.textio import parse_file
from twotypes.twogpd import xmod_to_2group
from twotypes.xmod import xmod_bg, xmod_identity

from test_simpset import brute_force_tuples, sphere_base, without_4_simplex

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

    def test_extension_to_level_4_ranks_the_target(self, monkeypatch):
        x = nerve(xmod_to_2group(xmod_bg(cyclic(3))))
        y = coskeleton(x, 3)  # the same levels 0-3, level 4 joined anew
        m = check_simplicial_map(x, y, [range(c) for c in x.counts[:4]])
        listed_levels = record_rows(monkeypatch)
        assert extend_to_level4(m).levels[4] == tuple(range(x.counts[4]))
        # the domain's rows are read; the target's are only ranked
        assert all(level is not y.faces[4] for level in listed_levels)


class TestCountBeforeBuilding:
    def test_id_s3_raises_before_any_row(self, monkeypatch):
        def no_rows(self, *args):
            raise AssertionError("rows built")
        monkeypatch.setattr(simpset._Join, "_rows", no_rows)
        monkeypatch.setattr(simpset._Join, "locate", no_rows)
        g = xmod_to_2group(xmod_identity(symmetric3()))
        with pytest.raises(SizeCapExceeded, match="level 4.*1000000"):
            nerve(g)
        with pytest.raises(SizeCapExceeded, match="level 4.*1000 "):
            nerve(g, cap=1000)

    def test_cap_is_checked_on_a_cached_nerve(self):
        g = xmod_to_2group(xmod_bg(cyclic(3)))
        assert nerve(g, cap=81).counts[4] == 81
        with pytest.raises(SizeCapExceeded, match="level 4.*80 "):
            nerve(g, cap=80)


class TestNerveCache:
    def test_entry_leaves_with_its_2groupoid(self):
        gc.collect()
        baseline = len(nerve_mod._NERVE_CACHE)
        g = xmod_to_2group(xmod_bg(cyclic(2)))
        x = nerve(g)
        assert nerve(g) is x
        assert len(nerve_mod._NERVE_CACHE) == baseline + 1
        del g
        gc.collect()
        assert len(nerve_mod._NERVE_CACHE) == baseline


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
