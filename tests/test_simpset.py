import dataclasses
import itertools
import random

import pytest

from twotypes import simpset
from twotypes.fingroup import cyclic
from twotypes.nerve import nerve
from twotypes.simpset import (
    SizeCapExceeded, TruncatedSimplicialSet, boundary,
    check_simplicial_identities, compose_maps, coskeleton, enumerate_horns,
    homotopic, homotopy_classes, horn, identity_map, in_sset2, interval,
    is_coskeletal_at, is_k_minimal, is_kan, make_sset, product, relabel,
    simplicial_maps, standard_simplex,
)
from twotypes.twogpd import xmod_to_2group
from twotypes.xmod import xmod_bg


def sphere_base():
    return make_sset(
        2,
        [1, 1, 2],
        [(), [(0, 0)], [(0, 0, 0), (0, 0, 0)]],
        [[(0,)], [(0, 0)]])


def sphere_fixture():
    """One vertex, degenerate edges, one extra 2-cell; coskeletal above 2.

    Kan and 3-coskeletal but not 2-minimal: the extra 2-cell shares its
    boundary with the degenerate one and is homotopic to it rel boundary.
    """
    return coskeleton(sphere_base(), 2, trunc=4)


def nerve_bg(n):
    return nerve(xmod_to_2group(xmod_bg(cyclic(n))))


def brute_force_tuples(x, m, positions):
    """Tuples of level-(m-1) simplices over positions with
    d_i x_j = d_{j-1} x_i for all pairs i < j, in lexicographic order.
    Every simplex is tried at every position against all earlier entries,
    with no index."""
    def ok(row):
        if m == 1:
            return True
        below = x.faces[m - 1]
        return all(below[row[b]][i] == below[row[a]][j - 1]
                   for b, j in enumerate(positions[:len(row)])
                   for a, i in enumerate(positions[:b]))

    rows = [()]
    for _ in positions:
        rows = [r + (z,) for r, z in
                itertools.product(rows, range(x.counts[m - 1]))
                if ok(r + (z,))]
    return rows


def first_unfillable_horn(x, n):
    """Brute force: the first horn, by k and then lexicographically, that
    no level-n simplex fills."""
    for k in range(n + 1):
        positions = [i for i in range(n + 1) if i != k]
        fills = {row[:k] + row[k + 1:] for row in x.faces[n]}
        for row in brute_force_tuples(x, n, positions):
            if row not in fills:
                return (n, k, dict(zip(positions, row)))
    return True


class TestStandardComplexes:
    def test_delta0(self):
        d0 = standard_simplex(0)
        assert d0.counts == (1, 1, 1, 1, 1)
        report = in_sset2(d0)
        assert report.ok and report.injective_to_cosk2

    def test_delta1_counts(self):
        assert standard_simplex(1).counts == (2, 3, 4, 5, 6)

    def test_delta2_level_counts(self):
        d2 = standard_simplex(2)
        # weakly increasing tuples over 3 symbols
        assert d2.counts[0] == 3
        assert d2.counts[1] == 6
        assert d2.counts[2] == 10

    def test_horn_21(self):
        h = horn(2, 1)
        degen = h.degenerate_flags(1)
        assert sum(1 for z in range(h.counts[1]) if not degen[z]) == 2

    def test_boundary3_misses_top_cell(self):
        b = boundary(3)
        d = standard_simplex(3)
        assert b.counts[2] == d.counts[2]
        assert b.counts[3] == d.counts[3] - 1


class TestCoskeleton:
    def test_cosk0_of_point(self):
        c = coskeleton(standard_simplex(0), 0)
        assert c.counts == (1, 1, 1, 1, 1)

    def test_idempotent(self):
        x = sphere_fixture()
        again = coskeleton(x, 2)
        assert again.counts == x.counts
        assert again.faces == x.faces
        assert again.degens == x.degens

    def test_is_coskeletal_flag(self):
        x = sphere_fixture()
        assert is_coskeletal_at(x, 2)
        assert is_coskeletal_at(x, 3)

    def test_sphere_fixture_levels(self):
        x = sphere_fixture()
        assert x.counts[0] == 1 and x.counts[1] == 1 and x.counts[2] == 2

    @pytest.mark.parametrize("build, k", [(sphere_fixture, 2),
                                          (lambda: nerve_bg(3), 3)])
    def test_rows_match_brute_force(self, build, k):
        x = build()
        for m in range(k + 1, x.trunc + 1):
            assert list(x.faces[m]) == brute_force_tuples(x, m, range(m + 1))

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(simpset, "COSKELETON_CAP", 1023)
        with pytest.raises(SizeCapExceeded, match="level 4.*1023"):
            coskeleton(sphere_base(), 2, trunc=4)
        monkeypatch.setattr(simpset, "COSKELETON_CAP", 1024)
        assert coskeleton(sphere_base(), 2, trunc=4).counts[4] == 1024


class TestCoskeletalAudit:
    """Level-4 tables edited in place, without make_sset."""

    @staticmethod
    def with_level4(x, rows):
        return dataclasses.replace(
            x, counts=x.counts[:4] + (len(rows),),
            faces=x.faces[:4] + (tuple(rows),))

    def test_duplicated_row(self):
        x = nerve_bg(2)
        rows = list(x.faces[4])
        rows[-1] = rows[0]
        assert not is_coskeletal_at(self.with_level4(x, rows), 3)

    def test_missing_row(self):
        x = nerve_bg(2)
        assert not is_coskeletal_at(self.with_level4(x, x.faces[4][:-1]), 3)

    def test_incompatible_row(self):
        x = nerve_bg(2)
        # the nerve stores every compatible tuple, so any other is not one
        stored = set(x.faces[4])
        bad = next(row for row in itertools.product(range(x.counts[3]),
                                                    repeat=5)
                   if row not in stored)
        rows = list(x.faces[4])
        rows[-1] = bad
        y = self.with_level4(x, rows)
        assert len(set(y.faces[4])) == y.counts[4] == x.counts[4]
        assert not is_coskeletal_at(y, 3)

    @pytest.mark.parametrize("edit", [
        lambda row, size: row[:-1] + (row[-1] - size,),
        lambda row, size: row[:-1] + (size,),
        lambda row, size: row[:-1],
    ], ids=["negative", "past-the-end", "short"])
    def test_row_outside_level_3(self, edit):
        # the edited row is distinct from the others, so only its entries
        # can tell the audit that it is not a compatible tuple; the negative
        # entry names the same simplex as before under Python indexing
        x = nerve_bg(2)
        rows = list(x.faces[4])
        rows[-1] = edit(rows[-1], x.counts[3])
        y = self.with_level4(x, rows)
        assert len(set(y.faces[4])) == y.counts[4] == x.counts[4]
        assert not is_coskeletal_at(y, 3)


class TestKan:
    def test_delta0(self):
        assert is_kan(standard_simplex(0)) is True

    def test_sphere_fixture_is_kan(self):
        assert is_kan(sphere_fixture()) is True

    def test_boundary3_is_not_kan(self):
        b = coskeleton(boundary(3), 3)
        witness = is_kan(b)
        assert witness is not True
        # already fails in low dimension: no filler inverting an edge
        assert witness == (2, 0, {1: 0, 2: 1})
        assert is_kan(b, (3,)) == (3, 0, {1: 8, 2: 6, 3: 5})

    @pytest.mark.parametrize("build", [lambda: coskeleton(boundary(3), 3),
                                       lambda: horn(4, 2)])
    def test_witness_matches_brute_force(self, build):
        x = build()
        for n in (1, 2, 3, 4):
            assert is_kan(x, (n,)) == first_unfillable_horn(x, n)

    @pytest.mark.parametrize("stand_in", [None, "incompatible", "negative"])
    def test_missing_4_simplex_is_found(self, stand_in):
        x = nerve_bg(2)
        degenerate = x.degenerate_flags(4)
        gone = degenerate.index(False)
        keep = [z for z in range(x.counts[4]) if z != gone]
        new = {z: i for i, z in enumerate(keep)}
        rows = [x.faces[4][z] for z in keep]
        if stand_in == "incompatible":
            # an incompatible row in its place keeps the count of rows and
            # of distinct projections; only checking each key finds the gap
            horns = set(brute_force_tuples(x, 4, [1, 2, 3, 4]))
            rows.append((0,) + next(
                t for t in itertools.product(range(x.counts[3]), repeat=4)
                if t not in horns))
        elif stand_in == "negative":
            # the removed row again, with entries that name its faces only
            # under Python's indexing from the end
            rows.append(tuple(v - x.counts[3] for v in x.faces[4][gone]))
        y = TruncatedSimplicialSet(
            trunc=4, counts=x.counts[:4] + (len(rows),),
            faces=x.faces[:4] + (tuple(rows),),
            degens=x.degens[:3] + (tuple(tuple(new[z] for z in row)
                                         for row in x.degens[3]),),
            basepoint=x.basepoint)
        assert is_kan(y, (1, 2, 3)) is True
        witness = is_kan(y, (4,))
        assert witness == first_unfillable_horn(y, 4)
        n, k, config = witness
        assert tuple(config.values()) == \
            x.faces[4][gone][:k] + x.faces[4][gone][k + 1:]

    def test_horn_enumeration_dim2(self):
        d2 = standard_simplex(2)
        horns = list(enumerate_horns(d2, 2, 1))
        # each horn pins 1-simplices at positions 0 and 2
        assert all(set(h) == {0, 2} for h in horns)
        assert len(horns) > 0
        assert [tuple(h.values()) for h in horns] == \
            brute_force_tuples(d2, 2, [0, 2])


class TestMinimality:
    def test_delta0_minimal(self):
        for k in range(1, 4):
            assert is_k_minimal(standard_simplex(0), k) is True

    def test_sphere_fixture_fails_2_minimality(self):
        witness = is_k_minimal(sphere_fixture(), 2)
        assert witness is not True
        n, a, b = witness
        assert n == 2 and {a, b} == {0, 1}

    def test_report(self):
        r = in_sset2(sphere_fixture())
        assert (r.kan, r.coskeletal3, r.minimal2) == (True, True, False)
        # injectivity into the 2-coskeleton is necessary but not sufficient:
        # this fixture embeds (it is its own 2-coskeleton) yet fails minimality
        assert r.injective_to_cosk2
        assert not r.ok


class TestRelabelInvariance:
    def test_kan_and_minimality_stable_under_relabeling(self):
        x = sphere_fixture()
        rng = random.Random(3)
        for _ in range(5):
            perms = []
            for n in range(x.trunc + 1):
                p = list(range(x.counts[n]))
                rng.shuffle(p)
                perms.append(p)
            y = relabel(x, perms)
            assert (is_kan(y) is True) == (is_kan(x) is True)
            assert (is_k_minimal(y, 2) is True) == (is_k_minimal(x, 2) is True)


class TestProduct:
    def test_product_with_point(self):
        x = sphere_fixture()
        p = product(standard_simplex(0), x)
        assert p.counts == x.counts

    def test_product_interval_squared(self):
        p = product(interval(), interval())
        assert p.counts[1] == 9
        assert p.counts[2] == 16

    def test_product_is_audited(self):
        check_simplicial_identities(product(interval(), sphere_fixture()))


class TestMaps:
    def test_maps_from_point_hit_vertices(self):
        y = sphere_fixture()
        maps = simplicial_maps(standard_simplex(0), y)
        assert len(maps) == y.counts[0]

    def test_maps_to_point(self):
        maps = simplicial_maps(sphere_fixture(), standard_simplex(0))
        assert len(maps) == 1

    def test_identity_and_composition(self):
        x = sphere_fixture()
        i = identity_map(x, depth=3)
        assert compose_maps(i, i).levels == i.levels

    def test_self_maps_of_sphere_fixture(self):
        x = sphere_fixture()
        maps = simplicial_maps(x, x)
        # the 2-cells can be permuted or collapsed independently per cell?
        # no: degeneracies force the degenerate 2-cell; the extra cell can go
        # to either 2-cell, and level 3 follows coskeletally
        assert len(maps) == 2


class TestHomotopy:
    def test_reflexive(self):
        x = sphere_fixture()
        i = identity_map(x, depth=3)
        assert homotopic(i, i)

    def test_classes_partition(self):
        x = sphere_fixture()
        maps = simplicial_maps(x, x)
        classes = homotopy_classes(maps)
        assert sum(len(c) for c in classes) == len(maps)
