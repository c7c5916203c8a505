import dataclasses
import functools
import gc
import itertools
import random
import weakref
from pathlib import Path

import pytest

from twotypes import nerve as nerve_mod
from twotypes import simpset as simpset_mod
from twotypes import twogpd as twogpd_mod
from twotypes import weakmaps as weakmaps_mod
from twotypes.fingroup import cyclic, symmetric3
from twotypes.nerve import nerve, nerve_of_weak_functor, two_simplices
from twotypes.search import Budget, classes, derived
from twotypes.simpset import (
    Homotopies, JoinLevel, MapPlan, SimplicialMap, SizeCapExceeded,
    TruncatedSimplicialSet, _end_inclusion_fixed, boundary,
    check_simplicial_identities, check_simplicial_map, compose_maps,
    coskeleton, enumerate_horns, enumerate_maps_3trunc, extend_to_level4,
    homotopic, homotopy_classes, horn, identity_map, in_sset2, interval,
    is_coskeletal_at, is_k_minimal, is_kan, level_by_boundary, make_sset,
    prism, product, relabel, simplicial_maps, standard_simplex,
)
from twotypes.textio import parse_text
from twotypes.twogpd import enumerate_2transformations, xmod_to_2group
from twotypes.weakmaps import (
    enumerate_weak_functors, pi0_hom_vs_homotopy_classes,
    transformation_to_homotopy,
)
from twotypes.xmod import Violation, xmod_b2g, xmod_bg

FIX = Path(__file__).resolve().parent.parent / "fixtures"


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


def without_4_simplex(x, extra=()):
    """x, a nerve of BZ/2, with its one nondegenerate 4-simplex removed and
    the rows of extra in its place; and the removed row."""
    gone = x.degenerate_flags(4).index(False)
    keep = [z for z in range(x.counts[4]) if z != gone]
    new = {z: i for i, z in enumerate(keep)}
    rows = [x.faces[4][z] for z in keep] + list(extra)
    y = TruncatedSimplicialSet(
        trunc=4, counts=x.counts[:4] + (len(rows),),
        faces=x.faces[:4] + (tuple(rows),),
        degens=x.degens[:3] + (tuple(tuple(new[z] for z in row)
                                     for row in x.degens[3]),),
        basepoint=x.basepoint)
    return y, x.faces[4][gone]


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

    def test_size_cap(self):
        with pytest.raises(SizeCapExceeded, match="^coskeleton: the "
                           "simplices of level 4 exceed the cap of 1023$"):
            coskeleton(sphere_base(), 2, trunc=4, cap=1023)
        assert coskeleton(sphere_base(), 2, trunc=4, cap=1024).counts[4] \
            == 1024


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
        extra = []
        if stand_in == "incompatible":
            # an incompatible row in its place keeps the count of rows and
            # of distinct projections; only checking each key finds the gap
            horns = set(brute_force_tuples(x, 4, [1, 2, 3, 4]))
            extra.append((0,) + next(
                t for t in itertools.product(range(x.counts[3]), repeat=4)
                if t not in horns))
        elif stand_in == "negative":
            # the removed row again, with entries that name its faces only
            # under Python's indexing from the end
            gone = without_4_simplex(x)[1]
            extra.append(tuple(v - x.counts[3] for v in gone))
        y, gone = without_4_simplex(x, extra)
        assert is_kan(y, (1, 2, 3)) is True
        witness = is_kan(y, (4,))
        assert witness == first_unfillable_horn(y, 4)
        n, k, config = witness
        assert tuple(config.values()) == gone[:k] + gone[k + 1:]

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

    @pytest.mark.parametrize("build", [sphere_fixture, lambda: nerve_bg(2)])
    def test_truncated_product_is_the_low_levels(self, build):
        x = build()
        full, low = product(interval(), x), product(interval(), x, 3)
        assert (full.trunc, low.trunc) == (4, 3)
        assert low.counts == full.counts[:4]
        assert low.faces == full.faces[:4]
        assert low.degens == full.degens[:3]
        assert low.basepoint == full.basepoint
        check_simplicial_identities(low)
        # a truncation above both factors changes nothing
        assert product(interval(), x, 9) == full


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

    def test_shared_plan_gives_the_same_maps(self):
        x = sphere_fixture()
        plan = MapPlan(x, x)
        for fixed in ({}, {(2, 1): 0}, {(2, 1): 1}, {(0, 0): 1}):
            assert enumerate_maps_3trunc(x, x, fixed=fixed, plan=plan) == \
                enumerate_maps_3trunc(x, x, fixed=fixed)
        with pytest.raises(ValueError):
            enumerate_maps_3trunc(x, sphere_fixture(), plan=plan)


def reference_homotopic(f, g, trunc=None):
    """Whether a homotopy from f to g exists, searched on its own I x X,
    built for this pair at full truncation unless trunc says otherwise."""
    x, y = f.dom, f.cod
    prod = product(interval(), x, trunc)
    depth = min(3, prod.trunc, y.trunc)
    fixed = {}
    fixed.update(_end_inclusion_fixed(x, 0, f, depth))
    fixed.update(_end_inclusion_fixed(x, 1, g, depth))
    return bool(enumerate_maps_3trunc(prod, y, fixed=fixed, first_only=True))


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

    def test_prism_is_cut_at_3_only_into_a_coskeletal_target(self):
        x = nerve_bg(2)
        assert Homotopies(x, x).prism.trunc == 3
        assert Homotopies(x, without_4_simplex(x)[0]).prism.trunc == 4
        assert Homotopies(x, dataclasses.replace(x, coskeletal_at=None)
                          ).prism.trunc == 4
        # one prism per complex and truncation
        assert Homotopies(x, x).prism is Homotopies(x, nerve_bg(3)).prism
        assert Homotopies(x, without_4_simplex(x)[0]).prism is \
            Homotopies(x, dataclasses.replace(x, coskeletal_at=None)).prism

    def test_target_that_is_not_coskeletal(self):
        # level 4 of y misses one compatible tuple; a homotopy into y on
        # the 3-truncations must still send every 4-simplex of the prism to
        # a 4-simplex of y, so the prism keeps level 4
        y = without_4_simplex(nerve_bg(2))[0]
        assert not is_coskeletal_at(y, 3)
        maps = simplicial_maps(standard_simplex(4), y)
        assert len(maps) == 15
        # maps 8-13 hold every pair of the 225 on which a prism cut at 3
        # answers differently
        pairs = list(itertools.product(maps[8:14], repeat=2))
        want = [reference_homotopic(f, g) for f, g in pairs]
        assert [homotopic(f, g) for f, g in pairs] == want
        assert homotopy_classes(maps) == classes(
            len(maps), lambda i, j: reference_homotopic(maps[i], maps[j]))
        # cut at 3, the prism would find homotopies that need the removed
        # simplex
        assert [reference_homotopic(f, g, 3) for f, g in pairs] != want

    def test_pointed_homotopy(self):
        x = nerve_bg(2)
        y = nerve(xmod_to_2group(xmod_bg(symmetric3())))
        maps = simplicial_maps(x, y, pointed=True)
        # Hom(Z/2, S3): the trivial map and three conjugate involutions
        assert len(maps) == 4
        assert [len(c) for c in homotopy_classes(maps)] == [1, 3]
        assert [homotopic(f, g, pointed=True) for f in maps for g in maps] \
            == [f is g for f in maps for g in maps]

    def test_pointed_cells_are_the_base_column(self):
        x, y = nerve_bg(2), nerve_bg(3)
        h = Homotopies(x, y)
        f = g = simplicial_maps(x, y, pointed=True)[0]
        # the base column as the homotopy bridge wrote it by hand
        base_col = {}
        bx, by = x.basepoint, y.basepoint
        for n in range(4):
            for w in range(h.prism.counts[n] // x.counts[n]):
                base_col[(n, w * x.counts[n] + bx)] = by
            bx = x.degens[n][bx][0] if n < 3 else bx
            by = y.degens[n][by][0] if n < 3 else by
        ends = h.fixed(f, g)
        assert ends == {**_end_inclusion_fixed(x, 0, f, 3),
                        **_end_inclusion_fixed(x, 1, g, 3)}
        assert h.fixed(f, g, pointed=True) == {**base_col, **ends}
        with pytest.raises(Violation):
            Homotopies(standard_simplex(1), sphere_fixture()).fixed(
                f, g, pointed=True)



# -- pinned cells ------------------------------------------------------------

def nerve_b2g(m):
    return nerve(xmod_to_2group(xmod_b2g(cyclic(m))))


def filtered_maps(x, y, fixed, maps=None):
    """Every map of the 3-truncations that sends each fixed cell to its
    image, filtered from maps, by default the search with nothing fixed:
    the oracle of a search with pinned cells, in the same order."""
    maps = enumerate_maps_3trunc(x, y) if maps is None else maps
    return [m for m in maps
            if all(m.levels[n][z] == img for (n, z), img in fixed.items())]


def found_levels(found):
    return None if found is None else found.levels


class TestPinnedCells:
    def test_pointed_equals_filter(self):
        x, y = nerve_bg(2), nerve_b2g(2)
        base = {(0, x.basepoint): y.basepoint}
        want = filtered_maps(x, y, base)
        assert want
        assert enumerate_maps_3trunc(x, y, pointed=True) == want
        assert enumerate_maps_3trunc(x, y, fixed=base) == want

    @pytest.mark.parametrize("pair, homotopic_ends", [((0, 5), True),
                                                      ((0, 1), False)])
    def test_prism_with_fixed_ends_equals_filter(self, pair, homotopic_ends):
        x, y = nerve_bg(3), nerve_b2g(3)
        maps = simplicial_maps(x, y, pointed=True)
        h = Homotopies(x, y)
        every = enumerate_maps_3trunc(h.prism, y)
        for f, g in (pair, pair[::-1]):
            for pointed in (False, True):
                fixed = h.fixed(maps[f], maps[g], pointed)
                want = filtered_maps(h.prism, y, fixed, every)
                assert bool(want) == homotopic_ends
                assert enumerate_maps_3trunc(h.prism, y, fixed=fixed,
                                             plan=h.plan) == want
                assert enumerate_maps_3trunc(h.prism, y, fixed=fixed) == want

    def test_fixed_image_with_the_wrong_boundary(self):
        x = y = nerve_bg(3)
        # a nondegenerate 2-simplex sent to one whose faces differ from the
        # images of its faces under every map: the identity fixes its edges
        z = x.degenerate_flags(2).index(False)
        ident = identity_map(x, depth=3)
        wrong = next(w for w in range(y.counts[2])
                     if y.faces[2][w] != x.faces[2][z])
        fixed = {(1, e): ident.levels[1][e] for e in range(x.counts[1])}
        fixed[(2, z)] = wrong
        assert filtered_maps(x, y, fixed) == []
        assert enumerate_maps_3trunc(x, y, fixed=fixed) == []
        fixed[(2, z)] = z
        assert enumerate_maps_3trunc(x, y, fixed=fixed) == [ident]

    def test_fixed_degenerate_cell_that_disagrees(self):
        x, y = nerve_bg(2), nerve_bg(3)
        s0 = x.degens[0][x.basepoint][0]
        edge = y.degenerate_flags(1).index(False)
        assert enumerate_maps_3trunc(x, y, fixed={(1, s0): edge}) == []
        assert filtered_maps(x, y, {(1, s0): edge}) == []
        forced = y.degens[0][y.basepoint][0]
        assert enumerate_maps_3trunc(x, y, fixed={(1, s0): forced}) == \
            enumerate_maps_3trunc(x, y)

    def test_pinned_level_3_cell(self):
        x, y = nerve_bg(2), nerve_b2g(2)
        z = x.degenerate_flags(3).index(False)
        every = enumerate_maps_3trunc(x, y)
        assert len({m.levels[3][z] for m in every}) > 1
        for img in range(y.counts[3]):
            want = filtered_maps(x, y, {(3, z): img}, every)
            assert enumerate_maps_3trunc(x, y, fixed={(3, z): img}) == want

    def test_one_homotopies_across_pins_equals_fresh_ones(self):
        x, y = nerve_bg(3), nerve_b2g(3)
        maps = simplicial_maps(x, y, pointed=True)
        h = Homotopies(x, y)
        for f, g in ((0, 5), (5, 0), (0, 1), (1, 0), (3, 3)):
            for pointed in (True, False):
                assert found_levels(h.find(maps[f], maps[g], pointed)) == \
                    found_levels(Homotopies(x, y).find(maps[f], maps[g],
                                                       pointed))

    def test_find_after_a_cap_equals_a_fresh_one(self):
        x, y = nerve_bg(3), nerve_b2g(3)
        maps = simplicial_maps(x, y, pointed=True)
        for f, g in ((0, 5), (0, 1)):
            h = Homotopies(x, y)
            with pytest.raises(SizeCapExceeded):
                h.find(maps[g], maps[f], pointed=True, cap=20)
            reused, fresh = Budget(10 ** 6, "map search"), \
                Budget(10 ** 6, "map search")
            assert found_levels(h.find(maps[f], maps[g], cap=reused)) == \
                found_levels(Homotopies(x, y).find(maps[f], maps[g],
                                                   cap=fresh))
            assert reused.steps == fresh.steps

    def test_pinned_cells_take_no_step(self):
        # one step per node: the basepoint of nz2, its only vertex, and the
        # ends and base column of a homotopy are set before the search
        x = parse_text((FIX / "nz2.sset").read_text()).subject()[2]
        for pointed, steps in ((False, 13), (True, 12)):
            budget = Budget(10 ** 6, "map search")
            assert len(simplicial_maps(x, x, pointed, budget)) == 2
            assert budget.steps == steps
        bz3, b2z3 = nerve_bg(3), nerve_b2g(3)
        maps = simplicial_maps(bz3, b2z3, pointed=True)
        h = Homotopies(bz3, b2z3)
        for f, g, steps in ((0, 0, 54), (0, 1, 128)):
            budget = Budget(10 ** 6, "map search")
            h.find(maps[f], maps[g], pointed=True, cap=budget)
            assert budget.steps == steps

# -- the map audit against a walk over every entry ---------------------------

def _walk_check_map(dom, cod, levels):
    """check_simplicial_map as a walk over every face entry, then every
    degeneracy entry, once the number and lengths of the levels and the
    range of each entry are checked: the reference for its first
    violation."""
    levels = tuple(tuple(lvl) for lvl in levels)
    depth = len(levels) - 1
    held = min(dom.trunc, cod.trunc) + 1
    if len(levels) > held:
        raise Violation("map-levels", (depth, len(levels), held))
    for n in range(depth + 1):
        if len(levels[n]) != dom.counts[n]:
            raise Violation("map-level-size",
                            (n, len(levels[n]), dom.counts[n]))
    for n in range(depth + 1):
        for z, v in enumerate(levels[n]):
            if not 0 <= v < cod.counts[n]:
                raise Violation("map-level-range", (n, z))
    for n in range(1, depth + 1):
        for z in range(dom.counts[n]):
            for i in range(n + 1):
                if cod.faces[n][levels[n][z]][i] != \
                   levels[n - 1][dom.faces[n][z][i]]:
                    raise Violation("map-face", (n, z, i))
    for n in range(depth):
        for z in range(dom.counts[n]):
            for j in range(n + 1):
                if cod.degens[n][levels[n][z]][j] != \
                   levels[n + 1][dom.degens[n][z][j]]:
                    raise Violation("map-degen", (n, z, j))
    return levels


def _map_outcome(check, levels, dom, cod):
    """The audited levels, the violation, or IndexError."""
    try:
        out = check(dom, cod, levels)
    except Violation as exc:
        return exc.axiom, exc.witness
    except IndexError:
        return IndexError
    return tuple(getattr(out, "levels", out))


def _level_mutants(m):
    """The levels of m with one entry set to every other index of its level
    in the codomain, to -1 or to one past the end; with one level cut short
    or given an extra entry; and with the top level left out."""
    levels = [list(lvl) for lvl in m.levels]
    for n, lvl in enumerate(levels):
        for z, v in enumerate(lvl):
            for w in range(-1, m.cod.counts[n] + 1):
                if w != v:
                    yield levels[:n] + [lvl[:z] + [w] + lvl[z + 1:]] + \
                        levels[n + 1:]
        yield levels[:n] + [lvl[:-1]] + levels[n + 1:]
        yield levels[:n] + [lvl + [0]] + levels[n + 1:]
    yield levels[:-1]


@functools.cache
def _audited_maps():
    """Nerve maps from the map search (one with its level-4 extension into
    a JoinLevel) and homotopies that the homotopy search found."""
    bz4, bz2 = nerve_bg(4), nerve_bg(2)
    b2z2 = nerve(xmod_to_2group(xmod_b2g(cyclic(2))))
    f = simplicial_maps(bz4, bz2, pointed=True)[1]
    g = simplicial_maps(bz2, b2z2, pointed=True)[1]
    x = sphere_fixture()
    s = simplicial_maps(x, x)[0]
    found = [Homotopies(bz2, b2z2).find(g, g), Homotopies(x, x).find(s, s)]
    assert None not in found
    return [f, g, extend_to_level4(g)] + found


class TestMapAuditMatchesWalk:
    @pytest.mark.parametrize("k", range(5))
    def test_first_violation_equals_walk(self, k):
        m = _audited_maps()[k]
        assert m.levels == _walk_check_map(m.dom, m.cod, m.levels)
        outcomes = set()
        for levels in _level_mutants(m):
            want = _map_outcome(_walk_check_map, levels, m.dom, m.cod)
            got = _map_outcome(check_simplicial_map, levels, m.dom, m.cod)
            assert got == want, levels
            outcomes.add(want if isinstance(want, type) else want[0])
        assert {"map-face", "map-level-range"} <= outcomes, outcomes
        assert IndexError not in outcomes


class TestMapLevelLengths:
    """A level of the wrong length, or a level the complexes do not hold,
    is a Violation naming the level and both lengths."""

    @staticmethod
    def identity_with(n, level):
        x = standard_simplex(1, 2)
        levels = [list(range(c)) for c in x.counts]
        return x, levels[:n] + [level] + levels[n + 1:]

    def test_level_longer_than_the_domain(self):
        # the extra entry names no vertex; the faces alone would commute
        x, levels = self.identity_with(0, [0, 1, 5])
        with pytest.raises(Violation) as err:
            check_simplicial_map(x, x, levels)
        assert (err.value.axiom, err.value.witness) == \
            ("map-level-size", (0, 3, 2))
        with pytest.raises(Violation) as err:
            check_simplicial_map(x, x, levels[:1])
        assert err.value.witness == (0, 3, 2)

    def test_level_shorter_than_the_domain(self):
        x, levels = self.identity_with(0, [0])
        with pytest.raises(Violation) as err:
            check_simplicial_map(x, x, levels)
        assert (err.value.axiom, err.value.witness) == \
            ("map-level-size", (0, 1, 2))

    def test_more_levels_than_the_complexes_hold(self):
        x, levels = self.identity_with(3, [0] * 5)
        with pytest.raises(Violation) as err:
            check_simplicial_map(x, x, levels)
        assert (err.value.axiom, err.value.witness) == \
            ("map-levels", (3, 4, 3))
        # the codomain alone may hold fewer levels than the domain
        with pytest.raises(Violation) as err:
            check_simplicial_map(standard_simplex(1, 3), x,
                                 [range(c) for c in (2, 3, 4, 5)])
        assert err.value.witness == (3, 4, 3)

    @pytest.mark.parametrize("n, z, value", [
        (2, 0, 4), (1, 0, 7), (2, 0, -1), (0, 1, 2), (0, 0, -3), (1, 2, 3)])
    def test_entry_out_of_range(self, n, z, value):
        # past the end and negative entries, at the top level and below
        x = standard_simplex(1, 2)
        levels = [list(range(c)) for c in x.counts]
        levels[n][z] = value
        with pytest.raises(Violation) as err:
            check_simplicial_map(x, x, levels)
        assert (err.value.axiom, err.value.witness) == \
            ("map-level-range", (n, z))

    def test_first_entry_out_of_range_is_named(self):
        x, levels = self.identity_with(1, [0, 5, -1])
        with pytest.raises(Violation) as err:
            check_simplicial_map(x, x, levels)
        assert err.value.witness == (1, 1)


def _first_missing(y, n, below, rows):
    """The first z whose faces' images under below are no n-simplex of y."""
    have = set(y.faces[n])
    return next(z for z, row in enumerate(rows)
                if tuple(below[v] for v in row) not in have)


def _assert_first_missing(y, n, rows):
    """level_by_boundary into y, with the last (n-1)-simplex sent to 0,
    names the first z with no image."""
    below = list(range(y.counts[n - 1]))
    below[-1] = 0
    with pytest.raises(Violation) as err:
        level_by_boundary(y, n, below, rows)
    want = _first_missing(y, n, below, rows)
    assert want > 0
    assert (err.value.axiom, err.value.witness) == (f"level{n}-image", want)


class TestLevelByBoundary:
    def test_stored_level_gives_the_maps_level(self):
        bz2, b2z2 = nerve_bg(2), nerve(xmod_to_2group(xmod_b2g(cyclic(2))))
        assert not isinstance(b2z2.faces[3], JoinLevel)
        for m in simplicial_maps(bz2, b2z2):
            assert level_by_boundary(b2z2, 3, m.levels[2], bz2.faces[3]) \
                == list(m.levels[3])

    def test_join_level_is_ranked_from_its_listed_rows(self):
        x = nerve(xmod_to_2group(xmod_b2g(cyclic(2))))
        ident = list(range(x.counts[3]))
        level = x.faces[4]
        assert isinstance(level, JoinLevel) and level._rows is None
        dom_rows = list(level.join)
        got = level_by_boundary(x, 4, ident, dom_rows)
        stored = dataclasses.replace(x, faces=x.faces[:4] + (tuple(level),))
        assert got == level_by_boundary(stored, 4, ident, dom_rows) == \
            list(range(x.counts[4]))

    def test_missing_image_names_the_first_simplex(self):
        x = nerve(xmod_to_2group(xmod_b2g(cyclic(3))))
        _assert_first_missing(x, 3, x.faces[3])
        rows4 = list(x.faces[4].join)
        assert x.faces[4]._rows is None  # so ranks lists the rows itself
        _assert_first_missing(x, 4, rows4)
        _assert_first_missing(dataclasses.replace(
            x, faces=x.faces[:4] + (tuple(x.faces[4]),)), 4, rows4)

    def test_extend_to_level4_keeps_its_name(self):
        x = nerve(xmod_to_2group(xmod_b2g(cyclic(3))))
        levels = tuple(tuple(range(x.counts[k])) for k in range(3))
        lvl3 = tuple(range(x.counts[3] - 1)) + (0,)
        with pytest.raises(Violation) as err:
            extend_to_level4(SimplicialMap(dom=x, cod=x,
                                           levels=levels + (lvl3,)))
        assert (err.value.axiom, err.value.witness) == \
            ("level4-image", _first_missing(x, 4, lvl3, x.faces[4]))


# -- tables built once per complex --------------------------------------------

def bg(n):
    return xmod_to_2group(xmod_bg(cyclic(n)))


def b2g(m):
    return xmod_to_2group(xmod_b2g(cyclic(m)))


class KernelPlan(MapPlan):
    """A MapPlan whose every level holds a constraint that always passes,
    also a level with no constraint of its own (the top level of a
    homotopy into a nerve): the same maps and steps as a MapPlan."""

    def level(self, n):
        order, cons = super().level(n)
        return order, cons or [((), lambda: True)]


class Watched:
    """A table that a weak reference can watch."""


def _not_kept():
    raise AssertionError("the table was not kept")


def _counted(monkeypatch, *functions):
    """Count the calls of each function, wherever a module binds it."""
    calls = {f.__name__: 0 for f in functions}
    for f in functions:
        def counting(*args, _f=f, **kwargs):
            calls[_f.__name__] += 1
            return _f(*args, **kwargs)
        for mod in (simpset_mod, nerve_mod, twogpd_mod, weakmaps_mod):
            for attr, value in list(vars(mod).items()):
                if value is f:
                    monkeypatch.setattr(mod, attr, counting)
    return calls


class TestTablesBuiltOnce:
    def test_bridge_audits_as_many_maps_and_transformations(self,
                                                            monkeypatch):
        # counted at the commit before the tables were kept per complex
        calls = _counted(monkeypatch, check_simplicial_map,
                         twogpd_mod.is_2transformation)
        assert pi0_hom_vs_homotopy_classes(bg(3), b2g(3))
        assert calls == {"check_simplicial_map": 74,
                         "is_2transformation": 27}

    def test_settled_level_takes_the_kernels_steps(self):
        for n, m in ((2, 2), (3, 3), (2, 4)):
            x, y = nerve_bg(n), nerve_b2g(m)
            ends = simplicial_maps(x, y, pointed=True)
            h, ref = Homotopies(x, y), Homotopies(x, y)
            ref.plan = KernelPlan(ref.prism, y)
            for (f, g), pointed in itertools.product(
                    itertools.product(ends[:3], repeat=2), (False, True)):
                budgets = [Budget(10 ** 6, "map search") for _ in range(2)]
                got, want = (found_levels(k.find(f, g, pointed, budget))
                             for k, budget in zip((h, ref), budgets))
                assert got == want
                assert budgets[0].steps == budgets[1].steps
            # at every cap below a find's steps both stop at its next step
            steps = budgets[1].steps
            for cap in range(steps):
                for k in (h, ref):
                    budget = Budget(cap, "map search")
                    with pytest.raises(SizeCapExceeded):
                        k.find(f, g, True, budget)
                    assert budget.steps == cap + 1
            # and the maps of the nerves, whose level 3 is settled too
            budgets = [Budget(10 ** 6, "map search") for _ in range(2)]
            assert enumerate_maps_3trunc(x, y, cap=budgets[0]) == \
                enumerate_maps_3trunc(x, y, cap=budgets[1],
                                      plan=KernelPlan(x, y))
            assert budgets[0].steps == budgets[1].steps

    def test_mutants_of_maps_out_of_cached_complexes(self):
        H, G = bg(2), b2g(2)
        x, y = nerve(H), nerve(G)
        F = enumerate_weak_functors(H, G, pointed=True)
        maps = [nerve_of_weak_functor(P) for P in F]
        h = Homotopies(x, y)
        t, theta = enumerate_2transformations(F[1], F[1], pointed=True)[0]
        found = [h.find(maps[1], maps[1], pointed=True),
                 transformation_to_homotopy(F[1], F[1], t, theta)]
        assert None not in found
        for m in maps[:2] + found:
            # the audit of m kept these tables on its domain
            held = {key: derived(m.dom, key, _not_kept)
                    for key in (("faces", 3), ("degens", 2))}
            outcomes = set()
            for levels in _level_mutants(m):
                want = _map_outcome(_walk_check_map, levels, m.dom, m.cod)
                got = _map_outcome(check_simplicial_map, levels, m.dom,
                                   m.cod)
                assert got == want, levels
                outcomes.add(want if isinstance(want, type) else want[0])
            assert {"map-face", "map-level-range"} <= outcomes, outcomes
            # the same tables served every mutant
            assert all(derived(m.dom, key, _not_kept) is table
                       for key, table in held.items())

    def test_tables_leave_with_their_complex_and_2groupoid(self):
        H, G = bg(2), b2g(2)
        h = Homotopies(nerve(H), nerve(G))
        f = simplicial_maps(h.x, h.y, pointed=True)[0]
        assert h.find(f, f, pointed=True) is not None
        nerve_of_weak_functor(enumerate_weak_functors(H, G)[0])
        assert two_simplices(H) is two_simplices(H)
        assert derived(h.prism, ("faces", 3), _not_kept) is \
            simpset_mod._flat(h.prism, "faces", 3)
        # tables of each object, and one more table that can be watched
        refs = [weakref.ref(obj) for obj in (h.x, h.y, h.prism)] + \
            [weakref.ref(derived(obj, "watched", Watched))
             for obj in (H, G, h.x, h.y, h.prism)]
        # a nerve is a table of its 2-groupoid, a prism of its complex
        del f, h
        gc.collect()
        assert all(ref() is not None for ref in refs)
        del H, G
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_a_copy_builds_its_own_tables(self):
        # a copy is a new object: no table of the original reaches it, so
        # a complex made where another died cannot read the dead one's
        x = nerve_bg(2)
        rows = x.faces[3][::-1]
        y = dataclasses.replace(x, faces=x.faces[:3] + (rows,) + x.faces[4:])
        for c in (x, y):
            simpset_mod._positions(c, 3)
            simpset_mod._flat(c, "faces", 3)
        assert simpset_mod._positions(y, 3) == \
            {row: z for z, row in enumerate(rows)}
        assert simpset_mod._positions(y, 3) != simpset_mod._positions(x, 3)
        assert simpset_mod._flat(y, "faces", 3) == \
            tuple(itertools.chain.from_iterable(rows))
        same = dataclasses.replace(x)
        assert prism(same, 3) is not prism(x, 3)
        assert prism(same, 3) == prism(x, 3)
        g = bg(2)
        assert nerve(dataclasses.replace(g)) is not nerve(g)
