"""Hom-sets listed once per component, and map searches that compile only
the constraints that can fail.

- Trans(P, Q) of `twogpd._hom_sets` and Mod(x, y) of `_assemble_hom` equal
  the lists of the per-pair searches `enumerate_2transformations` and
  `enumerate_2modifications`, in order, on every hom of
  `hom_table_hashes.json`, on strict homs and on a weak domain.
- `twogpd.representatives` gives the classes of `search.classes` on an
  equivalence relation, and `homotopy_classes` takes it only into a Kan
  target; into the four non-Kan targets it keeps the closure, which two
  of them need.
- A `MapPlan` keys no constraint by a degenerate simplex, and finds the
  same maps, in the same order and with the same steps, as a plan that
  keeps the constraint of every simplex.
"""

import itertools
import random
import time

import pytest

from conftest import build_corpus
from test_hom_layout import HASHES, _pair
from test_simpset import nerve_b2g, nerve_bg, sphere_fixture
from test_weakmaps import _reconstructed

from twotypes.fingroup import cyclic
from twotypes.search import DEFAULT_CAP, Budget, classes, group
from twotypes.simpset import (
    Homotopies, MapPlan, boundary, coskeleton, enumerate_maps_3trunc,
    homotopy_classes, horn, is_kan, simplicial_maps, standard_simplex,
)
from twotypes.twogpd import (
    _assemble_hom, _hom_sets, enumerate_2functors, enumerate_2modifications,
    enumerate_2transformations, representatives, xmod_to_2group,
)
from twotypes.weakmaps import enumerate_weak_functors
from twotypes.xmod import xmod_b2g, xmod_bg


def bg(n):
    return xmod_to_2group(xmod_bg(cyclic(n)))


def b2g(m):
    return xmod_to_2group(xmod_b2g(cyclic(m)))


# -- Trans(P, Q) and Mod(x, y) against the per-pair searches ------------------

def assert_hom_sets_are_the_per_pair_lists(D, C, pointed, strict=False):
    lister = enumerate_2functors if strict else enumerate_weak_functors
    _, functors, one_cells, two_cells = _assemble_hom(
        D, C, lister, 10 ** 8, pointed=pointed, strict=strict)
    table = _hom_sets(functors, pointed, strict, Budget(10 ** 8, "hom"))
    n = range(len(functors))
    want = {(i, j): enumerate_2transformations(functors[i], functors[j],
                                               pointed, strict)
            for i in n for j in n}
    assert {k: v for k, v in want.items() if v} == table
    # the 1-cells, with theta read back when strict
    cells = [(i, j, t, theta) for (i, j), ts in want.items()
             for t, theta in ts]
    assert [(i, j, t) for i, j, t, _ in one_cells] == \
        [(i, j, t) for i, j, t, _ in cells]
    assert [theta for *_, theta in one_cells] == \
        [None if strict else theta for *_, theta in cells]
    mods = group((x, y) for x, y, _ in two_cells)
    for x, (i, j, t, theta) in enumerate(cells):
        for y in (y for y, c in enumerate(cells) if c[:2] == (i, j)):
            assert [two_cells[k][2] for k in mods.get((x, y), [])] == \
                enumerate_2modifications(functors[i], functors[j],
                                         (t, theta), cells[y][2:], pointed)


@pytest.mark.parametrize("key", sorted(HASHES))
def test_hom_sets_of_every_recorded_hom(key):
    assert_hom_sets_are_the_per_pair_lists(*_pair(key))


@pytest.mark.parametrize("pointed", [False, True])
@pytest.mark.parametrize("n, m", [(2, 2), (2, 4), (3, 3), (4, 2)])
def test_hom_sets_of_strict_transformations(n, m, pointed):
    assert_hom_sets_are_the_per_pair_lists(bg(n), b2g(m), pointed,
                                           strict=True)


@pytest.mark.parametrize("pointed", [False, True])
@pytest.mark.parametrize("cod", ["bz2", "b2z2", "b2z3"])
def test_hom_sets_out_of_a_weak_domain(cod, pointed):
    w = _reconstructed("id_z3", 1)
    C = {"bz2": bg(2), "b2z2": b2g(2), "b2z3": b2g(3)}[cod]
    assert_hom_sets_are_the_per_pair_lists(w, C, pointed)


@pytest.mark.parametrize("pointed", [False, True])
@pytest.mark.parametrize("n", [2, 3])
def test_hom_sets_into_z3_inv(n, pointed):
    # Z/2 acting on Z/3 by inversion: unpointed, mu0 then Aut(y) is not
    # ascending for 9 pairs (n = 2) and 81 (n = 3), so only the sort gives
    # the search's order
    C = xmod_to_2group(dict(build_corpus())["z3_inv"])
    assert_hom_sets_are_the_per_pair_lists(bg(n), C, pointed)


def test_more_than_one_component_and_transformation():
    # BZ/2 -> B^2 Z/4: 4 functors in 2 components of 2, and 2
    # transformations between any two functors of one component
    functors = enumerate_weak_functors(bg(2), b2g(4))
    table = _hom_sets(functors, False, False, Budget(10 ** 6, "hom"))
    assert len(functors) == 4
    assert sorted(map(len, table.values())) == [2] * 8


# -- classes by representatives ---------------------------------------------

def test_representatives_on_random_equivalence_relations():
    rng = random.Random(35)
    for n in range(12):
        for _ in range(20):
            label = [rng.randrange(max(1, n // 2)) for _ in range(n)]
            asked = []

            def link(r, i):
                asked.append((r, i))
                return (r, i) if label[r] == label[i] else None

            found = representatives(n, link)
            want = classes(n, lambda i, j: label[i] == label[j])
            assert list(group(r for r, _ in found).values()) == want
            least = {i: c[0] for c in want for i in c}
            assert found == [(least[i], None if least[i] == i else
                              (least[i], i)) for i in range(n)]
            # i is asked only of the least members before it, in order,
            # up to the first that links
            assert asked == [(r, i) for i in range(n)
                             for r in sorted(set(least.values()))
                             if r < i and r <= least[i]]


def _closure(maps):
    h = Homotopies(maps[0].dom, maps[0].cod)
    return classes(len(maps),
                   lambda i, j: h.find(maps[i], maps[j]) is not None)


@pytest.mark.parametrize("n, m", [(3, 3), (2, 4), (4, 2), (3, 2)])
def test_classes_into_a_kan_nerve_equal_the_closure(n, m):
    y = nerve_b2g(m)
    assert is_kan(y) is True
    maps = simplicial_maps(nerve_bg(n), y, pointed=True)
    assert homotopy_classes(maps) == _closure(maps)
    x = sphere_fixture()
    assert is_kan(x) is True
    maps = simplicial_maps(x, x)
    assert homotopy_classes(maps) == _closure(maps)


NON_KAN = {"d1": lambda: standard_simplex(1),
           "d2": lambda: standard_simplex(2),
           "h42": lambda: horn(4, 2),
           "cosk3_bd3": lambda: coskeleton(boundary(3), 3)}
SOURCES = {"d0": lambda: standard_simplex(0),
           "d1": lambda: standard_simplex(1),
           "d2": lambda: standard_simplex(2),
           "bd2": lambda: boundary(2),
           "h21": lambda: horn(2, 1)}


@pytest.mark.parametrize("target", NON_KAN)
def test_classes_into_a_non_kan_target_are_the_closure(target):
    y = NON_KAN[target]()
    assert is_kan(y) is not True
    for source, make in SOURCES.items():
        maps = simplicial_maps(make(), y)
        h = Homotopies(maps[0].dom, y)
        closed = _closure(maps)
        assert homotopy_classes(maps) == closed
        by_reps = list(group(r for r, _ in representatives(
            len(maps), lambda r, i: h.find(maps[r], maps[i]))).values())
        # homotopy is not symmetric into these two: representatives would
        # split the maps of the 2-simplex in two
        assert (by_reps == closed) == (
            (source, target) not in {("d2", "h42"), ("d2", "cosk3_bd3")})


def test_the_64_pointed_maps_into_b2z4_at_the_default_cap():
    maps = simplicial_maps(nerve_bg(4), nerve_b2g(4), pointed=True)
    assert len(maps) == 64
    budget = Budget(DEFAULT_CAP, "homotopy classes")
    start = time.process_time()
    found = homotopy_classes(maps, cap=budget)
    seconds = time.process_time() - start
    assert [len(c) for c in found] == [16] * 4
    assert sorted(itertools.chain(*found)) == list(range(64))
    assert all(c == sorted(c) for c in found)
    assert [c[0] for c in found] == sorted(c[0] for c in found)
    assert budget.steps == 175_728
    assert seconds < 3, seconds


# -- map searches compile only the constraints that can fail ------------------

class EveryFacePlan(MapPlan):
    """A MapPlan that keeps the constraint of every level-(n+1) simplex of
    x, the degenerate ones too."""

    def level(self, n):
        order, keys = super().level(n)
        if self.up_keys[n] is not None and (n < self.depth or
                                            self.ordered_top):
            keys = list(dict.fromkeys(self.x.faces[n + 1]))
        return order, keys


def assert_keys_of_nondegenerate_simplices(plan):
    """Each level's keys are the distinct faces of x's nondegenerate
    simplices one level up, or none when y's level is a join; returns how
    many keys of degenerate simplices were left out."""
    x, left_out = plan.x, 0
    for n in range(plan.depth + 1):
        _, keys = plan.level(n)
        if not (n < plan.depth or plan.ordered_top) or \
                plan.up_keys[n] is None:
            assert keys == []
            continue
        flags = x.degenerate_flags(n + 1)
        rows = list(x.faces[n + 1])
        assert keys == list(dict.fromkeys(
            row for row, degenerate in zip(rows, flags) if not degenerate))
        left_out += len(set(rows)) - len(keys)
    return left_out


def assert_same_search(x, y, fixed_sets):
    """The maps of x -> y under each set of fixed cells, listed by a
    MapPlan and by an EveryFacePlan: the same maps, order and steps."""
    plan, every = MapPlan(x, y), EveryFacePlan(x, y)
    for fixed in fixed_sets:
        budgets = [Budget(10 ** 7, "map search") for _ in range(2)]
        got, want = (enumerate_maps_3trunc(x, y, fixed=fixed, plan=p,
                                           cap=budget)
                     for p, budget in zip((plan, every), budgets))
        assert got == want
        assert budgets[0].steps == budgets[1].steps
    return assert_keys_of_nondegenerate_simplices(plan)


def _homotopy_cells(h, maps, pointed):
    """The fixed cells of the homotopies between a few pairs of maps."""
    picks = maps[:3] + maps[-2:]
    return [h.fixed(f, g, pointed) for f, g in itertools.product(picks,
                                                                 repeat=2)]


@pytest.mark.parametrize("n, m", [(2, 2), (3, 3), (2, 4)])
def test_nerve_maps_and_homotopies_keep_their_search(n, m):
    x, y = nerve_bg(n), nerve_b2g(m)
    maps = simplicial_maps(x, y, pointed=True)
    assert_keys_of_nondegenerate_simplices(MapPlan(x, y))
    assert_same_search(x, y, [{}, {(0, x.basepoint): y.basepoint},
                              {(1, 1): maps[-1].levels[1][1]}])
    h = Homotopies(x, y)
    cells = _homotopy_cells(h, maps, True) + _homotopy_cells(h, maps, False)
    # the prism's degenerate simplices held keys a plan now leaves out
    assert assert_same_search(h.prism, y, cells) > 0


@pytest.mark.parametrize("target", NON_KAN)
def test_non_kan_targets_keep_their_search(target):
    y = NON_KAN[target]()
    for make in SOURCES.values():
        x = make()
        maps = simplicial_maps(x, y)
        assert_same_search(x, y, [{}, {(0, 0): maps[-1].levels[0][0]}])
        h = Homotopies(x, y)
        assert_same_search(h.prism, y, _homotopy_cells(h, maps, False))
