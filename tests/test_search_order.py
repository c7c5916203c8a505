"""Every exhaustive search against a brute-force product filter.

Each search must return exactly the candidates of the full product that
the matching validator accepts, in the product's order: objects, then
1-cells, then coherence cells, then 2-cells, each in index order.
"""

import itertools

import pytest

from twotypes.cohom import crossed_homs, two_cocycles
from twotypes.fingroup import cyclic, inversion_action_z2_on
from twotypes.twogpd import check_2functor, enumerate_2functors, xmod_to_2group
from twotypes.weakmaps import (
    check_weak_functor, check_xmod_transformation, check_xmod_weak_map,
    enumerate_transformations, enumerate_weak_functors,
    enumerate_xmod_weak_maps,
)
from twotypes.xmod import Violation, xmod_b2g, xmod_bg

PAIRS = [("bg2", "b2g2"), ("bg3", "b2g2"), ("bg2", "bg2")]
XMODS = {"bg2": xmod_bg(cyclic(2)), "bg3": xmod_bg(cyclic(3)),
         "b2g2": xmod_b2g(cyclic(2))}


def _valid(check, *args):
    try:
        return check(*args)
    except Violation:
        return None


def _tables(rows, cols, values):
    """Every rows x cols table over values, in row-major order."""
    for flat in itertools.product(values, repeat=rows * cols):
        yield tuple(flat[r * cols:(r + 1) * cols] for r in range(rows))


@pytest.fixture(params=PAIRS, ids=["->".join(p) for p in PAIRS])
def pair(request):
    return tuple(XMODS[k] for k in request.param)


def test_strict_functors(pair):
    d, c = (xmod_to_2group(x) for x in pair)
    want = [(o, m1, m2) for o, m1, m2 in itertools.product(
        itertools.product(range(c.n_objects), repeat=d.n_objects),
        itertools.product(range(c.n1), repeat=d.n1),
        itertools.product(range(c.n2), repeat=d.n2))
        if _valid(check_2functor, d, c, o, m1, m2)]
    assert [(F.obj_map, F.map1, F.map2)
            for F in enumerate_2functors(d, c)] == want


def test_weak_functors(pair):
    d, c = (xmod_to_2group(x) for x in pair)
    want = []
    for o, m1, eps, m2 in itertools.product(
            itertools.product(range(c.n_objects), repeat=d.n_objects),
            itertools.product(range(c.n1), repeat=d.n1),
            _tables(d.n1, d.n1, range(c.n2)),
            itertools.product(range(c.n2), repeat=d.n2)):
        W = _valid(check_weak_functor, d, c, o, m1, m2, eps)
        if W is not None:
            want.append((W.obj_map, W.map1, W.map2, W.eps))
    got = [(W.obj_map, W.map1, W.map2, W.eps)
           for W in enumerate_weak_functors(d, c)]
    assert got == want
    assert got


def _weak_maps(h, g):
    return [(p1, p2, eps) for p1, eps, p2 in itertools.product(
        itertools.product(range(g.g1.order), repeat=h.g1.order),
        _tables(h.g1.order, h.g1.order, range(g.g2.order)),
        itertools.product(range(g.g2.order), repeat=h.g2.order))
        if _valid(check_xmod_weak_map, h, g, p1, p2, eps)]


def test_xmod_weak_maps(pair):
    h, g = pair
    got = [(P.p1, P.p2, P.eps) for P in enumerate_xmod_weak_maps(h, g)]
    assert got == _weak_maps(h, g)
    assert got


@pytest.mark.parametrize("pointed_only", [False, True])
def test_transformations(pair, pointed_only):
    h, g = pair
    maps = enumerate_xmod_weak_maps(h, g)
    a_opts = [g.g1.identity] if pointed_only else range(g.g1.order)
    found = 0
    for P, Q in itertools.product(maps, repeat=2):
        want = [(a, theta) for a, theta in itertools.product(
            a_opts, itertools.product(range(g.g2.order), repeat=h.g1.order))
            if _valid(check_xmod_transformation, P, Q, a, theta)]
        got = enumerate_transformations(P, Q, pointed_only=pointed_only)
        assert [(T.a, T.theta) for T in got] == want
        found += len(want)
    assert found


@pytest.mark.parametrize("inversion", [False, True])
def test_cocycles(inversion):
    gamma, a = cyclic(2), cyclic(3)
    action = inversion_action_z2_on(a) if inversion else None
    act = action.act if inversion else [[v] * 2 for v in range(3)]
    n = gamma.order
    mul = gamma.mul

    def cocycle(f):
        return all(a.mul[act[f[x][y]][z]][f[mul[x][y]][z]] ==
                   a.mul[f[y][z]][f[x][mul[y][z]]]
                   for x, y, z in itertools.product(range(n), repeat=3))

    def crossed(t):
        return all(t[mul[x][y]] == a.mul[act[t[x]][y]][t[y]]
                   for x, y in itertools.product(range(n), repeat=2))

    assert two_cocycles(gamma, a, action) == \
        [f for f in _tables(n, n, range(a.order)) if cocycle(f)]
    assert crossed_homs(gamma, a, action) == \
        [t for t in itertools.product(range(a.order), repeat=n)
         if crossed(t)]
