"""One functor type: a strict functor is a WeakFunctor whose coherence
cells are the identities of `twogpd._identity_eps`.

The strict lister is the weak one restricted to identity cells, every
constructor of a strict functor carries those cells, and the two
constructions that need strict functors (composites and fiber products)
refuse any other cell with a Violation instead of dropping it.
"""

import pytest

from twotypes import twogpd, weakmaps
from twotypes.fingroup import cyclic
from twotypes.nerve import nerve
from twotypes.reconstruct import choose_fillers, reconstruct
from twotypes.twogpd import (
    WeakFunctor, _identity_eps, check_2functor, compose_2functors,
    enumerate_2functors, fiber_product_2gpd, identity_functor, xmod_to_2group,
)
from twotypes.weakmaps import enumerate_weak_functors
from twotypes.xmod import Violation, xmod_b2g, xmod_bg

from conftest import build_corpus

CORPUS = dict(build_corpus())


def bg(n):
    return xmod_to_2group(xmod_bg(cyclic(n)))


def b2g(m):
    return xmod_to_2group(xmod_b2g(cyclic(m)))


def is_strict(F):
    return isinstance(F, WeakFunctor) and \
        F.eps == _identity_eps(F.dom, F.cod, F.map1)


def weak_only(D, C):
    """A weak functor D -> C with a coherence cell that is not an identity,
    and the first composable pair that carries one."""
    for W in enumerate_weak_functors(D, C):
        bad = [(f, h) for f, row in enumerate(W.eps)
               for h, e in enumerate(row) if e >= 0 and e != C.id2[C.src2[e]]]
        if bad:
            return W, bad[0]
    raise AssertionError("every weak functor is strict")


def test_one_definition():
    assert weakmaps.WeakFunctor is twogpd.WeakFunctor
    assert not hasattr(twogpd, "TwoFunctor")
    for gone in ("identity_weak_functor", "as_weak"):
        assert not hasattr(weakmaps, gone)


# weak functors out of b_s3 and id_s3 (six 1-cells) take minutes to list
DOMAINS = sorted(set(CORPUS) - {"b_s3", "id_s3"})


@pytest.mark.parametrize("pointed", [False, True])
@pytest.mark.parametrize("dom", DOMAINS)
def test_strict_functors_are_the_weak_ones_with_identity_cells(dom, pointed):
    D = xmod_to_2group(CORPUS[dom])
    listed = 0
    for C in map(xmod_to_2group, CORPUS.values()):
        strict = enumerate_2functors(D, C, pointed=pointed)
        weak = enumerate_weak_functors(D, C, pointed=pointed)
        assert strict == [W for W in weak
                          if W.eps == _identity_eps(D, C, W.map1)]
        listed += len(strict)
    assert listed >= len(CORPUS)


class TestStrictConstructorsCarryIdentityCells:
    def test_check_2functor(self):
        D, C = bg(2), b2g(2)
        F = check_2functor(D, C, [0], [0, 0], [0, 0])
        assert is_strict(F)
        assert F == enumerate_2functors(D, C)[0]

    @pytest.mark.parametrize("name", ["b_z2", "z4_to_z2", "id_z3"])
    def test_identity_functor_strict_and_weak(self, name):
        g = xmod_to_2group(CORPUS[name])
        x = nerve(g)
        w = reconstruct(x, choose_fillers(x, "seeded:2"))
        for h in (g, w):
            F = identity_functor(h)
            assert is_strict(F)
            assert (F.obj_map, F.map1, F.map2) == (
                tuple(range(h.n_objects)), tuple(range(h.n1)),
                tuple(range(h.n2)))
            assert F in enumerate_weak_functors(h, h)

    def test_fiber_product_projections(self):
        F = check_2functor(b2g(2), bg(2), [0], [0], [0, 0])
        for G in (identity_functor(bg(2)), F):
            P, px, py = fiber_product_2gpd(F, G)
            assert is_strict(px) and is_strict(py)
            assert (px.cod, py.cod) == (F.dom, G.dom)

    def test_composite(self):
        g = bg(3)
        for F in enumerate_2functors(g, g):
            H = compose_2functors(F, identity_functor(g))
            assert is_strict(H) and H == F


class TestNonIdentityCellIsRefused:
    """A coherence cell that is not an identity has no place in a strict
    composite or pullback: each is refused with one Violation naming the
    first such cell, from whichever functor holds it."""

    @pytest.mark.parametrize("n, m", [(2, 2), (3, 3), (2, 4)])
    def test_compose(self, n, m):
        W, bad = weak_only(bg(n), b2g(m))
        ends = (identity_functor(W.dom), W, identity_functor(W.cod))
        for f, g in (ends[:2], ends[1:]):
            with pytest.raises(Violation) as err:
                compose_2functors(f, g)
            assert (err.value.axiom, err.value.witness) == \
                ("strict-functor", bad)

    @pytest.mark.parametrize("n, m", [(2, 2), (3, 3), (2, 4)])
    def test_fiber_product(self, n, m, monkeypatch):
        W, bad = weak_only(bg(n), b2g(m))
        S = identity_functor(W.cod)

        def no_pullback(*args):
            raise AssertionError("a pullback was built")
        monkeypatch.setattr(twogpd, "_pullback", no_pullback)
        for F, G in ((W, S), (S, W), (W, W)):
            with pytest.raises(Violation) as err:
                fiber_product_2gpd(F, G)
            assert (err.value.axiom, err.value.witness) == \
                ("strict-functor", bad)
