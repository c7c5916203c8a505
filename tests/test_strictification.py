"""Derived mapping 2-groupoids do not change under strictification, on the
domain side.

w = reconstruct(nerve(g), seeded fillers) is a weak 2-groupoid equivalent
to the strict g.  So hom_full(w, C) and hom_full(g, C) must have the same
components, and isomorphic pi1 and pi2 at each, for every codomain C,
pointed and unpointed.  The constructive form: the identity of the nerve,
read between two filler choices, is a weak functor that is an equivalence.
"""

import functools

import pytest

from twotypes.fingroup import cyclic, find_isomorphism
from twotypes.nerve import nerve
from twotypes.reconstruct import (
    choose_fillers, reconstruct, reconstruct_functor,
)
from twotypes.simpset import identity_map
from twotypes.twogpd import (
    is_equivalence_2functor, pi0, pi1_at, pi2_at, xmod_to_2group,
)
from twotypes.weakmaps import _nonidentity_associator, hom_full
from twotypes.xmod import xmod_b2g, xmod_bg

from conftest import build_corpus

CORPUS = dict(build_corpus())
CODOMAINS = {
    "bz2": lambda: xmod_bg(cyclic(2)), "bz3": lambda: xmod_bg(cyclic(3)),
    "b2z2": lambda: xmod_b2g(cyclic(2)), "b2z3": lambda: xmod_b2g(cyclic(3)),
    "z4to2": lambda: CORPUS["z4_to_z2"],
}
# the entries whose nerve is small; b_s3 is taken in one case below
DOMAINS = sorted(set(CORPUS) - {"id_s3", "b_s3"})
# homs past the cap, all unpointed into z4to2
OVER_CAP = {("b_z3", "z4to2"), ("id_z3", "z4to2")}
CAP = 10 ** 5
SEEDS = (1, 2, 3)


@functools.cache
def strict(name):
    g = xmod_to_2group(CORPUS[name])
    return g, nerve(g)


@functools.cache
def weak(name, k):
    x = strict(name)[1]
    return reconstruct(x, choose_fillers(x, f"seeded:{k}"))


def invariants(h):
    """(pi1, pi2) at the first object of each component of h."""
    return [(pi1_at(h, comp[0]), pi2_at(h, comp[0])) for comp in pi0(h)]


def assert_same_components(got, want):
    """A bijection of components that keeps pi1 and pi2 up to isomorphism;
    isomorphism is an equivalence, so a greedy match finds one if any."""
    assert len(got) == len(want)
    left = list(want)
    for p1, p2 in got:
        k = next(i for i, (q1, q2) in enumerate(left)
                 if find_isomorphism(p1, q1) is not None
                 and find_isomorphism(p2, q2) is not None)
        left.pop(k)


def test_some_weak_reading_is_not_strict():
    assert any(_nonidentity_associator(weak(name, k)) is not None
               for name in DOMAINS for k in SEEDS)


@pytest.mark.parametrize("pointed", [False, True])
@pytest.mark.parametrize("cod", sorted(CODOMAINS))
def test_weak_domain_keeps_the_hom(cod, pointed):
    C = xmod_to_2group(CODOMAINS[cod]())
    compared = 0
    for name in DOMAINS:
        if not pointed and (name, cod) in OVER_CAP:
            continue
        want = invariants(hom_full(strict(name)[0], C, pointed, cap=CAP))
        for k in SEEDS:
            assert_same_components(
                invariants(hom_full(weak(name, k), C, pointed, cap=CAP)),
                want)
            compared += 1
    assert compared >= len(SEEDS) * (len(DOMAINS) - len(OVER_CAP))


def test_b_s3_into_b2z2_pointed():
    # six 1-cells: the slowest domain, one seed
    C = xmod_to_2group(xmod_b2g(cyclic(2)))
    assert_same_components(
        invariants(hom_full(weak("b_s3", 1), C, True, cap=CAP)),
        invariants(hom_full(strict("b_s3")[0], C, True, cap=CAP)))


@pytest.mark.parametrize("name", sorted(set(CORPUS) - {"id_s3"}))
def test_identity_of_the_nerve_is_an_equivalence(name):
    x = strict(name)[1]
    first = choose_fillers(x, "first")
    for k in SEEDS:
        F = reconstruct_functor(identity_map(x, 3), first,
                                choose_fillers(x, f"seeded:{k}"))
        assert is_equivalence_2functor(F)
