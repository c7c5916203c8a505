"""The compiled transformation search against a search built per call.

old_transformations is enumerate_2transformations as it was before one
compiled search (twogpd._TransformationSearch) served every pair of
functors between two 2-groupoids: it built its whole constraint list on
each call, the constraints that its domains make true included.  Shared,
fresh and per-call searches must give the same lists, in the same order,
with equal budget steps.
"""

import functools
import gc
import itertools

import pytest

from conftest import build_corpus
from twotypes.fingroup import cyclic
from twotypes.search import Budget, SizeCapExceeded, search
from twotypes.twogpd import (
    _transformation_search, _TransformationSearch, disjoint_union,
    enumerate_2functors, enumerate_2transformations, is_2transformation,
    point_2gpd, vseq, xmod_to_2group,
)
from twotypes.weakmaps import enumerate_weak_functors
from twotypes.xmod import Violation, check_pointed, xmod_b2g, xmod_bg


def old_constraints(P, Q, assign):
    dom, cod = P.dom, P.cod
    no, vcomp, hcomp, id2 = dom.n_objects, cod.vcomp, cod.hcomp2, cod.id2

    def natural(A, B, c, cp, p_gamma, q_gamma):
        return vcomp[p_gamma[id2[assign[B]]]][assign[cp]] == \
            vcomp[assign[c]][hcomp[id2[assign[A]]][q_gamma]]

    def coherent(A, C, a, b, ab, p_eps, p_a, q_b, q_eps):
        return vcomp[p_eps[id2[assign[C]]]][assign[ab]] == \
            vseq(cod, p_a[assign[b]], hcomp[assign[a]][q_b],
                 hcomp[id2[assign[A]]][q_eps])

    cons = []
    for gamma, (c, cp) in enumerate(zip(dom.src2, dom.tgt2)):
        keys = (dom.src1[c], dom.tgt1[c], no + c, no + cp)
        cons.append((keys, functools.partial(
            natural, *keys, hcomp[P.map2[gamma]], Q.map2[gamma])))
    for a, row in enumerate(dom.comp1):
        for b, ab in row.items():
            if ab >= 0:
                keys = (dom.src1[a], dom.tgt1[b], no + a, no + b, no + ab)
                cons.append((keys, functools.partial(
                    coherent, *keys, hcomp[P.eps[a][b]],
                    hcomp[id2[P.map1[a]]], id2[Q.map1[b]], Q.eps[a][b])))
    return cons


def old_transformations(P, Q, pointed=False, strict=False, cap=10 ** 6):
    dom, cod = P.dom, P.cod
    no, ids = dom.n_objects, set(dom.id1)
    if pointed:
        check_pointed(dom, cod)
    assign = {}

    def domain(v):
        if v < no:
            cands = cod.between1.get((P.obj_map[v], Q.obj_map[v]), [])
            if pointed and v == dom.basepoint:
                return [f for f in cands if f == cod.id1[cod.basepoint]]
            return cands
        c = v - no
        lhs = cod.comp1[P.map1[c]][assign[dom.tgt1[c]]]
        rhs = cod.comp1[assign[dom.src1[c]]][Q.map1[c]]
        if strict or c in ids:
            return [cod.id2[lhs]] if lhs == rhs else []
        return cod.between2.get((lhs, rhs), [])

    n = no + dom.n1
    budget = cap if isinstance(cap, Budget) else Budget(cap, "old")
    return [(tuple(assign[A] for A in range(no)),
             tuple(assign[v] for v in range(no, n)))
            for _ in search(range(n), domain, old_constraints(P, Q, assign),
                            assign, budget)]


def old_is_2transformation(P, Q, t, theta):
    assign = dict(enumerate(tuple(t) + tuple(theta)))
    return any(True for _ in search(
        (), None, old_constraints(P, Q, assign), assign,
        Budget(10 ** 6, "old")))


def _runs(functors, pointed, strict, lister, fresh=False):
    """(list, steps) of lister on every ordered pair of functors; with
    fresh, the compiled searches of the domain are dropped before each."""
    out = []
    for P, Q in itertools.product(functors, repeat=2):
        if fresh:
            P.dom.transformation_searches.clear()
        budget = Budget(10 ** 6, "test")
        out.append((lister(P, Q, pointed, strict, budget), budget.steps))
    return out


def _check_three_ways(functors, pointed, strict):
    shared = _runs(functors, pointed, strict, enumerate_2transformations)
    fresh = _runs(functors, pointed, strict, enumerate_2transformations,
                  fresh=True)
    old = _runs(functors, pointed, strict, old_transformations)
    assert shared == fresh == old
    return shared


def _verdict(check, *args):
    """check's answer, False where a composite it reads is missing."""
    try:
        return check(*args)
    except (KeyError, Violation):
        return False


def bg(n):
    return xmod_to_2group(xmod_bg(cyclic(n)))


def b2g(m):
    return xmod_to_2group(xmod_b2g(cyclic(m)))


class TestSharedEqualsFresh:
    @pytest.mark.parametrize("pointed", [True, False])
    @pytest.mark.parametrize("n, m", list(itertools.product((2, 3, 4),
                                                            repeat=2)))
    def test_map_classes_pairs(self, n, m, pointed):
        functors = enumerate_weak_functors(bg(n), b2g(m), pointed=pointed)
        runs = _check_three_ways(functors, pointed, False)
        assert sum(len(found) for found, _ in runs) >= len(functors)

    def test_strict_on_corpus_pairs(self):
        """Strict transformations between the strict functors of every
        pair of corpus 2-groups."""
        gs = [xmod_to_2group(x) for _, x in build_corpus()]
        searched = 0
        for D, C in itertools.product(gs, repeat=2):
            searched += len(_check_three_ways(enumerate_2functors(D, C),
                                              False, True))
        assert searched == 960

    def test_multi_object_strict_and_weak(self):
        d = disjoint_union(bg(2), bg(3))
        c = disjoint_union(b2g(2), bg(2))
        for strict in (True, False):
            functors = enumerate_weak_functors(d, c)
            _check_three_ways(functors, False, strict)

    def test_one_search_per_codomain(self):
        functors = enumerate_weak_functors(bg(3), b2g(2))
        dom = functors[0].dom
        dom.transformation_searches.clear()
        for P, Q in itertools.product(functors, repeat=2):
            for pointed, strict in itertools.product((False, True),
                                                     repeat=2):
                for t, theta in enumerate_2transformations(P, Q, pointed,
                                                           strict):
                    assert is_2transformation(P, Q, t, theta)
        assert list(dom.transformation_searches) == [id(functors[0].cod)]


class TestAfterCapError:
    def test_search_after_cap_equals_fresh(self):
        functors = enumerate_weak_functors(bg(4), b2g(4), pointed=True)
        P, Q, R = functors[5], functors[9], functors[3]
        want = Budget(10 ** 6, "fresh")
        P.dom.transformation_searches.clear()
        expected = enumerate_2transformations(P, Q, cap=want)
        assert want.steps > 3
        other = enumerate_2transformations(R, Q)
        for cap in range(want.steps):
            with pytest.raises(SizeCapExceeded):
                enumerate_2transformations(P, Q, cap=cap)
            assert _transformation_search(P.dom, P.cod).assign == {}
            if cap % 2:
                assert enumerate_2transformations(R, Q) == other
            again = Budget(10 ** 6, "again")
            assert enumerate_2transformations(P, Q, cap=again) == expected
            assert again.steps == want.steps


class TestRecycledId:
    def test_entry_for_another_codomain_is_not_reused(self):
        """An entry under id(C) made for another 2-groupoid (as after C's
        id was recycled) is replaced, not run."""
        D, C, other = bg(2), b2g(2), b2g(3)
        functors = enumerate_2functors(D, C)
        D.transformation_searches[id(C)] = _TransformationSearch(D, other)
        found = _transformation_search(D, C)
        assert found.cod is C
        assert D.transformation_searches[id(C)] is found
        for P, Q in itertools.product(functors, repeat=2):
            assert enumerate_2transformations(P, Q) == \
                old_transformations(P, Q)

    def test_codomains_made_and_dropped_in_turn(self):
        D = bg(3)
        for m in (2, 3, 2, 4, 3):
            C = b2g(m)
            functors = enumerate_2functors(D, C)
            assert _transformation_search(D, C).cod is C
            for P, Q in itertools.product(functors, repeat=2):
                assert enumerate_2transformations(P, Q) == \
                    old_transformations(P, Q)
            del C, functors
            gc.collect()
        # each entry holds its codomain, so no id was reused among them
        cods = [s.cod for s in D.transformation_searches.values()]
        assert len(cods) == 5 and len({id(c) for c in cods}) == 5


class TestIsTransformationChecksEveryCondition:
    """The plan leaves out naturality on identity 2-cells and coherence on
    pairs with an identity 1-cell; is_2transformation must still reject a
    filler that fails only those."""

    @staticmethod
    def _plan_holds(P, Q, t, theta):
        found = _transformation_search(P.dom, P.cod).load(P, Q)
        plan = found.plan
        found.assign.update(enumerate(tuple(t) + tuple(theta)))
        try:
            return all(pred() for pred in itertools.chain(plan.ahead,
                                                          *plan.closing))
        finally:
            found.assign.clear()

    def _rejects_loops_at_identities(self, D, C):
        """Each transformation with its filler on an identity 1-cell
        changed to another loop: is_2transformation and the per-call check
        reject every one.  Returns how many were rejected, and how many of
        them pass every condition that the plan keeps."""
        rejected = plan_passed = 0
        functors = enumerate_weak_functors(D, C)
        for P, Q in itertools.product(functors, repeat=2):
            for t, theta in enumerate_2transformations(P, Q):
                assert is_2transformation(P, Q, t, theta)
                for e in D.id1:
                    for z in C.between2[(C.src2[theta[e]], C.tgt2[theta[e]])]:
                        if z == theta[e]:
                            continue
                        alt = theta[:e] + (z,) + theta[e + 1:]
                        assert not is_2transformation(P, Q, t, alt)
                        assert not old_is_2transformation(P, Q, t, alt)
                        rejected += 1
                        plan_passed += self._plan_holds(P, Q, t, alt)
        return rejected, plan_passed

    def test_non_identity_filler_on_identity_1cell(self):
        # over a point only the identity pair constrains the filler
        assert self._rejects_loops_at_identities(point_2gpd(), b2g(3)) == \
            (2, 2)
        rejected, _ = self._rejects_loops_at_identities(bg(2), b2g(3))
        assert rejected > 0

    def test_coherence_at_identity_pairs_of_two_objects(self):
        D = disjoint_union(point_2gpd(), point_2gpd())
        C = disjoint_union(b2g(2), b2g(3))
        rejected, plan_passed = self._rejects_loops_at_identities(D, C)
        assert rejected == plan_passed > 0

    def test_accepts_and_rejects_as_the_per_call_check(self):
        functors = enumerate_weak_functors(bg(3), b2g(3), pointed=True)
        C = functors[0].cod
        for P, Q in itertools.product(functors[:4], repeat=2):
            for t, theta in old_transformations(P, Q, pointed=True):
                for k, a in itertools.product(range(len(theta)),
                                              range(C.n2)):
                    alt = theta[:k] + (a,) + theta[k + 1:]
                    assert _verdict(is_2transformation, P, Q, t, alt) == \
                        _verdict(old_is_2transformation, P, Q, t, alt)
