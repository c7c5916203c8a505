import dataclasses
import functools
import itertools
import sys
from math import gcd

import pytest

from conftest import build_corpus
from test_twogpd import (
    TABLE_FIELDS, _dict_rows, _fake_inverses, _frozen, _mutants, _outcome,
    _scan_derive_inverses, _scan_ranges, _sparse, _two_in_a_row, _with,
)

from twotypes import simpset, twogpd, weakmaps
from twotypes.fingroup import cyclic
from twotypes.nerve import nerve, nerve_of_weak_functor
from twotypes.reconstruct import choose_fillers, reconstruct
from twotypes.search import Budget
from twotypes.simpset import SizeCapExceeded
from twotypes.twogpd import (
    check_2functor, disjoint_union, enumerate_2functors, enumerate_2transformations,
    hom_strict, hom_weak_trans, identity_functor, is_2transformation, pi0,
    product_2gpd, xmod_to_2group,
)
from twotypes.weakmaps import (
    WeakTwoGroupoid, build_weak_2groupoid, check_w5_equivalence,
    check_weak_2groupoid, check_weak_functor, check_xmod_weak_map, enumerate_modifications,
    enumerate_transformations, enumerate_weak_functors,
    enumerate_xmod_weak_maps, hom_full,
    pi0_hom_vs_homotopy_classes, to_strict,
    transformation_from_homotopy, transformation_to_homotopy, vseq,
    weak_functor_from_xmod_weak_map,
    xmod_weak_map_from_weak_functor,
)
from twotypes.xmod import Violation, xmod_b2g, xmod_bg


def bg(n):
    return xmod_to_2group(xmod_bg(cyclic(n)))


def b2g(m):
    return xmod_to_2group(xmod_b2g(cyclic(m)))


class TestWeakGroupoids:
    def test_strict_roundtrip(self):
        g = bg(3)
        back = to_strict(g)
        assert back.comp1 == g.comp1
        assert back.vcomp == g.vcomp
        assert back.hcomp2 == g.hcomp2
        assert back.basepoint == g.basepoint

    def test_strict_associators_are_identities(self):
        w = b2g(2)
        for f in range(w.n1):
            for g in range(w.n1):
                for h in range(w.n1):
                    a = w.assoc[f][g][h]
                    assert a == w.id2[w.comp1[w.comp1[f][g]][h]]

    def test_audit_rejects_tampered_associator(self):
        w = b2g(2)
        assoc = [[[w.assoc[f][g][h] for h in range(w.n1)]
                  for g in range(w.n1)] for f in range(w.n1)]
        # the other 2-cell on the same 1-cell breaks naturality
        assoc[0][0][0] = 1 - assoc[0][0][0]
        with pytest.raises(Violation):
            build_weak_2groupoid(
                w.n_objects, w.src1, w.tgt1, w.id1, w.comp1,
                w.src2, w.tgt2, w.id2, w.vcomp, w.hcomp2, assoc,
                basepoint=w.basepoint)

    def test_vseq_folds_vertical_composition(self):
        w = b2g(3)
        e = w.id2[0]
        assert vseq(w, e, 1, e) == 1
        assert vseq(w, 1, 1, 1) == w.vcomp[w.vcomp[1][1]][1]

    def test_check_accepts_strict_audit(self):
        check_weak_2groupoid(bg(2))


class TestWeakFunctors:
    def test_identity_functor(self):
        for g in (bg(2), b2g(3)):
            F = identity_functor(g)
            assert F.map1 == tuple(range(g.n1))

    def test_strict_functors_lift(self):
        g = bg(2)
        for F in enumerate_2functors(g, g):
            W = check_weak_functor(F.dom, F.cod, F.obj_map, F.map1, F.map2,
                                   F.eps)
            assert W.map1 == F.map1

    def test_enumeration_counts(self):
        # weak functors B(Z/n) -> B^2(Z/m) number m^(n-1)
        assert len(enumerate_weak_functors(bg(2), b2g(2))) == 2
        assert len(enumerate_weak_functors(bg(2), b2g(3))) == 3
        assert len(enumerate_weak_functors(bg(3), b2g(2))) == 4
        assert len(enumerate_weak_functors(bg(3), b2g(3))) == 9

    def test_strict_enumeration_is_a_subset(self):
        d, c = bg(2), b2g(2)
        weak = {(W.obj_map, W.map1, W.map2, W.eps)
                for W in enumerate_weak_functors(d, c)}
        for F in enumerate_2functors(d, c):
            W = check_weak_functor(F.dom, F.cod, F.obj_map, F.map1, F.map2,
                                   F.eps)
            assert (W.obj_map, W.map1, W.map2, W.eps) in weak

    def test_cap_raises(self):
        with pytest.raises(SizeCapExceeded):
            enumerate_weak_functors(bg(3), b2g(3), cap=3)


class TestListedFunctorsPassTheAudit:
    """The functor listers build each functor without auditing it, as their
    search guarantees every condition; the audits must accept them all.
    Weak functors out of b_s3 and id_s3 (six 1-cells) are left out: those
    searches take minutes."""

    CORPUS = dict(build_corpus())

    @pytest.mark.parametrize("pointed", [False, True])
    @pytest.mark.parametrize("dom", sorted(CORPUS))
    def test_every_corpus_pair(self, dom, pointed):
        D = xmod_to_2group(self.CORPUS[dom])
        listed = 0
        for C in map(xmod_to_2group, self.CORPUS.values()):
            for F in enumerate_2functors(D, C, pointed=pointed):
                assert check_2functor(D, C, F.obj_map, F.map1, F.map2,
                                      pointed=pointed) == F
                listed += 1
            if dom in ("b_s3", "id_s3"):
                continue
            for W in enumerate_weak_functors(D, C, pointed=pointed):
                assert check_weak_functor(D, C, W.obj_map, W.map1, W.map2,
                                          W.eps, pointed=pointed) == W
                listed += 1
        assert listed >= len(self.CORPUS)


def _product_filter(dom, cod, pointed=False):
    """The weak functors dom -> cod, by brute force: every candidate
    (object map, 1-cell map, coherence cells, 2-cell map) in product order,
    kept when check_weak_functor accepts it.  A cell's candidates are those
    with the ends it needs, and only the identity where the audit asks for
    one (wf-id2, wf-eps-identity): the audit rejects every other value
    there, so the survivors and their order are those of the full
    product."""
    by1, by2 = cod.between1, cod.between2
    pairs = [(f, h) for f, row in enumerate(dom.comp1) for h in sorted(row)]
    out = []
    for obj in itertools.product(range(cod.n_objects), repeat=dom.n_objects):
        for m1 in itertools.product(*(
                by1.get((obj[dom.src1[f]], obj[dom.tgt1[f]]), [])
                for f in range(dom.n1))):
            def cells_of(f, h):
                ends = (cod.comp1[m1[f]][m1[h]], m1[dom.comp1[f][h]])
                if f in dom.id1 or h in dom.id1:
                    return [cod.id2[ends[0]]]
                return by2.get(ends, [])

            def images(a):
                if a in dom.id2:
                    return [cod.id2[m1[dom.src2[a]]]]
                return by2.get((m1[dom.src2[a]], m1[dom.tgt2[a]]), [])

            for cells in itertools.product(*itertools.starmap(cells_of,
                                                               pairs)):
                eps = [[-1] * dom.n1 for _ in range(dom.n1)]
                for (f, h), e in zip(pairs, cells):
                    eps[f][h] = e
                for m2 in itertools.product(*map(images, range(dom.n2))):
                    try:
                        out.append(check_weak_functor(dom, cod, obj, m1, m2,
                                                      eps, pointed=pointed))
                    except Violation:
                        pass
    return out


def _reconstructed(name, k):
    """The weak 2-groupoid read off the nerve of a corpus entry with the
    fillers of seed k."""
    x = nerve(xmod_to_2group(dict(build_corpus())[name]))
    return reconstruct(x, choose_fillers(x, f"seeded:{k}"))


class TestWeakFunctorSearchIsExact:
    """enumerate_weak_functors lists exactly the functors that the audit
    accepts, in product order, on strict and on weak ends."""

    @pytest.mark.parametrize("ends", ["w-w", "w-b2z2", "bz2-w"])
    @pytest.mark.parametrize("name, k", [("id_z3", 1), ("z3_inv", 5)])
    def test_weak_ends(self, name, k, ends):
        w = _reconstructed(name, k)
        # the associators of w are not all identities
        assert weakmaps._nonidentity_associator(w) is not None
        d, c = {"w-w": (w, w), "w-b2z2": (w, b2g(2)),
                "bz2-w": (bg(2), w)}[ends]
        want = _product_filter(d, c)
        assert want
        assert enumerate_weak_functors(d, c) == want

    @pytest.mark.parametrize("pointed", [False, True])
    @pytest.mark.parametrize("d, c", [("b_z2", "b2_z2"), ("b_z3", "b2_z2"),
                                      ("z3_inv", "z3_inv"), ("id_z2", "b_z2"),
                                      ("b2_z2", "z4_to_z2")])
    def test_strict_ends(self, d, c, pointed):
        corpus = dict(build_corpus())
        D, C = xmod_to_2group(corpus[d]), xmod_to_2group(corpus[c])
        assert enumerate_weak_functors(D, C, pointed=pointed) == \
            _product_filter(D, C, pointed=pointed)

    @pytest.mark.parametrize("name, k", [("id_z3", 1), ("z3_inv", 5)])
    def test_identity_is_listed(self, name, k):
        w = _reconstructed(name, k)
        assert identity_functor(w) in enumerate_weak_functors(w, w)


class TestWeakCodomainIsRefused:
    """The hom, the transformation search and the bridge compose in their
    codomain with no associators, so a weak codomain is refused before any
    search; a weak domain is read as it is."""

    WEAK = [("id_z3", 1), ("z3_inv", 5), ("z4_to_z2", 1)]

    @pytest.mark.parametrize("dom", ["bz2", "b2z2"])
    @pytest.mark.parametrize("name, k", WEAK)
    def test_refused_before_any_search(self, name, k, dom, monkeypatch):
        w, d = _reconstructed(name, k), {"bz2": bg(2), "b2z2": b2g(2)}[dom]
        functors = enumerate_weak_functors(d, w)
        assert functors

        def no_search(*args, **kwargs):
            raise AssertionError("a search ran")
        monkeypatch.setattr(weakmaps, "enumerate_weak_functors", no_search)
        monkeypatch.setattr(twogpd, "run", no_search)
        calls = [lambda: hom_full(d, w), lambda: hom_full(d, w, True),
                 lambda: pi0_hom_vs_homotopy_classes(d, w),
                 lambda: enumerate_2transformations(functors[0],
                                                    functors[-1]),
                 lambda: is_2transformation(functors[0], functors[0], (), ())]
        for call in calls:
            with pytest.raises(Violation) as err:
                call()
            assert (err.value.axiom, err.value.witness) == \
                ("strict-codomain", "WeakTwoGroupoid")

    @pytest.mark.parametrize("name, k", WEAK)
    def test_weak_domain_is_kept(self, name, k):
        w = _reconstructed(name, k)
        g = xmod_to_2group(dict(build_corpus())[name])
        for c in (bg(2), b2g(2)):
            for pointed in (False, True):
                assert len(pi0(hom_full(w, c, pointed))) == \
                    len(pi0(hom_full(g, c, pointed)))


class TestXmodWeakMaps:
    def test_counts(self):
        for n, m, want in [(2, 2, 2), (2, 4, 4), (4, 2, 8), (4, 4, 64)]:
            maps = enumerate_xmod_weak_maps(xmod_bg(cyclic(n)),
                                            xmod_b2g(cyclic(m)))
            assert len(maps) == want

    def test_check_rejects_unnormalized_eps(self):
        H, G = xmod_bg(cyclic(2)), xmod_b2g(cyclic(2))
        P = enumerate_xmod_weak_maps(H, G)[0]
        eps = [list(r) for r in P.eps]
        eps[0][0] = 1
        with pytest.raises(Violation):
            check_xmod_weak_map(H, G, P.p1, P.p2, eps)

    def test_w5_equivalence(self):
        for n in (2, 3):
            assert check_w5_equivalence(xmod_bg(cyclic(n)),
                                        xmod_b2g(cyclic(n)))

    @pytest.mark.parametrize("h, g, n_candidates, n_maps", [
        ("z3_inv", "b2_z3", 9, 3), ("z3_inv", "z3_inv", 12, 6)])
    def test_w5_equivalence_where_w5_removes_candidates(
            self, h, g, n_candidates, n_maps):
        # the only corpus pairs where W5 rejects a W0-W4 candidate: over
        # every candidate of the full product, W5 holds exactly where the
        # two-variable W5' does
        corpus = dict(build_corpus())
        H, G = corpus[h], corpus[g]
        verdicts = {c: _w5_verdict(H, G, *c) for c in _w0_w4_candidates(H, G)}
        assert len(verdicts) == n_candidates
        assert sum(v is True for v in verdicts.values()) == n_maps
        assert all(v is _w5_prime(H, G, *c) for c, v in verdicts.items())
        assert [(P.p1, P.p2, P.eps) for P in enumerate_xmod_weak_maps(H, G)] \
            == [c for c, v in verdicts.items() if v is True]
        assert check_w5_equivalence(H, G)

    def test_each_map_keeps_the_functor_of_its_search(self):
        corpus = dict(build_corpus())
        for h, g in [("z4_to_z2", "z4_to_z2"), ("z3_inv", "z3_inv"),
                     ("b_s3", "b2_z2")]:
            H, G = corpus[h], corpus[g]
            BH, BG = xmod_to_2group(H), xmod_to_2group(G)
            maps = enumerate_xmod_weak_maps(H, G)
            assert maps
            for P in maps:
                F = weak_functor_from_xmod_weak_map(P, BH, BG)
                assert (P.functor.obj_map, P.functor.map1, P.functor.map2,
                        P.functor.eps) == (F.obj_map, F.map1, F.map2, F.eps)

    def test_one_pair_of_2groupoids_per_lister_call(self, monkeypatch):
        built = []

        def counted(xm, *cap):
            built.append(xm)
            return xmod_to_2group(xm, *cap)

        monkeypatch.setattr(weakmaps, "xmod_to_2group", counted)
        corpus = dict(build_corpus())
        H, G = corpus["z4_to_z2"], corpus["z4_to_z2"]
        maps = enumerate_xmod_weak_maps(H, G)
        assert built == [H, G]
        # listed maps run on the functors of their search: nothing is built
        trans = enumerate_transformations(maps[1], maps[1])
        mods = enumerate_modifications(trans[0], trans[-1])
        assert len(built) == 2 and trans
        # a map built by hand has no functor: one pair per call realizes it
        bare = [dataclasses.replace(P, functor=None) for P in maps[:2]]
        assert bare == maps[:2]
        for P, Q in itertools.product(bare, repeat=2):
            del built[:]
            got = enumerate_transformations(P, Q)
            assert built == [H, G]
            assert [(T.a, T.theta) for T in got] == [
                (T.a, T.theta)
                for T in enumerate_transformations(maps[bare.index(P)],
                                                   maps[bare.index(Q)])]
        del built[:]
        T = enumerate_transformations(bare[1], bare[1])
        assert [M.mu for M in enumerate_modifications(T[0], T[-1])] == \
            [M.mu for M in mods]
        assert len(built) == 4

    def test_a_bare_map_builds_its_2groups_under_the_cap(self):
        # z4_to_z2's 2-group has 2^2 + 2 * 4^2 + 8^2 = 100 table entries
        H = dict(build_corpus())["z4_to_z2"]
        P = enumerate_xmod_weak_maps(H, H)[1]
        bare = dataclasses.replace(P, functor=None)
        with pytest.raises(SizeCapExceeded, match="^transformation search: "
                           "2-group tables of 100 entries exceed the cap "
                           "of 99$"):
            enumerate_transformations(bare, bare, cap=99)
        # the shared budget admits both 2-groups at no step
        steps = []
        for Q in (P, bare):
            budget = Budget(10 ** 6, "transformations")
            enumerate_transformations(Q, Q, cap=budget)
            steps.append(budget.steps)
        assert steps[0] == steps[1] > 0

    def test_dictionary_roundtrip(self):
        for n, m in [(2, 2), (3, 2), (2, 3)]:
            H, G = xmod_bg(cyclic(n)), xmod_b2g(cyclic(m))
            BH, BG = xmod_to_2group(H), xmod_to_2group(G)
            for P in enumerate_xmod_weak_maps(H, G):
                F = weak_functor_from_xmod_weak_map(P, BH, BG)
                back = xmod_weak_map_from_weak_functor(F, H, G)
                assert (back.p1, back.p2, back.eps) == (P.p1, P.p2, P.eps)


def _w5_verdict(H, G, p1, p2, eps):
    """True for a weak map, False where only W5 fails, None otherwise."""
    try:
        check_xmod_weak_map(H, G, p1, p2, eps)
    except Violation as exc:
        return False if exc.axiom == "W5" else None
    return True


def _w0_w4_candidates(H, G):
    """Every (p1, p2, eps) of the full product that meets W0-W4, in
    product order."""
    h1, n2 = H.g1.order, G.g2.order
    for p1, flat, p2 in itertools.product(
            itertools.product(range(G.g1.order), repeat=h1),
            itertools.product(range(n2), repeat=h1 * h1),
            itertools.product(range(n2), repeat=H.g2.order)):
        eps = tuple(flat[x * h1:(x + 1) * h1] for x in range(h1))
        if _w5_verdict(H, G, p1, p2, eps) is not None:
            yield p1, p2, eps


def _w5_prime(H, G, p1, p2, eps):
    """W5': for all x, y of H1 and beta of H2, with c = x^-1 psi(beta) x,
    eps(y, x) p2(beta^x) eps(yx, c) = p2(beta)^p1(x) eps(psi(beta), x)
    eps(y, psi(beta) x)."""
    h1, g2, psi = H.g1, G.g2, H.phi.image
    for x, y, beta in itertools.product(range(h1.order), range(h1.order),
                                        range(H.g2.order)):
        c = h1.mul[h1.mul[h1.inv[x]][psi[beta]]][x]
        lhs = g2.mul[g2.mul[eps[y][x]][p2[H.act(beta, x)]]][
            eps[h1.mul[y][x]][c]]
        rhs = g2.mul[g2.mul[G.act(p2[beta], p1[x])][eps[psi[beta]][x]]][
            eps[y][h1.mul[psi[beta]][x]]]
        if lhs != rhs:
            return False
    return True


def _transformation_class_count(n, m):
    maps = enumerate_xmod_weak_maps(xmod_bg(cyclic(n)), xmod_b2g(cyclic(m)))
    k = len(maps)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if find(i) != find(j) and enumerate_transformations(
                    maps[i], maps[j], pointed_only=True):
                parent[find(i)] = find(j)
    return len({find(i) for i in range(k)})


class TestTransformations:
    def test_class_counts_are_gcds(self):
        for n, m in [(2, 2), (2, 3), (3, 3), (2, 4)]:
            assert _transformation_class_count(n, m) == gcd(n, m)

    def test_identity_transformation(self):
        H, G = xmod_bg(cyclic(3)), xmod_b2g(cyclic(3))
        for P in enumerate_xmod_weak_maps(H, G):
            trans = enumerate_transformations(P, P, pointed_only=True)
            assert any(T.a == G.g1.identity and
                       all(v == G.g2.identity for v in T.theta)
                       for T in trans)

    def test_identity_modification(self):
        H, G = xmod_bg(cyclic(2)), xmod_b2g(cyclic(2))
        P = enumerate_xmod_weak_maps(H, G)[0]
        T = enumerate_transformations(P, P, pointed_only=True)[0]
        mods = enumerate_modifications(T, T)
        assert any(M.mu == G.g2.identity for M in mods)


class TestHomotopyBridge:
    def test_transformation_homotopy_roundtrip(self):
        D, C = bg(2), b2g(2)
        funcs = enumerate_weak_functors(D, C, pointed=True)
        for P in funcs:
            for Q in funcs:
                for (t, theta) in enumerate_2transformations(
                        P, Q, pointed=True):
                    h = transformation_to_homotopy(P, Q, t, theta)
                    assert transformation_from_homotopy(h, P, Q) == (t, theta)

    def test_pi0_agreement(self):
        assert pi0_hom_vs_homotopy_classes(bg(2), b2g(2))
        assert pi0_hom_vs_homotopy_classes(bg(3), b2g(3))

    @staticmethod
    def record_results(monkeypatch, name):
        """The results of every call of simpset's function name, wherever
        a twotypes module binds it."""
        original, results = getattr(simpset, name), []

        def recorded(*args, **kwargs):
            results.append(original(*args, **kwargs))
            return results[-1]
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("twotypes") and \
               vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, recorded)
        return results

    def test_bridge_builds_one_prism_and_one_plan(self, monkeypatch):
        H, G = bg(2), b2g(2)  # new objects, so their nerves are built here
        products = self.record_results(monkeypatch, "product")
        orders = self.record_results(monkeypatch, "_constraint_order")
        coskeleta = self.record_results(monkeypatch, "coskeleton")
        built = []

        def to_homotopy(*args):
            built.append(transformation_to_homotopy(*args))
            return built[-1]
        monkeypatch.setattr(weakmaps, "transformation_to_homotopy",
                            to_homotopy)
        assert pi0_hom_vs_homotopy_classes(H, G)
        # one prism I x N(H), cut at 3 as N(G) is 3-coskeletal, that the
        # homotopies of the transformations leave too
        assert [p.trunc for p in products] == [3]
        assert built and all(m.dom is products[0] for m in built)
        # two plans, maps N(H) -> N(G) and homotopies I x N(H) -> N(G),
        # each ordering a level of 0..3 at most once
        assert len(orders) <= 2 * 4
        # the nerves of H and G, and no other
        assert [c.counts for c in coskeleta] == \
            [nerve(H).counts, nerve(G).counts]

    def test_bridge_reuses_the_nerves_built_before(self, monkeypatch):
        H, G = bg(2), b2g(2)
        nerve(H), nerve(G)
        coskeleta = self.record_results(monkeypatch, "coskeleton")
        assert pi0_hom_vs_homotopy_classes(H, G)
        assert coskeleta == []


class TestTheBridgeCanSayNo:
    """Each exit of the bridge that returns False, reached by breaking one
    reader it calls, on BZ/2 -> B^2 Z/2, where it holds."""

    def test_a_map_list_that_drops_a_map(self, monkeypatch):
        real = simpset.simplicial_maps
        monkeypatch.setattr(simpset, "simplicial_maps",
                            lambda *args, **kwargs: real(*args, **kwargs)[:-1])
        assert not pi0_hom_vs_homotopy_classes(bg(2), b2g(2))

    def test_no_transformation_for_one_pair(self, monkeypatch):
        # the first pair is a functor and itself, which has its identity
        real, calls = enumerate_2transformations, []

        def first_empty(*args, **kwargs):
            calls.append(args)
            return [] if len(calls) == 1 else real(*args, **kwargs)
        monkeypatch.setattr(weakmaps, "enumerate_2transformations",
                            first_empty)
        assert not pi0_hom_vs_homotopy_classes(bg(2), b2g(2))
        assert calls[0][0] is calls[0][1]

    def test_a_built_homotopy_with_one_end_cell_moved(self, monkeypatch):
        H, G = bg(2), b2g(2)
        real = transformation_to_homotopy

        def moved(*args):
            m = real(*args)
            lvl2 = list(m.levels[2])
            lvl2[0] = 1 - lvl2[0]       # N(B^2 Z/2) has two 2-simplices
            return dataclasses.replace(
                m, levels=m.levels[:2] + (tuple(lvl2),) + m.levels[3:])
        monkeypatch.setattr(weakmaps, "transformation_to_homotopy", moved)
        assert not pi0_hom_vs_homotopy_classes(H, G)
        # (2, 0) lies on the end {0} x N(BZ/2), so each homotopy fixes it
        f = nerve_of_weak_functor(
            enumerate_weak_functors(H, G, pointed=True)[0])
        assert (2, 0) in simpset.Homotopies(nerve(H), nerve(G)).fixed(
            f, f, pointed=True)

    def test_a_read_back_theta_with_one_entry_changed(self, monkeypatch):
        # theta at the identity 1-cell must be an identity 2-cell, and
        # B^2 Z/2 has two 2-cells
        real = transformation_from_homotopy

        def changed(hmap, P, Q, cap):
            t, theta = real(hmap, P, Q, cap)
            e = P.dom.id1[P.dom.basepoint]
            return t, theta[:e] + (1 - theta[e],) + theta[e + 1:]
        monkeypatch.setattr(weakmaps, "transformation_from_homotopy",
                            changed)
        assert not pi0_hom_vs_homotopy_classes(bg(2), b2g(2))


class TestHomTower:
    def test_strict_weak_full_nesting(self):
        d, c = bg(2), b2g(2)
        hs = hom_strict(d, c)
        hw = hom_weak_trans(d, c)
        hf = hom_full(d, c)
        assert hs.n_objects <= hw.n_objects <= hf.n_objects
        assert hs.n_objects == 1
        assert hf.n_objects == 2
        assert len(pi0(hf)) == 2

    def test_hom_full_is_audited_groupoid(self):
        h = hom_full(bg(2), b2g(3))
        assert h.n_objects == 3
        assert len(pi0(h)) == 1


# -- the weak audit against an all-pairs scan ---------------------------------
#
# _scan_check_weak_2groupoid is the weak audit as it was written before it
# shared the partner lists of twogpd.check_two_groupoid: every index tuple is
# visited and the non-composable ones are skipped.

def _dense_vseq(g, *cells):
    """vseq on dense tables, as the scan read them."""
    out = cells[0]
    for c in cells[1:]:
        out = g.vcomp[out][c]
        if out < 0:
            raise Violation("vseq-not-composable", cells)
    return out


def _scan_check_weak_2groupoid(g: WeakTwoGroupoid) -> WeakTwoGroupoid:
    # 1-cell level: endpoints, strict units, no associativity requirement
    for a, f in enumerate(g.id1):
        if g.src1[f] != a or g.tgt1[f] != a:
            raise Violation("id1-endpoints", a)
    for f in range(g.n1):
        for h in range(g.n1):
            defined = g.comp1[f][h] >= 0
            if defined != (g.tgt1[f] == g.src1[h]):
                raise Violation("comp1-domain", (f, h))
            if defined:
                fh = g.comp1[f][h]
                if g.src1[fh] != g.src1[f] or g.tgt1[fh] != g.tgt1[h]:
                    raise Violation("comp1-endpoints", (f, h))
    for f in range(g.n1):
        if g.comp1[g.id1[g.src1[f]]][f] != f or \
           g.comp1[f][g.id1[g.tgt1[f]]] != f:
            raise Violation("comp1-unit", f)

    # vertical category of 2-cells
    for f, a in enumerate(g.id2):
        if g.src2[a] != f or g.tgt2[a] != f:
            raise Violation("id2-endpoints", f)
    for a in range(g.n2):
        if g.src1[g.src2[a]] != g.src1[g.tgt2[a]] or \
           g.tgt1[g.src2[a]] != g.tgt1[g.tgt2[a]]:
            raise Violation("2cell-not-parallel", a)
    for a in range(g.n2):
        for b in range(g.n2):
            defined = g.vcomp[a][b] >= 0
            if defined != (g.tgt2[a] == g.src2[b]):
                raise Violation("vcomp-domain", (a, b))
            if defined:
                ab = g.vcomp[a][b]
                if g.src2[ab] != g.src2[a] or g.tgt2[ab] != g.tgt2[b]:
                    raise Violation("vcomp-endpoints", (a, b))
    for a in range(g.n2):
        if g.vcomp[g.id2[g.src2[a]]][a] != a or \
           g.vcomp[a][g.id2[g.tgt2[a]]] != a:
            raise Violation("vcomp-unit", a)
    for a in range(g.n2):
        for b in range(g.n2):
            if g.vcomp[a][b] < 0:
                continue
            for c in range(g.n2):
                if g.vcomp[b][c] < 0:
                    continue
                if g.vcomp[g.vcomp[a][b]][c] != g.vcomp[a][g.vcomp[b][c]]:
                    raise Violation("vcomp-assoc", (a, b, c))
    for a in range(g.n2):
        i = g.vinv[a]
        if g.vcomp[a][i] != g.id2[g.src2[a]] or \
           g.vcomp[i][a] != g.id2[g.tgt2[a]]:
            raise Violation("vinv", a)

    # horizontal composition: endpoints, units, functoriality (interchange)
    for a in range(g.n2):
        for b in range(g.n2):
            defined = g.hcomp2[a][b] >= 0
            composable = g.tgt1[g.src2[a]] == g.src1[g.src2[b]]
            if defined != composable:
                raise Violation("hcomp-domain", (a, b))
            if defined:
                ab = g.hcomp2[a][b]
                if g.src2[ab] != g.comp1[g.src2[a]][g.src2[b]] or \
                   g.tgt2[ab] != g.comp1[g.tgt2[a]][g.tgt2[b]]:
                    raise Violation("hcomp-endpoints", (a, b))
    for a in range(g.n2):
        left = g.id2[g.id1[g.src1[g.src2[a]]]]
        right = g.id2[g.id1[g.tgt1[g.src2[a]]]]
        if g.hcomp2[left][a] != a or g.hcomp2[a][right] != a:
            raise Violation("hcomp-unit", a)
    for f in range(g.n1):
        for h in range(g.n1):
            if g.comp1[f][h] >= 0 and \
               g.hcomp2[g.id2[f]][g.id2[h]] != g.id2[g.comp1[f][h]]:
                raise Violation("hcomp-of-identities", (f, h))
    for a in range(g.n2):
        for b in range(g.n2):
            if g.vcomp[a][b] < 0:
                continue
            for c in range(g.n2):
                if g.hcomp2[a][c] < 0:
                    continue
                for d in range(g.n2):
                    if g.vcomp[c][d] < 0:
                        continue
                    lhs = g.hcomp2[g.vcomp[a][b]][g.vcomp[c][d]]
                    rhs = g.vcomp[g.hcomp2[a][c]][g.hcomp2[b][d]]
                    if lhs != rhs:
                        raise Violation("interchange", (a, b, c, d))

    # associators: shape, A2, naturality, pentagon
    for a in range(g.n1):
        for b in range(g.n1):
            for c in range(g.n1):
                composable = g.comp1[a][b] >= 0 and g.comp1[b][c] >= 0
                phi = g.assoc[a][b][c]
                if (phi >= 0) != composable:
                    raise Violation("assoc-domain", (a, b, c))
                if not composable:
                    continue
                lhs = g.comp1[g.comp1[a][b]][c]
                rhs = g.comp1[a][g.comp1[b][c]]
                if g.src2[phi] != lhs or g.tgt2[phi] != rhs:
                    raise Violation("assoc-endpoints", (a, b, c))
                if (a in g.id1 or b in g.id1 or c in g.id1) and \
                   phi != g.id2[lhs]:
                    raise Violation("A2", (a, b, c))
    for x in range(g.n2):
        for y in range(g.n2):
            if g.hcomp2[x][y] < 0:
                continue
            for z in range(g.n2):
                if g.hcomp2[y][z] < 0:
                    continue
                a, b, c = g.src2[x], g.src2[y], g.src2[z]
                ap, bp, cp = g.tgt2[x], g.tgt2[y], g.tgt2[z]
                lhs = g.vcomp[g.hcomp2[g.hcomp2[x][y]][z]][g.assoc[ap][bp][cp]]
                rhs = g.vcomp[g.assoc[a][b][c]][g.hcomp2[x][g.hcomp2[y][z]]]
                if lhs != rhs:
                    raise Violation("assoc-naturality", (x, y, z))
    for a in range(g.n1):
        for b in range(g.n1):
            if g.comp1[a][b] < 0:
                continue
            for c in range(g.n1):
                if g.comp1[b][c] < 0:
                    continue
                for d in range(g.n1):
                    if g.comp1[c][d] < 0:
                        continue
                    lhs = _dense_vseq(g,
                               g.whisker_right(g.assoc[a][b][c], d),
                               g.assoc[a][g.comp1[b][c]][d],
                               g.whisker_left(a, g.assoc[b][c][d]))
                    rhs = _dense_vseq(g,
                               g.assoc[g.comp1[a][b]][c][d],
                               g.assoc[a][b][g.comp1[c][d]])
                    if lhs != rhs:
                        raise Violation("A1", (a, b, c, d))

    # weak invertibility of 1-cells
    for f in range(g.n1):
        found = False
        for h in range(g.n1):
            if g.src1[h] != g.tgt1[f] or g.tgt1[h] != g.src1[f]:
                continue
            fh, hf = g.comp1[f][h], g.comp1[h][f]
            to_id_s = any(g.src2[a] == fh and
                          g.tgt2[a] == g.id1[g.src1[f]]
                          for a in range(g.n2))
            to_id_t = any(g.src2[a] == hf and
                          g.tgt2[a] == g.id1[g.tgt1[f]]
                          for a in range(g.n2))
            if to_id_s and to_id_t:
                found = True
                break
        if not found:
            raise Violation("weak-invertibility", f)
    return g


WEAK_FIELDS = TABLE_FIELDS + ("assoc",)


def _scan_build_weak(t):
    _scan_ranges(t)
    n1, n2 = len(t["src1"]), len(t["src2"])
    if len(t["assoc"]) != n1:
        raise Violation("assoc-length", len(t["assoc"]))
    for a, b, c in itertools.product(range(n1), repeat=3):
        if not -1 <= t["assoc"][a][b][c] < n2:
            raise Violation("assoc-range", (a, b, c))
    src2, tgt2, id2 = t["src2"], t["tgt2"], t["id2"]
    vinv = _scan_derive_inverses(
        len(src2), src2, tgt2, id2, t["vcomp"],
        lambda a: id2[src2[a]], lambda a: id2[tgt2[a]])
    w = _sparse(_scan_check_weak_2groupoid(WeakTwoGroupoid(vinv=vinv, **t)))
    return dataclasses.replace(w, assoc=tuple(
        {b: r for b, r in enumerate(_dict_rows(p)) if r} for p in w.assoc))


def _assoc_mutants(t):
    """Tables with one associator changed to every other 2-cell and to -1."""
    n1, n2 = len(t["src1"]), len(t["src2"])
    for a, b, c in itertools.product(range(n1), repeat=3):
        for w in range(-1, n2):
            if w != t["assoc"][a][b][c]:
                plane = _with({"p": t["assoc"][a]}, "p", b, c, w)["p"]
                yield dict(t, assoc=t["assoc"][:a] + (plane,)
                           + t["assoc"][a + 1:])


def _dense_assoc(w):
    """w.assoc read back as an n1 x n1 x n1 table, -1 where undefined."""
    return tuple(tuple(tuple(plane.get(b, {}).get(c, -1) for c in range(w.n1))
                       for b in range(w.n1)) for plane in w.assoc)


@functools.cache
def _weak_audit_tables():
    """Weak 2-groupoids as tables: strict ones with identity associators,
    reconstructions from nerves with seeded fillers, and the monoid
    {e, m}, m m = m, which fails only weak invertibility."""
    ws = [bg(2), b2g(2), hom_full(bg(2), b2g(2)),
          disjoint_union(bg(2), b2g(2)), product_2gpd(bg(2), b2g(3))]
    corpus = dict(build_corpus())
    for name in ("b_z3", "z4_to_z2", "z3_inv", "id_z3"):
        x = nerve(xmod_to_2group(corpus[name]))
        ws.append(reconstruct(x, choose_fillers(x, "seeded:1")))
    monoid = dict(
        n_objects=1, src1=(0, 0), tgt1=(0, 0), id1=(0,),
        comp1=((0, 1), (1, 1)), src2=(0, 1), tgt2=(0, 1), id2=(0, 1),
        vcomp=((0, -1), (-1, 1)), hcomp2=((0, 1), (1, 1)),
        assoc=tuple(tuple(tuple(max(a, b, c) for c in (0, 1))
                          for b in (0, 1)) for a in (0, 1)),
        basepoint=None)
    return [dict(_frozen(w), assoc=_dense_assoc(w)) for w in ws] + [monoid]


class TestWeakAuditMatchesScan:
    @pytest.mark.parametrize("k", range(len(_weak_audit_tables())))
    def test_first_violation_equals_scan(self, k):
        t = _weak_audit_tables()[k]
        for m in itertools.chain([t], _mutants(t), _two_in_a_row(t),
                                 _fake_inverses(t), _assoc_mutants(t)):
            want = _outcome(_scan_build_weak, m)
            got = _outcome(lambda m: build_weak_2groupoid(**m), m)
            assert got == want, m

    def test_mutants_reach_the_rewritten_checks(self):
        seen = set()
        for t in _weak_audit_tables():
            for m in itertools.chain([t], _mutants(t), _assoc_mutants(t)):
                want = _outcome(_scan_build_weak, m)
                if not isinstance(want, WeakTwoGroupoid):
                    seen.add(want[0])
        assert {"assoc-naturality", "A1", "interchange", "hcomp-domain",
                "weak-invertibility"} <= seen, seen
        assert any(v >= 0 and v != t["id2"][t["src2"][v]]
                   for t in _weak_audit_tables()
                   for plane in t["assoc"] for row in plane for v in row)


# -- interchange audited on whiskers ---------------------------------------------
#
# One object, 1-cells Z/2 = {0, h}, and the 2-cells (f, x) over each f, x in
# Z/5 under addition.  With (f, x) o (g, y) = (f + g, x + s(y)), s a
# bijection of Z/5 that fixes 0 but is not additive, used when f = h
# (whiskering on the left by h) and the identity otherwise, every audit
# before interchange passes and only whiskering on the left fails to
# preserve vertical composites; s on the x when g = h fails only whiskering
# on the right.  Identity associators; the weak audit runs interchange first.

def _whiskered(side):
    s = (0, 2, 1, 3, 4)
    n = 10

    def h(a, b):
        (f, x), (g, y) = divmod(a, 5), divmod(b, 5)
        if side == "left":
            y = s[y] if f else y
        else:
            x = s[x] if g else x
        return (f ^ g) * 5 + (x + y) % 5

    vcomp = tuple(tuple((a // 5) * 5 + (a + b) % 5 if a // 5 == b // 5
                        else -1 for b in range(n)) for a in range(n))
    return dict(n_objects=1, src1=(0, 0), tgt1=(0, 0), id1=(0,),
                comp1=((0, 1), (1, 0)), src2=(0,) * 5 + (1,) * 5,
                tgt2=(0,) * 5 + (1,) * 5, id2=(0, 5), vcomp=vcomp,
                hcomp2=tuple(tuple(h(a, b) for b in range(n))
                             for a in range(n)),
                assoc=(((0, 5), (5, 0)), ((5, 0), (0, 5))), basepoint=0)


class TestInterchangeOnWhiskers:
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_each_whiskering_is_needed(self, side):
        t = _whiskered(side)
        want = _outcome(_scan_build_weak, t)
        assert want[0] == "interchange"
        assert _outcome(lambda m: build_weak_2groupoid(**m), t) == want
