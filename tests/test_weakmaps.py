import functools
import itertools
from math import gcd

import pytest

from conftest import build_corpus
from test_twogpd import (
    TABLE_FIELDS, _fake_inverses, _mutants, _outcome, _scan_derive_inverses,
    _two_in_a_row, _with,
)

from twotypes.fingroup import cyclic
from twotypes.nerve import nerve
from twotypes.reconstruct import choose_fillers, reconstruct
from twotypes.simpset import SizeCapExceeded
from twotypes.twogpd import (
    disjoint_union, enumerate_2functors, hom_strict, hom_weak_trans, pi0,
    product_2gpd, xmod_to_2group,
)
from twotypes.weakmaps import (
    WeakTwoGroupoid, as_weak, build_weak_2groupoid, check_w5_equivalence,
    check_weak_2groupoid, check_xmod_weak_map, enumerate_modifications,
    enumerate_transformations, enumerate_weak_functors,
    enumerate_weak_transformations_wf, enumerate_xmod_weak_maps, hom_full,
    identity_weak_functor, pi0_hom_vs_homotopy_classes, to_strict,
    transformation_from_homotopy, transformation_to_homotopy, vseq,
    weak_functor_from_strict, weak_functor_from_xmod_weak_map,
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
        w = as_weak(g)
        back = to_strict(w)
        assert back.comp1 == g.comp1
        assert back.vcomp == g.vcomp
        assert back.hcomp2 == g.hcomp2
        assert back.basepoint == g.basepoint

    def test_strict_associators_are_identities(self):
        w = as_weak(b2g(2))
        for f in range(w.n1):
            for g in range(w.n1):
                for h in range(w.n1):
                    a = w.assoc[f][g][h]
                    assert a == w.id2[w.comp1[w.comp1[f][g]][h]]

    def test_audit_rejects_tampered_associator(self):
        w = as_weak(b2g(2))
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
        w = as_weak(b2g(3))
        e = w.id2[0]
        assert vseq(w, e, 1, e) == 1
        assert vseq(w, 1, 1, 1) == w.vcomp[w.vcomp[1][1]][1]

    def test_check_accepts_strict_audit(self):
        check_weak_2groupoid(as_weak(bg(2)))


class TestWeakFunctors:
    def test_identity_functor(self):
        for g in (bg(2), b2g(3)):
            F = identity_weak_functor(g)
            assert F.map1 == tuple(range(g.n1))

    def test_strict_functors_lift(self):
        g = bg(2)
        for F in enumerate_2functors(g, g):
            W = weak_functor_from_strict(F)
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
            W = weak_functor_from_strict(F)
            assert (W.obj_map, W.map1, W.map2, W.eps) in weak

    def test_cap_raises(self):
        with pytest.raises(SizeCapExceeded):
            enumerate_weak_functors(bg(3), b2g(3), cap=3)


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

    def test_dictionary_roundtrip(self):
        for n, m in [(2, 2), (3, 2), (2, 3)]:
            H, G = xmod_bg(cyclic(n)), xmod_b2g(cyclic(m))
            BH, BG = xmod_to_2group(H), xmod_to_2group(G)
            for P in enumerate_xmod_weak_maps(H, G):
                F = weak_functor_from_xmod_weak_map(P, BH, BG)
                back = xmod_weak_map_from_weak_functor(F, H, G)
                assert (back.p1, back.p2, back.eps) == (P.p1, P.p2, P.eps)


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
                for (t, theta) in enumerate_weak_transformations_wf(
                        P, Q, pointed=True):
                    h = transformation_to_homotopy(P, Q, t, theta)
                    assert transformation_from_homotopy(h, P, Q) == (t, theta)

    def test_pi0_agreement(self):
        assert pi0_hom_vs_homotopy_classes(bg(2), b2g(2))
        assert pi0_hom_vs_homotopy_classes(bg(3), b2g(3))


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
                    lhs = vseq(g,
                               g.whisker_right(g.assoc[a][b][c], d),
                               g.assoc[a][g.comp1[b][c]][d],
                               g.whisker_left(a, g.assoc[b][c][d]))
                    rhs = vseq(g,
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
    src2, tgt2, id2 = t["src2"], t["tgt2"], t["id2"]
    vinv = _scan_derive_inverses(
        len(src2), src2, tgt2, id2, t["vcomp"],
        lambda a: id2[src2[a]], lambda a: id2[tgt2[a]])
    return _scan_check_weak_2groupoid(WeakTwoGroupoid(vinv=vinv, **t))


def _assoc_mutants(t):
    """Tables with one associator changed to every other 2-cell and to -1."""
    n1, n2 = len(t["src1"]), len(t["src2"])
    for a, b, c in itertools.product(range(n1), repeat=3):
        for w in range(-1, n2):
            if w != t["assoc"][a][b][c]:
                plane = _with({"p": t["assoc"][a]}, "p", b, c, w)["p"]
                yield dict(t, assoc=t["assoc"][:a] + (plane,)
                           + t["assoc"][a + 1:])


@functools.cache
def _weak_audit_tables():
    """Weak 2-groupoids as tables: strict ones with identity associators,
    reconstructions from nerves with seeded fillers, and the monoid
    {e, m}, m m = m, which fails only weak invertibility."""
    ws = [as_weak(g) for g in (
        bg(2), b2g(2), hom_full(bg(2), b2g(2)),
        disjoint_union(bg(2), b2g(2)), product_2gpd(bg(2), b2g(3)))]
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
    return [{f: getattr(w, f) for f in WEAK_FIELDS} for w in ws] + [monoid]


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
