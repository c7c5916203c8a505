"""Every exhaustive search against a brute-force product filter.

Each search must return exactly the candidates of the full product that
the matching validator accepts, in the product's order: objects, then
1-cells, then coherence cells, then 2-cells, each in index order.
"""

import itertools
from pathlib import Path

import pytest

from conftest import build_corpus
from test_cohom import crossed_homs
from twotypes.cli import _as_2gpd, _subject
from twotypes.cohom import two_cocycles
from twotypes.fingroup import (
    NotAHom, cyclic, inversion_action_z2_on, klein_four, make_group,
    make_hom, trivial_action,
)
from twotypes.search import as_budget, search
from twotypes.twogpd import (
    check_2functor, disjoint_union, enumerate_2functors,
    enumerate_2modifications, enumerate_2transformations, hom_strict,
    is_2transformation, point_2gpd, xmod_to_2group,
)
from twotypes.weakmaps import (
    check_weak_functor, check_xmod_transformation, check_xmod_weak_map,
    enumerate_modifications, enumerate_transformations,
    enumerate_weak_functors, enumerate_xmod_weak_maps, vseq,
)
from twotypes.xmod import (
    Violation, check_crossed_module, check_morphism, check_pointed,
    check_strict_transformation, enumerate_strict_transformations, xmod_b2g,
    xmod_bg, xmod_identity,
)

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


# the crossed-module listers also run on pairs with a nontrivial boundary
# (z4to2), with a nontrivial action (z3_inv), and with a base group whose
# identity is not element 0 (z4to2r, Z/4 onto Z/2 = {1, 0})
XMODS["z4to2"] = _subject(str(Path(__file__).resolve().parent.parent /
                              "fixtures" / "z4to2.xmod"), ("xmod",))[2]
XMODS.update((k, v) for k, v in build_corpus() if k in ("z3_inv", "b2_z3"))
_Z2R = make_group([[1, 0], [0, 1]])
XMODS["z4to2r"] = check_crossed_module(
    cyclic(4), _Z2R, make_hom(cyclic(4), _Z2R, [1, 0, 1, 0]),
    trivial_action(_Z2R, cyclic(4)))
XMOD_PAIRS = PAIRS + [("z4to2", "z4to2"), ("z3_inv", "b2_z3"),
                      ("z4to2r", "b2g2")]


@pytest.fixture(params=XMOD_PAIRS, ids=["->".join(p) for p in XMOD_PAIRS])
def xmod_pair(request):
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


def test_xmod_weak_maps(xmod_pair):
    h, g = xmod_pair
    got = [(P.p1, P.p2, P.eps) for P in enumerate_xmod_weak_maps(h, g)]
    assert got == _weak_maps(h, g)
    assert got


@pytest.mark.parametrize("pointed_only", [False, True])
def test_transformations(xmod_pair, pointed_only):
    h, g = xmod_pair
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


def test_modifications(xmod_pair):
    """Each mu of G2 with a phi(mu) = b and mu sigma(x) = theta(x) mu^q1(x)
    for every x of H1, where T = (a, theta) and S = (b, sigma) run from P to
    Q, in the order of G2."""
    h, g = xmod_pair
    g1, g2, phi = g.g1, g.g2, g.phi.image
    maps = enumerate_xmod_weak_maps(h, g)
    found = 0
    for P, Q in itertools.product(maps, repeat=2):
        trans = enumerate_transformations(P, Q)
        for T, S in itertools.product(trans, repeat=2):
            want = [mu for mu in range(g2.order)
                    if g1.mul[T.a][phi[mu]] == S.a and
                    all(g2.mul[mu][S.theta[x]] ==
                        g2.mul[T.theta[x]][g.act(mu, Q.p1[x])]
                        for x in range(h.g1.order))]
            got = enumerate_modifications(T, S)
            assert [M.mu for M in got] == want
            assert all(M.src == T and M.tgt == S for M in got)
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


# -- hom 2-groupoids: the product-filter listers, as they were ----------------
#
# The old_* functions are the five product-filter listers of transformations
# and modifications that twogpd and weakmaps ran before the two kernel
# listers replaced them, with their predicates.  The kernel listers must
# return the same lists in the same order on every functor pair below, and
# is_2transformation must accept and reject what old_weak_trans_wf_ok does.

FIX = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_2GPDS = ("bz2.2gpd", "z2.xmod", "z2to1.xmod", "z3.xmod",
                 "z4to2.xmod")


def old_pillow_holds(P, Q, t):
    dom, cod = P.dom, P.cod
    for c in range(dom.n1):
        A, B = dom.src1[c], dom.tgt1[c]
        if cod.comp1[P.map1[c]][t[B]] != cod.comp1[t[A]][Q.map1[c]]:
            return False
    for gamma in range(dom.n2):
        A = dom.src1[dom.src2[gamma]]
        B = dom.tgt1[dom.src2[gamma]]
        if cod.whisker_right(P.map2[gamma], t[B]) != \
           cod.whisker_left(t[A], Q.map2[gamma]):
            return False
    return True


def old_strict_2transformations(P, Q):
    dom, cod = P.dom, P.cod
    opts = []
    for A in range(dom.n_objects):
        opts.append([f for f in range(cod.n1)
                     if cod.src1[f] == P.obj_map[A] and
                     cod.tgt1[f] == Q.obj_map[A]])
    return [t for t in itertools.product(*opts) if old_pillow_holds(P, Q, t)]


def old_weak_trans_ok(P, Q, t, theta):
    dom, cod = P.dom, P.cod
    for gamma in range(dom.n2):
        c, cp = dom.src2[gamma], dom.tgt2[gamma]
        A, B = dom.src1[c], dom.tgt1[c]
        lhs = cod.vcomp[cod.whisker_right(P.map2[gamma], t[B])][theta[cp]]
        rhs = cod.vcomp[theta[c]][cod.whisker_left(t[A], Q.map2[gamma])]
        if lhs != rhs:
            return False
    for a in range(dom.n1):
        for b in range(dom.n1):
            ab = dom.comp1[a].get(b, -1)
            if ab < 0:
                continue
            paste = cod.vcomp[cod.whisker_left(P.map1[a], theta[b])][
                cod.whisker_right(theta[a], Q.map1[b])]
            if theta[ab] != paste:
                return False
    return True


def old_weak_trans_wf_ok(P, Q, t, theta):
    dom, cod = P.dom, P.cod
    for gamma in range(dom.n2):
        c, cp = dom.src2[gamma], dom.tgt2[gamma]
        A, B = dom.src1[c], dom.tgt1[c]
        lhs = cod.vcomp[cod.whisker_right(P.map2[gamma], t[B])][theta[cp]]
        rhs = cod.vcomp[theta[c]][cod.whisker_left(t[A], Q.map2[gamma])]
        if lhs != rhs:
            return False
    for a in range(dom.n1):
        for b in range(dom.n1):
            ab = dom.comp1[a].get(b, -1)
            if ab < 0:
                continue
            A = dom.src1[a]
            C = dom.tgt1[b]
            lhs = cod.vcomp[cod.whisker_right(P.eps[a][b], t[C])][theta[ab]]
            rhs = vseq(cod,
                       cod.whisker_left(P.map1[a], theta[b]),
                       cod.whisker_right(theta[a], Q.map1[b]),
                       cod.whisker_left(t[A], Q.eps[a][b]))
            if lhs != rhs:
                return False
    return True


def old_weak_transformations(P, Q, ok, pointed=False):
    """enumerate_weak_2transformations (ok = old_weak_trans_ok, never
    pointed) and enumerate_weak_transformations_wf (ok =
    old_weak_trans_wf_ok), which differed only in these two points."""
    dom, cod = P.dom, P.cod
    t_opts = []
    for A in range(dom.n_objects):
        opts = [f for f in range(cod.n1)
                if cod.src1[f] == P.obj_map[A] and cod.tgt1[f] == Q.obj_map[A]]
        if pointed and A == dom.basepoint:
            e = cod.id1[cod.basepoint]
            opts = [f for f in opts if f == e]
        t_opts.append(opts)
    out = []
    for t in itertools.product(*t_opts):
        theta_opts = []
        ok_t = True
        for c in range(dom.n1):
            A, B = dom.src1[c], dom.tgt1[c]
            lhs = cod.comp1[P.map1[c]][t[B]]
            rhs = cod.comp1[t[A]][Q.map1[c]]
            if c in dom.id1:
                opts = [cod.id2[lhs]] if lhs == rhs else []
            else:
                opts = [a for a in range(cod.n2)
                        if cod.src2[a] == lhs and cod.tgt2[a] == rhs]
            if not opts:
                ok_t = False
                break
            theta_opts.append(opts)
        if not ok_t:
            continue
        for theta in itertools.product(*theta_opts):
            if ok(P, Q, t, theta):
                out.append((t, theta))
    return out


def old_modifications(P, Q, t, theta, s, sigma, pointed=False):
    """twogpd.enumerate_modifications (never pointed) and
    enumerate_modifications_wf."""
    dom, cod = P.dom, P.cod
    opts = []
    for A in range(dom.n_objects):
        cands = [a for a in range(cod.n2)
                 if cod.src2[a] == t[A] and cod.tgt2[a] == s[A]]
        if pointed and A == dom.basepoint:
            cands = [a for a in cands if a == cod.id2[t[A]]]
        opts.append(cands)

    def mod_ok(mu):
        for c in range(dom.n1):
            A, B = dom.src1[c], dom.tgt1[c]
            lhs = cod.vcomp[theta[c]][cod.whisker_right(mu[A], Q.map1[c])]
            rhs = cod.vcomp[cod.whisker_left(P.map1[c], mu[B])][sigma[c]]
            if lhs != rhs:
                return False
        return True

    return [mu for mu in itertools.product(*opts) if mod_ok(mu)]


def old_fillers(P, u):
    """The identity square fillers of a strict transformation u."""
    dom, cod = P.dom, P.cod
    return tuple(cod.id2[cod.comp1[P.map1[c]][u[dom.tgt1[c]]]]
                 for c in range(dom.n1))


def _hom_pairs():
    small = {f"bg{n}": xmod_to_2group(xmod_bg(cyclic(n))) for n in (2, 3)}
    small.update({f"b2g{m}": xmod_to_2group(xmod_b2g(cyclic(m)))
                  for m in (2, 3)})
    out = [(d, c, small[d], small[c])
           for d in ("bg2", "bg3") for c in ("b2g2", "b2g3")]
    fixtures = {name: _as_2gpd(str(FIX / name)) for name in FIXTURE_2GPDS}
    out += [(d, c, fixtures[d], fixtures[c])
            for d, c in itertools.product(FIXTURE_2GPDS, repeat=2)]
    return out


HOM_PAIRS = _hom_pairs()


def _old_lists(P, Q, variant, pointed):
    if variant == "strict":
        return [(t, None) for t in old_strict_2transformations(P, Q)]
    ok = old_weak_trans_ok if variant == "weak-on-strict" \
        else old_weak_trans_wf_ok
    return old_weak_transformations(P, Q, ok, pointed)


def _old_mods(P, Q, x, y, variant, pointed):
    (t, theta), (s, sigma) = x, y
    if variant == "strict":
        theta, sigma = old_fillers(P, t), old_fillers(P, s)
    return old_modifications(P, Q, t, theta, s, sigma, pointed)


@pytest.mark.parametrize("variant, pointed", [
    ("strict", False), ("weak-on-strict", False),
    ("weak", False), ("weak", True)])
@pytest.mark.parametrize("d, c, D, C", HOM_PAIRS,
                         ids=[f"{p[0]}->{p[1]}" for p in HOM_PAIRS])
def test_hom_listers(d, c, D, C, variant, pointed):
    if variant == "weak":
        functors = enumerate_weak_functors(D, C, pointed=pointed)
    else:
        functors = enumerate_2functors(D, C)
    strict = variant == "strict"
    cells = mods = 0
    for P, Q in itertools.product(functors, repeat=2):
        got = enumerate_2transformations(P, Q, pointed, strict)
        assert [(t, None if strict else theta) for t, theta in got] == \
            _old_lists(P, Q, variant, pointed)
        if strict:
            assert all(theta == old_fillers(P, t) for t, theta in got)
        cells += len(got)
        for x, y in itertools.product(got, repeat=2):
            found = enumerate_2modifications(P, Q, x, y, pointed)
            assert found == _old_mods(P, Q, x, y, variant, pointed)
            mods += len(found)
    # every functor has its identity transformation and modification
    assert cells >= len(functors) and mods >= cells


def _verdict(check, *args):
    """check's answer, False where a composite it reads is missing."""
    try:
        return check(*args)
    except (KeyError, Violation):
        return False


@pytest.mark.parametrize("d, c, D, C", HOM_PAIRS,
                         ids=[f"{p[0]}->{p[1]}" for p in HOM_PAIRS])
def test_bridge_check(d, c, D, C):
    functors = enumerate_weak_functors(D, C, pointed=True)
    seen = set()
    for P, Q in itertools.product(functors, repeat=2):
        for t, theta in old_weak_transformations(P, Q, old_weak_trans_wf_ok,
                                                 pointed=True):
            # every single-cell change of theta, to any 2-cell
            for k in range(len(theta)):
                for a in range(C.n2):
                    alt = theta[:k] + (a,) + theta[k + 1:]
                    want = _verdict(old_weak_trans_wf_ok, P, Q, t, alt)
                    assert _verdict(is_2transformation, P, Q, t, alt) == want
                    seen.add(want)
    assert True in seen and len(seen) > 1


# -- strict functors on multi-object 2-groupoids ------------------------------
#
# old_2functors is enumerate_2functors as it was before strict and weak
# functors shared one lister: 1-cells and 2-cells each searched in order of
# candidate count, which can leave the list out of product order.  It is the
# oracle for the set of functors; the order is checked against the product.

def old_preserves(pairs, dtab, ctab, m):
    return [((a, b, c), lambda a=a, b=b, c=c: m[c] == ctab[m[a]][m[b]])
            for a, b in pairs if (c := dtab[a].get(b, -1)) >= 0]


def old_2functors(dom, cod, pointed=False, cap=10 ** 6):
    out = []
    obj_opts = [range(cod.n_objects)] * dom.n_objects
    if pointed:
        check_pointed(dom, cod)
        obj_opts[dom.basepoint] = [cod.basepoint]
    budget = as_budget(cap, "functor search")

    pairs1 = list(itertools.product(range(dom.n1), repeat=2))
    pairs2 = list(itertools.product(range(dom.n2), repeat=2))
    map1 = {}
    map2 = {}
    cons1 = old_preserves(pairs1, dom.comp1, cod.comp1, map1)
    cons2 = (old_preserves(pairs2, dom.vcomp, cod.vcomp, map2)
             + old_preserves(pairs2, dom.hcomp2, cod.hcomp2, map2))
    for obj_map in itertools.product(*obj_opts):
        cand1 = [cod.between1.get((obj_map[dom.src1[f]], obj_map[dom.tgt1[f]]), [])
                 for f in range(dom.n1)]
        forced1 = {dom.id1[a]: cod.id1[obj_map[a]] for a in range(dom.n_objects)}
        # forced cells first, then by number of candidates
        order1 = sorted(range(dom.n1), key=lambda f: 0 if f in forced1
                        else len(cand1[f]))
        for _ in search(order1, lambda f: [forced1[f]] if f in forced1
                        else cand1[f], cons1, map1, budget):
            m1 = tuple(map1[f] for f in range(dom.n1))
            cand2 = [cod.between2.get((m1[dom.src2[a]], m1[dom.tgt2[a]]), [])
                     for a in range(dom.n2)]
            forced2 = {dom.id2[f]: cod.id2[m1[f]] for f in range(dom.n1)}
            order2 = sorted(range(dom.n2), key=lambda a: 0 if a in forced2
                            else len(cand2[a]))
            for _ in search(order2, lambda a: [forced2[a]] if a in forced2
                            else cand2[a], cons2, map2, budget):
                out.append(check_2functor(
                    dom, cod, obj_map, m1,
                    [map2[a] for a in range(dom.n2)], pointed=pointed))
    return out


def _functor_2gpds():
    bg = {n: xmod_to_2group(xmod_bg(cyclic(n))) for n in (2, 3)}
    out = {"bg2": bg[2], "bg3": bg[3],
           "b2g2": xmod_to_2group(xmod_b2g(cyclic(2))),
           "point": point_2gpd()}
    out.update((name, _as_2gpd(str(FIX / name))) for name in FIXTURE_2GPDS)
    out["bg3+bg2"] = disjoint_union(bg[3], bg[2])
    out["bg2+bg3"] = disjoint_union(bg[2], bg[3])
    out["point+bg2"] = disjoint_union(point_2gpd(), bg[2])
    out["hom(bg2,b2g2)"] = hom_strict(bg[2], out["b2g2"])
    return out


FUNCTOR_2GPDS = _functor_2gpds()
FUNCTOR_PAIRS = list(itertools.product(FUNCTOR_2GPDS, repeat=2))


@pytest.mark.parametrize("pointed", [False, True])
@pytest.mark.parametrize("d, c", FUNCTOR_PAIRS,
                         ids=[f"{d}->{c}" for d, c in FUNCTOR_PAIRS])
def test_strict_functors_in_product_order(d, c, pointed):
    D, C = FUNCTOR_2GPDS[d], FUNCTOR_2GPDS[c]
    got = [(F.obj_map, F.map1, F.map2)
           for F in enumerate_2functors(D, C, pointed=pointed)]
    want = {(F.obj_map, F.map1, F.map2)
            for F in old_2functors(D, C, pointed=pointed)}
    assert got == sorted(want)


# -- strict transformations of crossed-module morphisms -----------------------
#
# old_check_strict_transformation and old_strict_transformations are
# xmod.check_strict_transformation and the product filter of
# xmod.enumerate_strict_transformations before both ran on the weak
# transformation conditions T0-T2 with identity coherence.

def old_check_strict_transformation(p, q, a, theta):
    h1, g = p.dom.g1, p.cod
    theta = tuple(theta)
    if len(theta) != h1.order:
        return False
    if theta[h1.identity] != g.g2.identity:
        return False
    for x in range(h1.order):
        for y in range(h1.order):
            twist = g.g1.conj(p.p1.image[y], a)
            if theta[h1.mul[x][y]] != g.g2.mul[g.act(theta[x], twist)][theta[y]]:
                return False
    for x in range(h1.order):
        if g.g1.mul[g.g1.conj(p.p1.image[x], a)][g.phi.image[theta[x]]] != q.p1.image[x]:
            return False
    for alpha in range(p.dom.g2.order):
        lhs = g.g2.mul[g.act(p.p2.image[alpha], a)][theta[p.dom.phi.image[alpha]]]
        if lhs != q.p2.image[alpha]:
            return False
    return True


def old_strict_transformations(p, q, pointed_only=False):
    g = p.cod
    h1 = p.dom.g1
    out = []
    a_candidates = [g.g1.identity] if pointed_only else range(g.g1.order)
    for a in a_candidates:
        for theta in itertools.product(range(g.g2.order), repeat=h1.order):
            if old_check_strict_transformation(p, q, a, theta):
                out.append((a, theta))
    return out


STRICT_XMODS = {"bg2": xmod_bg(cyclic(2)), "bg3": xmod_bg(cyclic(3)),
                "bv4": xmod_bg(klein_four()), "b2g2": xmod_b2g(cyclic(2)),
                "id2": xmod_identity(cyclic(2)),
                "id3": xmod_identity(cyclic(3))}
STRICT_PAIRS = list(itertools.product(STRICT_XMODS, repeat=2))


def _homs(g, h):
    out = []
    for image in itertools.product(range(h.order), repeat=g.order):
        try:
            out.append(make_hom(g, h, image))
        except NotAHom:
            pass
    return out


def _strict_morphisms(h, g):
    return [m for p2, p1 in itertools.product(_homs(h.g2, g.g2),
                                              _homs(h.g1, g.g1))
            if (m := _valid(check_morphism, h, g, p2, p1)) is not None]


@pytest.mark.parametrize("d, c", STRICT_PAIRS,
                         ids=[f"{d}->{c}" for d, c in STRICT_PAIRS])
def test_strict_xmod_transformations(d, c):
    h, g = STRICT_XMODS[d], STRICT_XMODS[c]
    morphisms = _strict_morphisms(h, g)
    assert morphisms
    for p, q in itertools.product(morphisms, repeat=2):
        for pointed_only in (False, True):
            assert enumerate_strict_transformations(p, q, pointed_only) == \
                old_strict_transformations(p, q, pointed_only)
        for a, theta in itertools.product(
                range(g.g1.order),
                itertools.product(range(g.g2.order), repeat=h.g1.order)):
            assert check_strict_transformation(p, q, a, theta) == \
                old_check_strict_transformation(p, q, a, theta)
