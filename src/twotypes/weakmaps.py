"""Weak 2-groupoids, the audit and search of weak functors, and their
crossed-module form.

A WeakTwoGroupoid relaxes associativity of 1-cell composition to a chosen
family of invertible associator 2-cells phi_{a,b,c}: (ab)c => a(bc)
satisfying the pentagon identity; identities stay strict, and a strict
twogpd.TwoGroupoid reads as one in place.  The one functor type,
twogpd.WeakFunctor (re-exported here with its audit check_weak_functor),
carries coherence 2-cells eps_{a,b}: F(a)F(b) => F(ab); a strict functor
is one whose cells are all identities.  For one-object 2-groups the same
data can be written in crossed-module form as a triple (p1, p2, eps)
subject to the axioms W0-W5; transformations and modifications translate
to (a, theta) pairs and single elements mu.  The crossed-module listers
run the 2-group searches on BH -> BG and read each result back through
this dictionary, so one search serves each kind of cell; the W and T
conditions stay as audits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .search import DEFAULT_CAP, Budget, as_budget
from .xmod import CrossedModule, Violation
from .twogpd import (
    TwoGroupoid, WeakFunctor, _Cells, _assemble_hom, _check_1cells,
    _check_horizontal, _check_interchange, _check_vertical, _checked,
    _derive_inverses, _dict_row, _functor_tables, _hom_sets,
    _refuse_weak_codomain, build_two_groupoid, check_weak_functor,
    enumerate_2modifications, enumerate_2transformations, is_2transformation,
    vseq, xmod_to_2group,
)


@dataclass(frozen=True)
class WeakTwoGroupoid(_Cells):
    """Tables as in twogpd.TwoGroupoid, rows of dicts from composable
    partner to composite, and the associators: assoc[a] is a dict from each
    b composable with a to a dict from each c composable with b to the
    2-cell (ab)c => a(bc)."""
    n_objects: int
    src1: tuple[int, ...]
    tgt1: tuple[int, ...]
    id1: tuple[int, ...]
    comp1: tuple[dict[int, int], ...]
    src2: tuple[int, ...]
    tgt2: tuple[int, ...]
    id2: tuple[int, ...]
    vcomp: tuple[dict[int, int], ...]
    hcomp2: tuple[dict[int, int], ...]
    vinv: tuple[int, ...]
    assoc: tuple[dict[int, dict[int, int]], ...]
    basepoint: Optional[int] = None

    def __repr__(self) -> str:
        return (f"WeakTwoGroupoid(objects={self.n_objects}, "
                f"one_cells={self.n1}, two_cells={self.n2})")


def _nonidentity_associator(w) -> Optional[tuple]:
    """The first (a, b, c) whose associator in w is not an identity."""
    return next(((a, b, c) for a, plane in enumerate(w.assoc)
                 for b, row in plane.items() for c, v in row.items()
                 if v != w.id2[w.src2[v]]), None)


def to_strict(w: WeakTwoGroupoid) -> TwoGroupoid:
    """Forget the associators; valid only when they are all identities."""
    bad = _nonidentity_associator(w)
    if bad is not None:
        raise Violation("nonidentity-associator", bad)
    return build_two_groupoid(
        w.n_objects, w.src1, w.tgt1, w.id1, w.comp1,
        w.src2, w.tgt2, w.id2, w.vcomp, w.hcomp2, basepoint=w.basepoint)


def _assoc_planes(assoc, n1, n2) -> tuple[dict, ...]:
    """assoc as a dict per a from each b to a dict row, a dict plane kept
    as given and a dense one without its -1 entries and empty rows; every
    b and c in range(n1), every value in range(n2)."""
    planes = tuple(p if isinstance(p, dict) else
                   {b: r for b, r in enumerate(map(_dict_row, p)) if r}
                   for p in assoc)
    if len(planes) != n1:
        raise Violation("assoc-length", len(planes))
    for a, plane in enumerate(planes):
        for b, row in plane.items():
            bad = [c for c, v in row.items()
                   if not (0 <= c < n1 and 0 <= v < n2)]
            if bad or not 0 <= b < n1:
                raise Violation("assoc-range", (a, b, min(bad, default=None)))
    return planes


def build_weak_2groupoid(n_objects, src1, tgt1, id1, comp1,
                         src2, tgt2, id2, vcomp, hcomp2, assoc,
                         basepoint=None) -> WeakTwoGroupoid:
    """Check every index, as twogpd.build_two_groupoid does, then audit;
    dict rows and planes are kept as given."""
    t = _checked(n_objects, src1, tgt1, id1, comp1, src2, tgt2, id2, vcomp,
                 hcomp2)
    assoc = _assoc_planes(assoc, len(t["src1"]), len(t["src2"]))
    vinv = _derive_inverses(t["src2"], t["tgt2"], t["id2"], t["vcomp"])
    return check_weak_2groupoid(WeakTwoGroupoid(
        vinv=vinv, assoc=assoc, basepoint=basepoint, **t))


def check_weak_2groupoid(g: WeakTwoGroupoid) -> WeakTwoGroupoid:
    """Audit: strict identities, vertical category, horizontal functoriality,
    interchange, associator naturality, A1 (pentagon), A2, and weak
    invertibility of 1-cells.  The checks before the associators are those
    of twogpd.check_two_groupoid without the associativity of 1-cells and
    of horizontal composition, and the later loops use its partner lists."""
    right1 = _check_1cells(g)
    below = _check_vertical(g)
    beside = _check_horizontal(g)
    _check_interchange(g, right1, below, beside)

    # associators: shape, A2, naturality, pentagon.  The first violation is
    # that of a scan of all (a, b, c): at each b that composes with a or has
    # associators at a, the endpoints and A2 at the c composable with b that
    # come before the least c where those and the keys of assoc[a][b] differ
    comp1, n1 = g.comp1, g.n1
    for a, plane in enumerate(g.assoc):
        for b in sorted({*plane, *right1[a]}):
            row = plane.get(b, {})
            cs = right1[b] if b in comp1[a] else []
            bad = min(row.keys() ^ set(cs), default=n1)
            for c in cs:
                if c >= bad:
                    break
                phi, lhs = row[c], comp1[comp1[a][b]][c]
                if g.src2[phi] != lhs or g.tgt2[phi] != comp1[a][comp1[b][c]]:
                    raise Violation("assoc-endpoints", (a, b, c))
                if (a in g.id1 or b in g.id1 or c in g.id1) and \
                   phi != g.id2[lhs]:
                    raise Violation("A2", (a, b, c))
            if bad < n1:
                raise Violation("assoc-domain", (a, b, bad))
    for x in range(g.n2):
        for y in beside[x]:
            for z in beside[y]:
                a, b, c = g.src2[x], g.src2[y], g.src2[z]
                ap, bp, cp = g.tgt2[x], g.tgt2[y], g.tgt2[z]
                lhs = g.vcomp[g.hcomp2[g.hcomp2[x][y]][z]][g.assoc[ap][bp][cp]]
                rhs = g.vcomp[g.assoc[a][b][c]][g.hcomp2[x][g.hcomp2[y][z]]]
                if lhs != rhs:
                    raise Violation("assoc-naturality", (x, y, z))
    for a in range(g.n1):
        for b in right1[a]:
            for c in right1[b]:
                for d in right1[c]:
                    lhs = vseq(g,
                               g.whisker_right(g.assoc[a][b][c], d),
                               g.assoc[a][g.comp1[b][c]][d],
                               g.whisker_left(a, g.assoc[b][c][d]))
                    rhs = vseq(g,
                               g.assoc[g.comp1[a][b]][c][d],
                               g.assoc[a][b][g.comp1[c][d]])
                    if lhs != rhs:
                        raise Violation("A1", (a, b, c, d))

    # weak invertibility of 1-cells: some h back, with 2-cells from both
    # composites to identities
    cells2 = set(zip(g.src2, g.tgt2))
    for f in range(g.n1):
        if not any(g.tgt1[h] == g.src1[f] and
                   (g.comp1[f][h], g.id1[g.src1[f]]) in cells2 and
                   (g.comp1[h][f], g.id1[g.tgt1[f]]) in cells2
                   for h in right1[f]):
            raise Violation("weak-invertibility", f)
    return g


# -- weak functors ------------------------------------------------------------

def enumerate_weak_functors(dom, cod, pointed: bool = False,
                            cap: int | Budget = DEFAULT_CAP
                            ) -> list[WeakFunctor]:
    """All weak functors between strict or weak 2-groupoids, in product
    order: by object map, 1-cell map, coherence cells, then 2-cell map.
    The search guarantees what check_weak_functor checks (see
    _functor_tables), so none is audited."""
    return list(_functor_tables(dom, cod, pointed, False,
                                as_budget(cap, "weak functor search")))


# -- the hom 2-groupoid of weak functors --------------------------------------

def hom_full(D: TwoGroupoid, C: TwoGroupoid, pointed_only: bool = False,
             cap: int | Budget = DEFAULT_CAP) -> TwoGroupoid:
    """The 2-groupoid of weak functors, weak transformations, and
    modifications.  D may be weak; a weak C
    raises a Violation before any search."""
    _refuse_weak_codomain(C)
    return _assemble_hom(D, C, enumerate_weak_functors, cap,
                         pointed=pointed_only)[0]


# -- crossed-module form ------------------------------------------------------

@dataclass(frozen=True)
class XmodWeakMap:
    dom: CrossedModule
    cod: CrossedModule
    p1: tuple[int, ...]
    p2: tuple[int, ...]
    eps: tuple[tuple[int, ...], ...]
    # the weak functor BH -> BG of the search that listed this map, which
    # the transformation and modification searches run on; None for a map
    # built by hand
    functor: Optional[WeakFunctor] = field(default=None, compare=False,
                                           repr=False)


@dataclass(frozen=True)
class XmodTransformation:
    src: XmodWeakMap
    tgt: XmodWeakMap
    a: int
    theta: tuple[int, ...]


@dataclass(frozen=True)
class XmodModification:
    src: XmodTransformation
    tgt: XmodTransformation
    mu: int


def _weak_map_witness(H: CrossedModule, G: CrossedModule, p1, p2, eps):
    """None, or (axiom, witness) for the first failing axiom W0-W5."""
    h1, h2 = H.g1, H.g2
    g1, g2 = G.g1, G.g2
    psi, phi = H.phi.image, G.phi.image
    if p1[h1.identity] != g1.identity or p2[h2.identity] != g2.identity:
        return ("W0-pointed", None)
    for x in range(h1.order):
        if eps[x][h1.identity] != g2.identity or \
           eps[h1.identity][x] != g2.identity:
            return ("W0-normalized", x)
    for alpha in range(h2.order):
        if p1[psi[alpha]] != phi[p2[alpha]]:
            return ("W1", alpha)
    for x in range(h1.order):
        for y in range(h1.order):
            if p1[h1.mul[x][y]] != \
               g1.mul[g1.mul[p1[x]][p1[y]]][phi[eps[x][y]]]:
                return ("W3", (x, y))
    for x in range(h1.order):
        for y in range(h1.order):
            for z in range(h1.order):
                lhs = g2.mul[G.act(eps[x][y], p1[z])][eps[h1.mul[x][y]][z]]
                rhs = g2.mul[eps[y][z]][eps[x][h1.mul[y][z]]]
                if lhs != rhs:
                    return ("W4", (x, y, z))
    for alpha in range(h2.order):
        for beta in range(h2.order):
            lhs = p2[h2.mul[alpha][beta]]
            rhs = g2.mul[g2.mul[p2[alpha]][p2[beta]]][eps[psi[alpha]][psi[beta]]]
            if lhs != rhs:
                return ("W2", (alpha, beta))
    for x in range(h1.order):
        xi = h1.inv[x]
        for beta in range(h2.order):
            lhs = g2.mul[eps[xi][x]][p2[H.act(beta, x)]]
            rhs = g2.mul[g2.mul[G.act(p2[beta], p1[x])][eps[psi[beta]][x]]][
                eps[xi][h1.mul[psi[beta]][x]]]
            if lhs != rhs:
                return ("W5", (x, beta))
    return None


def _w5_prime_holds(H: CrossedModule, G: CrossedModule, p1, p2, eps):
    """True, or the witness (x, y, beta) where the two-variable W5' fails."""
    h1, h2, g2 = H.g1, H.g2, G.g2
    psi = H.phi.image
    for x in range(h1.order):
        xi = h1.inv[x]
        for y in range(h1.order):
            for beta in range(h2.order):
                conj = h1.mul[h1.mul[xi][psi[beta]]][x]
                lhs = g2.mul[g2.mul[eps[y][x]][p2[H.act(beta, x)]]][
                    eps[h1.mul[y][x]][conj]]
                rhs = g2.mul[g2.mul[G.act(p2[beta], p1[x])][
                    eps[psi[beta]][x]]][eps[y][h1.mul[psi[beta]][x]]]
                if lhs != rhs:
                    return (x, y, beta)
    return True


def check_xmod_weak_map(H: CrossedModule, G: CrossedModule,
                        p1, p2, eps) -> XmodWeakMap:
    p1, p2 = tuple(p1), tuple(p2)
    eps = tuple(tuple(r) for r in eps)
    bad = _weak_map_witness(H, G, p1, p2, eps)
    if bad is not None:
        raise Violation(*bad)
    return XmodWeakMap(dom=H, cod=G, p1=p1, p2=p2, eps=eps)


def enumerate_xmod_weak_maps(H: CrossedModule, G: CrossedModule,
                             cap: int | Budget = DEFAULT_CAP
                             ) -> list[XmodWeakMap]:
    """Exhaustive list of weak maps H -> G in product order (p1, eps, then
    p2), read off the weak functors BH -> BG of the one-object 2-groupoids.
    Each map keeps the functor that the search found."""
    budget = as_budget(cap, "weak map search")
    BH, BG = xmod_to_2group(H, budget), xmod_to_2group(G, budget)
    maps = [_weak_map_of(F, H, G) for F in _functor_tables(
        BH, BG, True, False, budget)]
    # the functors come in the order of map2, whose first 2-cells leave
    # 1-cell 0: that is the order of p2 only when 0 is the identity of H1
    return sorted(maps, key=lambda P: (P.p1, P.eps, P.p2))


def check_w5_equivalence(H: CrossedModule, G: CrossedModule,
                         cap: int | Budget = DEFAULT_CAP) -> bool:
    """Whether the one-variable W5 and the two-variable W5' select the same
    subset of the candidates that satisfy W0-W4.  Once eps is normalised
    (W0), W5' at y = x^-1 is exactly W5, so W5' never accepts a candidate
    that W5 rejects: the two agree exactly when every weak map (W0-W5)
    satisfies W5'."""
    return all(_w5_prime_holds(H, G, P.p1, P.p2, P.eps) is True
               for P in enumerate_xmod_weak_maps(
                   H, G, cap=as_budget(cap, "W5 equivalence")))


def _transformation_witness(P: XmodWeakMap, Q: XmodWeakMap, a, theta):
    """None, or (axiom, witness) for the first failing condition T0-T2."""
    H, G = P.dom, P.cod
    h1, g1, g2 = H.g1, G.g1, G.g2
    for x in range(h1.order):
        for y in range(h1.order):
            lhs = g2.mul[G.act(P.eps[x][y], a)][theta[h1.mul[x][y]]]
            rhs = g2.mul[g2.mul[G.act(theta[x], g1.conj(P.p1[y], a))][
                theta[y]]][Q.eps[x][y]]
            if lhs != rhs:
                return ("T0", (x, y))
    for x in range(h1.order):
        if g1.mul[g1.conj(P.p1[x], a)][G.phi.image[theta[x]]] != Q.p1[x]:
            return ("T1", x)
    for alpha in range(H.g2.order):
        if g2.mul[G.act(P.p2[alpha], a)][theta[H.phi.image[alpha]]] != \
           Q.p2[alpha]:
            return ("T2", alpha)
    return None


def check_xmod_transformation(P: XmodWeakMap, Q: XmodWeakMap,
                              a: int, theta) -> XmodTransformation:
    theta = tuple(theta)
    bad = _transformation_witness(P, Q, a, theta)
    if bad is not None:
        raise Violation(*bad)
    return XmodTransformation(src=P, tgt=Q, a=a, theta=theta)


def _functors(*maps: XmodWeakMap, cap: int | Budget = DEFAULT_CAP
              ) -> list[WeakFunctor]:
    """The weak functor of each map: the one its search found, else one
    realized over a single pair of one-object 2-groupoids built under cap."""
    if all(P.functor is not None for P in maps):
        return [P.functor for P in maps]
    BH, BG = (xmod_to_2group(xm, cap) for xm in (maps[0].dom, maps[0].cod))
    return [weak_functor_from_xmod_weak_map(P, BH, BG) if P.functor is None
            else P.functor for P in maps]


def enumerate_transformations(P: XmodWeakMap, Q: XmodWeakMap,
                              pointed_only: bool = False,
                              cap: int | Budget = DEFAULT_CAP
                              ) -> list[XmodTransformation]:
    """All (a, theta) from P to Q in lexicographic order, read off the
    transformations of their weak functors: a = t[0] and theta(x) the top
    element of the 2-cell theta[x].  When pointed_only, a is the identity."""
    n2 = P.cod.g2.order
    budget = as_budget(cap, "transformation search")
    return [XmodTransformation(src=P, tgt=Q, a=t[0],
                               theta=tuple(c % n2 for c in theta))
            for t, theta in enumerate_2transformations(
                *_functors(P, Q, cap=budget), pointed_only, cap=budget)]


def enumerate_modifications(T: XmodTransformation, S: XmodTransformation
                            ) -> list[XmodModification]:
    """Elements mu with a phi(mu) = b and mu sigma(x) = theta(x) mu^{q1(x)},
    in the order of G2, read off the modifications of the weak functors."""
    budget = as_budget(DEFAULT_CAP, "modification search")
    P = T.src
    g1, n2 = P.cod.g1, P.cod.g2.order

    def cells(X):
        # (t, theta) in BG: theta[x] runs from p1(x) a
        return (X.a,), tuple(g1.mul[f][X.a] * n2 + v
                             for f, v in zip(P.p1, X.theta))

    return [XmodModification(src=T, tgt=S, mu=mu[0] % n2)
            for mu in enumerate_2modifications(
                *_functors(P, T.tgt, cap=budget), cells(T), cells(S),
                cap=budget)]


# -- dictionary with one-object 2-groupoids -----------------------------------

def weak_functor_from_xmod_weak_map(P: XmodWeakMap, BH: TwoGroupoid,
                                    BG: TwoGroupoid) -> WeakFunctor:
    """Realize a crossed-module weak map as a weak functor between the
    one-object 2-groupoids built from its domain and codomain."""
    H, G = P.dom, P.cod
    n2h, n2g = H.g2.order, G.g2.order
    psi = H.phi.image
    map1 = P.p1
    map2 = []
    for g in range(H.g1.order):
        for alpha in range(n2h):
            val = G.g2.mul[P.p2[alpha]][P.eps[g][psi[alpha]]]
            map2.append(P.p1[g] * n2g + val)
    eps = [[G.g1.mul[P.p1[f]][P.p1[h]] * n2g + P.eps[f][h]
            for h in range(H.g1.order)] for f in range(H.g1.order)]
    return check_weak_functor(BH, BG, (0,), map1, map2, eps, pointed=True)


def _weak_map_of(F: WeakFunctor, H: CrossedModule,
                 G: CrossedModule) -> XmodWeakMap:
    """Inverse reading, kept with F: p1 from the 1-cell map, p2 from the
    2-cells out of the identity 1-cell, eps from the coherence cells."""
    n2h, n2g = H.g2.order, G.g2.order
    e = H.g1.identity
    return XmodWeakMap(
        dom=H, cod=G, p1=F.map1,
        p2=tuple(F.map2[e * n2h + alpha] % n2g for alpha in range(n2h)),
        eps=tuple(tuple(c % n2g for c in row) for row in F.eps), functor=F)


def xmod_weak_map_from_weak_functor(F: WeakFunctor, H: CrossedModule,
                                    G: CrossedModule) -> XmodWeakMap:
    """The reading of _weak_map_of, audited against W0-W5."""
    P = _weak_map_of(F, H, G)
    check_xmod_weak_map(H, G, P.p1, P.p2, P.eps)
    return P


# -- transformations versus simplicial homotopies -----------------------------

def transformation_to_homotopy(P: WeakFunctor, Q: WeakFunctor, t, theta,
                               cap: int | Budget = DEFAULT_CAP):
    """The simplicial homotopy N P => N Q induced by a weak transformation:
    each prism over a 1-cell is split along the diagonal t_A Q(c), the upper
    triangle carrying the identity and the lower carrying theta_c.  It is
    defined on I x N(dom) through level 3, the prism kept on N(dom)
    (`simpset.prism`) that `Homotopies` into a nerve searches."""
    from . import nerve as nerve_mod
    from .simpset import check_simplicial_map, level_by_boundary, prism

    D, C = P.dom, P.cod
    budget = as_budget(cap, "nerve")
    ND, NC = nerve_mod.nerve(D, budget), nerve_mod.nerve(C, budget)
    tri_pos = nerve_mod.two_simplex_index(C)
    tris = nerve_mod.two_simplices(D)
    prod = prism(ND, 3)

    def qcell(alpha):
        # image in C of a 2-simplex cell alpha: f g => h of D, through Q
        f, g, a = tris[alpha]
        return C.vcomp[Q.eps[f][g]][Q.map2[a]]

    lvl0 = list(P.obj_map) + list(Q.obj_map)
    # over the edges 00, 01 and 11 of the interval
    lvl1 = list(P.map1) + [C.comp1[t[D.src1[c]]][Q.map1[c]]
                           for c in range(ND.counts[1])] + list(Q.map1)
    lvl2 = []
    for w in range(4):                      # 000, 001, 011, 111
        for x in range(ND.counts[2]):
            f, g, a = tris[x]
            A = D.src1[f]
            B = D.tgt1[f]
            h = D.tgt2[a]
            if w == 0:
                tri = (P.map1[f], P.map1[g],
                       C.vcomp[P.eps[f][g]][P.map2[a]])
            elif w == 3:
                tri = (Q.map1[f], Q.map1[g], qcell(x))
            elif w == 1:
                beta = C.vcomp[
                    C.hcomp2[theta[f]][C.id2[Q.map1[g]]]][
                    C.hcomp2[C.id2[t[A]]][qcell(x)]]
                tri = (P.map1[f], C.comp1[t[B]][Q.map1[g]], beta)
            else:
                beta = C.hcomp2[C.id2[t[A]]][qcell(x)]
                tri = (C.comp1[t[A]][Q.map1[f]], Q.map1[g], beta)
            lvl2.append(tri_pos[tri])
    lvl3 = level_by_boundary(NC, 3, lvl2, prod.faces[3])
    return check_simplicial_map(prod, NC, [lvl0, lvl1, lvl2, lvl3])


def transformation_from_homotopy(hmap, P: WeakFunctor, Q: WeakFunctor,
                                 cap: int | Budget = DEFAULT_CAP):
    """Read (t, theta) off a homotopy N P => N Q: t from the diagonal over
    each identity edge, theta_c from the two triangles of the prism over c
    as [lower][upper]^{-1}."""
    from . import nerve as nerve_mod

    D, C = P.dom, P.cod
    ND = nerve_mod.nerve(D, cap)
    ctris = nerve_mod.two_simplices(C)
    c1, c2 = ND.counts[1], ND.counts[2]
    t = tuple(hmap.levels[1][1 * c1 + ND.degens[0][A][0]]
              for A in range(ND.counts[0]))
    theta = []
    for c in range(ND.counts[1]):
        z_low = hmap.levels[2][1 * c2 + ND.degens[1][c][1]]
        z_up = hmap.levels[2][2 * c2 + ND.degens[1][c][0]]
        beta_low = ctris[z_low][2]
        beta_up = ctris[z_up][2]
        theta.append(C.vcomp[beta_low][C.vinv[beta_up]])
    return t, tuple(theta)


def pi0_hom_vs_homotopy_classes(H: TwoGroupoid, G: TwoGroupoid,
                                cap: int | Budget = DEFAULT_CAP) -> bool:
    """The transformation relation on weak functors coincides with pointed
    simplicial homotopy of their nerves, verified constructively in both
    directions, so the two class counts agree.  H may be weak; a weak G
    raises a Violation before any search.

    Every ordered pair of functors is checked both ways: its
    transformations, read from the table of `twogpd._hom_sets`, exist
    exactly when a homotopy of the nerve maps is found; the first one
    builds a homotopy with the pair's fixed cells, and a found homotopy
    reads back as a transformation."""
    from . import nerve as nerve_mod
    from .simpset import Homotopies, simplicial_maps

    _refuse_weak_codomain(G)
    budget = as_budget(cap, "homotopy bridge")
    funcs = enumerate_weak_functors(H, G, pointed=True, cap=budget)
    NH, NG = nerve_mod.nerve(H, budget), nerve_mod.nerve(G, budget)
    nmaps = [nerve_mod.nerve_of_weak_functor(F, budget) for F in funcs]
    keyed = {m.levels[:4] for m in nmaps}
    if len(keyed) != len(funcs) or keyed != {
            m.levels[:4] for m in simplicial_maps(NH, NG, cap=budget)}:
        return False

    table = _hom_sets(funcs, True, False, budget)
    homotopies = Homotopies(NH, NG)
    for i, (P, f) in enumerate(zip(funcs, nmaps)):
        for j, (Q, g) in enumerate(zip(funcs, nmaps)):
            trans = table.get((i, j), [])
            fixed = homotopies.fixed(f, g, pointed=True)
            hmt = homotopies.find(f, g, pointed=True, cap=budget, fixed=fixed)
            if bool(trans) != (hmt is not None):
                return False
            if trans:
                built = transformation_to_homotopy(P, Q, *trans[0], budget)
                if any(built.levels[lvl][z] != img
                       for (lvl, z), img in fixed.items()):
                    return False
            if hmt is not None:
                t, theta = transformation_from_homotopy(hmt, P, Q, budget)
                if not is_2transformation(P, Q, t, theta):
                    return False
    return True
