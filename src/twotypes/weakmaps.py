"""Weak 2-groupoids, weak functors, and their crossed-module form.

A WeakTwoGroupoid relaxes associativity of 1-cell composition to a chosen
family of invertible associator 2-cells phi_{a,b,c}: (ab)c => a(bc)
satisfying the pentagon identity; identities stay strict.  A WeakFunctor
carries coherence 2-cells eps_{a,b}: F(a)F(b) => F(ab).  For one-object
2-groups the same data can be written in crossed-module form as a triple
(p1, p2, eps) subject to the axioms W1-W5; transformations and
modifications translate to (a, theta) pairs and single elements mu.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .fingroup import FiniteGroup
from .search import Budget, search
from .xmod import CrossedModule, Violation
from .twogpd import (
    TwoFunctor, TwoGroupoid, _assemble_hom, _check_1cells, _check_horizontal,
    _check_interchange, _check_vertical, _derive_inverses, _preserves,
    build_two_groupoid,
)


@dataclass(frozen=True)
class WeakTwoGroupoid:
    n_objects: int
    src1: tuple[int, ...]
    tgt1: tuple[int, ...]
    id1: tuple[int, ...]
    comp1: tuple[tuple[int, ...], ...]
    src2: tuple[int, ...]
    tgt2: tuple[int, ...]
    id2: tuple[int, ...]
    vcomp: tuple[tuple[int, ...], ...]
    hcomp2: tuple[tuple[int, ...], ...]
    vinv: tuple[int, ...]
    assoc: tuple[tuple[tuple[int, ...], ...], ...]
    basepoint: Optional[int] = None

    @property
    def n1(self) -> int:
        return len(self.src1)

    @property
    def n2(self) -> int:
        return len(self.src2)

    def whisker_left(self, f: int, beta: int) -> int:
        return self.hcomp2[self.id2[f]][beta]

    def whisker_right(self, alpha: int, h: int) -> int:
        return self.hcomp2[alpha][self.id2[h]]

    def __repr__(self) -> str:
        return (f"WeakTwoGroupoid(objects={self.n_objects}, "
                f"one_cells={self.n1}, two_cells={self.n2})")


def vseq(g, *cells: int) -> int:
    """Vertical composite of a chain of 2-cells, left to right."""
    out = cells[0]
    for c in cells[1:]:
        out = g.vcomp[out][c]
        if out < 0:
            raise Violation("vseq-not-composable", cells)
    return out


def _identity_assoc(n1, comp1, id2):
    assoc = []
    for a in range(n1):
        plane = []
        for b in range(n1):
            row = []
            for c in range(n1):
                ab = comp1[a][b]
                if ab >= 0 and comp1[b][c] >= 0:
                    row.append(id2[comp1[ab][c]])
                else:
                    row.append(-1)
            plane.append(tuple(row))
        plane = tuple(plane)
        assoc.append(plane)
    return tuple(assoc)


def _coerce_weak(g) -> WeakTwoGroupoid:
    """View an already-audited strict TwoGroupoid as weak, without re-audit."""
    if isinstance(g, WeakTwoGroupoid):
        return g
    return WeakTwoGroupoid(
        n_objects=g.n_objects, src1=g.src1, tgt1=g.tgt1, id1=g.id1,
        comp1=g.comp1, src2=g.src2, tgt2=g.tgt2, id2=g.id2,
        vcomp=g.vcomp, hcomp2=g.hcomp2, vinv=g.vinv,
        assoc=_identity_assoc(g.n1, g.comp1, g.id2), basepoint=g.basepoint)


def as_weak(g: TwoGroupoid) -> WeakTwoGroupoid:
    """Strict 2-groupoid with identity associators, fully re-audited."""
    return check_weak_2groupoid(_coerce_weak(g))


def to_strict(w: WeakTwoGroupoid) -> TwoGroupoid:
    """Forget the associators; valid only when they are all identities."""
    for a in range(w.n1):
        for b in range(w.n1):
            for c in range(w.n1):
                v = w.assoc[a][b][c]
                if v >= 0 and v != w.id2[w.src2[v]]:
                    raise Violation("nonidentity-associator", (a, b, c))
    return build_two_groupoid(
        w.n_objects, w.src1, w.tgt1, w.id1, w.comp1,
        w.src2, w.tgt2, w.id2, w.vcomp, w.hcomp2, basepoint=w.basepoint)


def build_weak_2groupoid(n_objects, src1, tgt1, id1, comp1,
                         src2, tgt2, id2, vcomp, hcomp2, assoc,
                         basepoint=None) -> WeakTwoGroupoid:
    src1, tgt1, id1 = tuple(src1), tuple(tgt1), tuple(id1)
    comp1 = tuple(tuple(r) for r in comp1)
    src2, tgt2, id2 = tuple(src2), tuple(tgt2), tuple(id2)
    vcomp = tuple(tuple(r) for r in vcomp)
    hcomp2 = tuple(tuple(r) for r in hcomp2)
    assoc = tuple(tuple(tuple(r) for r in plane) for plane in assoc)
    vinv = _derive_inverses(src2, tgt2, id2, vcomp)
    w = WeakTwoGroupoid(n_objects=n_objects, src1=src1, tgt1=tgt1, id1=id1,
                        comp1=comp1, src2=src2, tgt2=tgt2, id2=id2,
                        vcomp=vcomp, hcomp2=hcomp2, vinv=vinv, assoc=assoc,
                        basepoint=basepoint)
    return check_weak_2groupoid(w)


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

@dataclass(frozen=True)
class WeakFunctor:
    dom: WeakTwoGroupoid
    cod: WeakTwoGroupoid
    obj_map: tuple[int, ...]
    map1: tuple[int, ...]
    map2: tuple[int, ...]
    eps: tuple[tuple[int, ...], ...]


def check_weak_functor(dom, cod, obj_map, map1, map2, eps,
                       pointed: bool = False) -> WeakFunctor:
    """Audit a weak functor: strict identities, vertical functoriality,
    naturality of eps, and the associativity coherence hexagon (which
    degenerates to a square when both sides are strict)."""
    dom, cod = _coerce_weak(dom), _coerce_weak(cod)
    obj_map, map1, map2 = tuple(obj_map), tuple(map1), tuple(map2)
    eps = tuple(tuple(r) for r in eps)
    for f in range(dom.n1):
        if cod.src1[map1[f]] != obj_map[dom.src1[f]] or \
           cod.tgt1[map1[f]] != obj_map[dom.tgt1[f]]:
            raise Violation("wf-1cell-endpoints", f)
    for a in range(dom.n_objects):
        if map1[dom.id1[a]] != cod.id1[obj_map[a]]:
            raise Violation("wf-id1", a)
    for a in range(dom.n2):
        if cod.src2[map2[a]] != map1[dom.src2[a]] or \
           cod.tgt2[map2[a]] != map1[dom.tgt2[a]]:
            raise Violation("wf-2cell-endpoints", a)
    for f in range(dom.n1):
        if map2[dom.id2[f]] != cod.id2[map1[f]]:
            raise Violation("wf-id2", f)
    for a in range(dom.n2):
        for b in range(dom.n2):
            if dom.vcomp[a][b] >= 0 and \
               map2[dom.vcomp[a][b]] != cod.vcomp[map2[a]][map2[b]]:
                raise Violation("wf-vcomp", (a, b))
    for f in range(dom.n1):
        for h in range(dom.n1):
            defined = eps[f][h] >= 0
            if defined != (dom.comp1[f][h] >= 0):
                raise Violation("wf-eps-domain", (f, h))
            if not defined:
                continue
            e = eps[f][h]
            if cod.src2[e] != cod.comp1[map1[f]][map1[h]] or \
               cod.tgt2[e] != map1[dom.comp1[f][h]]:
                raise Violation("wf-eps-endpoints", (f, h))
            if (f in dom.id1 or h in dom.id1) and e != cod.id2[cod.src2[e]]:
                raise Violation("wf-eps-identity", (f, h))
    # naturality: [eps_{f,h}][F(alpha . beta)] = [F(alpha) F(beta)][eps_{f',h'}]
    for a in range(dom.n2):
        for b in range(dom.n2):
            if dom.hcomp2[a][b] < 0:
                continue
            f, h = dom.src2[a], dom.src2[b]
            fp, hp = dom.tgt2[a], dom.tgt2[b]
            lhs = cod.vcomp[eps[f][h]][map2[dom.hcomp2[a][b]]]
            rhs = cod.vcomp[cod.hcomp2[map2[a]][map2[b]]][eps[fp][hp]]
            if lhs != rhs:
                raise Violation("wf-naturality", (a, b))
    # coherence hexagon over composable triples
    for a in range(dom.n1):
        for b in range(dom.n1):
            ab = dom.comp1[a][b]
            if ab < 0:
                continue
            for c in range(dom.n1):
                bc = dom.comp1[b][c]
                if bc < 0:
                    continue
                lhs = vseq(cod,
                           cod.whisker_right(eps[a][b], map1[c]),
                           eps[ab][c],
                           map2[dom.assoc[a][b][c]])
                rhs = vseq(cod,
                           cod.assoc[map1[a]][map1[b]][map1[c]],
                           cod.whisker_left(map1[a], eps[b][c]),
                           eps[a][bc])
                if lhs != rhs:
                    raise Violation("wf-coherence", (a, b, c))
    if pointed:
        if dom.basepoint is None or cod.basepoint is None:
            raise Violation("pointed-without-basepoint", None)
        if obj_map[dom.basepoint] != cod.basepoint:
            raise Violation("basepoint-not-preserved", dom.basepoint)
    return WeakFunctor(dom=dom, cod=cod, obj_map=obj_map, map1=map1,
                       map2=map2, eps=eps)


def weak_functor_from_strict(F: TwoFunctor) -> WeakFunctor:
    cod = _coerce_weak(F.cod)
    eps = [[-1] * F.dom.n1 for _ in range(F.dom.n1)]
    for f in range(F.dom.n1):
        for h in range(F.dom.n1):
            if F.dom.comp1[f][h] >= 0:
                eps[f][h] = cod.id2[cod.comp1[F.map1[f]][F.map1[h]]]
    return check_weak_functor(F.dom, F.cod, F.obj_map, F.map1, F.map2, eps)


def identity_weak_functor(g) -> WeakFunctor:
    w = _coerce_weak(g)
    eps = [[-1] * w.n1 for _ in range(w.n1)]
    for f in range(w.n1):
        for h in range(w.n1):
            if w.comp1[f][h] >= 0:
                eps[f][h] = w.id2[w.comp1[f][h]]
    return check_weak_functor(w, w, range(w.n_objects), range(w.n1),
                              range(w.n2), eps)


def enumerate_weak_functors(dom: TwoGroupoid, cod: TwoGroupoid,
                            pointed: bool = False,
                            cap: int = 10 ** 6) -> list[WeakFunctor]:
    """All weak functors between strict 2-groupoids, by backtracking over
    the 1-cell map, the coherence cells, and the 2-cell map in turn."""
    out = []
    budget = Budget(cap, "weak functor search")

    by1: dict[tuple[int, int], list[int]] = {}
    for f in range(cod.n1):
        by1.setdefault((cod.src1[f], cod.tgt1[f]), []).append(f)
    by2: dict[tuple[int, int], list[int]] = {}
    for a in range(cod.n2):
        by2.setdefault((cod.src2[a], cod.tgt2[a]), []).append(a)

    pairs = [(f, h) for f in range(dom.n1) for h in range(dom.n1)
             if dom.comp1[f][h] >= 0]
    free_pairs = [(f, h) for (f, h) in pairs
                  if f not in dom.id1 and h not in dom.id1]
    triples = [(a, b, c) for a in range(dom.n1) for b in range(dom.n1)
               for c in range(dom.n1)
               if dom.comp1[a][b] >= 0 and dom.comp1[b][c] >= 0]
    free1 = [f for f in range(dom.n1) if f not in dom.id1]
    free2 = [a for a in range(dom.n2) if a not in dom.id2]
    map1: dict[int, int] = {}
    eps: dict[tuple[int, int], int] = {}
    map2: dict[int, int] = {}

    def eps_candidates(f, h):
        return by2.get((cod.comp1[map1[f]][map1[h]], map1[dom.comp1[f][h]]),
                       [])

    # every composable pair of 1-cells has a coherence cell to choose
    cons1 = [((f, h, dom.comp1[f][h]),
              lambda f=f, h=h: bool(eps_candidates(f, h))) for f, h in pairs]

    def coherent(a, b, c):
        ab, bc = dom.comp1[a][b], dom.comp1[b][c]
        lhs = cod.vcomp[cod.whisker_right(eps[a, b], map1[c])][eps[ab, c]]
        rhs = cod.vcomp[cod.whisker_left(map1[a], eps[b, c])][eps[a, bc]]
        return lhs == rhs

    cons_eps = [(((a, b), (dom.comp1[a][b], c), (b, c), (a, dom.comp1[b][c])),
                 lambda a=a, b=b, c=c: coherent(a, b, c))
                for a, b, c in triples]

    def natural(a, b):
        f0, h0 = dom.src2[a], dom.src2[b]
        f1, h1 = dom.tgt2[a], dom.tgt2[b]
        lhs = cod.vcomp[eps[f0, h0]][map2[dom.hcomp2[a][b]]]
        rhs = cod.vcomp[cod.hcomp2[map2[a]][map2[b]]][eps[f1, h1]]
        return lhs == rhs

    pairs2 = list(itertools.product(range(dom.n2), repeat=2))
    cons2 = _preserves(pairs2, dom.vcomp, cod.vcomp, map2) + [
        ((a, b, dom.hcomp2[a][b]), lambda a=a, b=b: natural(a, b))
        for a, b in pairs2 if dom.hcomp2[a][b] >= 0]

    obj_opts = [list(range(cod.n_objects))] * dom.n_objects
    if pointed:
        obj_opts = list(obj_opts)
        obj_opts[dom.basepoint] = [cod.basepoint]

    for obj_map in itertools.product(*obj_opts):
        # ---- 1-cell map
        map1.clear()
        for a in range(dom.n_objects):
            map1[dom.id1[a]] = cod.id1[obj_map[a]]
        for _ in search(free1, lambda f: by1.get(
                (obj_map[dom.src1[f]], obj_map[dom.tgt1[f]]), []),
                cons1, map1, budget):
            m1 = tuple(map1[f] for f in range(dom.n1))
            # ---- coherence cells
            eps.clear()
            for (f, h) in pairs:
                if f in dom.id1 or h in dom.id1:
                    eps[f, h] = cod.id2[cod.comp1[m1[f]][m1[h]]]
            for _ in search(free_pairs, lambda p: eps_candidates(*p),
                            cons_eps, eps, budget):
                eps_done = [tuple(eps.get((f, h), -1) for h in range(dom.n1))
                            for f in range(dom.n1)]
                # ---- 2-cell map
                map2.clear()
                for f in range(dom.n1):
                    map2[dom.id2[f]] = cod.id2[m1[f]]
                for _ in search(free2, lambda a: by2.get(
                        (m1[dom.src2[a]], m1[dom.tgt2[a]]), []),
                        cons2, map2, budget):
                    out.append(check_weak_functor(
                        dom, cod, obj_map, m1,
                        tuple(map2[a] for a in range(dom.n2)), eps_done,
                        pointed=pointed))
    return out


# -- weak transformations and modifications between weak functors -------------

def _weak_trans_wf_ok(P: WeakFunctor, Q: WeakFunctor, t, theta) -> bool:
    dom, cod = P.dom, P.cod
    # naturality in 2-cells
    for gamma in range(dom.n2):
        c, cp = dom.src2[gamma], dom.tgt2[gamma]
        A, B = dom.src1[c], dom.tgt1[c]
        lhs = cod.vcomp[cod.whisker_right(P.map2[gamma], t[B])][theta[cp]]
        rhs = cod.vcomp[theta[c]][cod.whisker_left(t[A], Q.map2[gamma])]
        if lhs != rhs:
            return False
    # coherence: [eps^P t][theta_{ab}] = [P(a) theta_b][theta_a Q(b)][t eps^Q]
    for a in range(dom.n1):
        for b in range(dom.n1):
            ab = dom.comp1[a][b]
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


def enumerate_weak_transformations_wf(P: WeakFunctor, Q: WeakFunctor,
                                      pointed: bool = False):
    """Weak transformations P => Q as (t, theta) pairs."""
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
        ok = True
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
                ok = False
                break
            theta_opts.append(opts)
        if not ok:
            continue
        for theta in itertools.product(*theta_opts):
            if _weak_trans_wf_ok(P, Q, t, theta):
                out.append((t, theta))
    return out


def enumerate_modifications_wf(P: WeakFunctor, Q: WeakFunctor,
                               t, theta, s, sigma, pointed: bool = False):
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


def hom_full_data(D: TwoGroupoid, C: TwoGroupoid,
                  pointed_only: bool = False, cap: int = 10 ** 6):
    """The 2-groupoid of weak functors, weak transformations, and
    modifications, with its underlying cell lists."""
    functors = enumerate_weak_functors(D, C, pointed=pointed_only, cap=cap)
    return _assemble_hom(
        D, C, functors,
        functools.partial(enumerate_weak_transformations_wf,
                          pointed=pointed_only),
        functools.partial(enumerate_modifications_wf, pointed=pointed_only),
        weak=True)


def hom_full(D: TwoGroupoid, C: TwoGroupoid, pointed_only: bool = False,
             cap: int = 10 ** 6) -> TwoGroupoid:
    return hom_full_data(D, C, pointed_only=pointed_only, cap=cap)[0]


# -- crossed-module form ------------------------------------------------------

@dataclass(frozen=True)
class XmodWeakMap:
    dom: CrossedModule
    cod: CrossedModule
    p1: tuple[int, ...]
    p2: tuple[int, ...]
    eps: tuple[tuple[int, ...], ...]


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
    w5 = _w5_holds(H, G, p1, p2, eps)
    if w5 is not True:
        return ("W5", w5)
    return None


def _w5_holds(H: CrossedModule, G: CrossedModule, p1, p2, eps):
    """True, or the witness (x, beta) where W5 fails."""
    h1, h2, g1, g2 = H.g1, H.g2, G.g1, G.g2
    psi = H.phi.image
    for x in range(h1.order):
        xi = h1.inv[x]
        for beta in range(h2.order):
            lhs = g2.mul[eps[xi][x]][p2[H.act(beta, x)]]
            rhs = g2.mul[g2.mul[G.act(p2[beta], p1[x])][eps[psi[beta]][x]]][
                eps[xi][h1.mul[psi[beta]][x]]]
            if lhs != rhs:
                return (x, beta)
    return True


def _w5_prime_holds(H: CrossedModule, G: CrossedModule, p1, p2, eps):
    """True, or the witness (x, y, beta) where the two-variable W5' fails."""
    h1, h2, g1, g2 = H.g1, H.g2, G.g1, G.g2
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


def _weak_map_candidates(H: CrossedModule, G: CrossedModule,
                         cap: int = 10 ** 6):
    """All (p1, p2, eps) satisfying W0-W4 plus W2, in deterministic order.

    W5 is deliberately left out so callers can compare W5 with W5'."""
    h1, h2, g1, g2 = H.g1, H.g2, G.g1, G.g2
    psi, phi = H.phi.image, G.phi.image
    phi_fiber: dict[int, list[int]] = {}
    for v in range(g2.order):
        phi_fiber.setdefault(phi[v], []).append(v)
    budget = Budget(cap, "weak map search")
    squares = list(itertools.product(range(h1.order), repeat=2))
    cubes = list(itertools.product(range(h1.order), repeat=3))
    p1: dict[int, int] = {h1.identity: g1.identity}
    eps = {(x, y): g2.identity for x, y in squares if h1.identity in (x, y)}
    p2: dict[int, int] = {h2.identity: g2.identity}

    def w3_need(x, y):
        """(p1(x) p1(y))^-1 p1(xy), which W3 asks to be phi(eps(x, y))."""
        return g1.mul[g1.inverse(g1.mul[p1[x]][p1[y]])][p1[h1.mul[x][y]]]

    def w4(x, y, z):
        lhs = g2.mul[G.act(eps[x, y], p1[z])][eps[h1.mul[x][y], z]]
        rhs = g2.mul[eps[y, z]][eps[x, h1.mul[y][z]]]
        return lhs == rhs

    def w2(a, b):
        ab = h2.mul[a][b]
        return p2[ab] == g2.mul[g2.mul[p2[a]][p2[b]]][eps[psi[a], psi[b]]]

    cons_p1 = [((x, y, h1.mul[x][y]), lambda x=x, y=y: w3_need(x, y)
                in phi_fiber) for x, y in squares]
    cons_eps = [(((x, y), (h1.mul[x][y], z), (y, z), (x, h1.mul[y][z])),
                 lambda x=x, y=y, z=z: w4(x, y, z)) for x, y, z in cubes]
    cons_p2 = [((a, b, h2.mul[a][b]), lambda a=a, b=b: w2(a, b))
               for a, b in itertools.product(range(h2.order), repeat=2)]
    free1 = [x for x in range(h1.order) if x != h1.identity]
    free2 = [a for a in range(h2.order) if a != h2.identity]
    pairs = list(itertools.product(free1, repeat=2))

    for _ in search(free1, lambda x: range(g1.order), cons_p1, p1, budget):
        p1_done = tuple(p1[x] for x in range(h1.order))
        for _ in search(pairs, lambda p: phi_fiber[w3_need(*p)], cons_eps,
                        eps, budget):
            eps_done = [tuple(eps[x, y] for y in range(h1.order))
                        for x in range(h1.order)]
            # p2 from the W1 fibers, pruned by W2
            cands2 = {a: phi_fiber.get(p1_done[psi[a]], []) for a in free2}
            if not all(cands2.values()):
                continue
            for _ in search(free2, cands2.__getitem__, cons_p2, p2, budget):
                yield (p1_done, tuple(p2[a] for a in range(h2.order)),
                       eps_done)


def enumerate_xmod_weak_maps(H: CrossedModule, G: CrossedModule,
                             pointed_only: bool = False,
                             cap: int = 10 ** 6) -> list[XmodWeakMap]:
    """Exhaustive list of weak maps H -> G.  Every weak map is pointed by
    definition; the flag is accepted for interface symmetry."""
    out = []
    for (p1, p2, eps) in _weak_map_candidates(H, G, cap=cap):
        if _w5_holds(H, G, p1, p2, eps) is True:
            out.append(XmodWeakMap(dom=H, cod=G, p1=tuple(p1), p2=tuple(p2),
                                   eps=tuple(tuple(r) for r in eps)))
    return out


def check_w5_equivalence(H: CrossedModule, G: CrossedModule,
                         cap: int = 10 ** 6) -> bool:
    """Over every candidate satisfying W0-W4 (and W2), the one-variable and
    two-variable equivariance axioms select the same subset."""
    for (p1, p2, eps) in _weak_map_candidates(H, G, cap=cap):
        if (_w5_holds(H, G, p1, p2, eps) is True) != \
           (_w5_prime_holds(H, G, p1, p2, eps) is True):
            return False
    return True


def _t0(P: XmodWeakMap, Q: XmodWeakMap, a, theta, x, y) -> bool:
    G = P.cod
    g1, g2 = G.g1, G.g2
    lhs = g2.mul[G.act(P.eps[x][y], a)][theta[P.dom.g1.mul[x][y]]]
    rhs = g2.mul[g2.mul[G.act(theta[x], g1.conj(P.p1[y], a))][theta[y]]][
        Q.eps[x][y]]
    return lhs == rhs


def _t1(P: XmodWeakMap, Q: XmodWeakMap, a, theta, x) -> bool:
    g1 = P.cod.g1
    return g1.mul[g1.conj(P.p1[x], a)][P.cod.phi.image[theta[x]]] == Q.p1[x]


def _t2(P: XmodWeakMap, Q: XmodWeakMap, a, theta, alpha) -> bool:
    G = P.cod
    return G.g2.mul[G.act(P.p2[alpha], a)][
        theta[P.dom.phi.image[alpha]]] == Q.p2[alpha]


def _transformation_witness(P: XmodWeakMap, Q: XmodWeakMap, a, theta):
    h1, h2 = P.dom.g1, P.dom.g2
    for x in range(h1.order):
        for y in range(h1.order):
            if not _t0(P, Q, a, theta, x, y):
                return ("T0", (x, y))
    for x in range(h1.order):
        if not _t1(P, Q, a, theta, x):
            return ("T1", x)
    for alpha in range(h2.order):
        if not _t2(P, Q, a, theta, alpha):
            return ("T2", alpha)
    return None


def check_xmod_transformation(P: XmodWeakMap, Q: XmodWeakMap,
                              a: int, theta) -> XmodTransformation:
    theta = tuple(theta)
    bad = _transformation_witness(P, Q, a, theta)
    if bad is not None:
        raise Violation(*bad)
    return XmodTransformation(src=P, tgt=Q, a=a, theta=theta)


def enumerate_transformations(P: XmodWeakMap, Q: XmodWeakMap,
                              pointed_only: bool = False
                              ) -> list[XmodTransformation]:
    h1, h2, g1, g2 = P.dom.g1, P.dom.g2, P.cod.g1, P.cod.g2
    psi = P.dom.phi.image
    # theta[x] for x in h1, and the conjugating element under the key "a"
    theta: dict = {h1.identity: g2.identity}
    constraints = (
        [(("a", x, y, h1.mul[x][y]),
          lambda x=x, y=y: _t0(P, Q, theta["a"], theta, x, y))
         for x, y in itertools.product(range(h1.order), repeat=2)]
        + [(("a", x), lambda x=x: _t1(P, Q, theta["a"], theta, x))
           for x in range(h1.order)]
        + [(("a", psi[alpha]),
            lambda alpha=alpha: _t2(P, Q, theta["a"], theta, alpha))
           for alpha in range(h2.order)])
    a_opts = [g1.identity] if pointed_only else range(g1.order)
    order = ["a"] + [x for x in range(h1.order) if x != h1.identity]
    return [XmodTransformation(src=P, tgt=Q, a=theta["a"], theta=tuple(
                theta[x] for x in range(h1.order)))
            for _ in search(order, lambda v: a_opts if v == "a"
                            else range(g2.order), constraints, theta)]


def enumerate_modifications(T: XmodTransformation, S: XmodTransformation
                            ) -> list[XmodModification]:
    """Elements mu with a phi(mu) = b and mu sigma(x) = theta(x) mu^{q1(x)}."""
    P, Q = T.src, T.tgt
    G = P.cod
    g1, g2 = G.g1, G.g2
    phi = G.phi.image
    h1 = P.dom.g1
    out = []
    for mu in range(g2.order):
        if g1.mul[T.a][phi[mu]] != S.a:
            continue
        if all(g2.mul[mu][S.theta[x]] ==
               g2.mul[T.theta[x]][G.act(mu, Q.p1[x])]
               for x in range(h1.order)):
            out.append(XmodModification(src=T, tgt=S, mu=mu))
    return out


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


def xmod_weak_map_from_weak_functor(F: WeakFunctor, H: CrossedModule,
                                    G: CrossedModule) -> XmodWeakMap:
    """Inverse reading: p1 from the 1-cell map, p2 from the 2-cells out of
    the identity 1-cell, eps from the coherence cells."""
    n2h, n2g = H.g2.order, G.g2.order
    e = H.g1.identity
    p1 = F.map1
    p2 = tuple(F.map2[e * n2h + alpha] % n2g for alpha in range(n2h))
    eps = tuple(tuple(F.eps[f][h] % n2g for h in range(H.g1.order))
                for f in range(H.g1.order))
    return check_xmod_weak_map(H, G, p1, p2, eps)


def wf_transformation_from_xmod(T: XmodTransformation, BG: TwoGroupoid):
    """(t, theta) cell data over the one-object 2-groupoids."""
    P = T.src
    H, G = P.dom, P.cod
    n2g = G.g2.order
    t = (T.a,)
    theta = tuple(G.g1.mul[P.p1[c]][T.a] * n2g + T.theta[c]
                  for c in range(H.g1.order))
    return t, theta


# -- transformations versus simplicial homotopies -----------------------------

def transformation_to_homotopy(P: WeakFunctor, Q: WeakFunctor, t, theta):
    """The simplicial homotopy N P => N Q induced by a weak transformation:
    each prism over a 1-cell is split along the diagonal t_A Q(c), the upper
    triangle carrying the identity and the lower carrying theta_c."""
    from . import nerve as nerve_mod
    from .simpset import check_simplicial_map, interval, product

    D = P.dom
    C = P.cod
    ND = nerve_mod.nerve(D)
    NC = nerve_mod.nerve(C)
    tri_pos = nerve_mod.two_simplex_index(C)
    tri3_pos = {NC.faces[3][z]: z for z in range(NC.counts[3])}
    tris = nerve_mod.two_simplices(D)
    prod = product(interval(), ND)

    def qcell(alpha):
        # image in C of a 2-simplex cell alpha: f g => h of D, through Q
        f, g, a = tris[alpha]
        return C.vcomp[Q.eps[f][g]][Q.map2[a]]

    lvl0 = []
    for w in range(2):
        for v in range(ND.counts[0]):
            lvl0.append(P.obj_map[v] if w == 0 else Q.obj_map[v])
    lvl1 = []
    for w in range(3):                      # edges 00, 01, 11 of the interval
        for c in range(ND.counts[1]):
            if w == 0:
                lvl1.append(P.map1[c])
            elif w == 2:
                lvl1.append(Q.map1[c])
            else:
                lvl1.append(C.comp1[t[D.src1[c]]][Q.map1[c]])
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
    lvl3 = []
    for z in range(prod.counts[3]):
        key = tuple(lvl2[v] for v in prod.faces[3][z])
        lvl3.append(tri3_pos[key])
    return check_simplicial_map(prod, NC, [lvl0, lvl1, lvl2, lvl3])


def transformation_from_homotopy(hmap, P: WeakFunctor, Q: WeakFunctor):
    """Read (t, theta) off a homotopy N P => N Q: t from the diagonal over
    each identity edge, theta_c from the two triangles of the prism over c
    as [lower][upper]^{-1}."""
    from . import nerve as nerve_mod

    D, C = P.dom, P.cod
    ND = nerve_mod.nerve(D)
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
                                cap: int = 10 ** 6) -> bool:
    """The transformation relation on weak functors coincides with pointed
    simplicial homotopy of their nerves, verified constructively in both
    directions, so the two class counts agree."""
    from . import nerve as nerve_mod
    from .simpset import (
        _end_inclusion_fixed, enumerate_maps_3trunc, interval, product,
        simplicial_maps,
    )

    funcs = enumerate_weak_functors(H, G, pointed=True, cap=cap)
    NH = nerve_mod.nerve(H)
    NG = nerve_mod.nerve(G)
    nmaps = [nerve_mod.nerve_of_weak_functor(F) for F in funcs]
    keyed = {m.levels[:4] for m in nmaps}
    all_maps = simplicial_maps(NH, NG, cap=cap)
    if len(keyed) != len(funcs) or \
       keyed != {m.levels[:4] for m in all_maps}:
        return False

    prod = product(interval(), NH)
    depth = 3
    base_col = {}
    bx, by = NH.basepoint, NG.basepoint
    for n in range(depth + 1):
        for w in range(prod.counts[n] // NH.counts[n]):
            base_col[(n, w * NH.counts[n] + bx)] = by
        bx = NH.degens[n][bx][0] if n < depth else bx
        by = NG.degens[n][by][0] if n < depth else by

    def pointed_homotopy(f, g):
        fixed = dict(base_col)
        fixed.update(_end_inclusion_fixed(NH, 0, f, depth))
        fixed.update(_end_inclusion_fixed(NH, 1, g, depth))
        found = enumerate_maps_3trunc(prod, NG, fixed=fixed, cap=cap,
                                      first_only=True)
        return found[0] if found else None

    n = len(funcs)
    for i in range(n):
        for j in range(n):
            trans = enumerate_weak_transformations_wf(funcs[i], funcs[j],
                                                      pointed=True)
            hmt = pointed_homotopy(nmaps[i], nmaps[j])
            if bool(trans) != (hmt is not None):
                return False
            if trans:
                t, theta = trans[0]
                built = transformation_to_homotopy(funcs[i], funcs[j],
                                                   t, theta)
                f0 = _end_inclusion_fixed(NH, 0, nmaps[i], depth)
                f1 = _end_inclusion_fixed(NH, 1, nmaps[j], depth)
                for (lvl, z), img in {**f0, **f1, **base_col}.items():
                    if built.levels[lvl][z] != img:
                        return False
            if hmt is not None:
                t, theta = transformation_from_homotopy(hmt, funcs[i],
                                                        funcs[j])
                if not _weak_trans_wf_ok(funcs[i], funcs[j], t, theta):
                    return False
    return True
