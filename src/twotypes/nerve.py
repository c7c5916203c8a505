"""The nerve of a 2-groupoid as a 3-coskeletal truncated simplicial set.

Vertices are objects, edges are 1-cells with src = d1 and tgt = d0,
2-simplices are triples (f, g, alpha) with alpha: f g => h a 2-cell out of
the composite, and 3-simplices are boundary-compatible quadruples whose
interior 2-cell equation pins the d1 face.  Level 4 is the 3-coskeleton,
held as the join of level 3 (`simpset.JoinLevel`): it is counted once, and
its rows are listed, and the degeneracies into it (`simpset.JoinDegens`)
ranked, only when something reads them.  Level 3 is counted from the
cells first.  Weak functors induce simplicial maps and conversely.
"""

from __future__ import annotations

from collections import Counter

from .search import DEFAULT_CAP, Budget, as_budget, derived, group
from .simpset import (
    SimplicialMap, TruncatedSimplicialSet, check_simplicial_map, coskeleton,
    extend_to_level4, level_by_boundary, make_sset, sset_fiber_product,
)
from .twogpd import (
    WeakFunctor, check_weak_functor, fiber_product_2gpd, induced_homs,
    induced_pi0,
)
from .xmod import Violation


def two_simplices(g) -> tuple[tuple[int, int, int], ...]:
    """The 2-simplex triples (f, g, alpha) in nerve order: sorted by the
    pair of edges, identity filler first.  Sorted once per 2-groupoid and
    shared by every caller (`search.derived`)."""
    def make():
        out2 = group(g.src2)
        return tuple(sorted(
            ((f, h, a) for f, row in enumerate(g.comp1)
             for h, fh in row.items() for a in out2.get(fh, [])),
            key=lambda t: (t[0], t[1],
                           0 if t[2] == g.id2[g.comp1[t[0]][t[1]]] else 1,
                           t[2])))
    return derived(g, "two_simplices", make)


def two_simplex_index(g) -> dict[tuple[int, int, int], int]:
    """Each triple of `two_simplices` to its index; made once per
    2-groupoid and shared, so callers only read it."""
    return derived(g, "two_simplex_index", lambda: {
        t: i for i, t in enumerate(two_simplices(g))})


def _level3_count(g) -> int:
    """The size of level 3 of the nerve of g: per composable (f, h, m),
    |out2(fh)| times the sum of |out2(f mid)| over the 2-cells h m => mid."""
    out2, size = group(g.src2), Counter(g.src2)
    mids = [Counter(g.tgt2[a] for hm in row.values() for a in out2.get(hm, ()))
            for row in g.comp1]
    return sum(size[fh] * sum(k * size[g.comp1[f][mid]]
                              for mid, k in mids[h].items())
               for f, row in enumerate(g.comp1) for h, fh in row.items())


def xmod_level3_count(xm) -> int:
    """_level3_count of xm's 2-group: all compose, |G2| 2-cells per 1-cell."""
    return (xm.g1.order * xm.g2.order) ** 3


def nerve(g, cap: int | Budget = DEFAULT_CAP) -> TruncatedSimplicialSet:
    """3-coskeletal nerve, truncated at level 4, of a strict or weak
    2-groupoid, kept on it (`derived`).  The budget admits level 3 before
    levels 2-3 are listed and level 4 before levels 0-3 are audited, and
    level 4 again on every call, a kept nerve too: s0 embeds each level in
    the next, so the lower levels are no larger."""
    budget = as_budget(cap, "nerve")
    full = derived(g, "nerve", lambda: _nerve(g, budget))
    budget.admit(full.counts[4], "the simplices of level 4")
    return full


def _nerve(g, budget: Budget) -> TruncatedSimplicialSet:
    budget.admit(_level3_count(g), "the simplices of level 3")
    faces1 = [(g.tgt1[f], g.src1[f]) for f in range(g.n1)]
    degens0 = [(g.id1[a],) for a in range(g.n_objects)]
    tris = two_simplices(g)
    pos2 = two_simplex_index(g)
    faces2 = [(t[1], g.tgt2[t[2]], t[0]) for t in tris]
    degens1 = []
    for f in range(g.n1):
        s0 = pos2[(g.id1[g.src1[f]], f, g.id2[f])]
        s1 = pos2[(f, g.id1[g.tgt1[f]], g.id2[f])]
        degens1.append((s0, s1))

    out2 = group(g.src2)
    quads = []
    for f, row in enumerate(g.comp1):
        for h, fh in row.items():
            for m, hm in g.comp1[h].items():
                for alpha in out2.get(fh, []):
                    top = g.tgt2[alpha]                      # f h => top
                    for gamma in out2.get(hm, []):
                        mid = g.tgt2[gamma]                  # h m => mid
                        for beta in out2.get(g.comp1[f][mid], []):
                            # interior: top m => tgt(beta), via the associator
                            delta = g.vcomp[g.vinv[
                                g.hcomp2[alpha][g.id2[m]]]][
                                g.vcomp[g.assoc[f][h][m]][
                                    g.vcomp[g.hcomp2[g.id2[f]][gamma]][beta]]]
                            quads.append((
                                pos2[(h, m, gamma)],
                                pos2[(g.tgt2[alpha], m, delta)],
                                pos2[(f, g.tgt2[gamma], beta)],
                                pos2[(f, h, alpha)]))
    quads.sort()
    pos3 = {q: i for i, q in enumerate(quads)}
    degens2 = []
    for x, t in enumerate(tris):
        d0x, d1x, d2x = faces2[x]
        s0 = pos3[(x, x, degens1[d1x][0], degens1[d2x][0])]
        s1 = pos3[(degens1[d0x][0], x, x, degens1[d2x][1])]
        s2 = pos3[(degens1[d0x][1], degens1[d1x][1], x, x)]
        degens2.append((s0, s1, s2))

    counts = (g.n_objects, g.n1, len(tris), len(quads))
    faces = ((), tuple(faces1), tuple(faces2), tuple(quads))
    degens = (tuple(degens0), tuple(degens1), tuple(degens2))
    full = coskeleton(TruncatedSimplicialSet(
        3, counts, faces, degens, basepoint=g.basepoint), 3, trunc=4,
        cap=budget)
    make_sset(3, counts, faces, degens, basepoint=g.basepoint)
    return full


def nerve_of_weak_functor(F: WeakFunctor, cap: int | Budget = DEFAULT_CAP
                          ) -> SimplicialMap:
    """The induced map of nerves of a weak or strict functor: a 2-simplex
    (f, g, alpha) goes to (F f, F g, [eps_{f,g}][F alpha]); level 3 follows
    by boundary lookup."""
    budget = as_budget(cap, "nerve")
    nd, nc = nerve(F.dom, budget), nerve(F.cod, budget)
    C = F.cod
    tris = two_simplices(F.dom)
    pos2c = two_simplex_index(F.cod)
    lvl0 = list(F.obj_map)
    lvl1 = list(F.map1)
    lvl2 = [pos2c[(F.map1[f], F.map1[h],
                   C.vcomp[F.eps[f][h]][F.map2[a]])]
            for (f, h, a) in tris]
    lvl3 = level_by_boundary(nc, 3, lvl2, nd.faces[3])
    return check_simplicial_map(nd, nc, [lvl0, lvl1, lvl2, lvl3])


def simplicial_map_to_weak_functor(m: SimplicialMap, dom_gpd,
                                   cod_gpd) -> WeakFunctor:
    """Read a weak functor off a simplicial map between nerves: the 2-cell
    map from prisms over identity edges and the coherence cells from the
    identity fillers of composable pairs."""
    w, c = dom_gpd, cod_gpd
    pos2d = two_simplex_index(w)
    ctris = two_simplices(c)
    obj_map = m.levels[0]
    map1 = m.levels[1]
    map2 = []
    for a in range(w.n2):
        u = w.src2[a]
        tri = (u, w.id1[w.tgt1[u]], a)
        map2.append(ctris[m.levels[2][pos2d[tri]]][2])
    eps = [[-1] * w.n1 for _ in range(w.n1)]
    for f, row in enumerate(w.comp1):
        for h, fh in row.items():
            eps[f][h] = ctris[m.levels[2][pos2d[(f, h, w.id2[fh])]]][2]
    return check_weak_functor(w, c, obj_map, map1, map2, eps)


# -- homotopy invariants of a (weak) functor ----------------------------------

def induced_pi(F) -> tuple:
    """(pi0 component map, pi1 hom, pi2 hom) at the basepoint of F.dom."""
    return (induced_pi0(F), *induced_homs(F, F.dom.basepoint))


# -- fiber products -----------------------------------------------------------

def nerve_preserves_fiber_products(F: WeakFunctor, G: WeakFunctor) -> bool:
    """The canonical map N(X x_Z Y) -> N(X) x_{N(Z)} N(Y) is an isomorphism
    of truncated simplicial sets.  One budget of DEFAULT_CAP admits every
    nerve it reads."""
    budget = as_budget(DEFAULT_CAP, "nerve fiber product")
    P, px, py = fiber_product_2gpd(F, G)
    nf, ng, npx, npy = (extend_to_level4(nerve_of_weak_functor(H, budget))
                        for H in (F, G, px, py))
    fib, pairs, pos = sset_fiber_product(nf, ng)
    NP = nerve(P, budget)
    levels = []
    for n in range(5):
        lvl = []
        for z in range(NP.counts[n]):
            key = (npx.levels[n][z], npy.levels[n][z])
            if key not in pos[n]:
                return False
            lvl.append(pos[n][key])
        if sorted(lvl) != list(range(len(pairs[n]))):
            return False
        levels.append(lvl)
    try:
        check_simplicial_map(NP, fib, levels)
    except Violation:
        return False
    return True
