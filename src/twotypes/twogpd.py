"""Strict 2-groupoids as finite composition tables.

Conventions: 1-cell composition is diagrammatic, comp1[f][g] is "f then g"
and is defined when tgt1[f] == src1[g].  A -1 entry means "not composable".
Vertical composition of 2-cells follows the same order; horizontal
composition hcomp2[alpha][beta] pastes alpha (over f: A -> B) before beta
(over h: B -> C).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .fingroup import FiniteGroup, make_action, make_group, make_hom
from .search import Budget, classes, search
from .search import SizeCapExceeded  # noqa: F401  (re-exported)
from .xmod import CrossedModule, Violation, check_crossed_module


class NotATwoGroup(ValueError):
    pass


@dataclass(frozen=True)
class TwoGroupoid:
    n_objects: int
    src1: tuple[int, ...]
    tgt1: tuple[int, ...]
    id1: tuple[int, ...]            # per object
    comp1: tuple[tuple[int, ...], ...]
    inv1: tuple[int, ...]
    src2: tuple[int, ...]           # into 1-cells
    tgt2: tuple[int, ...]
    id2: tuple[int, ...]            # per 1-cell
    vcomp: tuple[tuple[int, ...], ...]
    hcomp2: tuple[tuple[int, ...], ...]
    vinv: tuple[int, ...]
    basepoint: Optional[int] = None

    @property
    def n1(self) -> int:
        return len(self.src1)

    @property
    def n2(self) -> int:
        return len(self.src2)

    def whisker_left(self, f: int, beta: int) -> int:
        """f * beta for a 1-cell f composing into the source of beta's cells."""
        return self.hcomp2[self.id2[f]][beta]

    def whisker_right(self, alpha: int, h: int) -> int:
        return self.hcomp2[alpha][self.id2[h]]

    def __repr__(self) -> str:
        return (f"TwoGroupoid(objects={self.n_objects}, "
                f"one_cells={self.n1}, two_cells={self.n2})")


def _group(keys) -> dict:
    """Indices grouped by their key, each group ascending."""
    out: dict = {}
    for x, k in enumerate(keys):
        out.setdefault(k, []).append(x)
    return out


def _derive_inverses(src, tgt, ident, comp):
    """inv[f]: the least g with comp[f][g] = ident[src[f]] and comp[g][f] =
    ident[tgt[f]].  While e = ident[src[f]] >= 0, the cells g with src[g]
    = tgt[f] are tried first, then all cells.  That order cannot change a
    result: a g outside the first group that passes is a defined entry
    comp[f][g] at a pair that is not composable, which the audit rejects
    before it reads inv."""
    starts = _group(src)
    inv = []
    for f in range(len(src)):
        row, e = comp[f], ident[src[f]]
        first = starts.get(tgt[f], []) if e >= 0 else []
        for g in itertools.chain(first, range(len(src))):
            if row[g] == e and comp[g][f] == ident[tgt[f]]:
                inv.append(g)
                break
        else:
            raise Violation("invertibility", f)
    return tuple(inv)


def build_two_groupoid(n_objects, src1, tgt1, id1, comp1,
                       src2, tgt2, id2, vcomp, hcomp2,
                       basepoint=None) -> TwoGroupoid:
    """Derive inverse tables and run the full axiom audit."""
    src1, tgt1, id1 = tuple(src1), tuple(tgt1), tuple(id1)
    comp1 = tuple(tuple(r) for r in comp1)
    src2, tgt2, id2 = tuple(src2), tuple(tgt2), tuple(id2)
    vcomp = tuple(tuple(r) for r in vcomp)
    hcomp2 = tuple(tuple(r) for r in hcomp2)
    inv1 = _derive_inverses(src1, tgt1, id1, comp1)
    vinv = _derive_inverses(src2, tgt2, id2, vcomp)
    g = TwoGroupoid(n_objects=n_objects, src1=src1, tgt1=tgt1, id1=id1,
                    comp1=comp1, inv1=inv1, src2=src2, tgt2=tgt2, id2=id2,
                    vcomp=vcomp, hcomp2=hcomp2, vinv=vinv, basepoint=basepoint)
    return check_two_groupoid(g)


def _partners(left_keys, right_keys):
    """For each cell x, the ascending cells y with right_keys[y] equal to
    left_keys[x]: the right partners of x."""
    starts = _group(right_keys)
    return [starts.get(k, []) for k in left_keys]


def _check_domain(table, right, name, ends_name, ends_ok):
    """table[x][y] is defined (>= 0) exactly for y in right[x], and each
    composite passes ends_ok(x, y, table[x][y]).  Raises what one scan of
    all pairs (x, y) in order, testing the domain and then the endpoints of
    each, raises first."""
    for x, row in enumerate(table):
        partners = right[x]
        defined = [y for y, v in enumerate(row) if v >= 0]
        # the first y where "defined" and "composable" differ, if any
        bad = (min(set(defined).symmetric_difference(partners))
               if defined != partners else len(row))
        for y in partners:
            if y >= bad:
                break
            if not ends_ok(x, y, row[y]):
                raise Violation(ends_name, (x, y))
        if bad < len(row):
            raise Violation(name, (x, bad))


def _check_assoc(table, right, name):
    """(ab)c = a(bc) for every a, b in right[a], c in right[b]."""
    for a, row_a in enumerate(table):
        for b in right[a]:
            row_ab, row_b = table[row_a[b]], table[b]
            for c in right[b]:
                if row_ab[c] != row_a[row_b[c]]:
                    raise Violation(name, (a, b, c))


def check_two_groupoid(g: TwoGroupoid) -> TwoGroupoid:
    """Exhaustive audit: strict category axioms at both levels, interchange,
    and invertibility of every cell.

    Each composition is indexed by source: right1[f] lists the 1-cells h
    with src1[h] = tgt1[f], below[a] the 2-cells b with src2[b] = tgt2[a],
    and beside[a] the 2-cells c whose 1-cells start where those of a end.
    The domain checks of a composition run before anything else reads it,
    and pass only when each row is defined at exactly these partners.  So
    afterwards the loops over partner lists visit every composable pair,
    triple and quadruple, in the order of a scan over all index tuples,
    and the first violation is the one that scan finds."""
    right1 = _check_1cells(g)
    _check_assoc(g.comp1, right1, "comp1-assoc")
    for f in range(g.n1):
        i = g.inv1[f]
        if g.comp1[f][i] != g.id1[g.src1[f]] or \
           g.comp1[i][f] != g.id1[g.tgt1[f]]:
            raise Violation("inv1", f)
    below = _check_vertical(g)
    beside = _check_horizontal(g)
    _check_assoc(g.hcomp2, beside, "hcomp-assoc")
    _check_interchange(g, right1, below, beside)
    return g


def _check_1cells(g) -> list[list[int]]:
    """Identities, composition domain and endpoints, and units of 1-cells;
    returns right1.  Shared by the strict and the weak audit."""
    src1, tgt1, comp1 = g.src1, g.tgt1, g.comp1
    for a, f in enumerate(g.id1):
        if src1[f] != a or tgt1[f] != a:
            raise Violation("id1-endpoints", a)
    right1 = _partners(tgt1, src1)
    _check_domain(comp1, right1, "comp1-domain", "comp1-endpoints",
                  lambda f, h, fh: src1[fh] == src1[f] and
                  tgt1[fh] == tgt1[h])
    for f in range(g.n1):
        if comp1[g.id1[src1[f]]][f] != f or comp1[f][g.id1[tgt1[f]]] != f:
            raise Violation("comp1-unit", f)
    return right1


def _check_vertical(g) -> list[list[int]]:
    """The category of 2-cells under vertical composition, every 2-cell
    invertible; returns below."""
    src1, tgt1 = g.src1, g.tgt1
    src2, tgt2, vcomp = g.src2, g.tgt2, g.vcomp
    for f, a in enumerate(g.id2):
        if src2[a] != f or tgt2[a] != f:
            raise Violation("id2-endpoints", f)
    for a in range(g.n2):
        if src1[src2[a]] != src1[tgt2[a]] or tgt1[src2[a]] != tgt1[tgt2[a]]:
            raise Violation("2cell-not-parallel", a)
    below = _partners(tgt2, src2)
    _check_domain(vcomp, below, "vcomp-domain", "vcomp-endpoints",
                  lambda a, b, ab: src2[ab] == src2[a] and
                  tgt2[ab] == tgt2[b])
    for a in range(g.n2):
        if vcomp[g.id2[src2[a]]][a] != a or vcomp[a][g.id2[tgt2[a]]] != a:
            raise Violation("vcomp-unit", a)
    _check_assoc(vcomp, below, "vcomp-assoc")
    for a in range(g.n2):
        i = g.vinv[a]
        if vcomp[a][i] != g.id2[src2[a]] or vcomp[i][a] != g.id2[tgt2[a]]:
            raise Violation("vinv", a)
    return below


def _check_horizontal(g) -> list[list[int]]:
    """Horizontal composition domain, endpoints and units; returns beside.
    Runs after _check_vertical, whose parallelism check has already read
    src1 and tgt1 at every src2 entry."""
    src1, tgt1, comp1 = g.src1, g.tgt1, g.comp1
    src2, tgt2, hcomp2 = g.src2, g.tgt2, g.hcomp2
    beside = _partners([tgt1[f] for f in src2], [src1[f] for f in src2])
    _check_domain(hcomp2, beside, "hcomp-domain", "hcomp-endpoints",
                  lambda a, b, ab: src2[ab] == comp1[src2[a]][src2[b]] and
                  tgt2[ab] == comp1[tgt2[a]][tgt2[b]])
    for a in range(g.n2):
        left = g.id2[g.id1[src1[src2[a]]]]
        right = g.id2[g.id1[tgt1[src2[a]]]]
        if hcomp2[left][a] != a or hcomp2[a][right] != a:
            raise Violation("hcomp-unit", a)
    return beside


def _check_interchange(g, right1, below, beside) -> None:
    """Identity 2-cells compose horizontally like their 1-cells, and the
    interchange law holds on every composable quadruple."""
    vcomp, hcomp2, id2 = g.vcomp, g.hcomp2, g.id2
    for f in range(g.n1):
        for h in right1[f]:
            if hcomp2[id2[f]][id2[h]] != id2[g.comp1[f][h]]:
                raise Violation("hcomp-of-identities", (f, h))
    for a in range(g.n2):
        vrow_a, hrow_a = vcomp[a], hcomp2[a]
        for b in below[a]:
            hrow_ab, hrow_b = hcomp2[vrow_a[b]], hcomp2[b]
            for c in beside[a]:
                vrow_c, vrow_ac = vcomp[c], vcomp[hrow_a[c]]
                for d in below[c]:
                    if hrow_ab[vrow_c[d]] != vrow_ac[hrow_b[d]]:
                        raise Violation("interchange", (a, b, c, d))


def point_2gpd() -> TwoGroupoid:
    return build_two_groupoid(1, [0], [0], [0], [[0]],
                              [0], [0], [0], [[0]], [[0]], basepoint=0)


def disjoint_union(g: TwoGroupoid, h: TwoGroupoid) -> TwoGroupoid:
    no, n1, n2 = g.n_objects, g.n1, g.n2
    comp1 = [[-1] * (n1 + h.n1) for _ in range(n1 + h.n1)]
    vcomp = [[-1] * (n2 + h.n2) for _ in range(n2 + h.n2)]
    hcomp = [[-1] * (n2 + h.n2) for _ in range(n2 + h.n2)]
    for f in range(n1):
        for k in range(n1):
            comp1[f][k] = g.comp1[f][k]
    for f in range(h.n1):
        for k in range(h.n1):
            v = h.comp1[f][k]
            comp1[n1 + f][n1 + k] = -1 if v < 0 else n1 + v
    for a in range(n2):
        for b in range(n2):
            vcomp[a][b] = g.vcomp[a][b]
            hcomp[a][b] = g.hcomp2[a][b]
    for a in range(h.n2):
        for b in range(h.n2):
            v, w = h.vcomp[a][b], h.hcomp2[a][b]
            vcomp[n2 + a][n2 + b] = -1 if v < 0 else n2 + v
            hcomp[n2 + a][n2 + b] = -1 if w < 0 else n2 + w
    return build_two_groupoid(
        no + h.n_objects,
        g.src1 + tuple(no + x for x in h.src1),
        g.tgt1 + tuple(no + x for x in h.tgt1),
        g.id1 + tuple(n1 + f for f in h.id1),
        comp1,
        g.src2 + tuple(n1 + f for f in h.src2),
        g.tgt2 + tuple(n1 + f for f in h.tgt2),
        g.id2 + tuple(n2 + a for a in h.id2),
        vcomp, hcomp,
        basepoint=g.basepoint)


def product_2gpd(g: TwoGroupoid, h: TwoGroupoid) -> TwoGroupoid:
    """Componentwise product; cell (x, y) has index x * |h| + y at each level."""
    def pair_tables(n_g, n_h, sg, sh):
        return tuple(sg[i] * n_h + sh[j]
                     for i in range(len(sg)) for j in range(len(sh)))

    def comp_table(tg, th, width_h):
        ng, nh = len(tg), len(th)
        out = []
        for i in range(ng):
            for j in range(nh):
                row = []
                for k in range(ng):
                    for m in range(nh):
                        a, b = tg[i][k], th[j][m]
                        row.append(-1 if a < 0 or b < 0 else a * width_h + b)
                out.append(row)
        return out

    src1 = pair_tables(g.n_objects, h.n_objects, g.src1, h.src1)
    tgt1 = pair_tables(g.n_objects, h.n_objects, g.tgt1, h.tgt1)
    id1 = tuple(g.id1[a] * h.n1 + h.id1[b]
                for a in range(g.n_objects) for b in range(h.n_objects))
    src2 = pair_tables(g.n1, h.n1, g.src2, h.src2)
    tgt2 = pair_tables(g.n1, h.n1, g.tgt2, h.tgt2)
    id2 = tuple(g.id2[f] * h.n2 + h.id2[k]
                for f in range(g.n1) for k in range(h.n1))
    bp = None
    if g.basepoint is not None and h.basepoint is not None:
        bp = g.basepoint * h.n_objects + h.basepoint
    return build_two_groupoid(
        g.n_objects * h.n_objects, src1, tgt1, id1,
        comp_table(g.comp1, h.comp1, h.n1),
        src2, tgt2, id2,
        comp_table(g.vcomp, h.vcomp, h.n2),
        comp_table(g.hcomp2, h.hcomp2, h.n2),
        basepoint=bp)


# -- conversion to and from crossed modules ----------------------------------

def xmod_to_2group(xm: CrossedModule) -> TwoGroupoid:
    """One object; 1-cells the base group; 2-cells its semidirect product with
    the top group, the 2-cell g*|G2|+alpha running g => g phi(alpha)."""
    g1, g2, phi = xm.g1, xm.g2, xm.phi
    n1, n2loc = g1.order, g2.order
    n2 = n1 * n2loc

    def pack(f, alpha):
        return f * n2loc + alpha

    src2 = tuple(f for f in range(n1) for _ in range(n2loc))
    tgt2 = tuple(g1.mul[f][phi.image[alpha]]
                 for f in range(n1) for alpha in range(n2loc))
    id2 = tuple(pack(f, g2.identity) for f in range(n1))
    vcomp = [[-1] * n2 for _ in range(n2)]
    hcomp = [[0] * n2 for _ in range(n2)]
    for f in range(n1):
        for alpha in range(n2loc):
            a = pack(f, alpha)
            for beta in range(n2loc):
                # (f, alpha): f => f phi(alpha), then (f phi(alpha), beta)
                vcomp[a][pack(tgt2[a], beta)] = pack(f, g2.mul[alpha][beta])
            for h in range(n1):
                for beta in range(n2loc):
                    hcomp[a][pack(h, beta)] = pack(
                        g1.mul[f][h], g2.mul[xm.act(alpha, h)][beta])
    return build_two_groupoid(
        1, (0,) * n1, (0,) * n1, (g1.identity,), g1.mul,
        src2, tgt2, id2, vcomp, hcomp, basepoint=0)


def two_group_to_xmod(g: TwoGroupoid) -> CrossedModule:
    """Base group the 1-cells, top group the 2-cells out of the identity
    1-cell under horizontal composition, boundary the target map, action by
    horizontal conjugation with identity 2-cells."""
    if g.n_objects != 1:
        raise NotATwoGroup(f"expected one object, found {g.n_objects}")
    e1 = g.id1[0]
    g1 = make_group(g.comp1)
    if g1.identity != e1:
        raise NotATwoGroup("identity 1-cell is not the unit")
    tops = [a for a in range(g.n2) if g.src2[a] == e1]
    pos = {a: i for i, a in enumerate(tops)}
    g2 = make_group([[pos[g.hcomp2[a][b]] for b in tops] for a in tops])
    phi = make_hom(g2, g1, (g.tgt2[a] for a in tops))
    act = make_action(g1, g2, [
        [pos[g.hcomp2[g.hcomp2[g.id2[g.inv1[f]]][a]][g.id2[f]]]
         for f in range(g.n1)]
        for a in tops])
    return check_crossed_module(g2, g1, phi, act)


# -- homotopy invariants -----------------------------------------------------

def pi0(g: TwoGroupoid) -> list[list[int]]:
    """Connected components as sorted lists of object indices."""
    edges = {(min(a, b), max(a, b)) for a, b in zip(g.src1, g.tgt1)}
    return classes(g.n_objects, lambda a, b: (a, b) in edges)


def _loop_classes(g: TwoGroupoid, obj: int):
    """2-isomorphism classes of loops at obj, as (reps, class_of)."""
    return _two_cell_classes(g, [f for f in range(g.n1)
                                 if g.src1[f] == obj and g.tgt1[f] == obj])


def _two_cell_classes(g: TwoGroupoid, cells: Sequence[int]):
    """2-isomorphism classes of 1-cells, as (reps, class_of): reps[k] is
    the least cell of class k, and class_of maps each cell to its class
    index.  Every 2-cell out of a listed cell must end at a listed cell."""
    pos = {f: i for i, f in enumerate(cells)}
    edges = {(min(pos[f], pos[h]), max(pos[f], pos[h]))
             for f, h in zip(g.src2, g.tgt2) if f in pos}
    cls = classes(len(cells), lambda i, j: (i, j) in edges)
    return ([cells[c[0]] for c in cls],
            {cells[i]: k for k, c in enumerate(cls) for i in c})


def pi1_at(g: TwoGroupoid, obj: int) -> FiniteGroup:
    reps, class_of = _loop_classes(g, obj)
    return make_group([[class_of[g.comp1[a][b]] for b in reps] for a in reps])


def pi2_at(g: TwoGroupoid, obj: int) -> FiniteGroup:
    e = g.id1[obj]
    cells = [a for a in range(g.n2) if g.src2[a] == e and g.tgt2[a] == e]
    pos = {a: i for i, a in enumerate(cells)}
    grp = make_group([[pos[g.vcomp[a][b]] for b in cells] for a in cells])
    assert grp.is_abelian()
    return grp


def fundamental_groupoid(g: TwoGroupoid) -> TwoGroupoid:
    """Collapse 2-cells: 1-cells become their 2-isomorphism classes."""
    reps, cls = _two_cell_classes(g, range(g.n1))
    n1 = len(reps)
    comp1 = [[-1] * n1 for _ in range(n1)]
    for f in range(g.n1):
        for h in range(g.n1):
            if g.comp1[f][h] >= 0:
                comp1[cls[f]][cls[h]] = cls[g.comp1[f][h]]
    src1 = tuple(g.src1[r] for r in reps)
    tgt1 = tuple(g.tgt1[r] for r in reps)
    id1 = tuple(cls[g.id1[a]] for a in range(g.n_objects))
    ident2 = list(range(n1))
    vcomp = [[-1] * n1 for _ in range(n1)]
    hcomp = [[-1] * n1 for _ in range(n1)]
    for f in range(n1):
        vcomp[f][f] = f
        for h in range(n1):
            if comp1[f][h] >= 0:
                hcomp[f][h] = comp1[f][h]
    return build_two_groupoid(g.n_objects, src1, tgt1, id1, comp1,
                              tuple(range(n1)), tuple(range(n1)),
                              tuple(ident2), vcomp, hcomp,
                              basepoint=g.basepoint)


# -- functors ----------------------------------------------------------------

@dataclass(frozen=True)
class TwoFunctor:
    dom: TwoGroupoid
    cod: TwoGroupoid
    obj_map: tuple[int, ...]
    map1: tuple[int, ...]
    map2: tuple[int, ...]


def check_2functor(dom: TwoGroupoid, cod: TwoGroupoid,
                   obj_map, map1, map2, pointed: bool = False) -> TwoFunctor:
    obj_map, map1, map2 = tuple(obj_map), tuple(map1), tuple(map2)
    for f in range(dom.n1):
        if cod.src1[map1[f]] != obj_map[dom.src1[f]] or \
           cod.tgt1[map1[f]] != obj_map[dom.tgt1[f]]:
            raise Violation("functor-1cell-endpoints", f)
    for a in range(dom.n_objects):
        if map1[dom.id1[a]] != cod.id1[obj_map[a]]:
            raise Violation("functor-id1", a)
    for f in range(dom.n1):
        for h in range(dom.n1):
            if dom.comp1[f][h] >= 0 and \
               map1[dom.comp1[f][h]] != cod.comp1[map1[f]][map1[h]]:
                raise Violation("functor-comp1", (f, h))
    for a in range(dom.n2):
        if cod.src2[map2[a]] != map1[dom.src2[a]] or \
           cod.tgt2[map2[a]] != map1[dom.tgt2[a]]:
            raise Violation("functor-2cell-endpoints", a)
    for f in range(dom.n1):
        if map2[dom.id2[f]] != cod.id2[map1[f]]:
            raise Violation("functor-id2", f)
    for a in range(dom.n2):
        for b in range(dom.n2):
            if dom.vcomp[a][b] >= 0 and \
               map2[dom.vcomp[a][b]] != cod.vcomp[map2[a]][map2[b]]:
                raise Violation("functor-vcomp", (a, b))
            if dom.hcomp2[a][b] >= 0 and \
               map2[dom.hcomp2[a][b]] != cod.hcomp2[map2[a]][map2[b]]:
                raise Violation("functor-hcomp", (a, b))
    if pointed:
        if dom.basepoint is None or cod.basepoint is None:
            raise Violation("pointed-without-basepoint", None)
        if obj_map[dom.basepoint] != cod.basepoint:
            raise Violation("basepoint-not-preserved", dom.basepoint)
    return TwoFunctor(dom=dom, cod=cod, obj_map=obj_map, map1=map1, map2=map2)


def identity_functor(g: TwoGroupoid) -> TwoFunctor:
    return check_2functor(g, g, range(g.n_objects), range(g.n1), range(g.n2))


def compose_2functors(f: TwoFunctor, g: TwoFunctor) -> TwoFunctor:
    """g after f."""
    return check_2functor(f.dom, g.cod,
                          (g.obj_map[x] for x in f.obj_map),
                          (g.map1[x] for x in f.map1),
                          (g.map2[x] for x in f.map2))


def _preserves(pairs, dtab, ctab, m):
    """One search constraint per composable pair (a, b) of pairs: the map
    m sends the composite dtab[a][b] to ctab[m[a]][m[b]]."""
    return [((a, b, c), lambda a=a, b=b, c=c: m[c] == ctab[m[a]][m[b]])
            for a, b in pairs if (c := dtab[a][b]) >= 0]


def enumerate_2functors(dom: TwoGroupoid, cod: TwoGroupoid,
                        pointed: bool = False,
                        cap: int = 10 ** 6) -> list[TwoFunctor]:
    """All strict functors, by exhaustive backtracking in canonical order."""
    out = []
    obj_opts = [range(cod.n_objects)] * dom.n_objects
    if pointed:
        obj_opts = list(obj_opts)
        obj_opts[dom.basepoint] = [cod.basepoint]
    budget = Budget(cap, "functor search")

    by_src_tgt1: dict[tuple[int, int], list[int]] = {}
    for f in range(cod.n1):
        by_src_tgt1.setdefault((cod.src1[f], cod.tgt1[f]), []).append(f)
    by_src_tgt2: dict[tuple[int, int], list[int]] = {}
    for a in range(cod.n2):
        by_src_tgt2.setdefault((cod.src2[a], cod.tgt2[a]), []).append(a)

    pairs1 = list(itertools.product(range(dom.n1), repeat=2))
    pairs2 = list(itertools.product(range(dom.n2), repeat=2))
    map1: dict[int, int] = {}
    map2: dict[int, int] = {}
    cons1 = _preserves(pairs1, dom.comp1, cod.comp1, map1)
    cons2 = (_preserves(pairs2, dom.vcomp, cod.vcomp, map2)
             + _preserves(pairs2, dom.hcomp2, cod.hcomp2, map2))
    for obj_map in itertools.product(*obj_opts):
        cand1 = [by_src_tgt1.get((obj_map[dom.src1[f]], obj_map[dom.tgt1[f]]), [])
                 for f in range(dom.n1)]
        forced1 = {dom.id1[a]: cod.id1[obj_map[a]] for a in range(dom.n_objects)}
        # forced cells first, then by number of candidates
        order1 = sorted(range(dom.n1), key=lambda f: 0 if f in forced1
                        else len(cand1[f]))
        for _ in search(order1, lambda f: [forced1[f]] if f in forced1
                        else cand1[f], cons1, map1, budget):
            m1 = tuple(map1[f] for f in range(dom.n1))
            cand2 = [by_src_tgt2.get((m1[dom.src2[a]], m1[dom.tgt2[a]]), [])
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


def is_fibration_2gpd(F: TwoFunctor) -> bool:
    """Arrow lifting along the target object and 2-cell lifting along the
    target 1-cell, both checked exhaustively."""
    dom, cod = F.dom, F.cod
    for a in range(cod.n1):
        a1 = cod.tgt1[a]
        for b1 in range(dom.n_objects):
            if F.obj_map[b1] != a1:
                continue
            if not any(F.map1[b] == a and dom.tgt1[b] == b1
                       for b in range(dom.n1)):
                return False
    for alpha in range(cod.n2):
        a1 = cod.tgt2[alpha]
        for b1 in range(dom.n1):
            if F.map1[b1] != a1:
                continue
            if not any(F.map2[beta] == alpha and dom.tgt2[beta] == b1
                       for beta in range(dom.n2)):
                return False
    return True


def is_equivalence_2functor(F: TwoFunctor) -> bool:
    """Bijective on connected components and on every pi1, pi2."""
    dom, cod = F.dom, F.cod
    dom_comps = pi0(dom)
    cod_comps = pi0(cod)
    cod_comp_of = {}
    for i, comp in enumerate(cod_comps):
        for x in comp:
            cod_comp_of[x] = i
    hit = {cod_comp_of[F.obj_map[comp[0]]] for comp in dom_comps}
    if len(hit) != len(dom_comps) or len(hit) != len(cod_comps):
        return False
    for comp in dom_comps:
        obj = comp[0]
        img = F.obj_map[obj]
        # induced map on loop classes
        reps, class_of = _loop_classes(dom, obj)
        creps, cclass_of = _loop_classes(cod, img)
        seen = {cclass_of[F.map1[r]] for r in reps}
        if len(seen) != len(reps) or len(seen) != len(creps):
            return False
        if pi2_at(dom, obj).order != pi2_at(cod, img).order:
            return False
        e, ce = dom.id1[obj], cod.id1[img]
        cells = [a for a in range(dom.n2)
                 if dom.src2[a] == e and dom.tgt2[a] == e]
        imgs = {F.map2[a] for a in cells}
        if len(imgs) != len(cells):
            return False
    return True


# -- hom 2-groupoids ---------------------------------------------------------

def _pillow_holds(P: TwoFunctor, Q: TwoFunctor, t: Sequence[int]) -> bool:
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


def enumerate_strict_2transformations(P: TwoFunctor, Q: TwoFunctor):
    """Strict transformations P => Q: 1-cell families making every naturality
    square commute on the nose."""
    dom, cod = P.dom, P.cod
    opts = []
    for A in range(dom.n_objects):
        opts.append([f for f in range(cod.n1)
                     if cod.src1[f] == P.obj_map[A] and cod.tgt1[f] == Q.obj_map[A]])
    out = []
    for t in itertools.product(*opts):
        if _pillow_holds(P, Q, t):
            out.append(t)
    return out


def enumerate_weak_2transformations(P: TwoFunctor, Q: TwoFunctor):
    """Weak transformations P => Q: pairs (t, theta) where theta_c fills the
    naturality square of each 1-cell c, identity cells get identity fillers,
    fillers are natural in 2-cells, and fillers compose along composition."""
    dom, cod = P.dom, P.cod
    t_opts = []
    for A in range(dom.n_objects):
        t_opts.append([f for f in range(cod.n1)
                       if cod.src1[f] == P.obj_map[A] and cod.tgt1[f] == Q.obj_map[A]])
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
            if _weak_trans_ok(P, Q, t, theta):
                out.append((t, theta))
    return out


def _weak_trans_ok(P: TwoFunctor, Q: TwoFunctor, t, theta) -> bool:
    dom, cod = P.dom, P.cod
    # naturality: [P(gamma) t][theta_{c'}] = [theta_c][t Q(gamma)]
    for gamma in range(dom.n2):
        c, cp = dom.src2[gamma], dom.tgt2[gamma]
        A, B = dom.src1[c], dom.tgt1[c]
        lhs = cod.vcomp[cod.whisker_right(P.map2[gamma], t[B])][theta[cp]]
        rhs = cod.vcomp[theta[c]][cod.whisker_left(t[A], Q.map2[gamma])]
        if lhs != rhs:
            return False
    # composition coherence: theta_{ab} = [P(a) theta_b][theta_a Q(b)]
    for a in range(dom.n1):
        for b in range(dom.n1):
            ab = dom.comp1[a][b]
            if ab < 0:
                continue
            paste = cod.vcomp[cod.whisker_left(P.map1[a], theta[b])][
                cod.whisker_right(theta[a], Q.map1[b])]
            if theta[ab] != paste:
                return False
    return True


def _modification_ok(P: TwoFunctor, Q: TwoFunctor, t, theta, s, sigma, mu) -> bool:
    dom, cod = P.dom, P.cod
    for c in range(dom.n1):
        A, B = dom.src1[c], dom.tgt1[c]
        lhs = cod.vcomp[theta[c]][cod.whisker_right(mu[A], Q.map1[c])]
        rhs = cod.vcomp[cod.whisker_left(P.map1[c], mu[B])][sigma[c]]
        if lhs != rhs:
            return False
    return True


def enumerate_modifications(P: TwoFunctor, Q: TwoFunctor,
                            t, theta, s, sigma):
    """Modifications (t, theta) => (s, sigma): families mu_A: t_A => s_A
    compatible with the square fillers."""
    dom, cod = P.dom, P.cod
    opts = []
    for A in range(dom.n_objects):
        opts.append([a for a in range(cod.n2)
                     if cod.src2[a] == t[A] and cod.tgt2[a] == s[A]])
    return [mu for mu in itertools.product(*opts)
            if _modification_ok(P, Q, t, theta, s, sigma, mu)]


def _strict_modifications(P: TwoFunctor, Q: TwoFunctor, t, theta, s, sigma):
    """Modifications between strict transformations t and s, whose square
    fillers are identities (theta and sigma are None)."""
    dom, cod = P.dom, P.cod

    def fillers(u):
        return tuple(cod.id2[cod.comp1[P.map1[c]][u[dom.tgt1[c]]]]
                     for c in range(dom.n1))
    return enumerate_modifications(P, Q, t, fillers(t), s, fillers(s))


def _assemble_hom(D: TwoGroupoid, C: TwoGroupoid, functors, trans_lister,
                  mod_lister, weak: bool):
    """Build the 2-groupoid of functors, transformations, modifications.

    trans_lister(P, Q) lists the transformations P => Q, as (t, theta)
    pairs when weak and as families t otherwise; mod_lister(P, Q, t,
    theta, s, sigma) lists the modifications between two of them.  Each
    composite is formed only from cells that compose: 1-cells grouped by
    source functor, 2-cells by source 1-cell and by the source functor of
    that 1-cell."""
    objs = range(D.n_objects)
    one_cells = []           # (dom functor idx, cod functor idx, t, theta)
    for i, P in enumerate(functors):
        for j, Q in enumerate(functors):
            for cell in trans_lister(P, Q):
                t, theta = cell if weak else (cell, None)
                one_cells.append((i, j, t, theta))
    cell_pos = {c: k for k, c in enumerate(one_cells)}
    n1 = len(one_cells)
    src1 = tuple(c[0] for c in one_cells)
    tgt1 = tuple(c[1] for c in one_cells)
    out_of = _group(src1)
    id1 = []
    for i, P in enumerate(functors):
        t = tuple(C.id1[P.obj_map[A]] for A in objs)
        theta = tuple(C.id2[P.map1[c]] for c in range(D.n1)) if weak else None
        id1.append(cell_pos[(i, i, t, theta)])
    comp1 = [[-1] * n1 for _ in range(n1)]
    for x, (i, j, t, theta) in enumerate(one_cells):
        for y in out_of[j]:
            _, k, s, sigma = one_cells[y]
            st = tuple(C.comp1[t[A]][s[A]] for A in objs)
            comp_theta = tuple(
                C.vcomp[C.whisker_right(theta[c], s[D.tgt1[c]])][
                    C.whisker_left(t[D.src1[c]], sigma[c])]
                for c in range(D.n1)) if weak else None
            comp1[x][y] = cell_pos[(i, k, st, comp_theta)]
    # 2-cells: modifications
    between = _group(zip(src1, tgt1))
    two_cells = []
    for x, (i, j, t, theta) in enumerate(one_cells):
        for y in between[(i, j)]:
            s, sigma = one_cells[y][2:]
            for mu in mod_lister(functors[i], functors[j], t, theta, s, sigma):
                two_cells.append((x, y, mu))
    mod_pos = {m: k for k, m in enumerate(two_cells)}
    n2 = len(two_cells)
    src2 = tuple(m[0] for m in two_cells)
    tgt2 = tuple(m[1] for m in two_cells)
    from_cell = _group(src2)
    from_functor = _group(src1[x] for x in src2)
    id2 = []
    for x, (i, j, t, theta) in enumerate(one_cells):
        mu = tuple(C.id2[t[A]] for A in objs)
        id2.append(mod_pos[(x, x, mu)])
    vcomp = [[-1] * n2 for _ in range(n2)]
    hcomp = [[-1] * n2 for _ in range(n2)]
    for p, (x, y, mu) in enumerate(two_cells):
        for q in from_cell[y]:
            _, z, nu = two_cells[q]
            comp = tuple(C.vcomp[mu[A]][nu[A]] for A in objs)
            vcomp[p][q] = mod_pos[(x, z, comp)]
        for q in from_functor[tgt1[x]]:
            u, v, nu = two_cells[q]
            comp = tuple(C.hcomp2[mu[A]][nu[A]] for A in objs)
            hcomp[p][q] = mod_pos[(comp1[x][u], comp1[y][v], comp)]
    bp = None
    if D.basepoint is not None and C.basepoint is not None:
        pointed = [i for i, P in enumerate(functors)
                   if P.obj_map[D.basepoint] == C.basepoint]
        bp = pointed[0] if pointed else None
    gpd = build_two_groupoid(len(functors), src1, tgt1, tuple(id1), comp1,
                             src2, tgt2, tuple(id2), vcomp, hcomp,
                             basepoint=bp)
    return gpd, functors, one_cells, two_cells


def hom_strict_data(D: TwoGroupoid, C: TwoGroupoid, cap: int = 10 ** 6):
    """hom 2-groupoid plus the underlying functor/transformation/modification
    lists, indexed in cell order."""
    functors = enumerate_2functors(D, C, cap=cap)
    return _assemble_hom(D, C, functors, enumerate_strict_2transformations,
                         _strict_modifications, weak=False)


def hom_strict(D: TwoGroupoid, C: TwoGroupoid,
               cap: int = 10 ** 6) -> TwoGroupoid:
    """Functors, strict transformations, and modifications."""
    return hom_strict_data(D, C, cap=cap)[0]


def hom_weak_trans_data(D: TwoGroupoid, C: TwoGroupoid, cap: int = 10 ** 6):
    functors = enumerate_2functors(D, C, cap=cap)
    return _assemble_hom(D, C, functors, enumerate_weak_2transformations,
                         enumerate_modifications, weak=True)


def hom_weak_trans(D: TwoGroupoid, C: TwoGroupoid,
                   cap: int = 10 ** 6) -> TwoGroupoid:
    """Functors, weak transformations, and modifications."""
    return hom_weak_trans_data(D, C, cap=cap)[0]


# -- exponential law ---------------------------------------------------------

def two_groupoid_isomorphic(g: TwoGroupoid, h: TwoGroupoid,
                            cap: int = 10 ** 6):
    """An invertible strict functor g -> h, or None."""
    if (g.n_objects, g.n1, g.n2) != (h.n_objects, h.n1, h.n2):
        return None
    for F in enumerate_2functors(g, h, cap=cap):
        if len(set(F.obj_map)) == g.n_objects and \
           len(set(F.map1)) == g.n1 and len(set(F.map2)) == g.n2:
            return F
    return None


def check_exponential_law(E: TwoGroupoid, D: TwoGroupoid, C: TwoGroupoid,
                          cap: int = 10 ** 6) -> bool:
    """Currying is an isomorphism hom(E x D, C) ~ hom(E, hom(D, C)).

    The currying map is built cell by cell: a functor on the product
    restricts, per object of E, to a functor D -> C, and the restrictions of
    its cells in the E direction give transformations and modifications
    between those restrictions.  The resulting assignment is checked to be a
    strict functor and bijective at every level.
    """
    ed = product_2gpd(E, D)
    lhs, lhs_fun, lhs_one, lhs_two = hom_strict_data(ed, C, cap=cap)
    hom_dc, dc_fun, dc_one, dc_two = hom_strict_data(D, C, cap=cap)
    rhs, rhs_fun, rhs_one, rhs_two = hom_strict_data(E, hom_dc, cap=cap)

    dc_fun_pos = {(F.obj_map, F.map1, F.map2): i for i, F in enumerate(dc_fun)}
    dc_one_pos = {c: i for i, c in enumerate(dc_one)}
    dc_two_pos = {m: i for i, m in enumerate(dc_two)}
    rhs_fun_pos = {(F.obj_map, F.map1, F.map2): i for i, F in enumerate(rhs_fun)}
    rhs_one_pos = {c: i for i, c in enumerate(rhs_one)}
    rhs_two_pos = {m: i for i, m in enumerate(rhs_two)}

    def restrict(F: TwoFunctor, e: int) -> int:
        """Index in dc_fun of the restriction F(e, -)."""
        obj_map = tuple(F.obj_map[e * D.n_objects + A]
                        for A in range(D.n_objects))
        map1 = tuple(F.map1[E.id1[e] * D.n1 + f] for f in range(D.n1))
        map2 = tuple(F.map2[E.id2[E.id1[e]] * D.n2 + a] for a in range(D.n2))
        return dc_fun_pos[(obj_map, map1, map2)]

    def curry_obj(i: int) -> int:
        F = lhs_fun[i]
        obj_map = tuple(restrict(F, e) for e in range(E.n_objects))
        map1 = []
        for a in range(E.n1):
            e0, e1 = E.src1[a], E.tgt1[a]
            t = tuple(F.map1[a * D.n1 + D.id1[A]] for A in range(D.n_objects))
            map1.append(dc_one_pos[(obj_map[e0], obj_map[e1], t, None)])
        map2 = []
        for alpha in range(E.n2):
            x = map1[E.src2[alpha]]
            y = map1[E.tgt2[alpha]]
            mu = tuple(F.map2[alpha * D.n2 + D.id2[D.id1[A]]]
                       for A in range(D.n_objects))
            map2.append(dc_two_pos[(x, y, mu)])
        return rhs_fun_pos[(obj_map, tuple(map1), tuple(map2))]

    try:
        obj_map = [curry_obj(i) for i in range(len(lhs_fun))]
        map1 = []
        one_families = []
        for (i, j, t, _theta) in lhs_one:
            family = []
            for e in range(E.n_objects):
                te = tuple(t[e * D.n_objects + A] for A in range(D.n_objects))
                family.append(dc_one_pos[
                    (restrict(lhs_fun[i], e), restrict(lhs_fun[j], e), te, None)])
            one_families.append(tuple(family))
            map1.append(rhs_one_pos[(obj_map[i], obj_map[j], tuple(family), None)])
        map2 = []
        for (x, y, mu) in lhs_two:
            family = []
            for e in range(E.n_objects):
                mue = tuple(mu[e * D.n_objects + A] for A in range(D.n_objects))
                family.append(dc_two_pos[
                    (one_families[x][e], one_families[y][e], mue)])
            map2.append(rhs_two_pos[(map1[x], map1[y], tuple(family))])
        iso = check_2functor(lhs, rhs, obj_map, map1, map2)
    except (KeyError, Violation):
        return False
    return (len(set(iso.obj_map)) == lhs.n_objects == rhs.n_objects
            and len(set(iso.map1)) == lhs.n1 == rhs.n1
            and len(set(iso.map2)) == lhs.n2 == rhs.n2)
