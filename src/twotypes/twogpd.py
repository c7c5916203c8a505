"""Strict 2-groupoids as finite composition tables, and the one functor
type: a WeakFunctor between strict or weak tables, which is strict when
its coherence cells are identities.

Conventions: 1-cell composition is diagrammatic, comp1[f][g] is "f then g"
and is defined when tgt1[f] == src1[g].  Row f of comp1 is a dict from each
g composable with f to the composite, so "composable" is `g in comp1[f]`;
the builders also take a dense row, -1 where not composable, which is the
file format.  Vertical composition of 2-cells follows the same order;
horizontal composition hcomp2[alpha][beta] pastes alpha (over f: A -> B)
before beta (over h: B -> C).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import getitem
from typing import Optional, Sequence

from .fingroup import (
    FiniteGroup, GroupHom, assoc_witness, make_action, make_group, make_hom,
)
from .search import (  # SizeCapExceeded is re-exported
    DEFAULT_CAP, Budget, Plan, SizeCapExceeded, as_budget, classes, group,
    run, search,
)
from .xmod import (
    CrossedModule, Violation, check_crossed_module, check_pointed,
)


class NotATwoGroup(ValueError):
    pass


class _Cells:
    """What strict and weak 2-groupoid tables share: whiskering, and their
    cells grouped by ends, listed once per 2-groupoid."""

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

    @functools.cached_property
    def between1(self) -> dict:
        """The 1-cells by (source, target), each group ascending."""
        return group(zip(self.src1, self.tgt1))

    @functools.cached_property
    def between2(self) -> dict:
        """The 2-cells by (source, target), each group ascending."""
        return group(zip(self.src2, self.tgt2))

    @functools.cached_property
    def transformation_searches(self) -> dict:
        """The searches out of these cells, by id of their codomain."""
        return {}


@dataclass(frozen=True)
class TwoGroupoid(_Cells):
    n_objects: int
    src1: tuple[int, ...]
    tgt1: tuple[int, ...]
    id1: tuple[int, ...]            # per object
    comp1: tuple[dict[int, int], ...]
    inv1: tuple[int, ...]
    src2: tuple[int, ...]           # into 1-cells
    tgt2: tuple[int, ...]
    id2: tuple[int, ...]            # per 1-cell
    vcomp: tuple[dict[int, int], ...]
    hcomp2: tuple[dict[int, int], ...]
    vinv: tuple[int, ...]
    basepoint: Optional[int] = None

    def __repr__(self) -> str:
        return (f"TwoGroupoid(objects={self.n_objects}, "
                f"one_cells={self.n1}, two_cells={self.n2})")

    @functools.cached_property
    def assoc(self) -> tuple[dict[int, dict[int, int]], ...]:
        """Its weak reading: assoc[a][b][c] is the identity on (ab)c at each
        composable triple, so every reader of weak tables takes these."""
        comp1, id2 = self.comp1, self.id2
        return tuple({b: {c: id2[comp1[ab][c]] for c in comp1[b]}
                      for b, ab in row.items()} for row in comp1)


def _derive_inverses(src, tgt, ident, comp):
    """inv[f]: a g with comp[f][g] = ident[src[f]] and comp[g][f] =
    ident[tgt[f]], the cells g with src[g] = tgt[f] tried first, in
    ascending order, then the other keys of f's row.  That order cannot
    change a result: a g outside the first group that passes is a defined
    entry comp[f][g] at a pair that is not composable, which the audit
    rejects before it reads inv."""
    starts = group(src)
    inv = []
    for f, row in enumerate(comp):
        e, back = ident[src[f]], ident[tgt[f]]
        for g in itertools.chain(starts.get(tgt[f], []), row):
            if row.get(g) == e and comp[g].get(f) == back:
                inv.append(g)
                break
        else:
            raise Violation("invertibility", f)
    return tuple(inv)


def _indices(name, vec, bound, length=None) -> tuple[int, ...]:
    """vec as a tuple of indices in range(bound), of the given length."""
    vec = tuple(vec)
    if length is not None and len(vec) != length:
        raise Violation(f"{name}-length", len(vec))
    for i, v in enumerate(vec):
        if not 0 <= v < bound:
            raise Violation(f"{name}-range", i)
    return vec


def _dict_row(row) -> dict:
    """row as it is when a dict, else a dense row without its -1 entries."""
    return row if isinstance(row, dict) else {
        y: v for y, v in enumerate(row) if v != -1}


def _rows(name, table, n) -> tuple[dict, ...]:
    """table as n dict rows (see _dict_row), every key and value in
    range(n)."""
    rows = tuple(map(_dict_row, table))
    if len(rows) != n:
        raise Violation(f"{name}-length", len(rows))
    for x, row in enumerate(rows):
        if row and not (0 <= min(row) and max(row) < n and
                        0 <= min(row.values()) and max(row.values()) < n):
            raise Violation(f"{name}-range", (x, min(
                y for y, v in row.items() if not (0 <= y < n and 0 <= v < n))))
    return rows


def dense_table(table) -> tuple[tuple[int, ...], ...]:
    """A composition table as n x n rows, -1 where not composable: the
    file format."""
    n = len(table)
    return tuple(tuple(map(row.get, range(n), itertools.repeat(-1)))
                 for row in table)


def _checked(n_objects, src1, tgt1, id1, comp1, src2, tgt2, id2, vcomp,
             hcomp2) -> dict:
    """The fields of a 2-groupoid, each index checked, field by field in
    file order, before anything reads one.  -1 may stand only in a dense
    row, where it marks a pair that does not compose and is dropped."""
    src1, src2 = tuple(src1), tuple(src2)
    n1, n2 = len(src1), len(src2)
    return dict(
        n_objects=n_objects, src1=_indices("src1", src1, n_objects),
        tgt1=_indices("tgt1", tgt1, n_objects, n1),
        id1=_indices("id1", id1, n1, n_objects),
        comp1=_rows("comp1", comp1, n1), src2=_indices("src2", src2, n1),
        tgt2=_indices("tgt2", tgt2, n1, n2),
        id2=_indices("id2", id2, n2, n1), vcomp=_rows("vcomp", vcomp, n2),
        hcomp2=_rows("hcomp2", hcomp2, n2))


def build_two_groupoid(n_objects, src1, tgt1, id1, comp1,
                       src2, tgt2, id2, vcomp, hcomp2,
                       basepoint=None) -> TwoGroupoid:
    """Check every index, derive inverse tables and run the full audit;
    dict rows are kept as given."""
    t = _checked(n_objects, src1, tgt1, id1, comp1, src2, tgt2, id2, vcomp,
                 hcomp2)
    inv1 = _derive_inverses(t["src1"], t["tgt1"], t["id1"], t["comp1"])
    vinv = _derive_inverses(t["src2"], t["tgt2"], t["id2"], t["vcomp"])
    return check_two_groupoid(TwoGroupoid(inv1=inv1, vinv=vinv,
                                          basepoint=basepoint, **t))


def _partners(left_keys, right_keys):
    """For each cell x, the ascending cells y with right_keys[y] equal to
    left_keys[x]: the right partners of x."""
    starts = group(right_keys)
    return [starts.get(k, []) for k in left_keys]


def _check_domain(table, right, name, ends_name, ends_ok):
    """The keys of table[x] are the cells of right[x], and each composite
    passes ends_ok(x, y, table[x][y]).  Raises what one scan of all pairs
    (x, y) in order, testing the domain and then the endpoints of each,
    raises first."""
    n = len(table)
    for x, row in enumerate(table):
        partners, bad = right[x], n
        if row.keys() != set(partners):  # bad: the first y where they differ
            bad = min(row.keys() ^ set(partners))
        for y in partners:
            if y >= bad:
                break
            if not ends_ok(x, y, row[y]):
                raise Violation(ends_name, (x, y))
        if bad < n:
            raise Violation(name, (x, bad))


def _check_assoc(table, right, name):
    """Raise the assoc_witness of table; its domain audit runs first."""
    left = [[] for _ in table]
    for a, bs in enumerate(right):
        for b in bs:
            left[b].append(a)
    bad = assoc_witness(table, right, left)
    if bad is not None:
        raise Violation(name, bad)


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
    """The basepoint, identities, composition domain and endpoints, and
    units of 1-cells; returns right1.  Shared by the strict and the weak
    audit."""
    src1, tgt1, comp1 = g.src1, g.tgt1, g.comp1
    if g.basepoint is not None and not 0 <= g.basepoint < g.n_objects:
        raise Violation("basepoint-range", g.basepoint)
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


def _interchange_on_whiskers(g, below, beside) -> bool:
    """Whether, with o for hcomp2, juxtaposition for vcomp and 1 for
    identity 2-cells, a o c = (a o 1)(1 o c) = (1 o c)(a o 1) for a, c not
    identities, and (ab) o e = (a o e)(b o e), e o (ab) = (e o a)(e o b) for
    a, b not identities and e one.  With the vertical units and
    associativity and hcomp of identities, these are the interchange law on
    every quadruple: (ab) o (cd) = (a o 1)(b o 1)(1 o c)(1 o d) = (a o 1)
    (1 o c)(b o 1)(1 o d) = (a o c)(b o d); each is the law, and is a unit
    law where a cell is an identity."""
    vcomp, hcomp2 = g.vcomp, g.hcomp2
    s1, t1 = [g.id2[f] for f in g.src2], [g.id2[f] for f in g.tgt2]
    ident = [a == e for a, e in enumerate(s1)]
    for a, ha in enumerate(hcomp2):
        if ident[a]:
            if any(ha[vcomp[b][c]] != vcomp[ha[b]][ha[c]] for b in beside[a]
                   if not ident[b] for c in below[b] if not ident[c]):
                return False
            continue
        left, right = hcomp2[t1[a]], hcomp2[s1[a]]
        for c in beside[a]:
            if ident[c]:
                if any(hcomp2[vcomp[a][b]][c] != vcomp[ha[c]][hcomp2[b][c]]
                       for b in below[a] if not ident[b]):
                    return False
            elif not vcomp[ha[s1[c]]][left[c]] == ha[c] == \
                    vcomp[right[c]][ha[t1[c]]]:
                return False
    return True


def _check_interchange(g, right1, below, beside) -> None:
    """Identity 2-cells compose horizontally like their 1-cells, and the
    interchange law holds on every composable quadruple: tested on whiskers
    first, else the full scan raises what it finds first."""
    vcomp, hcomp2, id2 = g.vcomp, g.hcomp2, g.id2
    for f in range(g.n1):
        for h in right1[f]:
            if hcomp2[id2[f]][id2[h]] != id2[g.comp1[f][h]]:
                raise Violation("hcomp-of-identities", (f, h))
    if _interchange_on_whiskers(g, below, beside):
        return
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


def _block_sum(a, b) -> list[dict]:
    """The table of a's cells then b's, b's shifted past a's."""
    na = len(a)
    return list(a) + [{na + y: na + v for y, v in r.items()} for r in b]


def disjoint_union(g: TwoGroupoid, h: TwoGroupoid) -> TwoGroupoid:
    no, n1, n2 = g.n_objects, g.n1, g.n2
    return build_two_groupoid(
        no + h.n_objects,
        g.src1 + tuple(no + x for x in h.src1),
        g.tgt1 + tuple(no + x for x in h.tgt1),
        g.id1 + tuple(n1 + f for f in h.id1),
        _block_sum(g.comp1, h.comp1),
        g.src2 + tuple(n1 + f for f in h.src2),
        g.tgt2 + tuple(n1 + f for f in h.tgt2),
        g.id2 + tuple(n2 + a for a in h.id2),
        _block_sum(g.vcomp, h.vcomp), _block_sum(g.hcomp2, h.hcomp2),
        basepoint=g.basepoint)


# -- conversion to and from crossed modules ----------------------------------

def xmod_to_2group(xm: CrossedModule,
                   cap: int | Budget = DEFAULT_CAP) -> TwoGroupoid:
    """One object; 1-cells the base group; 2-cells its semidirect product with
    the top group, the 2-cell g*|G2|+alpha running g => g phi(alpha); its
    table entries are admitted by the cap first."""
    g1, g2, phi = xm.g1, xm.g2, xm.phi
    n1, n2loc = g1.order, g2.order
    n2 = n1 * n2loc
    entries = n1 * n1 + n2 * n2loc + n2 * n2
    as_budget(cap, "crossed module").admit(
        entries, f"2-group tables of {entries} entries")

    def pack(f, alpha):
        return f * n2loc + alpha

    src2 = tuple(f for f in range(n1) for _ in range(n2loc))
    tgt2 = tuple(g1.mul[f][phi.image[alpha]]
                 for f in range(n1) for alpha in range(n2loc))
    id2 = tuple(pack(f, g2.identity) for f in range(n1))
    vcomp, hcomp = [{} for _ in range(n2)], [{} for _ in range(n2)]
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
    g1 = make_group([[row[h] for h in range(g.n1)] for row in g.comp1])
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
    cells = g.between2.get((e, e), [])
    pos = {a: i for i, a in enumerate(cells)}
    grp = make_group([[pos[g.vcomp[a][b]] for b in cells] for a in cells])
    assert grp.is_abelian()
    return grp


def induced_pi0(F) -> tuple[int, ...]:
    """The map of a strict or weak functor on components: entry i is the
    component of F.cod, as pi0 lists them, of the image of component i of
    F.dom."""
    comp_of = {a: i for i, comp in enumerate(pi0(F.cod)) for a in comp}
    return tuple(comp_of[F.obj_map[comp[0]]] for comp in pi0(F.dom))


def induced_homs(F, obj: int) -> tuple[GroupHom, GroupHom]:
    """The homs pi1 and pi2 of F.dom at obj -> those of F.cod at F(obj)
    that a strict or weak functor induces."""
    D, C, img = F.dom, F.cod, F.obj_map[obj]
    cls = _loop_classes(C, img)[1]
    pi1 = make_hom(pi1_at(D, obj), pi1_at(C, img),
                   [cls[F.map1[r]] for r in _loop_classes(D, obj)[0]])
    ed, ec = D.id1[obj], C.id1[img]
    pos = {a: i for i, a in enumerate(C.between2.get((ec, ec), []))}
    pi2 = make_hom(pi2_at(D, obj), pi2_at(C, img),
                   [pos[F.map2[a]] for a in D.between2.get((ed, ed), [])])
    return pi1, pi2


def fundamental_groupoid(g: TwoGroupoid) -> TwoGroupoid:
    """Collapse 2-cells: 1-cells become their 2-isomorphism classes."""
    reps, cls = _two_cell_classes(g, range(g.n1))
    cells = range(len(reps))
    comp1 = [{} for _ in cells]
    for f, row in enumerate(g.comp1):
        for h, fh in row.items():
            comp1[cls[f]][cls[h]] = cls[fh]
    src1 = tuple(g.src1[r] for r in reps)
    tgt1 = tuple(g.tgt1[r] for r in reps)
    id1 = tuple(cls[g.id1[a]] for a in range(g.n_objects))
    # one identity 2-cell per 1-cell, composed horizontally as its 1-cell
    return build_two_groupoid(g.n_objects, src1, tgt1, id1, comp1,
                              cells, cells, cells, [{f: f} for f in cells],
                              comp1, basepoint=g.basepoint)


# -- functors ----------------------------------------------------------------

@dataclass(frozen=True)
class WeakFunctor:
    """A functor between strict or weak 2-groupoid tables, with coherence
    cells eps[f][h]: F(f)F(h) => F(fh) at each composable pair (f, h) of
    dom, -1 elsewhere.  A strict functor is one whose eps is _identity_eps:
    every coherence cell an identity."""
    dom: _Cells
    cod: _Cells
    obj_map: tuple[int, ...]
    map1: tuple[int, ...]
    map2: tuple[int, ...]
    eps: tuple[tuple[int, ...], ...]


def _identity_eps(dom, cod, map1) -> tuple[tuple[int, ...], ...]:
    """eps[f][h]: the identity 2-cell on map1[f] map1[h] at each composable
    pair (f, h) of dom, -1 elsewhere and where those two do not compose.
    Coherence cells are dense: a functor's domain is small."""
    def cell(f, h):
        fh = cod.comp1[map1[f]].get(map1[h])
        return -1 if fh is None else cod.id2[fh]

    return tuple(tuple(cell(f, h) if h in row else -1 for h in range(dom.n1))
                 for f, row in enumerate(dom.comp1))


def _refuse_weak_functors(*functors: WeakFunctor) -> None:
    """A Violation at the first composable pair whose coherence cell is not
    an identity, in the first such functor: strict constructions have none."""
    for F in functors:
        ids = _identity_eps(F.dom, F.cod, F.map1)
        if F.eps != ids:
            raise Violation("strict-functor", next(
                (f, h) for f, row in enumerate(F.eps)
                for h, e in enumerate(row) if e != ids[f][h]))


def check_weak_functor(dom, cod, obj_map, map1, map2, eps,
                       pointed: bool = False) -> WeakFunctor:
    """Audit a weak functor: strict identities, vertical functoriality,
    naturality of eps, and the associativity coherence hexagon (which
    degenerates to a square when both sides are strict)."""
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
    for a, row in enumerate(dom.vcomp):
        for b, ab in row.items():
            if map2[ab] != cod.vcomp[map2[a]][map2[b]]:
                raise Violation("wf-vcomp", (a, b))
    for f, row in enumerate(dom.comp1):
        for h, e in enumerate(eps[f]):
            if (e >= 0) != (h in row):
                raise Violation("wf-eps-domain", (f, h))
            if e < 0:
                continue
            if cod.src2[e] != cod.comp1[map1[f]][map1[h]] or \
               cod.tgt2[e] != map1[row[h]]:
                raise Violation("wf-eps-endpoints", (f, h))
            if (f in dom.id1 or h in dom.id1) and e != cod.id2[cod.src2[e]]:
                raise Violation("wf-eps-identity", (f, h))
    # naturality: [eps_{f,h}][F(alpha . beta)] = [F(alpha) F(beta)][eps_{f',h'}]
    for a, row in enumerate(dom.hcomp2):
        for b, ab in row.items():
            f, h = dom.src2[a], dom.src2[b]
            fp, hp = dom.tgt2[a], dom.tgt2[b]
            lhs = cod.vcomp[eps[f][h]][map2[ab]]
            rhs = cod.vcomp[cod.hcomp2[map2[a]][map2[b]]][eps[fp][hp]]
            if lhs != rhs:
                raise Violation("wf-naturality", (a, b))
    # coherence hexagon over composable triples
    for a, row in enumerate(dom.comp1):
        for b, ab in row.items():
            for c, bc in dom.comp1[b].items():
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
        check_pointed(dom, cod)
        if obj_map[dom.basepoint] != cod.basepoint:
            raise Violation("basepoint-not-preserved", dom.basepoint)
    return WeakFunctor(dom=dom, cod=cod, obj_map=obj_map, map1=map1,
                       map2=map2, eps=eps)


# the weak-functor audit's names, for its reading of a strict functor
_STRICT_NAMES = {"wf-1cell-endpoints": "functor-1cell-endpoints",
                 "wf-id1": "functor-id1", "wf-eps-endpoints": "functor-comp1",
                 "wf-2cell-endpoints": "functor-2cell-endpoints",
                 "wf-id2": "functor-id2", "wf-vcomp": "functor-vcomp",
                 "wf-naturality": "functor-hcomp"}


def check_2functor(dom, cod, obj_map, map1, map2,
                   pointed: bool = False) -> WeakFunctor:
    """The weak-functor audit with identity coherence cells.  Their
    endpoints are the preservation of comp1, their naturality that of
    hcomp2, and they are coherent once those hold; its violations are named
    functor-* (functor-comp1 and functor-hcomp for those two)."""
    map1 = tuple(map1)
    try:
        return check_weak_functor(dom, cod, obj_map, map1, map2,
                                  _identity_eps(dom, cod, map1), pointed)
    except Violation as exc:
        raise Violation(_STRICT_NAMES.get(exc.axiom, exc.axiom),
                        exc.witness) from None


def identity_functor(g) -> WeakFunctor:
    """The identity of strict or weak tables, audited as a strict functor."""
    return check_2functor(g, g, range(g.n_objects), range(g.n1), range(g.n2))


def compose_2functors(f: WeakFunctor, g: WeakFunctor) -> WeakFunctor:
    """g after f, both strict: a Violation names the first coherence cell
    of f, then of g, that is not an identity."""
    _refuse_weak_functors(f, g)
    return check_2functor(f.dom, g.cod,
                          (g.obj_map[x] for x in f.obj_map),
                          (g.map1[x] for x in f.map1),
                          (g.map2[x] for x in f.map2))


def _functor_tables(dom, cod, pointed: bool, strict: bool, budget: Budget):
    """Yield each functor dom -> cod between strict or weak 2-groupoid
    tables, unaudited, in product order: objects, 1-cells, the coherence
    cells eps[f][h]: F(f)F(h) => F(fh) of the composable pairs (-1
    elsewhere), then 2-cells, each in index order.  When strict, the only
    coherence cell is the identity, and only where F(f)F(h) = F(fh): so eps
    is _identity_eps, fixed by map1, filled without a search and shared by
    the functors with that map1; it is coherent between strict tables, and
    its naturality is the preservation of hcomp2.  Each condition of
    check_2functor and check_weak_functor holds: the ends, identities and
    eps's domain by the domains, and vcomp, naturality, strict comp1 and
    the coherence hexagon by constraints.  The hexagon at (a, b, c) reads
    F(phi) for phi = dom.assoc[a][b][c]: an identity when phi is one, so it
    closes among the coherence cells, and else among the 2-cells, keyed by
    phi."""
    if pointed:
        check_pointed(dom, cod)
    by1, by2 = cod.between1, cod.between2
    pairs = [(f, h) for f, row in enumerate(dom.comp1) for h in sorted(row)]
    free_pairs = [(f, h) for (f, h) in pairs
                  if f not in dom.id1 and h not in dom.id1]
    free1 = [f for f in range(dom.n1) if f not in dom.id1]
    free2 = [a for a in range(dom.n2) if a not in dom.id2]
    map1: dict[int, int] = {}
    eps: dict[tuple[int, int], int] = {}
    map2: dict[int, int] = {}

    def eps_candidates(f, h):
        ends = (cod.comp1[map1[f]][map1[h]], map1[dom.comp1[f][h]])
        if strict:
            return [cod.id2[ends[0]]] if ends[0] == ends[1] else []
        return by2.get(ends, [])

    # every composable pair of 1-cells has a coherence cell to choose
    cons1 = [((f, h, dom.comp1[f][h]),
              lambda f=f, h=h: bool(eps_candidates(f, h))) for f, h in pairs]

    def coherent(a, b, c, phi=None):
        # [eps_ab F(c)][eps_(ab)c][F(phi)] = [assoc][F(a) eps_bc][eps_a(bc)]
        ab, bc, f = dom.comp1[a][b], dom.comp1[b][c], map1[a]
        lhs = cod.vcomp[cod.whisker_right(eps[a, b], map1[c])][eps[ab, c]]
        if phi is not None:
            lhs = cod.vcomp[lhs][map2[phi]]
        rhs = cod.vcomp[cod.vcomp[cod.assoc[f][map1[b]][map1[c]]][
            cod.whisker_left(f, eps[b, c])]][eps[a, bc]]
        return lhs == rhs

    # identity coherence cells are coherent, so strict needs no constraint
    cons_eps, cons_phi, ids2 = [], [], set(dom.id2)
    for a, b in [] if strict else pairs:
        for c, bc in dom.comp1[b].items():
            phi = dom.assoc[a][b][c]
            if phi in ids2:
                keys = ((a, b), (dom.comp1[a][b], c), (b, c), (a, bc))
                cons_eps.append((keys, functools.partial(coherent, a, b, c)))
            else:
                cons_phi.append(((phi,),
                                 functools.partial(coherent, a, b, c, phi)))

    def natural(a, b):
        f0, h0 = dom.src2[a], dom.src2[b]
        f1, h1 = dom.tgt2[a], dom.tgt2[b]
        lhs = cod.vcomp[eps[f0, h0]][map2[dom.hcomp2[a][b]]]
        rhs = cod.vcomp[cod.hcomp2[map2[a]][map2[b]]][eps[f1, h1]]
        return lhs == rhs

    cons2 = [((a, b, ab), lambda a=a, b=b, ab=ab:
               map2[ab] == cod.vcomp[map2[a]][map2[b]])
              for a, row in enumerate(dom.vcomp) for b, ab in row.items()] + [
        ((a, b, ab), lambda a=a, b=b: natural(a, b))
        for a, row in enumerate(dom.hcomp2) for b, ab in row.items()
    ] + cons_phi

    obj_opts = [list(range(cod.n_objects))] * dom.n_objects
    if pointed:
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
            # an identity cell where a 1-cell is one, and every cell when
            # strict: cons1 left each of those its one candidate
            eps.clear()
            for (f, h) in pairs:
                if strict or f in dom.id1 or h in dom.id1:
                    eps[f, h] = cod.id2[cod.comp1[m1[f]][m1[h]]]
            for _ in [()] if strict else search(
                    free_pairs, lambda p: eps_candidates(*p), cons_eps, eps,
                    budget):
                eps_done = tuple(tuple(eps.get((f, h), -1)
                                       for h in range(dom.n1))
                                 for f in range(dom.n1))
                # ---- 2-cell map
                map2.clear()
                for f in range(dom.n1):
                    map2[dom.id2[f]] = cod.id2[m1[f]]
                for _ in search(free2, lambda a: by2.get(
                        (m1[dom.src2[a]], m1[dom.tgt2[a]]), []),
                        cons2, map2, budget):
                    yield WeakFunctor(dom, cod, obj_map, m1, tuple(
                        map2[a] for a in range(dom.n2)), eps_done)


def enumerate_2functors(dom: TwoGroupoid, cod: TwoGroupoid,
                        pointed: bool = False,
                        cap: int | Budget = DEFAULT_CAP) -> list[WeakFunctor]:
    """All strict functors, in product order: by object map, then 1-cell
    map, then 2-cell map.  They are the weak functors with identity
    coherence cells, found by the same search, which guarantees what
    check_2functor checks (see _functor_tables), so none is audited."""
    return list(_functor_tables(dom, cod, pointed, True,
                                as_budget(cap, "functor search")))


def fiber_product_2gpd(F: WeakFunctor, G: WeakFunctor):
    """Strict pullback of a cospan X -> Z <- Y of strict functors, with the
    two projection functors (see _pullback), built unaudited: they are by
    construction.  A Violation names the first coherence cell of F, then
    of G, that is not an identity."""
    _refuse_weak_functors(F, G)
    P, levels = _pullback(F, G)

    def projection(k, Z):
        maps = [tuple(p[k] for p in cells) for cells in levels]
        return WeakFunctor(P, Z, *maps, _identity_eps(P, Z, maps[1]))

    return P, projection(0, F.dom), projection(1, G.dom)


def _pullback(F: WeakFunctor, G: WeakFunctor):
    """The strict pullback of F and G, and the pairs of cells that are its
    objects, 1-cells and 2-cells: at each level the pairs with equal
    images, in lexicographic order.  A pair composes with the pairs whose
    sides its own sides compose with, so each row is read off the defined
    entries of its two sides' rows."""
    X, Y = F.dom, G.dom

    def cells(n, fx, gy):
        # the pairs, and index[a][b] the position of the pair (a, b)
        over, index = group(gy), [{} for _ in range(n)]
        pairs = [(a, b) for a in range(n) for b in over.get(fx[a], ())]
        for i, (a, b) in enumerate(pairs):
            index[a][b] = i
        return pairs, index

    objs, opos = cells(X.n_objects, F.obj_map, G.obj_map)
    ones, pos1 = cells(X.n1, F.map1, G.map1)
    twos, pos2 = cells(X.n2, F.map2, G.map2)

    def mapped(pos, sx, sy, pairs):
        return [pos[sx[a]][sy[b]] for a, b in pairs]

    def table(tx, ty, pairs, pos):
        return [{ra[b2]: rc[bc] for a2, ac in tx[a].items()
                 for ra, rc in ((pos[a2], pos[ac]),)
                 for b2, bc in ty[b].items() if b2 in ra} for a, b in pairs]

    P = build_two_groupoid(
        len(objs), mapped(opos, X.src1, Y.src1, ones),
        mapped(opos, X.tgt1, Y.tgt1, ones), mapped(pos1, X.id1, Y.id1, objs),
        table(X.comp1, Y.comp1, ones, pos1),
        mapped(pos1, X.src2, Y.src2, twos), mapped(pos1, X.tgt2, Y.tgt2, twos),
        mapped(pos2, X.id2, Y.id2, ones),
        table(X.vcomp, Y.vcomp, twos, pos2),
        table(X.hcomp2, Y.hcomp2, twos, pos2),
        basepoint=None if X.basepoint is None
        else opos[X.basepoint].get(Y.basepoint))
    return P, (objs, ones, twos)


def product_2gpd(g: TwoGroupoid, h: TwoGroupoid) -> TwoGroupoid:
    """The pullback over the point: cell (x, y) has index x * |h| + y at
    each level.  Its projections are not built."""
    pt = point_2gpd()
    return _pullback(*(check_2functor(
        x, pt, [0] * x.n_objects, [0] * x.n1, [0] * x.n2) for x in (g, h)))[0]


def is_fibration_2gpd(F: WeakFunctor) -> bool:
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


def is_equivalence_2functor(F: WeakFunctor) -> bool:
    """Bijective on connected components, and on pi1 and pi2 at an object
    of each."""
    comps = induced_pi0(F)
    if len(set(comps)) != len(comps) or len(comps) != len(pi0(F.cod)):
        return False
    return all(hom.is_bijective() for comp in pi0(F.dom)
               for hom in induced_homs(F, comp[0]))


# -- hom 2-groupoids ---------------------------------------------------------

def vseq(g, *cells: int) -> int:
    """Vertical composite of a chain of 2-cells, left to right."""
    out = cells[0]
    for c in cells[1:]:
        out = g.vcomp[out].get(c)
        if out is None:
            raise Violation("vseq-not-composable", cells)
    return out


def _refuse_weak_codomain(cod) -> None:
    """Raise a Violation unless cod is a strict TwoGroupoid: transformations
    and the hom compose in their codomain with no associators."""
    if not isinstance(cod, TwoGroupoid):
        raise Violation("strict-codomain", type(cod).__name__)


def _transformation_search(dom, cod) -> "_TransformationSearch":
    """The search of dom into cod, kept on dom by id(cod) with cod itself;
    a Violation when cod is not strict."""
    _refuse_weak_codomain(cod)
    hit = dom.transformation_searches.get(id(cod))
    if hit is None or hit.cod is not cod:
        hit = _TransformationSearch(dom, cod)
        dom.transformation_searches[id(cod)] = hit
    return hit


class _TransformationSearch:
    """The conditions on transformations P => Q of functors dom -> cod,
    made once for all P, Q (read from `functors`), with t[A] at key A and
    theta[c] at n_objects + c: naturality per 2-cell and coherence per
    composable pair of 1-cells.  `every` lists them, for is_2transformation;
    `plan` leaves out those that the search's domains make true, so it has
    the same solutions, order and nodes: naturality on an identity 2-cell
    (both sides are theta_c), and coherence on a pair with an identity
    1-cell (its filler and coherence cells are identities)."""

    def __init__(self, dom, cod):
        no, vcomp, hcomp, id2 = dom.n_objects, cod.vcomp, cod.hcomp2, cod.id2
        self.cod, self.ids = cod, set(dom.id1)
        assign, pq = self.assign, self.functors = {}, []

        def natural(A, B, c, cp, gamma):
            # [P(gamma) t_B][theta_c'] = [theta_c][t_A Q(gamma)]
            P, Q = pq
            return vcomp[hcomp[P.map2[gamma]][id2[assign[B]]]][assign[cp]] == \
                vcomp[assign[c]][hcomp[id2[assign[A]]][Q.map2[gamma]]]

        def coherent(A, C, ka, kb, kab, a, b):
            # [eps^P t_C][theta_ab] = [P(a) theta_b][theta_a Q(b)][t_A eps^Q]
            P, Q = pq
            return vcomp[hcomp[P.eps[a][b]][id2[assign[C]]]][assign[kab]] == \
                vseq(cod, hcomp[id2[P.map1[a]]][assign[kb]],
                     hcomp[assign[ka]][id2[Q.map1[b]]],
                     hcomp[id2[assign[A]]][Q.eps[a][b]])

        ids, ids2, cons = self.ids, set(dom.id2), []
        for gamma, (c, cp) in enumerate(zip(dom.src2, dom.tgt2)):
            keys = (dom.src1[c], dom.tgt1[c], no + c, no + cp)
            cons.append((keys, functools.partial(natural, *keys, gamma),
                         gamma in ids2))
        for a, row in enumerate(dom.comp1):
            for b, ab in row.items():
                keys = (dom.src1[a], dom.tgt1[b], no + a, no + b, no + ab)
                cons.append((keys, functools.partial(coherent, *keys, a, b),
                             a in ids or b in ids))
        self.every = [pred for _, pred, _ in cons]
        self.plan = Plan(range(no + dom.n1),
                         [(keys, pred) for keys, pred, true in cons if not true])

    def load(self, P, Q) -> "_TransformationSearch":
        self.functors[:] = P, Q
        return self


def enumerate_2transformations(P, Q, pointed: bool = False,
                               strict: bool = False,
                               cap: int | Budget = DEFAULT_CAP) -> list[tuple]:
    """The transformations P => Q between strict or weak functors into a
    strict 2-groupoid, as (t, theta) pairs in lexicographic order: t[A] a
    1-cell P(A) -> Q(A) per object A, then theta[c] a 2-cell P(c) t_B =>
    t_A Q(c) per 1-cell c: A -> B, natural in 2-cells and coherent with
    composition.  An identity c gets the identity filler, and when strict
    every c does, so the square must commute.  When pointed, t at the
    basepoint is the identity.  All functors dom -> cod share one plan; a
    weak cod raises a Violation before the search."""
    return list(_transformations(P, Q, pointed, strict,
                                 as_budget(cap, "transformation search")))


def _transformations(P, Q, pointed: bool, strict: bool, budget: Budget):
    """The search of `enumerate_2transformations`, yielding each (t, theta)
    as it is found, so that a caller may stop at the first (`_first`)."""
    dom, cod = P.dom, P.cod
    no = dom.n_objects
    if pointed:
        check_pointed(dom, cod)
    found = _transformation_search(dom, cod).load(P, Q)
    assign, ids = found.assign, found.ids

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
    for _ in run(found.plan, domain, assign, budget):
        yield (tuple(assign[A] for A in range(no)),
               tuple(assign[v] for v in range(no, n)))


def _first(found):
    """The first item of the search generator found, or None; the search is
    closed either way, so that its variables leave their assign."""
    try:
        return next(found, None)
    finally:
        found.close()


def is_2transformation(P, Q, t, theta) -> bool:
    """Whether (t, theta) meets every condition of the transformation
    search, those its plan leaves out included, in order (not the ends of
    its cells; with wrong ends a composite is undefined, and the answer is
    False)."""
    found = _transformation_search(P.dom, P.cod).load(P, Q)
    found.assign.update(enumerate(tuple(t) + tuple(theta)))
    try:
        return all(pred() for pred in found.every)
    except (KeyError, Violation):
        return False
    finally:
        found.assign.clear()


def enumerate_2modifications(P, Q, x, y, pointed: bool = False,
                             cap: int | Budget = DEFAULT_CAP) -> list[tuple]:
    """The modifications between transformations x = (t, theta) and y =
    (s, sigma) from P to Q, in lexicographic order: families of 2-cells
    mu_A: t_A => s_A with [theta_c][mu_A Q(c)] = [P(c) mu_B][sigma_c] for
    every 1-cell c: A -> B.  When pointed, mu at the basepoint is the
    identity."""
    return list(_modifications(P, Q, x, y, pointed,
                               as_budget(cap, "modification search")))


def _modifications(P, Q, x, y, pointed: bool, budget: Budget):
    """The search of `enumerate_2modifications`, yielding each mu as it is
    found."""
    (t, theta), (s, sigma) = x, y
    dom, cod = P.dom, P.cod
    vcomp, hcomp, id2 = cod.vcomp, cod.hcomp2, cod.id2
    if pointed:
        check_pointed(dom, cod)
    mu: dict[int, int] = {}

    def domain(A):
        cands = cod.between2.get((t[A], s[A]), [])
        if pointed and A == dom.basepoint:
            return [a for a in cands if a == cod.id2[t[A]]]
        return cands

    def square(A, B, theta_c, q_c, p_c, sigma_c):
        # [theta_c][mu_A Q(c)] = [P(c) mu_B][sigma_c]
        return vcomp[theta_c][hcomp[mu[A]][q_c]] == \
            vcomp[p_c[mu[B]]][sigma_c]

    cons = [((A, B), functools.partial(
        square, A, B, theta[c], id2[Q.map1[c]], hcomp[id2[P.map1[c]]],
        sigma[c])) for c, (A, B) in enumerate(zip(dom.src1, dom.tgt1))]
    no = dom.n_objects
    for _ in search(range(no), domain, cons, mu, budget):
        yield tuple(mu[A] for A in range(no))


def representatives(n: int, link) -> list[tuple[int, object]]:
    """Each i in range(n) as (r, link(r, i)): r the least member of its
    class and the witness that links it, or (i, None) when i starts a class.

    i is tested only against the least member of each class found so far,
    in ascending order, and joins the first r for which link(r, i) is not
    None.  That is exact when "link(r, i) is not None" is an equivalence;
    else `search.classes`, which closes the relation over every pair, is
    the one to use."""
    reps, out = [], []
    for i in range(n):
        for r in reps:
            found = link(r, i)
            if found is not None:
                out.append((r, found))
                break
        else:
            reps.append(i)
            out.append((i, None))
    return out


def _components(functors, pointed: bool, strict: bool, budget: Budget):
    """`representatives` of the functors into one strict 2-groupoid under
    "a transformation exists", each with the first transformation from its
    representative; exact, as every transformation is invertible there."""
    return representatives(len(functors), lambda r, i: _first(
        _transformations(functors[r], functors[i], pointed, strict, budget)))


def _identity_transformation(P) -> tuple:
    C = P.cod
    return (tuple(C.id1[A] for A in P.obj_map),
            tuple(C.id2[c] for c in P.map1))


def _then(D, C, x, y) -> tuple:
    """x then y, for transformations x = (t, theta): P => Q and y = (s,
    sigma): Q => R of functors D -> C: (t s, [theta s][t sigma])."""
    (t, theta), (s, sigma) = x, y
    hcomp, id2 = C.hcomp2, C.id2
    return (tuple(C.comp1[f][g] for f, g in zip(t, s)),
            tuple(C.vcomp[hcomp[a][id2[s[B]]]][hcomp[id2[t[A]]][b]]
                  for a, b, A, B in zip(theta, sigma, D.src1, D.tgt1)))


def _hom_sets(functors, pointed: bool, strict: bool, budget: Budget) -> dict:
    """Trans(P, Q) of the functors into one strict 2-groupoid, keyed by
    their indices (i, j), for the pairs in one component; no key, no
    transformation.  Each list is in the order of
    `enumerate_2transformations(P, Q)`.

    `_components` sorts the functors into components.  Then, per functor
    P with representative R, one search stops at the first transformation
    P => R, and one lists Aut(P).  Composing with any rho: P => Q is a
    bijection Aut(Q) -> Trans(P, Q), so Trans(P, Q) is rho then each of
    Aut(Q), with rho through R.  Sorted, it is in the search's order: the
    search reads each domain from `between1` and `between2`, whose lists
    are ascending, so it lists in lexicographic order.  No pair of
    functors is searched but those `_components` tests."""
    if not functors:
        return {}
    D, C = functors[0].dom, functors[0].cod
    found = _components(functors, pointed, strict, budget)
    forth, back, aut = [], [], []
    for i, (r, x) in enumerate(found):
        ident = _identity_transformation(functors[i])
        forth.append(ident if x is None else x)
        back.append(ident if r == i else _first(_transformations(
            functors[i], functors[r], pointed, strict, budget)))
        aut.append(enumerate_2transformations(functors[i], functors[i],
                                              pointed, strict, budget))
    table = {}
    for members in group(r for r, _ in found).values():
        for i in members:
            for j in members:
                rho = _then(D, C, back[i], forth[j])
                table[(i, j)] = sorted(_then(D, C, rho, s) for s in aut[j])
    return table


def _assemble_hom(D: TwoGroupoid, C: TwoGroupoid, lister, cap: int | Budget,
                  pointed: bool = False, strict: bool = False):
    """The hom 2-groupoid of the functors that lister lists.

    Every search runs under one budget, its stage suffixed by the cells
    listed.  A 1-cell is (i, j, t, theta), theta None when strict.  The
    1-cells are the lists of `_hom_sets`, in order of (i, j).  The 2-cells
    are listed the same way: Aut(1_P) once per functor P, Aut(y) for y =
    (s, sigma) out of P as its whiskering nu_A s_A, and Mod(x, y) as mu0
    then each of Aut(y), sorted, with mu0 the first modification x => y
    (the identity when x = y), so a pair of parallel 1-cells takes at most
    one search, stopped at its first find.  Each
    composite is formed only from cells that compose: 1-cells grouped by
    source functor, 2-cells by source 1-cell and by its source functor.
    Once every cell is listed, and before any row is built, the defined
    entries are counted from those groups and admitted by the budget, at
    no step.  Each row is made once, as a dict."""
    budget = as_budget(cap, "hom")
    stage = budget.stage
    budget.stage = f"{stage} functors"
    functors = lister(D, C, pointed=pointed, cap=budget)
    objs = range(D.n_objects)
    weak = not strict
    one_cells = []           # (dom functor idx, cod functor idx, t, theta)
    fillers = []             # theta of each, identities when strict
    budget.stage = f"{stage} transformations"
    hom_sets = _hom_sets(functors, pointed, strict, budget)
    for i, j in sorted(hom_sets):
        for t, theta in hom_sets[(i, j)]:
            one_cells.append((i, j, t, theta if weak else None))
            fillers.append(theta)
    src1 = tuple(c[0] for c in one_cells)
    tgt1 = tuple(c[1] for c in one_cells)
    # 2-cells: modifications
    between = group(zip(src1, tgt1))
    two_cells = []
    budget.stage = f"{stage} modifications"
    idents = [_identity_transformation(P) for P in functors]
    auts = [enumerate_2modifications(P, P, e, e, pointed, budget)
            for P, e in zip(functors, idents)]
    for x, (i, j, t, _) in enumerate(one_cells):
        for y in between[(i, j)]:
            s = one_cells[y][2]
            mu0 = tuple(C.id2[f] for f in t) if x == y else _first(
                _modifications(functors[i], functors[j], (t, fillers[x]),
                               (s, fillers[y]), pointed, budget))
            if mu0 is None:
                continue
            rows = [C.vcomp[m] for m in mu0]
            two_cells.extend((x, y, mu) for mu in sorted(
                tuple(map(getitem, rows, map(
                    C.whisker_right, nu, s))) for nu in auts[i]))
    src2 = tuple(m[0] for m in two_cells)
    tgt2 = tuple(m[1] for m in two_cells)
    out_of, from_cell = group(src1), group(src2)
    from_functor = group(src1[x] for x in src2)
    entries = (sum(len(out_of[j]) for j in tgt1) +
               sum(len(from_cell[y]) for y in tgt2) +
               sum(len(from_functor[tgt1[x]]) for x in src2))
    budget.stage = stage
    budget.admit(entries, f"tables of {entries} entries")
    # a 1-cell by its flat key (i, j, *t, *theta)
    cell_pos = {(c[0], c[1], *c[2], *(c[3] or ())): k
                for k, c in enumerate(one_cells)}
    id1 = [cell_pos[(i, i, *t, *(theta if weak else ()))]
           for i, (t, theta) in enumerate(idents)]
    # x then y for all y out of j = tgt1[x] at once, down columns of s_y[A],
    # id2[s_y[B]], sigma_y[c] (c: A -> B): t_x s_y, [theta_x s_y][t_x sigma_y]
    after = {}
    for j, ys in out_of.items():
        cells = [one_cells[y] for y in ys]
        after[j] = (ys, [c[1] for c in cells],
                    [[c[2][A] for c in cells] for A in objs],
                    [([C.id2[c[2][B]] for c in cells], [c[3][k] for c in cells])
                     for k, B in enumerate(D.tgt1)] if weak else [])
    comp1 = []
    for x, (i, j, t, theta) in enumerate(one_cells):
        ys, ks, s_cols, w_cols = after[j]
        cols = [map(C.comp1[f].__getitem__, col) for f, col in zip(t, s_cols)]
        cols += [[C.vcomp[right[a]][left[b]] for a, b in zip(*ab)]
                 for right, left, ab in zip(
                     [C.hcomp2[a] for a in theta or ()],
                     [C.hcomp2[C.id2[t[A]]] for A in D.src1], w_cols)]
        comp1.append(dict(zip(ys, map(cell_pos.__getitem__, zip(
            itertools.repeat(i), ks, *cols)))))
    mod_pos = {m: k for k, m in enumerate(two_cells)}
    id2 = []
    for x, (i, j, t, theta) in enumerate(one_cells):
        mu = tuple(C.id2[t[A]] for A in objs)
        id2.append(mod_pos[(x, x, mu)])
    vcomp, hcomp = [], []
    for x, y, mu in two_cells:
        vrow, hrow = {}, {}
        vrows, hrows = [C.vcomp[m] for m in mu], [C.hcomp2[m] for m in mu]
        for q in from_cell[y]:
            _, z, nu = two_cells[q]
            vrow[q] = mod_pos[(x, z, tuple(map(getitem, vrows, nu)))]
        for q in from_functor[tgt1[x]]:
            u, v, nu = two_cells[q]
            hrow[q] = mod_pos[(comp1[x][u], comp1[y][v],
                               tuple(map(getitem, hrows, nu)))]
        vcomp.append(vrow)
        hcomp.append(hrow)
    bp = None
    if D.basepoint is not None and C.basepoint is not None:
        based = [i for i, P in enumerate(functors)
                 if P.obj_map[D.basepoint] == C.basepoint]
        bp = based[0] if based else None
    gpd = build_two_groupoid(len(functors), src1, tgt1, tuple(id1), comp1,
                             src2, tgt2, tuple(id2), vcomp, hcomp,
                             basepoint=bp)
    return gpd, functors, one_cells, two_cells


def hom_strict_data(D: TwoGroupoid, C: TwoGroupoid,
                    cap: int | Budget = DEFAULT_CAP):
    """hom 2-groupoid plus the underlying functor/transformation/modification
    lists, indexed in cell order."""
    return _assemble_hom(D, C, enumerate_2functors, cap, strict=True)


def hom_strict(D: TwoGroupoid, C: TwoGroupoid,
               cap: int | Budget = DEFAULT_CAP) -> TwoGroupoid:
    """Functors, strict transformations, and modifications."""
    return hom_strict_data(D, C, cap=cap)[0]


def hom_weak_trans(D: TwoGroupoid, C: TwoGroupoid,
                   cap: int | Budget = DEFAULT_CAP) -> TwoGroupoid:
    """Functors, weak transformations, and modifications."""
    return _assemble_hom(D, C, enumerate_2functors, cap)[0]


# -- exponential law ---------------------------------------------------------

def two_groupoid_isomorphic(g: TwoGroupoid, h: TwoGroupoid,
                            cap: int | Budget = DEFAULT_CAP):
    """The first invertible strict functor g -> h, in the order of
    `enumerate_2functors`, found without listing the rest; or None."""
    if (g.n_objects, g.n1, g.n2) != (h.n_objects, h.n1, h.n2):
        return None
    for F in _functor_tables(g, h, False, True,
                             as_budget(cap, "isomorphism search")):
        if len(set(F.obj_map)) == g.n_objects and \
           len(set(F.map1)) == g.n1 and len(set(F.map2)) == g.n2:
            return F
    return None


def check_exponential_law(E: TwoGroupoid, D: TwoGroupoid, C: TwoGroupoid,
                          cap: int | Budget = DEFAULT_CAP) -> bool:
    """Currying is an isomorphism hom(E x D, C) ~ hom(E, hom(D, C)).

    The currying map is built cell by cell: a functor on the product
    restricts, per object of E, to a functor D -> C, and the restrictions of
    its cells in the E direction give transformations and modifications
    between those restrictions.  The resulting assignment is checked to be a
    strict functor and bijective at every level.
    """
    budget = as_budget(cap, "exponential law")
    ed = product_2gpd(E, D)
    lhs, lhs_fun, lhs_one, lhs_two = hom_strict_data(ed, C, cap=budget)
    hom_dc, dc_fun, dc_one, dc_two = hom_strict_data(D, C, cap=budget)
    rhs, rhs_fun, rhs_one, rhs_two = hom_strict_data(E, hom_dc, cap=budget)

    dc_fun_pos = {(F.obj_map, F.map1, F.map2): i for i, F in enumerate(dc_fun)}
    dc_one_pos = {c: i for i, c in enumerate(dc_one)}
    dc_two_pos = {m: i for i, m in enumerate(dc_two)}
    rhs_fun_pos = {(F.obj_map, F.map1, F.map2): i for i, F in enumerate(rhs_fun)}
    rhs_one_pos = {c: i for i, c in enumerate(rhs_one)}
    rhs_two_pos = {m: i for i, m in enumerate(rhs_two)}

    def restrict(F: WeakFunctor, e: int) -> int:
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
