"""Rebuild a weak 2-groupoid from a simplicial set that is Kan,
3-coskeletal, and 2-minimal.

Objects and 1-cells are the 0- and 1-simplices.  A 2-cell f => g is a
2-simplex with d2 = f, d1 = g, and a degenerate identity at d0.  Every
composite is produced by filling inner 3-horns, which 2-minimality makes
unique; a chosen family of filler 2-simplices I_{f,g} fixes the composition
law, and different choices differ by associators.

A `FillerChoice` is the reading of its complex with those fillers: it
holds the identity edges, the 2-cells, and the weak 2-groupoid they
determine, built once, on first use.  The horn tables depend on the
complex alone, so they are built once per complex and kept on it.
`reconstruct`, the pentagon check, the functor transport and the round
trip all read the choice they are given, so they build its weak
2-groupoid once between them; a choice made on another complex is read
again on the one given.  A complex without the levels a reader needs (2
for fillers, 3 for horns, 4 for the pentagon) raises `FillingFailure`
naming the missing level.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Optional

from .search import DEFAULT_CAP, Budget, derived, group
from .simpset import (
    JoinLevel, SimplicialMap, TruncatedSimplicialSet, _positions,
    check_simplicial_map, level_by_boundary,
)
from .weakmaps import (
    WeakFunctor, WeakTwoGroupoid, build_weak_2groupoid, check_weak_functor,
)
from .xmod import FillingFailure, Violation


def _need_level(x: TruncatedSimplicialSet, n: int) -> None:
    if x.trunc < n:
        raise FillingFailure("missing-level", n)


def _identity_edges(x: TruncatedSimplicialSet) -> tuple[int, ...]:
    return tuple(x.degens[0][a][0] for a in range(x.counts[0]))


def choose_fillers(x: TruncatedSimplicialSet,
                   strategy: str = "first") -> FillerChoice:
    """One 2-simplex I_{f,g} per composable edge pair, with d2 = f and
    d0 = g.  Pairs with an identity edge get the forced degenerate filler;
    the rest follow the strategy: "first" (least index) or "seeded:<n>"
    (uniform choice from a seeded generator, pairs in sorted order)."""
    rng = None
    if strategy.startswith("seeded:"):
        rng = random.Random(int(strategy.split(":", 1)[1]))
    elif strategy != "first":
        raise ValueError(f"unknown strategy {strategy!r}")
    _need_level(x, 2)
    ids = set(_identity_edges(x))
    by_pair = group((d2, d0) for d0, _, d2 in x.faces[2])
    pairs = {}
    for f in range(x.counts[1]):
        for g in range(x.counts[1]):
            if x.faces[1][f][0] != x.faces[1][g][1]:  # tgt f != src g
                continue
            if g in ids:
                pairs[(f, g)] = x.degens[1][f][1]
            elif f in ids:
                pairs[(f, g)] = x.degens[1][g][0]
            else:
                cands = by_pair.get((f, g), [])
                if not cands:
                    raise FillingFailure("no-2-simplex-over-pair", (f, g))
                pairs[(f, g)] = cands[0] if rng is None else rng.choice(
                    sorted(cands))
    return FillerChoice(x, strategy, pairs)


def _unique_horn_tables(x: TruncatedSimplicialSet):
    """For each k, the map (faces except d_k) -> 3-simplex; uniqueness is
    the inner-filler lemma granted by 2-minimality."""
    tables = []
    for k in range(4):
        t: dict[tuple, int] = {}
        for z in range(x.counts[3]):
            q = x.faces[3][z]
            key = q[:k] + q[k + 1:]
            if key in t and t[key] != z:
                raise FillingFailure("non-unique-horn-filler", (k, key))
            t[key] = z
        tables.append(t)
    return tables


@dataclass(frozen=True)
class FillerChoice:
    """One filler 2-simplex per composable edge pair of x, and x read with
    them.  pairs maps (f, g) to the 2-simplex I_{f,g}.  The 2-cells are the
    2-simplices whose d0 is an identity edge, ascending, and pos is their
    position.  The horn tables depend on x alone and are kept on it
    (`derived`), built on the first use by any choice on x; the weak
    2-groupoid is built on first use and kept on the choice."""

    x: TruncatedSimplicialSet = field(compare=False, repr=False)
    strategy: str
    pairs: dict

    @functools.cached_property
    def ids(self) -> tuple[int, ...]:
        return _identity_edges(self.x)

    @functools.cached_property
    def cells(self) -> list:
        ids, faces = set(self.ids), self.x.faces[2]
        return [u for u in range(self.x.counts[2]) if faces[u][0] in ids]

    @functools.cached_property
    def pos(self) -> dict:
        return {u: i for i, u in enumerate(self.cells)}

    @functools.cached_property
    def tables(self) -> list:
        return derived(self.x, "horns", lambda: _unique_horn_tables(self.x))

    def fill(self, k: int, *faces: int) -> int:
        """The 3-simplex with these faces, all but d_k."""
        z = self.tables[k].get(faces)
        if z is None:
            raise FillingFailure(f"missing-horn-{k}", faces)
        return z

    def right(self, u: int) -> int:
        """The 2-cell comp1(d2 u, d0 u) => d1 u carried by a 2-simplex."""
        x = self.x
        f, g = x.faces[2][u][2], x.faces[2][u][0]
        return x.faces[3][self.fill(1, x.degens[1][g][1], u,
                                    self.pairs[(f, g)])][1]

    @functools.cached_property
    def gpd(self) -> WeakTwoGroupoid:
        x, I, pos, cells = self.x, self.pairs, self.pos, self.cells
        fill, right = self.fill, self.right
        n1 = x.counts[1]
        src1 = tuple(x.faces[1][f][1] for f in range(n1))
        tgt1 = tuple(x.faces[1][f][0] for f in range(n1))
        comp1 = [{} for _ in range(n1)]
        for (f, g), u in sorted(I.items()):
            comp1[f][g] = x.faces[2][u][1]
        src2 = tuple(x.faces[2][u][2] for u in cells)
        tgt2 = tuple(x.faces[2][u][1] for u in cells)
        id2 = tuple(pos[x.degens[1][f][1]] for f in range(n1))

        vcomp = [{} for _ in cells]
        for i, u in enumerate(cells):
            e = x.faces[2][u][0]           # identity edge at the target object
            for j, v in enumerate(cells):
                if tgt2[i] == src2[j]:
                    z = fill(2, x.degens[1][e][0], v, u)
                    vcomp[i][j] = pos[x.faces[3][z][2]]

        hcomp2 = [{} for _ in cells]
        for i, u in enumerate(cells):
            f, fp = src2[i], tgt2[i]
            for j, v in enumerate(cells):
                h, hp = src2[j], tgt2[j]
                if tgt1[f] != src1[h]:
                    continue
                # u whiskered by h on the right, then fp by v on the left
                z = fill(2, x.degens[1][h][0], I[(fp, h)], u)
                a = right(x.faces[3][z][2])
                b = x.faces[3][fill(1, v, I[(fp, hp)], I[(fp, h)])][1]
                hcomp2[i][j] = vcomp[pos[a]][pos[b]]

        assoc = [{g: {} for g in row} for row in comp1]
        for f, row in enumerate(comp1):
            for g in row:
                for h, gh in comp1[g].items():
                    z = fill(1, I[(g, h)], I[(f, gh)], I[(f, g)])
                    assoc[f][g][h] = pos[right(x.faces[3][z][1])]

        return build_weak_2groupoid(
            x.counts[0], src1, tgt1, self.ids, comp1,
            src2, tgt2, id2, vcomp, hcomp2, assoc, basepoint=x.basepoint)


def _read(x: TruncatedSimplicialSet, fillers: Optional[FillerChoice],
          n: int) -> FillerChoice:
    """fillers read on x, which must hold level n: the choice itself when
    made on x, else its pairs on x; "first" fillers when None."""
    _need_level(x, n)
    if fillers is None:
        return choose_fillers(x)
    if fillers.x is x:
        return fillers
    return FillerChoice(x, fillers.strategy, fillers.pairs)


def reconstruct(x: TruncatedSimplicialSet,
                fillers: Optional[FillerChoice] = None) -> WeakTwoGroupoid:
    """Weak 2-groupoid on the cells of x determined by the filler choice.
    The output is fully audited, including the pentagon (A1) sweep."""
    return _read(x, fillers, 3).gpd


def pentagon_via_4simplex(x: TruncatedSimplicialSet,
                          fillers: Optional[FillerChoice] = None) -> bool:
    """Independent pentagon verification: for every composable edge
    quadruple, assemble the ten triangles of the would-be 4-simplex, check
    that its five tetrahedra exist, and that they bound a 4-simplex."""
    r = _read(x, fillers, 4)
    g, I, pos3 = r.gpd, r.pairs, _positions(x, 3)
    rows = []

    def untilt(f, gg, c):
        """2-simplex over the pair (f, gg) whose interior cell is c."""
        z = r.fill(2, x.degens[1][gg][1], r.cells[c], I[(f, gg)])
        return x.faces[3][z][2]

    for a, row in enumerate(g.comp1):
        for b, ab in row.items():
            for c, bc in g.comp1[b].items():
                for d, cd in g.comp1[c].items():
                    bcd = g.comp1[b][cd]
                    a_bc = g.comp1[a][bc]
                    # ten triangles, indexed by their vertex triples
                    t012 = I[(a, b)]
                    t013 = I[(a, bc)]
                    t014 = I[(a, bcd)]
                    t123 = I[(b, c)]
                    t124 = I[(b, cd)]
                    t234 = I[(c, d)]
                    t023 = untilt(ab, c, g.assoc[a][b][c])
                    t024 = untilt(ab, cd, g.assoc[a][b][cd])
                    t034 = untilt(a_bc, d, g.vcomp[g.assoc[a][bc][d]][
                        g.whisker_left(a, g.assoc[b][c][d])])
                    t134 = untilt(bc, d, g.assoc[b][c][d])
                    tets = (
                        (t234, t134, t124, t123),   # d0: 1234
                        (t234, t034, t024, t023),   # d1: 0234
                        (t134, t034, t014, t013),   # d2: 0134
                        (t124, t024, t014, t012),   # d3: 0124
                        (t123, t023, t013, t012),   # d4: 0123
                    )
                    zs = tuple(map(pos3.get, tets))
                    if None in zs:
                        return False
                    rows.append(zs)
    # every row at once: a JoinLevel tests them by compatibility, unlisted
    level = x.faces[4]
    return level.join.holds(rows) if isinstance(level, JoinLevel) else \
        set(rows) <= set(level)


def reconstruct_functor(m: SimplicialMap, dom_fillers: FillerChoice,
                        cod_fillers: FillerChoice) -> WeakFunctor:
    """The weak functor between reconstructions induced by a simplicial map;
    its coherence cells compare images of chosen fillers with chosen fillers
    of images."""
    rd, rc = _read(m.dom, dom_fillers, 3), _read(m.cod, cod_fillers, 3)
    gd, gc = rd.gpd, rc.gpd
    map2 = [rc.pos[m.levels[2][u]] for u in rd.cells]
    eps = [[-1] * m.dom.counts[1] for _ in range(m.dom.counts[1])]
    for (f, g), u in rd.pairs.items():
        eps[f][g] = rc.pos[rc.right(m.levels[2][u])]
    return check_weak_functor(gd, gc, m.levels[0], m.levels[1], map2, eps)


@dataclass(frozen=True)
class RoundtripReport:
    simplicial: bool
    bijective: tuple[bool, ...]
    counts_match: bool

    @property
    def ok(self) -> bool:
        return self.simplicial and all(self.bijective) and self.counts_match


def roundtrip_report(x: TruncatedSimplicialSet,
                     fillers: Optional[FillerChoice] = None,
                     gpd: Optional[WeakTwoGroupoid] = None,
                     cap: int | Budget = DEFAULT_CAP) -> RoundtripReport:
    """Compare x with the nerve of its reconstruction via the canonical
    cellwise map (identity on vertices and edges, tilt on 2-simplices).
    cap bounds the levels of that nerve, as in `nerve.nerve`.  gpd, when
    given, is the reconstruction; else the choice's is read.  Given gpd,
    the nerve is built before x's horn tables when no reader of x has
    built them yet, which keeps the peak lower."""
    from .nerve import nerve, two_simplex_index

    r = _read(x, fillers, 3)
    gpd = r.gpd if gpd is None else gpd
    n = nerve(gpd, cap=cap)
    pos2n = two_simplex_index(gpd)
    lvl2 = [pos2n[(x.faces[2][u][2], x.faces[2][u][0], r.pos[r.right(u)])]
            for u in range(x.counts[2])]
    levels = [list(range(x.counts[0])), list(range(x.counts[1])), lvl2]
    try:
        levels.append(level_by_boundary(n, 3, lvl2, x.faces[3]))
        check_simplicial_map(x, n, levels)
        simplicial = True
    except Violation:
        simplicial = False
    bij = tuple(sorted(levels[k]) == list(range(n.counts[k]))
                for k in range(4)) if simplicial else (False,) * 4
    counts_match = x.counts[:5] == n.counts[:5]
    return RoundtripReport(simplicial=simplicial, bijective=bij,
                           counts_match=counts_match)
