"""Finite truncated simplicial sets with coskeleta, horn filling, Kan and
minimality analysis, products, map enumeration, and simplicial homotopy.

A TruncatedSimplicialSet stores levels 0..trunc (default 4) as plain index
sets with full face and degeneracy tables.  faces[n][x] is the tuple
(d_0 x, ..., d_n x); degens[n][x] is (s_0 x, ..., s_n x) landing in level
n+1.  Degenerate simplices are stored explicitly.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .search import Budget, SizeCapExceeded, classes, search
from .xmod import Violation


@dataclass(frozen=True)
class TruncatedSimplicialSet:
    trunc: int
    counts: tuple[int, ...]                      # counts[n] = |X_n|
    faces: tuple[tuple[tuple[int, ...], ...], ...]
    degens: tuple[tuple[tuple[int, ...], ...], ...]
    coskeletal_at: Optional[int] = None
    basepoint: Optional[int] = None

    def degenerate_flags(self, n: int) -> tuple[bool, ...]:
        """Which level-n simplices are degenerate."""
        if n == 0:
            return (False,) * self.counts[0]
        hit = [False] * self.counts[n]
        for row in self.degens[n - 1]:
            for v in row:
                hit[v] = True
        return tuple(hit)

    def __repr__(self) -> str:
        return f"TruncatedSimplicialSet(levels={self.counts})"


def check_simplicial_identities(x: TruncatedSimplicialSet) -> TruncatedSimplicialSet:
    """Audit every simplicial identity on every stored simplex."""
    t = x.trunc
    if len(x.counts) != t + 1 or len(x.faces) != t + 1 or len(x.degens) != t:
        raise Violation("level-table-shape", None)
    for n in range(1, t + 1):
        if len(x.faces[n]) != x.counts[n]:
            raise Violation("face-table-size", n)
        for z in range(x.counts[n]):
            row = x.faces[n][z]
            if len(row) != n + 1 or any(not 0 <= v < x.counts[n - 1] for v in row):
                raise Violation("face-row", (n, z))
    for n in range(t):
        if len(x.degens[n]) != x.counts[n]:
            raise Violation("degen-table-size", n)
        for z in range(x.counts[n]):
            row = x.degens[n][z]
            if len(row) != n + 1 or any(not 0 <= v < x.counts[n + 1] for v in row):
                raise Violation("degen-row", (n, z))
    # d_i d_j = d_{j-1} d_i  (i < j)
    for n in range(2, t + 1):
        for z in range(x.counts[n]):
            for j in range(1, n + 1):
                for i in range(j):
                    if x.faces[n - 1][x.faces[n][z][j]][i] != \
                       x.faces[n - 1][x.faces[n][z][i]][j - 1]:
                        raise Violation("dd-identity", (n, z, i, j))
    # s_i s_j = s_{j+1} s_i  (i <= j)
    for n in range(t - 1):
        for z in range(x.counts[n]):
            for j in range(n + 1):
                for i in range(j + 1):
                    if x.degens[n + 1][x.degens[n][z][j]][i] != \
                       x.degens[n + 1][x.degens[n][z][i]][j + 1]:
                        raise Violation("ss-identity", (n, z, i, j))
    # d_i s_j relations
    for n in range(t):
        for z in range(x.counts[n]):
            for j in range(n + 1):
                sz = x.degens[n][z][j]
                for i in range(n + 2):
                    di = x.faces[n + 1][sz][i]
                    if i == j or i == j + 1:
                        if di != z:
                            raise Violation("ds-identity-unit", (n, z, i, j))
                    elif n == 0:
                        pass  # no faces below level 0 beyond the unit cases
                    elif i < j:
                        if di != x.degens[n - 1][x.faces[n][z][i]][j - 1]:
                            raise Violation("ds-identity-low", (n, z, i, j))
                    else:
                        if di != x.degens[n - 1][x.faces[n][z][i - 1]][j]:
                            raise Violation("ds-identity-high", (n, z, i, j))
    return x


def make_sset(trunc, counts, faces, degens, coskeletal_at=None,
              basepoint=None) -> TruncatedSimplicialSet:
    x = TruncatedSimplicialSet(
        trunc=trunc,
        counts=tuple(counts),
        faces=tuple(tuple(tuple(r) for r in lvl) for lvl in faces),
        degens=tuple(tuple(tuple(r) for r in lvl) for lvl in degens),
        coskeletal_at=coskeletal_at, basepoint=basepoint)
    return check_simplicial_identities(x)


# -- standard complexes ------------------------------------------------------

def standard_simplex(n: int, trunc: int = 4) -> TruncatedSimplicialSet:
    """Delta^n truncated: level m holds the weakly increasing (m+1)-tuples
    over 0..n, in lexicographic order."""
    return _subcomplex_of_simplex(n, lambda s: True, trunc, basepoint=0)


def _subcomplex_of_simplex(n: int, keep, trunc: int,
                           basepoint=None) -> TruncatedSimplicialSet:
    """Subcomplex of Delta^n spanned by the vertex tuples accepted by keep."""
    levels = []
    index = []
    for m in range(trunc + 1):
        simps = [s for s in sorted(
            itertools.combinations_with_replacement(range(n + 1), m + 1))
            if keep(frozenset(s))]
        levels.append(simps)
        index.append({s: i for i, s in enumerate(simps)})
    faces = [()]
    for m in range(1, trunc + 1):
        faces.append(tuple(
            tuple(index[m - 1][s[:i] + s[i + 1:]] for i in range(m + 1))
            for s in levels[m]))
    degens = []
    for m in range(trunc):
        degens.append(tuple(
            tuple(index[m + 1][s[:j + 1] + s[j:]] for j in range(m + 1))
            for s in levels[m]))
    return make_sset(trunc, [len(l) for l in levels], faces, degens,
                     basepoint=basepoint)


def boundary(n: int, trunc: int = 4) -> TruncatedSimplicialSet:
    full = frozenset(range(n + 1))
    return _subcomplex_of_simplex(n, lambda s: s != full, trunc)


def horn(n: int, k: int, trunc: int = 4) -> TruncatedSimplicialSet:
    full = frozenset(range(n + 1))
    return _subcomplex_of_simplex(
        n, lambda s: any(v not in s for v in full if v != k), trunc)


# -- coskeleton, horns and Kan: one compatible-tuple join ------------------

def _join(below, count: int, positions: Sequence[int]):
    """Compatible tuples of level-(m-1) simplices over ascending positions.

    A tuple (x_p) over positions p is compatible when d_i x_j = d_{j-1} x_i
    for every pair of positions i < j.  below is the face table of level
    m-1 and count its size.  Returns an iterator of (prefix, bucket) pairs
    in lexicographic order: prefix is a compatible tuple over
    positions[:-1], bucket the ascending list of simplices that complete it
    at positions[-1].  The rows are prefix + (z,) for z in bucket, and
    their number is the sum of the bucket sizes.
    """
    if not below:  # vertices have no faces: every tuple is compatible
        return ((prefix, range(count)) for prefix in
                itertools.product(range(count), repeat=len(positions) - 1))
    joined = [((), range(count))]
    for t in range(1, len(positions)):
        # level m-1 indexed by its faces at positions[:t]; the last face is
        # split off, so that a prefix looks up its sub-index once
        index: dict[tuple, dict[int, list[int]]] = {}
        for z, row in enumerate(below):
            *head, tail = (row[i] for i in positions[:t])
            index.setdefault(tuple(head), {}).setdefault(tail, []).append(z)
        joined = _extend(joined, [row[positions[t] - 1] for row in below],
                         index)
    return joined


def _extend(joined, col, index):
    """One step of the join; col[z] is the face of z that the next
    position must match."""
    for prefix, bucket in joined:
        sub = index.get(tuple(map(col.__getitem__, prefix)))
        if sub:
            for z in bucket:
                yield prefix + (z,), sub.get(col[z], ())


def _rows(joined):
    return (prefix + (z,) for prefix, bucket in joined for z in bucket)


def _count(joined) -> int:
    return sum(len(bucket) for _, bucket in joined)


def _count_compatible(below, positions: Sequence[int], rows) -> int:
    """How many of rows, tuples over positions that index the level below,
    are compatible."""
    if not below:
        return len(rows)
    cols = list(zip(*below))
    pairs = [(cols[i], b, cols[j - 1], a) for b, j in enumerate(positions)
             for a, i in enumerate(positions[:b])]
    return sum(all(di[row[b]] == dj[row[a]] for di, b, dj, a in pairs)
               for row in rows)


def _indexes(rows, width: int, count: int) -> bool:
    """Whether every row has width entries, each one of the count simplices
    of the level below; a negative entry would index from the end."""
    return not rows or (set(map(len, rows)) == {width}
                        and min(map(min, rows)) >= 0
                        and max(map(max, rows)) < count)


# Most simplices a rebuilt coskeleton level may hold.
COSKELETON_CAP = 10 ** 6


def coskeleton(x: TruncatedSimplicialSet, k: int,
               trunc: Optional[int] = None) -> TruncatedSimplicialSet:
    """Copy levels <= k; rebuild every higher level from compatible boundary
    tuples, in lexicographic order.  trunc may exceed x.trunc to extend a
    low-truncation complex.  Raises SizeCapExceeded when a rebuilt level
    would hold more than COSKELETON_CAP simplices."""
    if trunc is None:
        trunc = x.trunc
    counts = list(x.counts[:k + 1])
    faces = [list(x.faces[n]) for n in range(k + 1)]
    degens = [list(x.degens[n]) for n in range(k)]
    for m in range(k + 1, trunc + 1):
        rows = list(itertools.islice(
            _rows(_join(faces[m - 1], counts[m - 1], range(m + 1))),
            COSKELETON_CAP + 1))
        if len(rows) > COSKELETON_CAP:
            raise SizeCapExceeded(f"coskeleton level {m} exceeds the cap of "
                                  f"{COSKELETON_CAP} simplices")
        counts.append(len(rows))
        faces.append(rows)
        # degeneracies from level m-1 into the new level, located by
        # bisection in the sorted rows
        deg_rows = []
        for y in range(counts[m - 1]):
            row = []
            for j in range(m):
                bt = []
                for i in range(m + 1):
                    if i == j or i == j + 1:
                        bt.append(y)
                    elif i < j:
                        bt.append(degens[m - 2][faces[m - 1][y][i]][j - 1])
                    else:
                        bt.append(degens[m - 2][faces[m - 1][y][i - 1]][j])
                row.append(bisect.bisect_left(rows, tuple(bt)))
            deg_rows.append(tuple(row))
        degens.append(deg_rows)
    return make_sset(trunc, counts, faces, degens, coskeletal_at=k,
                     basepoint=x.basepoint)


def is_coskeletal_at(x: TruncatedSimplicialSet, k: int) -> bool:
    """Levels above k hold each compatible boundary tuple exactly once.

    Counting argument: the stored rows of level m are a set S of distinct
    rows, each a compatible tuple, so S is a subset of the finite set C of
    all compatible tuples, and S = C exactly when |S| = |C|.  |C| is read
    off the join without building C.  A row of the wrong length, or with
    an entry outside the level below, is not compatible, so the audit fails
    on it; the rows of level k must index level k-1.  The simplicial
    identities are not assumed.
    """
    for m in range(k + 1, x.trunc + 1):
        below, rows = x.faces[m - 1], x.faces[m]
        if len(set(rows)) != len(rows):
            return False
        if not _indexes(rows, m + 1, x.counts[m - 1]):
            return False
        if _count_compatible(below, range(m + 1), rows) != len(rows):
            return False
        if _count(_join(below, x.counts[m - 1], range(m + 1))) != len(rows):
            return False
    return True


def enumerate_horns(x: TruncatedSimplicialSet, n: int, k: int):
    """All horn configurations {position: simplex}: compatible tuples of
    (n-1)-simplices over the positions i != k, in lexicographic order."""
    positions = [i for i in range(n + 1) if i != k]
    for row in _rows(_join(x.faces[n - 1], x.counts[n - 1], positions)):
        yield dict(zip(positions, row))


def is_kan(x: TruncatedSimplicialSet, dims: Iterable[int] = (1, 2, 3, 4)):
    """True, or the first unfillable horn as (n, k, config).

    Checks the requested dimensions up to the truncation; for a 3-coskeletal
    complex, every horn in dimension 5 and higher contains the entire
    3-skeleton of its simplex, so the unique coskeletal extension fills it.

    Counting argument at (n, k): the horns form a finite set H, counted by
    the join.  The boundary of a level-n simplex with its k-th face left
    out is a tuple over the positions i != k; let F be the set of those
    that are compatible, checked key by key, so F is a subset of H and
    holds exactly the fillable horns.  Every horn is fillable exactly when
    |F| = |H|.  Only on a mismatch are the horns enumerated, in
    lexicographic order, to report the first one outside F.  A projection
    with an entry outside level n-1 fills no horn; the rows of level n-1
    must index level n-2.  The simplicial identities are not assumed.
    """
    for n in dims:
        if n > x.trunc:
            continue
        below, size = x.faces[n - 1], x.counts[n - 1]
        clean = _indexes(x.faces[n], n + 1, size)
        for k in range(n + 1):
            positions = [i for i in range(n + 1) if i != k]
            horns = _count(_join(below, size, positions))
            filled = {row[:k] + row[k + 1:] for row in x.faces[n]}
            fillers = filled if clean else \
                [key for key in filled if _indexes((key,), n, size)]
            if _count_compatible(below, positions, fillers) != horns:
                for config in enumerate_horns(x, n, k):
                    if tuple(config.values()) not in filled:
                        return (n, k, config)
    return True


# -- minimality --------------------------------------------------------------

def _by_boundary(x: TruncatedSimplicialSet, n: int) -> dict[tuple, list[int]]:
    """The level-n simplices of x by boundary tuple, ascending."""
    out: dict[tuple, list[int]] = {}
    for z, row in enumerate(x.faces[n]):
        out.setdefault(row, []).append(z)
    return out


def homotopic_rel_boundary(x: TruncatedSimplicialSet, n: int,
                           a: int, b: int) -> bool:
    """Witness criterion: an (n+1)-simplex z with d_n z = a, d_{n+1} z = b,
    and d_i z = s_{n-1} d_i a for i < n."""
    if x.faces[n][a] != x.faces[n][b]:
        return False
    if n + 1 > x.trunc:
        return a == b
    want = tuple(x.degens[n - 1][x.faces[n][a][i]][n - 1] for i in range(n)) \
        + (a, b)
    return any(x.faces[n + 1][z] == want for z in range(x.counts[n + 1]))


def is_k_minimal(x: TruncatedSimplicialSet, k: int):
    """True, or a witness (n, a, b): distinct homotopic-rel-boundary pair.

    For the supported 3-coskeletal regime only levels 2 and 3 need checking;
    higher levels are rigid by coskeletality.
    """
    for n in range(max(k, 1), min(3, x.trunc) + 1):
        for group in _by_boundary(x, n).values():
            for a, b in itertools.combinations(group, 2):
                if homotopic_rel_boundary(x, n, a, b):
                    return (n, a, b)
    return True


@dataclass(frozen=True)
class SSet2Report:
    kan: bool
    coskeletal3: bool
    minimal2: bool
    injective_to_cosk2: bool

    @property
    def ok(self) -> bool:
        return self.kan and self.coskeletal3 and self.minimal2


def in_sset2(x: TruncatedSimplicialSet) -> SSet2Report:
    kan = is_kan(x) is True
    cosk3 = is_coskeletal_at(x, 3)
    minimal = is_k_minimal(x, 2) is True
    # redundant cross-check: distinct simplices above level 2 have distinct
    # boundary tuples, so the unit to the 2-coskeleton is injective
    inj = True
    for m in (3, 4):
        if m > x.trunc:
            break
        seen = set()
        for z in range(x.counts[m]):
            key = x.faces[m][z]
            if key in seen:
                inj = False
            seen.add(key)
    return SSet2Report(kan=kan, coskeletal3=cosk3, minimal2=minimal,
                       injective_to_cosk2=inj)


def relabel(x: TruncatedSimplicialSet, perms) -> TruncatedSimplicialSet:
    """Permute simplex indices; perms[n][old] = new."""
    perms = [list(p) for p in perms]
    inv = [[0] * len(p) for p in perms]
    for n, p in enumerate(perms):
        for old, new in enumerate(p):
            inv[n][new] = old
    faces = [()]
    for n in range(1, x.trunc + 1):
        faces.append(tuple(
            tuple(perms[n - 1][v] for v in x.faces[n][inv[n][z]])
            for z in range(x.counts[n])))
    degens = []
    for n in range(x.trunc):
        degens.append(tuple(
            tuple(perms[n + 1][v] for v in x.degens[n][inv[n][z]])
            for z in range(x.counts[n])))
    bp = None if x.basepoint is None else perms[0][x.basepoint]
    return make_sset(x.trunc, x.counts, faces, degens, basepoint=bp)


# -- products ----------------------------------------------------------------

def product(x: TruncatedSimplicialSet, y: TruncatedSimplicialSet,
            trunc: Optional[int] = None) -> TruncatedSimplicialSet:
    """Levelwise product through level min(x.trunc, y.trunc, trunc); the
    level-n pair (a, b) has index a*|Y_n|+b."""
    trunc = min(x.trunc, y.trunc, x.trunc if trunc is None else trunc)
    counts = [x.counts[n] * y.counts[n] for n in range(trunc + 1)]
    faces = [()]
    for n in range(1, trunc + 1):
        faces.append(tuple(
            tuple(x.faces[n][a][i] * y.counts[n - 1] + y.faces[n][b][i]
                  for i in range(n + 1))
            for a in range(x.counts[n]) for b in range(y.counts[n])))
    degens = []
    for n in range(trunc):
        degens.append(tuple(
            tuple(x.degens[n][a][j] * y.counts[n + 1] + y.degens[n][b][j]
                  for j in range(n + 1))
            for a in range(x.counts[n]) for b in range(y.counts[n])))
    bp = None
    if x.basepoint is not None and y.basepoint is not None:
        bp = x.basepoint * y.counts[0] + y.basepoint
    return make_sset(trunc, counts, faces, degens, basepoint=bp)


# -- simplicial maps ---------------------------------------------------------

@dataclass(frozen=True)
class SimplicialMap:
    dom: TruncatedSimplicialSet
    cod: TruncatedSimplicialSet
    levels: tuple[tuple[int, ...], ...]

    def __call__(self, n: int, z: int) -> int:
        return self.levels[n][z]


def check_simplicial_map(dom, cod, levels) -> SimplicialMap:
    levels = tuple(tuple(lvl) for lvl in levels)
    depth = len(levels) - 1
    for n in range(1, depth + 1):
        for z in range(dom.counts[n]):
            for i in range(n + 1):
                if cod.faces[n][levels[n][z]][i] != levels[n - 1][dom.faces[n][z][i]]:
                    raise Violation("map-face", (n, z, i))
    for n in range(depth):
        for z in range(dom.counts[n]):
            for j in range(n + 1):
                if cod.degens[n][levels[n][z]][j] != levels[n + 1][dom.degens[n][z][j]]:
                    raise Violation("map-degen", (n, z, j))
    return SimplicialMap(dom=dom, cod=cod, levels=levels)


def identity_map(x: TruncatedSimplicialSet, depth: Optional[int] = None) -> SimplicialMap:
    depth = x.trunc if depth is None else depth
    return check_simplicial_map(x, x, [range(x.counts[n])
                                       for n in range(depth + 1)])


def compose_maps(f: SimplicialMap, g: SimplicialMap) -> SimplicialMap:
    depth = min(len(f.levels), len(g.levels)) - 1
    return check_simplicial_map(
        f.dom, g.cod,
        [[g.levels[n][v] for v in f.levels[n]] for n in range(depth + 1)])


def _constraint_order(variables, constraints):
    """Order variables so constraints become fully assigned early.

    Greedy: repeatedly pick the variable closing the most constraints that
    have exactly one unassigned variable left, tracked incrementally.
    """
    varset = set(variables)
    var_cons: dict[int, list[int]] = {v: [] for v in variables}
    missing = []
    for ci, cvars in enumerate(constraints):
        needed = [v for v in set(cvars) if v in varset]
        missing.append(set(needed))
        for v in needed:
            var_cons[v].append(ci)
    score = {v: 0 for v in variables}
    for ci, m in enumerate(missing):
        if len(m) == 1:
            for v in m:
                score[v] += 1
    order = []
    remaining = set(variables)
    while remaining:
        best = max(remaining, key=lambda v: (score[v], -v))
        order.append(best)
        remaining.discard(best)
        for ci in var_cons[best]:
            m = missing[ci]
            m.discard(best)
            if len(m) == 1:
                for v in m:
                    score[v] += 1
    return order


class MapPlan:
    """The tables of the searches for maps x -> y of 3-truncations, built
    once per (x, y) and independent of the fixed cells: y's simplices by
    boundary and its boundary tuples one level up, and per level the search
    order of x's nondegenerate simplices with the up-face keys that prune
    them.  A level is planned when a search first reaches it."""

    def __init__(self, x: TruncatedSimplicialSet, y: TruncatedSimplicialSet):
        self.x, self.y = x, y
        self.depth = depth = min(3, x.trunc, y.trunc)
        self.by_boundary = [None] + [_by_boundary(y, n)
                                     for n in range(1, depth + 1)]
        # realized boundary tuples one level up; the top level has them
        # only when both complexes hold level depth + 1
        self.up_keys = [set(d) for d in self.by_boundary[1:]] + [
            set(y.faces[depth + 1])
            if depth + 1 <= min(x.trunc, y.trunc) else None]
        self._levels: dict[int, tuple[list[int], list[tuple]]] = {}

    def level(self, n: int):
        """Level n's variable order and the keys of its up-face constraints,
        each the faces of a level-(n+1) simplex of x."""
        if n not in self._levels:
            order = [z for z, degenerate in
                     enumerate(self.x.degenerate_flags(n)) if not degenerate]
            up = [] if self.up_keys[n] is None else \
                list(dict.fromkeys(self.x.faces[n + 1]))
            self._levels[n] = (_constraint_order(order, up) if up else order,
                               up)
        return self._levels[n]

    def _extend(self, n, assign, fixed, budget, cons):
        """Extend assign through level n; yields once per full map.  cons
        caches, per level, one search's up-face constraints on assign."""
        if n > self.depth:
            yield
            return
        x, y, a = self.x, self.y, assign[n]
        # degenerate simplices are forced from the level below
        for w in range(x.counts[n - 1] if n else 0):
            for j in range(n):
                z = x.degens[n - 1][w][j]
                img = y.degens[n - 1][assign[n - 1][w]][j]
                if a.setdefault(z, img) != img or \
                   fixed.get((n, z), img) != img:
                    a.clear()
                    return
        order, up = self.level(n)
        if n not in cons:
            keys = self.up_keys[n]
            cons[n] = [(key, lambda key=key: tuple(map(a.__getitem__, key))
                        in keys) for key in up]
        by_boundary = self.by_boundary[n]

        def candidates(z):
            if n == 0:
                cands = range(y.counts[0])
            else:
                cands = by_boundary.get(
                    tuple(assign[n - 1][f] for f in x.faces[n][z]), [])
            if (n, z) in fixed:
                want = fixed[(n, z)]
                return [want] if want in cands else []
            return cands

        for _ in search(order, candidates, cons[n], a, budget):
            yield from self._extend(n + 1, assign, fixed, budget, cons)
        a.clear()


def enumerate_maps_3trunc(x: TruncatedSimplicialSet,
                          y: TruncatedSimplicialSet,
                          fixed: Optional[dict] = None,
                          pointed: bool = False,
                          cap: int = 10 ** 6,
                          first_only: bool = False,
                          plan: Optional[MapPlan] = None):
    """All simplicial maps between the 3-truncations.

    fixed maps (level, simplex) -> forced image.  Degenerate simplices are
    always forced from below; the search runs over nondegenerate simplices
    level by level, pruned by the requirement that every level-(n+1) boundary
    image is the boundary of some target simplex.

    Level 3 is pruned so by level 4 only when x and y both hold level 4.
    For a target that is 3-coskeletal, whose level 4 holds every compatible
    tuple of 3-simplices, that pruning never fails: a map that commutes
    with faces through level 3 sends the faces of a 4-simplex to a
    compatible tuple.  So x truncated at 3 has the same maps into it.

    plan, a MapPlan(x, y), lets the searches from x to y share their
    tables; without it this search builds its own.
    """
    plan = MapPlan(x, y) if plan is None else plan
    if plan.x is not x or plan.y is not y:
        raise ValueError("the plan was built for other complexes")
    fixed = dict(fixed or {})
    if pointed:
        fixed.setdefault((0, x.basepoint), y.basepoint)
    assign: list[dict[int, int]] = [dict() for _ in range(plan.depth + 1)]
    out = []
    for _ in plan._extend(0, assign, fixed, Budget(cap, "map search"), {}):
        out.append(check_simplicial_map(
            x, y, [tuple(assign[m][z] for z in range(x.counts[m]))
                   for m in range(plan.depth + 1)]))
        if first_only:
            break
    return out


def simplicial_maps(x: TruncatedSimplicialSet, y: TruncatedSimplicialSet,
                    pointed: bool = False, cap: int = 10 ** 6):
    """All maps of 3-truncations; for a 3-coskeletal target these are exactly
    the maps of the full complexes."""
    return enumerate_maps_3trunc(x, y, pointed=pointed, cap=cap)


def extend_to_level4(m: SimplicialMap) -> SimplicialMap:
    """Unique level-4 extension into a 3-coskeletal target."""
    y = m.cod
    pos = {y.faces[4][z]: z for z in range(y.counts[4])}
    lvl4 = tuple(pos[tuple(m.levels[3][f] for f in m.dom.faces[4][z])]
                 for z in range(m.dom.counts[4]))
    return check_simplicial_map(m.dom, y, list(m.levels[:4]) + [lvl4])


# -- homotopy ----------------------------------------------------------------

def interval() -> TruncatedSimplicialSet:
    return standard_simplex(1)


def _end_inclusion_fixed(x: TruncatedSimplicialSet, vertex: int,
                         m: SimplicialMap, depth: int) -> dict:
    """Fix the images of the end {vertex} x X inside a map Delta^1 x X -> Y.
    The constant tuple at vertex is simplex vertex*(n+1) among the weakly
    increasing level-n tuples of Delta^1."""
    return {(n, vertex * (n + 1) * x.counts[n] + z): m.levels[n][z]
            for n in range(depth + 1) for z in range(x.counts[n])}


class Homotopies:
    """Homotopies Delta^1 x X -> Y between maps X -> Y: one prism I x X
    and one MapPlan, built once and searched for every pair of ends.

    The prism is truncated at 3 when Y is 3-coskeletal by construction
    (coskeletal_at <= 3, which only `coskeleton` sets; every nerve is).
    There the level-4 pruning of the search never fails (see
    `enumerate_maps_3trunc`), so level 4 of I x X would be built and
    audited for nothing.  Into any other Y the prism keeps level 4, and
    level 3 stays pruned by the 4-simplices of Y.
    """

    def __init__(self, x: TruncatedSimplicialSet, y: TruncatedSimplicialSet):
        cosk = y.coskeletal_at is not None and y.coskeletal_at <= 3
        self.x, self.y = x, y
        self.prism = product(interval(), x, 3 if cosk else None)
        self.plan = MapPlan(self.prism, y)

    def fixed(self, f: SimplicialMap, g: SimplicialMap,
              pointed: bool = False) -> dict:
        """The cells a homotopy from f to g must send as f does on
        {0} x X and as g does on {1} x X; when pointed, the base column
        Delta^1 x {*} goes to the basepoint of Y."""
        x, y, depth = self.x, self.y, self.plan.depth
        fixed = {}
        if pointed:
            if x.basepoint is None or y.basepoint is None:
                raise Violation("pointed-without-basepoint", None)
            bx, by = x.basepoint, y.basepoint
            for n in range(depth + 1):
                for w in range(n + 2):  # the level-n simplices of Delta^1
                    fixed[(n, w * x.counts[n] + bx)] = by
                if n < depth:
                    bx, by = x.degens[n][bx][0], y.degens[n][by][0]
        fixed.update(_end_inclusion_fixed(x, 0, f, depth))
        fixed.update(_end_inclusion_fixed(x, 1, g, depth))
        return fixed

    def find(self, f: SimplicialMap, g: SimplicialMap, pointed: bool = False,
             cap: int = 10 ** 6) -> Optional[SimplicialMap]:
        """A homotopy from f to g, or None."""
        found = enumerate_maps_3trunc(
            self.prism, self.y, fixed=self.fixed(f, g, pointed), cap=cap,
            first_only=True, plan=self.plan)
        return found[0] if found else None


def homotopic(f: SimplicialMap, g: SimplicialMap, cap: int = 10 ** 6,
              pointed: bool = False) -> bool:
    """Existence of H on Delta^1 x dom restricting to f and g on the ends
    and, when pointed, to the basepoint on the base column.

    H is searched on the 3-truncations.  Its level 3 is pruned by the
    4-simplices of the target only when the prism and the target both hold
    level 4.  For a 3-coskeletal target that pruning is vacuous, so the
    prism is built at truncation 3; into any other target it keeps level 4
    (see `Homotopies`).  Either way the answer is that of the full prism.
    """
    return Homotopies(f.dom, f.cod).find(f, g, pointed, cap) is not None


def homotopy_classes(maps: Sequence[SimplicialMap], cap: int = 10 ** 6):
    """Partition by the equivalence closure of the homotopy relation.  The
    maps share their domain and codomain, so one prism serves every pair."""
    if not maps:
        return []
    h = Homotopies(maps[0].dom, maps[0].cod)
    return classes(len(maps), lambda i, j: h.find(maps[i], maps[j],
                                                  cap=cap) is not None)
