"""Finite truncated simplicial sets with coskeleta, horn filling, Kan and
minimality analysis, products and fiber products, map enumeration, and
simplicial homotopy.

A TruncatedSimplicialSet stores levels 0..trunc (default 4) as plain index
sets with face and degeneracy tables.  faces[n][x] is the tuple
(d_0 x, ..., d_n x); degens[n][x] is (s_0 x, ..., s_n x) landing in level
n+1.  Degenerate simplices are stored explicitly.  A level that
`coskeleton` rebuilds, such as level 4 of a nerve, is a JoinLevel: it holds
the join of the level below instead of its rows, so it is counted once
and tested for membership from that level, and lists its rows only when
they are read or ranked.  The degeneracies into it, checked down columns,
are a JoinDegens, ranked on the first read.  The audits tell such a level
by its type.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from operator import itemgetter, not_
from typing import Iterable, Optional, Sequence

from .search import (  # SizeCapExceeded is re-exported
    DEFAULT_CAP, Budget, Plan, SizeCapExceeded, as_budget, classes, derived,
    group, run,
)
from .xmod import Violation, check_pointed


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
    if x.basepoint is not None and not 0 <= x.basepoint < x.counts[0]:
        raise Violation("basepoint-range", x.basepoint)
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

class _Join:
    """Compatible tuples of level-(m-1) simplices over ascending positions.

    A tuple (x_p) over positions p is compatible when d_i x_j = d_{j-1} x_i
    for every pair of positions i < j.  below is the face table of level
    m-1 and size its count; vertices have no faces, so over level 0 every
    tuple is compatible.  Iteration gives the tuples in lexicographic order.

    This is the one statement of compatibility in the library.  The level
    below is transposed once, face[p][x] = d_p x, and pairs holds, per pair
    of slots a < b, the columns (d_{p_a}, b, d_{p_b - 1}, a) that the test
    compares.  Only `fits` reads them, down whole columns of rows; `holds`
    and membership are that test on rows.

    The walk is depth first, one position at a time.  For each position t
    after the first, a trie holds every simplex w under its faces d_p w at
    the earlier positions p, in order.  Placing x at an earlier position
    steps each later trie by the face of x that the position must match,
    so after a prefix the node of position t holds exactly the simplices
    that can still go there; a missing node cuts the prefix off.
    """

    def __init__(self, below, size: int, positions: Sequence[int]):
        self.size = size
        positions = tuple(positions)
        self.r = len(positions)
        self.face = face = list(zip(*below)) if below else \
            [(0,) * size] * (positions[-1] + 1)
        # cols[t] = d_{p_t - 1}, the face that position t must match
        self.cols = [None] + [face[p - 1] for p in positions[1:]]
        self.pairs = [(face[p], b, face[q - 1], a)
                      for b, q in enumerate(positions)
                      for a, p in enumerate(positions[:b])]
        # the trie of position t+1 is that of position t with each leaf
        # split by one more face
        self.roots, trie = [], range(size)
        for p in positions[:-1]:
            trie = _split(trie, face[p])
            self.roots.append(trie)

    def fits(self, cols) -> bool:
        """Whether every row of the columns cols is a tuple here: cols[p],
        one per position, holds the rows' entries at p.  Every entry must
        be an int in range, and each of pairs is compared down the columns
        at once (an itemgetter of one key gives the entry, of more a
        tuple, alike on both sides)."""
        flat = tuple(itertools.chain.from_iterable(cols))
        return not flat or all(map(isinstance, flat, itertools.repeat(int))) \
            and 0 <= min(flat) and max(flat) < self.size \
            and all(itemgetter(*cols[b])(di) == itemgetter(*cols[a])(dj)
                    for di, b, dj, a in self.pairs)

    def holds(self, rows) -> bool:
        """Whether each of rows, a tuple of r ints each in range, is
        compatible: one `fits` down the rows' columns."""
        return all(map(isinstance, rows, itertools.repeat(tuple))) \
            and set(map(len, rows)) <= {self.r} \
            and self.fits(tuple(zip(*rows)))

    def __contains__(self, row) -> bool:
        return self.holds((row,))

    def _step(self, a: int, x: int, nodes):
        """The nodes of positions a+1.. once x is placed at position a, or
        None when some position is left without candidates."""
        cols = self.cols
        out = []
        for t, node in enumerate(nodes, a + 1):
            node = node.get(cols[t][x])
            if node is None:
                return None
            out.append(node)
        return out

    def count(self, limit=math.inf) -> int:
        """The number of tuples, or some number past limit once the walk
        has gone past it."""
        return self._count(0, range(self.size), self.roots, limit)

    def _count(self, a, cands, nodes, limit=math.inf) -> int:
        """The tuples through a prefix of length a, where cands may go at
        position a and nodes are the later positions' trie nodes."""
        if len(nodes) <= 3:
            return _count_tail(cands, nodes, self.cols[a + 1:])
        total = 0
        for x in cands:
            nxt = self._step(a, x, nodes)
            if nxt is not None:
                total += self._count(a + 1, nxt[0], nxt[1:], limit - total)
                if total > limit:
                    break
        return total

    def __iter__(self):
        return self._rows(0, (), range(self.size), self.roots)

    def _rows(self, a, prefix, cands, nodes):
        if a == self.r - 1:
            for z in cands:
                yield prefix + (z,)
            return
        if a == self.r - 3:  # the last two read off their buckets
            (n1, n2), c1, c2 = nodes, self.cols[a + 1], self.cols[a + 2]
            for x in cands:
                ys, ends = n1.get(c1[x]), n2.get(c2[x])
                if ys and ends:
                    row = prefix + (x,)
                    for y in ys:
                        for z in ends.get(c2[y], ()):
                            yield row + (y, z)
            return
        for x in cands:
            nxt = self._step(a, x, nodes)
            if nxt is not None:
                yield from self._rows(a + 1, prefix + (x,), nxt[0], nxt[1:])


def _split(node, col):
    """A trie node with every leaf, a list of simplices z, made a dict of
    lists by col[z]; the lists stay ascending."""
    if isinstance(node, dict):
        return {key: _split(sub, col) for key, sub in node.items()}
    if len(node) == 1:
        return {col[node[0]]: node}
    out: dict = {}
    for z in node:
        out.setdefault(col[z], []).append(z)
    return out


def _count_tail(cands, nodes, cols) -> int:
    """`_Join._count` when at most three positions follow: the tuples are
    summed from the bucket sizes of the last, with no prefix built."""
    if not nodes:
        return len(cands)
    if len(nodes) == 1:
        (n1,), (c1,) = nodes, cols
        return sum(len(n1.get(c1[x], ())) for x in cands)
    total = 0
    if len(nodes) == 2:
        (n1, n2), (c1, c2) = nodes, cols
        for x in cands:
            ys, ends = n1.get(c1[x]), n2.get(c2[x])
            if ys and ends:
                for y in ys:
                    end = ends.get(c2[y])
                    if end:
                        total += len(end)
        return total
    (n1, n2, n3), (c1, c2, c3) = nodes, cols
    for x in cands:
        ys = n1.get(c1[x])
        if ys:
            mid, last = n2.get(c2[x]), n3.get(c3[x])
            if mid and last:
                for y in ys:
                    zs, ends = mid.get(c2[y]), last.get(c3[y])
                    if zs and ends:
                        for z in zs:
                            end = ends.get(c3[z])
                            if end:
                                total += len(end)
    return total


class _Listed(SequenceABC):
    """A table whose rows are made by `_make` on the first read and kept.
    It compares equal to the tuple of its rows and hashes the same."""

    _rows: Optional[tuple] = None

    def rows(self) -> tuple:
        """The rows, made on the first call and kept."""
        if self._rows is None:
            self._rows = self._make()
        return self._rows

    def __getitem__(self, i):
        return self.rows()[i]

    def __iter__(self):
        return iter(self.rows())

    def __eq__(self, other):
        if isinstance(other, _Listed):
            other = other.rows()
        if isinstance(other, tuple):
            return self.rows() == other
        return NotImplemented

    def __hash__(self):
        return hash(self.rows())


class JoinLevel(_Listed):
    """Level m held as its join: every compatible tuple of level-(m-1)
    simplices once, in lexicographic order.  `coskeleton` builds these.

    below is the face table of level m-1 and size its count.  The length
    is counted from the join once (`coskeleton` keeps a count it makes
    against the cap), and membership is the compatibility test.  The rows
    are listed once, on the first indexed access, iteration or rank, and
    kept; `rank` and `ranks` read them.
    """

    def __init__(self, below, size: int, m: int):
        self.below, self.size, self.m = below, size, m
        self.join = _Join(below, size, range(m + 1))
        self._count: Optional[int] = None

    def _make(self) -> tuple:
        return tuple(self.join)

    def __len__(self) -> int:
        if self._count is None:
            self._count = self.join.count()
        return self._count

    def __contains__(self, row) -> bool:
        return row in self.join

    def ranks(self, rows) -> list:
        """The index of each of rows in the listed level, None for a row
        not in the level."""
        listed = self.rows()
        return [bisect.bisect_left(listed, row) if row in self else None
                for row in rows]

    def rank(self, row) -> int:
        """The index of row; ValueError when it is not in the level."""
        i = self.ranks([row])[0]
        if i is None:
            raise ValueError(f"{row!r} is not in the level")
        return i

    index = rank


class JoinDegens(_Listed):
    """The degeneracies of level m-1 into a JoinLevel at m, ranked on the
    first read: row y is (s_0 y, ..., s_{m-1} y).  down is the degeneracy
    table of level m-2 (empty for m = 1).  The targets are rebuilt from
    level m-1 and down, ranked in the listed level, and not kept;
    `coskeleton` has checked that each is a row of the level."""

    def __init__(self, level: JoinLevel, down):
        self.level, self.down = level, down

    def _make(self) -> tuple:
        level, m = self.level, self.level.m
        ranks = level.ranks(_degen_targets(level.below, self.down,
                                           level.size, m))
        return tuple(tuple(ranks[y * m:(y + 1) * m])
                     for y in range(level.size))

    def __len__(self) -> int:
        return self.level.size


def _join_over(x: TruncatedSimplicialSet, n: int) -> bool:
    """Whether level n of x is a JoinLevel over x's own level n-1, so that
    it holds every compatible tuple of x's (n-1)-simplices once."""
    level = x.faces[n]
    return isinstance(level, JoinLevel) and level.below is x.faces[n - 1] \
        and level.size == x.counts[n - 1]


def coskeleton(x: TruncatedSimplicialSet, k: int,
               trunc: Optional[int] = None,
               cap: int | Budget = DEFAULT_CAP) -> TruncatedSimplicialSet:
    """Copy levels <= k; hold every higher level as a JoinLevel, the
    compatible boundary tuples in lexicographic order.  trunc may exceed
    x.trunc to extend a low-truncation complex.

    Each level is counted once, before anything is listed or ranked, by a
    count that stops only past the cap, so it is exact or the budget
    refuses the level, at no step.  Levels <= k are x's and not audited
    again, and the face identities of a joined level are its compatibility
    condition.  So only the degeneracies into each joined level are
    checked: s_j y has the faces that the identities d_i s_j give it, and
    that tuple must be a row.  The check reads the targets down columns
    and no rank, and builds them as rows only to name the first failure.
    The degeneracy table is a JoinDegens, ranked only when it is read.
    """
    if trunc is None:
        trunc = x.trunc
    budget = as_budget(cap, "coskeleton")
    counts = list(x.counts[:k + 1])
    faces = list(x.faces[:k + 1])
    degens = list(x.degens[:k])
    for m in range(k + 1, trunc + 1):
        level = JoinLevel(faces[m - 1], counts[m - 1], m)
        level._count = level.join.count(budget.cap)
        budget.admit(level._count, f"the simplices of level {m}")
        down = degens[m - 2] if m >= 2 else ()
        if not _degens_fit(level.join, down, m):
            bad = _first_not_row(level.join, _degen_targets(
                faces[m - 1], down, counts[m - 1], m))
            raise Violation("ds-identity", (m - 1, *divmod(bad, m)))
        counts.append(len(level))
        faces.append(level)
        degens.append(JoinDegens(level, down))
    return TruncatedSimplicialSet(
        trunc=trunc, counts=tuple(counts), faces=tuple(faces),
        degens=tuple(degens), coskeletal_at=k, basepoint=x.basepoint)


def _degen_targets(below, down, count: int, m: int) -> list:
    """The faces of s_j y that the identities d_i s_j give it, for the
    count simplices y of level m-1 with face table below, in (y, j)
    order; down is the degeneracy table of level m-2."""
    out = []
    for y in range(count):
        fy = below[y] if m >= 2 else ()
        for j in range(m):
            out.append(tuple(
                y if i == j or i == j + 1 else
                down[fy[i]][j - 1] if i < j else down[fy[i - 1]][j]
                for i in range(m + 1)))
    return out


def _degens_fit(join: _Join, down, m: int) -> bool:
    """Whether each s_j y is a tuple of join, over positions 0..m of level
    m-1, down the degeneracies of level m-2.  For each j, column i of the
    targets is y for i = j, j + 1, else a column of down read through
    join.face[i] or join.face[i - 1], and the columns are one `fits`."""
    size, face, downs = join.size, join.face, list(zip(*down))
    return all(join.fits([range(size) if j <= i <= j + 1 else
                          _gather(downs[j - 1], face[i]) if i < j else
                          _gather(downs[j], face[i - 1])
                          for i in range(m + 1)])
               for j in range(m if size else 0))


def _gather(col, keys) -> tuple:
    """col[key] for each of keys, as a tuple."""
    return itemgetter(*keys)(col) if len(keys) > 1 else \
        tuple(col[key] for key in keys)


def _first_not_row(join: _Join, rows) -> Optional[int]:
    """The index of the first of rows not in join, or None."""
    return next((i for i, row in enumerate(rows) if row not in join), None)


def is_coskeletal_at(x: TruncatedSimplicialSet, k: int) -> bool:
    """Levels above k hold each compatible boundary tuple exactly once.

    A JoinLevel over x's own level below does by construction.  Any other
    level is audited through the join of its level below: the stored rows
    of level m are a set S of distinct rows, each a tuple of the join C, so
    S is a subset of C, and S = C exactly when |S| = |C|.  The rows are
    tested down their columns (`_Join.holds`), and |C| is read off the join
    without building C.  A row of the wrong length, or with an entry
    outside the level below, is no tuple of the join, so the audit fails on
    it; the rows of level k must index level k-1.  The simplicial
    identities are not assumed.
    """
    for m in range(k + 1, x.trunc + 1):
        if _join_over(x, m):
            continue
        rows = x.faces[m]
        join = _Join(x.faces[m - 1], x.counts[m - 1], range(m + 1))
        if len(set(rows)) != len(rows) \
                or not join.holds(rows) \
                or join.count(len(rows)) != len(rows):
            return False
    return True


def enumerate_horns(x: TruncatedSimplicialSet, n: int, k: int):
    """All horn configurations {position: simplex}: compatible tuples of
    (n-1)-simplices over the positions i != k, in lexicographic order."""
    positions = [i for i in range(n + 1) if i != k]
    for row in _Join(x.faces[n - 1], x.counts[n - 1], positions):
        yield dict(zip(positions, row))


def is_kan(x: TruncatedSimplicialSet, dims: Iterable[int] = (1, 2, 3, 4)):
    """True, or the first unfillable horn as (n, k, config).

    Checks the requested dimensions up to the truncation; for a 3-coskeletal
    complex, every horn in dimension 5 and higher contains the entire
    3-skeleton of its simplex, so the unique coskeletal extension fills it.
    Every dimension is an exhaustive audit: by counts, and on a mismatch by
    listing the horns in lexicographic order to report the first one that
    no simplex fills.  A JoinLevel over x's level below is audited from
    that level (`_kan_join`: R rows fill R of the H_k horns at k, and
    R <= H_k <= |the join without positions k and k +- 1|, so that join
    holding R tuples settles k, and k +- 1 with it; else H_k is counted),
    and a stored level from its rows (`_kan_rows`).
    """
    for n in dims:
        if n > x.trunc:
            continue
        found = _kan_join(x, n) if n > 1 and _join_over(x, n) else \
            _kan_rows(x, n)
        if found is not True:
            return found
    return True


def _kan_rows(x: TruncatedSimplicialSet, n: int):
    """Kan at n for stored rows.  The horns at k are the tuples of the
    join H over the positions i != k.  The boundary of a level-n simplex
    with its k-th face left out is a tuple over those positions; let F be
    the set of those in H, so F holds exactly the fillable horns: every
    projection when they hold down their columns, else those counted one
    by one.  Every horn is fillable exactly when |F| = |H|, so the count
    of H stops once it passes |F|; on a mismatch H is listed to the first
    unfilled horn.  A projection with an entry outside level n-1 fills no
    horn; the rows of level n-1 must index level n-2.  The simplicial
    identities are not assumed."""
    below, size = x.faces[n - 1], x.counts[n - 1]
    for k in range(n + 1):
        positions = [i for i in range(n + 1) if i != k]
        horns = _Join(below, size, positions)
        filled = {row[:k] + row[k + 1:] for row in x.faces[n]}
        fillable = len(filled) if horns.holds(filled) else \
            sum(key in horns for key in filled)
        if horns.count(fillable) != fillable:
            for row in horns:
                if row not in filled:
                    return (n, k, dict(zip(positions, row)))
    return True


def _kan_join(x: TruncatedSimplicialSet, n: int):
    """Kan at n for a JoinLevel over level n-1, read from level n-1.

    A horn at k is filled by a simplex z at position k whose faces are
    fixed by the horn, so it fills exactly when some (n-1)-simplex has
    that boundary.  Suppose the (n-1)-simplices are unique by boundary.
    The rows are distinct and compatible, so dropping position k is
    injective on them, and R rows fill R of the H_k horns: all fill
    exactly when R = H_k.  For j != k let m be the face of x_j opposite
    vertex k (k for k < j, else k - 1); its other faces are faces of the
    other x_p.  So when the faces other than d_m tell the (n-1)-simplices
    apart, R <= H_k <= |the join over the positions but j, k|, and that
    join holding R tuples settles k.  With j = k +- 1, the join without m
    and m + 1 settles both k = m and k = m + 1, and is counted once.  Else
    H_k is counted; on a mismatch or repeated boundaries, horns are listed
    to the first unfilled one.
    """
    below, size = x.faces[n - 1], x.counts[n - 1]
    boundaries = set(below)
    unique = len(boundaries) == size
    rows = len(x.faces[n])
    drops = _telling_faces(below, n) if unique else ()
    short = {}  # m -> the count of the join without positions m, m + 1
    for k in range(n + 1):
        positions = [i for i in range(n + 1) if i != k]
        m = k - 1 if k - 1 in short or k not in drops else k
        if m in drops:
            if m not in short:
                short[m] = _Join(below, size, positions[:m] +
                                 positions[m + 1:]).count(rows)
            if short[m] == rows:
                continue
        horns = _Join(below, size, positions)
        if unique and horns.count(rows) == rows:
            continue
        for row in horns:
            need = tuple(below[row[i]][k - 1 if i < k else k]
                         for i in range(n))
            if need not in boundaries:
                return (n, k, dict(zip(positions, row)))
    return True


def _telling_faces(below, n: int) -> set:
    """The m < n whose face table below, less column m, is injective."""
    return {m for m in range(n)
            if len({row[:m] + row[m + 1:] for row in below}) == len(below)}


# -- minimality --------------------------------------------------------------

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
    return want in x.faces[n + 1]


def is_k_minimal(x: TruncatedSimplicialSet, k: int):
    """True, or a witness (n, a, b): distinct homotopic-rel-boundary pair.

    For the supported 3-coskeletal regime only levels 2 and 3 need checking;
    higher levels are rigid by coskeletality.
    """
    for n in range(max(k, 1), min(3, x.trunc) + 1):
        for alike in group(x.faces[n]).values():
            for a, b in itertools.combinations(alike, 2):
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
    # boundary tuples, so the unit to the 2-coskeleton is injective; the
    # rows of a JoinLevel are distinct by construction
    inj = all(isinstance(x.faces[m], JoinLevel)
              or len(set(x.faces[m])) == x.counts[m]
              for m in (3, 4) if m <= x.trunc)
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


# -- simplicial maps ---------------------------------------------------------

@dataclass(frozen=True)
class SimplicialMap:
    dom: TruncatedSimplicialSet
    cod: TruncatedSimplicialSet
    levels: tuple[tuple[int, ...], ...]

    def __call__(self, n: int, z: int) -> int:
        return self.levels[n][z]


def check_simplicial_map(dom, cod, levels) -> SimplicialMap:
    """Audit the number of levels ("map-levels", (top level, given, held)),
    their lengths ("map-level-size", (n, given, dom.counts[n])) and entries
    ("map-level-range", (n, z), z the first not in range(cod.counts[n])),
    then faces, then degeneracies; a table that _commutes is not walked.

    The domain's face and degeneracy rows of each level are flattened once
    per complex (`_flat`) and shared by every map out of it, as the maps
    of one search, prism or nerve all leave the same complex.  Each table
    is still compared whole for every map, and a table that fails is
    walked in the same order, so the first violation is unchanged."""
    levels = tuple(tuple(lvl) for lvl in levels)
    depth = len(levels) - 1
    if depth > min(dom.trunc, cod.trunc):
        raise Violation("map-levels", (depth, len(levels),
                                       min(dom.trunc, cod.trunc) + 1))
    for n, lvl in enumerate(levels):
        if len(lvl) != dom.counts[n]:
            raise Violation("map-level-size", (n, len(lvl), dom.counts[n]))
    for n, lvl in enumerate(levels):
        if lvl and not (0 <= min(lvl) and max(lvl) < cod.counts[n]):
            raise Violation("map-level-range", (n, next(
                z for z, v in enumerate(lvl) if not 0 <= v < cod.counts[n])))
    tables = itertools.chain(
        (("map-face", "faces", n, cod.faces[n], levels[n - 1])
         for n in range(1, depth + 1)),
        (("map-degen", "degens", n, cod.degens[n], levels[n + 1])
         for n in range(depth)))
    for name, kind, n, rows, other in tables:
        if _commutes(rows, levels[n], other, _flat(dom, kind, n), n + 1):
            continue
        dom_rows = getattr(dom, kind)[n]
        for z in range(dom.counts[n]):
            for i in range(n + 1):
                if rows[levels[n][z]][i] != other[dom_rows[z][i]]:
                    raise Violation(name, (n, z, i))
    return SimplicialMap(dom=dom, cod=cod, levels=levels)


def _flat(x: TruncatedSimplicialSet, kind: str, n: int) -> tuple:
    """x's rows of level n in its table kind ("faces" or "degens") as one
    flat tuple, made once per complex."""
    return derived(x, (kind, n), lambda: tuple(
        itertools.chain.from_iterable(getattr(x, kind)[n])))


def _cut(flat, width: int) -> list[tuple]:
    """flat cut into rows of width entries."""
    return list(zip(*[iter(flat)] * width))


def _commutes(rows, level, other, flat, width: int) -> bool:
    """Whether rows[level[z]] is the image under other of the domain's row
    z, flat holding those rows of width entries one after the other, for
    every z.  Into a JoinLevel the images are ranked.  Otherwise both sides
    are compared as one flat tuple, which is exact as every row of a level
    holds width entries.  False on a mismatch: the walk then finds the
    first violation."""
    images = _gather(other, flat)
    if isinstance(rows, JoinLevel):
        return list(level) == rows.ranks(_cut(images, width))
    return tuple(itertools.chain.from_iterable(_gather(rows, level))) \
        == images


# -- products and fiber products ---------------------------------------------

def sset_fiber_product(f: SimplicialMap, g: SimplicialMap):
    """Levelwise pullback of a cospan X -> Z <- Y of simplicial maps,
    through the levels both maps and both complexes hold, with the pair
    lists per level, in lexicographic order, and their indices."""
    X, Y = f.dom, g.dom
    trunc = min(X.trunc, Y.trunc, len(f.levels) - 1, len(g.levels) - 1)
    pairs, pos = [], []
    for n in range(trunc + 1):
        over = group(g.levels[n])
        lvl = [(u, v) for u in range(X.counts[n])
               for v in over.get(f.levels[n][u], ())]
        pairs.append(lvl)
        pos.append({p: i for i, p in enumerate(lvl)})

    def rows(tx, ty, pairs, pos):
        return [tuple(map(pos.__getitem__, zip(tx[u], ty[v])))
                for u, v in pairs]

    faces = [()] + [rows(X.faces[n], Y.faces[n], pairs[n], pos[n - 1])
                    for n in range(1, trunc + 1)]
    degens = [rows(X.degens[n], Y.degens[n], pairs[n], pos[n + 1])
              for n in range(trunc)]
    fib = make_sset(trunc, list(map(len, pairs)), faces, degens,
                    basepoint=pos[0].get((X.basepoint, Y.basepoint)))
    return fib, pairs, pos


def product(x: TruncatedSimplicialSet, y: TruncatedSimplicialSet,
            trunc: Optional[int] = None) -> TruncatedSimplicialSet:
    """Levelwise product through level min(x.trunc, y.trunc, trunc), the
    fiber product over Delta^0: the level-n pair (a, b) has index
    a*|Y_n|+b."""
    trunc = min(x.trunc, y.trunc, x.trunc if trunc is None else trunc)
    point = standard_simplex(0, trunc)
    return sset_fiber_product(*(check_simplicial_map(
        z, point, [(0,) * z.counts[n] for n in range(trunc + 1)])
        for z in (x, y)))[0]


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
    once per (x, y): y's simplices by boundary and its boundary tuples one
    level up, and per level the search order of x's nondegenerate
    simplices with the up-face constraints that prune them, and a getter
    of each simplex's face images (`boundaries`).  Only the faces of x's
    nondegenerate simplices one level up are constraints, as those of a
    degenerate one cannot fail (`level`), and the constraints that close
    at one position of the order are tested in one call (`compiled`).

    A level is planned when a search first reaches it, and compiled into a
    `search.Plan` once per set of its simplices that the search pins (the
    fixed images of nondegenerate simplices; see `enumerate_maps_3trunc`).
    So the searches of one `Homotopies`, whose ends pin the same cells each
    time, share one compiled plan per level.  The constraints read the
    map being built from assign, one dict per level; every search clears a
    level's dict when it enters that level, so no search sees another's
    cells, also after one stopped at the cap."""

    def __init__(self, x: TruncatedSimplicialSet, y: TruncatedSimplicialSet):
        self.x, self.y = x, y
        self.depth = depth = min(3, x.trunc, y.trunc)
        self.degenerate = [x.degenerate_flags(n) for n in range(depth + 1)]
        self.by_boundary = [None] + [group(y.faces[n])
                                     for n in range(1, depth + 1)]
        # realized boundary tuples one level up.  The top level is ordered
        # by x's faces one level up when both complexes hold that level,
        # and checked against y's only when y's is not the join of its
        # level below: a join holds every compatible tuple, and a map that
        # commutes with faces through the top sends x's faces to one
        top = depth + 1
        self.ordered_top = top <= min(x.trunc, y.trunc)
        self.up_keys = [set(d) for d in self.by_boundary[1:]] + [
            set(y.faces[top])
            if self.ordered_top and not _join_over(y, top) else None]
        self.assign: list[dict[int, int]] = [{} for _ in range(depth + 1)]
        self._levels: dict[int, tuple[list[int], list]] = {}
        self._compiled: dict[tuple[int, frozenset], Plan] = {}
        self._boundaries: dict[int, list] = {}

    def level(self, n: int):
        """Level n's variable order, over all its nondegenerate simplices,
        and the keys of its up-face constraints: the distinct faces of the
        nondegenerate level-(n+1) simplices of x, whose images must be the
        faces of a simplex of y.  The order is made from the faces of every
        level-(n+1) simplex.  A degenerate one, s_j w, needs no constraint:
        its faces go to those of s_j F(w), as the search forces the
        degenerate cells and each candidate has the boundary of its faces'
        images."""
        if n not in self._levels:
            order = [z for z, degenerate in enumerate(self.degenerate[n])
                     if not degenerate]
            up = list(dict.fromkeys(self.x.faces[n + 1])) \
                if n < self.depth or self.ordered_top else []
            keys = [] if self.up_keys[n] is None or not up else list(
                dict.fromkeys(itertools.compress(self.x.faces[n + 1], map(
                    not_, self.x.degenerate_flags(n + 1)))))
            self._levels[n] = (
                _constraint_order(order, up) if up else order, keys)
        return self._levels[n]

    def boundaries(self, n: int) -> list:
        """Per level-n simplex z of x, a getter of the images of its faces
        from the map's level n-1; made once per level."""
        if n not in self._boundaries:
            self._boundaries[n] = [itemgetter(*row)
                                   for row in self.x.faces[n]] if n else []
        return self._boundaries[n]

    def compiled(self, n: int, pinned: frozenset) -> Plan:
        """Level n's search with the pinned simplices left out of its
        order; built once per level and set of pinned simplices.  The
        constraints that close at one position are tested in one call: one
        getter reads the images of all their keys, cut into tuples of n + 2
        faces, and y's boundary set must hold every tuple."""
        plan = self._compiled.get((n, pinned))
        if plan is None:
            order, keys = self.level(n)
            order = [z for z in order if z not in pinned]
            at = {z: i for i, z in enumerate(order)}
            closing = group(max((at[z] for z in key if z in at), default=-1)
                            for key in keys)
            bounds, a, width = self.up_keys[n], self.assign[n], n + 2
            cons = []
            for ks in closing.values():
                flat = tuple(itertools.chain.from_iterable(
                    keys[k] for k in ks))
                cons.append((flat, lambda get=itemgetter(*flat): bounds.
                             issuperset(zip(*[iter(get(a))] * width))))
            plan = self._compiled[(n, pinned)] = Plan(order, cons)
        return plan

    def _extend(self, n, pins, budget):
        """Extend self.assign through level n; yields once per full map.
        pins[n] is (held, pinned, key): the fixed images of x's degenerate
        level-n simplices, those of the others, and the set of the others,
        which names the level's compiled plan; made once per search.

        The degenerate simplices are forced down x's flat degeneracy rows
        (`_flat`, made once per complex): s_j w goes to s_j of w's image,
        and a simplex forced twice, or fixed, must get one image, else
        there is no map, as in a walk over every (w, j).  No step is taken
        there.  The other cells of every level are set by `search.run`."""
        if n > self.depth:
            yield
            return
        x, y, a = self.x, self.y, self.assign[n]
        held, pinned, key = pins[n]
        a.clear()
        below = self.assign[n - 1] if n else None
        if n:
            zs = _flat(x, "degens", n - 1)
            imgs = tuple(itertools.chain.from_iterable(_gather(
                y.degens[n - 1], _gather(below, range(x.counts[n - 1])))))
            a.update(zip(zs, imgs))
            if _gather(a, zs) != imgs or \
                    _gather(a, held) != tuple(held.values()):
                return
        by_boundary, boundary = self.by_boundary[n], self.boundaries(n)

        def candidates(z):
            if n == 0:
                return range(y.counts[0])
            return by_boundary.get(boundary[z](below), ())

        # a fixed nondegenerate simplex is checked and set here, once, and
        # left out of the search's order
        for z, img in pinned.items():
            if img not in candidates(z):
                return
            a[z] = img
        for _ in run(self.compiled(n, key), candidates, a, budget):
            yield from self._extend(n + 1, pins, budget)


def enumerate_maps_3trunc(x: TruncatedSimplicialSet,
                          y: TruncatedSimplicialSet,
                          fixed: Optional[dict] = None,
                          pointed: bool = False,
                          cap: int | Budget = DEFAULT_CAP,
                          first_only: bool = False,
                          plan: Optional[MapPlan] = None):
    """All simplicial maps between the 3-truncations.

    fixed maps (level, simplex) -> forced image.  Degenerate simplices are
    always forced from below; the search runs over nondegenerate simplices
    level by level, pruned by the requirement that every level-(n+1) boundary
    image is the boundary of some target simplex.  A fixed nondegenerate
    simplex (the basepoint when pointed) is pinned: when the search enters
    its level it is checked once (its image must have the boundary of its
    faces' images) and set, and it is no node of the search.  A fixed
    degenerate simplex must agree with the image forced from below.
    Either failure leaves no map.  The maps and their order are those of a
    search that tried each pinned simplex at its place with one candidate;
    only the budget steps differ.

    Level 3 is pruned so by level 4 only when x and y both hold level 4,
    and y's level 4 is not the join of its level 3 (`coskeleton` builds
    such levels, as in every nerve).  A 3-coskeletal target's level 4 holds
    every compatible tuple of 3-simplices, so that pruning never fails: a
    map that commutes with faces through level 3 sends the faces of a
    4-simplex to a compatible tuple.  So x truncated at 3 has the same maps
    into it.

    plan, a MapPlan(x, y), lets the searches from x to y share their
    tables and compiled levels; without it this search builds its own.
    """
    plan = MapPlan(x, y) if plan is None else plan
    if plan.x is not x or plan.y is not y:
        raise ValueError("the plan was built for other complexes")
    fixed = dict(fixed or {})
    if pointed:
        check_pointed(x, y)
        fixed.setdefault((0, x.basepoint), y.basepoint)
    pins = [({}, {}) for _ in range(plan.depth + 1)]
    for (n, z), img in fixed.items():
        if 0 <= n <= plan.depth and 0 <= z < x.counts[n]:
            held, pinned = pins[n]
            (held if plan.degenerate[n][z] else pinned)[z] = img
    pins = [(held, pinned, frozenset(pinned)) for held, pinned in pins]
    assign = plan.assign
    out = []
    for _ in plan._extend(0, pins, as_budget(cap, "map search")):
        out.append(check_simplicial_map(
            x, y, [_gather(assign[m], range(x.counts[m]))
                   for m in range(plan.depth + 1)]))
        if first_only:
            break
    return out


def simplicial_maps(x: TruncatedSimplicialSet, y: TruncatedSimplicialSet,
                    pointed: bool = False, cap: int | Budget = DEFAULT_CAP):
    """All maps of 3-truncations; for a 3-coskeletal target these are exactly
    the maps of the full complexes."""
    return enumerate_maps_3trunc(x, y, pointed=pointed, cap=cap)


def level_by_boundary(y: TruncatedSimplicialSet, n: int, below,
                      rows) -> list[int]:
    """Level n of a map into y, by boundary: rows are the faces of the
    domain's n-simplices, below is the map's level n-1, and each simplex
    goes to the n-simplex of y whose faces are the images of its own.
    Violation("level<n>-image", z) at the first z with no such simplex.

    The images are gathered in one pass.  A stored level of y is looked up
    in its boundary -> index dict (`_positions`), kept on y by `derived`,
    as the maps of the homotopy bridge all land in one nerve.  A JoinLevel
    is ranked in its listed rows."""
    images = _cut(_gather(below, tuple(itertools.chain.from_iterable(rows))),
                  n + 1)
    if isinstance(y.faces[n], JoinLevel):
        level = y.faces[n].ranks(images)
    else:
        level = list(map(_positions(y, n).get, images))
    if None in level:
        raise Violation(f"level{n}-image", level.index(None))
    return level


def _positions(y: TruncatedSimplicialSet, n: int) -> dict:
    """y's stored level n by boundary: each row to its index (the last, for
    a row held twice), made once per complex."""
    return derived(y, ("pos", n), lambda: {
        row: z for z, row in enumerate(y.faces[n])})


def extend_to_level4(m: SimplicialMap) -> SimplicialMap:
    """Unique level-4 extension into a 3-coskeletal target: each 4-simplex
    goes to the 4-simplex of the images of its faces."""
    lvl4 = level_by_boundary(m.cod, 4, m.levels[3], m.dom.faces[4])
    return check_simplicial_map(m.dom, m.cod, list(m.levels[:4]) + [lvl4])


# -- homotopy ----------------------------------------------------------------

def interval() -> TruncatedSimplicialSet:
    return standard_simplex(1)


def prism(x: TruncatedSimplicialSet, trunc: int) -> TruncatedSimplicialSet:
    """I x X through level min(x.trunc, trunc), trunc at most the
    interval's 4; made once per complex and level, and kept on x."""
    trunc = min(x.trunc, trunc)
    return derived(x, ("prism", trunc),
                   lambda: product(interval(), x, trunc))


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

    The ends {0} x X and {1} x X, and when pointed the base column, are
    fixed cells of the search (see `fixed`), so a find pins them: they are
    set before the search and are no nodes of it, and the budget counts
    only the other cells of the prism.  Every find pins the same cells, so
    all finds share one compiled search per level, and a pointed find one
    more.  A find that stopped at the cap leaves nothing behind: the next
    find answers, and counts its steps, as on a fresh instance.

    The prism is a table of X (`prism`), and the tables derived from the
    prism and from Y (the flat rows of the map audit, Y's simplices by
    boundary) are kept on their complex (`derived`): every Homotopies of X
    at one truncation, and every pair, reads the same ones.  A caller that
    reads the fixed cells of a pair as well hands them to `find`, so they
    are made once per pair.

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
        self.prism = prism(x, 3 if cosk else 4)
        self.plan = MapPlan(self.prism, y)

    def fixed(self, f: SimplicialMap, g: SimplicialMap,
              pointed: bool = False) -> dict:
        """The cells a homotopy from f to g must send as f does on
        {0} x X and as g does on {1} x X; when pointed, the base column
        Delta^1 x {*} goes to the basepoint of Y."""
        x, y, depth = self.x, self.y, self.plan.depth
        fixed = {}
        if pointed:
            check_pointed(x, y)
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
             cap: int | Budget = DEFAULT_CAP,
             fixed: Optional[dict] = None) -> Optional[SimplicialMap]:
        """A homotopy from f to g, or None; fixed, when given, is
        self.fixed(f, g, pointed)."""
        if fixed is None:
            fixed = self.fixed(f, g, pointed)
        found = enumerate_maps_3trunc(
            self.prism, self.y, fixed=fixed, first_only=True, plan=self.plan,
            cap=as_budget(cap, "homotopy search"))
        return found[0] if found else None


def homotopic(f: SimplicialMap, g: SimplicialMap,
              cap: int | Budget = DEFAULT_CAP, pointed: bool = False) -> bool:
    """Existence of H on Delta^1 x dom restricting to f and g on the ends
    and, when pointed, to the basepoint on the base column.

    H is searched on the 3-truncations.  Its level 3 is pruned by the
    4-simplices of the target only when the prism and the target both hold
    level 4.  For a 3-coskeletal target that pruning is vacuous, so the
    prism is built at truncation 3; into any other target it keeps level 4
    (see `Homotopies`).  Either way the answer is that of the full prism.
    """
    return Homotopies(f.dom, f.cod).find(f, g, pointed, cap) is not None


def homotopy_classes(maps: Sequence[SimplicialMap],
                     cap: int | Budget = DEFAULT_CAP):
    """Partition by the equivalence closure of the homotopy relation, as
    sorted lists ordered by least member.  The maps share their domain and
    codomain, so one prism serves every pair.

    Into a Kan complex homotopy is an equivalence (Goerss and Jardine,
    ch. I), so each map is tested only against the least member of each
    class found so far (`twogpd.representatives`).  Into any other target
    the relation is closed over every pair (`search.classes`)."""
    from .twogpd import representatives

    budget = as_budget(cap, "homotopy classes")
    if not maps:
        return []
    h = Homotopies(maps[0].dom, maps[0].cod)
    if is_kan(maps[0].cod) is True:
        return list(group(r for r, _ in representatives(
            len(maps), lambda r, i: h.find(maps[r], maps[i],
                                           cap=budget))).values())
    return classes(len(maps), lambda i, j: h.find(maps[i], maps[j],
                                                  cap=budget) is not None)
