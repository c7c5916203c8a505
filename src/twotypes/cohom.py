"""Low-degree group cohomology by exact integer linear algebra.

For a finite group Gamma acting on the right on an abelian group A, the
n-cochains are the normalized functions Gamma^n -> A, zero on each cell
with an identity entry, so C^n has one copy of A per cell of Gamma*^n,
Gamma* = Gamma minus its identity.  They form a subcomplex of the bar
complex whose inclusion is a homotopy equivalence, so H^n is the same
(K. S. Brown, Cohomology of Groups, III.1).  Written additively,

    (d0 a)(x)       = a^x - a,
    (d1 theta)(x,y) = theta(x)^y + theta(y) - theta(xy),
    (d2 f)(x,y,z)   = f(x,y)^z + f(xy,z) - f(y,z) - f(x,yz).

h1 and h2 compute H^n = ker dn / im d(n-1) without listing a cochain.  A is
decomposed once as a sum of cyclic groups Z/d_i, by a Smith form of the
relations of its Cayley graph, and each x in Gamma acts on that basis by an
integer matrix M_x.  Then C^n is Z^N modulo the d_i, and dn is a sparse integer
matrix.  Every lattice involved contains e Z^N, e = exp(A), so its entries are
kept modulo e.  A cochain c with dc = 0 is fixed by its values at the cells
that start in a generating set S of Gamma: dc = 0 at (s, x, ...) gives
c(sx, ...) = c(x, ...) + terms at cells that start with s, and c is 0 at
(1, ...).  So, with c = dn f, the cocycles are Z^N cut by the rows of dn at
those cells; with c a cocycle, they are put in Hermite form on the coordinates
at those cells alone, listed first, and the image of d(n-1) and the d_i Z^N are
written in that basis.  A Smith form of those coordinates gives H^n as a sum of
cyclic groups.  The cost depends on |Gamma|, |S| and the number of cyclic
factors of A.  See Holt, Eick and O'Brien, Handbook of Computational Group
Theory, 7.6, and Cohen, A Course in Computational Algebraic Number Theory, 2.4.

The same lattices give the coboundary map d: C^1 -> Z^2 as a homomorphism
of sums of cyclic groups: Z^2 is the Hermite basis of the cocycles modulo
the orders of C^2, put in cyclic coordinates by a Smith form.  It assembles
into a crossed module whose pi1 is H^2 and whose pi2 is Z^1;
extension_xmod builds it.  two_cocycles lists the 2-cocycles by a search
over the entries of their tables; no other function here calls it.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm, prod

from .fingroup import (
    FiniteGroup, GroupAction, GroupHom, generating_set, make_group, make_hom,
    trivial_action,
)
from .search import DEFAULT_CAP, Budget, as_budget, search
from .xmod import ANotAbelian, CrossedModule, Violation, check_crossed_module


def _require_abelian(a: FiniteGroup) -> None:
    for x in range(a.order):
        for y in range(x):
            if a.mul[x][y] != a.mul[y][x]:
                raise ANotAbelian((x, y))


def _resolve_action(gamma: FiniteGroup, a: FiniteGroup,
                    action) -> GroupAction:
    """The action of Gamma on A: trivial when None, and otherwise one whose
    actor and space have the tables of Gamma and A."""
    if action is None:
        return trivial_action(gamma, a)
    if action.actor != gamma:
        raise Violation("action-actor", None)
    if action.space != a:
        raise Violation("action-space", None)
    return action


def two_cocycles(gamma: FiniteGroup, a: FiniteGroup, action=None,
                 cap: int | Budget = DEFAULT_CAP
                 ) -> list[tuple[tuple[int, ...], ...]]:
    """All 2-cocycles as |Gamma| x |Gamma| tables, by backtracking over the
    entries in row order, each cocycle identity checked once its four
    entries are set; cap bounds the nodes of that search."""
    _require_abelian(a)
    action = _resolve_action(gamma, a, action)
    n = gamma.order
    mul = gamma.mul
    f: dict[tuple[int, int], int] = {}

    def holds(x, y, z):
        lhs = a.mul[action.act[f[x, y]][z]][f[mul[x][y], z]]
        return lhs == a.mul[f[y, z]][f[x, mul[y][z]]]

    constraints = [(((x, y), (mul[x][y], z), (y, z), (x, mul[y][z])),
                    lambda x=x, y=y, z=z: holds(x, y, z))
                   for x, y, z in itertools.product(range(n), repeat=3)]
    entries = list(itertools.product(range(n), repeat=2))
    return [tuple(tuple(f[x, y] for y in range(n)) for x in range(n))
            for _ in search(entries, lambda e: range(a.order), constraints,
                            f, as_budget(cap, "2-cocycle search"))]


# -- H^1 and H^2 by integer linear algebra ----------------------------------

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) >= 0 and s a + t b = g."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _pair(a: int, b: int) -> tuple[int, int, int, int]:
    """(s, t, u, v) of determinant -1 or 1 with s a + t b = gcd(a, b) and
    u a + v b = 0, for a > 0.  When a divides b it is plain elimination,
    (1, 0, -b/a, 1), which keeps the pivot; an xgcd there could swap the
    two back and forth without end."""
    if b % a == 0:
        return 1, 0, -(b // a), 1
    g, s, t = _xgcd(a, b)
    return s, t, b // g, -(a // g)


def _mix(x, y, s, t, u, v, mod: int):
    """The vectors s x + t y and u x + v y, entrywise modulo mod."""
    return ([(s * p + t * q) % mod for p, q in zip(x, y)],
            [(u * p + v * q) % mod for p, q in zip(x, y)])


def _smith(rows, ncols: int, mod: int, cols=None) -> list[int]:
    """The cyclic orders of Z^ncols modulo the lattice spanned by rows and
    mod Z^ncols, one per column (1 for a trivial factor).

    Unimodular row and column operations bring the rows to diagonal form,
    with every entry kept modulo mod.  Each column operation is also applied
    to the rows of cols, when given, which then hold the column transform.
    """
    m = [row for row in ([v % mod for v in r] for r in rows) if any(row)]
    out = []

    def column_op(i, j, s, t, u, v):
        for row in itertools.chain(m, cols or ()):
            x, y = row[i], row[j]
            row[i], row[j] = (s * x + t * y) % mod, (u * x + v * y) % mod

    for k in range(ncols):
        at = next(((i, j) for i, row in enumerate(m)
                   for j in range(k, ncols) if row[j]), None)
        if at is None:
            out.extend([mod] * (ncols - k))
            break
        m[0], m[at[0]] = m[at[0]], m[0]
        if at[1] != k:
            column_op(k, at[1], 0, 1, 1, 0)
        # clear column k below row 0, then row 0 right of column k, until
        # both stay clear; the pivot only shrinks, so this ends
        while True:
            for i in range(1, len(m)):
                if m[i][k]:
                    m[0], m[i] = _mix(m[0], m[i], *_pair(m[0][k], m[i][k]),
                                      mod)
            for j in range(k + 1, ncols):
                if m[0][j]:
                    column_op(k, j, *_pair(m[0][k], m[0][j]))
            if not any(row[k] for row in m[1:]):
                break
        out.append(gcd(m[0][k], mod))
        m = [row for row in m[1:] if any(row)]
    return out


def _presentation(rels, k: int, mod: int):
    """(orders, to): Z^k modulo the lattice spanned by rels and mod Z^k is
    the sum of the Z/f for f in orders (each > 1), and to(w) is the
    coordinate tuple of the class of w.  A Smith form of rels, with its
    column transform V, gives the orders, and to sends w to w V."""
    v = [[int(i == j) for j in range(k)] for i in range(k)]
    diag = _smith(rels, k, mod, v)
    keep = [(t, diag[t]) for t in range(k) if diag[t] > 1]
    return [f for _, f in keep], lambda w: tuple(
        sum(c * v[j][t] for j, c in enumerate(w)) % f for t, f in keep)


def _cyclic_decomposition(a: FiniteGroup):
    """(orders, coords): A is the sum of the Z/d for d in orders (each > 1),
    and coords[x] is the coordinate tuple of the element x.

    The generators of fingroup.generating_set map Z^k onto A; the relations
    of a spanning tree of the Cayley graph (one per edge off the tree) span
    the kernel, and their presentation sends the word of x to its
    coordinates."""
    gens = generating_set(a)
    k = len(gens)
    word = {a.identity: (0,) * k}
    queue = [a.identity]
    rels = []
    for x in queue:
        for i, g in enumerate(gens):
            w = tuple(c + (i == j) for j, c in enumerate(word[x]))
            y = a.mul[x][g]
            if y in word:
                rels.append([u - v for u, v in zip(w, word[y])])
            else:
                word[y] = w
                queue.append(y)
    orders, to = _presentation(rels, k, a.order)
    return orders, [to(word[x]) for x in range(a.order)]


def _coboundary_rows(gamma: FiniteGroup, mats, orders, n: int, cells, first):
    """The rows of dn on normalized cochains at the cells of Gamma*^(n+1)
    that start in first, Gamma* listed as cells, one per coordinate (cell,
    i) in that order and then i: dicts from the coordinates of C^n to
    coefficients modulo d_i, without the terms at cells with an identity."""
    mul, r, one = gamma.mul, len(orders), gamma.identity
    index = {x: k for k, x in enumerate(cells)}

    def at(cell):
        pos = 0
        for x in cell:
            pos = pos * len(index) + index[x]
        return pos * r

    rows = []
    for cell in itertools.product(first, *[cells] * n):
        if n == 0:
            (x,) = cell
            terms = [(mats[x], ()), (-1, ())]
        elif n == 1:
            x, y = cell
            terms = [(mats[y], (x,)), (1, (y,)), (-1, (mul[x][y],))]
        else:
            x, y, z = cell
            terms = [(mats[z], (x, y)), (1, (mul[x][y], z)), (-1, (y, z)),
                     (-1, (x, mul[y][z]))]
        terms = [(coef, at(src)) for coef, src in terms if one not in src]
        for i, d in enumerate(orders):
            row: dict[int, int] = {}
            for coef, base in terms:
                if isinstance(coef, int):
                    row[base + i] = row.get(base + i, 0) + coef
                else:
                    for j in range(r):
                        row[base + j] = row.get(base + j, 0) + coef[i][j]
            rows.append({j: c % d for j, c in row.items() if c % d})
    return rows


def _cut(rows, moduli, size: int, e: int):
    """Generators, with eZ^size, of {x in Z^size : row.x = 0 mod d for each
    row and its modulus d}, each vector reduced modulo e.  Z^size is cut by
    one row at a time: the generators are combined so that one alone, the
    pivot, has a value that is not 0 mod d, and the pivot is replaced by
    its least multiple whose value is."""
    gens = [[int(i == j) for j in range(size)] for i in range(size)]
    for row, d in zip(rows, moduli):
        items = row.items()
        pivot, pv, out = None, 0, []
        for g in gens:
            v = sum(c * g[j] for j, c in items) % d
            if v == 0:
                out.append(g)
            elif pivot is None:
                pivot, pv = g, v
            else:
                coef = _pair(pv, v)
                pivot, g = _mix(pivot, g, *coef, e)
                pv = coef[0] * pv + coef[1] * v
                out.append(g)
        if pivot is not None:
            q = d // gcd(pv, d)
            out.append([q * x % e for x in pivot])
        gens = [g for g in out if any(g)]
    return gens


def _hermite(gens, size: int, e: int):
    """The upper triangular basis of the lattice spanned by gens and
    eZ^size: row k starts at column k with a divisor of e, and its later
    entries are reduced modulo e."""
    basis = []
    for k in range(size):
        pivot = [0] * size
        pivot[k] = e
        rest = []
        for g in gens:
            if g[k]:
                pivot, g = _mix(pivot, g, *_pair(pivot[k], g[k]), e)
            if any(g):
                rest.append(g)
        basis.append(pivot)
        gens = rest
    return basis


def _coordinates(basis, b) -> list[int]:
    """The coordinates in the triangular basis of b's prefix on its columns,
    by exact back-substitution; that prefix must lie in its lattice."""
    b = list(b)
    out = []
    for k, row in enumerate(basis):
        q, r = divmod(b[k], row[k])
        if r:
            raise ArithmeticError(f"coordinate {k} of {b} is not a multiple "
                                  f"of {row[k]}")
        out.append(q)
        if q:
            for j in range(k, len(row)):
                b[j] -= q * row[j]
    return out


def _diagonal(moduli) -> list[list[int]]:
    """The generators d e_i of the lattice of the d in moduli."""
    return [[d * (i == j) for j in range(len(moduli))]
            for i, d in enumerate(moduli)]


def _sum_group(orders) -> FiniteGroup:
    """The sum of the Z/f for f in orders, its elements numbered in mixed
    radix with the first coordinate slowest.  The group axioms hold in each
    Z/f, so the table gets no Cayley audit."""
    mul = ((0,),)
    for f in reversed(orders):
        n = len(mul)
        mul = tuple(tuple(b + v for b in [(c + d) % f * n for d in range(f)]
                          for v in row) for c in range(f) for row in mul)
    return FiniteGroup(order=len(mul), mul=mul, identity=0,
                       inv=tuple(row.index(0) for row in mul))


def _cocycle_lattice(gamma: FiniteGroup, a: FiniteGroup, action, n: int,
                     budget: Budget):
    """(orders, images, cocycles) for C^n, Z^width modulo the orders of the
    cyclic factors of A per cell of Gamma*^n, generators first in Gamma*:
    images[j] is d(n-1) of the j-th coordinate of C^(n-1), and cocycles the
    Hermite basis of the preimage of ker dn, cut by its rows at the generators,
    on the coordinates at the cells that start with a generator.  One step
    per entry of d(n-1) and of those rows, counted before it is built."""
    _require_abelian(a)
    action = _resolve_action(gamma, a, action)
    orders, coords = _cyclic_decomposition(a)
    r, size, one = len(orders), gamma.order - 1, gamma.identity
    e = lcm(*orders)
    unit = {coords[x]: x for x in range(a.order)}
    basis = [unit[tuple(int(i == j) for j in range(r))] for i in range(r)]
    mats = [[[coords[action.act[basis[j]][x]][i] for j in range(r)]
             for i in range(r)] for x in gamma.elements]
    gens = generating_set(gamma)
    cells = gens + [x for x in gamma.elements if x != one and x not in gens]
    width = size ** n * r
    budget.tick(width * size ** (n - 1) * r)
    lower = _coboundary_rows(gamma, mats, orders, n - 1, cells, cells)
    budget.tick(len(gens) * size ** n * r * width)
    upper = _coboundary_rows(gamma, mats, orders, n, cells, gens)
    cocycles = _hermite(_cut(upper, orders * len(gens) * size ** n, width, e),
                        len(gens) * size ** (n - 1) * r, e)
    images = [[row.get(j, 0) for row in lower]
              for j in range(size ** (n - 1) * r)]
    return orders, images, cocycles


def _cohomology(gamma: FiniteGroup, a: FiniteGroup, action, n: int,
                cap: int | Budget) -> FiniteGroup:
    """ker dn / im d(n-1), n = 1 or 2.  The |H|^2 entries of its table are
    admitted by the cap before it is built, and take no step."""
    budget = as_budget(cap, "cohomology")
    orders, images, cocycles = _cocycle_lattice(gamma, a, action, n, budget)
    bounds = images + _diagonal(orders * (gamma.order - 1) ** n)
    factors = sorted(f for f in _smith(
        (_coordinates(cocycles, b) for b in bounds), len(cocycles),
        lcm(*orders)) if f > 1)
    entries = prod(factors) ** 2
    budget.admit(entries, f"{entries} table entries")
    return make_group(_sum_group(factors).mul)


def h1(gamma: FiniteGroup, a: FiniteGroup, action=None,
       cap: int | Budget = DEFAULT_CAP) -> FiniteGroup:
    """Crossed homomorphisms modulo principal ones: ker d1 / im d0."""
    return _cohomology(gamma, a, action, 1, cap)


def h2(gamma: FiniteGroup, a: FiniteGroup, action=None,
       cap: int | Budget = DEFAULT_CAP) -> FiniteGroup:
    """2-cocycles modulo coboundaries: ker d2 / im d1."""
    return _cohomology(gamma, a, action, 2, cap)


def coboundary_hom(gamma: FiniteGroup, a: FiniteGroup, action=None,
                   cap: int | Budget = DEFAULT_CAP) -> GroupHom:
    """The homomorphism d: C^1 -> Z^2 of normalized cochains, both groups
    in cyclic coordinates: C^1 is the sum of the cyclic factors of A, one
    copy per element of Gamma*, generators first, and Z^2 the presentation
    of the cocycle lattice modulo the orders of C^2, read at the generators.
    One step per entry of d1 and of the rows of d2 that h2 builds, and one
    per element of C^1 and of Z^2; then the budget admits their tables."""
    budget = as_budget(cap, "coboundary hom")
    orders, images, cocycles = _cocycle_lattice(gamma, a, action, 2, budget)
    zorders, to = _presentation(
        (_coordinates(cocycles, b) for b in _diagonal(
            orders * (gamma.order - 1) ** 2)), len(cocycles), lcm(*orders))
    corders = orders * (gamma.order - 1)
    budget.tick(prod(corders) + prod(zorders))
    entries = prod(corders) ** 2 + prod(zorders) ** 2
    budget.admit(entries, f"tables of {entries} entries")
    dom, cod = _sum_group(corders), _sum_group(zorders)

    def index(coords) -> int:
        i = 0
        for c, f in zip(coords, zorders):
            i = i * f + c % f
        return i

    # d is additive, so its values fill in mixed radix from the last
    # coordinate of C^1, each taking the multiples of its image in Z^2
    values = [0]
    for d, image in zip(reversed(corders), reversed(images)):
        z = to(_coordinates(cocycles, image))
        values = [cod.mul[index([k * c for c in z])][v]
                  for k in range(d) for v in values]
    return make_hom(dom, cod, values)


def extension_xmod(gamma: FiniteGroup, a: FiniteGroup, action=None,
                   cap: int | Budget = DEFAULT_CAP) -> CrossedModule:
    """The crossed module d: C^1 -> Z^2 with trivial Z^2-action, where C^1
    has one copy of A per element of Gamma*; its pi1 is H2 and its pi2 is
    Z^1, the crossed homomorphisms (each is 0 at the identity), which is
    H1 for the trivial coefficient action.  The cap is that of
    coboundary_hom."""
    hom = coboundary_hom(gamma, a, action, cap)
    # the trivial action needs no axiom audit; building it directly avoids
    # the O(|Z^2|^2 |C^1|) action check
    triv = GroupAction(actor=hom.cod, space=hom.dom,
                       act=tuple(tuple([b] * hom.cod.order)
                                 for b in range(hom.dom.order)))
    return check_crossed_module(hom.dom, hom.cod, hom, triv)


def weakmap_class_count_vs_h2(n: int, m: int) -> bool:
    """Whether the number of pointed transformation classes of weak maps
    from the one-object 2-group on Z/n to the one-2-cell 2-group on Z/m
    equals the order of H2(Z/n, Z/m)."""
    from .fingroup import cyclic
    from .twogpd import _components
    from .weakmaps import enumerate_xmod_weak_maps
    from .xmod import xmod_b2g, xmod_bg

    budget = as_budget(DEFAULT_CAP, "weak map classes")
    maps = enumerate_xmod_weak_maps(xmod_bg(cyclic(n)), xmod_b2g(cyclic(m)),
                                    cap=budget)
    found = _components([P.functor for P in maps], True, False, budget)
    return len({r for r, _ in found}) == \
        h2(cyclic(n), cyclic(m), cap=budget).order
