"""Low-degree group cohomology by direct cocycle enumeration.

For a finite group Gamma acting on an abelian group A, 2-cocycles are the
solutions of f(x,y)^z f(xy,z) = f(y,z) f(x,yz) over all entries (no
normalization imposed), and the coboundary of a 1-cochain theta is
(x,y) -> theta(x)^y theta(y) theta(xy)^{-1}.  H2 is Z2 modulo the
coboundaries B2, and H1 the crossed homomorphisms Z1 modulo the principal
ones B1.  Both are computed as cosets: each cocycle, as a flat tuple of
entries, is visited once, and the Cayley table is built on one
representative per class only.  The coboundary map d: C1 -> Z2 also
assembles into a crossed module whose homotopy groups recover the
cohomology; extension_xmod alone builds the pointwise groups C1 and Z2
for it.
"""

from __future__ import annotations

import itertools

from .fingroup import (
    FiniteGroup, GroupAction, make_group, make_hom, trivial_action,
)
from .search import Budget, classes, search
from .xmod import CrossedModule, Violation, check_crossed_module


class ANotAbelian(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"coefficient group is not abelian: {witness!r}")


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
                 budget=None) -> list[tuple[tuple[int, ...], ...]]:
    """All 2-cocycles as |Gamma| x |Gamma| tables, by backtracking over the
    entries in row order, each cocycle identity checked once its four
    entries are set."""
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
                            f, budget)]


def coboundary(gamma: FiniteGroup, a: FiniteGroup, theta,
               action=None) -> tuple[tuple[int, ...], ...]:
    """(d theta)(x, y) = theta(x)^y theta(y) theta(xy)^{-1}."""
    action = _resolve_action(gamma, a, action)
    n = gamma.order
    return tuple(tuple(
        a.mul[a.mul[action.act[theta[x]][y]][theta[y]]][
            a.inv[theta[gamma.mul[x][y]]]]
        for y in range(n)) for x in range(n))


def crossed_homs(gamma: FiniteGroup, a: FiniteGroup, action=None,
                 budget=None) -> list[tuple[int, ...]]:
    """1-cocycles: theta with theta(xy) = theta(x)^y theta(y)."""
    _require_abelian(a)
    action = _resolve_action(gamma, a, action)
    n = gamma.order
    theta: dict[int, int] = {}
    constraints = [((x, y, gamma.mul[x][y]), lambda x=x, y=y:
                    theta[gamma.mul[x][y]]
                    == a.mul[action.act[theta[x]][y]][theta[y]])
                   for x, y in itertools.product(range(n), repeat=2)]
    return [tuple(theta[x] for x in range(n))
            for _ in search(range(n), lambda x: range(a.order), constraints,
                            theta, budget)]


def _flat(table) -> tuple[int, ...]:
    return tuple(itertools.chain.from_iterable(table))


def _times(a: FiniteGroup, u, v) -> tuple[int, ...]:
    return tuple(a.mul[x][y] for x, y in zip(u, v))


def _pointwise_group(flat, a: FiniteGroup) -> FiniteGroup:
    """Group of flat A-valued tuples under pointwise multiplication, keyed
    by the exact tuples.  The axioms are inherited entrywise from A, so the
    full Cayley audit is skipped."""
    pos = {e: i for i, e in enumerate(flat)}
    return FiniteGroup(
        order=len(flat),
        mul=tuple(tuple(pos[_times(a, u, v)] for v in flat) for u in flat),
        identity=pos[(a.identity,) * len(flat[0])],
        inv=tuple(pos[tuple(a.inv[x] for x in u)] for u in flat))


def coboundary_hom(gamma: FiniteGroup, a: FiniteGroup, action=None):
    """The homomorphism d: C^1 -> Z^2 between pointwise groups."""
    _require_abelian(a)
    action = _resolve_action(gamma, a, action)
    cochains = list(itertools.product(range(a.order), repeat=gamma.order))
    cocycles = [_flat(z) for z in two_cocycles(gamma, a, action)]
    zpos = {z: i for i, z in enumerate(cocycles)}
    values = [zpos[_flat(coboundary(gamma, a, t, action))] for t in cochains]
    return make_hom(_pointwise_group(cochains, a),
                    _pointwise_group(cocycles, a), values)


def _quotient(a: FiniteGroup, cocycles, bounds) -> FiniteGroup:
    """Z modulo its subgroup B, both as flat A-valued tuples.  Each cocycle
    z not yet in a class opens one, which takes zb for every b in B; the
    classes must cover Z without overlap, and the Cayley table on their
    first members gets the full group audit."""
    pos = {z: i for i, z in enumerate(cocycles)}
    coset = [-1] * len(cocycles)
    reps = []
    for i, z in enumerate(cocycles):
        if coset[i] >= 0:
            continue
        for b in bounds:
            zb = _times(a, z, b)
            if b not in pos or zb not in pos or coset[pos[zb]] >= 0:
                raise ValueError(f"{b} or {z} times it is not a cocycle of "
                                 "a new class")
            coset[pos[zb]] = len(reps)
        reps.append(z)
    if -1 in coset:
        raise ValueError(f"{cocycles[coset.index(-1)]} is in no class")
    return make_group([[coset[pos[_times(a, r, s)]] for s in reps]
                       for r in reps])


def h2(gamma: FiniteGroup, a: FiniteGroup, action=None,
       cap: int = 10 ** 6) -> FiniteGroup:
    """Z^2 modulo coboundaries.  The cocycle search and the loop over the
    1-cochains share one budget, one step per search node or cochain."""
    action = _resolve_action(gamma, a, action)
    budget = Budget(cap, "cohomology")
    cocycles = [_flat(z) for z in two_cocycles(gamma, a, action, budget)]
    bounds = {}
    for theta in itertools.product(range(a.order), repeat=gamma.order):
        budget.tick()
        bounds[_flat(coboundary(gamma, a, theta, action))] = None
    return _quotient(a, cocycles, bounds)


def h1(gamma: FiniteGroup, a: FiniteGroup, action=None,
       cap: int = 10 ** 6) -> FiniteGroup:
    """Crossed homomorphisms modulo principal ones."""
    action = _resolve_action(gamma, a, action)
    homs = crossed_homs(gamma, a, action, Budget(cap, "cohomology"))
    principal = dict.fromkeys(
        tuple(a.mul[action.act[e][x]][a.inv[e]] for x in gamma.elements)
        for e in a.elements)
    return _quotient(a, homs, principal)


def extension_xmod(gamma: FiniteGroup, a: FiniteGroup,
                   action=None) -> CrossedModule:
    """The crossed module d: C^1 -> Z^2 with trivial Z^2-action; its pi1 is
    H2 and, for the trivial coefficient action, its pi2 is H1."""
    hom = coboundary_hom(gamma, a, action)
    # the trivial action needs no axiom audit; building it directly avoids
    # the O(|Z^2|^2 |C^1|) action check on these large pointwise groups
    triv = GroupAction(actor=hom.cod, space=hom.dom,
                       act=tuple(tuple([b] * hom.cod.order)
                                 for b in range(hom.dom.order)))
    return check_crossed_module(hom.dom, hom.cod, hom, triv)


def weakmap_class_count_vs_h2(n: int, m: int) -> bool:
    """Whether the number of pointed transformation classes of weak maps
    from the one-object 2-group on Z/n to the one-2-cell 2-group on Z/m
    equals the order of H2(Z/n, Z/m)."""
    from .fingroup import cyclic
    from .weakmaps import enumerate_transformations, enumerate_xmod_weak_maps
    from .xmod import xmod_b2g, xmod_bg

    maps = enumerate_xmod_weak_maps(xmod_bg(cyclic(n)), xmod_b2g(cyclic(m)))
    found = classes(len(maps), lambda i, j: bool(
        enumerate_transformations(maps[i], maps[j], pointed_only=True)))
    return len(found) == h2(cyclic(n), cyclic(m)).order
