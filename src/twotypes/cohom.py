"""Low-degree group cohomology by direct cocycle enumeration.

For a finite group Gamma acting on an abelian group A, 2-cocycles are the
solutions of f(x,y)^z f(xy,z) = f(y,z) f(x,yz) over all entries (no
normalization imposed), and the coboundary of a 1-cochain theta is
(x,y) -> theta(x)^y theta(y) theta(xy)^{-1}.  H2 is the cokernel of the
coboundary map and H1 the quotient of crossed homomorphisms by principal
ones.  The coboundary map itself assembles into a crossed module whose
homotopy groups recover the cohomology.
"""

from __future__ import annotations

import itertools

import numpy as np

from .fingroup import (
    FiniteGroup, GroupAction, cokernel_of_image, make_hom, trivial_action,
)
from .search import classes, search
from .xmod import CrossedModule, check_crossed_module


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
    if action is None:
        return trivial_action(gamma, a)
    return action


def two_cocycles(gamma: FiniteGroup, a: FiniteGroup,
                 action=None) -> list[tuple[tuple[int, ...], ...]]:
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
                            f)]


def coboundary(gamma: FiniteGroup, a: FiniteGroup, theta,
               action=None) -> tuple[tuple[int, ...], ...]:
    """(d theta)(x, y) = theta(x)^y theta(y) theta(xy)^{-1}."""
    action = _resolve_action(gamma, a, action)
    n = gamma.order
    return tuple(tuple(
        a.mul[a.mul[action.act[theta[x]][y]][theta[y]]][
            a.inv[theta[gamma.mul[x][y]]]]
        for y in range(n)) for x in range(n))


def crossed_homs(gamma: FiniteGroup, a: FiniteGroup,
                 action=None) -> list[tuple[int, ...]]:
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
                            theta)]


def _pointwise_group(elements, a: FiniteGroup, identity_elt) -> FiniteGroup:
    """Group of A-valued tables under pointwise multiplication.  The axioms
    are inherited entrywise from A, so the full Cayley audit is skipped."""
    def flat(e):
        if e and isinstance(e[0], tuple):
            return [x for row in e for x in row]
        return list(e)

    n = len(elements)
    table = np.array([flat(e) for e in elements], dtype=np.int64)
    amul = np.array(a.mul, dtype=np.int64)
    ainv = np.array(a.inv, dtype=np.int64)
    width = table.shape[1]
    base = np.array([a.order ** k for k in range(width)], dtype=np.int64)
    codes = table @ base
    order_by_code = np.argsort(codes)
    sorted_codes = codes[order_by_code]

    def index_of(code_block):
        return order_by_code[np.searchsorted(sorted_codes, code_block)]

    mul = tuple(tuple(index_of(amul[table[u][None, :], table] @ base).tolist())
                for u in range(n))
    inv = tuple(index_of(ainv[table] @ base).tolist())
    pos = {e: i for i, e in enumerate(elements)}
    return FiniteGroup(order=n, mul=mul, identity=pos[identity_elt], inv=inv)


def _one_cochains(gamma: FiniteGroup, a: FiniteGroup):
    return [tuple(v) for v in
            itertools.product(range(a.order), repeat=gamma.order)]


def coboundary_hom(gamma: FiniteGroup, a: FiniteGroup, action=None):
    """The homomorphism d: C^1 -> Z^2 between pointwise groups."""
    _require_abelian(a)
    action = _resolve_action(gamma, a, action)
    cochains = _one_cochains(gamma, a)
    c1 = _pointwise_group(cochains, a, tuple([a.identity] * gamma.order))
    cocycles = two_cocycles(gamma, a, action)
    zpos = {z: i for i, z in enumerate(cocycles)}
    const_id = tuple(tuple(a.identity for _ in range(gamma.order))
                     for _ in range(gamma.order))
    z2 = _pointwise_group(cocycles, a, const_id)
    values = [zpos[coboundary(gamma, a, th, action)] for th in cochains]
    return make_hom(c1, z2, values)


def h2(gamma: FiniteGroup, a: FiniteGroup, action=None) -> FiniteGroup:
    """Z^2 modulo coboundaries."""
    grp, _ = cokernel_of_image(coboundary_hom(gamma, a, action))
    return grp


def h1(gamma: FiniteGroup, a: FiniteGroup, action=None) -> FiniteGroup:
    """Crossed homomorphisms modulo principal ones."""
    _require_abelian(a)
    action = _resolve_action(gamma, a, action)
    homs = crossed_homs(gamma, a, action)
    z1 = _pointwise_group(homs, a, tuple([a.identity] * gamma.order))
    zpos = {t: i for i, t in enumerate(homs)}
    values = []
    for elt in range(a.order):
        principal = tuple(a.mul[action.act[elt][x]][a.inv[elt]]
                          for x in range(gamma.order))
        values.append(zpos[principal])
    grp, _ = cokernel_of_image(make_hom(a, z1, values))
    return grp


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
