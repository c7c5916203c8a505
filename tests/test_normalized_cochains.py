"""H1, H2 and the coboundary crossed module on normalized cochains against
the full bar complex.

old_coboundary_rows and old_cocycle_lattice are copies of the cochain
lattice that cohom built before its cochains were normalized: every
function Gamma^n -> A, one copy of A per cell of Gamma^n.  old_h and
old_z1 read H^n and Z^1 off that lattice with the library's own Smith
form, so the two answers differ only in the complex they come from.
"""

import itertools
from math import lcm

import pytest

from twotypes.cohom import (
    _coordinates, _cut, _cyclic_decomposition, _diagonal, _hermite,
    _require_abelian, _resolve_action, _smith, _sum_group, extension_xmod,
    h1, h2,
)
from twotypes.fingroup import (
    cyclic, inversion_action_z2_on, klein_four, make_group, symmetric3,
)
from twotypes.search import Budget
from twotypes.xmod import pi1, pi2

from test_cohom import ORACLE_CASES, _isomorphic


def old_coboundary_rows(gamma, mats, orders, n):
    """The rows of dn, one per coordinate (cell, i) of C^(n+1) in the order
    of the cells of Gamma^(n+1) and then i, each a dict from the coordinates
    of C^n to coefficients, reduced modulo d_i."""
    size, mul, r = gamma.order, gamma.mul, len(orders)

    def at(cell):
        pos = 0
        for x in cell:
            pos = pos * size + x
        return pos * r

    rows = []
    for cell in itertools.product(range(size), repeat=n + 1):
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
        for i, d in enumerate(orders):
            row = {}
            for coef, src in terms:
                base = at(src)
                if isinstance(coef, int):
                    row[base + i] = row.get(base + i, 0) + coef
                else:
                    for j in range(r):
                        row[base + j] = row.get(base + j, 0) + coef[i][j]
            rows.append({j: c % d for j, c in row.items() if c % d})
    return rows


def old_cocycle_lattice(gamma, a, action, n, budget):
    """(orders, images, cocycles) for C^n, the vectors of Z^width modulo
    the orders of the cyclic factors of A, repeated for each cell of
    Gamma^n: images[j] is d(n-1) of the j-th coordinate of C^(n-1), and
    cocycles is the Hermite basis of the preimage of ker dn in Z^width.
    One budget step per entry of each matrix, counted before it is built."""
    _require_abelian(a)
    action = _resolve_action(gamma, a, action)
    orders, coords = _cyclic_decomposition(a)
    r, size = len(orders), gamma.order
    e = lcm(*orders)
    unit = {coords[x]: x for x in range(a.order)}
    basis = [unit[tuple(int(i == j) for j in range(r))] for i in range(r)]
    mats = [[[coords[action.act[basis[j]][x]][i] for j in range(r)]
             for i in range(r)] for x in range(size)]
    width = size ** n * r
    budget.tick(width * size ** (n - 1) * r)
    lower = old_coboundary_rows(gamma, mats, orders, n - 1)
    budget.tick(size ** (n + 1) * r * width)
    upper = old_coboundary_rows(gamma, mats, orders, n)
    cocycles = _hermite(_cut(upper, orders * size ** (n + 1), width, e),
                        width, e)
    images = [[0] * width for _ in range(size ** (n - 1) * r)]
    for i, row in enumerate(lower):
        for j, c in row.items():
            images[j][i] = c
    return orders, images, cocycles


def _quotient(cocycles, bounds, mod):
    return make_group(_sum_group(sorted(f for f in _smith(
        (_coordinates(cocycles, b) for b in bounds), len(cocycles), mod)
        if f > 1)).mul)


def old_h(gamma, a, action, n):
    """ker dn / im d(n-1) on the full bar complex."""
    orders, images, cocycles = old_cocycle_lattice(
        gamma, a, action, n, Budget(10 ** 6, "cohomology"))
    return _quotient(cocycles, images + _diagonal(orders * gamma.order ** n),
                     lcm(*orders))


def old_z1(gamma, a, action):
    """ker d1, the crossed homomorphisms, on the full bar complex."""
    orders, _, cocycles = old_cocycle_lattice(
        gamma, a, action, 1, Budget(10 ** 6, "cohomology"))
    return _quotient(cocycles, _diagonal(orders * gamma.order),
                     lcm(*orders))


_ABELIAN = {f"z{n}": cyclic(n) for n in range(1, 7)} | {"v4": klein_four()}
_GAMMAS = _ABELIAN | {"s3": symmetric3()}
CASES = [
    pytest.param(_GAMMAS[g], _ABELIAN[a], None, id=f"{g}/{a}")
    for g, a in itertools.product(_GAMMAS, _ABELIAN)
] + [
    pytest.param(cyclic(2), a, inversion_action_z2_on(a), id=f"z2-inv/{name}")
    for name, a in _ABELIAN.items()
] + [
    pytest.param(*case.values, id=f"oracle-{case.id}")
    for case in ORACLE_CASES
]
# extension_xmod builds the tables of C^1 and Z^2 and audits the crossed
# module, which takes over a second once |C^1| = |A|^(|Gamma|-1) passes 625
EXTENSION_LIMIT = 625


def test_cases_cover_a_trivial_gamma_and_a_trivial_a():
    ids = {case.id for case in CASES}
    assert {"z1/z4", "s3/z1", "z1/z1", "z2-inv/z1"} <= ids


@pytest.mark.parametrize("gamma,a,action", CASES)
def test_h1_h2_match_the_full_bar_complex(gamma, a, action):
    assert _isomorphic(h1(gamma, a, action), old_h(gamma, a, action, 1))
    assert _isomorphic(h2(gamma, a, action), old_h(gamma, a, action, 2))


@pytest.mark.parametrize("gamma,a,action", [
    case for case in CASES
    if case.values[1].order ** (case.values[0].order - 1) <= EXTENSION_LIMIT])
def test_extension_xmod_invariants(gamma, a, action):
    e = extension_xmod(gamma, a, action)
    assert e.g2.order == a.order ** (gamma.order - 1)
    assert _isomorphic(pi1(e), h2(gamma, a, action))
    z1 = old_z1(gamma, a, action)
    assert _isomorphic(pi2(e), z1)
    if action is None:
        assert _isomorphic(z1, h1(gamma, a))
