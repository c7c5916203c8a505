"""The cocycles of H1 and H2 are cut by the rows of dn at the cells whose
first entry is a generator of Gamma, and read on the coordinates at those
cells alone; these tests check both against every row of dn, and the
answers on groups of order 8 with two generators.

full_rows builds every row of dn on normalized cochains from the full bar
complex of test_normalized_cochains (old_coboundary_rows): its rows at the
cells with no identity entry, on the columns of such cells, in cohom's
order of the cells (Gamma* listed generators first).
"""

import itertools
from math import gcd, lcm, prod

import pytest

from twotypes.cohom import (
    _cocycle_lattice, _coboundary_rows, _coordinates, _cut,
    _cyclic_decomposition, _hermite, _resolve_action, h1, h2,
)
from twotypes.fingroup import (
    cyclic, direct_product, generating_set, inversion_action_z2_on,
    klein_four, semidirect,
)
from twotypes.search import Budget

from test_normalized_cochains import CASES, old_coboundary_rows


def full_rows(gamma, a, action, n):
    """(rows, moduli, columns, at_generators): each row of dn at a cell of
    Gamma*^(n+1) and coordinate i, with its modulus d_i, on the coordinates
    of normalized C^n, whose moduli are columns; and the rows of dn at the
    cells that start with a generator, as cohom builds them, with theirs."""
    action = _resolve_action(gamma, a, action)
    orders, coords = _cyclic_decomposition(a)
    r, one = len(orders), gamma.identity
    unit = {coords[x]: x for x in range(a.order)}
    basis = [unit[tuple(int(i == j) for j in range(r))] for i in range(r)]
    mats = [[[coords[action.act[basis[j]][x]][i] for j in range(r)]
             for i in range(r)] for x in range(gamma.order)]
    gens = generating_set(gamma)
    cells = gens + [x for x in gamma.elements if x not in gens and x != one]
    pos = {x: k for k, x in enumerate(cells)}
    column = {}
    for old, cell in enumerate(itertools.product(range(gamma.order),
                                                 repeat=n)):
        if one not in cell:
            new = sum(pos[x] * len(cells) ** (n - 1 - k)
                      for k, x in enumerate(cell))
            column.update({old * r + i: new * r + i for i in range(r)})
    every = old_coboundary_rows(gamma, mats, orders, n)
    rows, moduli = [], []
    for k, cell in enumerate(itertools.product(range(gamma.order),
                                               repeat=n + 1)):
        if one not in cell:
            for i, d in enumerate(orders):
                rows.append({column[j]: c for j, c in every[k * r + i].items()
                             if j in column})
                moduli.append(d)
    ours = _coboundary_rows(gamma, mats, orders, n, cells, gens)
    return rows, moduli, orders * len(cells) ** n, (
        ours, [orders[k % r] for k in range(len(ours))])


def _pivots(basis):
    return prod(v[k] for k, v in enumerate(basis))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("gamma,a,action", CASES)
def test_generator_rows_cut_the_lattice_of_all_rows(gamma, a, action, n):
    rows, moduli, columns, at_generators = full_rows(gamma, a, action, n)
    e, width = lcm(*columns), len(columns)
    cut = _hermite(_cut(*at_generators, width, e), width, e)
    for v in cut:
        for row, d in zip(rows, moduli):
            assert sum(c * v[j] for j, c in row.items()) % d == 0
    assert _pivots(cut) == _pivots(_hermite(_cut(rows, moduli, width, e),
                                            width, e))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("gamma,a,action", CASES)
def test_cocycles_are_read_at_the_generators(gamma, a, action, n):
    # cohom's basis spans the lattice that every row cuts, read on its
    # coordinates, and that read loses nothing: Z^n, the lattice modulo
    # the d_i, has the same order on those coordinates as on all of them
    _, _, cocycles = _cocycle_lattice(gamma, a, action, n,
                                      Budget(10 ** 6, "cohomology"))
    rows, moduli, columns, _ = full_rows(gamma, a, action, n)
    e, width, w = lcm(*columns), len(columns), len(cocycles)
    every = _cut(rows, moduli, width, e)
    read = _hermite(every, w, e)
    for v in cocycles:
        _coordinates(read, v)
    assert _pivots(cocycles) == _pivots(read)
    assert prod(columns[:w]) // _pivots(read) == (
        prod(columns) // _pivots(_hermite(every, width, e)))


def _element_orders(cyclic_orders):
    """The sorted element orders of the sum of the Z/d in cyclic_orders."""
    return sorted(lcm(*(d // gcd(x, d) for x, d in zip(elt, cyclic_orders)))
                  for elt in itertools.product(*map(range, cyclic_orders)))


def _homs(src, dst):
    """Hom and Ext between sums of cyclic groups: Z/gcd for each pair."""
    return [gcd(s, t) for s in src for t in dst if gcd(s, t) > 1]


def _d4():
    act = inversion_action_z2_on(cyclic(4))
    return semidirect(act.actor, act.space, act)


# Gamma of order 8 with two generators, its abelianization and H_2, both as
# cyclic orders; H_2 of D4 and of Z/2 x Z/4 is Z/2
GAMMAS = {"d4": (_d4, (2, 2), (2,)),
          "z2xz4": (lambda: direct_product(cyclic(2), cyclic(4)), (2, 4),
                    (2,))}
COEFFS = {"z2": (lambda: cyclic(2), (2,)), "z4": (lambda: cyclic(4), (4,)),
          "v4": (klein_four, (2, 2))}


@pytest.mark.parametrize("coeff", COEFFS)
@pytest.mark.parametrize("name", GAMMAS)
def test_order_8_by_universal_coefficients(name, coeff):
    # H1 = Hom(Gamma_ab, A) and H2 = Ext(Gamma_ab, A) + Hom(H_2, A)
    build, ab, schur = GAMMAS[name]
    make_a, a = COEFFS[coeff]
    gamma = build()
    assert gamma.order == 8
    for fn, want in ((h1, _homs(ab, a)),
                     (h2, _homs(ab, a) + _homs(schur, a))):
        got = fn(gamma, make_a())
        assert sorted(got.element_order(x) for x in range(got.order)) == (
            _element_orders(want))
