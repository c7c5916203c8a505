import itertools
import random
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotypes import cohom, fingroup
from twotypes.cohom import (
    ANotAbelian, _require_abelian, _resolve_action, coboundary_hom,
    extension_xmod, h1, h2, two_cocycles, weakmap_class_count_vs_h2,
)
from twotypes.fingroup import (
    cyclic, direct_product, find_isomorphism, inversion_action_z2_on,
    klein_four,
    make_action, make_group, make_hom, symmetric3, trivial_action,
    trivial_group,
)
from twotypes.search import Budget, SizeCapExceeded, search
from twotypes.xmod import pi1, pi2


def _is_cocycle(gamma, a, f, action=None):
    for x in range(gamma.order):
        for y in range(gamma.order):
            for z in range(gamma.order):
                fxy = f[x][y] if action is None else action.act[f[x][y]][z]
                lhs = a.mul[fxy][f[gamma.mul[x][y]][z]]
                rhs = a.mul[f[y][z]][f[x][gamma.mul[y][z]]]
                if lhs != rhs:
                    return False
    return True


class TestCocycles:
    def test_counts(self):
        assert len(two_cocycles(cyclic(2), cyclic(2))) == 4
        assert len(two_cocycles(cyclic(4), cyclic(4))) == 256
        # |Z2| = |B2| * |H2| = (4^4 / |Hom(V4,Z4)|) * 8 = 64 * 8
        assert len(two_cocycles(klein_four(), cyclic(4))) == 512

    def test_all_satisfy_identity(self):
        gamma, a = cyclic(3), cyclic(3)
        for f in two_cocycles(gamma, a):
            assert _is_cocycle(gamma, a, f)

    def test_nonabelian_coefficients_rejected(self):
        with pytest.raises(ANotAbelian):
            two_cocycles(cyclic(2), symmetric3())

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    def test_coboundaries_are_cocycles(self, theta):
        gamma = a = cyclic(4)
        assert _is_cocycle(gamma, a, coboundary(gamma, a, theta))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 3), st.lists(st.integers(0, 1), min_size=2,
                                       max_size=2))
    def test_cocycle_times_coboundary_is_cocycle(self, idx, theta):
        gamma = a = cyclic(2)
        zs = two_cocycles(gamma, a)
        f = zs[idx % len(zs)]
        d = coboundary(gamma, a, theta)
        prod = tuple(tuple(a.mul[f[x][y]][d[x][y]] for y in range(2))
                     for x in range(2))
        assert prod in zs


# -- oracles: cochains listed as tables and flat tuples of A ----------------

def coboundary(gamma, a, theta, action=None):
    """(d theta)(x, y) = theta(x)^y theta(y) theta(xy)^{-1}."""
    action = _resolve_action(gamma, a, action)
    n = gamma.order
    return tuple(tuple(
        a.mul[a.mul[action.act[theta[x]][y]][theta[y]]][
            a.inv[theta[gamma.mul[x][y]]]]
        for y in range(n)) for x in range(n))


def crossed_homs(gamma, a, action=None):
    """1-cocycles: theta with theta(xy) = theta(x)^y theta(y)."""
    _require_abelian(a)
    action = _resolve_action(gamma, a, action)
    n = gamma.order
    theta = {}
    constraints = [((x, y, gamma.mul[x][y]), lambda x=x, y=y:
                    theta[gamma.mul[x][y]]
                    == a.mul[action.act[theta[x]][y]][theta[y]])
                   for x, y in itertools.product(range(n), repeat=2)]
    return [tuple(theta[x] for x in range(n))
            for _ in search(range(n), lambda x: range(a.order), constraints,
                            theta, Budget(10 ** 6, "crossed homs"))]


def _flat(table):
    return tuple(itertools.chain.from_iterable(table))


def _times(a, u, v):
    return tuple(a.mul[x][y] for x, y in zip(u, v))


def _quotient(a, cocycles, bounds):
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


def oracle_h2(gamma, a, action=None):
    """The 2-cocycles, listed by search, modulo the coboundaries of every
    1-cochain."""
    cocycles = [_flat(z) for z in two_cocycles(gamma, a, action)]
    bounds = dict.fromkeys(
        _flat(coboundary(gamma, a, theta, action))
        for theta in itertools.product(range(a.order), repeat=gamma.order))
    return _quotient(a, cocycles, bounds)


def oracle_h1(gamma, a, action=None):
    """The crossed homomorphisms, listed by search, modulo the principal
    ones x -> e^x e^-1."""
    act = action if action is not None else trivial_action(gamma, a)
    principal = dict.fromkeys(
        tuple(a.mul[act.act[e][x]][a.inv[e]] for x in gamma.elements)
        for e in a.elements)
    return _quotient(a, crossed_homs(gamma, a, action), principal)


def _sign_action(a):
    """S3 acting on an abelian group through its sign: transpositions (the
    elements of order 2) invert."""
    s3 = symmetric3()
    odd = [s3.element_order(x) == 2 for x in s3.elements]
    return make_action(s3, a, [[a.inv[v] if odd[x] else v
                                for x in s3.elements] for v in a.elements])


def _swap_action():
    """Z/2 swapping the two factors of V4 (elements as bit pairs)."""
    return make_action(cyclic(2), klein_four(),
                       [[v, (v & 1) << 1 | v >> 1] for v in range(4)])


def _twisted(action, name):
    return pytest.param(action.actor, action.space, action, id=name)


# On these pairs the oracle takes a second or more (the 2-cocycle search of
# S3 or Z/6 with coefficients of order 4 or 5); the golden CLI file pins S3
# with Z/4 and V4, and test_h2_z6_z4_is_cyclic_of_order_2 and
# test_cyclic_orders_are_gcd pin the cyclic ones.
SLOW_FOR_ORACLE = {("z6", "z4"), ("z6", "z5"), ("z6", "v4"), ("s3", "z4"),
                   ("s3", "z5"), ("s3", "v4")}
_COEFFS = {"z2": cyclic(2), "z3": cyclic(3), "z4": cyclic(4),
           "z5": cyclic(5), "v4": klein_four()}
_GAMMAS = dict(_COEFFS, z6=cyclic(6), s3=symmetric3())
ORACLE_CASES = [
    pytest.param(_GAMMAS[g], _COEFFS[a], None, id=f"{g}/{a}")
    for g, a in itertools.product(_GAMMAS, _COEFFS)
    if (g, a) not in SLOW_FOR_ORACLE
] + [
    _twisted(inversion_action_z2_on(_COEFFS[a]), f"z2-inv/{a}")
    for a in ("z3", "z4", "z5", "v4")
] + [
    _twisted(_sign_action(cyclic(3)), "s3-sign/z3"),
    _twisted(_sign_action(cyclic(4)), "s3-sign/z4"),
    _twisted(_swap_action(), "z2-swap/v4"),
]


def _isomorphic(g, h):
    """An explicit isomorphism exists, at every order."""
    return find_isomorphism(g, h) is not None


def _relabelled(g, seed):
    """g with its elements renamed by a permutation drawn from the seed."""
    perm = list(range(g.order))
    random.Random(seed).shuffle(perm)
    back = {new: old for old, new in enumerate(perm)}
    return make_group([[perm[g.mul[back[x]][back[y]]] for y in g.elements]
                       for x in g.elements])


class TestCohomologyGroups:
    def test_oracle_orders(self):
        assert h2(cyclic(2), cyclic(2)).order == 2
        assert h1(cyclic(2), cyclic(2)).order == 2
        assert h2(cyclic(3), cyclic(3)).order == 3
        assert h2(cyclic(3), cyclic(2)).order == 1
        assert h2(cyclic(2), klein_four()).order == 4
        assert h2(klein_four(), cyclic(2)).order == 8

    def test_h1_is_hom_group_for_trivial_action(self):
        for gamma, a in [(cyclic(2), cyclic(4)), (cyclic(4), cyclic(2)),
                         (klein_four(), cyclic(2))]:
            homs = 0
            for vals in itertools.product(range(a.order),
                                          repeat=gamma.order):
                try:
                    make_hom(gamma, a, vals)
                    homs += 1
                except Exception:
                    pass
            assert h1(gamma, a).order == homs

    def test_crossed_homs_trivial_action_are_homs(self):
        gamma, a = cyclic(2), cyclic(2)
        assert len(crossed_homs(gamma, a)) == 2

    def test_coboundary_hom_kernel_is_h1_for_trivial_gamma_part(self):
        # normalized cochains: C^1 and Z^2 each hold one copy of Z/2, for
        # the one element of Z/2 other than e and the one cell (1, 1)
        d = coboundary_hom(cyclic(2), cyclic(2))
        assert d.dom.order == 2
        assert d.cod.order == 2

    def test_h2_z6_z4_is_cyclic_of_order_2(self):
        g = h2(cyclic(6), cyclic(4))
        assert sorted(g.element_order(x) for x in range(g.order)) == [1, 2]

    def test_h2_of_order_512_is_quick(self):
        # the audit of the 512-element answer dominates this case
        a = direct_product(cyclic(2), klein_four())
        start = time.perf_counter()
        g = h2(klein_four(), a)
        assert time.perf_counter() - start < 6
        assert g.order == 512 and g.is_abelian()

    @pytest.mark.parametrize("n,m", itertools.product(range(2, 6), repeat=2))
    def test_cyclic_orders_are_gcd(self, n, m):
        assert h1(cyclic(n), cyclic(m)).order == gcd(n, m)
        assert h2(cyclic(n), cyclic(m)).order == gcd(n, m)

    def test_no_cochain_cayley_tables(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("called")

        for module, name in ((cohom, "coboundary_hom"), (cohom, "make_hom"),
                             (fingroup, "make_hom"),
                             (fingroup, "cokernel_of_image"),
                             (cohom, "two_cocycles"), (cohom, "search")):
            monkeypatch.setattr(module, name, boom)
        assert h1(symmetric3(), cyclic(2)).order == 2
        assert h2(klein_four(), cyclic(2)).order == 8

    @pytest.mark.parametrize("a", [cyclic(3), cyclic(4)], ids=["z3", "z4"])
    def test_blind_to_the_labelling_of_gamma(self, a):
        built = symmetric3()
        for fn in (h1, h2):
            budget = Budget(10 ** 6, "cohomology")
            want = fn(built, a, cap=budget)
            for seed in (1, 2, 3):
                other = Budget(10 ** 6, "cohomology")
                got = fn(_relabelled(built, seed), a, cap=other)
                assert find_isomorphism(got, want) is not None
                assert other.steps == budget.steps

    def test_steps_are_matrix_entries(self):
        # S3 on Z/4, one cyclic factor, on the 5 elements other than e,
        # with a generating set of 2: h1 builds d0 (5 x 1) and the rows of
        # d1 at the generators (10 x 5), h2 builds d1 whole (25 x 5) and
        # the rows of d2 at the generators (50 x 25)
        budget = Budget(10 ** 6, "cohomology")
        h1(symmetric3(), cyclic(4), cap=budget)
        assert budget.steps == 5 + 50 == 55
        h2(symmetric3(), cyclic(4), cap=budget)
        assert budget.steps == 5 + 50 + 125 + 50 * 25 == 1430
        # V4 on V4, two cyclic factors and two generators: d0 is (3*2) x 2,
        # the rows of d1 at the generators (2*3*2) x (3*2)
        budget = Budget(10 ** 6, "cohomology")
        h1(klein_four(), klein_four(), cap=budget)
        assert budget.steps == 6 * 2 + 12 * 6 == 84
        h2(symmetric3(), cyclic(4), cap=125 + 50 * 25)
        with pytest.raises(SizeCapExceeded):
            h2(symmetric3(), cyclic(4), cap=125 + 50 * 25 - 1)

    def test_cap_counts_the_answer_table(self, monkeypatch):
        # H1(Z/2, V4) = Hom(Z/2, V4) has 4 elements, so 16 table entries,
        # against 8 steps of d0 and d1; the entries take no step
        budget = Budget(16, "cohomology")
        assert h1(cyclic(2), klein_four(), cap=budget).order == 4
        assert budget.steps == 8
        with pytest.raises(SizeCapExceeded, match="^cohomology: 16 table "
                           "entries exceed the cap of 15$"):
            h1(cyclic(2), klein_four(), cap=15)

        def boom(*args, **kwargs):
            raise AssertionError("table built")

        monkeypatch.setattr(cohom, "_sum_group", boom)
        with pytest.raises(SizeCapExceeded, match="16777216 table entries"):
            h2(klein_four(), direct_product(klein_four(), klein_four()))

    @pytest.mark.parametrize("fn", [coboundary_hom, extension_xmod])
    def test_cochain_list_and_cocycle_search_share_a_cap(self, fn):
        # Z/2 on Z/2: d1 and d2 have 1 entry each, |C^1| = |Z^2| = 2, so 6
        # steps, and then two tables of 4 entries
        with pytest.raises(SizeCapExceeded, match="exceeded the cap of 5 "
                           "steps"):
            fn(cyclic(2), cyclic(2), cap=5)
        budget = Budget(10 ** 6, "coboundary hom")
        fn(cyclic(2), cyclic(2), cap=budget)
        assert budget.steps == 6
        fn(cyclic(2), cyclic(2), cap=8)
        with pytest.raises(SizeCapExceeded, match="^coboundary hom: tables "
                           "of 8 entries exceed the cap of 7$"):
            fn(cyclic(2), cyclic(2), cap=7)

    def test_cap_counts_every_element_before_a_table(self, monkeypatch):
        # V4 on V4: 108 entries of d1, 648 of the rows of d2 at the two
        # generators, |C^1| = 64 and |Z^2| = 256, so 1 076 steps, all
        # before the first table; the two tables then hold
        # 64^2 + 256^2 = 69 632 entries
        built = []
        sum_group = cohom._sum_group

        def spy(orders):
            built.append(orders)
            return sum_group(orders)

        monkeypatch.setattr(cohom, "_sum_group", spy)
        with pytest.raises(SizeCapExceeded, match="^coboundary hom exceeded "
                           "the cap of 1075 steps$"):
            extension_xmod(klein_four(), klein_four(), cap=1076 - 1)
        # at 1 076 every step passes, and the tables are the first refused
        with pytest.raises(SizeCapExceeded, match="^coboundary hom: tables "
                           "of 69632 entries exceed the cap of 1076$"):
            extension_xmod(klein_four(), klein_four(), cap=1076)
        with pytest.raises(SizeCapExceeded, match="^coboundary hom: tables "
                           "of 69632 entries exceed the cap of 69631$"):
            extension_xmod(klein_four(), klein_four(), cap=69_632 - 1)
        assert built == []
        xm = extension_xmod(klein_four(), klein_four(), cap=69_632)
        assert (xm.g2.order, xm.g1.order) == (64, 256) and len(built) == 2

    def test_tables_of_coboundary_hom_are_admitted_at_once(self):
        # Z/6 on Z/4: 2 798 steps, and |C^1| = |Z^2| = 1 024, so tables of
        # 2 097 152 entries
        start = time.process_time()
        with pytest.raises(SizeCapExceeded, match="^coboundary hom: tables "
                           "of 2097152 entries exceed the cap of 5298$"):
            extension_xmod(cyclic(6), cyclic(4), cap=5298)
        assert time.process_time() - start < 1

    @pytest.mark.parametrize("gamma,a,action", ORACLE_CASES)
    def test_matches_coset_oracle(self, gamma, a, action):
        assert _isomorphic(h1(gamma, a, action), oracle_h1(gamma, a, action))
        assert _isomorphic(h2(gamma, a, action), oracle_h2(gamma, a, action))

    @pytest.mark.parametrize("cocycles,bounds", [
        ([0, 2], [0, 1]),           # 1 is not a cocycle
        ([0, 1, 2, 3], [0, 1, 2]),  # the cosets of 0 and 3 overlap
        ([0, 1, 2, 3], [1]),        # 0 and 2 are in no class
    ])
    def test_quotient_rejects_bad_cosets(self, cocycles, bounds):
        with pytest.raises(ValueError):
            _quotient(cyclic(4), [(v,) for v in cocycles],
                      [(v,) for v in bounds])


class TestExtensionXmod:
    def test_invariants_match_cohomology(self):
        for gamma, a in [(cyclic(2), cyclic(2)), (cyclic(3), cyclic(2)),
                         (cyclic(2), cyclic(3))]:
            e = extension_xmod(gamma, a)
            assert find_isomorphism(pi1(e), h2(gamma, a)) is not None
            assert find_isomorphism(pi2(e), h1(gamma, a)) is not None

    @pytest.mark.parametrize("action", [
        inversion_action_z2_on(cyclic(3)), inversion_action_z2_on(cyclic(4)),
        _sign_action(cyclic(3))], ids=["z2-inv/z3", "z2-inv/z4",
                                       "s3-sign/z3"])
    def test_invariants_with_an_action(self, action):
        # pi2 is Z^1, not H^1: for S3 on Z/3 by its sign |Z^1| = 9 and
        # |H^1| = 3
        gamma, a = action.actor, action.space
        e = extension_xmod(gamma, a, action)
        assert find_isomorphism(pi1(e), h2(gamma, a, action)) is not None
        assert pi2(e).order == len(crossed_homs(gamma, a, action))

    def test_trivial_group_cases(self):
        t = trivial_group()
        assert h1(t, cyclic(4)).order == 1
        assert h2(t, cyclic(4)).order == 1
        assert h2(cyclic(4), t).order == 1


class TestWeakMapComparison:
    def test_classes_match_h2(self):
        assert weakmap_class_count_vs_h2(2, 2)
        assert weakmap_class_count_vs_h2(2, 3)
        assert weakmap_class_count_vs_h2(3, 3)
