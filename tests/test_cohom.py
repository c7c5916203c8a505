import itertools
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twotypes import cohom, fingroup
from twotypes.cohom import (
    ANotAbelian, _pointwise_group, _quotient, coboundary, coboundary_hom,
    crossed_homs, extension_xmod, h1, h2, two_cocycles,
    weakmap_class_count_vs_h2,
)
from twotypes.fingroup import (
    cyclic, find_isomorphism, klein_four, make_hom, symmetric3, trivial_group,
)
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
        d = coboundary_hom(cyclic(2), cyclic(2))
        assert d.dom.order == 4
        assert d.cod.order == 4

    def test_h2_z6_z4_is_cyclic_of_order_2(self):
        g = h2(cyclic(6), cyclic(4))
        assert sorted(g.element_order(x) for x in range(g.order)) == [1, 2]

    @pytest.mark.parametrize("n,m", itertools.product(range(2, 6), repeat=2))
    def test_cyclic_orders_are_gcd(self, n, m):
        assert h1(cyclic(n), cyclic(m)).order == gcd(n, m)
        assert h2(cyclic(n), cyclic(m)).order == gcd(n, m)

    def test_no_cochain_cayley_tables(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("called")

        for module, name in ((cohom, "_pointwise_group"), (cohom, "make_hom"),
                             (fingroup, "make_hom"),
                             (fingroup, "cokernel_of_image")):
            monkeypatch.setattr(module, name, boom)
        assert h1(symmetric3(), cyclic(2)).order == 2
        assert h2(klein_four(), cyclic(2)).order == 8

    def test_pointwise_group_keys_are_exact(self):
        # 4^35 > 2^63: no int64 code can index these tables
        g = _pointwise_group([(0,) * 36, (2,) * 36], cyclic(4))
        assert g.order == 2
        assert g.mul == ((0, 1), (1, 0))

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
