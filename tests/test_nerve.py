import pytest

from twotypes import nerve as nerve_mod
from twotypes.fingroup import cyclic, find_isomorphism, trivial_group
from twotypes.nerve import (
    induced_pi, nerve, nerve_of_weak_functor,
    nerve_preserves_fiber_products, simplicial_map_to_weak_functor,
    two_simplex_index, two_simplices,
)
from twotypes.simpset import (
    check_simplicial_map, compose_maps, in_sset2, simplicial_maps,
)
from twotypes.twogpd import (
    check_2functor, compose_2functors, enumerate_2functors,
    fiber_product_2gpd, identity_functor, point_2gpd, xmod_to_2group,
)
from twotypes.weakmaps import enumerate_weak_functors
from twotypes.xmod import pi1, pi2, xmod_b2g, xmod_bg, xmod_identity


def bg(n):
    return xmod_to_2group(xmod_bg(cyclic(n)))


def b2g(m):
    return xmod_to_2group(xmod_b2g(cyclic(m)))


class TestCounts:
    def test_point(self):
        assert nerve(point_2gpd()).counts == (1, 1, 1, 1, 1)

    def test_one_object_one_loop(self):
        assert nerve(bg(2)).counts == (1, 2, 4, 8, 16)

    def test_one_object_one_2cell(self):
        assert nerve(b2g(2)).counts == (1, 1, 2, 8, 64)
        assert nerve(b2g(3)).counts == (1, 1, 3, 27, 729)

    def test_two_simplices_are_sorted_triples(self):
        g = bg(2)
        tris = two_simplices(g)
        assert len(tris) == 4
        assert two_simplex_index(g) == {t: i for i, t in enumerate(tris)}

    def test_basepoint(self):
        assert nerve(bg(3)).basepoint == 0


class TestConditions:
    def test_nerves_are_kan_coskeletal_minimal(self, gpd_nerves):
        small = {"pt", "b_z2", "b2_z2", "id_z2", "b_z3"}
        for name, xm, g, x in gpd_nerves:
            if name in small:
                assert in_sset2(x).ok

    def test_cache_returns_same_object(self):
        g = bg(2)
        assert nerve(g) is nerve(g)


class TestFunctorNerves:
    def test_nerve_of_identity(self):
        g = bg(2)
        m = nerve_of_weak_functor(identity_functor(g))
        x = nerve(g)
        assert m.levels == tuple(tuple(range(c)) for c in x.counts[:4])

    def test_composition(self):
        g = bg(2)
        funcs = enumerate_2functors(g, g)
        for F in funcs:
            for G in funcs:
                lhs = nerve_of_weak_functor(compose_2functors(F, G))
                rhs = compose_maps(nerve_of_weak_functor(F),
                                   nerve_of_weak_functor(G))
                assert lhs.levels == rhs.levels

    def test_weak_functor_bijection(self):
        # nerve realizes the weak functors exactly as the simplicial maps
        for D, C in [(bg(2), b2g(2)), (bg(2), b2g(3)), (bg(3), b2g(2))]:
            funcs = enumerate_weak_functors(D, C)
            images = {nerve_of_weak_functor(F).levels for F in funcs}
            maps = simplicial_maps(nerve(D), nerve(C))
            assert len(images) == len(funcs)
            assert images == {m.levels[:4] for m in maps}

    def test_simplicial_map_roundtrip(self):
        D, C = bg(2), b2g(2)
        for F in enumerate_weak_functors(D, C):
            m = nerve_of_weak_functor(F)
            back = simplicial_map_to_weak_functor(m, D, C)
            assert (back.obj_map, back.map1, back.map2, back.eps) == \
                   (F.obj_map, F.map1, F.map2, F.eps)


class TestInducedPi:
    def test_identity_functor(self):
        g = bg(3)
        p0, p1h, p2h = induced_pi(identity_functor(g))
        assert p0 == (0,)
        assert p1h.image == tuple(range(p1h.dom.order))
        assert p2h.image == tuple(range(p2h.dom.order))

    def test_collapse_kills_pi1(self):
        g = bg(2)
        pt = point_2gpd()
        F = check_2functor(g, pt, [0], [0, 0], [0, 0])
        _, p1h, _ = induced_pi(F)
        assert p1h.dom.order == 2 and p1h.cod.order == 1

    def test_matches_xmod_invariants(self, gpd_nerves):
        for name, xm, g, x in gpd_nerves:
            _, p1h, p2h = induced_pi(identity_functor(g))
            assert find_isomorphism(p1h.dom, pi1(xm)) is not None
            assert find_isomorphism(p2h.dom, pi2(xm)) is not None


def collapse(g):
    """The functor from g to the point."""
    return check_2functor(g, point_2gpd(), [0] * g.n_objects, [0] * g.n1,
                          [0] * g.n2)


def point_over_group():
    g = bg(2)
    return check_2functor(point_2gpd(), g, [0], [g.id1[0]],
                          [g.id2[g.id1[0]]]), identity_functor(g)


# name -> the cospan (F, G); every fiber product these tests build
COSPANS = {
    "point_over_group": point_over_group,
    "diagonal": lambda: (identity_functor(b2g(2)),) * 2,
    "two_collapses": lambda: (collapse(bg(2)),) * 2,
    "id_z3_times_b2_z2": lambda: (
        collapse(xmod_to_2group(xmod_identity(cyclic(3)))), collapse(b2g(2))),
    "b2_z2_over_b_z2": lambda: (
        check_2functor(b2g(2), bg(2), [0], [0], [0, 0]),
        identity_functor(bg(2))),
}


class TestFiberProducts:
    def test_point_over_group(self):
        assert nerve_preserves_fiber_products(*COSPANS["point_over_group"]())

    def test_diagonal(self):
        assert nerve_preserves_fiber_products(*COSPANS["diagonal"]())

    def test_two_collapses(self):
        assert nerve_preserves_fiber_products(*COSPANS["two_collapses"]())

    @staticmethod
    def broken(monkeypatch, breaks):
        """The check on two collapses of BZ/2, with breaks(pairs, pos)
        applied to the levelwise pullback it reads."""
        real = nerve_mod.sset_fiber_product

        def broken_product(f, g):
            fib, pairs, pos = real(f, g)
            breaks(pairs, pos)
            return fib, pairs, pos
        monkeypatch.setattr(nerve_mod, "sset_fiber_product", broken_product)
        return nerve_preserves_fiber_products(*COSPANS["two_collapses"]())

    def test_a_simplex_missing_from_the_pullback(self, monkeypatch):
        assert not self.broken(
            monkeypatch, lambda pairs, pos: pos[1].pop(pairs[1][-1]))

    def test_a_pullback_level_with_an_extra_simplex(self, monkeypatch):
        assert not self.broken(
            monkeypatch, lambda pairs, pos: pairs[1].append(pairs[1][0]))

    def test_a_bijection_that_is_not_simplicial(self, monkeypatch):
        # the identity edge (0, 0) swapped with (1, 1): s0 fails
        def swap(pairs, pos):
            a, b = pairs[1][0], pairs[1][-1]
            pos[1][a], pos[1][b] = pos[1][b], pos[1][a]
        assert not self.broken(monkeypatch, swap)

    @pytest.mark.parametrize("name", COSPANS)
    def test_projections_pass_the_audit(self, name):
        # fiber_product_2gpd builds its projections without an audit
        F, G = COSPANS[name]()
        P, px, py = fiber_product_2gpd(F, G)
        for proj, Z in ((px, F.dom), (py, G.dom)):
            assert proj.dom is P and proj.cod is Z
            assert check_2functor(P, Z, proj.obj_map, proj.map1,
                                  proj.map2) == proj
        # the square commutes on every cell
        for a, b, f, g in ((px.obj_map, py.obj_map, F.obj_map, G.obj_map),
                           (px.map1, py.map1, F.map1, G.map1),
                           (px.map2, py.map2, F.map2, G.map2)):
            assert [f[v] for v in a] == [g[v] for v in b]
