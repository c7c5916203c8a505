import dataclasses

import pytest

from twotypes import reconstruct as reconstruct_mod
from twotypes.fingroup import cyclic
from twotypes.nerve import nerve
from twotypes.reconstruct import (
    FillingFailure, RoundtripReport, choose_fillers, pentagon_via_4simplex,
    reconstruct, reconstruct_functor, roundtrip_report,
)
from twotypes.simpset import coskeleton, make_sset, simplicial_maps
from twotypes.twogpd import (
    build_two_groupoid, two_groupoid_isomorphic, xmod_to_2group,
)
from twotypes.weakmaps import to_strict
from twotypes.xmod import xmod_b2g, xmod_bg


def bg(n):
    return xmod_to_2group(xmod_bg(cyclic(n)))


def b2g(m):
    return xmod_to_2group(xmod_b2g(cyclic(m)))


def sphere_fixture():
    base = make_sset(
        2,
        [1, 1, 2],
        [(), [(0, 0)], [(0, 0, 0), (0, 0, 0)]],
        [[(0,)], [(0, 0)]])
    return coskeleton(base, 2, trunc=4)


class TestFillers:
    def test_identity_pairs_forced_degenerate(self):
        x = nerve(bg(2))
        fc = choose_fillers(x)
        e = x.degens[0][0][0]
        for f in range(x.counts[1]):
            assert fc.pairs[(f, e)] == x.degens[1][f][1]
            assert fc.pairs[(e, f)] == x.degens[1][f][0]

    def test_seeded_is_deterministic(self):
        x = nerve(b2g(2))
        assert choose_fillers(x, "seeded:5").pairs == \
            choose_fillers(x, "seeded:5").pairs

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            choose_fillers(nerve(bg(2)), "random")


class TestReconstruct:
    def test_counts_of_one_loop(self):
        x = nerve(bg(2))
        w = reconstruct(x)
        assert (w.n_objects, w.n1, w.n2) == (1, 2, 2)

    def test_canonical_fillers_recover_strict(self):
        for g in (bg(2), bg(3), b2g(2)):
            x = nerve(g)
            w = reconstruct(x, choose_fillers(x, "first"))
            assert two_groupoid_isomorphic(to_strict(w), g) is not None

    def test_roundtrip_is_cellwise_identity(self):
        x = nerve(b2g(3))
        rep = roundtrip_report(x)
        assert rep.simplicial
        assert all(rep.bijective)
        assert rep.counts_match
        assert rep.ok

    def test_seeded_reconstructions_audit(self):
        x = nerve(b2g(2))
        for s in range(5):
            fc = choose_fillers(x, f"seeded:{s}")
            reconstruct(x, fc)
            assert pentagon_via_4simplex(x, fc)
            assert roundtrip_report(x, fc).ok


class TestPentagon:
    def test_two_ways_agree_on_nerves(self):
        for g in (bg(2), b2g(2), b2g(3)):
            x = nerve(g)
            fc = choose_fillers(x)
            reconstruct(x, fc)  # audits the direct associativity sweep
            assert pentagon_via_4simplex(x, fc)

    def test_a_stored_level_4_without_an_assembled_row_fails(self):
        # the check assembles one 4-simplex per composable quadruple of
        # edges; B^2 Z/2 has one edge, so its one row is s0 s0 s0 s0 of the
        # vertex, each face s0 s0 s0 of it
        x = nerve(b2g(2))
        fc = choose_fillers(x)
        stored = tuple(x.faces[4])

        def without(row):
            return dataclasses.replace(x, faces=x.faces[:4] + (
                tuple(r for r in stored if r != row),))

        e = x.degens[0][x.basepoint][0]
        t = x.degens[2][x.degens[1][e][0]][0]
        assert pentagon_via_4simplex(without(None), fc)
        assert [row for row in stored
                if not pentagon_via_4simplex(without(row), fc)] == [(t,) * 5]

    def test_a_missing_tetrahedron_fails(self, monkeypatch):
        # every tetrahedron of N(BZ/2) is a face of an assembled 4-simplex
        x = nerve(bg(2))
        fc = choose_fillers(x)
        real = reconstruct_mod._positions

        def without_one(y, n):
            pos = dict(real(y, n))
            if n == 3:
                del pos[x.faces[3][-1]]
            return pos
        monkeypatch.setattr(reconstruct_mod, "_positions", without_one)
        assert not pentagon_via_4simplex(x, fc)


class TestFailures:
    def test_roundtrip_against_another_2groupoid_is_not_simplicial(self):
        # B^2 Z/2 with its identity 2-cell at index 1: the cells and counts
        # of the reconstruction of N(B^2 Z/2), but another labelling, so
        # the cellwise map sends a degenerate 2-simplex to one that is not
        x = nerve(b2g(2))
        swapped = [[1, 0], [0, 1]]
        gpd = build_two_groupoid(1, [0], [0], [0], [[0]], [0, 0], [0, 0],
                                 [1], swapped, swapped, basepoint=0)
        assert roundtrip_report(x, gpd=gpd) == RoundtripReport(
            simplicial=False, bijective=(False,) * 4, counts_match=True)
        assert roundtrip_report(x).ok

    def test_sphere_has_nonunique_fillers(self):
        with pytest.raises(FillingFailure):
            reconstruct(sphere_fixture())

    def test_failure_carries_witness(self):
        try:
            reconstruct(sphere_fixture())
        except FillingFailure as exc:
            assert exc.reason == "non-unique-horn-filler"
            assert exc.witness is not None


class TestFunctorTransport:
    def test_maps_between_nerves_become_weak_functors(self):
        xa, xb = nerve(bg(2)), nerve(b2g(2))
        fa, fb = choose_fillers(xa), choose_fillers(xb)
        maps = simplicial_maps(xa, xb)
        assert maps
        for m in maps:
            F = reconstruct_functor(m, fa, fb)
            assert F.map1 == m.levels[1]
