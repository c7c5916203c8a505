"""One input per audit violation that no other test raises, each checked
for its axiom name and its witness.

The simplicial-identity cases start from the nerve of B(Z/2) cut at level
2: one vertex, the edges e = 0 and g = 1, and the 2-simplices (e, e),
(e, g) = s_0 g, (g, e) = s_1 g and (g, g), at 0..3.  With one vertex every
face identity of level 2 holds whatever edges a 2-simplex names, so one
changed entry breaks exactly the identity it is meant to.  The 2-groupoid
cases change one field of a built 2-groupoid with `dataclasses.replace`.
"""

import dataclasses

import pytest

from twotypes.fingroup import (
    cyclic, inversion_action_z2_on, make_hom, symmetric3, trivial_action,
)
from twotypes.nerve import nerve
from twotypes.simpset import (
    check_simplicial_identities, make_sset, standard_simplex,
)
from twotypes.twogpd import (
    check_two_groupoid, check_weak_functor, disjoint_union, point_2gpd,
    xmod_to_2group,
)
from twotypes.xmod import (
    Violation, check_crossed_module, check_morphism, xmod_b2g, xmod_bg,
)


def raises(axiom, witness, check, *args, **kwargs):
    with pytest.raises(Violation) as err:
        check(*args, **kwargs)
    assert (err.value.axiom, err.value.witness) == (axiom, witness)


# -- check_simplicial_identities ---------------------------------------------

def nbz2_cut():
    x = nerve(xmod_to_2group(xmod_bg(cyclic(2))))
    cut = make_sset(2, x.counts[:3], x.faces[:3], x.degens[:2])
    assert cut.faces[2] == ((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1))
    assert cut.degens == (((0,),), ((0, 0), (1, 2)))
    return cut


def with_row(table, n, z, row):
    """table with row z of level n replaced."""
    level = list(table[n])
    level[z] = row
    return table[:n] + (tuple(level),) + table[n + 1:]


def changed(**fields):
    return dataclasses.replace(nbz2_cut(), **fields)


class TestSimplicialIdentities:
    def test_the_cut_nerve_passes(self):
        assert check_simplicial_identities(nbz2_cut())

    def test_level_table_shape(self):
        x = nbz2_cut()
        raises("level-table-shape", None, check_simplicial_identities,
               changed(counts=x.counts[:2]))

    def test_face_table_size(self):
        x = nbz2_cut()
        faces = x.faces[:2] + (x.faces[2][:3],)
        raises("face-table-size", 2, check_simplicial_identities,
               changed(faces=faces))

    def test_degen_table_size(self):
        x = nbz2_cut()
        degens = x.degens[:1] + (x.degens[1][:1],)
        raises("degen-table-size", 1, check_simplicial_identities,
               changed(degens=degens))

    @pytest.mark.parametrize("row", [(1, 4), (1, -1), (1,), (1, 2, 3)])
    def test_degen_row(self, row):
        x = nbz2_cut()
        raises("degen-row", (1, 1), check_simplicial_identities,
               changed(degens=with_row(x.degens, 1, 1, row)))

    def test_ss_identity(self):
        # s_1 e sent to (e, g): s_0 s_0 v = (e, e) but s_1 s_0 v = (e, g)
        x = nbz2_cut()
        raises("ss-identity", (0, 0, 0, 0), check_simplicial_identities,
               changed(degens=with_row(x.degens, 1, 0, (0, 1))))

    def test_ds_identity_unit(self):
        # Delta^1 through level 1 with s_0 of vertex 0 sent to the edge
        # (0, 1), whose d_0 is vertex 1
        x = standard_simplex(1, trunc=1)
        assert x.faces[1] == ((0, 0), (1, 0), (1, 1))
        bad = dataclasses.replace(x, degens=(((1,), (2,)),))
        raises("ds-identity-unit", (0, 0, 0, 0), check_simplicial_identities,
               bad)

    def test_ds_identity_low(self):
        # d_0 s_1 g made g, where s_0 d_0 g is e
        x = nbz2_cut()
        raises("ds-identity-low", (1, 1, 0, 1), check_simplicial_identities,
               changed(faces=with_row(x.faces, 2, 2, (1, 1, 1))))

    def test_ds_identity_high(self):
        # d_2 s_0 g made g, where s_0 d_1 g is e
        x = nbz2_cut()
        raises("ds-identity-high", (1, 1, 2, 0), check_simplicial_identities,
               changed(faces=with_row(x.faces, 2, 1, (1, 1, 1))))


# -- check_two_groupoid -----------------------------------------------------

def two_points():
    """Two objects, each with only its identities."""
    return disjoint_union(point_2gpd(), point_2gpd())


class TestTwoGroupoid:
    def test_id1_endpoints(self):
        g = two_points()
        assert g.id1 == (0, 1)
        raises("id1-endpoints", 0, check_two_groupoid,
               dataclasses.replace(g, id1=(1, 0)))

    def test_id2_endpoints(self):
        g = xmod_to_2group(xmod_bg(cyclic(2)))
        assert g.id2 == (0, 1) and g.src2 == (0, 1)
        raises("id2-endpoints", 0, check_two_groupoid,
               dataclasses.replace(g, id2=(1, 0)))

    def test_2cell_not_parallel(self):
        # B^2(Z/2) beside a point: 2-cell 1 is the loop on 1-cell 0, and is
        # sent to end at the identity 1-cell of the other object
        g = disjoint_union(xmod_to_2group(xmod_b2g(cyclic(2))), point_2gpd())
        assert (g.src1, g.src2, g.tgt2, g.id2) == \
            ((0, 1), (0, 0, 1), (0, 0, 1), (0, 2))
        raises("2cell-not-parallel", 1, check_two_groupoid,
               dataclasses.replace(g, tgt2=(0, 1, 1)))

    def test_inv1(self):
        # in B(Z/3) each 1-cell taken as its own inverse: 1 + 1 = 2
        g = xmod_to_2group(xmod_bg(cyclic(3)))
        assert g.inv1 == (0, 2, 1)
        raises("inv1", 1, check_two_groupoid,
               dataclasses.replace(g, inv1=(0, 1, 2)))

    def test_vinv(self):
        g = xmod_to_2group(xmod_b2g(cyclic(3)))
        assert g.vinv == (0, 2, 1)
        raises("vinv", 1, check_two_groupoid,
               dataclasses.replace(g, vinv=(0, 1, 2)))


# -- crossed modules and their morphisms ------------------------------------

class TestCrossedModule:
    def test_cm2(self):
        # Z/2 onto the transposition 1 of S3, S3 acting trivially: CM1
        # holds as Z/2 is abelian, and CM2 fails at the generator and an
        # element 2 that does not commute with the transposition
        s3, z2 = symmetric3(), cyclic(2)
        assert s3.mul[1][2] != s3.mul[2][1]
        raises("CM2", (1, 2), check_crossed_module, z2, s3,
               make_hom(z2, s3, [0, 1]), trivial_action(s3, z2))

    def test_equivariance(self):
        # Z/3 with Z/2 acting by inversion, boundary trivial, to B^2(Z/3)
        # by the identity on Z/3: the square commutes, and p2(1^1) = 2 is
        # not 1^p1(1) = 1
        z2, z3 = cyclic(2), cyclic(3)
        dom = check_crossed_module(z3, z2, make_hom(z3, z2, [0, 0, 0]),
                                   inversion_action_z2_on(z3))
        cod = xmod_b2g(z3)
        raises("equivariance", (1, 1), check_morphism, dom, cod,
               make_hom(z3, z3, [0, 1, 2]), make_hom(z2, cod.g1, [0, 0]))


# -- check_weak_functor ------------------------------------------------------

def identity_functor(g):
    """The fields of the identity weak functor of a strict g."""
    eps = [[g.id2[row[h]] if h in row else -1 for h in range(g.n1)]
           for row in g.comp1]
    return range(g.n_objects), range(g.n1), range(g.n2), eps


class TestWeakFunctor:
    def test_the_identity_passes(self):
        g = two_points()
        assert check_weak_functor(g, g, *identity_functor(g))

    def test_wf_1cell_endpoints(self):
        # the objects swapped, the 1-cells kept
        g = two_points()
        _, map1, map2, eps = identity_functor(g)
        raises("wf-1cell-endpoints", 0, check_weak_functor, g, g, (1, 0),
               map1, map2, eps)

    def test_wf_eps_domain(self):
        # no coherence cell at the composable pair (0, 0)
        g = xmod_to_2group(xmod_bg(cyclic(2)))
        objs, map1, map2, eps = identity_functor(g)
        eps[0][0] = -1
        raises("wf-eps-domain", (0, 0), check_weak_functor, g, g, objs,
               map1, map2, eps)

    def test_basepoint_not_preserved(self):
        g = two_points()
        dom = dataclasses.replace(g, basepoint=0)
        cod = dataclasses.replace(g, basepoint=1)
        assert check_weak_functor(dom, cod, *identity_functor(g))
        raises("basepoint-not-preserved", 0, check_weak_functor, dom, cod,
               *identity_functor(g), pointed=True)
