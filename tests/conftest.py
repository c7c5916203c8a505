import pytest

from twotypes.fingroup import (
    cyclic, inversion_action_z2_on, klein_four, make_hom, symmetric3,
    trivial_action, trivial_group,
)
from twotypes.xmod import (
    check_crossed_module, xmod_b2g, xmod_bg, xmod_identity,
)


def _z4_to_z2():
    return check_crossed_module(
        cyclic(4), cyclic(2),
        make_hom(cyclic(4), cyclic(2), [0, 1, 0, 1]),
        trivial_action(cyclic(2), cyclic(4)))


def _z3_inversion():
    # Z/3 in degree 2 over Z/2, trivial boundary, inversion action
    z3, z2 = cyclic(3), cyclic(2)
    return check_crossed_module(
        z3, z2, make_hom(z3, z2, [0, 0, 0]), inversion_action_z2_on(z3))


def _v4_to_z2():
    # projection of the Klein group (bit pairs) onto its high bit
    v4, z2 = klein_four(), cyclic(2)
    return check_crossed_module(
        v4, z2, make_hom(v4, z2, [0, 0, 1, 1]), trivial_action(z2, v4))


def build_corpus():
    """Named crossed modules with both groups of order at most 8."""
    return [
        ("pt", xmod_bg(trivial_group())),
        ("b_z2", xmod_bg(cyclic(2))),
        ("b_z3", xmod_bg(cyclic(3))),
        ("b_s3", xmod_bg(symmetric3())),
        ("b2_z2", xmod_b2g(cyclic(2))),
        ("b2_z3", xmod_b2g(cyclic(3))),
        ("b2_z4", xmod_b2g(cyclic(4))),
        ("z4_to_z2", _z4_to_z2()),
        ("id_z2", xmod_identity(cyclic(2))),
        ("id_z3", xmod_identity(cyclic(3))),
        ("id_s3", xmod_identity(symmetric3())),
        ("z3_inv", _z3_inversion()),
        ("v4_to_z2", _v4_to_z2()),
    ]


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()


@pytest.fixture(scope="session")
def nerve_corpus(corpus):
    """The entries small enough for full nerve and reconstruction sweeps:
    all but id_s3, whose level 4 would hold about 6^10 simplices."""
    return [(name, xm) for name, xm in corpus if name != "id_s3"]


@pytest.fixture(scope="session")
def gpd_nerves(nerve_corpus):
    """(name, xmod, 2-groupoid, nerve) built once for the whole session."""
    from twotypes import nerve as nerve_mod
    from twotypes.twogpd import xmod_to_2group
    out = []
    for name, xm in nerve_corpus:
        g = xmod_to_2group(xm)
        out.append((name, xm, g, nerve_mod.nerve(g)))
    return out
