"""Seeded inputs for the benchmark.

Every input group is relabelled by a permutation drawn from the workload
seed, and homs, actions and crossed modules are transported along it, so
the library sees new Cayley tables but the same mathematics.  Seed 0 is the
identity permutation everywhere: the labelling as the constructors build
it.  Simplicial sets are relabelled levelwise with `simpset.relabel`.

The group Gamma of a cohomology case, and any acting group, keeps its
labelling: the cocycle search visits entries in Gamma's element order, and
its run time moves by up to 30x between random labellings of S3 (0.9 s
against 25-30 s for the cocycles of S3 with coefficients in Z/3), which
would make runs with different seeds incomparable.  Relabelling the
coefficients leaves that search the same size.
"""

from __future__ import annotations

import random

from twotypes.fingroup import (
    cyclic, inversion_action_z2_on, klein_four,
    make_action, make_group, make_hom, symmetric3, trivial_action,
    trivial_group,
)
from twotypes.simpset import relabel as relabel_sset
from twotypes.xmod import (
    check_crossed_module, xmod_b2g, xmod_bg, xmod_identity,
)


class Relabeller:
    """Draws one permutation per object, in call order, from a seed."""

    def __init__(self, seed: int):
        self.rng = None if seed == 0 else random.Random(seed)

    def perm(self, n: int) -> list[int]:
        """perm[old] = new."""
        p = list(range(n))
        if self.rng is not None:
            self.rng.shuffle(p)
        return p

    def group(self, g):
        return transport_group(g, self.perm(g.order))

    def xmod(self, xm):
        return transport_xmod(xm, self.perm(xm.g2.order),
                              self.perm(xm.g1.order))

    def action(self, act):
        """Relabel the space of an action; the acting group keeps its
        labelling.  Returns (space, action)."""
        ps = self.perm(act.space.order)
        space = transport_group(act.space, ps)
        identity = list(range(act.actor.order))
        return space, transport_action(act, act.actor, space, identity, ps)

    def sset(self, x):
        return relabel_sset(x, [self.perm(c) for c in x.counts])


def transport_group(g, p):
    """The group with element p[a] playing the part of a."""
    mul = [[0] * g.order for _ in range(g.order)]
    for a in range(g.order):
        for b in range(g.order):
            mul[p[a]][p[b]] = p[g.mul[a][b]]
    return make_group(mul)


def transport_hom(h, dom, cod, pd, pc):
    image = [0] * h.dom.order
    for a in range(h.dom.order):
        image[pd[a]] = pc[h.image[a]]
    return make_hom(dom, cod, image)


def transport_action(act, actor, space, pa, ps):
    """act.act[alpha][g] = alpha^g, with alpha in the space and g in the
    actor."""
    table = [[0] * act.actor.order for _ in range(act.space.order)]
    for alpha in range(act.space.order):
        for g in range(act.actor.order):
            table[ps[alpha]][pa[g]] = ps[act.act[alpha][g]]
    return make_action(actor, space, table)


def transport_xmod(xm, p2, p1):
    g2, g1 = transport_group(xm.g2, p2), transport_group(xm.g1, p1)
    return check_crossed_module(
        g2, g1, transport_hom(xm.phi, g2, g1, p2, p1),
        transport_action(xm.action, g1, g2, p1, p2))


# -- the crossed-module corpus ---------------------------------------------
# The named entries of tests/conftest.py:build_corpus, rebuilt here so the
# benchmark's inputs do not move when the test fixtures do.

def _z4_to_z2():
    return check_crossed_module(
        cyclic(4), cyclic(2),
        make_hom(cyclic(4), cyclic(2), [0, 1, 0, 1]),
        trivial_action(cyclic(2), cyclic(4)))


def _z3_inversion():
    z3, z2 = cyclic(3), cyclic(2)
    return check_crossed_module(
        z3, z2, make_hom(z3, z2, [0, 0, 0]), inversion_action_z2_on(z3))


def _v4_to_z2():
    v4, z2 = klein_four(), cyclic(2)
    return check_crossed_module(
        v4, z2, make_hom(v4, z2, [0, 0, 1, 1]), trivial_action(z2, v4))


CORPUS = (
    ("pt", lambda: xmod_bg(trivial_group())),
    ("b_z2", lambda: xmod_bg(cyclic(2))),
    ("b_z3", lambda: xmod_bg(cyclic(3))),
    ("b_s3", lambda: xmod_bg(symmetric3())),
    ("b2_z2", lambda: xmod_b2g(cyclic(2))),
    ("b2_z3", lambda: xmod_b2g(cyclic(3))),
    ("b2_z4", lambda: xmod_b2g(cyclic(4))),
    ("z4_to_z2", _z4_to_z2),
    ("id_z2", lambda: xmod_identity(cyclic(2))),
    ("id_z3", lambda: xmod_identity(cyclic(3))),
    ("id_s3", lambda: xmod_identity(symmetric3())),
    ("z3_inv", _z3_inversion),
    ("v4_to_z2", _v4_to_z2),
)


def corpus(rl: Relabeller, skip=()):
    """(name, relabelled crossed module) for each corpus entry."""
    return [(name, rl.xmod(build())) for name, build in CORPUS
            if name not in skip]

