"""Crossed modules: validation, homotopy invariants, morphisms, fibration
predicates, and a symbolic free resolution of the base group.

A crossed module is a homomorphism phi: G2 -> G1 together with a right action
of G1 on G2 satisfying

    CM1:  beta^(phi(alpha)) = alpha^-1 beta alpha
    CM2:  phi(beta^a) = a^-1 phi(beta) a

The kernel of phi is central in G2 and carries the second homotopy group; the
cokernel of phi carries the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fingroup import (
    FiniteGroup, FreeWord, GroupAction, GroupHom, cokernel_of_image,
    conjugation_action, empty_word, free_reduce, generates, kernel, make_action,
    make_hom, trivial_action, trivial_group,
)


class Violation(ValueError):
    """An axiom failure, carrying the axiom name and a witness tuple."""

    def __init__(self, axiom: str, witness):
        super().__init__(f"{axiom} fails at {witness}")
        self.axiom = axiom
        self.witness = witness


class FillingFailure(ValueError):
    def __init__(self, reason: str, witness=None):
        self.reason = reason
        self.witness = witness
        super().__init__(f"{reason}: {witness!r}")


class ANotAbelian(ValueError):
    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"coefficient group is not abelian: {witness!r}")


def check_pointed(*objects) -> None:
    """A pointed search or check needs a basepoint on every object."""
    if any(x.basepoint is None for x in objects):
        raise Violation("pointed-without-basepoint", None)


class NotGenerating(ValueError):
    pass


@dataclass(frozen=True)
class CrossedModule:
    g2: FiniteGroup
    g1: FiniteGroup
    phi: GroupHom
    action: GroupAction

    def act(self, beta: int, a: int) -> int:
        return self.action.act[beta][a]

    def __repr__(self) -> str:
        return f"CrossedModule(|G2|={self.g2.order}, |G1|={self.g1.order})"


def check_crossed_module(g2: FiniteGroup, g1: FiniteGroup,
                         phi: GroupHom, action: GroupAction) -> CrossedModule:
    """Verify the shapes of phi and the action, then CM1 and CM2
    exhaustively; raise Violation with a witness."""
    for axiom, group, want in (("phi-domain", phi.dom, g2),
                               ("phi-codomain", phi.cod, g1),
                               ("action-actor", action.actor, g1),
                               ("action-space", action.space, g2)):
        if group != want:
            raise Violation(axiom, None)
    for alpha in range(g2.order):
        pa = phi.image[alpha]
        for beta in range(g2.order):
            if action.act[beta][pa] != g2.conj(beta, alpha):
                raise Violation("CM1", (alpha, beta))
    for beta in range(g2.order):
        for a in range(g1.order):
            if phi.image[action.act[beta][a]] != g1.conj(phi.image[beta], a):
                raise Violation("CM2", (beta, a))
    xm = CrossedModule(g2=g2, g1=g1, phi=phi, action=action)
    # derivable sanity check: ker(phi) is central in G2
    for k in range(g2.order):
        if phi.image[k] != g1.identity:
            continue
        for beta in range(g2.order):
            if g2.mul[k][beta] != g2.mul[beta][k]:
                raise Violation("kernel-not-central", (k, beta))
    return xm


# -- standard constructions --------------------------------------------------

def xmod_bg(g1: FiniteGroup) -> CrossedModule:
    """[1 -> G]: a group regarded as a one-object groupoid with trivial 2-cells."""
    one = trivial_group()
    return check_crossed_module(one, g1, make_hom(one, g1, [g1.identity]),
                                trivial_action(g1, one))


def xmod_b2g(g2: FiniteGroup) -> CrossedModule:
    """[A -> 1]: an abelian group placed in degree 2."""
    one = trivial_group()
    return check_crossed_module(g2, one, make_hom(g2, one, [0] * g2.order),
                                trivial_action(one, g2))


def xmod_identity(g: FiniteGroup) -> CrossedModule:
    """[G -> G] via the identity, with the conjugation action; contractible."""
    return check_crossed_module(g, g, make_hom(g, g, range(g.order)),
                                conjugation_action(g))


# -- homotopy invariants -----------------------------------------------------

def pi1_proj(xm: CrossedModule) -> tuple[FiniteGroup, GroupHom]:
    """Cokernel of phi with the projection G1 ->> pi1."""
    return cokernel_of_image(xm.phi)


def pi1(xm: CrossedModule) -> FiniteGroup:
    return pi1_proj(xm)[0]


def pi2_incl(xm: CrossedModule) -> tuple[FiniteGroup, GroupHom]:
    """Kernel of phi with its inclusion into G2; always abelian."""
    k, incl = kernel(xm.phi)
    assert k.is_abelian()
    return k, incl


def pi2(xm: CrossedModule) -> FiniteGroup:
    return pi2_incl(xm)[0]


# -- morphisms ---------------------------------------------------------------

@dataclass(frozen=True)
class XmodMorphism:
    dom: CrossedModule
    cod: CrossedModule
    p2: GroupHom
    p1: GroupHom


def check_morphism(dom: CrossedModule, cod: CrossedModule,
                   p2: GroupHom, p1: GroupHom) -> XmodMorphism:
    """Square with the boundaries commutes and p2 is p1-equivariant."""
    for beta in range(dom.g2.order):
        if p1.image[dom.phi.image[beta]] != cod.phi.image[p2.image[beta]]:
            raise Violation("phi-square", beta)
    for beta in range(dom.g2.order):
        for a in range(dom.g1.order):
            if p2.image[dom.act(beta, a)] != cod.act(p2.image[beta], p1.image[a]):
                raise Violation("equivariance", (beta, a))
    return XmodMorphism(dom=dom, cod=cod, p2=p2, p1=p1)


def identity_morphism(xm: CrossedModule) -> XmodMorphism:
    return check_morphism(xm, xm,
                          make_hom(xm.g2, xm.g2, range(xm.g2.order)),
                          make_hom(xm.g1, xm.g1, range(xm.g1.order)))


def compose_morphisms(f: XmodMorphism, g: XmodMorphism) -> XmodMorphism:
    """g after f."""
    return check_morphism(f.dom, g.cod,
                          make_hom(f.dom.g2, g.cod.g2,
                                   (g.p2.image[v] for v in f.p2.image)),
                          make_hom(f.dom.g1, g.cod.g1,
                                   (g.p1.image[v] for v in f.p1.image)))


def induced_pi1(m: XmodMorphism) -> GroupHom:
    hq, hproj = pi1_proj(m.dom)
    gq, gproj = pi1_proj(m.cod)
    values = [-1] * hq.order
    for a in range(m.dom.g1.order):
        values[hproj.image[a]] = gproj.image[m.p1.image[a]]
    return make_hom(hq, gq, values)


def induced_pi2(m: XmodMorphism) -> GroupHom:
    hk, hincl = pi2_incl(m.dom)
    gk, gincl = pi2_incl(m.cod)
    pos = {gincl.image[i]: i for i in range(gk.order)}
    return make_hom(hk, gk, (pos[m.p2.image[hincl.image[i]]] for i in range(hk.order)))


def is_equivalence(m: XmodMorphism) -> bool:
    """True iff the induced maps on pi1 and pi2 are both bijective."""
    return induced_pi1(m).is_bijective() and induced_pi2(m).is_bijective()


def is_fibration(m: XmodMorphism) -> bool:
    return m.p2.is_surjective() and m.p1.is_surjective()


def is_trivial_fibration(m: XmodMorphism) -> bool:
    """Fibration whose comparison into the corner fiber product is bijective.

    The comparison sends beta in H2 to (phi_H(beta), p2(beta)) inside
    {(h, gamma) in H1 x G2 : p1(h) = phi_G(gamma)}.
    """
    if not is_fibration(m):
        return False
    fiber = [(h, gamma)
             for h in range(m.dom.g1.order)
             for gamma in range(m.cod.g2.order)
             if m.p1.image[h] == m.cod.phi.image[gamma]]
    images = {(m.dom.phi.image[beta], m.p2.image[beta])
              for beta in range(m.dom.g2.order)}
    return m.dom.g2.order == len(fiber) and images == set(fiber)


# -- strict transformations --------------------------------------------------

def _as_weak_map(m: XmodMorphism):
    """A strict morphism as the weak map with identity coherence."""
    from .weakmaps import XmodWeakMap

    e = m.cod.g2.identity
    return XmodWeakMap(dom=m.dom, cod=m.cod, p1=m.p1.image, p2=m.p2.image,
                       eps=((e,) * m.dom.g1.order,) * m.dom.g1.order)


def check_strict_transformation(p: XmodMorphism, q: XmodMorphism,
                                a: int, theta: Sequence[int]) -> bool:
    """Decide whether (a, theta) is a transformation from p to q.

    theta maps H1 into G2; it must be a twisted crossed homomorphism
        theta(x y) = theta(x)^(p1(y)^a) theta(y)
    and satisfy
        T1:  p1(x)^a phi(theta(x)) = q1(x)
        T2:  p2(alpha)^a theta(phi(alpha)) = q2(alpha).
    These are the conditions T0-T2 on a transformation of weak maps, read
    with identity coherence cells.
    """
    from .weakmaps import _transformation_witness

    theta = tuple(theta)
    return len(theta) == p.dom.g1.order and _transformation_witness(
        _as_weak_map(p), _as_weak_map(q), a, theta) is None


def enumerate_strict_transformations(p: XmodMorphism, q: XmodMorphism,
                                     pointed_only: bool = False):
    """All (a, theta) linking p to q, in lexicographic order, by the
    search for transformations of weak maps."""
    from .weakmaps import enumerate_transformations

    return [(T.a, T.theta) for T in enumerate_transformations(
        _as_weak_map(p), _as_weak_map(q), pointed_only)]


# -- free resolution of the base group ---------------------------------------

@dataclass(frozen=True)
class PresentedCrossedModule:
    """A crossed module with free base, covering a finite one.

    The base F1 is free on chosen generators mapping onto G1.  The top group
    is the fiber product of F1 with G2 over G1: pairs (w, gamma) with
    eval(w) = phi(gamma), multiplied componentwise, with boundary the first
    projection and action by conjugation in the word coordinate.  Both groups
    are infinite; everything operates on representatives.
    """

    target: CrossedModule
    gen_images: tuple[int, ...]  # generator i of F1 evaluates to gen_images[i]
    lifts: tuple[FreeWord, ...]  # a word over the generators for each G1 element

    def eval_word(self, w: FreeWord) -> int:
        g1 = self.target.g1
        out = g1.identity
        for gen, sign in w.letters:
            x = self.gen_images[gen]
            out = g1.mul[out][x if sign == 1 else g1.inv[x]]
        return out

    def make_pair(self, w: FreeWord, gamma: int) -> tuple[FreeWord, int]:
        if self.eval_word(w) != self.target.phi.image[gamma]:
            raise Violation("fiber-product-constraint", (w, gamma))
        return (w, gamma)

    def pair_mul(self, p: tuple[FreeWord, int], q: tuple[FreeWord, int]):
        return (p[0] * q[0], self.target.g2.mul[p[1]][q[1]])

    def pair_inv(self, p: tuple[FreeWord, int]):
        return (p[0].inverse(), self.target.g2.inv[p[1]])

    def pair_act(self, p: tuple[FreeWord, int], v: FreeWord):
        return (v.inverse() * p[0] * v, self.target.act(p[1], self.eval_word(v)))

    def boundary(self, p: tuple[FreeWord, int]) -> FreeWord:
        return p[0]

    def eval_morphism_p2(self, p: tuple[FreeWord, int]) -> int:
        """Second component: the evaluation morphism on the top group."""
        return p[1]


def cofibrant_replacement(xm: CrossedModule,
                          generating_set: Sequence[int]) -> PresentedCrossedModule:
    """Free resolution of G1 on a chosen generating set.

    The result covers xm by a levelwise surjection whose comparison into the
    corner fiber product is bijective by construction.
    """
    gens = tuple(int(g) for g in generating_set)
    if not generates(xm.g1, gens):
        raise NotGenerating(f"{gens} does not generate the base group")
    # breadth-first closure produces a shortest-word lift for every element
    lifts: dict[int, FreeWord] = {xm.g1.identity: empty_word()}
    frontier = [xm.g1.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for i, g in enumerate(gens):
                for sign, y in ((1, xm.g1.mul[x][g]),
                                (-1, xm.g1.mul[x][xm.g1.inv[g]])):
                    if y not in lifts:
                        lifts[y] = free_reduce(lifts[x].letters + ((i, sign),))
                        nxt.append(y)
        frontier = nxt
    return PresentedCrossedModule(
        target=xm, gen_images=gens,
        lifts=tuple(lifts[a] for a in range(xm.g1.order)))
