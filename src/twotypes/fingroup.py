"""Finite groups as Cayley tables, homomorphisms, right actions, and free words.

Everything is index-based: a group of order n has elements 0..n-1 and a full
n x n multiplication table.  All validation is exhaustive, for orders up to
a few hundred; assoc_witness is the one associativity audit of the library.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

import numpy  # unused; see tests/test_imports.py::test_cli_still_imports_numpy

from .search import DEFAULT_CAP, as_budget, search


class NotAGroup(ValueError):
    """Raised when a table fails the group axioms; carries a witness."""

    def __init__(self, reason: str, witness=None):
        super().__init__(f"{reason} (witness: {witness})" if witness is not None else reason)
        self.reason = reason
        self.witness = witness


class NotAHom(ValueError):
    def __init__(self, witness):
        super().__init__(f"homomorphism law fails at {witness}")
        self.witness = witness


class NotAnAction(ValueError):
    def __init__(self, reason: str, witness):
        super().__init__(f"{reason} (witness: {witness})")
        self.reason = reason
        self.witness = witness


class ImageNotNormal(ValueError):
    def __init__(self, witness):
        super().__init__(f"image is not normal in the codomain (witness: {witness})")
        self.witness = witness


def _as_table(rows) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(v) for v in row) for row in rows)


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group given by its full Cayley table.

    mul[a][b] is the product ab; identity and inv are derived at construction
    and re-checkable at any time via check_group_axioms.
    """

    order: int
    mul: tuple[tuple[int, ...], ...]
    identity: int
    inv: tuple[int, ...]

    def op(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def conj(self, g: int, a: int) -> int:
        """a^{-1} g a."""
        return self.mul[self.mul[self.inv[a]][g]][a]

    @property
    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        return self.mul == tuple(zip(*self.mul))

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul[x][a]
            k += 1
        return k

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def _generators(table, right, left) -> list[int]:
    """Cells whose left-bracketed products reach every cell: each cell not
    yet reached joins, in ascending order, and the reached cells are closed
    again under right products by the generators.  Each reached y walks the
    shorter of right[y] and the generators, few in a group: a generator s
    is in right[y] exactly when row y is defined at s, a key of a dict
    partner row and an entry other than -1 of a dense row, so either walk
    tests each cell in O(1)."""
    reached, gens, is_gen = [False] * len(table), [], set()
    for g in range(len(table)):
        if reached[g]:
            continue
        gens.append(g)
        is_gen.add(g)
        todo = [g] + [table[x][g] for x in left[g] if reached[x]]
        while todo:
            y = todo.pop()
            if not reached[y]:
                reached[y] = True
                row = table[y]
                if len(right[y]) <= len(gens):
                    todo += [row[s] for s in right[y] if s in is_gen]
                elif isinstance(row, dict):
                    todo += [row[s] for s in gens if s in row]
                else:
                    todo += [v for v in map(row.__getitem__, gens) if v >= 0]
    return gens


def assoc_witness(table, right, left):
    """The first (a, b, c) in index order with (ab)c != a(bc), b in right[a]
    and c in right[b], or None; left[b] lists the a with b in right[a], and
    no right[b] is empty.  By F. W. Light's test (Clifford and Preston, The
    Algebraic Theory of Semigroups I, sec. 1.2) only b in _generators is
    tried first: the b that pass are closed under composition, as (a(b1b2))c
    = ((ab1)b2)c = (ab1)(b2c) = a(b1(b2c)) = a((b1b2)c).  Only on a failure
    is every (a, b) tried, in order.  Trying (a, b) reads whole rows through
    two getters built once per b: row ab at each c, row a at each bc."""
    @functools.cache
    def rows(b):
        return itemgetter(*right[b]), itemgetter(*map(table[b].__getitem__,
                                                      right[b]))

    def differ(a, b):
        at_c, at_bc = rows(b)
        return at_c(table[table[a][b]]) != at_bc(table[a])

    if not any(differ(a, b) for b in _generators(table, right, left)
               for a in left[b]):
        return None
    a, b = next((a, b) for a, bs in enumerate(right) for b in bs
                if differ(a, b))
    return a, b, next(c for c in right[b]
                      if table[table[a][b]][c] != table[a][table[b][c]])


def check_group_axioms(mul: Sequence[Sequence[int]]) -> tuple[int, tuple[int, ...]]:
    """Verify closure, associativity (assoc_witness), identity and inverses.

    Returns (identity, inverse table) or raises NotAGroup with a witness.
    """
    n = len(mul)
    if n == 0:
        raise NotAGroup("empty table")
    for a, row in enumerate(mul):
        if len(row) != n:
            raise NotAGroup("table is not square", a)
        if min(row) < 0 or max(row) >= n:
            raise NotAGroup("entry out of range", (a, next(
                b for b, v in enumerate(row) if not 0 <= v < n)))
    every = [range(n)] * n
    bad = assoc_witness(mul, every, every)
    if bad is not None:
        raise NotAGroup("associativity fails", bad)
    idx = list(range(n))
    e = next((x for x in idx if list(mul[x]) == idx and
              [row[x] for row in mul] == idx), None)
    if e is None:
        raise NotAGroup("no two-sided identity")
    inv = []
    for a, row in enumerate(mul):
        if e not in row or mul[row.index(e)][a] != e:
            raise NotAGroup("no inverse for element", a)
        inv.append(row.index(e))
    return e, tuple(inv)


def make_group(mul) -> FiniteGroup:
    """Build and fully validate a FiniteGroup from a Cayley table."""
    table = _as_table(mul)
    e, inv = check_group_axioms(table)
    return FiniteGroup(order=len(table), mul=table, identity=e, inv=inv)


# -- standard small groups ---------------------------------------------------

def trivial_group() -> FiniteGroup:
    return make_group([[0]])


def cyclic(n: int) -> FiniteGroup:
    return make_group([[(a + b) % n for b in range(n)] for a in range(n)])


def klein_four() -> FiniteGroup:
    # elements as bit pairs 0..3, xor multiplication
    return make_group([[a ^ b for b in range(4)] for a in range(4)])


def symmetric3() -> FiniteGroup:
    """S3 by composition of permutations of {0,1,2}; element 0 is the identity."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    # (pq)(x) = q(p(x)): right action composition, matching multiplicative order
    table = [[index[tuple(q[p[x]] for x in range(3))] for q in perms] for p in perms]
    return make_group(table)


@dataclass(frozen=True)
class GroupHom:
    dom: FiniteGroup
    cod: FiniteGroup
    image: tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.image[a]

    def is_surjective(self) -> bool:
        return len(set(self.image)) == self.cod.order

    def is_injective(self) -> bool:
        return len(set(self.image)) == self.dom.order

    def is_bijective(self) -> bool:
        return self.is_injective() and self.is_surjective()


def make_hom(dom: FiniteGroup, cod: FiniteGroup, values: Iterable[int]) -> GroupHom:
    """Validate the homomorphism law on all pairs."""
    image = tuple(int(v) for v in values)
    if len(image) != dom.order or any(not 0 <= v < cod.order for v in image):
        raise NotAHom(("bad table length or range", image))
    for a in range(dom.order):
        for b in range(dom.order):
            if image[dom.mul[a][b]] != cod.mul[image[a]][image[b]]:
                raise NotAHom((a, b))
    return GroupHom(dom=dom, cod=cod, image=image)


def identity_hom(g: FiniteGroup) -> GroupHom:
    return make_hom(g, g, range(g.order))


def compose_homs(f: GroupHom, g: GroupHom) -> GroupHom:
    """g after f (f first); NotAHom when g does not start where f ends."""
    if f.cod != g.dom:
        raise NotAHom(("codomain is not the next domain",
                       (f.cod.order, g.dom.order)))
    return make_hom(f.dom, g.cod, (g.image[v] for v in f.image))


@dataclass(frozen=True)
class GroupAction:
    """Right action of `actor` on `space` by automorphisms; act[alpha][g] = alpha^g."""

    actor: FiniteGroup
    space: FiniteGroup
    act: tuple[tuple[int, ...], ...]

    def __call__(self, alpha: int, g: int) -> int:
        return self.act[alpha][g]


def make_action(actor: FiniteGroup, space: FiniteGroup, act_table) -> GroupAction:
    act = _as_table(act_table)
    if len(act) != space.order or any(len(row) != actor.order for row in act):
        raise NotAnAction("table dimensions do not match", (len(act),))
    for alpha, row in enumerate(act):
        for g, beta in enumerate(row):
            if not 0 <= beta < space.order:
                raise NotAnAction("entry out of range", (alpha, g))
    for alpha in range(space.order):
        if act[alpha][actor.identity] != alpha:
            raise NotAnAction("identity must act trivially", alpha)
    for alpha in range(space.order):
        for g in range(actor.order):
            for h in range(actor.order):
                if act[act[alpha][g]][h] != act[alpha][actor.mul[g][h]]:
                    raise NotAnAction("(a^g)^h != a^(gh)", (alpha, g, h))
    for alpha in range(space.order):
        for beta in range(space.order):
            for g in range(actor.order):
                if act[space.mul[alpha][beta]][g] != space.mul[act[alpha][g]][act[beta][g]]:
                    raise NotAnAction("g does not act by automorphisms", (alpha, beta, g))
    return GroupAction(actor=actor, space=space, act=act)


def trivial_action(actor: FiniteGroup, space: FiniteGroup) -> GroupAction:
    return make_action(actor, space, [[alpha] * actor.order for alpha in range(space.order)])


def conjugation_action(g: FiniteGroup) -> GroupAction:
    return make_action(g, g, [[g.conj(x, a) for a in range(g.order)] for x in range(g.order)])


def inversion_action_z2_on(space: FiniteGroup) -> GroupAction:
    """Z/2 acting on an abelian group by inversion (else NotAnAction)."""
    z2 = cyclic(2)
    return make_action(z2, space, [[alpha, space.inv[alpha]] for alpha in range(space.order)])


def semidirect(g1: FiniteGroup, g2: FiniteGroup, action: GroupAction) -> FiniteGroup:
    """G1 |x G2 with (g,a)(h,b) = (gh, a^h b); element (g,a) has index g*|G2|+a.
    NotAnAction when action is not of g1 on g2."""
    if (action.actor, action.space) != (g1, g2):
        raise NotAnAction("the action is not of these groups",
                          (action.actor.order, action.space.order))
    n2 = g2.order
    n = g1.order * n2

    def pack(g, a):
        return g * n2 + a

    table = [[0] * n for _ in range(n)]
    for g in range(g1.order):
        for a in range(n2):
            for h in range(g1.order):
                for b in range(n2):
                    table[pack(g, a)][pack(h, b)] = pack(
                        g1.mul[g][h], g2.mul[action.act[a][h]][b])
    return make_group(table)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    return semidirect(g1, g2, trivial_action(g1, g2))


# -- subgroups, kernels, quotients ------------------------------------------

def subgroup(g: FiniteGroup, elements: Sequence[int]) -> tuple[FiniteGroup, GroupHom]:
    """Reindex a subset closed under the operation into its own FiniteGroup.

    Returns the subgroup and the inclusion hom.
    """
    elems = sorted(set(int(x) for x in elements))
    pos = {x: i for i, x in enumerate(elems)}
    try:
        table = [[pos[g.mul[a][b]] for b in elems] for a in elems]
    except KeyError as exc:
        raise NotAGroup("subset is not closed under multiplication", exc.args[0])
    sub = make_group(table)
    incl = make_hom(sub, g, elems)
    return sub, incl


def kernel(hom: GroupHom) -> tuple[FiniteGroup, GroupHom]:
    elems = [a for a in range(hom.dom.order) if hom.image[a] == hom.cod.identity]
    return subgroup(hom.dom, elems)


def is_normal(g: FiniteGroup, elements: Iterable[int]):
    """Return None if the subset is closed under conjugation, else a witness."""
    subset = set(elements)
    for x in subset:
        for a in range(g.order):
            if g.conj(x, a) not in subset:
                return (x, a)
    return None


def cokernel_of_image(hom: GroupHom) -> tuple[FiniteGroup, GroupHom]:
    """Quotient of the codomain by the image; the image must be normal."""
    img = sorted(set(hom.image))
    witness = is_normal(hom.cod, img)
    if witness is not None:
        raise ImageNotNormal(witness)
    g = hom.cod
    img_set = set(img)
    coset_of = [-1] * g.order
    reps: list[int] = []
    for a in range(g.order):
        if coset_of[a] >= 0:
            continue
        rep = len(reps)
        reps.append(a)
        for x in img_set:
            coset_of[g.mul[x][a]] = rep
            coset_of[g.mul[a][x]] = rep
    table = [[coset_of[g.mul[reps[i]][reps[j]]] for j in range(len(reps))]
             for i in range(len(reps))]
    quot = make_group(table)
    proj = make_hom(g, quot, coset_of)
    return quot, proj


# -- isomorphism search ------------------------------------------------------

def generating_set(g: FiniteGroup) -> list[int]:
    """A small (greedy, not necessarily minimal) generating set: each
    element outside the subgroup spanned so far joins, in ascending order,
    until the span is g."""
    gens: list[int] = []
    span = {g.identity}
    for a in range(g.order):
        if a not in span:
            gens.append(a)
            span = _hom_on_span(g, g, gens, gens)
            if len(span) == g.order:
                break
    return gens


def generates(g: FiniteGroup, gens: Iterable[int]) -> bool:
    gens = list(gens)
    return len(_hom_on_span(g, g, gens, gens)) == g.order


def _hom_on_span(g: FiniteGroup, h: FiniteGroup, gens, images):
    """The hom from the subgroup gens generate that sends each to its
    image, as a dict, or None when there is none.  The closure under right
    multiplication by gens sets x a -> F(x) F(a) and checks it wherever x a
    is reached again; every element is a product of gens, so a map that
    passes is a hom.  Its keys, with images gens, are the subgroup."""
    table, frontier = {g.identity: h.identity}, [g.identity]
    while frontier:
        x = frontier.pop()
        for a, b in zip(gens, images):
            z, w = g.mul[x][a], h.mul[table[x]][b]
            if z not in table:
                table[z] = w
                frontier.append(z)
            elif table[z] != w:
                return None
    return table


def find_isomorphism(g: FiniteGroup, h: FiniteGroup):
    """An explicit isomorphism g -> h as a GroupHom, or None.

    The first in the order of the images of generating_set(g), each among
    the elements of h of its order, ascending.  They are chosen one
    generator at a time, and a prefix stays only while it extends to an
    injective hom on the subgroup its generators span.  An isomorphism
    restricts to one there, so none is cut, and the first found is the
    first of the full product of images.  That search is exponential in
    the worst case, so it runs under one budget of DEFAULT_CAP steps and
    raises SizeCapExceeded past it.  Groups whose element orders differ,
    counted with multiplicity, are not isomorphic, and are refused before
    the search.
    """
    g_orders = [g.element_order(a) for a in g.elements]
    h_orders = [h.element_order(b) for b in h.elements]
    if sorted(g_orders) != sorted(h_orders):
        return None
    gens = generating_set(g)
    candidates = [[b for b in h.elements if h_orders[b] == g_orders[a]]
                  for a in gens]
    images: dict[int, int] = {}

    def injective(k):
        table = _hom_on_span(g, h, gens[:k + 1],
                             [images[i] for i in range(k + 1)])
        return table is not None and len(set(table.values())) == len(table)

    for _ in search(range(len(gens)), candidates.__getitem__,
                    [((k,), functools.partial(injective, k))
                     for k in range(len(gens))], images,
                    as_budget(DEFAULT_CAP, "group isomorphism search")):
        table = _hom_on_span(g, h, gens, [images[i] for i in range(len(gens))])
        return make_hom(g, h, map(table.get, range(g.order)))
    return None


# -- free words --------------------------------------------------------------

Letter = tuple[int, int]  # (generator index, sign +1/-1)


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word in abstract generators."""

    letters: tuple[Letter, ...]

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return free_reduce(self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((g, -s) for g, s in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)


def free_reduce(letters: Iterable[Letter]) -> FreeWord:
    """Cancel adjacent inverse pairs; confluent, so the order is irrelevant."""
    stack: list[Letter] = []
    for g, s in letters:
        if s not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {s}")
        if stack and stack[-1][0] == g and stack[-1][1] == -s:
            stack.pop()
        else:
            stack.append((int(g), int(s)))
    return FreeWord(tuple(stack))


def empty_word() -> FreeWord:
    return FreeWord(())


def generator(i: int, sign: int = 1) -> FreeWord:
    return FreeWord(((i, sign),))
