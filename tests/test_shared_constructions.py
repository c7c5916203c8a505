"""Products, subgroup spans and induced maps built once, against copies of
the constructions they replaced.

The `old_*` functions are the library code as it ran before each of these
was read off a shared construction: the products of simplicial sets and of
2-groupoids (now fiber products over the point), `generating_set` and
`generates` (now the span that `fingroup._hom_on_span` closes), and
`is_equivalence_2functor` and `nerve.induced_pi` (now the component map and
the per-object homs of `twogpd.induced_pi0` and `twogpd.induced_homs`).
The library must give what they give.
"""

import dataclasses
import itertools
import random

import pytest

from twotypes.fingroup import (
    cyclic, direct_product, generates, generating_set, inversion_action_z2_on,
    klein_four, make_group, make_hom, semidirect, symmetric3, trivial_group,
)
from twotypes.nerve import induced_pi, nerve
from twotypes.simpset import (
    boundary, horn, interval, make_sset, product, standard_simplex,
)
from twotypes.twogpd import (
    _loop_classes, build_two_groupoid, disjoint_union, enumerate_2functors,
    is_equivalence_2functor, pi0, pi1_at, pi2_at, point_2gpd, product_2gpd,
    xmod_to_2group,
)
from twotypes.xmod import xmod_b2g, xmod_bg, xmod_identity

from conftest import build_corpus


# -- the constructions, as they were -------------------------------------------

def old_product(x, y, trunc=None):
    trunc = min(x.trunc, y.trunc, x.trunc if trunc is None else trunc)
    counts = [x.counts[n] * y.counts[n] for n in range(trunc + 1)]
    faces = [()]
    for n in range(1, trunc + 1):
        faces.append(tuple(
            tuple(x.faces[n][a][i] * y.counts[n - 1] + y.faces[n][b][i]
                  for i in range(n + 1))
            for a in range(x.counts[n]) for b in range(y.counts[n])))
    degens = []
    for n in range(trunc):
        degens.append(tuple(
            tuple(x.degens[n][a][j] * y.counts[n + 1] + y.degens[n][b][j]
                  for j in range(n + 1))
            for a in range(x.counts[n]) for b in range(y.counts[n])))
    bp = None
    if x.basepoint is not None and y.basepoint is not None:
        bp = x.basepoint * y.counts[0] + y.basepoint
    return make_sset(trunc, counts, faces, degens, basepoint=bp)


def old_product_2gpd(g, h):
    def pair_tables(n_g, n_h, sg, sh):
        return tuple(sg[i] * n_h + sh[j]
                     for i in range(len(sg)) for j in range(len(sh)))

    def comp_table(tg, th):
        nh = len(th)
        return [{k * nh + m: a * nh + b for k, a in rg.items()
                 for m, b in rh.items()} for rg in tg for rh in th]

    src1 = pair_tables(g.n_objects, h.n_objects, g.src1, h.src1)
    tgt1 = pair_tables(g.n_objects, h.n_objects, g.tgt1, h.tgt1)
    id1 = tuple(g.id1[a] * h.n1 + h.id1[b]
                for a in range(g.n_objects) for b in range(h.n_objects))
    src2 = pair_tables(g.n1, h.n1, g.src2, h.src2)
    tgt2 = pair_tables(g.n1, h.n1, g.tgt2, h.tgt2)
    id2 = tuple(g.id2[f] * h.n2 + h.id2[k]
                for f in range(g.n1) for k in range(h.n1))
    bp = None
    if g.basepoint is not None and h.basepoint is not None:
        bp = g.basepoint * h.n_objects + h.basepoint
    return build_two_groupoid(
        g.n_objects * h.n_objects, src1, tgt1, id1,
        comp_table(g.comp1, h.comp1), src2, tgt2, id2,
        comp_table(g.vcomp, h.vcomp), comp_table(g.hcomp2, h.hcomp2),
        basepoint=bp)


def old_generating_set(g):
    gens = []
    closure = {g.identity}
    for a in range(g.order):
        if a in closure:
            continue
        gens.append(a)
        frontier = list(closure | {a})
        closure.add(a)
        while frontier:
            x = frontier.pop()
            for y in list(closure):
                for z in (g.mul[x][y], g.mul[y][x]):
                    if z not in closure:
                        closure.add(z)
                        frontier.append(z)
        if len(closure) == g.order:
            break
    return gens


def old_generates(g, gens):
    closure = {g.identity}
    frontier = list(set(gens) | closure)
    closure |= set(gens)
    while frontier:
        x = frontier.pop()
        for y in list(closure):
            for z in (g.mul[x][y], g.mul[y][x]):
                if z not in closure:
                    closure.add(z)
                    frontier.append(z)
    return len(closure) == g.order


def old_is_equivalence_2functor(F):
    dom, cod = F.dom, F.cod
    dom_comps = pi0(dom)
    cod_comps = pi0(cod)
    cod_comp_of = {}
    for i, comp in enumerate(cod_comps):
        for x in comp:
            cod_comp_of[x] = i
    hit = {cod_comp_of[F.obj_map[comp[0]]] for comp in dom_comps}
    if len(hit) != len(dom_comps) or len(hit) != len(cod_comps):
        return False
    for comp in dom_comps:
        obj = comp[0]
        img = F.obj_map[obj]
        reps, class_of = _loop_classes(dom, obj)
        creps, cclass_of = _loop_classes(cod, img)
        seen = {cclass_of[F.map1[r]] for r in reps}
        if len(seen) != len(reps) or len(seen) != len(creps):
            return False
        if pi2_at(dom, obj).order != pi2_at(cod, img).order:
            return False
        e = dom.id1[obj]
        cells = dom.between2.get((e, e), [])
        imgs = {F.map2[a] for a in cells}
        if len(imgs) != len(cells):
            return False
    return True


def old_induced_pi(F):
    D, C = F.dom, F.cod
    comps_d, comps_c = pi0(D), pi0(C)
    comp_of_c = {}
    for i, comp in enumerate(comps_c):
        for a in comp:
            comp_of_c[a] = i
    pi0_map = tuple(comp_of_c[F.obj_map[comp[0]]] for comp in comps_d)
    bd, bc = D.basepoint, C.basepoint
    reps_d = _loop_classes(D, bd)[0]
    cls_c = _loop_classes(C, bc)[1]
    pi1_hom = make_hom(pi1_at(D, bd), pi1_at(C, bc),
                       [cls_c[F.map1[r]] for r in reps_d])
    ed, ec = D.id1[bd], C.id1[bc]
    pos_c = {a: i for i, a in enumerate(C.between2.get((ec, ec), []))}
    loops_d = D.between2.get((ed, ed), [])
    pi2_hom = make_hom(pi2_at(D, bd), pi2_at(C, bc),
                       [pos_c[F.map2[a]] for a in loops_d])
    return pi0_map, pi1_hom, pi2_hom


# -- inputs --------------------------------------------------------------------

STANDARD = {
    "d0": lambda: standard_simplex(0), "d1": interval,
    "d2": lambda: standard_simplex(2), "bd2": lambda: boundary(2),
    "bd3": lambda: boundary(3), "h20": lambda: horn(2, 0),
    "h31": lambda: horn(3, 1),
}
TRUNCS = [None, 3, 2]


@pytest.fixture(scope="module")
def nerves():
    """The corpus nerves, level 4 a JoinLevel, by name."""
    return {name: nerve(xmod_to_2group(xm)) for name, xm in build_corpus()
            if name != "id_s3"}


# nerves whose product with Delta^1 is quick at every truncation; the rest
# are taken at truncations 3 and 2 only
SMALL_NERVES = ["pt", "b_z2", "b_z3", "b2_z2", "b2_z3", "id_z2"]


def _sset_cases():
    names = list(STANDARD)
    for a, b in itertools.product(names[:5], repeat=2):
        for trunc in TRUNCS:
            yield ("std", a), ("std", b), trunc
    for a, b in [("h31", "d1"), ("d2", "h31"), ("bd3", "h20")]:
        yield ("std", a), ("std", b), None
    for name in [n for n, _ in build_corpus() if n != "id_s3"]:
        for trunc in TRUNCS if name in SMALL_NERVES else TRUNCS[1:]:
            yield ("std", "d1"), ("nerve", name), trunc
            yield ("nerve", name), ("std", "d0"), trunc
    yield ("nerve", "b_z2"), ("nerve", "b2_z2"), None
    yield ("nerve", "id_z2"), ("nerve", "b_z3"), 3


SSET_CASES = list(_sset_cases())


def _factor(kind_name, nerves):
    kind, name = kind_name
    return STANDARD[name]() if kind == "std" else nerves[name]


@pytest.mark.parametrize("x, y, trunc", SSET_CASES, ids=[
    f"{x[1]}x{y[1]}@{t}" for x, y, t in SSET_CASES])
def test_sset_product_equals_the_old_product(x, y, trunc, nerves):
    x, y = _factor(x, nerves), _factor(y, nerves)
    new, old = product(x, y, trunc), old_product(x, y, trunc)
    assert (new.trunc, new.counts, new.basepoint) == \
        (old.trunc, old.counts, old.basepoint)
    assert new.faces == old.faces
    assert new.degens == old.degens


def test_sset_cases_reach_joined_levels(nerves):
    joined = [c for c in SSET_CASES if "nerve" in (c[0][0], c[1][0])
              and c[2] is None]
    assert len(joined) >= 12
    assert type(nerves["b_z2"].faces[4]).__name__ == "JoinLevel"


def _gpds():
    pt = point_2gpd()
    out = {
        "b_1": xmod_to_2group(xmod_bg(trivial_group())),
        "b_z2": xmod_to_2group(xmod_bg(cyclic(2))),
        "b_s3": xmod_to_2group(xmod_bg(symmetric3())),
        "b2_z2": xmod_to_2group(xmod_b2g(cyclic(2))),
        "b2_z3": xmod_to_2group(xmod_b2g(cyclic(3))),
        "id_z2": xmod_to_2group(xmod_identity(cyclic(2))),
        "id_z3": xmod_to_2group(xmod_identity(cyclic(3))),
    }
    out["b_z2+pt"] = disjoint_union(out["b_z2"], pt)
    out["pt+b2_z2"] = disjoint_union(pt, out["b2_z2"])
    out["b_z2 unpointed"] = dataclasses.replace(out["b_z2"], basepoint=None)
    return out


GPDS = _gpds()
GPD_PAIRS = list(itertools.product(GPDS, repeat=2))


def tables(g):
    """Every field of g, each dict row as its items in order."""
    def rows(table):
        return [list(r.items()) for r in table]
    return (g.n_objects, g.src1, g.tgt1, g.id1, rows(g.comp1), g.inv1,
            g.src2, g.tgt2, g.id2, rows(g.vcomp), rows(g.hcomp2), g.vinv,
            g.basepoint)


@pytest.mark.parametrize("a, b", GPD_PAIRS, ids=[
    f"{a}x{b}" for a, b in GPD_PAIRS])
def test_2gpd_product_equals_the_old_product(a, b):
    g, h = GPDS[a], GPDS[b]
    assert tables(product_2gpd(g, h)) == tables(old_product_2gpd(g, h))


# -- subgroup spans --------------------------------------------------------------

def _groups():
    z4 = cyclic(4)
    return [trivial_group(), cyclic(2), cyclic(5), klein_four(), symmetric3(),
            semidirect(cyclic(2), z4, inversion_action_z2_on(z4)),
            direct_product(cyclic(2), z4),
            direct_product(klein_four(), cyclic(2)),
            direct_product(symmetric3(), cyclic(2)),
            direct_product(z4, z4)]


def _relabelled(g, rng):
    perm = list(range(g.order))
    rng.shuffle(perm)
    back = {new: old for old, new in enumerate(perm)}
    return make_group([[perm[g.mul[back[x]][back[y]]] for y in g.elements]
                       for x in g.elements])


def test_spans_equal_the_old_closures():
    groups, seen = _groups(), 0
    assert len(groups) == 10 and max(g.order for g in groups) == 16
    for k, g in enumerate(groups):
        for seed in range(20):
            rng = random.Random(1000 * k + seed)
            h = _relabelled(g, rng)
            gens = generating_set(h)
            assert gens == old_generating_set(h)
            assert generates(h, gens)
            for size in (1, 2, 3):
                some = [rng.randrange(h.order) for _ in range(size)]
                assert generates(h, some) == old_generates(h, some)
                assert generates(h, iter(some)) == old_generates(h, some)
            seen += 1
    assert seen == 200


# -- induced maps and equivalences -------------------------------------------------

def _small_2gpds():
    z4_to_z2 = next(xm for name, xm in build_corpus() if name == "z4_to_z2")
    z3_inv = next(xm for name, xm in build_corpus() if name == "z3_inv")
    pt = point_2gpd()
    b_z2 = xmod_to_2group(xmod_bg(cyclic(2)))
    b2_z2 = xmod_to_2group(xmod_b2g(cyclic(2)))
    return [pt, b_z2, xmod_to_2group(xmod_identity(cyclic(3))), b2_z2,
            xmod_to_2group(xmod_identity(cyclic(2))),
            xmod_to_2group(z4_to_z2), xmod_to_2group(z3_inv),
            disjoint_union(pt, pt), disjoint_union(b_z2, pt),
            old_product_2gpd(b_z2, b2_z2)]


@pytest.fixture(scope="module")
def functors():
    gpds = _small_2gpds()
    return [F for D, C in itertools.product(gpds, repeat=2)
            for F in enumerate_2functors(D, C)]


def test_equivalences_equal_the_old_test(functors):
    verdicts = [is_equivalence_2functor(F) for F in functors]
    assert verdicts == [old_is_equivalence_2functor(F) for F in functors]
    assert len(functors) == 177 and sum(verdicts) == 23


def test_induced_pi_equals_the_old_reading(functors):
    pointed = [F for F in functors
               if F.obj_map[F.dom.basepoint] == F.cod.basepoint]
    assert len(pointed) > 100
    for F in pointed:
        new, old = induced_pi(F), old_induced_pi(F)
        assert new[0] == old[0]
        for h, k in zip(new[1:], old[1:]):
            assert (h.dom.mul, h.cod.mul, h.image) == \
                (k.dom.mul, k.cod.mul, k.image)
