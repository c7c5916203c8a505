"""One budget per library call: a cap bounds the whole call.

Each function below runs several searches (or one search and the nerves
it reads).  It makes one `Budget` at its top and hands it to all of them,
so the steps of its inner searches are added up in that one budget: the
call passes at a cap equal to their total, raises one step below it with
the call's own stage named, and a Budget passed in is shared and ends at
that total.  The totals are those of the inner searches, summed, as they
were when each search started a budget of its own.  And every public
function that starts a budget, a search or a nerve opens at most one
budget per call, counted at run time on its smallest input.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from test_nerve import collapse

from twotypes import (
    cohom, fingroup, nerve as nerve_mod, reconstruct, search, simpset,
    twogpd, weakmaps,
)
from twotypes.cohom import two_cocycles, weakmap_class_count_vs_h2
from twotypes.fingroup import (
    cyclic, direct_product, find_isomorphism, make_action, semidirect,
    symmetric3,
)
from twotypes.nerve import nerve, nerve_preserves_fiber_products
from twotypes.search import DEFAULT_CAP, Budget, SizeCapExceeded
from twotypes.simpset import (
    Homotopies, homotopic, homotopy_classes, simplicial_maps,
)
from twotypes.twogpd import (
    check_exponential_law, identity_functor, two_groupoid_isomorphic,
    xmod_to_2group,
)
from twotypes.weakmaps import (
    check_w5_equivalence, check_xmod_transformation, enumerate_modifications,
    enumerate_transformations, enumerate_xmod_weak_maps,
    pi0_hom_vs_homotopy_classes,
)
from twotypes.xmod import xmod_b2g, xmod_bg

SRC = Path(__file__).resolve().parent.parent / "src" / "twotypes"


def bg(n):
    return xmod_to_2group(xmod_bg(cyclic(n)))


def b2g(m):
    return xmod_to_2group(xmod_b2g(cyclic(m)))


def _pointed_maps(n, m):
    """The pointed maps N(BZ/n) -> N(B^2 Z/m)."""
    return simplicial_maps(nerve(bg(n)), nerve(b2g(m)), pointed=True)


@pytest.fixture
def opened(monkeypatch):
    """The budgets made from here on, in order."""
    made = []
    real = search.Budget.__init__

    def counting(self, *args, **kwargs):
        real(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(search.Budget, "__init__", counting)
    return made


def _classes():
    maps = _pointed_maps(3, 3)
    return lambda cap: homotopy_classes(maps, cap=cap)


def _homotopic():
    f, g = _pointed_maps(3, 3)[:2]
    return lambda cap: homotopic(f, g, cap=cap, pointed=True)


def _find():
    f, g = _pointed_maps(3, 3)[:2]
    h = Homotopies(f.dom, f.cod)
    return lambda cap: h.find(f, g, pointed=True, cap=cap)


def _bridge():
    h, g = bg(3), b2g(3)
    return lambda cap: pi0_hom_vs_homotopy_classes(h, g, cap=cap)


def _w5():
    h, g = xmod_bg(cyclic(3)), xmod_b2g(cyclic(3))
    return lambda cap: check_w5_equivalence(h, g, cap=cap)


def _exponential():
    c = bg(2)
    return lambda cap: check_exponential_law(c, c, c, cap=cap)


def _isomorphic():
    g = xmod_to_2group(xmod_bg(symmetric3()))
    return lambda cap: two_groupoid_isomorphic(g, g, cap=cap) is not None


def _cocycles():
    return lambda cap: two_cocycles(cyclic(2), cyclic(2), cap=cap)


# per call: a maker of call(cap) -> answer, which builds the inputs; the
# answer; the summed steps of its inner searches; the stage of the call
CAPPED = {
    "homotopy_classes": (_classes, [[0, 5, 7], [1, 3, 8], [2, 4, 6]], 3813,
                         "homotopy classes"),
    "homotopic": (_homotopic, False, 128, "homotopy search"),
    "Homotopies.find": (_find, None, 128, "homotopy search"),
    "pi0_hom_vs_homotopy_classes": (_bridge, True, 9097, "homotopy bridge"),
    "check_w5_equivalence": (_w5, True, 43, "W5 equivalence"),
    "check_exponential_law": (_exponential, True, 282, "exponential law"),
    "two_groupoid_isomorphic": (_isomorphic, True, 26, "isomorphism search"),
    "two_cocycles": (_cocycles, [((0, 0), (0, 0)), ((0, 0), (0, 1)),
                                 ((1, 1), (1, 0)), ((1, 1), (1, 1))], 11,
                     "2-cocycle search"),
}
# a hom names the stage it reached after that of its caller
REACHED = {"check_exponential_law": "exponential law modifications"}


@pytest.mark.parametrize("name", CAPPED)
def test_a_cap_bounds_the_whole_call(name, opened):
    make, answer, total, stage = CAPPED[name]
    call = make()
    del opened[:]
    assert call(total) == answer
    assert [(b.stage, b.steps) for b in opened] == [(stage, total)]
    with pytest.raises(SizeCapExceeded,
                       match=f"^{REACHED.get(name, stage)} exceeded the cap "
                             f"of {total - 1} steps$"):
        call(total - 1)


@pytest.mark.parametrize("name", CAPPED)
def test_a_budget_passed_in_is_shared(name, opened):
    make, answer, total, _ = CAPPED[name]
    call = make()
    shared = Budget(DEFAULT_CAP, "caller")
    shared.tick(5)
    del opened[:]
    assert call(shared) == answer
    assert opened == [] and shared.steps == 5 + total


def test_the_bridge_admits_the_nerves_under_its_own_cap():
    # level 4 of N(B^2 Z/3) holds 729 simplices; the weak functors before
    # it take 43 steps
    with pytest.raises(SizeCapExceeded,
                       match="^homotopy bridge: the simplices of level 4 "
                             "exceed the cap of 200$"):
        _bridge()(200)
    assert nerve(b2g(3)).counts[4] == 729


def test_the_classes_of_nine_maps_open_one_budget(opened):
    maps = _pointed_maps(3, 3)
    assert len(maps) == 9
    del opened[:]
    assert len(homotopy_classes(maps)) == 3
    assert [b.steps for b in opened] == [3813]


def test_the_bridge_opens_one_budget(opened):
    h, g = bg(3), b2g(3)
    del opened[:]
    assert pi0_hom_vs_homotopy_classes(h, g)
    assert [b.steps for b in opened] == [9097]


def _modifications(functor=True):
    """The modifications of a transformation of BZ/2 -> B^2 Z/4 to itself;
    when not functor, its weak map is stripped of the functor its search
    found, so that the call builds the two 2-groups as well."""
    h, g = xmod_bg(cyclic(2)), xmod_b2g(cyclic(4))
    P = enumerate_xmod_weak_maps(h, g)[1]
    if not functor:
        P = dataclasses.replace(P, functor=None)
    T = enumerate_transformations(P, P)[-1]
    T = check_xmod_transformation(P, P, T.a, T.theta)
    return lambda: [M.mu for M in enumerate_modifications(T, T)]


def _z4_by_z4():
    """Z/4 x Z/4 and Z/4 acting on Z/4 by inversion: not isomorphic,
    with the same element orders, so the search decides."""
    z4 = cyclic(4)
    return direct_product(z4, z4), semidirect(z4, z4, make_action(
        z4, z4, [[a, z4.inv[a], a, z4.inv[a]] for a in z4.elements]))


def _isomorphism():
    g, h = direct_product(cyclic(2), cyclic(4)), direct_product(cyclic(4),
                                                              cyclic(2))
    return lambda: find_isomorphism(g, h).image


# the calls that take no cap, each run under one budget of its module's
# DEFAULT_CAP: the module, a maker of call() as above, the answer, the
# summed steps and the stage
UNCAPPED = {
    "enumerate_modifications": (weakmaps, _modifications, [0, 1, 2, 3], 5,
                                "modification search"),
    "weakmap_class_count_vs_h2": (
        cohom, lambda: lambda: weakmap_class_count_vs_h2(3, 3), True, 299,
        "weak map classes"),
    "find_isomorphism": (fingroup, _isomorphism, (0, 2, 4, 6, 1, 3, 5, 7), 3,
                         "group isomorphism search"),
    "find_isomorphism of no isomorphism": (
        fingroup, lambda: lambda: find_isomorphism(*_z4_by_z4()), None, 13,
        "group isomorphism search"),
}


@pytest.mark.parametrize("name", UNCAPPED)
def test_one_default_budget_bounds_a_call_with_no_cap(name, opened,
                                                      monkeypatch):
    module, make, answer, total, stage = UNCAPPED[name]
    call = make()
    del opened[:]
    assert call() == answer
    assert [(b.stage, b.cap, b.steps) for b in opened] == [
        (stage, DEFAULT_CAP, total)]
    # the module's default is read at the call, so it sets the one cap
    monkeypatch.setattr(module, "DEFAULT_CAP", total)
    assert call() == answer
    monkeypatch.setattr(module, "DEFAULT_CAP", total - 1)
    with pytest.raises(SizeCapExceeded,
                       match=f"^{stage} exceeded the cap of {total - 1} "
                             f"steps$"):
        call()


def test_modifications_admit_their_2groups_under_their_budget(opened,
                                                              monkeypatch):
    call = _modifications(functor=False)
    del opened[:]
    assert call() == [0, 1, 2, 3]
    assert [(b.stage, b.steps) for b in opened] == [
        ("modification search", 5)]
    monkeypatch.setattr(weakmaps, "DEFAULT_CAP", 9)
    with pytest.raises(SizeCapExceeded,
                       match="^modification search: 2-group tables of 10 "
                             "entries exceed the cap of 9$"):
        call()


def test_the_fiber_product_check_admits_its_nerves_under_one_budget(
        opened, monkeypatch):
    # BZ/2 x_pt BZ/2 is B(Z/2 x Z/2), whose level 4 of 4^4 = 256 simplices
    # is the largest level the check admits; no nerve takes a step
    F = collapse(bg(2))
    del opened[:]
    assert nerve_preserves_fiber_products(F, F)
    assert [(b.stage, b.cap, b.steps) for b in opened] == [
        ("nerve fiber product", DEFAULT_CAP, 0)]
    monkeypatch.setattr(nerve_mod, "DEFAULT_CAP", 256)
    assert nerve_preserves_fiber_products(F, F)
    monkeypatch.setattr(nerve_mod, "DEFAULT_CAP", 255)
    with pytest.raises(SizeCapExceeded,
                       match="^nerve fiber product: the simplices of level 4 "
                             "exceed the cap of 255$"):
        nerve_preserves_fiber_products(F, F)


# -- at most one budget per call, counted at run time -------------------------

# the names whose call starts a budget, a search or a nerve
BUDGETED = {"as_budget", "search", "run", "nerve", "nerve_of_weak_functor"}


def _budgeted_functions():
    """module.qualname of every public function or method under
    src/twotypes whose body calls one of BUDGETED."""
    found = set()

    def visit(body, prefix):
        for node in body:
            public = not getattr(node, "name", "_").startswith("_")
            if public and isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif public and isinstance(node, ast.FunctionDef) and BUDGETED & {
                    getattr(call.func, "id", getattr(call.func, "attr", None))
                    for call in ast.walk(node) if isinstance(call, ast.Call)}:
                found.add(prefix + node.name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")).body,
              f"{path.stem}.")
    return found


def _at_default(make):
    """A maker of call() from a maker of call(cap), at the default cap."""
    def maker():
        call = make()
        return lambda: call(DEFAULT_CAP)
    return maker


def _weak_pair():
    """The first pointed weak functor BZ/2 -> B^2 Z/2, and its first
    transformation to itself."""
    P = weakmaps.enumerate_weak_functors(bg(2), b2g(2), pointed=True)[0]
    return P, twogpd.enumerate_2transformations(P, P, pointed=True)[0]


def _to_homotopy():
    P, (t, theta) = _weak_pair()
    return lambda: weakmaps.transformation_to_homotopy(P, P, t, theta)


def _from_homotopy():
    P, _ = _weak_pair()
    f = nerve_mod.nerve_of_weak_functor(P)
    hmap = Homotopies(f.dom, f.cod).find(f, f, pointed=True)
    return lambda: weakmaps.transformation_from_homotopy(hmap, P, P)


def _transformations_2gpd():
    P, _ = _weak_pair()
    return lambda: twogpd.enumerate_2transformations(P, P, pointed=True)


def _modifications_2gpd():
    P, x = _weak_pair()
    return lambda: twogpd.enumerate_2modifications(P, P, x, x, pointed=True)


def _xmod_transformations():
    P = enumerate_xmod_weak_maps(xmod_bg(cyclic(2)), xmod_b2g(cyclic(2)))[0]
    return lambda: enumerate_transformations(P, P)


def _maps_3trunc():
    x, y = nerve(bg(2)), nerve(b2g(2))
    return lambda: simpset.enumerate_maps_3trunc(x, y, pointed=True)


def _coskeleton():
    x = nerve(bg(2))
    return lambda: simpset.coskeleton(x, 3, trunc=4)


def _roundtrip():
    x = nerve(bg(2))
    return lambda: reconstruct.roundtrip_report(x)


def _nerve_of_functor():
    F = identity_functor(bg(2))
    return lambda: nerve_mod.nerve_of_weak_functor(F)


def _fiber_product():
    F = collapse(bg(2))
    return lambda: nerve_preserves_fiber_products(F, F)


def _on_bz2_b2z2(fn):
    """A maker of call() = fn(BZ/2, B^2 Z/2), both built first."""
    def maker():
        h, g = bg(2), b2g(2)
        return lambda: fn(h, g)
    return maker


def _nerve():
    g = bg(2)
    return lambda: nerve(g)


def _search():
    budget = Budget(DEFAULT_CAP, "caller")
    return lambda: list(search.search("xy", lambda v: range(2), [], {},
                                      budget))


# every function that _budgeted_functions lists, with a maker of call()
# that builds the smallest inputs first, so that only the call's own
# budgets are counted
SMALLEST = {
    "cohom.two_cocycles": lambda: lambda: two_cocycles(cyclic(2), cyclic(2)),
    "cohom.coboundary_hom": lambda: lambda: cohom.coboundary_hom(
        cyclic(2), cyclic(2)),
    "cohom.weakmap_class_count_vs_h2": lambda: lambda:
        weakmap_class_count_vs_h2(2, 2),
    "fingroup.find_isomorphism": _isomorphism,
    "nerve.nerve": _nerve,
    "nerve.nerve_of_weak_functor": _nerve_of_functor,
    "nerve.nerve_preserves_fiber_products": _fiber_product,
    "reconstruct.roundtrip_report": _roundtrip,
    "search.search": _search,
    "simpset.coskeleton": _coskeleton,
    "simpset.enumerate_maps_3trunc": _maps_3trunc,
    "simpset.Homotopies.find": _at_default(_find),
    "simpset.homotopy_classes": _at_default(_classes),
    "twogpd.xmod_to_2group": lambda: lambda: xmod_to_2group(
        xmod_bg(cyclic(2))),
    "twogpd.enumerate_2functors": _on_bz2_b2z2(twogpd.enumerate_2functors),
    "twogpd.enumerate_2transformations": _transformations_2gpd,
    "twogpd.enumerate_2modifications": _modifications_2gpd,
    "twogpd.two_groupoid_isomorphic": _at_default(_isomorphic),
    "twogpd.check_exponential_law": _at_default(_exponential),
    "weakmaps.enumerate_weak_functors": _on_bz2_b2z2(
        weakmaps.enumerate_weak_functors),
    "weakmaps.enumerate_xmod_weak_maps": lambda: lambda:
        enumerate_xmod_weak_maps(xmod_bg(cyclic(2)), xmod_b2g(cyclic(2))),
    "weakmaps.check_w5_equivalence": _at_default(_w5),
    "weakmaps.enumerate_transformations": _xmod_transformations,
    "weakmaps.enumerate_modifications": _modifications,
    "weakmaps.transformation_to_homotopy": _to_homotopy,
    "weakmaps.transformation_from_homotopy": _from_homotopy,
    "weakmaps.pi0_hom_vs_homotopy_classes": _on_bz2_b2z2(
        pi0_hom_vs_homotopy_classes),
}


def test_every_budgeted_function_has_a_smallest_input():
    assert _budgeted_functions() == set(SMALLEST)


@pytest.mark.parametrize("name", SMALLEST)
def test_a_call_opens_at_most_one_budget(name, opened):
    call = SMALLEST[name]()
    del opened[:]
    call()
    assert len(opened) <= 1, [b.stage for b in opened]
