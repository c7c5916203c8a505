"""One budget per library call: a cap bounds the whole call.

Each function below runs several searches (or one search and the nerves
it reads).  It makes one `Budget` at its top and hands it to all of them,
so the steps of its inner searches are added up in that one budget: the
call passes at a cap equal to their total, raises one step below it with
the call's own stage named, and a Budget passed in is shared and ends at
that total.  The totals are those of the inner searches, summed, as they
were when each search started a budget of its own.
"""

import dataclasses

import pytest

from twotypes import cohom, search, weakmaps
from twotypes.cohom import weakmap_class_count_vs_h2
from twotypes.fingroup import cyclic, symmetric3
from twotypes.nerve import nerve
from twotypes.search import DEFAULT_CAP, Budget, SizeCapExceeded
from twotypes.simpset import (
    Homotopies, homotopic, homotopy_classes, simplicial_maps,
)
from twotypes.twogpd import (
    check_exponential_law, two_groupoid_isomorphic, xmod_to_2group,
)
from twotypes.weakmaps import (
    check_w5_equivalence, check_xmod_transformation, enumerate_modifications,
    enumerate_transformations, enumerate_xmod_weak_maps,
    pi0_hom_vs_homotopy_classes,
)
from twotypes.xmod import xmod_b2g, xmod_bg


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


# the calls that take no cap, each run under one budget of its module's
# DEFAULT_CAP: the module, a maker of call() as above, the answer, the
# summed steps and the stage
UNCAPPED = {
    "enumerate_modifications": (weakmaps, _modifications, [0, 1, 2, 3], 5,
                                "modification search"),
    "weakmap_class_count_vs_h2": (
        cohom, lambda: lambda: weakmap_class_count_vs_h2(3, 3), True, 299,
        "weak map classes"),
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
