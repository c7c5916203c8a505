import itertools

import pytest

from twotypes.search import (
    Budget, Plan, SizeCapExceeded, classes, run, search,
)
from twotypes.simpset import SizeCapExceeded as SimpsetCap
from twotypes.twogpd import SizeCapExceeded as TwogpdCap


def _problem(assign):
    """x < y, y + z even, and x != z over range(4) ** 3."""
    return [(("x", "y"), lambda: assign["x"] < assign["y"]),
            (("y", "z"), lambda: (assign["y"] + assign["z"]) % 2 == 0),
            (("z", "x"), lambda: assign["x"] != assign["z"])]


class TestSearch:
    def test_equals_product_filter_in_order(self):
        assign = {}
        got = [dict(assign) for _ in search(
            "xyz", lambda v: range(4), _problem(assign), assign,
            Budget(10 ** 6, "test search"))]
        want = []
        for x, y, z in itertools.product(range(4), repeat=3):
            assign = {"x": x, "y": y, "z": z}
            if all(pred() for _, pred in _problem(assign)):
                want.append(assign)
        assert got == want
        assert got

    def test_domain_read_when_reached(self):
        assign = {}
        got = [(assign["x"], assign["y"]) for _ in search(
            "xy", lambda v: range(assign["x"]) if v == "y" else range(3),
            [], assign, Budget(10 ** 6, "test search"))]
        assert got == [(1, 0), (2, 0), (2, 1)]

    def test_predicate_runs_once_per_node_with_its_vars_set(self):
        assign = {}
        seen = []

        def pred():
            seen.append((assign["x"], assign["z"]))   # KeyError if unset
            return True

        nodes = sum(1 for _ in search("xyz", lambda v: range(3),
                                      [(("z", "x"), pred)], assign,
                                      Budget(10 ** 6, "test search")))
        assert nodes == 27
        assert sorted(seen) == sorted(
            (x, z) for x, _, z in itertools.product(range(3), repeat=3))

    def test_preassigned_constraint_checked_once(self):
        calls = []
        assign = {"w": 1}

        def pred(want):
            def check():
                calls.append(assign["w"])
                return assign["w"] == want
            return check

        assert sum(1 for _ in search("xy", lambda v: range(2),
                                     [(("w",), pred(1))], assign,
                                     Budget(10 ** 6, "test search"))) == 4
        assert calls == [1]
        budget = Budget(10, "test search")
        assert list(search("xy", lambda v: range(2), [(("w",), pred(0))],
                           assign, budget)) == []
        assert calls == [1, 1]
        assert budget.steps == 0

    def test_restores_assign(self):
        assign = {"w": 0}
        assert len(list(search("xy", lambda v: range(2), [], assign,
                               Budget(10 ** 6, "test search")))) == 4
        assert assign == {"w": 0}
        for _ in search("xy", lambda v: range(2), [], assign,
                        Budget(10 ** 6, "test search")):
            break
        assert assign == {"w": 0}

    def test_empty_order_yields_once(self):
        assert len(list(search([], lambda v: [], [], {},
                               Budget(10 ** 6, "test search")))) == 1

    def test_one_step_per_node(self):
        # root, 2 values of x, 2 * 2 values of y
        budget = Budget(7, "test search")
        assert len(list(search("xy", lambda v: range(2), [], {},
                               budget))) == 4
        assert budget.steps == 7
        with pytest.raises(SizeCapExceeded):
            list(search("xy", lambda v: range(2), [], {},
                        Budget(6, "test search")))


    def test_a_budget_is_required(self):
        # no search runs unbounded: the kernel has no unbudgeted mode
        with pytest.raises(TypeError):
            search("xy", lambda v: range(2), [], {})
        with pytest.raises(TypeError):
            run(Plan("xy", []), lambda v: range(2), {})
        with pytest.raises(AttributeError):
            list(search("xy", lambda v: range(2), [], {}, None))


class TestPlan:
    def test_one_plan_run_twice_equals_two_searches(self):
        assign = {}
        plan = Plan("xyz", _problem(assign))

        def solutions(make):
            budget = Budget(10 ** 6, "test search")
            got = [dict(assign) for _ in make(budget)]
            return got, budget.steps

        for _ in range(2):
            assert solutions(lambda b: run(plan, lambda v: range(4), assign,
                                           b)) == \
                solutions(lambda b: search("xyz", lambda v: range(4),
                                           _problem(assign), assign, b))
        assert assign == {}

    def test_buckets_by_the_last_var_in_order(self):
        plan = Plan("xyz", [(("z", "x"), "zx"), (("y",), "y"),
                            (("w", "x"), "wx"), (("w",), "w")])
        assert plan.order == ["x", "y", "z"]
        assert plan.closing == [["wx"], ["y"], ["zx"]]
        assert plan.ahead == ["w"]

    def test_constraint_outside_the_order_runs_once_per_run_first(self):
        assign = {"w": 1}
        events = []

        def ahead():
            events.append("ahead")
            return assign["w"] == 1

        def domain(v):
            events.append(v)
            return range(2)

        plan = Plan("xy", [(("w",), ahead)])
        for _ in range(2):
            events.clear()
            budget = Budget(10, "test search")
            assert sum(1 for _ in run(plan, domain, assign, budget)) == 4
            assert events[0] == "ahead" and events.count("ahead") == 1
            assert budget.steps == 7
        assign["w"] = 0
        events.clear()
        budget = Budget(10, "test search")
        assert list(run(plan, domain, assign, budget)) == []
        assert events == ["ahead"] and budget.steps == 0

class TestBudget:
    def test_raises_past_the_cap(self):
        budget = Budget(3, "map search")
        for _ in range(3):
            budget.tick()
        with pytest.raises(SizeCapExceeded,
                           match="map search exceeded the cap of 3 steps"):
            budget.tick()

    def test_one_exception_everywhere(self):
        assert SimpsetCap is SizeCapExceeded is TwogpdCap


class TestClasses:
    def asked(self, n, linked):
        """classes(n, linked), and the pairs it asked about; checks that no
        pair was already joined by the answers before it."""
        calls, joined = [], []

        def reach(i):
            seen, todo = {i}, [i]
            while todo:
                u = todo.pop()
                for a, b in joined:
                    for v in (b,) if a == u else (a,) if b == u else ():
                        if v not in seen:
                            seen.add(v)
                            todo.append(v)
            return seen

        def record(i, j):
            assert i < j and j not in reach(i)
            calls.append((i, j))
            if linked(i, j):
                joined.append((i, j))
                return True
            return False
        got = classes(n, record)
        assert calls == sorted(calls)
        return got, calls

    def test_chain(self):
        got, calls = self.asked(5, lambda i, j: j == i + 1)
        assert got == [[0, 1, 2, 3, 4]]
        assert calls == list(itertools.combinations(range(5), 2))

    def test_joined_pairs_are_not_asked(self):
        got, calls = self.asked(5, lambda i, j: True)
        assert got == [[0, 1, 2, 3, 4]]
        assert calls == [(0, 1), (0, 2), (0, 3), (0, 4)]

    def test_empty_relation(self):
        got, calls = self.asked(4, lambda i, j: False)
        assert got == [[0], [1], [2], [3]]
        assert calls == list(itertools.combinations(range(4), 2))

    def test_no_elements(self):
        assert self.asked(0, lambda i, j: True) == ([], [])

    def test_sorted_by_least_member(self):
        got, calls = self.asked(6, lambda i, j: (i, j) in {(3, 5), (0, 4),
                                                           (1, 3)})
        assert got == [[0, 4], [1, 3, 5], [2]]
