"""One backtracking kernel, one search budget, one union-find helper, one
grouping helper and one store of tables built from a fixed object.

`Budget` enforces every cap: `tick` counts steps, and `admit` compares a
size about to be built with the cap, at no step.  Caps default to DEFAULT_CAP.
A library call makes one budget, at its top (`as_budget`), and hands it to
every search and nerve it runs, so that its cap bounds the whole call.

`search` runs every exhaustive search of the library, always under the
budget it is given (no search runs unbounded): maps of nerves, functors,
weak maps of crossed modules, transformations and modifications, group
isomorphisms and 2-cocycles.  One functor search
serves strict and weak functors, and one transformation search serves
strict and weak morphisms of crossed modules: a strict one is the weak
one whose coherence cells are identities.  A caller states
its variables in the order it wants them assigned, a domain per variable,
and constraints over sets of variables.

Why results and their order cannot change when a hand-written search moves
onto the kernel with the same variable order and the same domains: the
kernel visits the assignments in the lexicographic order of (position in
order, position in domain), as the nested loops it replaces did.  A
constraint runs once, as soon as its last variable is set, and a failed
constraint cuts only the assignments that extend the current one, all of
which violate it.  So the kernel yields exactly the full assignments that
satisfy every constraint, in that order; a search that tested a constraint
later, or again, or only at the leaf, kept the same set in the same order.

Why a variable with one possible value may be set before the search and
left out of the order: every full assignment gives it that value, so the
full assignments of the shorter order are those of the longer one, and
their lexicographic order is the same, as a position with one value never
decides between two of them.  A constraint that closed at its position now
closes at the last of its other variables in order, or runs ahead when it
has none; it is the same test on the same values, made at a node that
extends to the same full assignments.  Only the budget changes, as the
variable is no longer a node.

A `Plan` is the order with every constraint bucketed by the position that
closes it, made once; `run` searches it as often as wanted, so a caller
that searches the same constraints many times buckets them once.

`group` is the one grouping of indices by key in the library: cells by
their ends, simplices by boundary, 2-simplices by edge pair, and the
classes of `classes` by root.

`derived` keeps each table built from a fixed complex or 2-groupoid (a
nerve, a prism, flat rows, lookup dicts) in the object's own `__dict__`,
as `functools.cached_property` does: it is released with the object, and a
copy made by `dataclasses.replace` starts with none.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, MutableMapping


DEFAULT_CAP = 10 ** 6


class SizeCapExceeded(RuntimeError):
    pass


class Budget:
    """A step count shared by the stages of one command; one step is one
    node of the kernel, or a unit of work its caller names (a cochain, an
    entry of a coboundary matrix).  Raises SizeCapExceeded past cap."""

    def __init__(self, cap: int, stage: str):
        self.cap = cap
        self.stage = stage
        self.steps = 0

    def tick(self, steps: int = 1) -> None:
        self.steps += steps
        if self.steps > self.cap:
            raise SizeCapExceeded(
                f"{self.stage} exceeded the cap of {self.cap} steps")

    def admit(self, count: int, what: str) -> None:
        """Raise when count, the size of what is to be built, is over cap."""
        if count > self.cap:
            raise SizeCapExceeded(
                f"{self.stage}: {what} exceed the cap of {self.cap}")


def as_budget(cap: int | Budget, stage: str) -> Budget:
    """A call's cap as a Budget: an int starts one for this stage, and a
    Budget is shared as it is, so that one cap bounds every stage of a
    command."""
    return cap if isinstance(cap, Budget) else Budget(cap, stage)


Constraint = tuple[Iterable[Hashable], Callable[[], bool]]


class Plan:
    """A search compiled once: the variable order, the predicate of each
    constraint under the position of the last of its vars in order, and the
    predicates with no var in order, which run ahead of the search.  The
    predicates read the assign they were written for, so a plan is run
    with that assign."""

    __slots__ = ("order", "closing", "ahead")

    def __init__(self, order: Iterable[Hashable],
                 constraints: Iterable[Constraint]):
        self.order = list(order)
        at = {v: i for i, v in enumerate(self.order)}
        self.closing: list[list[Callable[[], bool]]] = [
            [] for _ in self.order]
        self.ahead: list[Callable[[], bool]] = []
        for cvars, pred in constraints:
            last = max((at[v] for v in cvars if v in at), default=-1)
            (self.closing[last] if last >= 0 else self.ahead).append(pred)


def search(order: Iterable[Hashable],
           domain: Callable[[Hashable], Iterable],
           constraints: Iterable[Constraint],
           assign: MutableMapping, budget: Budget):
    """Yield once per full assignment of order that satisfies every
    constraint; the values are in assign when it yields.

    Variables are set in the given order, each to the values of domain(v)
    in turn; domain(v) is read when v is reached, so it may depend on the
    variables before it.  A constraint (vars, pred) runs pred() once at
    each node that sets the last of its vars in order; vars outside order
    must already be in assign.  A constraint with none of its vars in
    order runs once, before the first node, and when it fails nothing is
    yielded.  Each node (the root and every partial assignment that passes
    its constraints) is one budget step.  The variables in order start out
    of assign and are taken out again on backtrack, and when the caller
    stops iterating.  This is `run` on a plan made for this call.
    """
    return run(Plan(order, constraints), domain, assign, budget)


def run(plan: Plan, domain: Callable[[Hashable], Iterable],
        assign: MutableMapping, budget: Budget):
    """The search of plan, as `search` describes it; the one backtracking
    loop of the library."""
    order, closing = plan.order, plan.closing
    if not all(pred() for pred in plan.ahead):
        return
    budget.tick()
    if not order:
        yield
        return
    values = [iter(domain(order[0]))]
    try:
        while values:
            depth = len(values) - 1
            v, preds = order[depth], closing[depth]
            # the next value of v that passes every predicate closing here
            for value in values[depth]:
                assign[v] = value
                for pred in preds:
                    if not pred():
                        break
                else:
                    break
            else:
                assign.pop(v, None)
                values.pop()
                continue
            budget.tick()
            if depth + 1 == len(order):
                yield
            else:
                values.append(iter(domain(order[depth + 1])))
    finally:
        for v in order[:len(values)]:
            assign.pop(v, None)


def classes(n: int, linked: Callable[[int, int], bool]) -> list[list[int]]:
    """The classes of range(n) under the equivalence closure of linked.

    linked(i, j) is asked only for i < j, in ascending order of (i, j), and
    only while i and j are in different classes.  Classes are sorted lists,
    ordered by least member.  This closes any relation; for one known to
    be an equivalence, `twogpd.representatives` asks far fewer pairs.
    """
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            a, b = root(i), root(j)
            if a != b and linked(i, j):
                parent[max(a, b)] = min(a, b)
    return list(group(map(root, range(n))).values())


def group(keys) -> dict:
    """Indices grouped by their key, each group ascending, the groups in
    order of first index."""
    out: dict = {}
    for x, k in enumerate(keys):
        out.setdefault(k, []).append(x)
    return out


def derived(obj, key, make):
    """The table key of obj: make() on the first call, then the same table
    for every caller; obj is never modified, so the table stays right."""
    tables = vars(obj).setdefault("_derived", {})
    if key not in tables:
        tables[key] = make()
    return tables[key]
