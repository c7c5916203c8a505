"""One backtracking kernel, one search budget and one union-find helper.

`search` runs every exhaustive search of the library: maps of nerves,
functors, weak maps of crossed modules, transformations and
modifications, crossed homomorphisms and 2-cocycles.  One functor search
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
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, MutableMapping, Optional


class SizeCapExceeded(RuntimeError):
    pass


class Budget:
    """A step count shared by the stages of one search; one step is one
    node of the kernel, or a unit of work its caller names (a cochain, an
    entry of a coboundary matrix).  Raises SizeCapExceeded past cap steps."""

    def __init__(self, cap: int, stage: str):
        self.cap = cap
        self.stage = stage
        self.steps = 0

    def tick(self, steps: int = 1) -> None:
        self.steps += steps
        if self.steps > self.cap:
            raise SizeCapExceeded(
                f"{self.stage} exceeded the cap of {self.cap} steps")


def as_budget(cap: int | Budget, stage: str) -> Budget:
    """A search's cap as a Budget: an int starts one for this stage, and a
    Budget is shared as it is, so that one cap bounds every stage of a
    command."""
    return cap if isinstance(cap, Budget) else Budget(cap, stage)


Constraint = tuple[Iterable[Hashable], Callable[[], bool]]


def search(order: Iterable[Hashable],
           domain: Callable[[Hashable], Iterable],
           constraints: Iterable[Constraint],
           assign: MutableMapping,
           budget: Optional[Budget] = None):
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
    stops iterating.
    """
    order = list(order)
    at = {v: i for i, v in enumerate(order)}
    closing: list[list[Callable[[], bool]]] = [[] for _ in order]
    ahead = []
    for cvars, pred in constraints:
        last = max((at[v] for v in cvars if v in at), default=-1)
        (closing[last] if last >= 0 else ahead).append(pred)
    if not all(pred() for pred in ahead):
        return
    if budget is not None:
        budget.tick()
    if not order:
        yield
        return
    values = [iter(domain(order[0]))]
    try:
        while values:
            depth = len(values) - 1
            v = order[depth]
            for value in values[depth]:
                assign[v] = value
                if all(pred() for pred in closing[depth]):
                    break
            else:
                assign.pop(v, None)
                values.pop()
                continue
            if budget is not None:
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
    ordered by least member.
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
    out: dict[int, list[int]] = {}
    for i in range(n):
        out.setdefault(root(i), []).append(i)
    return list(out.values())
