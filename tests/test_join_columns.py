"""Rows tested down their columns, against the row-by-row tests they
replaced.

`_Join.holds` tests a batch of rows at once: the shapes, then one
`_Join.fits` down the columns.  `row_in` is the membership test of one
row as it ran before, written here from the face table alone; `holds` must
answer `all(row in join ...)` and `row_in` on every batch.  `old_coskeletal`
and `old_kan_rows` are `is_coskeletal_at` and the Kan audit of stored rows
as they ran row by row; on stored levels with a malformed row they must
give the same answers as the library.
"""

import dataclasses
import itertools
import random

import pytest

from twotypes import simpset
from twotypes.simpset import (
    TruncatedSimplicialSet, boundary, coskeleton, horn, is_coskeletal_at,
    is_kan,
)

from test_simpset import sphere_base


# -- the row-by-row tests, as they were --------------------------------------

def row_in(below, size, positions, row):
    """Whether row is a tuple of ints in range(size) over positions with
    d_p x_b = d_{q-1} x_a for each pair of slots a < b at positions p < q;
    below is the face table of the level the entries index."""
    if not (isinstance(row, tuple) and len(row) == len(positions) and all(
            isinstance(v, int) and 0 <= v < size for v in row)):
        return False
    return not below or all(
        below[row[b]][p] == below[row[a]][q - 1]
        for b, q in enumerate(positions) for a, p in enumerate(positions[:b]))


def old_coskeletal(x, k):
    for m in range(k + 1, x.trunc + 1):
        if simpset._join_over(x, m):
            continue
        rows, below, size = x.faces[m], x.faces[m - 1], x.counts[m - 1]
        join = simpset._Join(below, size, range(m + 1))
        if len(set(rows)) != len(rows) \
                or not all(row_in(below, size, range(m + 1), row)
                           for row in rows) \
                or join.count(len(rows)) != len(rows):
            return False
    return True


def old_kan_rows(x, n):
    below, size = x.faces[n - 1], x.counts[n - 1]
    for k in range(n + 1):
        positions = [i for i in range(n + 1) if i != k]
        horns = simpset._Join(below, size, positions)
        filled = {row[:k] + row[k + 1:] for row in x.faces[n]}
        fillable = sum(row_in(below, size, positions, key) for key in filled)
        if horns.count(fillable) != fillable:
            for row in horns:
                if row not in filled:
                    return (n, k, dict(zip(positions, row)))
    return True


# -- the joins of the complexes ----------------------------------------------

def simplices_and_horns():
    out = {f"boundary{n}": boundary(n) for n in range(1, 5)}
    out.update({f"horn{n}_{k}": horn(n, k)
                for n in range(1, 5) for k in range(n + 1)})
    out["sphere_cosk2"] = coskeleton(sphere_base(), 2, trunc=4)
    return out


def joins(x):
    """Each join over the level below of x's levels 1.. trunc: over all
    positions and with one left out, with the rows of the level put on its
    positions when the level is stored."""
    for m in range(1, x.trunc + 1):
        stored = not isinstance(x.faces[m], simpset.JoinLevel)
        for k in [None, *range(m + 1)]:
            positions = [i for i in range(m + 1) if i != k]
            join = simpset._Join(x.faces[m - 1], x.counts[m - 1], positions)
            rows = list(itertools.islice(join, 400))
            if stored:
                rows += [row if k is None else row[:k] + row[k + 1:]
                         for row in x.faces[m]]
            yield x.faces[m - 1], positions, join, rows


def edits(row, size, rng):
    """row with one entry changed, each edit named."""
    i = rng.randrange(len(row))
    v = row[i]

    def put(w):
        return row[:i] + (w,) + row[i + 1:]
    out = {"negative": put(-1), "at_size": put(size),
           "float": put(float(v)), "other": put(rng.randrange(size))}
    if v in (0, 1):
        out["bool"] = put(bool(v))
    return out


def assert_columns_agree(below, positions, join, rows, rng):
    size = join.size

    def answers(batch):
        return (join.holds(batch), all(row in join for row in batch),
                all(row_in(below, size, positions, row) for row in batch))

    assert len(set(answers(rows))) == 1
    assert answers([]) == (True, True, True)
    seen = set()
    for _ in range(20):
        if not rows:
            break
        for name, bad in edits(rng.choice(rows), size, rng).items():
            batch = rng.sample(rows, min(len(rows), 5)) + [bad]
            rng.shuffle(batch)
            got = answers(batch)
            assert len(set(got)) == 1, (name, bad)
            seen.add((name, got[0]))
    # every edit out of range or of another type is out; a bool is an int
    for name in ("negative", "at_size", "float"):
        if rows:
            assert (name, False) in seen and (name, True) not in seen


class TestHoldsAgreesWithTheRows:
    def test_corpus_nerves(self, gpd_nerves):
        rng = random.Random(0)
        for _, _, _, x in gpd_nerves:
            for below, positions, join, rows in joins(x):
                assert_columns_agree(below, positions, join, rows, rng)

    @pytest.mark.parametrize("name", sorted(simplices_and_horns()))
    def test_simplices_and_horns(self, name):
        x, rng = simplices_and_horns()[name], random.Random(name)
        for below, positions, join, rows in joins(x):
            assert_columns_agree(below, positions, join, rows, rng)

    def test_a_level_with_no_rows(self):
        empty = simpset._Join((), 0, range(3))
        assert empty.holds([]) and empty.fits(((), (), ()))
        assert (0, 0, 0) not in empty
        x = boundary(2)
        join = simpset._Join(x.faces[1], x.counts[1], range(3))
        assert join.holds([]) and join.holds(()) and join.fits(((),) * 3)

    def test_bool_entries_are_ints(self):
        join = simpset._Join((), 2, range(2))
        assert join.holds([(True, False), (0, 1)])
        assert join.fits(((True, 0), (False, 1)))
        assert not join.holds([(1.0, 0)]) and not join.fits(((1.0,), (0,)))


# -- audits of stored levels with a malformed row -----------------------------

def cut_at_3(x, rows3):
    """x through level 3, with level 3 held as rows3."""
    return TruncatedSimplicialSet(
        trunc=3, counts=x.counts[:3] + (len(rows3),),
        faces=x.faces[:3] + (tuple(rows3),), degens=x.degens[:3],
        basepoint=x.basepoint)


def malformed(rows, size):
    """rows with row 0, then the last row, made short, given a float
    entry or an entry out of range, each named."""
    out = {}
    for z in (0, len(rows) - 1):
        row = rows[z]
        bads = {"short": row[:-1], "long": row + (0,),
                "float": (float(row[0]),) + row[1:],
                "negative": row[:-1] + (-1,), "at_size": row[:-1] + (size,)}
        if row[0] in (0, 1):
            bads["bool"] = (bool(row[0]),) + row[1:]
        for name, bad in bads.items():
            out[f"{name}@{z}"] = rows[:z] + [bad] + rows[z + 1:]
    return out


@pytest.mark.parametrize("name", ["b_z2", "b_z3", "b2_z2", "z3_inv"])
def test_stored_level_with_a_malformed_row(gpd_nerves, name):
    x = next(x for entry, _, _, x in gpd_nerves if entry == name)
    rows = list(x.faces[3])
    kinds = malformed(rows, x.counts[2])
    assert {"short@0", "float@0", "negative@0", "at_size@0"} <= set(kinds)
    for kind, bad_rows in [("none", rows), *kinds.items()]:
        y = cut_at_3(x, bad_rows)
        assert is_coskeletal_at(y, 2) == old_coskeletal(y, 2), kind
        assert simpset._kan_rows(y, 3) == old_kan_rows(y, 3), kind
        assert is_kan(y, (3,)) == old_kan_rows(y, 3), kind
        # BG is 1-coskeletal: only its true rows and a bool entry, which is
        # an int, pass
        if name.startswith("b_"):
            assert is_coskeletal_at(y, 2) == (kind == "none" or
                                              kind.startswith("bool"))


def test_stored_level_4_with_a_malformed_row(gpd_nerves):
    x = next(x for entry, _, _, x in gpd_nerves if entry == "b_z2")
    rows = list(x.faces[4])
    for kind, bad_rows in [("none", rows),
                           *malformed(rows, x.counts[3]).items()]:
        y = dataclasses.replace(
            x, counts=x.counts[:4] + (len(bad_rows),),
            faces=x.faces[:4] + (tuple(bad_rows),))
        assert is_coskeletal_at(y, 3) == old_coskeletal(y, 3), kind
        assert simpset._kan_rows(y, 4) == old_kan_rows(y, 4), kind
