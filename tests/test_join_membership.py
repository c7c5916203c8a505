"""Membership of a join on rows that are no tuple of r ints in range.

`row in join` and `JoinLevel.__contains__` answer False on anything but a
tuple (a subclass of tuple counts) of exactly r ints, each in
range(size), and on such a row answer the compatibility test.  Each answer
is pinned on a join over one position and on joins over several, one of
them over level 0, whose simplices have no faces.
"""

import pytest

from twotypes import simpset
from twotypes.fingroup import cyclic
from twotypes.nerve import nerve
from twotypes.simpset import JoinLevel, boundary, coskeleton
from twotypes.twogpd import xmod_to_2group
from twotypes.xmod import xmod_bg


class Row(tuple):
    pass


def one_position():
    """A level held as the join of 3 vertices over one position."""
    return JoinLevel((), 3, 0)


def over_vertices():
    """Level 1 of the 0-coskeleton of the boundary of Delta^2: every pair
    of its 3 vertices."""
    return coskeleton(boundary(2), 0, trunc=2).faces[1]


def over_level_3():
    """Level 4 of the nerve of B(Z/3), held as the join of level 3."""
    return nerve(xmod_to_2group(xmod_bg(cyclic(3)))).faces[4]


LEVELS = {"one_position": one_position, "over_vertices": over_vertices,
          "over_level_3": over_level_3}


def bad_rows(row, size):
    """Rows built from the true tuple row that are no tuple of the join,
    each named."""
    last = len(row) - 1
    return {
        "list": list(row),
        "generator": (v for v in row),
        "none": None,
        "int": row[0],
        "short": row[:-1],
        "long": row + (0,),
        "empty": (),
        "negative": row[:last] + (-1,),
        "at_size": row[:last] + (size,),
        "float": row[:last] + (float(row[last]),),
        "string": row[:last] + (str(row[last]),),
    }


@pytest.fixture(params=sorted(LEVELS))
def level(request):
    return LEVELS[request.param]()


class TestMembership:
    def test_tuples_of_the_join_are_in(self, level):
        rows = list(level.join)
        assert rows and len(rows) == len(level)
        for row in rows:
            assert row in level.join and row in level
            assert Row(row) in level.join and Row(row) in level

    @pytest.mark.parametrize("kind", sorted(bad_rows((0, 0), 1)))
    def test_bad_rows_are_out(self, level, kind):
        join = level.join
        for row in list(join)[:3]:
            bad = bad_rows(row, join.size)[kind]
            assert (bad in join) is False
            assert (bad in level) is False

    def test_negative_entries_do_not_index_from_the_end(self, level):
        # row with its last entry replaced by size - 1 and by -1: the two
        # name the same simplex from either end, and only the first is in
        join = level.join
        for row in join:
            if row[-1] == join.size - 1:
                wrapped = row[:-1] + (-1,)
                assert row in level and wrapped not in level
                return
        pytest.fail("no tuple ends in the last simplex")

    def test_the_one_position_join_is_the_range(self):
        level = one_position()
        assert [row for row in [(v,) for v in range(-2, 5)] if row in level] \
            == [(0,), (1,), (2,)]
        assert list(simpset._Join((), 3, [0])) == [(0,), (1,), (2,)]

    def test_incompatible_tuple_in_range_is_out(self):
        level = over_level_3()
        size, rows = level.size, set(level.join)
        # the first tuple of range(size)^5 in lexicographic order that is
        # no row: (0, 0, 0, 0, v) for the least v that breaks the test
        row = next((0, 0, 0, 0, v) for v in range(size)
                   if (0, 0, 0, 0, v) not in rows)
        assert row not in level.join and row not in level
