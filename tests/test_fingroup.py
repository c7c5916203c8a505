import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from twotypes import fingroup
from twotypes.fingroup import (
    FreeWord, ImageNotNormal, NotAGroup, NotAHom, NotAnAction,
    check_group_axioms, cokernel_of_image, compose_homs, conjugation_action,
    cyclic, direct_product, empty_word, find_isomorphism, free_reduce,
    generating_set, generator, identity_hom, inversion_action_z2_on, kernel,
    klein_four, make_action, make_group, make_hom, semidirect, subgroup,
    symmetric3, trivial_action, trivial_group,
)


def brute_associative(mul):
    n = len(mul)
    for a, b, c in itertools.product(range(n), repeat=3):
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            return False
    return True


class TestMakeGroup:
    def test_z2(self):
        g = make_group([[0, 1], [1, 0]])
        assert g.order == 2
        assert g.identity == 0
        assert g.inv == (0, 1)

    def test_s3_table_matches_brute_force(self):
        g = symmetric3()
        assert g.order == 6
        assert brute_associative(g.mul)
        assert not g.is_abelian()

    def test_no_inverse(self):
        with pytest.raises(NotAGroup):
            make_group([[0, 1], [1, 1]])

    def test_nonassociative_witness(self):
        # "subtraction mod 3" has an identity-ish column but fails associativity
        bad = [[(a - b) % 3 for b in range(3)] for a in range(3)]
        with pytest.raises(NotAGroup):
            make_group(bad)

    def test_entry_past_int64_is_out_of_range(self):
        with pytest.raises(NotAGroup, match="out of range") as err:
            make_group([[0, 10 ** 20], [1, 0]])
        assert err.value.witness == (0, 1)

    def test_first_out_of_range_entry_in_row_major_order(self):
        with pytest.raises(NotAGroup, match="out of range") as err:
            check_group_axioms([[0, 1, 2], [1, 2, -1], [5, 0, 1]])
        assert err.value.witness == (1, 2)

    def test_ragged_table_is_not_square(self):
        with pytest.raises(NotAGroup, match="not square") as err:
            make_group([[0, 1], [1]])
        assert err.value.witness == 1

    def test_rechecks_pass_on_standard_groups(self):
        for g in (trivial_group(), cyclic(5), klein_four(), symmetric3()):
            # re-validating the table of a constructed group must succeed
            assert make_group(g.mul).mul == g.mul


def first_associativity_witness(mul):
    """The least (a, b, c) with (ab)c != a(bc), lexicographically, or None:
    each pair (a, b) compares the row of ab with a times the row of b, and
    a row that differs is scanned for its first c."""
    n = len(mul)
    for a in range(n):
        for b in range(n):
            left = mul[mul[a][b]]
            right = [mul[a][v] for v in mul[b]]
            if left != right:
                return a, b, next(c for c in range(n)
                                  if left[c] != right[c])
    return None


def elementary_abelian(bits):
    return [[a ^ b for b in range(1 << bits)] for a in range(1 << bits)]


class TestLightsTestAtOrder256:
    """At order 256 associativity is Light's test: rows compared on a few
    generators, with a bounded peak; on a failure every (a, b) is tried in
    order, so the first witness is named, also at a = 200 of a left-zero
    table, whose cells are all generators."""

    def test_peak_memory_at_order_256(self):
        table = elementary_abelian(8)
        tracemalloc.start()
        try:
            assert check_group_axioms(table)[0] == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 * 2 ** 20

    @pytest.mark.parametrize("kind", ["group", "left-zero"])
    def test_first_witness_of_one_changed_entry(self, kind):
        n = 256
        if kind == "group":
            # in a group table the changed entry (x, y) breaks (a, x, y) for
            # every a but the identity 0, so the witness has a = 1
            mul = elementary_abelian(8)
            mul[77][201] ^= 5
        else:
            # ab = a is associative, and an entry changed in row 200 breaks
            # only triples with a = 200: the witness is past a = 189
            mul = [[a] * n for a in range(n)]
            mul[200][7] = 3
        want = first_associativity_witness(mul)
        assert want is not None and (want[0] >= 189) == (kind == "left-zero")
        with pytest.raises(NotAGroup, match="associativity") as err:
            check_group_axioms(mul)
        assert err.value.witness == want


def numpy_check_group_axioms(mul):
    """The numpy audit that check_group_axioms replaced, kept as an oracle:
    associativity by a chunked scan of all triples, then the identity and
    the inverses."""
    n = len(mul)
    if n == 0:
        raise NotAGroup("empty table")
    for a, row in enumerate(mul):
        if len(row) != n:
            raise NotAGroup("table is not square", a)
        if min(row) < 0 or max(row) >= n:
            raise NotAGroup("entry out of range", (a, next(
                b for b, v in enumerate(row) if not 0 <= v < n)))
    m = np.asarray(mul, dtype=np.int64)
    chunk = max(1, min(n, 2 ** 22 // (n * n + 1)))
    for a0 in range(0, n, chunk):
        sub = m[a0:a0 + chunk]
        left, right = m[sub], sub[:, m]
        if not np.array_equal(left, right):
            bad = np.argwhere(left != right)[0]
            raise NotAGroup("associativity fails",
                            (int(bad[0]) + a0, int(bad[1]), int(bad[2])))
    idx = np.arange(n)
    e = None
    for cand in range(n):
        if np.array_equal(m[cand], idx) and np.array_equal(m[:, cand], idx):
            e = cand
            break
    if e is None:
        raise NotAGroup("no two-sided identity")
    inv = [-1] * n
    for a in range(n):
        hits = np.flatnonzero(m[a] == e)
        if hits.size == 0 or m[hits[0]][a] != e:
            raise NotAGroup("no inverse for element", a)
        inv[a] = int(hits[0])
    return e, tuple(inv)


def _outcome(check, mul):
    try:
        return "group", check(mul)
    except NotAGroup as exc:
        return exc.reason, exc.witness


def _renamed(mul, rng):
    """mul with its elements renamed by a random permutation."""
    n = len(mul)
    perm = list(range(n))
    rng.shuffle(perm)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[mul[a][b]]
    return out


def _oracle_tables():
    """Group tables, and tables that are not groups: left-zero (ab = a),
    right-zero (ab = b), constant, and ab = min(a + b + 1, n - 1), which is
    associative with no identity."""
    groups = [cyclic(n) for n in range(1, 17)] + [klein_four(), symmetric3()]
    c = {n: cyclic(n) for n in (2, 3, 4, 8, 16)}
    groups += [direct_product(*pair) for pair in [
        (klein_four(), symmetric3()), (symmetric3(), symmetric3()),
        (c[4], c[16]), (c[8], c[8]), (symmetric3(), c[8]),
        (direct_product(klein_four(), klein_four()), klein_four()),
        (c[2], c[3])]]
    assert max(g.order for g in groups) == 64
    tables = [[list(row) for row in g.mul] for g in groups]
    for n in (1, 2, 3, 5, 8, 12):
        tables += [[[a] * n for a in range(n)],
                   [list(range(n)) for _ in range(n)],
                   [[n - 1] * n for _ in range(n)],
                   [[min(a + b + 1, n - 1) for b in range(n)]
                    for a in range(n)]]
    return tables


class TestWitnessOracle:
    """check_group_axioms gives the outcome of the numpy audit it replaced,
    result or (reason, witness), on seeded mutants with one or two changed
    entries of relabelled tables."""

    def test_mutants_match_the_numpy_audit(self):
        rng = random.Random(27)
        reasons, compared = set(), 0
        for base in _oracle_tables():
            n = len(base)
            for _ in range(24):
                mul = _renamed(base, rng)
                for _ in range(rng.choice((0, 1, 1, 2, 2))):
                    a, b = rng.randrange(n), rng.randrange(n)
                    mul[a][b] = rng.randrange(n)
                want = _outcome(numpy_check_group_axioms, mul)
                assert _outcome(check_group_axioms, mul) == want, mul
                reasons.add(want[0])
                compared += 1
        assert compared >= 1000
        assert reasons == {"group", "associativity fails",
                           "no two-sided identity", "no inverse for element"}

    def test_left_zero_table_of_order_256_is_quick(self):
        mul = [[a] * 256 for a in range(256)]
        start = time.process_time()
        with pytest.raises(NotAGroup, match="no two-sided identity"):
            check_group_axioms(mul)
        assert time.process_time() - start < 1


class TestHoms:
    def test_zero_map(self):
        z2 = cyclic(2)
        h = make_hom(z2, z2, [0, 0])
        assert not h.is_injective()

    def test_mod2_reduction(self):
        h = make_hom(cyclic(4), cyclic(2), [0, 1, 0, 1])
        assert h.is_surjective()

    def test_swap_is_not_hom(self):
        z3 = cyclic(3)
        with pytest.raises(NotAHom) as exc:
            make_hom(z3, z3, [0, 1, 1])
        assert exc.value.witness == (1, 1)

    def test_compose(self):
        h = compose_homs(make_hom(cyclic(4), cyclic(2), [0, 1, 0, 1]),
                         identity_hom(cyclic(2)))
        assert h.image == (0, 1, 0, 1)

    def test_compose_refuses_maps_that_do_not_meet(self):
        # f after f with f: Z/4 -> Z/2 reads as the hom (0, 1, 0, 1) when
        # the codomain check is an assert and runs under python -O
        f = make_hom(cyclic(4), cyclic(2), [0, 1, 0, 1])
        with pytest.raises(NotAHom, match="codomain is not the next domain"):
            compose_homs(f, f)


class TestActions:
    def test_trivial_action(self):
        a = trivial_action(cyclic(3), cyclic(4))
        assert a(2, 1) == 2

    def test_inversion_action(self):
        a = inversion_action_z2_on(cyclic(3))
        assert a(1, 1) == 2
        assert a(1, 0) == 1

    def test_inversion_action_refuses_a_nonabelian_group(self):
        with pytest.raises(NotAnAction, match="automorphisms"):
            inversion_action_z2_on(symmetric3())

    def test_identity_must_act_trivially(self):
        z2, z4 = cyclic(2), cyclic(4)
        with pytest.raises(NotAnAction):
            make_action(z2, z4, [[1, 1], [1, 1], [1, 1], [1, 1]])

    def test_must_act_by_automorphisms(self):
        # swap 1 and 2 in Z/4 is a bijection but not an automorphism
        z2, z4 = cyclic(2), cyclic(4)
        with pytest.raises(NotAnAction):
            make_action(z2, z4, [[0, 0], [1, 2], [2, 1], [3, 3]])

    @pytest.mark.parametrize("entry", [-1, -2, 4, 10 ** 20])
    def test_entry_out_of_range(self, entry):
        z2, z4 = cyclic(2), cyclic(4)
        with pytest.raises(NotAnAction, match="out of range") as err:
            make_action(z2, z4, [[0, 0], [1, 1], [2, entry], [3, 3]])
        assert err.value.witness == (2, 1)

    def test_conjugation_action_on_s3(self):
        conjugation_action(symmetric3())


class TestSemidirect:
    def test_trivial_action_gives_direct_product(self):
        g = semidirect(cyclic(2), cyclic(2), trivial_action(cyclic(2), cyclic(2)))
        assert g.order == 4
        assert g.is_abelian()
        assert all(g.element_order(x) <= 2 for x in range(1, 4))
        iso = find_isomorphism(g, klein_four())
        assert iso is not None and iso.is_bijective()

    def test_inversion_semidirect_is_s3(self):
        g = semidirect(cyclic(2), cyclic(3), inversion_action_z2_on(cyclic(3)))
        assert g.order == 6
        assert not g.is_abelian()
        iso = find_isomorphism(g, symmetric3())
        assert iso is not None and iso.is_bijective()

    def test_order_multiplies(self):
        g = direct_product(cyclic(3), cyclic(4))
        assert g.order == 12

    def test_indexing_convention(self):
        # (g,a)(h,b) = (gh, a^h b) with index g*|G2|+a
        z2, z3 = cyclic(2), cyclic(3)
        g = semidirect(z2, z3, inversion_action_z2_on(z3))
        # (1,1)*(1,0) = (0, 1^1 * 0) = (0, 2) -> index 2
        assert g.mul[1 * 3 + 1][1 * 3 + 0] == 2

    def test_action_of_other_groups(self):
        z2, z3, z4 = cyclic(2), cyclic(3), cyclic(4)
        for g1, g2 in ((z4, z3), (z2, z4)):
            with pytest.raises(NotAnAction, match="not of these groups"):
                semidirect(g1, g2, inversion_action_z2_on(z3))


class TestKernelCokernel:
    def test_kernel_of_reduction(self):
        k, incl = kernel(make_hom(cyclic(4), cyclic(2), [0, 1, 0, 1]))
        assert k.order == 2
        assert set(incl.image) == {0, 2}

    def test_cokernel_of_trivial_map(self):
        q, proj = cokernel_of_image(make_hom(trivial_group(), cyclic(2), [0]))
        assert q.order == 2
        assert proj.is_bijective()

    def test_non_normal_image(self):
        s3 = symmetric3()
        # order-2 subgroup generated by a transposition is not normal
        t = next(x for x in range(6) if s3.element_order(x) == 2)
        sub, incl = subgroup(s3, [s3.identity, t])
        with pytest.raises(ImageNotNormal):
            cokernel_of_image(incl)

    def test_normal_quotient(self):
        s3 = symmetric3()
        r = next(x for x in range(6) if s3.element_order(x) == 3)
        sub, incl = subgroup(s3, [s3.identity, r, s3.mul[r][r]])
        q, proj = cokernel_of_image(incl)
        assert q.order == 2


class TestFreeWords:
    def test_cancel_pair(self):
        assert free_reduce([(0, 1), (0, -1)]) == empty_word()

    def test_inner_cancellation(self):
        w = free_reduce([(0, 1), (1, 1), (1, -1), (0, 1)])
        assert w.letters == ((0, 1), (0, 1))

    def test_word_algebra(self):
        a, b = generator(0), generator(1)
        assert (a * b * b.inverse()) == a
        assert (a * a.inverse()) == empty_word()

    @given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1, -1])),
                    max_size=12))
    def test_reduce_idempotent_and_order_independent(self, letters):
        once = free_reduce(letters)
        assert free_reduce(once.letters) == once
        # right-to-left reduction by pieces agrees with left-to-right
        if letters:
            mid = len(letters) // 2
            left = free_reduce(letters[:mid])
            right = free_reduce(letters[mid:])
            assert left * right == once

    @given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1, -1])),
                    max_size=10))
    def test_inverse_cancels(self, letters):
        w = free_reduce(letters)
        assert w * w.inverse() == empty_word()


class TestIsomorphismSearch:
    def test_distinguishes_z4_from_klein(self):
        assert find_isomorphism(cyclic(4), klein_four()) is None

    def test_z6_is_z2_times_z3(self):
        assert find_isomorphism(cyclic(6), direct_product(cyclic(2), cyclic(3))) is not None

    def test_relabelled_large_abelian_groups_are_quick(self):
        z2_z4_z4 = direct_product(direct_product(cyclic(2), cyclic(4)),
                                  cyclic(4))
        for g in (make_group(elementary_abelian(6)), z2_z4_z4):
            h = _relabelled(g, 3)
            start = time.process_time()
            iso = find_isomorphism(h, g)
            assert time.process_time() - start < 1
            assert iso is not None and iso.is_bijective()

    def test_first_isomorphism_is_that_of_the_product_search(self):
        # every ordered pair of equal order among small groups and
        # relabelled copies, isomorphic or not
        d4 = semidirect(cyclic(2), cyclic(4),
                        inversion_action_z2_on(cyclic(4)))
        groups = [trivial_group(), klein_four(), symmetric3(), d4,
                  direct_product(cyclic(2), cyclic(4)),
                  make_group(elementary_abelian(3)),
                  direct_product(cyclic(3), cyclic(3)),
                  direct_product(cyclic(2), cyclic(3))]
        groups += [cyclic(n) for n in range(2, 10)]
        groups += [_relabelled(g, seed) for seed in (1, 2) for g in groups]
        pairs = 0
        for g, h in itertools.product(groups, repeat=2):
            if g.order == h.order:
                iso = find_isomorphism(g, h)
                want = _first_by_product(g, h)
                assert (iso and iso.image) == want
                pairs += 1
        assert pairs > 300

    @pytest.mark.parametrize("rank", [5, 6])
    def test_other_element_orders_answer_at_once(self, rank):
        # (Z/2)^r against Z/4 x (Z/2)^(r-2): same order, more involutions
        g = make_group(elementary_abelian(rank))
        h = cyclic(4)
        for _ in range(rank - 2):
            h = direct_product(h, cyclic(2))
        assert g.order == h.order
        for a, b in ((g, h), (h, g)):
            start = time.process_time()
            assert find_isomorphism(a, b) is None
            assert time.process_time() - start < 1

    def test_same_element_orders_take_the_search(self, monkeypatch):
        z4 = cyclic(4)
        product = direct_product(z4, z4)
        inverting = semidirect(z4, z4, make_action(
            z4, z4, [[a, z4.inv[a], a, z4.inv[a]] for a in z4.elements]))
        assert not inverting.is_abelian()
        assert sorted(map(product.element_order, product.elements)) == \
            sorted(map(inverting.element_order, inverting.elements))
        searches = []
        original = fingroup.search

        def search(*args):
            searches.append(args)
            return original(*args)
        monkeypatch.setattr(fingroup, "search", search)
        assert find_isomorphism(product, inverting) is None
        assert find_isomorphism(inverting, product) is None
        assert len(searches) == 2


def _relabelled(g, seed):
    """g with its elements renamed by a permutation drawn from the seed."""
    perm = list(range(g.order))
    random.Random(seed).shuffle(perm)
    back = {new: old for old, new in enumerate(perm)}
    return make_group([[perm[g.mul[back[x]][back[y]]] for y in g.elements]
                       for x in g.elements])


def _first_by_product(g, h):
    """The image table of the first isomorphism of the search that
    find_isomorphism replaced, or None: every tuple of generator images in
    product order, each grown by closure over all pairs of elements."""
    if g.order != h.order:
        return None
    gens = generating_set(g)
    candidates = [[b for b in range(h.order)
                   if h.element_order(b) == g.element_order(a)] for a in gens]
    for images in itertools.product(*candidates):
        table = {g.identity: h.identity, **dict(zip(gens, images))}
        frontier, ok = list(table), True
        while frontier and ok:
            x = frontier.pop()
            for y in list(table):
                for z, w in ((g.mul[x][y], h.mul[table[x]][table[y]]),
                             (g.mul[y][x], h.mul[table[y]][table[x]])):
                    if z not in table:
                        table[z] = w
                        frontier.append(z)
                    elif table[z] != w:
                        ok = False
        if ok and len(table) == len(set(table.values())) == g.order:
            return tuple(table[a] for a in range(g.order))
    return None
