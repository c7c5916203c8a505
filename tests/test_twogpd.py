import dataclasses
import gc
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_corpus

from twotypes import fingroup, twogpd
from twotypes.fingroup import (
    cyclic, find_isomorphism, klein_four, symmetric3, trivial_group,
)
from twotypes.twogpd import (
    NotATwoGroup, TwoGroupoid, _check_assoc, _partners, build_two_groupoid,
    check_2functor, dense_table,
    check_exponential_law, check_two_groupoid, compose_2functors,
    disjoint_union, enumerate_2functors,
    enumerate_2transformations, fundamental_groupoid, hom_strict,
    hom_strict_data, hom_weak_trans, identity_functor, is_equivalence_2functor,
    is_fibration_2gpd, pi0, pi1_at, pi2_at, point_2gpd, product_2gpd,
    two_group_to_xmod, two_groupoid_isomorphic, xmod_to_2group,
)
from twotypes.search import DEFAULT_CAP, Budget, SizeCapExceeded
from twotypes.weakmaps import hom_full
from twotypes.xmod import (
    Violation, identity_morphism, is_fibration, pi1, pi2, xmod_b2g, xmod_bg,
    xmod_identity,
)


class TestXmodTo2Group:
    def test_b_z2_counts(self):
        g = xmod_to_2group(xmod_bg(cyclic(2)))
        assert (g.n_objects, g.n1, g.n2) == (1, 2, 2)
        assert g.id2 == (0, 1)

    def test_b2_z2_counts(self):
        g = xmod_to_2group(xmod_b2g(cyclic(2)))
        assert (g.n_objects, g.n1, g.n2) == (1, 1, 2)
        assert pi2_at(g, 0).order == 2

    def test_z4_to_z2_counts(self):
        g = xmod_to_2group(
            next(xm for name, xm in build_corpus()
                 if name == "z4_to_z2"))
        assert (g.n_objects, g.n1, g.n2) == (1, 2, 8)
        assert pi1_at(g, 0).order == 1
        assert pi2_at(g, 0).order == 2

    def test_corpus_all_valid(self, corpus):
        for name, xm in corpus:
            check_two_groupoid(xmod_to_2group(xm))


class TestTwoGroupToXmod:
    def test_round_trip_corpus(self, corpus):
        for name, xm in corpus:
            back = two_group_to_xmod(xmod_to_2group(xm))
            assert find_isomorphism(back.g1, xm.g1) is not None
            assert find_isomorphism(back.g2, xm.g2) is not None
            assert find_isomorphism(pi1(back), pi1(xm)) is not None
            assert find_isomorphism(pi2(back), pi2(xm)) is not None

    def test_point(self):
        xm = two_group_to_xmod(point_2gpd())
        assert xm.g1.order == 1 and xm.g2.order == 1

    def test_two_objects_rejected(self):
        g = disjoint_union(point_2gpd(), point_2gpd())
        with pytest.raises(NotATwoGroup):
            two_group_to_xmod(g)


class TestInvariants:
    def test_pi0_disjoint_union(self):
        g = disjoint_union(xmod_to_2group(xmod_bg(cyclic(2))),
                           xmod_to_2group(xmod_bg(cyclic(3))))
        assert len(pi0(g)) == 2

    def test_b2_z2_invariants(self):
        g = xmod_to_2group(xmod_b2g(cyclic(2)))
        assert pi1_at(g, 0).order == 1
        assert pi2_at(g, 0).order == 2

    def test_agreement_with_xmod_invariants(self, corpus):
        for name, xm in corpus:
            g = xmod_to_2group(xm)
            assert find_isomorphism(pi1_at(g, 0), pi1(xm)) is not None
            assert find_isomorphism(pi2_at(g, 0), pi2(xm)) is not None

    def test_fundamental_groupoid(self):
        g = xmod_to_2group(
            next(xm for name, xm in build_corpus()
                 if name == "z4_to_z2"))
        fg = fundamental_groupoid(g)
        # both 1-cells become 2-isomorphic, so one class remains
        assert fg.n1 == 1
        assert fg.n2 == 1


class TestFunctors:
    def test_identity_is_fibration_and_equivalence(self, corpus):
        for name, xm in corpus[:6]:
            g = xmod_to_2group(xm)
            f = identity_functor(g)
            assert is_fibration_2gpd(f)
            assert is_equivalence_2functor(f)

    def test_point_inclusion_not_fibration(self):
        g = disjoint_union(point_2gpd(), point_2gpd())
        # connect the two objects with an invertible 1-cell
        from twotypes.twogpd import build_two_groupoid
        conn = build_two_groupoid(
            2, (0, 1, 0, 1), (0, 1, 1, 0),
            (0, 1),
            [[0, -1, 2, -1], [-1, 1, -1, 3],
             [-1, 2, -1, 0], [3, -1, 1, -1]],
            (0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3),
            [[0, -1, -1, -1], [-1, 1, -1, -1],
             [-1, -1, 2, -1], [-1, -1, -1, 3]],
            [[0, -1, 2, -1], [-1, 1, -1, 3],
             [-1, 2, -1, 0], [3, -1, 1, -1]])
        pt = point_2gpd()
        incl = check_2functor(pt, conn, [0], [0], [0])
        assert not is_fibration_2gpd(incl)

    def test_enumerate_endofunctors_of_bz2(self):
        g = xmod_to_2group(xmod_bg(cyclic(2)))
        assert len(enumerate_2functors(g, g)) == 2

    def test_functors_from_point_are_objects(self):
        g = disjoint_union(point_2gpd(), point_2gpd())
        assert len(enumerate_2functors(point_2gpd(), g)) == 2

    def test_pointed_functors_bz2_to_b2z2(self):
        d = xmod_to_2group(xmod_bg(cyclic(2)))
        c = xmod_to_2group(xmod_b2g(cyclic(2)))
        assert len(enumerate_2functors(d, c, pointed=True)) == 1

    def test_collapse_of_contractible_is_equivalence(self):
        g = xmod_to_2group(xmod_identity(cyclic(2)))
        pt = point_2gpd()
        f = check_2functor(g, pt, [0] * g.n_objects, [0] * g.n1, [0] * g.n2)
        assert is_equivalence_2functor(f)

    def test_collapse_of_b2z2_not_equivalence(self):
        g = xmod_to_2group(xmod_b2g(cyclic(2)))
        pt = point_2gpd()
        f = check_2functor(g, pt, [0], [0], [0, 0])
        assert not is_equivalence_2functor(f)

    def test_fibration_predicate_agreement(self, corpus):
        cases = 0
        for name, xm in corpus:
            if xm.g1.order * xm.g2.order > 16:
                continue
            m = identity_morphism(xm)
            g = xmod_to_2group(xm)
            f = identity_functor(g)
            assert is_fibration(m) == is_fibration_2gpd(f)
            cases += 1
        assert cases >= 5

    def test_composition(self):
        g = xmod_to_2group(xmod_bg(cyclic(2)))
        for f in enumerate_2functors(g, g):
            compose_2functors(f, identity_functor(g))


class TestHom:
    def test_hom_point_domain_recovers_target(self):
        c = xmod_to_2group(xmod_bg(cyclic(2)))
        h = hom_strict(point_2gpd(), c)
        assert (h.n_objects, h.n1, h.n2) == (c.n_objects, c.n1, c.n2)

    def test_hom_bz2_endos(self):
        c = xmod_to_2group(xmod_bg(cyclic(2)))
        h = hom_strict(c, c)
        assert h.n_objects == 2
        # no transformations between the two distinct endomorphisms
        assert len(pi0(h)) == 2

    def test_strict_transformations_embed_in_weak(self):
        c = xmod_to_2group(xmod_bg(cyclic(2)))
        hs = hom_strict(c, c)
        hw = hom_weak_trans(c, c)
        assert hs.n_objects == hw.n_objects
        assert hs.n1 <= hw.n1
        assert hs.n2 <= hw.n2

    def test_weak_equals_strict_without_nonidentity_cells(self):
        d = point_2gpd()
        c = xmod_to_2group(xmod_b2g(cyclic(2)))
        hs = hom_strict(d, c)
        hw = hom_weak_trans(d, c)
        assert (hs.n_objects, hs.n1, hs.n2) == (hw.n_objects, hw.n1, hw.n2)

    def test_hom_outputs_fully_audited(self):
        # check_two_groupoid runs inside build_two_groupoid; reaching here
        # means interchange etc. held for the assembled hom
        c = xmod_to_2group(xmod_b2g(cyclic(2)))
        hom_strict(c, c)
        hom_weak_trans(c, c)

    def test_transformation_enumeration_identity_present(self):
        c = xmod_to_2group(xmod_bg(cyclic(2)))
        f = identity_functor(c)
        found = enumerate_2transformations(f, f, strict=True)
        assert (c.id1[0],) in [t for t, _ in found]


class TestHomTablesHeldOnce:
    def test_build_keeps_dict_rows(self):
        g = disjoint_union(xmod_to_2group(xmod_bg(cyclic(2))),
                           xmod_to_2group(xmod_b2g(cyclic(3))))
        t = {f: getattr(g, f) for f in TABLE_FIELDS}
        for field in TABLES:
            t[field] = [dict(r) for r in t[field]]  # fresh rows
        h = build_two_groupoid(**t)
        for field in TABLES:
            rows = getattr(h, field)
            assert all(rows[i] is r for i, r in enumerate(t[field]))

    def test_dense_rows_become_dict_rows(self):
        g = xmod_to_2group(xmod_bg(cyclic(3)))
        t = _frozen(g)
        assert build_two_groupoid(**t) == g
        assert dense_table(build_two_groupoid(**t).comp1) == t["comp1"]

    def test_peak_of_hom_is_bounded(self):
        """The pointed hom from BZ/4 to B2Z/3 has 729 1-cells and 729
        2-cells, and 40 095 defined composites in its three tables.  While
        it is built, traced memory peaks under 4.5 MB; with dense 729 x 729
        tables it peaked at 13.7 MB."""
        d = xmod_to_2group(xmod_bg(cyclic(4)))
        c = xmod_to_2group(xmod_b2g(cyclic(3)))
        hom_full(d, c, pointed_only=True)  # caches on d and c, untraced
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            h = hom_full(d, c, pointed_only=True)
            gc.collect()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (h.n_objects, h.n1, h.n2) == (27, 729, 729)
        assert sum(map(len, h.comp1 + h.vcomp + h.hcomp2)) == 40_095
        assert peak - base <= 4_500_000, peak - base


class TestExponentialLaw:
    def test_points(self):
        p = point_2gpd()
        assert check_exponential_law(p, p, p)

    def test_point_e(self):
        p = point_2gpd()
        c = xmod_to_2group(xmod_bg(cyclic(2)))
        assert check_exponential_law(p, c, c)

    def test_bz2_cubed(self):
        c = xmod_to_2group(xmod_bg(cyclic(2)))
        assert check_exponential_law(c, c, c)

    def test_b2z2(self):
        e = point_2gpd()
        d = xmod_to_2group(xmod_bg(cyclic(2)))
        c = xmod_to_2group(xmod_b2g(cyclic(2)))
        assert check_exponential_law(e, d, c)


# -- the audit against an all-pairs scan --------------------------------------
#
# _scan_derive_inverses and _scan_check_two_groupoid are the audit as it was
# written before it was indexed by source: every pair, triple and quadruple
# of indices is visited and the non-composable ones are skipped.  They are
# the reference for the first violation on a broken table.

def _scan_derive_inverses(n, src, tgt, ident_of, comp, ident_at_src,
                          ident_at_tgt):
    inv = [-1] * n
    for f in range(n):
        for g in range(n):
            if comp[f][g] == ident_at_src(f) and comp[g][f] == ident_at_tgt(f):
                inv[f] = g
                break
        if inv[f] < 0:
            raise Violation("invertibility", f)
    return tuple(inv)


def _scan_check_two_groupoid(g: TwoGroupoid) -> TwoGroupoid:
    # 1-cell level
    for a, f in enumerate(g.id1):
        if g.src1[f] != a or g.tgt1[f] != a:
            raise Violation("id1-endpoints", a)
    for f in range(g.n1):
        for h in range(g.n1):
            defined = g.comp1[f][h] >= 0
            if defined != (g.tgt1[f] == g.src1[h]):
                raise Violation("comp1-domain", (f, h))
            if defined:
                fh = g.comp1[f][h]
                if g.src1[fh] != g.src1[f] or g.tgt1[fh] != g.tgt1[h]:
                    raise Violation("comp1-endpoints", (f, h))
    for f in range(g.n1):
        if g.comp1[g.id1[g.src1[f]]][f] != f or g.comp1[f][g.id1[g.tgt1[f]]] != f:
            raise Violation("comp1-unit", f)
    for f in range(g.n1):
        for h in range(g.n1):
            if g.comp1[f][h] < 0:
                continue
            for k in range(g.n1):
                if g.comp1[h][k] < 0:
                    continue
                if g.comp1[g.comp1[f][h]][k] != g.comp1[f][g.comp1[h][k]]:
                    raise Violation("comp1-assoc", (f, h, k))
    for f in range(g.n1):
        i = g.inv1[f]
        if g.comp1[f][i] != g.id1[g.src1[f]] or g.comp1[i][f] != g.id1[g.tgt1[f]]:
            raise Violation("inv1", f)

    # 2-cell level, vertical
    for f, a in enumerate(g.id2):
        if g.src2[a] != f or g.tgt2[a] != f:
            raise Violation("id2-endpoints", f)
    for a in range(g.n2):
        if g.src1[g.src2[a]] != g.src1[g.tgt2[a]] or \
           g.tgt1[g.src2[a]] != g.tgt1[g.tgt2[a]]:
            raise Violation("2cell-not-parallel", a)
    for a in range(g.n2):
        for b in range(g.n2):
            defined = g.vcomp[a][b] >= 0
            if defined != (g.tgt2[a] == g.src2[b]):
                raise Violation("vcomp-domain", (a, b))
            if defined:
                ab = g.vcomp[a][b]
                if g.src2[ab] != g.src2[a] or g.tgt2[ab] != g.tgt2[b]:
                    raise Violation("vcomp-endpoints", (a, b))
    for a in range(g.n2):
        if g.vcomp[g.id2[g.src2[a]]][a] != a or g.vcomp[a][g.id2[g.tgt2[a]]] != a:
            raise Violation("vcomp-unit", a)
    for a in range(g.n2):
        for b in range(g.n2):
            if g.vcomp[a][b] < 0:
                continue
            for c in range(g.n2):
                if g.vcomp[b][c] < 0:
                    continue
                if g.vcomp[g.vcomp[a][b]][c] != g.vcomp[a][g.vcomp[b][c]]:
                    raise Violation("vcomp-assoc", (a, b, c))
    for a in range(g.n2):
        i = g.vinv[a]
        if g.vcomp[a][i] != g.id2[g.src2[a]] or g.vcomp[i][a] != g.id2[g.tgt2[a]]:
            raise Violation("vinv", a)

    # 2-cell level, horizontal
    for a in range(g.n2):
        for b in range(g.n2):
            defined = g.hcomp2[a][b] >= 0
            composable = g.tgt1[g.src2[a]] == g.src1[g.src2[b]]
            if defined != composable:
                raise Violation("hcomp-domain", (a, b))
            if defined:
                ab = g.hcomp2[a][b]
                if g.src2[ab] != g.comp1[g.src2[a]][g.src2[b]] or \
                   g.tgt2[ab] != g.comp1[g.tgt2[a]][g.tgt2[b]]:
                    raise Violation("hcomp-endpoints", (a, b))
    for a in range(g.n2):
        left = g.id2[g.id1[g.src1[g.src2[a]]]]
        right = g.id2[g.id1[g.tgt1[g.src2[a]]]]
        if g.hcomp2[left][a] != a or g.hcomp2[a][right] != a:
            raise Violation("hcomp-unit", a)
    for a in range(g.n2):
        for b in range(g.n2):
            if g.hcomp2[a][b] < 0:
                continue
            for c in range(g.n2):
                if g.hcomp2[b][c] < 0:
                    continue
                if g.hcomp2[g.hcomp2[a][b]][c] != g.hcomp2[a][g.hcomp2[b][c]]:
                    raise Violation("hcomp-assoc", (a, b, c))
    # identity 2-cells are functorial horizontally
    for f in range(g.n1):
        for h in range(g.n1):
            if g.comp1[f][h] >= 0:
                if g.hcomp2[g.id2[f]][g.id2[h]] != g.id2[g.comp1[f][h]]:
                    raise Violation("hcomp-of-identities", (f, h))

    # interchange on all composable quadruples
    for a in range(g.n2):
        for b in range(g.n2):
            if g.vcomp[a][b] < 0:
                continue
            for c in range(g.n2):
                if g.hcomp2[a][c] < 0:
                    continue
                for d in range(g.n2):
                    if g.vcomp[c][d] < 0:
                        continue
                    lhs = g.hcomp2[g.vcomp[a][b]][g.vcomp[c][d]]
                    rhs = g.vcomp[g.hcomp2[a][c]][g.hcomp2[b][d]]
                    if lhs != rhs:
                        raise Violation("interchange", (a, b, c, d))
    return g


TABLE_FIELDS = ("n_objects", "src1", "tgt1", "id1", "comp1", "src2", "tgt2",
                "id2", "vcomp", "hcomp2", "basepoint")
TABLES = ("comp1", "vcomp", "hcomp2")


def _scan_ranges(t):
    """The range audit of the builders as a scan of dense tables, field by
    field in file order: each index names a cell, and a table may hold -1."""
    n0, n1, n2 = t["n_objects"], len(t["src1"]), len(t["src2"])
    for name, bound, length in (
            ("src1", n0, n1), ("tgt1", n0, n1), ("id1", n1, n0),
            ("comp1", n1, n1), ("src2", n1, n2), ("tgt2", n1, n2),
            ("id2", n2, n1), ("vcomp", n2, n2), ("hcomp2", n2, n2)):
        if len(t[name]) != length:
            raise Violation(f"{name}-length", len(t[name]))
        for i, v in enumerate(t[name]):
            if name not in TABLES and not 0 <= v < bound:
                raise Violation(f"{name}-range", i)
            for j, w in enumerate(v if name in TABLES else ()):
                if not -1 <= w < bound:
                    raise Violation(f"{name}-range", (i, j))


def _scan_build(t):
    _scan_ranges(t)
    src1, tgt1, id1, comp1 = t["src1"], t["tgt1"], t["id1"], t["comp1"]
    src2, tgt2, id2, vcomp = t["src2"], t["tgt2"], t["id2"], t["vcomp"]
    inv1 = _scan_derive_inverses(
        len(src1), src1, tgt1, id1, comp1,
        lambda f: id1[src1[f]], lambda f: id1[tgt1[f]])
    vinv = _scan_derive_inverses(
        len(src2), src2, tgt2, id2, vcomp,
        lambda a: id2[src2[a]], lambda a: id2[tgt2[a]])
    return _sparse(_scan_check_two_groupoid(
        TwoGroupoid(inv1=inv1, vinv=vinv, **t)))


def _dict_rows(table):
    return tuple({y: v for y, v in enumerate(r) if v >= 0} for r in table)


def _sparse(g):
    """g with its dense tables as the dict rows that the builders keep."""
    return dataclasses.replace(
        g, **{f: _dict_rows(getattr(g, f)) for f in TABLES})


def _outcome(build, t):
    """The built 2-groupoid, or the name and witness of its violation."""
    try:
        return build(t)
    except Violation as exc:
        return exc.axiom, exc.witness


def _frozen(g):
    """g's fields, its tables read back densely."""
    return {f: dense_table(getattr(g, f)) if f in TABLES else getattr(g, f)
            for f in TABLE_FIELDS}


def _with(t, field, i, j, value):
    """t with t[field][i][j] (or t[field][i] when j is None) set to value."""
    out = dict(t)
    if j is None:
        out[field] = t[field][:i] + (value,) + t[field][i + 1:]
    else:
        row = t[field][i][:j] + (value,) + t[field][i][j + 1:]
        out[field] = t[field][:i] + (row,) + t[field][i + 1:]
    return out


def _mutants(t):
    """Tables with one composite changed to every other cell, to -1 or to
    -2 (undefined, but not the -1 that a row's count of -1 entries
    counts), one 2-cell reversed, or the sources of two 2-cells swapped."""
    for field in ("comp1", "vcomp", "hcomp2"):
        n = len(t[field])
        for i, j in itertools.product(range(n), repeat=2):
            for w in range(-2, n):
                if w != t[field][i][j]:
                    yield _with(t, field, i, j, w)
    for a in range(len(t["src2"])):
        rev = _with(t, "src2", a, None, t["tgt2"][a])
        yield _with(rev, "tgt2", a, None, t["src2"][a])
        b = (a + 1) % len(t["src2"])
        swap = _with(t, "src2", a, None, t["src2"][b])
        yield _with(swap, "src2", b, None, t["src2"][a])


def _two_in_a_row(t):
    """Tables with two entries of one row changed: one to the next cell, and
    one from defined to -1 or from -1 to a cell."""
    for field in ("comp1", "vcomp", "hcomp2"):
        table, n = t[field], len(t[field])
        for i, j, k in itertools.product(range(n), repeat=3):
            if j != k:
                m = _with(t, field, i, j, (table[i][j] + 1) % n)
                yield _with(m, field, i, k, -1 if table[i][k] >= 0 else 0)


def _fake_inverses(t):
    """Tables where a cell gains a second, non-composable "inverse" g: the
    entries at (f, g) and (g, f) are set to the identities an inverse of f
    would give, with f's true inverse kept or broken."""
    for field, src, tgt, ident in (("comp1", "src1", "tgt1", "id1"),
                                   ("vcomp", "src2", "tgt2", "id2")):
        table, n = t[field], len(t[src])
        for f, g in itertools.product(range(n), repeat=2):
            if t[src][g] == t[tgt][f]:
                continue
            fake = _with(t, field, f, g, t[ident][t[src][f]])
            fake = _with(fake, field, g, f, t[ident][t[tgt][f]])
            yield fake
            for h in range(n):
                if table[f][h] == t[ident][t[src][f]]:
                    yield _with(fake, field, f, h, -1)


def _audit_bases():
    bg2 = xmod_to_2group(xmod_bg(cyclic(2)))
    b2g2 = xmod_to_2group(xmod_b2g(cyclic(2)))
    bases = [xmod_to_2group(xm) for name, xm in build_corpus()
             if name != "id_s3"]
    return bases + [hom_strict(bg2, b2g2), hom_weak_trans(bg2, b2g2),
                    hom_full(bg2, b2g2), disjoint_union(bg2, b2g2)]


class TestAuditMatchesScan:
    @pytest.mark.parametrize("k", range(len(_audit_bases())))
    def test_first_violation_equals_scan(self, k):
        t = _frozen(_audit_bases()[k])
        for m in itertools.chain([t], _mutants(t), _two_in_a_row(t),
                                 _fake_inverses(t)):
            want = _outcome(_scan_build, m)
            got = _outcome(lambda m: build_two_groupoid(**m), m)
            assert got == want, m

    def test_mutants_reach_the_rewritten_checks(self):
        seen = set()
        for g in _audit_bases():
            t = _frozen(g)
            for m in itertools.chain(_mutants(t), _two_in_a_row(t),
                                     _fake_inverses(t)):
                want = _outcome(_scan_build, m)
                if not isinstance(want, TwoGroupoid):
                    seen.add(want[0])
        assert {"comp1-domain", "comp1-endpoints", "vcomp-domain",
                "hcomp-domain", "invertibility", "interchange"} <= seen, seen


# -- associativity audited on generators ----------------------------------------
#
# _check_assoc tests (ab)c = a(bc) for b among the generators only, and
# falls back to the scan on a failure.  Its precondition is that the domain
# and endpoint audits passed, so the mutants below keep every composite
# between the same objects.

def _scan_assoc(table, name):
    """The all-triples scan, in index order."""
    n = len(table)
    for a, b, c in itertools.product(range(n), repeat=3):
        if table[a][b] >= 0 and table[b][c] >= 0 and \
           table[table[a][b]][c] != table[a][table[b][c]]:
            raise Violation(name, (a, b, c))


def _category(k, group, all_pairs):
    """Cells (i, j, g) over objects 0..k-1, with i <= j unless all_pairs,
    composed as (i, j, g)(j, l, h) = (i, l, gh); returns (src, tgt,
    table)."""
    cells = [(i, j, g) for i in range(k) for j in range(k)
             for g in range(group.order) if all_pairs or i <= j]
    pos = {c: x for x, c in enumerate(cells)}
    table = [[pos[(i, l, group.mul[g][h])] if j == jj else -1
              for jj, l, h in cells] for i, j, g in cells]
    return [c[0] for c in cells], [c[1] for c in cells], table


def _assoc_outcome(check, table):
    try:
        check(table)
    except Violation as exc:
        return exc.axiom, exc.witness
    return None


def _same_as_scan(src, tgt, table):
    right = _partners(tgt, src)
    got = _assoc_outcome(lambda t: _check_assoc(t, right, "assoc"), table)
    assert got == _assoc_outcome(lambda t: _scan_assoc(t, "assoc"), table)
    return got


def _moved(table, x, y, w):
    """table with its composite at (x, y) replaced by w."""
    out = [list(r) for r in table]
    out[x][y] = w
    return out


GROUPS = [trivial_group(), cyclic(2), cyclic(3), klein_four(), symmetric3()]


class TestAssocOnGenerators:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 3), st.sampled_from(GROUPS), st.booleans(),
           st.data())
    def test_one_changed_entry_raises_as_the_scan(self, k, group,
                                                  all_pairs, data):
        src, tgt, table = _category(k, group, all_pairs)
        pairs = [(x, y) for x, row in enumerate(table)
                 for y, v in enumerate(row) if v >= 0]
        x, y = data.draw(st.sampled_from(pairs))
        same_ends = [w for w in range(len(table))
                     if src[w] == src[x] and tgt[w] == tgt[y]]
        w = data.draw(st.sampled_from(same_ends))
        _same_as_scan(src, tgt, _moved(table, x, y, w))

    @pytest.mark.parametrize("k, group, all_pairs", [
        (2, cyclic(3), True), (3, cyclic(2), False), (1, symmetric3(), True),
        (2, klein_four(), False)])
    def test_every_changed_entry_raises_as_the_scan(self, k, group,
                                                    all_pairs):
        src, tgt, table = _category(k, group, all_pairs)
        assert _same_as_scan(src, tgt, table) is None
        raised = 0
        for x, row in enumerate(table):
            for y, v in enumerate(row):
                for w in range(len(table)):
                    if v >= 0 and w != v and src[w] == src[x] and \
                       tgt[w] == tgt[y]:
                        raised += _same_as_scan(
                            src, tgt, _moved(table, x, y, w)) \
                            is not None
        assert raised > 0

    def test_hom_audits_comp1_on_few_generators(self, monkeypatch):
        """The pointed hom BZ/4 -> B2Z/3 has 729 1-cells and 729 2-cells;
        comp1 and hcomp2 are audited on 53 generators each."""
        seen = []

        def spy(table, right, left):
            gens = generators(table, right, left)
            seen.append((table, gens))
            return gens

        generators = fingroup._generators
        monkeypatch.setattr(fingroup, "_generators", spy)
        h = hom_full(xmod_to_2group(xmod_bg(cyclic(4))),
                     xmod_to_2group(xmod_b2g(cyclic(3))), pointed_only=True)
        counts = {name: len(gens) for table, gens in seen
                  for name in ("comp1", "vcomp", "hcomp2")
                  if table is getattr(h, name)}
        assert counts["comp1"] <= 60 and counts["hcomp2"] <= 60, counts
        assert counts["vcomp"] == 729


# -- interchange audited on whiskers ---------------------------------------------
#
# _interchange_on_whiskers tests four families of whiskered composites; each
# is an instance of the interchange law.  One 2-cell-only 2-group shows that
# each of the two forms of a o c is needed: hcomp2 the product, or the
# opposite product, of a group that is not abelian passes every audit before
# interchange and fails exactly one form.  (The two whiskering families are
# shown in test_weakmaps.)

def _one_object(vertical, horizontal):
    """One object, one 1-cell, and 2-cells composed by the given tables."""
    n = len(vertical)
    return dict(n_objects=1, src1=(0,), tgt1=(0,), id1=(0,), comp1=((0,),),
                src2=(0,) * n, tgt2=(0,) * n, id2=(0,),
                vcomp=tuple(map(tuple, vertical)),
                hcomp2=tuple(map(tuple, horizontal)), basepoint=0)


class TestInterchangeOnWhiskers:
    @pytest.mark.parametrize("form", ["first", "second"])
    def test_each_form_of_a_horizontal_composite_is_needed(self, form):
        mul = symmetric3().mul
        opposite = [list(col) for col in zip(*mul)]
        t = _one_object(mul, mul if form == "second" else opposite)
        want = _outcome(_scan_build, t)
        assert want[0] == "interchange"
        assert _outcome(lambda m: build_two_groupoid(**m), t) == want

    def test_a_valid_hom_passes_on_whiskers(self):
        g = hom_full(xmod_to_2group(xmod_bg(cyclic(2))),
                     xmod_to_2group(xmod_b2g(cyclic(3))))
        below = _partners(g.tgt2, g.src2)
        beside = _partners([g.tgt1[f] for f in g.src2],
                           [g.src1[f] for f in g.src2])
        assert twogpd._interchange_on_whiskers(g, below, beside)


class TestIsomorphismStopsAtTheFirst:
    @pytest.mark.parametrize("name, xm", [
        (name, xm) for name, xm in build_corpus() if name != "id_s3"])
    def test_the_first_bijective_functor(self, name, xm):
        g = xmod_to_2group(xm)
        found, listed = Budget(DEFAULT_CAP, "iso"), Budget(DEFAULT_CAP, "all")
        first = next(F for F in enumerate_2functors(g, g, cap=listed)
                     if len(set(F.obj_map)) == g.n_objects and
                     len(set(F.map1)) == g.n1 and len(set(F.map2)) == g.n2)
        assert two_groupoid_isomorphic(g, g, cap=found) == first
        assert found.steps <= listed.steps

    def test_an_early_isomorphism_under_a_cap_the_list_exceeds(self):
        g = xmod_to_2group(xmod_bg(symmetric3()))
        # the first of the 10 strict functors of B(S3) to itself that is
        # invertible is found in 26 steps; all 10 take 67
        assert two_groupoid_isomorphic(g, g, cap=26) is not None
        with pytest.raises(SizeCapExceeded):
            two_groupoid_isomorphic(g, g, cap=25)
        with pytest.raises(SizeCapExceeded):
            enumerate_2functors(g, g, cap=66)
        assert len(enumerate_2functors(g, g, cap=67)) == 10
