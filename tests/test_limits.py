"""Direct limits of stationary systems and their classification."""
import pytest
from hypothesis import given, settings, strategies as st

from tilecohom.abelian import FgAbGroup, GroupHom, IntMatrix, cokernel
from tilecohom.errors import (ExactnessFailure, NotACochainMap, NotWellDefined,
                             Unclassified)
from tilecohom.limits import (GroupExpr, TowerGroup, classify,
                              eventual_restriction, iso_check, limit_les,
                              radical, subquotient_tower, verify_split)


def tower(ngens, rel_cols, matrix_rows):
    rel = IntMatrix.from_rows(rel_cols).transpose() if rel_cols \
        else IntMatrix.zeros(ngens, 0)
    g = FgAbGroup(ngens, rel)
    return TowerGroup(g, GroupHom(g, g, IntMatrix.from_rows(matrix_rows)))


class TestGroupExpr:
    def test_radical(self):
        assert radical(4) == 2
        assert radical(12) == 6
        assert radical(1) == 1

    def test_normalization(self):
        assert str(GroupExpr((), [(1, 2)], 0)) == "Z^2"
        assert str(GroupExpr((), [(0, 3)], 1)) == "Z"
        assert str(GroupExpr((), [(4, 1)], 0)) == "Z[1/2]"
        assert str(GroupExpr((), [(2, 1), (4, 2)], 0)) == "Z[1/2]^3"

    def test_render_order(self):
        e = GroupExpr([2, 3], [(5, 1), (2, 2)], 2)
        assert str(e) == "Z_2 + Z_3 + Z[1/2]^2 + Z[1/5] + Z^2"

    def test_parse_roundtrip(self):
        for text in ("0", "Z", "Z^3", "Z_2", "Z[1/2]", "Z[1/6]^2",
                     "Z_2 + Z_3 + Z[1/2]^2 + Z[1/5] + Z^2"):
            assert GroupExpr.parse(text).render() == text

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            GroupExpr.parse("Q + Z")

    # each of these used to parse as something else: Z + Z^-1 as 0,
    # Z^1_0 as Z^10, Z[1/2]x and Z[1/2 as Z[1/2], Z_+3 and Z_3 in Arabic
    # digits as Z_3, and the zero or unit orders, bases and exponents
    # as summands they do not name
    @pytest.mark.parametrize("text", [
        "Z^-1", "Z + Z^-1", "Z^0", "Z[1/2]^0", "Z_1", "Z_0", "Z[1/0]",
        "Z[1/1]", "Z[1/-2]", "Z_+3", "Z_\u0663", "Z^1_0", "Z[1/2]x",
        "Z[1/2", "Z_ 2"])
    def test_parse_refuses_what_it_cannot_honour(self, text):
        with pytest.raises(ValueError, match="cannot parse"):
            GroupExpr.parse(text)

    # each of these used to build an expression that renders as another
    # group: Z[1/2], Z, 0, Z[1/2], and 0 for Z_0, which is Z
    @pytest.mark.parametrize("args", [
        ((), [(2, -1)], 0), ((), (), -1), ([-3], (), 0), ((), [(-4, 1)], 0),
        ([0], (), 0), ([2, 0], (), 1), ((), [(0, -1)], 0),
        ((), [(-1, 0)], 0), ((), [(1, -2)], 3)])
    def test_refuses_impossible_parts(self, args):
        with pytest.raises(ValueError, match="no group has"):
            GroupExpr(*args)

    # each of these used to be truncated by int(): Z_2, Z, Z_3, Z[1/2]
    @pytest.mark.parametrize("args", [
        ([2.5], (), 0), ((), (), 1.9), (["3"], (), 0), ((), [("4", 1)], 0),
        ((), [(4.7, 1)], 0), ((), [(2, 1.0)], 0)])
    def test_refuses_non_integral_parts(self, args):
        with pytest.raises(TypeError):
            GroupExpr(*args)

    def test_documented_folds_stay(self):
        # Z_1, Z[1/1], Z[1/0] and multiplicity 0
        assert str(GroupExpr([1, 2], [(1, 2), (0, 3), (5, 0)], 1)) == \
            "Z_2 + Z^3"

    @settings(max_examples=300)
    @given(st.lists(st.integers(-2, 40), max_size=4),
           st.lists(st.tuples(st.integers(-2, 40), st.integers(-2, 4)),
                    max_size=4),
           st.integers(-2, 5))
    def test_accepted_expressions_render_back(self, torsion, locs, free):
        try:
            e = GroupExpr(torsion, locs, free)
        except ValueError:
            assert min(torsion, default=1) < 1 or free < 0 \
                or any(m < 0 or a < 0 for m, a in locs)
            return
        assert GroupExpr.parse(e.render()) == e

    def test_parse_keeps_unnormalized_bases(self):
        assert GroupExpr.parse("Z[1/4] + Z^1") == GroupExpr.parse("Z[1/2] + Z")

    def test_iso_check(self):
        assert iso_check(GroupExpr.parse("Z[1/4]"), GroupExpr.parse("Z[1/2]"))
        assert not iso_check(GroupExpr.parse("Z"), GroupExpr.parse("Z^2"))


class TestClassify:
    def test_free_times2(self):
        assert str(classify(tower(1, [], [[2]]))) == "Z[1/2]"

    def test_identity(self):
        assert str(classify(tower(2, [], [[1, 0], [0, 1]]))) == "Z^2"

    def test_mixed_radicals(self):
        assert str(classify(tower(2, [], [[2, 0], [0, 3]]))) == \
            "Z[1/2] + Z[1/3]"

    def test_radical_merge(self):
        # x4 and x2 both localize at 2
        assert str(classify(tower(2, [], [[4, 0], [0, 2]]))) == "Z[1/2]^2"

    def test_negative_eigenvalue(self):
        assert str(classify(tower(1, [], [[-1]]))) == "Z"

    def test_torsion_passthrough(self):
        assert str(classify(tower(1, [[3]], [[1]]))) == "Z_3"

    def test_torsion_dies(self):
        # x2 on Z_4 is eventually zero in the limit
        assert classify(tower(1, [[4]], [[2]])).is_zero()

    def test_nilpotent_free_part(self):
        assert classify(tower(2, [], [[0, 1], [0, 0]])).is_zero()

    def test_jordan_block(self):
        assert str(classify(tower(2, [], [[2, 1], [0, 2]]))) == "Z[1/2]^2"

    def test_nonsplit_pair_is_unclassified(self):
        # lattice <u1, u2, (u1+u2)/5> with u1 -> 2 u1, u2 -> 7 u2: the two
        # localizations are entangled through the index-5 gluing, and the
        # limit is genuinely not a direct sum of localizations
        g = FgAbGroup(3, IntMatrix.from_rows([[-1], [-1], [5]]))
        endo = GroupHom(g, g, IntMatrix.from_rows(
            [[2, 0, 0], [0, 7, 1], [0, 0, 2]]))
        e = classify(TowerGroup(g, endo))
        assert e.unclassified is not None
        with pytest.raises(Unclassified):
            iso_check(e, GroupExpr.parse("Z[1/2] + Z[1/7]"))

    def test_split_pair_classifies(self):
        # same eigenvalues, but an honest direct sum
        assert str(classify(tower(2, [], [[2, 0], [0, 7]]))) == \
            "Z[1/2] + Z[1/7]"

    def test_verify_split(self):
        assert verify_split(tower(2, [[2, 0]], [[1, 0], [0, 2]]))

    @settings(max_examples=300)
    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
           st.integers(1, 3))
    def test_cofinality(self, a, b, d, j):
        # classify is invariant under passing to powers of the endomorphism
        t = tower(2, [], [[a, b], [0, d]])
        e1 = classify(t)
        e2 = classify(t.power(j))
        if e1.unclassified is None and e2.unclassified is None:
            assert e1 == e2

    @settings(max_examples=250)
    @given(st.integers(-9, 9), st.integers(2, 9))
    def test_never_z_over_one_or_zero(self, a, d):
        for t in (tower(1, [], [[a]]), tower(1, [[d]], [[a]])):
            e = classify(t)
            if e.unclassified is None:
                for m, _ in e.localization_parts:
                    assert m not in (0, 1)
                    assert m == radical(m)


class TestTowerGroup:
    def test_codomain_must_be_the_tower_group(self):
        # used to be accepted, and classify then failed with an untyped
        # "row mismatch" from hstack
        g = FgAbGroup(1)
        endo = GroupHom(g, FgAbGroup(2), IntMatrix.from_rows([[1], [0]]))
        with pytest.raises(ValueError, match="self-map"):
            TowerGroup(g, endo)

    def test_domain_must_be_the_tower_group(self):
        g = FgAbGroup(1)
        endo = GroupHom(FgAbGroup(2), g, IntMatrix.from_rows([[1, 0]]))
        with pytest.raises(ValueError, match="self-map"):
            TowerGroup(g, endo)

    def test_power(self):
        t = tower(1, [], [[2]])
        assert t.power(0).endo.matrix == IntMatrix.identity(1)
        assert t.power(3).endo.matrix == IntMatrix.from_rows([[8]])

    def test_negative_power_refused(self):
        # power(-1) used to return the identity tower
        with pytest.raises(ValueError, match="no power -1"):
            tower(1, [], [[2]]).power(-1)

    def test_isomorphic_presentation_accepted(self):
        # another group object with the same signature is still a self-map
        g, h = FgAbGroup(1), FgAbGroup(1)
        t = TowerGroup(g, GroupHom(h, h, IntMatrix.from_rows([[2]])))
        assert str(classify(t)) == "Z[1/2]"

    @pytest.mark.parametrize("side", ["both", "domain", "codomain"])
    def test_other_presentation_refused(self, side):
        # Z^2/<(1,0)> and Z^2/<(0,1)> are both Z, and the matrix is a hom
        # of the second but not of the first: the tower used to be accepted
        # and classified to Z
        g = FgAbGroup(2, IntMatrix.from_rows([[1], [0]]))
        h = FgAbGroup(2, IntMatrix.from_rows([[0], [1]]))
        m = IntMatrix.from_rows([[-1, 0], [-1, -1]])
        with pytest.raises(NotWellDefined):
            GroupHom(g, g, m)
        dom, cod = {"both": (h, h), "domain": (h, g),
                    "codomain": (g, h)}[side]
        with pytest.raises(ValueError, match="self-map"):
            TowerGroup(g, GroupHom(dom, cod, m, check=False))

    def test_other_ngens_same_signature_refused(self):
        # Z^2/<(0,1)> is Z, like Z^1, but has two generators
        g = FgAbGroup(1)
        h = FgAbGroup(2, IntMatrix.from_rows([[0], [1]]))
        assert (g.free_rank, g.torsion) == (h.free_rank, h.torsion)
        with pytest.raises(ValueError, match="self-map"):
            TowerGroup(g, GroupHom(h, h, IntMatrix.identity(2)))


class TestEventualRestriction:
    def test_strict_shrink(self):
        t = tower(2, [], [[2, 0], [0, 0]])
        rt = eventual_restriction(t)
        assert rt.group.free_rank == 1

    def test_trivializes(self):
        t = tower(1, [[4]], [[2]])
        assert eventual_restriction(t).group.is_trivial()


class TestSubquotientTower:
    def test_non_invariant_sublattice_rejected(self):
        # the swap does not preserve the first coordinate axis
        t = tower(2, [], [[0, 1], [1, 0]])
        with pytest.raises(NotACochainMap):
            subquotient_tower(t, IntMatrix.from_rows([[1], [0]]), t.group.rel)

    def test_torsion_subquotient(self):
        # Z^2 / <(2, 0)> under diag(3, 2), restricted to the first axis
        t = tower(2, [[2, 0]], [[3, 0], [0, 2]])
        sub = IntMatrix.from_rows([[1, 2], [0, 0]])
        q = subquotient_tower(t, sub, t.group.rel)
        assert (q.group.free_rank, q.group.torsion) == (0, (2,))

    @settings(max_examples=200)
    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
           st.integers(0, 4))
    def test_whole_group_is_the_tower(self, a, b, d, r):
        t = tower(2, [[r, 0]] if r else [], [[a, b], [0, d]])
        e1 = classify(t)
        e2 = classify(subquotient_tower(t, IntMatrix.identity(2), t.group.rel))
        if e1.unclassified is None:
            assert e1 == e2
        else:
            assert e2.unclassified is not None


class TestLimitLes:
    def _ses(self):
        za = tower(1, [], [[2]])
        zb = tower(2, [], [[2, 0], [0, 3]])
        zc = tower(1, [], [[3]])
        alpha = GroupHom(za.group, zb.group, IntMatrix.from_rows([[1], [0]]))
        beta = GroupHom(zb.group, zc.group, IntMatrix.from_rows([[0, 1]]))
        return za, zb, zc, alpha, beta

    def test_exact_ses(self):
        za, zb, zc, alpha, beta = self._ses()
        zg = FgAbGroup(0)
        tz = TowerGroup(zg, GroupHom.zero(zg, zg))
        exprs = limit_les(
            [tz, za, zb, zc, tz],
            [GroupHom.zero(zg, za.group), alpha, beta,
             GroupHom.zero(zc.group, zg)])
        assert [str(e) for e in exprs[1:4]] == \
            ["Z[1/2]", "Z[1/2] + Z[1/3]", "Z[1/3]"]

    def test_broken_ses(self):
        za, zb, zc, alpha, beta = self._ses()
        zg = FgAbGroup(0)
        tz = TowerGroup(zg, GroupHom.zero(zg, zg))
        with pytest.raises(ExactnessFailure) as exc:
            limit_les(
                [tz, za, zb, zc, tz],
                [GroupHom.zero(zg, za.group),
                 GroupHom.zero(za.group, zb.group), beta,
                 GroupHom.zero(zc.group, zg)],
                names=["0", "A", "B", "C", "0"])
        assert exc.value.node in ("A", "B")

    def test_unpadded_ses_matches_padded(self):
        # the end-node defects stand in for the zero towers at both ends
        za, zb, zc, alpha, beta = self._ses()
        zg = FgAbGroup(0)
        tz = TowerGroup(zg, GroupHom.zero(zg, zg))
        padded = limit_les(
            [tz, za, zb, zc, tz],
            [GroupHom.zero(zg, za.group), alpha, beta,
             GroupHom.zero(zc.group, zg)])
        exprs = limit_les([za, zb, zc], [alpha, beta])
        assert [str(e) for e in exprs] == [str(e) for e in padded[1:4]]

    def test_first_map_not_injective(self):
        za, zb, zc, alpha, beta = self._ses()
        maps = [GroupHom.zero(za.group, zb.group), beta]
        with pytest.raises(ExactnessFailure) as exc:
            limit_les([za, zb, zc], maps, names=["A", "B", "C"])
        assert exc.value.node == "A"
        zg = FgAbGroup(0)
        tz = TowerGroup(zg, GroupHom.zero(zg, zg))
        with pytest.raises(ExactnessFailure) as padded:
            limit_les([tz, za, zb, zc, tz],
                      [GroupHom.zero(zg, za.group), *maps,
                       GroupHom.zero(zc.group, zg)],
                      names=["0", "A", "B", "C", "0"])
        assert padded.value.node == "A"

    def test_last_map_not_surjective(self):
        # B -> C + Z[1/5] misses the second summand
        za, zb, _, alpha, _ = self._ses()
        zc5 = tower(2, [], [[3, 0], [0, 5]])
        beta = GroupHom(zb.group, zc5.group,
                        IntMatrix.from_rows([[0, 1], [0, 0]]))
        with pytest.raises(ExactnessFailure) as exc:
            limit_les([za, zb, zc5], [alpha, beta], names=["A", "B", "C"])
        assert exc.value.node == "C"
        zg = FgAbGroup(0)
        tz = TowerGroup(zg, GroupHom.zero(zg, zg))
        with pytest.raises(ExactnessFailure) as padded:
            limit_les([tz, za, zb, zc5, tz],
                      [GroupHom.zero(zg, za.group), alpha, beta,
                       GroupHom.zero(zc5.group, zg)],
                      names=["0", "A", "B", "C", "0"])
        assert padded.value.node == "C"

    def test_noncommuting_rejected(self):
        za = tower(1, [], [[2]])
        zb = tower(1, [], [[3]])
        f = GroupHom(za.group, zb.group, IntMatrix.identity(1))
        with pytest.raises(NotACochainMap):
            limit_les([za, zb], [f])

    @settings(max_examples=250)
    @given(st.integers(1, 5), st.integers(1, 5))
    def test_random_direct_sum_ses_exact(self, a, b):
        # 0 -> A -> A + B -> B -> 0 with diagonal endomorphisms
        za = tower(1, [], [[a]])
        zb = tower(1, [], [[b]])
        zab = tower(2, [], [[a, 0], [0, b]])
        alpha = GroupHom(za.group, zab.group, IntMatrix.from_rows([[1], [0]]))
        beta = GroupHom(zab.group, zb.group, IntMatrix.from_rows([[0, 1]]))
        zg = FgAbGroup(0)
        tz = TowerGroup(zg, GroupHom.zero(zg, zg))
        limit_les([tz, za, zab, zb, tz],
                  [GroupHom.zero(zg, za.group), alpha, beta,
                   GroupHom.zero(zb.group, zg)])
