"""Space catalog: names, golden tables, verification drivers."""
import pytest

from tilecohom import catalog, subst2d
from tilecohom.catalog import (PATH_STARTS, PATH_WORDS, FactorPath, SpaceId,
                               catalog_factor_maps, compute_path,
                               compute_quotient, compute_space,
                               expected_1d_space, golden_lookup, golden_table,
                               lemma1_agreement, verify_all)
from tilecohom.errors import InvalidPath, NotBorderForcing


class TestSpaceId:
    def test_parse_roundtrip(self):
        for name in ("tm:2,1", "pd:3,2", "sol:4", "chair:X,+", "chair:0,0"):
            assert str(SpaceId.parse(name)) == name

    def test_dimension(self):
        assert SpaceId.parse("tm:1,1").dimension == 1
        assert SpaceId.parse("chair:/,-").dimension == 2
        assert SpaceId.parse("chair:/,-").scheme == "/,-"

    @pytest.mark.parametrize("bad", ("tm:0,1", "tm:2", "sol:1", "sol:x",
                                     "chair:Y,+", "foo:1", "tm:2,1,3"))
    def test_parse_rejects(self, bad):
        with pytest.raises(InvalidPath):
            SpaceId.parse(bad)

    def test_scheme_on_1d_rejected(self):
        with pytest.raises(InvalidPath):
            SpaceId.parse("sol:2").scheme


class TestGoldenTable:
    def test_loads_and_roundtrips(self):
        table = golden_table()
        assert table
        from tilecohom.limits import GroupExpr
        for rec in table:
            assert rec.kind in ("space", "quotient", "path")
            # the stored text is already in the canonical grammar
            assert GroupExpr.parse(rec.expr.render()) == rec.expr

    def test_covers_every_path_word(self):
        for word in PATH_WORDS:
            assert set(golden_lookup("path", word)) == {0, 1, 2}
            assert word in PATH_STARTS

    def test_covers_all_chair_spaces(self):
        spaces = {rec.key for rec in golden_table()
                  if rec.kind == "space" and rec.key.startswith("chair:")}
        assert len(spaces) == 9

    def test_boxed_flags_mark_corrected_column(self):
        boxed = {(r.key, r.degree) for r in golden_table() if "boxed" in r.flags}
        assert all(key.startswith(("chair:/,+", "chair:/,-"))
                   for key, _ in boxed)
        assert boxed


class TestDrivers:
    def test_compute_space_1d(self):
        h = compute_space("sol:2")
        assert [str(e) for e in h] == ["Z", "Z[1/2]"]

    def test_compute_quotient_same_space_is_zero(self):
        q = compute_quotient("tm:1,1", "tm:1,1")
        assert all(e.is_zero() for e in q)

    def test_compute_quotient_same_space_spelled_differently(self):
        # names are compared as parsed spaces, as compute_space reads them
        for fine, coarse in (("tm:2,1", "tm:2,01"), ("sol:05", "sol:5")):
            q = compute_quotient(fine, coarse)
            assert len(q) == 2 and all(e.is_zero() for e in q)
        assert compute_quotient("tm:02,1", "pd:2,1") == \
            compute_quotient("tm:2,1", "pd:2,1")

    def test_verify_1d(self):
        report = verify_all("1d")
        assert report and all(r["ok"] for r in report)

    def test_verify_custom_grid(self):
        report = verify_all("1d", grid=((4, 2),))
        assert report and all(r["ok"] for r in report)

    def test_verify_nonsplit_tm_pair(self):
        # 25+14 = 39 and 25-14 = 11 are odd with incomparable prime sets:
        # the H^1 limit does not split, so unclassified is the right answer
        exp = expected_1d_space(SpaceId.parse("tm:25,14"))
        assert exp[1].unclassified is not None
        report = verify_all("1d", grid=((25, 14),))
        assert report and all(r["ok"] for r in report)

    def test_verify_nested_tm_pair_still_fails(self):
        # 15 and 5 have nested prime sets: the closed form holds and the
        # classifier's refusal is a real failure
        assert str(expected_1d_space(SpaceId.parse("tm:5,10"))[1]) \
            == "Z[1/5] + Z[1/15] + Z"
        bad = [r for r in verify_all("1d", grid=((5, 10),)) if not r["ok"]]
        assert [(r["key"], r["degree"], r["computed"]) for r in bad] \
            == [("tm:5,10", 1, "unclassified")]

    def test_compute_path_endpoint_independent_of_edge_order(self,
                                                              monkeypatch):
        # X,- + A ends at /,- or at X,0; the target self-map must come
        # from the realization that compose_path composes
        path = FactorPath("X,-", "A")
        want = compute_path(path)
        edges = subst2d.lattice_edges()
        monkeypatch.setattr(subst2d, "lattice_edges", lambda: edges[::-1])
        assert compute_path(path) == want

    def test_collar_off_honoured_for_chair_pairs(self):
        # only 0,0 forces its border; auto keeps forced collars for pairs
        with pytest.raises(NotBorderForcing):
            compute_quotient("chair:/,0", "chair:0,0", "off")
        with pytest.raises(NotBorderForcing):
            compute_path(FactorPath("/,0", "C"), "off")
        assert compute_quotient("chair:/,0", "chair:0,0", "auto") \
            == compute_quotient("chair:/,0", "chair:0,0", "on")

    def test_collar_off_honoured_for_same_chair_space(self):
        # the same-space shortcut used to return zeros before the policy
        # was resolved, so X,+ onto itself passed with off
        with pytest.raises(NotBorderForcing):
            compute_quotient("chair:X,+", "chair:X,+", "off")
        q = compute_quotient("chair:0,0", "chair:0,0", "off")
        assert len(q) == 3 and all(e.is_zero() for e in q)

    @pytest.mark.parametrize("grid", [((0, 0),), ((2, 1), (0, 3)),
                                      ((2, 1), (999999, 2))])
    def test_bad_grid_pair_named_before_any_check(self, grid, monkeypatch):
        # (0, 0) used to report 'sol:0', a space nobody asked for, and
        # ((2, 1), (0, 3)) computed the pair 2,1 before refusing
        def no_compute(*args):
            raise AssertionError("computed before the grid was checked")

        monkeypatch.setattr(catalog, "compute_space", no_compute)
        k, l = grid[-1]
        with pytest.raises(InvalidPath, match=f"^grid pair {k},{l}: "):
            verify_all("1d", grid=grid)

    def test_grid_pair_read_as_its_name(self):
        # ("2", "1") used to check tm:2,1 and pd:2,1, then fail on 'sol:21'
        assert verify_all("1d", grid=(("2", "01"),)) == \
            verify_all("1d", grid=((2, 1),))

    @pytest.mark.parametrize("scope, grid", [("1d", []), ("1d", ()),
                                             ("all", ())])
    def test_empty_grid_refused(self, scope, grid, monkeypatch):
        # verify_all("1d", []) used to return [], which reads as a pass,
        # and verify_all("all", ()) skipped every 1-D check
        def no_compute(*args):
            raise AssertionError("computed before the grid was checked")

        monkeypatch.setattr(catalog, "compute_space", no_compute)
        with pytest.raises(InvalidPath, match="grid has no k,l pair"):
            verify_all(scope, grid)

    def test_grid_rejected_for_verify_2d(self):
        # the grid used to be ignored: verify 2d with a grid passed 87/87
        with pytest.raises(InvalidPath, match="grid"):
            verify_all("2d", grid=((1, 1),))

    @pytest.mark.parametrize("call", (
        lambda: compute_space("tm:2,1", "off"),
        lambda: compute_space("sol:3", "on"),
        lambda: compute_quotient("tm:2,1", "pd:2,1", "off"),
        lambda: compute_quotient("tm:1,1", "tm:1,1", "forced"),
    ), ids=["space-off", "space-on", "quotient-off", "same-space-forced"])
    def test_collar_on_off_rejected_for_1d(self, call):
        # the collar used to be ignored for 1-D names
        with pytest.raises(InvalidPath, match=r"chair:\* spaces"):
            call()

    @pytest.mark.parametrize("call", (
        lambda: compute_space("chair:X,+", "bogus"),
        lambda: compute_space("tm:2,1", "bogus"),
        lambda: compute_quotient("chair:X,+", "chair:X,+", "bogus"),
        lambda: compute_quotient("chair:/,0", "chair:0,0", "bogus"),
        lambda: compute_path(FactorPath("X,+", "A"), "bogus"),
        lambda: subst2d.resolve_collar("bogus", ("chair:X,+",)),
    ), ids=["chair-space", "1d-space", "same-pair", "pair", "path",
            "collar-depth"])
    def test_unknown_collar_is_invalid_path(self, call):
        # an unknown policy used to return zeros (same pair) or raise a
        # ValueError whose message omitted `on`
        with pytest.raises(InvalidPath, match="auto, on, forced or off"):
            call()

    def test_lemma1_agreement_1d(self):
        maps = [(key, f, sx, sy) for key, f, sx, sy
                in catalog_factor_maps(((2, 1),)) if "chair" not in key]
        assert len(maps) == 3
        for key, f, sx, sy in maps:
            rep = lemma1_agreement(key, f, sx, sy)
            assert rep["h0_match"] and rep["top_match"]
