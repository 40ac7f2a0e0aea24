"""Decorated block-substitution family: rules, complexes, factor maps."""
import itertools

import pytest

import subst2d_reference as ref
from tilecohom import subst2d
from tilecohom.errors import (InvalidPath, NotBorderForcing, NotWellDefined)
from tilecohom.catalog import FactorPath, compute_path, compute_space
from tilecohom.limits import GroupExpr, classify, iso_check
from tilecohom.complexes import cohomology_tower, les_quotient
from tilecohom.subst2d import (ARROW_ORDER, LABEL_ORDER, MASTER_TILES,
                               QUADS, SCHEME_NAMES, Substitution2D,
                               ap_complex_2d, border_forcing_check,
                               compose_path, decorate,
                               descend_rule, edge_type, enumerate_prototiles,
                               factor_map_edge, lattice_edges,
                               legal_adjacencies, master_rule, master_system,
                               path_realizations)


def collar_depth(name, collar="auto"):
    """The collar depth that the resolver gives a query on one scheme."""
    return subst2d.resolve_collar(collar, (f"chair:{name}",))[1]


def _realizable_paths(max_len=4):
    """Every (scheme, word) with a word of length <= max_len that has a
    realization."""
    out = []
    for scheme in SCHEME_NAMES:
        for n in range(1, max_len + 1):
            for word in map("".join, itertools.product("ABC", repeat=n)):
                try:
                    path_realizations(scheme, word)
                except InvalidPath:
                    continue
                out.append((scheme, word))
    return out


class TestMasterRule:
    def test_tile_count(self):
        assert len(MASTER_TILES) == 32

    def test_head_constraint(self):
        for a, (w, y, x, z) in MASTER_TILES:
            if a == "NE":
                assert y == x
            elif a == "NW":
                assert w == y
            elif a == "SE":
                assert x == z
            else:
                assert w == z

    def test_rule_closed_and_primitive(self):
        sub = master_system()
        assert sub.is_primitive()
        for t in sub.tiles:
            assert set(master_rule(t)) == {(0, 0), (0, 1), (1, 0), (1, 1)}
            for child in master_rule(t).values():
                assert child in MASTER_TILES

    def test_primitive_up_to_wielandt_bound(self):
        # Wielandt's graph on 5 tiles: the cycle 0 -> 1 -> ... -> 4 -> 0 plus
        # the chord 4 -> 1.  Its first positive power is (5-1)^2 + 1 = 17.
        quads = ((0, 1), (1, 1), (0, 0), (1, 0))
        rule = {i: {q: i + 1 for q in quads} for i in range(4)}
        rule[4] = dict(zip(quads, (0, 0, 1, 1)))
        assert Substitution2D(range(5), rule).is_primitive()

    def test_periodic_rule_not_primitive(self):
        quads = ((0, 1), (1, 1), (0, 0), (1, 0))
        rule = {i: {q: (i + 1) % 3 for q in quads} for i in range(3)}
        assert not Substitution2D(range(3), rule).is_primitive()


class TestSchemes:
    def test_prototile_counts(self):
        counts = {"X,+": 32, "X,-": 16, "X,0": 4, "/,+": 28, "/,-": 12,
                  "/,0": 3, "0,0": 1}
        for name, n in counts.items():
            assert len(enumerate_prototiles(name)) == n

    def test_unknown_scheme(self):
        with pytest.raises(InvalidPath):
            decorate("Y,+")

    def test_descend_tile_level(self):
        sub = descend_rule("X,+")
        assert len(sub.tiles) == 32 and sub.is_primitive()

    def test_descend_needs_collar(self):
        # dropping arrows but keeping labels only descends on collared tiles
        sub = descend_rule("0,+")
        assert all(isinstance(t, tuple) and len(t) == 3 for t in sub.tiles)

    def test_descend_rejects_bad_coarsening(self):
        def q(tile):
            a, lab = tile
            return ("N" if a in ("NE", "NW") else a, lab)
        with pytest.raises(NotWellDefined):
            descend_rule(q)

    def test_legal_adjacencies(self):
        hp, vp = legal_adjacencies(descend_rule("0,0"))
        assert hp and vp

    @pytest.mark.parametrize("size", [(0, 1), (1, 0), (-1, 2), (0, 0)])
    def test_legal_rejects_size_below_one(self, size):
        with pytest.raises(ValueError):
            descend_rule("X,0").legal(*size)

    @pytest.mark.parametrize("depth", [-1, -2])
    def test_legal_adjacencies_rejects_negative_depth(self, depth):
        with pytest.raises(ValueError):
            legal_adjacencies("X,0", depth)

    # a rule has no collars; a depth used to be ignored without an error
    @pytest.mark.parametrize("depth", [5, 1, -3])
    def test_legal_adjacencies_of_a_rule_refuse_a_depth(self, depth):
        sub = descend_rule("0,0")
        assert legal_adjacencies(sub, 0) == legal_adjacencies(sub)
        with pytest.raises(ValueError):
            legal_adjacencies(sub, depth)

    # a repeated tile and a rule entry for a tile outside the tile set used
    # to be dropped silently, and a tile without an entry raised KeyError
    @pytest.mark.parametrize("tiles, entries, witness", [
        ([0, 1, 0], (0, 1), 0), ([0], (0, 1), 1), ([0, 1], (0,), 1)],
        ids=["repeated", "outside", "missing"])
    def test_rule_input_rejected_with_witness(self, tiles, entries, witness):
        rule = {t: dict.fromkeys(QUADS, 0) for t in entries}
        with pytest.raises(NotWellDefined) as err:
            Substitution2D(tiles, rule)
        assert err.value.witness == witness


class TestBorderForcing:
    def test_trivial_scheme_forces(self):
        assert border_forcing_check("0,0") == 1

    def test_master_does_not_force(self):
        assert border_forcing_check("X,+") is None

    @pytest.mark.parametrize("scheme", ["0,0", "X,+", lambda t: t])
    def test_negative_max_power_refused(self, scheme):
        # used to answer None, which reads as "does not force its border"
        with pytest.raises(ValueError, match="max_power must be >= 0"):
            border_forcing_check(scheme, -1)

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_coarsening_callable_answers_as_its_name(self, name):
        assert border_forcing_check(decorate(name)) == \
            border_forcing_check(name)

    def test_coarsening_that_never_descends_is_rejected(self):
        # the first letter of the arrow: not even the collared rule descends
        with pytest.raises(NotWellDefined):
            border_forcing_check(lambda t: t[0][0])

    def test_collar_policy(self):
        assert collar_depth("0,0", "auto") == 0
        assert collar_depth("X,+", "auto") == 1
        assert collar_depth("0,0", "forced") == 1
        with pytest.raises(NotBorderForcing):
            collar_depth("X,+", "off")

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_auto_asks_each_scheme_once(self, monkeypatch, name):
        # auto picks depth 0 only when every scheme forces its border, so
        # the choice is not checked a second time
        asked = []
        original = subst2d.border_forcing_check

        def counting(scheme, *args):
            asked.append(scheme)
            return original(scheme, *args)

        monkeypatch.setattr(subst2d, "border_forcing_check", counting)
        assert collar_depth(name, "auto") == (name != "0,0")
        assert asked == [name]

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_cold_auto_query_inflates_once(self, cold_caches, monkeypatch,
                                           name):
        # the legal 3-squares of the descended rule, which only the forcing
        # check reads, are enumerated once per query, and not at all for a
        # scheme whose rule descends only to collared tiles
        calls = []
        original = Substitution2D._squares

        def counting(self, n):
            calls.append(n)
            return original(self, n)

        monkeypatch.setattr(Substitution2D, "_squares", counting)
        compute_space(f"chair:{name}")
        assert calls.count(3) == (name not in ("0,+", "0,-"))

    @pytest.mark.usefixtures("cold_caches")
    def test_repeat_check_answers_alike(self):
        # a repeated check rebuilds the descended rule from the kept
        # collared classes, and answers as the first one did
        assert border_forcing_check("X,0") is None
        assert border_forcing_check("X,0") is None
        first, again = descend_rule("X,0"), descend_rule("X,0")
        assert (first.tiles, first.rule) == (again.tiles, again.rule)
        expected = {s: 1 if s == "0,0" else None for s in SCHEME_NAMES}
        assert {s: border_forcing_check(s) for s in SCHEME_NAMES} == expected
        assert {s: border_forcing_check(s) for s in SCHEME_NAMES} == expected

    @pytest.mark.usefixtures("cold_caches")
    def test_repeat_auto_choice_answers_alike(self, monkeypatch):
        # the side-table check reads the legal squares of the descended
        # rule; a repeated check or auto collar choice answers alike
        calls = []
        original = Substitution2D._squares

        def counting(self, n):
            calls.append(n)
            return original(self, n)

        monkeypatch.setattr(Substitution2D, "_squares", counting)
        assert border_forcing_check("X,0") is None
        assert calls
        assert border_forcing_check("X,0") is None
        assert collar_depth("X,0", "auto") == 1
        expected = {s: 1 if s == "0,0" else None for s in SCHEME_NAMES}
        assert {s: border_forcing_check(s) for s in SCHEME_NAMES} == expected
        assert {s: border_forcing_check(s) for s in SCHEME_NAMES} == expected
        depths = {s: 0 if s == "0,0" else 1 for s in SCHEME_NAMES}
        assert {s: collar_depth(s, "auto") for s in SCHEME_NAMES} == depths
        assert {s: collar_depth(s, "auto") for s in SCHEME_NAMES} == depths

class TestComplexes:
    def test_trivial_scheme_is_torus(self):
        cx, sm = ap_complex_2d("0,0", collar="auto")
        assert [cx.n_cells(k) for k in range(3)] == [1, 2, 1]
        assert sm.chain[2].to_rows() == [[4]]
        h = [classify(cohomology_tower(cx, sm, k)) for k in range(3)]
        assert [str(e) for e in h] == ["Z", "Z[1/2]^2", "Z[1/2]"]
        assert iso_check(h[2], GroupExpr.parse("Z[1/2]"))

    def test_collared_matches_uncollared(self):
        cx, sm = ap_complex_2d("0,0", collar="forced")
        h1 = classify(cohomology_tower(cx, sm, 1))
        assert str(h1) == "Z[1/2]^2"

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_collar_depth_invariance(self, name):
        """Depth-2 collars give the limit groups of forced depth-1 collars
        (Anderson-Putnam, ETDS 18)."""
        cx, sm, *_ = subst2d._ap_complex_2d_depth(name, 2)
        assert [classify(cohomology_tower(cx, sm, k)) for k in range(3)] \
            == compute_space(f"chair:{name}", "forced")

    def test_label_only_scheme(self):
        cx, sm = ap_complex_2d("0,-")
        h = [str(classify(cohomology_tower(cx, sm, k))) for k in range(3)]
        assert h == ["Z", "Z[1/2]^2", "Z[1/2]^2 + Z"]


class TestLattice:
    def test_edges_and_types(self):
        edges = lattice_edges()
        assert len(edges) == 12
        assert edge_type("X,+", "/,+") == "A"
        assert edge_type("X,+", "X,-") == "B"
        assert edge_type("/,0", "0,0") == "C"
        with pytest.raises(InvalidPath):
            edge_type("X,+", "0,0")  # not a single step

    @pytest.mark.parametrize("fine, coarse",
                             [(f, c) for _, f, c in lattice_edges()])
    def test_edge_collar_depth_invariance(self, fine, coarse):
        """Depth-2 collars give the Y, X and Q limits of forced depth-1
        collars on every lattice edge (Anderson-Putnam, ETDS 18)."""
        def groups(r):
            res = les_quotient(subst2d._factor_map_depth(fine, coarse, r),
                               subst2d._ap_complex_2d_depth(fine, r)[1],
                               subst2d._ap_complex_2d_depth(coarse, r)[1])
            return [res[key] for key in ("Y", "X", "Q")]

        assert groups(2) == groups(1)

    def test_edge_quotient_type_c(self):
        f = factor_map_edge("/,0", "0,0")
        cx_f, sm_f = ap_complex_2d("/,0", "forced")
        cx_c, sm_c = ap_complex_2d("0,0", "forced")
        res = les_quotient(f, sm_f, sm_c)
        assert res["Q"][0].is_zero()
        assert res["Q"][1].is_zero()
        assert str(res["Q"][2]) == "Z[1/2] + Z"

    def test_path_realizations(self):
        # from /,- the letter A can coarsen the arrow or the label
        reals = path_realizations("/,-", "A")
        assert sorted(reals) == [((("/,-"), ("/,0")),), ((("/,-"), ("0,-")),)]
        with pytest.raises(InvalidPath):
            path_realizations("X,+", "AD")
        with pytest.raises(InvalidPath):
            path_realizations("0,0", "A")

    def test_canonical_realization_is_the_former_minimum(self):
        # the first realization found is the one the step-key minimum chose
        paths = _realizable_paths()
        assert len(paths) == 28
        for scheme, word in paths:
            assert subst2d.canonical_realization(scheme, word) == \
                ref.canonical_realization(scheme, word), (scheme, word)

    def test_lattice_steps_all_pairs(self):
        edges = {(fine, coarse) for _, fine, coarse in lattice_edges()}
        below = {s: {s} for s in SCHEME_NAMES}
        for _ in SCHEME_NAMES:
            for fine, coarse in edges:
                below[fine] |= below[coarse]
        for fine in SCHEME_NAMES:
            for coarse in SCHEME_NAMES:
                if coarse not in below[fine]:
                    with pytest.raises(InvalidPath):
                        ref.lattice_steps(fine, coarse)
                    continue
                steps = ref.lattice_steps(fine, coarse)
                assert all(step in edges for step in steps)
                chain = [fine] + [c for _, c in steps]
                assert [f for f, _ in steps] == chain[:-1]
                assert chain[-1] == coarse
                (fa, fl), (ca, cl) = (f.split(",") for f in (fine, coarse))
                assert len(steps) == (ARROW_ORDER.index(ca)
                                      - ARROW_ORDER.index(fa)
                                      + LABEL_ORDER.index(cl)
                                      - LABEL_ORDER.index(fl))

    def test_path_independence_ab(self):
        got = {tuple(str(e) for e in
                     compute_path(FactorPath("X,+", word)))
               for word in ("AB", "BA")}
        assert got == {("0", "Z^2", "Z[1/2]^2 + Z")}

    def test_compose_path_returns_composite_map(self):
        f = compose_path("X,+", "AB")
        assert f.source.n_cells(2) == ap_complex_2d("X,+", "forced")[0].n_cells(2)
        assert f.target.n_cells(2) == ap_complex_2d("/,-", "forced")[0].n_cells(2)
