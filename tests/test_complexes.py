"""CW cochain complexes, cellular maps, quotient complexes."""
import re

import pytest
from hypothesis import given, settings, strategies as st

from subst2d_reference import lattice_steps
from tilecohom.abelian import FgAbGroup, IntMatrix, kernel_basis, rank
from tilecohom.catalog import PATH_STARTS, PATH_WORDS, catalog_factor_maps
from tilecohom.complexes import (CellularMap, CochainComplex, _complexes,
                                 _injective, cohomology, cohomology_tower,
                                 hom_on_cohomology, les_quotient, pullback,
                                 quotient_complex)
from tilecohom.errors import (NotACochainMap, NotInjectiveOnCochains,
                              NotWellDefined)
from tilecohom.limits import TowerGroup, classify
from tilecohom.subst2d import SCHEME_NAMES, compose_path, compose_realization


def M(rows):
    return IntMatrix.from_rows(rows)


def circle(n=1):
    """n vertices and n edges in a cycle."""
    verts = [f"v{i}" for i in range(n)]
    edges = [f"e{i}" for i in range(n)]
    d0 = [[0] * n for _ in range(n)]
    for i in range(n):
        d0[i][(i + 1) % n] += 1
        d0[i][i] -= 1
    return CochainComplex([verts, edges], [M(d0)])


def torus():
    """One vertex, two loops, one square; all coboundaries vanish."""
    return CochainComplex([["v"], ["a", "b"], ["f"]],
                          [IntMatrix.zeros(2, 1), IntMatrix.zeros(1, 2)])


def small_matrices(rows, cols):
    return st.lists(st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda r: IntMatrix.from_entries(rows, cols, {
            (i, j): x for i, row in enumerate(r) for j, x in enumerate(row)}))


@st.composite
def small_complexes(draw):
    """Complexes of dimension 1 or 2 with at most 4 cells per degree; the
    rows of delta_1 are combinations of the left kernel of delta_0."""
    n = draw(st.lists(st.integers(0, 4), min_size=2, max_size=3))
    d0 = draw(small_matrices(n[1], n[0]))
    deltas = [d0]
    if len(n) == 3:
        left_kernel = kernel_basis(d0.transpose())
        deltas.append(draw(small_matrices(n[2], left_kernel.cols))
                      * left_kernel.transpose())
    return CochainComplex([[f"c{k}_{i}" for i in range(nk)]
                           for k, nk in enumerate(n)], deltas)


class TestCochainComplex:
    def test_circle_cohomology(self):
        c = circle(3)
        h0, h1 = cohomology(c, 0), cohomology(c, 1)
        assert h0.free_rank == 1 and h0.torsion == ()
        assert h1.free_rank == 1 and h1.torsion == ()

    def test_torus_cohomology(self):
        t = torus()
        assert cohomology(t, 0).free_rank == 1
        assert cohomology(t, 1).free_rank == 2
        assert cohomology(t, 2).free_rank == 1

    def test_torsion_and_minimization(self):
        # e -> 2f: H^1 = 0, H^2 = Z_2 on a single generator
        c = CochainComplex([["v"], ["e"], ["f"]],
                           [IntMatrix.zeros(1, 1), M([[2]])])
        h2 = cohomology(c, 2)
        assert h2.free_rank == 0 and h2.torsion == (2,)
        assert h2.ngens == 1  # minimized presentation

    def test_cohomology_cached(self):
        c = circle()
        assert cohomology(c, 1) is cohomology(c, 1)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            cohomology(circle(), 2)

    def test_nonsquaring_delta_rejected(self):
        with pytest.raises(ValueError, match="delta o delta"):
            CochainComplex([["v"], ["e"], ["f"]], [M([[1]]), M([[1]])])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            CochainComplex([["v"], ["e"]], [IntMatrix.zeros(2, 1)])

    @pytest.mark.parametrize("cells, delta", [
        ([["v", "v"], ["e"]], [M([[1, -1]])]),
        ([["v"], ["e", "f", "e"]], [M([[0], [0], [0]])]),
        ([["v"], ["e"], [("f", 1), ("f", 1)]], [M([[0]]), M([[0], [0]])]),
    ], ids=["degree-0", "degree-1", "degree-2"])
    def test_repeated_cell_rejected(self, cells, delta):
        # a repeated name used to build a complex whose cell_index answered
        # the last position, so the identity map failed its boundary square
        k, cell = next((k, c) for k, cs in enumerate(cells) for c in cs
                       if cs.count(c) > 1)
        with pytest.raises(ValueError, match=re.escape(
                f"repeated cell in degree {k}: {cell!r}")):
            CochainComplex(cells, delta)

    def test_repeated_cell_refused_before_the_store(self):
        before = len(_complexes)
        with pytest.raises(ValueError, match="repeated cell"):
            CochainComplex([["w", "w"], ["e"]], [M([[1, -1]])])
        assert len(_complexes) == before


class TestCellularMap:
    def test_degree_two_self_map_on_circle(self):
        c = circle()
        f = CellularMap(c, c, [M([[1]]), M([[2]])])
        t = cohomology_tower(c, f, 1)
        assert str(classify(t)) == "Z[1/2]"

    def test_boundary_commutation_enforced(self):
        c = circle(2)
        ident = CellularMap.identity(c)
        assert ident.chain[0] == IntMatrix.identity(2)
        # doubling one vertex while fixing the edges breaks d f = f d
        with pytest.raises(NotACochainMap):
            CellularMap(c, c, [M([[1, 0], [0, 2]]), IntMatrix.identity(2)])

    def test_compose(self):
        c = circle()
        f = CellularMap(c, c, [M([[1]]), M([[2]])])
        ff = f.compose(f)
        assert ff.chain[1] == M([[4]])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_cochain_square_is_the_chain_square(self, data):
        src = data.draw(small_complexes())
        tgt = src if data.draw(st.booleans()) else data.draw(small_complexes())
        chain = [data.draw(small_matrices(tgt.n_cells(k), src.n_cells(k)))
                 for k in range(src.dimension + 1)]
        square = all(
            tgt.coboundary(k).transpose() * chain[k + 1]
            == chain[k] * src.coboundary(k).transpose()
            for k in range(src.dimension))
        try:
            f = CellularMap(src, tgt, chain)
        except NotACochainMap as e:
            assert not square
            assert str(e).startswith("boundary square fails at degree ")
        else:
            assert square
            assert f.cochain == [m.transpose() for m in chain]

    def test_pullback_injectivity_check(self):
        c = circle()
        z = CellularMap(c, c, [M([[1]]), M([[0]])])
        pullback(z)  # fine without the flag
        with pytest.raises(NotInjectiveOnCochains):
            pullback(z, require_injective=True)

    def test_pullback_injectivity_check_two_cell_image(self):
        # the edge goes to a + b: the pullback [[1, 1]] covers both target
        # edges from one row, so it is not injective
        c = circle()
        w = CochainComplex([["v"], ["a", "b"]], [IntMatrix.zeros(2, 1)])
        f = CellularMap(c, w, [M([[1]]), M([[1], [1]])])
        with pytest.raises(NotInjectiveOnCochains):
            pullback(f, require_injective=True)

    def test_hom_on_cohomology_rejects_noncocycle_image(self):
        # target: interval (H^1 = 0, nonzero delta)
        interval = CochainComplex([["p", "q"], ["e"]], [M([[-1, 1]])])
        h1_circle = cohomology(circle(), 1)
        h1_interval = cohomology(interval, 1)
        assert h1_interval.is_trivial()
        hom_on_cohomology(M([[1]]), h1_circle, h1_interval)


class TestQuotient:
    def _double_cover(self):
        """Circle with 2 cells wrapping onto the 1-cell circle."""
        x, y = circle(2), circle(1)
        f = CellularMap.from_assignment(
            x, y, [{"v0": [(1, "v0")], "v1": [(1, "v0")]},
                   {"e0": [(1, "e0")], "e1": [(1, "e0")]}])
        return x, y, f

    def test_quotient_complex_sizes(self):
        x, y, f = self._double_cover()
        qc = quotient_complex(f)
        assert qc.complex.n_cells(0) == 1 and qc.complex.n_cells(1) == 1

    def test_les_quotient_degree_shift(self):
        x, y, f = self._double_cover()
        # doubling substitution upstairs and downstairs
        sx = CellularMap(x, x, [M([[1, 1], [0, 0]]), M([[1, 1], [1, 1]])])
        sy = CellularMap(y, y, [M([[1]]), M([[2]])])
        res = les_quotient(f, sx, sy)
        assert str(res["X"][1]) == "Z[1/2]"
        assert str(res["Y"][1]) == "Z[1/2]"
        assert res["Q"][0].is_zero()
        # index-2 cokernel upstairs is erased once 2 becomes invertible
        assert res["Q"][1].is_zero()

    def test_les_requires_intertwining(self):
        x, y, f = self._double_cover()
        sx = CellularMap.identity(x)
        sy = CellularMap(y, y, [M([[1]]), M([[2]])])
        with pytest.raises(NotACochainMap):
            les_quotient(f, sx, sy)

    def test_les_rejects_noninjective_pullback(self):
        x, y = circle(1), circle(1)
        z = CellularMap(x, y, [M([[1]]), M([[0]])])
        with pytest.raises(NotInjectiveOnCochains) as exc:
            les_quotient(z, CellularMap.identity(x), CellularMap.identity(y))
        assert str(exc.value) == "pullback not injective on degree-1 cochains"

    def test_les_rejects_non_cellwise_map(self):
        x, y = circle(1), circle(1)
        w = CellularMap(x, y, [M([[1]]), M([[2]])])
        with pytest.raises(NotWellDefined) as exc:
            les_quotient(w, CellularMap.identity(x), CellularMap.identity(y))
        assert str(exc.value) == \
            "degree-1 cell covers a target cell with multiplicity"
        assert exc.value.witness == "e0"

    def test_quotient_requires_injective_pullback(self):
        x, y = circle(1), circle(1)
        z = CellularMap(x, y, [M([[1]]), M([[0]])])
        with pytest.raises(NotInjectiveOnCochains):
            quotient_complex(z)

    def test_quotient_rejects_non_cellwise_map(self):
        # wrapping map e -> 2e is injective on cochains but does not send
        # cells to cells with multiplicity one
        x, y = circle(1), circle(1)
        w = CellularMap(x, y, [M([[1]]), M([[2]])])
        with pytest.raises(NotWellDefined):
            quotient_complex(w)

    def test_les_onto_lower_dimensional_target(self):
        # the torus onto the one-cell circle: a -> e, b -> 0; H^2(Y) = 0
        x, y = torus(), circle(1)
        f = CellularMap(x, y, [M([[1]]), M([[1, 0]]), IntMatrix.zeros(0, 1)])
        res = les_quotient(f, CellularMap.identity(x), CellularMap.identity(y))
        assert [str(e) for e in res["Y"]] == ["Z", "Z", "0"]
        assert [str(e) for e in res["X"]] == ["Z", "Z^2", "Z"]
        assert [str(e) for e in res["Q"]] == ["0", "Z", "Z"]
        assert res["Q"][2] == res["X"][2]
        assert res["nodes"][-4:] == ["H^2(Y)", "H^2(X)", "H^2_Q", "0"]


class TestInjectivityByCover:
    """f* is injective by its covered columns when every row has at most
    one entry, and by its rank otherwise; both decide alike."""

    @staticmethod
    def _wedge(n):
        """One vertex and n loops."""
        return CochainComplex([["v"], [f"a{i}" for i in range(n)]],
                              [IntMatrix.zeros(n, 1)])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_cover_rule_matches_rank(self, data):
        rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        p = data.draw(small_matrices(rows, cols))
        # the map between sets of points whose pullback is p
        x, y = (CochainComplex([[f"{name}{i}" for i in range(n)]], [])
                for name, n in (("x", rows), ("y", cols)))
        f = CellularMap(x, y, [p.transpose()])
        assert f.cochain == [p]
        assert _injective(f, 0) == (rank(p) == p.cols)

    def test_catalog_maps_decided_by_cover(self):
        # every lattice edge, composite, path word and 1-D factor map has
        # one-entry rows only, so no pullback is decomposed to decide
        maps = [f for _key, f, _sx, _sy in catalog_factor_maps()]
        maps += [compose_path(PATH_STARTS[w], w) for w in PATH_WORDS]
        maps += [compose_realization(lattice_steps(name, "0,0"))
                 for name in SCHEME_NAMES if name != "0,0"]
        for f in maps:
            assert f.cells is not None
            for k, p in enumerate(f.cochain):
                assert all(len(r) <= 1 for r in p.sparse_rows)
                assert _injective(f, k) == (rank(p) == p.cols)

    def test_clean_map_missing_a_target_cell(self):
        # the circle onto the wedge of two loops, e0 -> a0: each row is one
        # entry 1, and a1 has no preimage
        x, y = circle(1), self._wedge(2)
        f = CellularMap(x, y, [M([[1]]), M([[1], [0]])])
        for run in (quotient_complex, lambda g: les_quotient(
                g, CellularMap.identity(x), CellularMap.identity(y))):
            with pytest.raises(NotInjectiveOnCochains) as exc:
                run(f)
            assert str(exc.value) == \
                "pullback not injective on degree-1 cochains"

    def test_map_with_both_faults(self):
        # e0 -> a0 + a1 covers two cells and a2 has no preimage: the rank
        # test runs first, so injectivity is what fails
        x, y = circle(2), self._wedge(3)
        f = CellularMap(x, y, [M([[1, 1]]), M([[1, 1], [1, 0], [0, 0]])])
        with pytest.raises(NotInjectiveOnCochains) as exc:
            quotient_complex(f)
        assert str(exc.value) == "pullback not injective on degree-1 cochains"

    def test_covering_map_with_multiplicity(self):
        # every cell covered, but e -> 2e: injective, then the cell scan
        # rejects the multiplicity
        x, y = circle(1), circle(1)
        f = CellularMap(x, y, [M([[1]]), M([[2]])])
        assert _injective(f, 1)
        with pytest.raises(NotWellDefined) as exc:
            quotient_complex(f)
        assert str(exc.value) == \
            "degree-1 cell covers a target cell with multiplicity"


class TestTowerCache:
    def _circle_doubling(self):
        c = circle(1)
        return c, CellularMap(c, c, [M([[1]]), M([[2]])])

    def test_repeated_tower_is_the_same_object(self):
        c, sm = self._circle_doubling()
        for k in (0, 1):
            assert cohomology_tower(c, sm, k) is cohomology_tower(c, sm, k)

    def test_other_self_map_has_its_own_tower(self):
        c, sm = self._circle_doubling()
        sm2 = sm.compose(sm)
        t, t2 = cohomology_tower(c, sm, 1), cohomology_tower(c, sm2, 1)
        assert t is not t2
        assert t.group is t2.group
        assert t.endo.matrix == M([[2]]) and t2.endo.matrix == M([[4]])
        assert classify(t) == classify(t2)
        assert str(classify(t2)) == "Z[1/2]"

    def test_classify_is_memoised(self):
        c, sm = self._circle_doubling()
        t = cohomology_tower(c, sm, 1)
        first = classify(t)
        assert classify(t) is first
        # one store, keyed by the presentation: an equal tower reads it too
        assert classify(TowerGroup(t.group, t.endo)) is first
        assert TowerGroup.__slots__ == ("group", "endo")

    def test_clearing_cohomology_cache_drops_towers(self):
        c, sm = self._circle_doubling()
        t = cohomology_tower(c, sm, 1)
        c._hcache.clear()
        assert cohomology_tower(c, sm, 1) is not t
