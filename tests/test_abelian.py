"""Exact linear algebra: SNF contract, lattices, presentations."""
import pytest
from hypothesis import given, settings, strategies as st

from tilecohom.abelian import (FgAbGroup, GroupHom, IntMatrix, cokernel,
                               induced_hom, kernel_basis, lattice_basis,
                               lattice_subset, preimage_lattice,
                               rank, snf, solve, solve_matrix)
from tilecohom.errors import NotWellDefined


def M(rows):
    return IntMatrix.from_rows(rows)


small_matrices = st.integers(1, 6).flatmap(
    lambda m: st.integers(1, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n,
                                    max_size=n),
                           min_size=m, max_size=m)))


class TestSnf:
    def test_diag_2_3(self):
        assert snf(IntMatrix.diagonal([2, 3])).invariant_factors == [1, 6]

    def test_2x2(self):
        assert snf(M([[2, 4], [6, 8]])).invariant_factors == [2, 4]

    def test_zero(self):
        assert snf(IntMatrix.zeros(3, 2)).invariant_factors == []

    def test_empty(self):
        s = snf(IntMatrix.zeros(0, 5))
        assert s.D.rows == 0 and s.D.cols == 5

    def test_deterministic(self):
        a = M([[3, 1], [7, 2]])
        s1, s2 = snf(a), snf(M([[3, 1], [7, 2]]))
        assert s1.U == s2.U and s1.V == s2.V

    @settings(max_examples=400)
    @given(small_matrices)
    def test_contract(self, rows):
        a = M(rows)
        s = snf(a)
        assert s.U * a * s.V == s.D
        # unimodularity via explicit two-sided inverses
        assert s.U * s.Uinv == IntMatrix.identity(a.rows)
        assert s.V * s.Vinv == IntMatrix.identity(a.cols)
        inv = s.invariant_factors
        assert all(d > 0 for d in inv)
        for x, y in zip(inv, inv[1:]):
            assert y % x == 0
        for i in range(min(a.rows, a.cols)):
            for j in range(min(a.rows, a.cols)):
                if i != j:
                    assert s.D.entry(i, j) == 0

    @settings(max_examples=200)
    @given(small_matrices)
    def test_rank_vs_invariants(self, rows):
        a = M(rows)
        assert rank(a) == len(snf(a).invariant_factors)


class TestFromEntries:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 5), st.data())
    def test_matches_dense(self, m, n, data):
        cells = [(i, j) for i in range(m) for j in range(n)]
        entries = data.draw(st.dictionaries(
            st.sampled_from(cells), st.integers(-9, 9))) if cells else {}
        dense = [[entries.get((i, j), 0) for j in range(n)]
                 for i in range(m)]
        a = IntMatrix.from_entries(m, n, entries)
        assert (a.rows, a.cols) == (m, n)
        assert a.to_rows() == dense
        assert a == (M(dense) if m else IntMatrix.zeros(0, n))

    @pytest.mark.parametrize("value", [1.0, "1", None])
    def test_rejects_non_int(self, value):
        with pytest.raises(TypeError):
            IntMatrix.from_entries(2, 2, {(0, 1): value})

    @pytest.mark.parametrize("at", [(2, 0), (0, 2), (-1, 0), (0, -1)])
    def test_rejects_outside_shape(self, at):
        with pytest.raises(IndexError):
            IntMatrix.from_entries(2, 2, {at: 1})


class TestShape:
    # a negative shape used to build a matrix: IntMatrix(-1, -2, [1, 2])
    # dropped both entries and FgAbGroup(-1) read as the trivial group
    @pytest.mark.parametrize("build", [
        lambda: IntMatrix(-1, -2, [1, 2]), lambda: IntMatrix(-1, 0, []),
        lambda: IntMatrix.zeros(0, -1), lambda: IntMatrix.identity(-1),
        lambda: IntMatrix.diagonal([1], -1, 1),
        lambda: IntMatrix.diagonal([], None, -1),
        lambda: IntMatrix.from_entries(-1, 2, {}), lambda: FgAbGroup(-1),
    ], ids=["init", "init-empty", "zeros", "identity", "diagonal-rows",
            "diagonal-cols", "from_entries", "group"])
    def test_rejects_negative_shape(self, build):
        with pytest.raises(ValueError, match="negative matrix shape"):
            build()

    def test_empty_shapes_stay(self):
        assert IntMatrix.identity(0) == IntMatrix.zeros(0, 0)
        assert IntMatrix(0, 3, []).cols == 3


class TestRowBounds:
    # a negative row index used to read a row from the end
    @pytest.mark.parametrize("read", [
        lambda a: a.entry(-1, 0), lambda a: a.row(-1),
        lambda a: a.submatrix([-1], [0]), lambda a: a.submatrix([0, -2], [1]),
    ], ids=["entry", "row", "submatrix", "submatrix-second"])
    def test_rejects_negative_row(self, read):
        with pytest.raises(IndexError):
            read(M([[1, 2], [3, 4]]))


class TestIntegerEntries:
    # int() used to truncate floats and parse strings: [[1.5, 2.7]] became
    # [[1, 2]] and '7' became 7
    @pytest.mark.parametrize("build", [
        lambda: IntMatrix(1, 2, [1.5, 2.7]),
        lambda: IntMatrix(1, 1, ["7"]),
        lambda: IntMatrix.from_rows([[1.5, 2.7]]),
        lambda: IntMatrix.from_rows([[0.0, 1]]),
        lambda: IntMatrix.from_rows([["7"]]),
        lambda: IntMatrix.identity(2).scale(0.5),
        lambda: IntMatrix.identity(2).scale(2.0),
    ], ids=["init-float", "init-str", "rows-float", "rows-zero-float",
            "rows-str", "scale-half", "scale-float"])
    def test_rejects_non_int(self, build):
        with pytest.raises(TypeError):
            build()

    def test_accepts_int_like(self):
        assert IntMatrix(1, 2, [True, 3]).to_rows() == [[1, 3]]
        assert IntMatrix.identity(2).scale(0) == IntMatrix.zeros(2, 2)


class TestOperands:
    # a matrix plus or minus a non-matrix used to raise AttributeError
    # ('int' object has no attribute 'rows', and 'scale' for minus)
    @pytest.mark.parametrize("combine", [
        lambda a: a + 1, lambda a: a - 1, lambda a: 1 + a, lambda a: 1 - a,
        lambda a: a + [[1, 0], [0, 1]],
    ], ids=["add", "sub", "radd", "rsub", "add-list"])
    def test_non_matrix_operand_is_a_type_error(self, combine):
        with pytest.raises(TypeError, match="unsupported operand"):
            combine(IntMatrix.identity(2))


class TestLattices:
    def test_kernel_1x2(self):
        kb = kernel_basis(M([[1, 1]]))
        assert kb.cols == 1
        assert kb.col(0) in ([1, -1], [-1, 1])

    def test_kernel_identity(self):
        assert kernel_basis(IntMatrix.identity(3)).cols == 0

    def test_kernel_saturated_2x4(self):
        kb = kernel_basis(M([[2, 4]]))
        # saturation forces the primitive generator (2, -1) up to sign
        assert sorted(abs(x) for x in kb.col(0)) == [1, 2]

    @settings(max_examples=200)
    @given(small_matrices)
    def test_kernel_saturation(self, rows):
        a = M(rows)
        kb = kernel_basis(a)
        assert (a * kb).is_zero()
        stacked = a.vstack(kb.transpose())
        assert rank(stacked) == rank(a) + kb.cols
        # saturated: stacking denies no divisibility
        if kb.cols:
            assert all(d == 1 for d in snf(kb).invariant_factors)

    def test_solve(self):
        assert solve(M([[2, 0], [0, 3]]), [4, 9]) == [2, 3]
        assert solve(M([[2]]), [3]) is None

    def test_solve_matrix_shapes(self):
        x = solve_matrix(M([[1, 0], [0, 1], [0, 0]]), IntMatrix.zeros(3, 0))
        assert x.rows == 2 and x.cols == 0

    def test_lattice_ops(self):
        a, b = M([[2, 0], [0, 2]]), IntMatrix.identity(2)
        assert lattice_subset(a, b) and not lattice_subset(b, a)
        basis = lattice_basis(M([[2, 4], [0, 0]]))
        assert lattice_subset(basis, M([[2], [0]])) \
            and lattice_subset(M([[2], [0]]), basis)

    def test_preimage(self):
        pre = preimage_lattice(M([[1, 0], [0, 1]]), M([[2, 0], [0, 3]]))
        assert lattice_subset(pre, M([[2, 0], [0, 3]])) \
            and lattice_subset(M([[2, 0], [0, 3]]), pre)


class TestGroups:
    def test_cokernel_examples(self):
        g = cokernel(M([[2], [0]]))
        assert g.free_rank == 1 and g.torsion == (2,)
        assert cokernel(IntMatrix.identity(2)).is_trivial()
        g6 = cokernel(M([[6]]))
        assert g6.free_rank == 0 and g6.torsion == (6,)

    @settings(max_examples=150)
    @given(small_matrices)
    def test_cokernel_unimodular_invariance(self, rows):
        a = M(rows)
        s = snf(a)
        g, gu, gv = cokernel(a), cokernel(s.U * a), cokernel(a * s.V)
        assert (g.free_rank, g.torsion) == (gu.free_rank, gu.torsion)
        assert (g.free_rank, g.torsion) == (gv.free_rank, gv.torsion)

    def test_element_reduction(self):
        g = FgAbGroup(2, M([[2, 0], [0, 3]]).transpose())
        assert solve(g.rel, [2, 0]) is not None
        assert solve(g.rel, [1, 0]) is None

    def test_hom_wellformed(self):
        z2 = cokernel(M([[2]]))
        z = FgAbGroup(1)
        # Z -> Z_2 is fine; Z_2 -> Z by identity matrix is not
        GroupHom(z, z2, IntMatrix.identity(1))
        with pytest.raises(NotWellDefined):
            GroupHom(z2, z, IntMatrix.identity(1))

    def test_induced_hom_times2(self):
        z = FgAbGroup(1)
        h = induced_hom(M([[2]]), z, z)
        assert h.is_injective() and not cokernel(
            h.matrix.hstack(h.codomain.rel)).is_trivial()
        z0 = induced_hom(IntMatrix.zeros(1, 1), z, z)
        assert z0.is_zero()

    def test_hom_composition_functorial(self):
        z = FgAbGroup(2)
        f = GroupHom(z, z, M([[1, 1], [0, 1]]))
        g = GroupHom(z, z, M([[2, 0], [0, 2]]))
        assert g.compose(f).matrix == g.matrix * f.matrix

    def test_compose_needs_same_presentation(self):
        # equal signatures are not enough: Z^2/<(2,0)> and Z^2/<(0,2)> are
        # both Z + Z_2, yet I: Z^2/<(2,0)> -> Z^2/<(0,2)> is not well defined
        a = FgAbGroup(2, M([[2], [0]]))
        b = FgAbGroup(2, M([[0], [2]]))
        assert (a.free_rank, a.torsion) == (b.free_rank, b.torsion)
        with pytest.raises(ValueError):
            GroupHom(b, b, IntMatrix.identity(2)).compose(
                GroupHom(a, a, IntMatrix.identity(2)))

    def test_compose_equal_presentations(self):
        a = FgAbGroup(2, M([[2], [0]]))
        a2 = FgAbGroup(2, M([[2], [0]]))
        g = GroupHom(a2, a2, M([[1, 0], [0, 3]])).compose(
            GroupHom(a, a, M([[1, 1], [0, 1]])))
        assert g.domain is a and g.codomain is a2
        assert g.matrix == M([[1, 1], [0, 3]])

    def test_kernel_gens(self):
        z = FgAbGroup(1)
        z2 = cokernel(M([[2]]))
        h = GroupHom(z, z2, IntMatrix.identity(1))
        assert not h.is_injective()
        assert cokernel(h.matrix.hstack(h.codomain.rel)).is_trivial()
