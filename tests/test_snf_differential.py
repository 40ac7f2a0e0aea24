"""Differential tests: sparse SNF and batched solve against the dense reference.

The sparse elimination keeps the dense pivot rule, so every output must be
bit-identical, not merely another valid Smith normal form.  The cokernel
test that replaced `GroupHom.is_surjective` must answer as it did.
"""
import functools

import pytest
from hypothesis import given, settings, strategies as st

from snf_reference import (dense_snf, dense_solve_matrix, is_surjective,
                           smith_solve_matrix)
from tilecohom import abelian, subst2d
from tilecohom.abelian import (FgAbGroup, GroupHom, IntMatrix, cokernel,
                               kernel_basis, snf, solve, solve_matrix)
from tilecohom.complexes import _reduce, cohomology

FIELDS = ("U", "D", "V", "Uinv", "Vinv", "invariant_factors")


def assert_same_snf(a):
    got, want = snf(a), dense_snf(a)
    for name in FIELDS:
        assert getattr(got, name) == getattr(want, name), name


def shaped(m, n, entries):
    return st.lists(entries, min_size=m * n, max_size=m * n).map(
        lambda xs: IntMatrix(m, n, xs))


# shapes include 0xn and mx0; the entry mixes give unit pivots, non-unit
# pivots with remainders, and sparse +-1 incidence-like matrices
entries = st.one_of(st.integers(-9, 9), st.sampled_from([0, 0, 0, 1, -1]),
                    st.sampled_from([0, 2, -2, 3, 4, 6]))
matrices = st.tuples(st.integers(0, 7), st.integers(0, 7)).flatmap(
    lambda mn: shaped(mn[0], mn[1], entries))


@settings(max_examples=500)
@given(matrices)
def test_snf_matches_dense(a):
    assert_same_snf(a)


def onto(h):
    """Is the hom h onto: Z^n modulo its image and the relations is 0?"""
    return cokernel(h.matrix.hstack(h.codomain.rel)).is_trivial()


# codomains with torsion, free parts and no generators; half the matrices
# carry unit columns, so that both answers occur
@settings(max_examples=400)
@given(st.integers(0, 5), st.integers(0, 4), st.integers(0, 4), st.data())
def test_onto_matches_is_surjective(m, n, r, data):
    rel = data.draw(shaped(m, r, entries))
    mat = data.draw(shaped(m, n, entries))
    if m and data.draw(st.booleans()):
        units = data.draw(st.lists(st.integers(0, m - 1), max_size=m))
        mat = mat.hstack(IntMatrix.identity(m).select_columns(units))
    h = GroupHom(FgAbGroup(mat.cols), cokernel(rel), mat)
    assert onto(h) == is_surjective(h)


@pytest.mark.parametrize("dom, cod, rows, want", [
    (1, [[0]], [[2]], False),           # Z -> Z by 2
    (1, [[2]], [[1]], True),            # Z -> Z_2
    (2, [[6]], [[2, 3]], True),         # Z^2 -> Z_6 by (2, 3)
    (1, [[4]], [[2]], False),           # Z -> Z_4 by 2
    (2, [[2, 0], [0, 0]], [[1, 0], [0, 1]], True),
    (1, [[2, 0], [0, 3]], [[1], [1]], True),    # Z -> Z_2 + Z_3 = Z_6
    (1, [[2, 0], [0, 2]], [[1], [1]], False),   # Z -> Z_2 + Z_2
    (0, [[1]], [[]], True),             # 0 -> Z/Z = 0
    (0, [[0]], [[]], False),            # 0 -> Z
], ids=["times2", "onto-Z2", "onto-Z6", "into-Z4", "free-and-torsion",
        "cyclic-Z6", "not-cyclic", "onto-0", "into-Z"])
def test_onto_examples(dom, cod, rows, want):
    h = GroupHom(FgAbGroup(dom), cokernel(IntMatrix.from_rows(cod)),
                 IntMatrix(len(rows), dom, [x for r in rows for x in r]))
    assert onto(h) is want and is_surjective(h) is want


@settings(max_examples=300)
@given(matrices, st.integers(0, 3), st.data())
def test_solve_matrix_matches_dense(a, p, data):
    if data.draw(st.booleans()):
        x = data.draw(shaped(a.cols, p, st.integers(-3, 3)))
        b = a * x                       # solvable by construction
    else:
        b = data.draw(shaped(a.rows, p, st.integers(-5, 5)))
    got = solve_matrix(a, b)
    assert got == dense_solve_matrix(a, b)
    if got is not None:
        assert a * got == b
    if p:
        col = solve(a, b.col(0))
        ref = dense_solve_matrix(a, b.select_columns([0]))
        assert col == (None if ref is None else ref.col(0))


def _outcome(solver, a, b):
    try:
        return solver(a, b)
    except ValueError as e:
        return ValueError, str(e)


# A without columns, often, and B with a wrong row count now and then
@settings(max_examples=400)
@given(st.integers(0, 6), st.sampled_from([0, 0, 0, 1, 2, 4]),
       st.integers(0, 3), st.data())
def test_solve_matrix_matches_smith_solve(m, n, p, data):
    a = data.draw(shaped(m, n, entries))
    rows = data.draw(st.sampled_from([m] * 5 + [m + 1, max(m - 1, 0)]))
    b = data.draw(shaped(rows, p, st.sampled_from([0, 0, 0, 1, -2, 3])))
    assert _outcome(solve_matrix, a, b) == _outcome(smith_solve_matrix, a, b)


def test_zero_column_solve_takes_no_smith_form(monkeypatch):
    def no_snf(a):
        raise AssertionError("snf called")

    monkeypatch.setattr(abelian, "snf", no_snf)
    zero, one = IntMatrix.zeros(3, 2), IntMatrix.from_rows([[0], [1], [0]])
    assert solve_matrix(IntMatrix.zeros(3, 0), zero) == IntMatrix.zeros(0, 2)
    assert solve_matrix(IntMatrix.zeros(3, 0), one) is None
    monkeypatch.undo()
    with pytest.raises(ValueError, match="shape mismatch"):
        solve_matrix(IntMatrix.zeros(2, 0), zero)


@pytest.mark.parametrize("rows", [
    [[2, 0], [0, 3]],                 # divisibility fix: 3 is not a multiple of 2
    [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
    [[4, 6], [6, 9], [2, 3]],         # non-unit pivots with remainders
    [[0, 0], [0, 0]],
    [[-3]],
])
def test_snf_matches_dense_examples(rows):
    assert_same_snf(IntMatrix.from_rows(rows))


def test_unsolvable_is_none_like_dense():
    a = IntMatrix.from_rows([[2, 0], [0, 3], [0, 0]])
    for b in ([[1], [0], [0]], [[0], [0], [1]], [[2, 4], [3, 3], [0, 0]]):
        b = IntMatrix.from_rows(b)
        assert solve_matrix(a, b) == dense_solve_matrix(a, b)
    assert solve_matrix(a, IntMatrix.from_rows([[1], [0], [0]])) is None
    assert solve(a, [2, 3, 0]) == [1, 1]


@functools.lru_cache(maxsize=None)
def forced_complex(scheme):
    return subst2d.ap_complex_2d(scheme, "forced")[0]


@pytest.mark.parametrize("scheme", subst2d.SCHEME_NAMES)
def test_chair_coboundaries_match_dense(scheme):
    cx = forced_complex(scheme)
    for d in cx.delta:
        assert_same_snf(d)


def test_chair_cohomology_matrices_match_dense():
    """The two matrices that cohomology() decomposes for chair:X,+ in each
    degree, and every kernel and cocycle|coboundary matrix, and the solve
    that yields its relations, of the kernel-basis path it replaced."""
    cx = forced_complex("X,+")
    red, _, _ = _reduce(cx)
    for k in range(cx.dimension + 1):
        s = snf(red.coboundary(k - 1))
        assert_same_snf(red.coboundary(k - 1))
        assert_same_snf(red.coboundary(k) * s.Uinv.select_columns(
            range(s.rank, red.n_cells(k))))
        kb = kernel_basis(cx.coboundary(k))
        assert_same_snf(kb)
        im = cx.coboundary(k - 1) if k else IntMatrix.zeros(cx.n_cells(k), 0)
        assert solve_matrix(kb, im) == dense_solve_matrix(kb, im)
        h = cohomology(cx, k)
        assert_same_snf(h.ambient_lift.hstack(im))
