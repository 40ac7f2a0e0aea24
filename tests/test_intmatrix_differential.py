"""Differential tests: the sparse row-dict IntMatrix against the dense one.

Every public constructor, accessor, method and operator must give the same
dense entries (through `to_rows()`) and the same shape as the tuple-of-tuples
reference in `intmatrix_reference.py`, on shapes 0..6 in each dimension,
0 x n and n x 0 included.  The sparse class must also keep its storage
contract: no stored zero, and equal matrices built by different routes
compare and hash equal whatever the key order of their rows.
"""
import pytest
from hypothesis import given, settings, strategies as st

from intmatrix_reference import IntMatrix as Dense
from tilecohom.abelian import IntMatrix

dims = st.integers(0, 6)
# half zeros, small values: sums and products cancel often
values = st.one_of(st.just(0), st.integers(-3, 3))


@st.composite
def pairs(draw, m=None, n=None):
    m = draw(dims) if m is None else m
    n = draw(dims) if n is None else n
    flat = draw(st.lists(values, min_size=m * n, max_size=m * n))
    return IntMatrix(m, n, flat), Dense(m, n, flat)


def check(a, d):
    """a has d's shape and entries, and stores only in-range nonzeros."""
    assert (a.rows, a.cols) == (d.rows, d.cols)
    assert a.to_rows() == d.to_rows()
    assert len(a.sparse_rows) == a.rows
    for r in a.sparse_rows:
        assert 0 not in r.values()
        assert all(0 <= j < a.cols for j in r)


def entries_of(d):
    return {(i, j): x for i, r in enumerate(d.to_rows())
            for j, x in enumerate(r) if x}


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_constructors(p):
    a, d = p
    check(a, d)
    rows = d.to_rows()
    if rows:
        check(IntMatrix.from_rows(rows), Dense.from_rows(rows))
    check(IntMatrix.from_entries(d.rows, d.cols, entries_of(d)),
          Dense.from_entries(d.rows, d.cols, entries_of(d)))
    check(IntMatrix.zeros(d.rows, d.cols), Dense.zeros(d.rows, d.cols))
    check(IntMatrix.identity(d.cols), Dense.identity(d.cols))


@settings(max_examples=100, deadline=None)
@given(st.lists(values, max_size=6), st.one_of(st.none(), dims),
       st.one_of(st.none(), dims))
def test_diagonal(diag, rows, cols):
    a = IntMatrix.diagonal(diag, rows, cols)
    m = len(diag) if rows is None else rows
    n = len(diag) if cols is None else cols
    assert (a.rows, a.cols) == (m, n)
    if m:
        check(a, Dense.diagonal(diag, rows, cols))
    else:
        # the dense class built 0 x n diagonals through from_rows([]),
        # which made them 0 x 0
        check(a, Dense.zeros(0, n))


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_accessors(p):
    a, d = p
    for i in range(d.rows):
        assert a.row(i) == d.row(i)
        for j in range(d.cols):
            assert a.entry(i, j) == d.entry(i, j)
    for j in range(d.cols):
        assert a.col(j) == d.col(j)
    assert a.is_zero() == d.is_zero()
    check(a.transpose(), d.transpose())
    assert repr(a) == repr(d)


@settings(max_examples=200, deadline=None)
@given(pairs(), st.data())
def test_submatrix(p, data):
    a, d = p
    rows = data.draw(st.lists(st.integers(0, d.rows - 1), max_size=6)
                     if d.rows else st.just([]))
    cols = data.draw(st.lists(st.integers(0, d.cols - 1), max_size=6)
                     if d.cols else st.just([]))
    check(a.submatrix(rows, cols), d.submatrix(rows, cols))
    check(a.submatrix(range(d.rows), range(d.cols)), d)
    check(a.select_columns(cols), d.select_columns(cols))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_stacks(data):
    m, n, k = data.draw(dims), data.draw(dims), data.draw(dims)
    a, d = data.draw(pairs(m, n))
    b, e = data.draw(pairs(m, k))
    check(a.hstack(b), d.hstack(e))
    b, e = data.draw(pairs(k, n))
    check(a.vstack(b), d.vstack(e))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_product(data):
    m, k, n = data.draw(dims), data.draw(dims), data.draw(dims)
    a, d = data.draw(pairs(m, k))
    b, e = data.draw(pairs(k, n))
    check(a * b, d * e)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(-3, 3))
def test_sum_difference_scale(data, c):
    m, n = data.draw(dims), data.draw(dims)
    a, d = data.draw(pairs(m, n))
    b, e = data.draw(pairs(m, n))
    check(a + b, d + e)
    check(a - b, d - e)
    check(a - a, d - d)
    check(-a, -d)
    check(a.scale(c), d.scale(c))
    assert (a == b) == (d == e)


@settings(max_examples=100, deadline=None)
@given(pairs(), pairs())
def test_shape_errors_match(p, q):
    (a, d), (b, e) = p, q
    for op in (lambda x, y: x * y, lambda x, y: x + y, lambda x, y: x - y,
               lambda x, y: x.hstack(y), lambda x, y: x.vstack(y)):
        try:
            want = op(d, e)
        except ValueError:
            with pytest.raises(ValueError):
                op(a, b)
        else:
            check(op(a, b), want)


@settings(max_examples=50, deadline=None)
@given(pairs())
def test_column_out_of_range(p):
    a, d = p
    if not d.rows:
        return
    for call in (lambda m, j: m.entry(0, j), lambda m, j: m.col(j),
                 lambda m, j: m.select_columns([j])):
        for j in (d.cols, d.cols + 3):
            with pytest.raises(IndexError):
                call(d, j)
            with pytest.raises(IndexError):
                call(a, j)


@settings(max_examples=200, deadline=None)
@given(pairs())
def test_equal_routes_hash_equal(p):
    a, d = p
    m, n = d.rows, d.cols
    ent = entries_of(d)
    routes = [
        IntMatrix.from_entries(m, n, ent),
        # the same entries inserted in the opposite order
        IntMatrix.from_entries(m, n, dict(reversed(list(ent.items())))),
        IntMatrix.identity(m) * a,
        a * IntMatrix.identity(n),
        a.transpose().transpose(),
        a + IntMatrix.zeros(m, n),
        a - IntMatrix.zeros(m, n),
        a.hstack(IntMatrix.zeros(m, 0)),
        a.vstack(IntMatrix.zeros(0, n)),
        a.submatrix(range(m), range(n)),
        a.scale(-1).scale(-1),
    ]
    if m:
        routes.append(IntMatrix.from_rows(d.to_rows()))
    for b in routes:
        assert b == a and hash(b) == hash(a)
    assert a != IntMatrix.zeros(n, m) or (m == n and d.is_zero())


def test_empty_shapes_are_distinct():
    assert IntMatrix.zeros(0, 3) != IntMatrix.zeros(0, 2)
    assert IntMatrix.zeros(3, 0) != IntMatrix.zeros(2, 0)
    assert IntMatrix.zeros(0, 3) * IntMatrix.zeros(3, 0) == IntMatrix.zeros(0, 0)
    assert IntMatrix.zeros(3, 0) * IntMatrix.zeros(0, 2) == IntMatrix.zeros(3, 2)
