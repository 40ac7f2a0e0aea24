"""Differential tests: the sparse row-dict IntMatrix against the dense one.

Every public constructor, accessor, method and operator must give the same
dense entries (through `to_rows()`) and the same shape as the tuple-of-tuples
reference in `intmatrix_reference.py`, on shapes 0..6 in each dimension,
0 x n and n x 0 included.  The sparse class must also keep its storage
contract: no stored zero, and equal matrices built by different routes
compare and hash equal whatever the key order of their rows.  Its product
kernel (unit-coefficient rows added without a multiply) must give the row
dicts of the former product (`sparse_product`), in the same key order, and
change no operand row.
"""
import pytest
from hypothesis import given, settings, strategies as st

from intmatrix_reference import IntMatrix as Dense
from intmatrix_reference import sparse_product
from tilecohom.abelian import IntMatrix
from tilecohom.catalog import verify_all

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


# ---- the unit-coefficient product kernel against the former product ----

def row_items(a):
    return [list(r.items()) for r in a.sparse_rows]


def check_kernel(a, b):
    """a * b has the former product's rows, key order included, and
    leaves both operands as they were."""
    before = row_items(a), row_items(b)
    got, want = a * b, sparse_product(a, b)
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert row_items(got) == row_items(want)
    assert (row_items(a), row_items(b)) == before


coefficients = st.one_of(st.integers(-2, 2), st.sampled_from((1, -1)),
                         st.integers(-2 ** 70, 2 ** 70))


@st.composite
def sparse_matrices(draw, m, n):
    """Rows that are empty, a single entry 1 or -1, or any entries, the
    keys in drawn order."""
    rows = []
    for _ in range(m):
        kind = draw(st.sampled_from(("empty", "unit", "any")) if n
                    else st.just("empty"))
        if kind == "unit":
            rows.append({draw(st.integers(0, n - 1)):
                         draw(st.sampled_from((1, -1)))})
        elif kind == "any":
            rows.append(draw(st.dictionaries(st.integers(0, n - 1),
                                             coefficients, max_size=n)))
        else:
            rows.append({})
    return IntMatrix.from_entries(m, n, {
        (i, j): x for i, r in enumerate(rows) for j, x in r.items()})


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_kernel_matches_former_product(data):
    m, k, n = data.draw(dims), data.draw(dims), data.draw(dims)
    check_kernel(data.draw(sparse_matrices(m, k)),
                 data.draw(sparse_matrices(k, n)))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(((1, 1), (1, -1), (-1, 1), (2, -1),
                                   (-1, -1))))
def test_kernel_sums_that_cancel(data, coeffs):
    # b's second row is the first scaled so that a's row cancels it: the
    # output row is empty, or the third row of b alone
    n = data.draw(st.integers(1, 6))
    first = data.draw(sparse_matrices(1, n)).sparse_rows[0]
    third = data.draw(sparse_matrices(1, n)).sparse_rows[0]
    x, y = coeffs
    scale = -x * y  # y is 1 or -1, so x + y * scale == 0
    b = IntMatrix.from_entries(3, n, {
        **{(0, j): v for j, v in first.items()},
        **{(1, j): scale * v for j, v in first.items()},
        **{(2, j): v for j, v in third.items()}})
    a = IntMatrix.from_rows([[x, y, 0], [x, y, 1], [y, x, -1]])
    check_kernel(a, b)
    assert not (a * b).sparse_rows[0]


@pytest.mark.usefixtures("cold_caches")
def test_kernel_on_verify_products(monkeypatch):
    """Every product that verify 2d and the default 1-D grid compute."""
    seen = []
    original = IntMatrix.__mul__

    def recording(a, b):
        before = row_items(a), row_items(b)
        out = original(a, b)
        assert (row_items(a), row_items(b)) == before
        seen.append((a, b, out))
        return out

    monkeypatch.setattr(IntMatrix, "__mul__", recording)
    assert all(row["ok"] for row in verify_all("2d") + verify_all("1d"))
    monkeypatch.undo()
    assert len(seen) > 1000
    for a, b, out in seen:
        assert row_items(out) == row_items(sparse_product(a, b))
