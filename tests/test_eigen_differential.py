"""Differential tests: Berkowitz integer eigenvalues and the trial-division
radical against the sympy reference they replaced.

Eigenvalues are compared as multisets of (eigenvalue, multiplicity), or
both None when the characteristic polynomial has an irrational factor.
"""
import pytest
from hypothesis import given, settings, strategies as st

import limits_reference as ref
from tilecohom import limits, subst2d
from tilecohom.abelian import IntMatrix
from tilecohom.catalog import (DEFAULT_GRID, PATH_STARTS, PATH_WORDS,
                               FactorPath, compute_path, compute_quotient,
                               compute_space)


def assert_same_eigenvalues(b):
    got, want = limits._integer_eigenvalues(b), ref._integer_eigenvalues(b)
    if want is None:
        assert got is None
    else:
        assert got is not None and sorted(got) == sorted(want)


# ---- every free block that classify sees on the catalog ----

CASES = (
    [("space", name) for k, l in DEFAULT_GRID
     for name in (f"sol:{k + l}", f"pd:{k},{l}", f"tm:{k},{l}")]
    + [("quotient", (fine, coarse)) for k, l in DEFAULT_GRID
       for fine, coarse in ((f"tm:{k},{l}", f"pd:{k},{l}"),
                            (f"tm:{k},{l}", f"sol:{k + l}"),
                            (f"pd:{k},{l}", f"sol:{k + l}"))]
    + [("space", f"chair:{s}") for s in subst2d.SCHEME_NAMES]
    + [("quotient", (f"chair:{fine}", f"chair:{coarse}"))
       for _, fine, coarse in subst2d.lattice_edges()]
    + [("path", word) for word in PATH_WORDS])


def run_case(kind, arg):
    if kind == "space":
        return compute_space(arg, "forced" if arg.startswith("chair") else "auto")
    if kind == "quotient":
        return compute_quotient(*arg)
    return compute_path(FactorPath(PATH_STARTS[arg], arg))


def test_catalog_case_count():
    assert len(CASES) == 15 + 15 + 9 + 12 + 11


@pytest.mark.usefixtures("cold_caches")
@pytest.mark.parametrize("kind,arg", CASES, ids=[str(a) for _, a in CASES])
def test_catalog_blocks_match_reference(monkeypatch, kind, arg):
    seen = []
    original = limits._integer_eigenvalues

    def recording(b):
        seen.append(b)
        return original(b)

    monkeypatch.setattr(limits, "_integer_eigenvalues", recording)
    run_case(kind, arg)
    monkeypatch.undo()
    assert seen
    for b in seen:
        assert_same_eigenvalues(b)


# ---- random integer matrices of size 0..6 ----

def square(n, entries):
    return st.lists(entries, min_size=n * n, max_size=n * n).map(
        lambda xs: IntMatrix(n, n, xs))


plain = st.integers(0, 6).flatmap(lambda n: square(n, st.integers(-4, 4)))


@st.composite
def unimodular_conjugates(draw):
    """U T U^-1 for an upper triangular T whose diagonal repeats values and
    takes zero and negative ones, and a product U of elementary matrices."""
    n = draw(st.integers(1, 6))
    diag = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, -2, 3, -3, 4, 6, -8,
                                          12]), min_size=n, max_size=n))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diag[i]
        for j in range(i + 1, n):
            rows[i][j] = draw(st.integers(-3, 3))
    t = IntMatrix.from_rows(rows)
    u = uinv = IntMatrix.identity(n)
    for _ in range(draw(st.integers(0, 8)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-3, 3))
        e = [[int(r == s) for s in range(n)] for r in range(n)]
        einv = [row[:] for row in e]
        e[i][j], einv[i][j] = c, -c
        u = u * IntMatrix.from_rows(e)
        uinv = IntMatrix.from_rows(einv) * uinv
    assert u * uinv == IntMatrix.identity(n)
    return u * t * uinv


# blocks with irrational characteristic polynomials: x^2 - 2, x^2 - x - 1,
# x^2 + 1, x^3 - 2, each with an integer block beside it
IRRATIONAL = [[[0, 2], [1, 0]], [[0, 1], [1, 1]], [[0, -1], [1, 0]],
              [[0, 0, 2], [1, 0, 0], [0, 1, 0]]]


@st.composite
def irrational(draw):
    block = draw(st.sampled_from(IRRATIONAL))
    k = len(block)
    extra = draw(st.integers(0, 6 - k))
    n = k + extra
    rows = [[0] * n for _ in range(n)]
    for i in range(k):
        rows[i][:k] = block[i]
    for i in range(k, n):
        rows[i][i] = draw(st.integers(-3, 3))
        for j in range(i + 1, n):
            rows[i][j] = draw(st.integers(-2, 2))
    return IntMatrix.from_rows(rows)


@settings(max_examples=400, deadline=None)
@given(plain)
def test_random_matrices_match_reference(b):
    assert_same_eigenvalues(b)


@settings(max_examples=300, deadline=None)
@given(unimodular_conjugates())
def test_unimodular_conjugates_match_reference(b):
    assert_same_eigenvalues(b)
    assert limits._integer_eigenvalues(b) is not None


@settings(max_examples=100, deadline=None)
@given(irrational())
def test_irrational_charpoly_gives_none(b):
    assert_same_eigenvalues(b)
    assert limits._integer_eigenvalues(b) is None


def test_charpoly_small_cases():
    assert limits._charpoly([]) == [1]
    assert limits._charpoly([[5]]) == [1, -5]
    assert limits._charpoly([[1, 2], [3, 4]]) == [1, -5, -2]
    assert limits._charpoly([[0, 0, 2], [1, 0, 0], [0, 1, 0]]) == [1, 0, 0, -2]


# ---- radical ----

def test_radical_small_range():
    for n in range(0, 10 ** 4 + 1):
        assert limits.radical(n) == ref.radical(n), n


@pytest.mark.parametrize("n", [-1, -2, -12, -360, -9973, -10 ** 4])
def test_radical_negative(n):
    assert limits.radical(n) == ref.radical(n)


@pytest.mark.parametrize("n", [
    2 ** 40 * 3 ** 7 * 5 ** 3,
    9973 * 9967 * 9949,
    104729 ** 2 * 7919,
    2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47,
    999983 * 1000003,
])
def test_radical_prime_products(n):
    assert limits.radical(n) == ref.radical(n)
