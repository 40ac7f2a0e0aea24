"""Differential tests: the SNF-coefficient splitting check against the
sympy Gauss-Jordan reference it replaced (`limits_reference._blocks_split`).

The check runs only when `classify` finds two or more localized blocks, so
the calls are recorded where classify makes them: on every tm:k,l with
k, l <= 16 (its three spaces and three quotients) and on every catalog
case.  Random blocks add full-rank, rank-deficient and index > 1 inputs.
"""
import pytest
from hypothesis import given, settings, strategies as st

import limits_reference as ref
from test_eigen_differential import CASES, run_case
from tilecohom import limits, subst1d
from tilecohom.abelian import IntMatrix
from tilecohom.catalog import compute_quotient, compute_space
from tilecohom.complexes import cohomology_tower
from tilecohom.limits import classify

GRID = tuple((k, l) for k in range(1, 17) for l in range(1, 17))


def recorded_calls(monkeypatch, run):
    """The block lists of every _blocks_split call that run() makes."""
    seen = []
    original = limits._blocks_split

    def recording(blocks):
        seen.append(blocks)
        return original(blocks)

    monkeypatch.setattr(limits, "_blocks_split", recording)
    run()
    monkeypatch.undo()
    return seen


def run_grid():
    for k, l in GRID:
        sol, pd, tm = f"sol:{k + l}", f"pd:{k},{l}", f"tm:{k},{l}"
        for name in (sol, pd, tm):
            compute_space(name)
        for fine, coarse in ((tm, pd), (tm, sol), (pd, sol)):
            compute_quotient(fine, coarse)
        # and the depth-1 tm towers, which no catalog query builds
        for d in (0, 1):
            classify(cohomology_tower(
                *subst1d.ap_complex_1d(subst1d.tm_substitution(k, l), 1), d))


@pytest.mark.usefixtures("cold_caches")
def test_grid_calls_match_reference(monkeypatch):
    seen = recorded_calls(monkeypatch, run_grid)
    # distinct inputs: a memoised classification is not asked again, and
    # a tower whose endo is injective is classified as it is, not through
    # its image (k, l <= 12 gave 123 inputs when it was the image, 86 after)
    assert len({tuple(blocks) for blocks in seen}) == 150
    got = [limits._blocks_split(blocks) for blocks in seen]
    assert got == [ref._blocks_split(blocks) for blocks in seen]
    assert True in got and False in got


@pytest.mark.usefixtures("cold_caches")
@pytest.mark.parametrize("kind,arg", CASES, ids=[str(a) for _, a in CASES])
def test_catalog_calls_match_reference(monkeypatch, kind, arg):
    for blocks in recorded_calls(monkeypatch, lambda: run_case(kind, arg)):
        assert limits._blocks_split(blocks) == ref._blocks_split(blocks)


# ---- random blocks ----

RADICALS = (2, 3, 5, 6, 7, 10, 15, 30)


@st.composite
def block_lists(draw):
    """2..3 blocks of 1..3 columns over 1..5 rows, entries in -6..6.  In
    half of the draws the last column is an integer combination of the
    others, so the stacked basis is rank-deficient."""
    n = draw(st.integers(1, 5))
    dims = draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    cols = [draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
            for _ in range(sum(dims))]
    if draw(st.booleans()):
        mix = draw(st.lists(st.integers(-2, 2), min_size=len(cols) - 1,
                            max_size=len(cols) - 1))
        cols[-1] = [sum(c * col[i] for c, col in zip(mix, cols))
                    for i in range(n)]
    blocks, at = [], 0
    for dim in dims:
        rows = [[col[i] for col in cols[at:at + dim]] for i in range(n)]
        blocks.append((draw(st.sampled_from(RADICALS)), dim,
                       IntMatrix.from_rows(rows)))
        at += dim
    return blocks


@settings(max_examples=300, deadline=None)
@given(block_lists())
def test_random_blocks_match_reference(blocks):
    assert limits._blocks_split(blocks) == ref._blocks_split(blocks)


@st.composite
def lattice_blocks(draw):
    """Two blocks spanning an index-d sublattice of Z^n: column 0 is
    (d, s_1, ..., s_(n-1)) and the others are unit vectors.  Full rank with
    a discrepancy group, the case that the block coefficients decide."""
    n = draw(st.integers(2, 5))
    d = draw(st.integers(2, 12))
    shift = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    # column 0 becomes (d, shift...) so the lattice has index d in Z^n
    rows[0][0] = d
    for i, x in enumerate(shift, start=1):
        rows[i][0] = x
    cut = draw(st.integers(1, n - 1))
    out = []
    for lo, hi in ((0, cut), (cut, n)):
        out.append((draw(st.sampled_from(RADICALS)), hi - lo,
                    IntMatrix.from_rows([r[lo:hi] for r in rows])))
    return out


@settings(max_examples=300, deadline=None)
@given(lattice_blocks())
def test_index_blocks_match_reference(blocks):
    assert limits._blocks_split(blocks) == ref._blocks_split(blocks)
