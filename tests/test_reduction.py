"""Unit-pivot reduction of cochain complexes against the unreduced
complexes, and the sparse matrix product against the naive one.

The unreduced side patches complexes._reduce to the identity reduction.
The content entries of the complexes involved and the content stores are
emptied around that run, so neither side reads groups, quotient complexes
or classifications the other computed.
"""
import pytest
from conftest import empty_stores
from hypothesis import given, settings
from hypothesis import strategies as st

from tilecohom import complexes, subst1d, subst2d
from tilecohom.abelian import IntMatrix, cokernel
from tilecohom.catalog import (DEFAULT_GRID, PATH_STARTS, PATH_WORDS,
                               catalog_factor_maps)
from tilecohom.complexes import (_reduce, cohomology, cohomology_tower,
                                 hom_on_cohomology, les_quotient)
from tilecohom.errors import NotACochainMap
from tilecohom.limits import classify


def _identity_reduction(c):
    ids = [IntMatrix.identity(c.n_cells(k)) for k in range(c.dimension + 1)]
    return c, ids, ids


def _empty(cxs):
    for c in cxs:
        c._hcache.clear()
    empty_stores()


def reduced_and_unreduced(monkeypatch, cxs, fn):
    """(fn() on reduced complexes, fn() with the reduction switched off)."""
    _empty(cxs)
    reduced = fn()
    _empty(cxs)
    with monkeypatch.context() as m:
        m.setattr(complexes, "_reduce", _identity_reduction)
        unreduced = fn()
    _empty(cxs)
    return reduced, unreduced


def space_summary(cx, sm):
    return [(cohomology(cx, k).invariants, classify(cohomology_tower(cx, sm, k)))
            for k in range(cx.dimension + 1)]


def les_summary(f, sx, sy):
    res = les_quotient(f, sx, sy)
    return res["Y"], res["X"], res["Q"]


def system(name):
    """(complex, self-map) of a chair space (forced collars) or of a 1-D
    space at the depth absolute_cohomology_1d uses."""
    family, _, params = name.partition(":")
    if family == "chair":
        return subst2d.ap_complex_2d(params, "forced")
    return subst1d.system_1d(name)


def path_map(word):
    start = PATH_STARTS[word]
    end = subst2d.canonical_realization(start, word)[-1][1]
    f = subst2d.compose_path(start, word, "forced")
    _, sx = subst2d.ap_complex_2d(start, "forced")
    _, sy = subst2d.ap_complex_2d(end, "forced")
    return f, sx, sy


SPACES = [f"chair:{s}" for s in subst2d.SCHEME_NAMES] + [
    name for k, l in DEFAULT_GRID
    for name in (f"tm:{k},{l}", f"pd:{k},{l}", f"sol:{k + l}")]
MAPS = [f"{fine}->{coarse}" for k, l in DEFAULT_GRID
        for fine, coarse in ((f"tm:{k},{l}", f"pd:{k},{l}"),
                             (f"tm:{k},{l}", f"sol:{k + l}"),
                             (f"pd:{k},{l}", f"sol:{k + l}"))] + [
    f"chair:{fine}->chair:{coarse}" for _, fine, coarse in subst2d.lattice_edges()]


@pytest.mark.parametrize("name", SPACES)
def test_space_reduced_matches_unreduced(monkeypatch, name):
    cx, sm = system(name)
    red, unred = reduced_and_unreduced(monkeypatch, [cx],
                                       lambda: space_summary(cx, sm))
    assert red == unred


@pytest.mark.parametrize("key", MAPS)
def test_factor_map_reduced_matches_unreduced(monkeypatch, key):
    f, sx, sy = {k: rest for k, *rest in catalog_factor_maps()}[key]
    red, unred = reduced_and_unreduced(monkeypatch, [f.source, f.target],
                                       lambda: les_summary(f, sx, sy))
    assert red == unred


@pytest.mark.parametrize("word", PATH_WORDS)
def test_path_reduced_matches_unreduced(monkeypatch, word):
    f, sx, sy = path_map(word)
    red, unred = reduced_and_unreduced(monkeypatch, [f.source, f.target],
                                       lambda: les_summary(f, sx, sy))
    assert red == unred


@pytest.mark.parametrize("name", SPACES)
def test_reduction_maps_are_inverse_cochain_maps(name):
    cx, _ = system(name)
    red, iota, pi = _reduce(cx)
    for k in range(cx.dimension + 1):
        assert pi[k] * iota[k] == IntMatrix.identity(red.n_cells(k))
    for k in range(cx.dimension):
        assert cx.coboundary(k) * iota[k] == iota[k + 1] * red.coboundary(k)
        assert pi[k + 1] * cx.coboundary(k) == red.coboundary(k) * pi[k]
    assert _reduce(cx) is _reduce(cx)


def test_chair_reduction_sizes():
    cx, _ = subst2d.ap_complex_2d("X,+", "forced")
    red, _, _ = _reduce(cx)
    assert [cx.n_cells(k) for k in range(3)] == [112, 304, 208]
    assert [red.n_cells(k) for k in range(3)] == [1, 4, 19]


def test_torsion_survives_reduction():
    # the pivot (e1, f1) leaves delta' = (2) from e2 to f2: H^2 = Z_2
    c = complexes.CochainComplex(
        [["v"], ["e1", "e2"], ["f1", "f2"]],
        [IntMatrix.zeros(2, 1), IntMatrix.from_rows([[1, 0], [3, 2]])])
    assert _reduce(c)[0].cells == [["v"], ["e2"], ["f2"]]
    h2 = cohomology(c, 2)
    assert h2.torsion == (2,) and h2.free_rank == 0 and h2.ngens == 1
    ident = hom_on_cohomology(IntMatrix.identity(2), h2, h2)
    assert ident.is_injective() and cokernel(
        ident.matrix.hstack(ident.codomain.rel)).is_trivial()


def test_non_cocycle_image_rejected():
    # the interval reduces to a point, where every 0-cochain is a cocycle;
    # the image must still be tested in the interval's own cochains
    point = complexes.CochainComplex([["v"]], [])
    interval = complexes.CochainComplex([["p", "q"], ["e"]],
                                        [IntMatrix.from_rows([[-1, 1]])])
    assert _reduce(interval)[0].n_cells(1) == 0
    h0, h0i = cohomology(point, 0), cohomology(interval, 0)
    with pytest.raises(NotACochainMap):
        hom_on_cohomology(IntMatrix.from_rows([[1], [0]]), h0, h0i)
    assert hom_on_cohomology(IntMatrix.from_rows([[1], [1]]), h0, h0i) \
        .is_injective()


def naive_product(a, b):
    return IntMatrix(a.rows, b.cols,
                     [sum(a.entry(i, k) * b.entry(k, j) for k in range(a.cols))
                      for i in range(a.rows) for j in range(b.cols)])


@st.composite
def product_pairs(draw):
    n, m, p = (draw(st.integers(0, 6)) for _ in range(3))
    entry = st.one_of(st.just(0), st.integers(-4, 4))
    a = draw(st.lists(entry, min_size=n * m, max_size=n * m))
    b = draw(st.lists(entry, min_size=m * p, max_size=m * p))
    return IntMatrix(n, m, a), IntMatrix(m, p, b)


@settings(max_examples=200, deadline=None)
@given(product_pairs())
def test_prop_product_matches_naive(ab):
    a, b = ab
    got = a * b
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert got == naive_product(a, b)


@pytest.mark.parametrize("n,m,p", [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0)])
def test_product_empty_shapes(n, m, p):
    a, b = IntMatrix.zeros(n, m), IntMatrix.zeros(m, p)
    assert a * b == IntMatrix.zeros(n, p) == naive_product(a, b)
