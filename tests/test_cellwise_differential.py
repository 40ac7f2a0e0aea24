"""Differential tests: factor maps read through their cell assignment
against the matrix path.

A factor map of the catalog sends each cell to one cell with sign +-1, and
its quotient cohomology is that of C*(X)/f*C*(Y) (Barge-Sadun, NYJM 17,
2011).  `CellularMap` records that assignment when it has one, and `_injective`
and `quotient_complex` read the map through it; other maps keep the
matrix path.  The matrix path it replaced is kept
verbatim in `tests/complexes_reference.py`.  On every case both must give
the same chain and cochain matrices, the same quotient complex (cells,
coboundaries, proj, section and rep), the same groups and nodes in
`les_quotient`, and the same typed error, message and witness.

The cases: every map of `catalog_factor_maps()`, the 27 comparable chair
pairs, the maps of the 11 golden path words, the 1-D maps with k, l <= 12,
and hypothesis maps with and without an assignment.
"""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import complexes_reference as ref
from conftest import empty_stores
from test_complexes import small_complexes, small_matrices
from tilecohom import complexes, subst1d, subst2d
from tilecohom.abelian import IntMatrix
from tilecohom.catalog import PATH_STARTS, PATH_WORDS, catalog_factor_maps
from tilecohom.complexes import (CellularMap, CochainComplex, les_quotient,
                                 pullback, quotient_complex)
from tilecohom.errors import InvalidPath, TilingCohomologyError
from tilecohom.subst2d import SCHEME_NAMES

GRID = [(k, l) for k in range(1, 13) for l in range(1, 13)]


def _outcome(run):
    """run()'s value, or its error's type, message and witness."""
    try:
        return run()
    except (TilingCohomologyError, ValueError) as e:
        return type(e), str(e), getattr(e, "witness", None)


def _quotient(qc):
    c = qc.complex
    return c.cells, c.delta, qc.proj, qc.section, qc.rep


def _groups(res):
    # an unclassified expression equals nothing, itself included
    return {key: [(str(e), e.unclassified) for e in res[key]]
            for key in "YXQ"}, res["nodes"]


def _agree(f, sx, sy, monkeypatch):
    """Check f against the reference map on the same chain matrices."""
    g = ref.CellularMap(f.source, f.target, f.chain)
    assert f.chain == g.chain and f.cochain == g.cochain
    got = _outcome(lambda: _quotient(quotient_complex(f)))
    assert got == _outcome(lambda: _quotient(ref.quotient_complex(g)))
    got = _outcome(lambda: _groups(les_quotient(f, sx, sy)))
    empty_stores()   # so the reference's quotient groups are computed anew
    with monkeypatch.context() as m:
        m.setattr(complexes, "quotient_complex", ref.quotient_complex)
        assert got == _outcome(lambda: _groups(les_quotient(g, sx, sy)))


def _chair_pairs():
    out = []
    for fine, coarse in itertools.product(SCHEME_NAMES, repeat=2):
        try:
            f = subst2d.factor_map_edge(fine, coarse)
        except InvalidPath:
            continue
        out.append((f"{fine}->{coarse}", f) + tuple(
            subst2d.ap_complex_2d(s, "forced")[1] for s in (fine, coarse)))
    return out


def _path_maps():
    out = []
    for word in PATH_WORDS:
        start = PATH_STARTS[word]
        end = subst2d.canonical_realization(start, word)[-1][1]
        out.append((f"{start}:{word}", subst2d.compose_path(start, word))
                   + tuple(subst2d.ap_complex_2d(s, "forced")[1]
                           for s in (start, end)))
    return out


def _catalog_cases():
    cases = catalog_factor_maps() + _chair_pairs() + _path_maps()
    assert len(cases) == 15 + 12 + 27 + 11
    return cases


def test_catalog_maps(monkeypatch):
    for key, f, sx, sy in _catalog_cases():
        assert f.cells is not None, key
        _agree(f, sx, sy, monkeypatch)


def test_catalog_maps_take_the_cellwise_path(monkeypatch):
    """Injectivity decomposes no matrix for a map with an assignment; for a
    self-map, which has none, it does."""
    def banned(*args):
        raise AssertionError("the matrix path ran")

    monkeypatch.setattr(complexes, "rank", banned)
    for key, f, sx, _sy in _catalog_cases():
        pullback(f, require_injective=True)
    assert sx.cells is None
    with pytest.raises(AssertionError, match="matrix path"):
        pullback(sx, require_injective=True)


@pytest.mark.parametrize("k,l", GRID)
def test_one_dimensional_maps(k, l, monkeypatch):
    for fine, coarse in ((f"tm:{k},{l}", f"pd:{k},{l}"),
                         (f"pd:{k},{l}", f"sol:{k + l}"),
                         (f"tm:{k},{l}", f"sol:{k + l}")):
        f, sx, sy = subst1d.factor_map_1d(fine, coarse)
        assert f.cells is not None
        _agree(f, sx, sy, monkeypatch)


# ---- hypothesis maps ----

def _chain(x, y, assignment):
    """The chain matrices of an assignment by cell index, as
    `CellularMap.from_assignment` sums them."""
    out = []
    for k, amap in enumerate(assignment):
        m = {}
        for i, images in amap.items():
            for s, j in images:
                m[j, i] = m.get((j, i), 0) + s
        out.append(IntMatrix.from_entries(y.n_cells(k), x.n_cells(k), m))
    return out


@st.composite
def copies(draw):
    """(X, Y, assignment by cell index): X has 1-2 signed copies of each
    cell of Y (0-2 in the top degree) and up to two cells without image per
    degree, in a drawn order.  A copy's row of delta_X is its sign times its
    cell's row of delta_Y, read at one drawn copy of each cell, so the copy
    map commutes.  Below the top degree the drawn copy is the same for every
    row, which keeps delta o delta = 0; in the top coboundary it is drawn
    per row, and a row may add e_a - t_a t_b e_b for copies a, b of one
    cell, which f* kills.  One source cell may then lose its image, flip
    its sign, double it or gain a second target cell."""
    y = draw(small_complexes())
    copy, sign, where = [], [], []
    for k in range(y.dimension + 1):
        # a cell of a lower degree without copies would break delta o delta
        counts = (2, 1, 2, 0) if k == y.dimension else (2, 1)
        cells = [(j, draw(st.sampled_from((1, -1))))
                 for j in range(y.n_cells(k))
                 for _ in range(draw(st.sampled_from(counts)))]
        cells += [(None, 1)] * draw(st.integers(0, 2))
        cells = draw(st.permutations(cells))
        copy.append([j for j, _ in cells])
        sign.append([s for _, s in cells])
        at = {}
        for i, (j, _) in enumerate(cells):
            at.setdefault(j, []).append(i)
        where.append(at)
    deltas = []
    for k in range(y.dimension):
        top = k + 1 == y.dimension
        m = {}
        for i, (j, t) in enumerate(zip(copy[k + 1], sign[k + 1])):
            if i == 0 or top:
                pick = {a: draw(st.sampled_from(xs))
                        for a, xs in where[k].items() if a is not None}
            row = {} if j is None else {
                pick[a]: t * sign[k][pick[a]] * v
                for a, v in y.coboundary(k).sparse_rows[j].items()
                if a in pick}
            twins = [xs for a, xs in where[k].items()
                     if a is not None and len(xs) > 1]
            if top and twins and draw(st.booleans()):
                a, b = draw(st.sampled_from(twins))
                row[a] = row.get(a, 0) + 1
                row[b] = row.get(b, 0) - sign[k][a] * sign[k][b]
            m.update(((i, a), v) for a, v in row.items())
        deltas.append(
            IntMatrix.from_entries(len(copy[k + 1]), len(copy[k]), m))
    x = CochainComplex([[f"x{k}_{i}" for i in range(len(c))]
                        for k, c in enumerate(copy)], deltas)
    assignment = [{i: [(t, j)] for i, (j, t) in enumerate(zip(c, s))
                   if j is not None} for c, s in zip(copy, sign)]
    k = draw(st.integers(0, y.dimension))
    if assignment[k] and draw(st.booleans()):
        i = draw(st.sampled_from(sorted(assignment[k])))
        (t, j), = assignment[k][i]
        fault = draw(st.sampled_from(("drop", "flip", "double", "split")))
        if fault == "drop":
            del assignment[k][i]
        elif fault == "flip":
            assignment[k][i] = [(-t, j)]
        elif fault == "double":
            assignment[k][i] = [(t, j), (t, j)]
        else:
            assignment[k][i].append(
                (draw(st.sampled_from((1, -1))),
                 draw(st.integers(0, y.n_cells(k) - 1))))
    return x, y, assignment


@st.composite
def flat_maps(draw):
    """(X, Y, chain matrices) between complexes with zero coboundaries, so
    that every map commutes: rows covering two cells, multiplicities and
    uncovered cells reach the quotient's checks."""
    n = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                      min_size=2, max_size=3))
    x, y = (CochainComplex([[f"{name}{k}_{i}" for i in range(c[side])]
                            for k, c in enumerate(n)],
                           [IntMatrix.zeros(b[side], a[side])
                            for a, b in zip(n, n[1:])])
            for side, name in ((0, "x"), (1, "y")))
    if draw(st.booleans()):    # one +-1 or no image per source cell
        chain = [IntMatrix.from_entries(ny, nx, {
            (draw(st.integers(0, ny - 1)), i): draw(st.sampled_from((1, -1)))
            for i in range(nx) if ny and draw(st.booleans())})
            for nx, ny in n]
    else:
        chain = [draw(small_matrices(ny, nx)) for nx, ny in n]
    return x, y, chain


def _differential(x, y, chain, monkeypatch):
    got = _outcome(lambda: CellularMap(x, y, chain))
    want = _outcome(lambda: ref.CellularMap(x, y, chain))
    if isinstance(want, tuple):
        assert got == want
        return
    f, g = got, want
    assert f.chain == g.chain and f.cochain == g.cochain
    cellwise = all(len(r) <= 1 and set(r.values()) <= {1, -1}
                   for p in g.cochain for r in p.sparse_rows)
    assert (f.cells is not None) == cellwise
    assert _outcome(lambda: pullback(f, require_injective=True)) == \
        _outcome(lambda: ref.pullback(g, require_injective=True))
    _agree(f, CellularMap.identity(x), CellularMap.identity(y), monkeypatch)


@settings(max_examples=300, deadline=None)
@given(copies())
def test_copy_maps(case):
    x, y, assignment = case
    chain = _chain(x, y, assignment)
    by_name = [{x.cells[k][i]: [(s, y.cells[k][j]) for s, j in images]
                for i, images in amap.items()}
               for k, amap in enumerate(assignment)]
    built = _outcome(lambda: CellularMap.from_assignment(x, y, by_name))
    direct = _outcome(lambda: CellularMap(x, y, chain))
    if isinstance(direct, tuple):
        assert built == direct
    else:
        assert (built.chain, built.cells) == (direct.chain, direct.cells)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _differential(x, y, chain, monkeypatch)


@st.composite
def any_maps(draw):
    """(X, Y, chain matrices) of small entries between small complexes;
    most fail the boundary square."""
    x, y = draw(small_complexes()), draw(small_complexes())
    return x, y, [draw(small_matrices(y.n_cells(k), x.n_cells(k)))
                  for k in range(x.dimension + 1)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(flat_maps(), any_maps()))
def test_matrix_maps(case):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _differential(*case, monkeypatch)


def test_hypothesis_maps_reach_every_outcome():
    """The generators reach a quotient with a nonzero coboundary, maps
    without an assignment, and each typed refusal."""
    seen = set()

    @settings(max_examples=400, deadline=None, database=None)
    @given(st.one_of(copies().map(lambda c: (c[0], c[1], _chain(*c))),
                     flat_maps()))
    def collect(case):
        f = _outcome(lambda: CellularMap(*case))
        if isinstance(f, tuple):
            seen.add(f[0].__name__)
            return
        q = _outcome(lambda: quotient_complex(f))
        if isinstance(q, tuple):
            seen.add(q[0].__name__)
        elif any(not d.is_zero() for d in q.complex.delta):
            seen.add("quotient with delta_Q != 0")
        if f.cells is None:
            seen.add("no assignment")

    collect()
    assert seen >= {"quotient with delta_Q != 0", "no assignment",
                    "NotACochainMap", "NotInjectiveOnCochains",
                    "NotWellDefined"}, seen
