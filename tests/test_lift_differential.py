"""Differential tests: the connecting-map lift read off the representative
rows of `quotient_complex` against the `solve_matrix` lift it replaced
(`complexes_reference.les_quotient`).

f*_k y = lifted has at most one solution, since f*_k is injective, and
`les_quotient` reads it as rep[k] * lifted without a check: lifted lies in
ker proj = im f* (see `test_factor_map_facts`).  On every catalog
factor map, the 11 path words and hypothesis letter codings between 1-D
substitutions, the lift must equal the solve, also on the coboundary of
every quotient cochain (where the solve may fail), and the whole sequence
must come out the same.
"""
import pytest
from hypothesis import given, settings, strategies as st

import complexes_reference as ref
from tilecohom import subst2d
from tilecohom.abelian import solve_matrix
from tilecohom.catalog import PATH_STARTS, PATH_WORDS, catalog_factor_maps
from tilecohom.complexes import (CellularMap, cohomology, les_quotient,
                                 quotient_complex)
from tilecohom.subst1d import Substitution1D, ap_complex_1d

MAPS = {key: rest for key, *rest in catalog_factor_maps()}


def path_map(word):
    start = PATH_STARTS[word]
    end = subst2d.canonical_realization(start, word)[-1][1]
    _, sx = subst2d.ap_complex_2d(start, "forced")
    _, sy = subst2d.ap_complex_2d(end, "forced")
    return subst2d.compose_path(start, word, "forced"), sx, sy


def outcome(run):
    """The sequence as text and presentations, or the error raised."""
    try:
        res = run()
    except Exception as e:  # both sides must fail alike
        return type(e).__name__, str(e)
    return {key: [(str(e), None if e.unclassified is None else
                   (e.unclassified.group.rel, e.unclassified.endo.matrix))
                  for e in res[key]] for key in "YXQ"}, res["nodes"]


def check_lifts(f):
    """rep[k] * lifted against the solve, for the cocycle lifts that
    les_quotient makes and for every column of delta(section)."""
    x, qc = f.source, quotient_complex(f)
    for k in range(1, x.dimension + 1):
        hq = cohomology(qc.complex, k - 1)
        delta = x.coboundary(k - 1) * qc.section[k - 1]
        lifted = delta * hq.ambient_lift
        y = qc.rep[k] * lifted
        assert y == solve_matrix(f.cochain[k], lifted)
        assert f.cochain[k] * y == lifted
        for j in range(delta.cols):
            col = delta.select_columns([j])
            y, old = qc.rep[k] * col, solve_matrix(f.cochain[k], col)
            assert (f.cochain[k] * y == col) == (old is not None)
            assert old is None or old == y


def check(f, sx, sy):
    check_lifts(f)
    assert outcome(lambda: les_quotient(f, sx, sy)) \
        == outcome(lambda: ref.les_quotient(f, sx, sy))


@pytest.mark.parametrize("key", list(MAPS))
def test_catalog_maps(key):
    check(*MAPS[key])


@pytest.mark.parametrize("word", PATH_WORDS)
def test_path_words(word):
    check(*path_map(word))


@st.composite
def letter_codings(draw):
    """(f, sx, sy): a letter coding pi from a primitive substitution s onto
    a primitive t with pi(s(a)) = t(pi(a)), on the collared complexes of
    one depth.  Every letter of t's alphabet occurs twice in each image of
    t, and the first two occurrences of a letter b in an image of s take
    b's preimages in turn, so both matrices are positive."""
    coarse = "pqr"[:draw(st.integers(1, 3))]
    t_rule = {}
    for b in coarse:
        word = list(coarse * 2) + draw(st.lists(st.sampled_from(coarse),
                                                max_size=2))
        t_rule[b] = tuple(draw(st.permutations(word)))
    fibres = {b: [f"{b}{i}" for i in range(draw(st.integers(1, 2)))]
              for b in coarse}
    pi = {a: b for b, fibre in fibres.items() for a in fibre}
    s_rule = {}
    for a, b in pi.items():
        seen, image = {}, []
        for c in t_rule[b]:
            n = seen[c] = seen.get(c, -1) + 1
            fibre = fibres[c]
            image.append(fibre[n] if n < len(fibre)
                         else draw(st.sampled_from(fibre)))
        s_rule[a] = tuple(image)
    s = Substitution1D(sorted(pi), s_rule)
    t = Substitution1D(coarse, t_rule)
    depth = draw(st.integers(0, 1))
    (cx, sx), (cy, sy) = ap_complex_1d(s, depth), ap_complex_1d(t, depth)
    assign = [{c: [(1, tuple(pi[a] for a in c))] for c in cells}
              for cells in cx.cells]
    return CellularMap.from_assignment(cx, cy, assign), sx, sy


@settings(max_examples=60, deadline=None)
@given(letter_codings())
def test_letter_codings(maps):
    check(*maps)
