"""Property tests: the facts about a factor map that construction proves.

`CellularMap` checks the boundary square f* delta_Y = delta_X f*,
`quotient_complex` checks that f* is injective and reads the cover off the
cell assignment, and `factor_map_edge` admits only comparable chair pairs.
The code downstream relies on three consequences without checking them
again; each is asserted here directly.

- proj delta_X f* = 0 in every degree, since proj delta_X f* =
  proj f* delta_Y and proj kills im f*: delta_Q = proj delta_X section
  does not depend on the section.
- For each generator z of H^(k-1)_Q, delta_X section z lies in ker proj =
  im f*, so its lift y = rep[k] delta_X section z satisfies f* y =
  delta_X section z, and delta_Y y = 0 (f* delta_Y y = delta_X delta_X
  section z = 0, and f* is injective): `les_quotient`'s connecting map
  needs no lift check.
- On every comparable chair pair at collar depths 0-2 where both class
  systems exist, the fine class of a master window fixes its coarse
  class: every coarser arrow or label mode is a function of the finer one.

The cases: every map of `catalog_factor_maps()`, the 27 comparable chair
pairs at depths 1 and 2, the maps of the 11 golden path words, the 1-D
maps with k, l <= 12, and hypothesis maps that pass construction and
injectivity.  The references in `tests/complexes_reference.py` still run
the old checks, against which the differential tests compare.
"""
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from test_cellwise_differential import _chain, any_maps, copies, flat_maps
from test_collar_differential import COMPARABLE
from tilecohom import subst1d, subst2d
from tilecohom.catalog import PATH_STARTS, PATH_WORDS, catalog_factor_maps
from tilecohom.complexes import (CellularMap, cohomology, pullback,
                                 quotient_complex)
from tilecohom.errors import NotWellDefined, TilingCohomologyError

PAIRS = [(f.removeprefix("chair:"), c.removeprefix("chair:"))
         for f, c in COMPARABLE]
GRID = [(k, l) for k in range(1, 13) for l in range(1, 13)]


def check_facts(f):
    x, y, qc = f.source, f.target, quotient_complex(f)
    for k in range(x.dimension):
        assert (qc.proj[k + 1] * (x.coboundary(k) * f.cochain[k])).is_zero()
    for k in range(1, x.dimension + 1):
        z = cohomology(qc.complex, k - 1).ambient_lift
        image = x.coboundary(k - 1) * (qc.section[k - 1] * z)
        lift = qc.rep[k] * image
        assert f.cochain[k] * lift == image
        assert (y.coboundary(k) * lift).is_zero()


def test_catalog_maps():
    for _, f, _, _ in catalog_factor_maps():
        check_facts(f)


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("fine,coarse", PAIRS)
def test_chair_pairs(fine, coarse, depth):
    check_facts(subst2d._factor_map_depth(fine, coarse, depth))


@pytest.mark.parametrize("word", PATH_WORDS)
def test_path_words(word):
    check_facts(subst2d.compose_path(PATH_STARTS[word], word))


@pytest.mark.parametrize("k,l", GRID)
def test_one_dimensional_maps(k, l):
    for fine, coarse in ((f"tm:{k},{l}", f"pd:{k},{l}"),
                         (f"pd:{k},{l}", f"sol:{k + l}"),
                         (f"tm:{k},{l}", f"sol:{k + l}")):
        check_facts(subst1d.factor_map_1d(fine, coarse)[0])


def test_hypothesis_maps():
    """Every generated map that passes construction and injectivity and
    has an assignment; enough of them must, with a nonzero delta_Q."""
    checked = []

    @settings(max_examples=400, deadline=None, database=None)
    @given(st.one_of(copies().map(lambda c: (c[0], c[1], _chain(*c))),
                     flat_maps(), any_maps()))
    def check(case):
        try:
            f = CellularMap(*case)
            pullback(f, require_injective=True)
        except TilingCohomologyError:
            return
        if f.cells is not None:
            check_facts(f)
            checked.append(any(not d.is_zero()
                               for d in quotient_complex(f).complex.delta))

    check()
    assert len(checked) >= 50 and any(checked), checked


def test_coarse_class_is_a_function_of_the_fine_class():
    systems = 0
    for (fine, coarse), r in itertools.product(PAIRS, range(3)):
        try:
            pair = [subst2d._collared_system(s, r)["cls"]
                    for s in (fine, coarse)]
        except NotWellDefined:   # the rule does not descend at depth 0
            continue
        down = {}
        for a, b in zip(*pair):
            assert down.setdefault(a, b) == b, (fine, coarse, r)
        systems += 1
    assert systems == 72
