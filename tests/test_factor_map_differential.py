"""Differential tests: the factor map of a scheme pair against composed edges.

`subst2d.factor_map_edge` reads each fine class's coarse class off the
master windows for any comparable pair, so a quotient and a path build one
map where they used to multiply edge maps along `lattice_steps` (both kept
in `tests/subst2d_reference.py`).  A composite of
decoration-forgetting maps is again one (Barge-Sadun, NYJM 17, 2011), so
the chain matrices must be identical, and every error the same.
"""
import itertools

import pytest

import subst2d_reference as ref
from test_subst2d import _realizable_paths
from tilecohom import subst2d
from tilecohom.catalog import FactorPath, compute_path, compute_quotient
from tilecohom.errors import InvalidPath, NotBorderForcing
from tilecohom.subst2d import (SCHEME_NAMES, canonical_realization,
                               compose_path, compose_realization,
                               factor_map_edge)


def _outcome(build):
    """The map's complexes and chain matrices, or the error's type and
    message."""
    try:
        f = build()
    except (InvalidPath, NotBorderForcing, ValueError) as e:
        return type(e), str(e)
    return f.source, f.target, f.chain


def test_every_ordered_pair_matches_the_composed_steps():
    comparable = 0
    for fine, coarse in itertools.product(SCHEME_NAMES, repeat=2):
        got = _outcome(lambda: factor_map_edge(fine, coarse))
        try:
            steps = ref.lattice_steps(fine, coarse)
        except InvalidPath as e:
            assert got == (InvalidPath, str(e))
            continue
        if fine == coarse:     # no steps, and no map
            assert got == (InvalidPath, f"no factor map from chair:{fine} "
                           f"to chair:{coarse}")
            continue
        comparable += 1
        assert got == _outcome(lambda: ref.compose_realization(steps)), \
            (fine, coarse)
    assert comparable == 27


@pytest.mark.parametrize("collar", ["auto", "on", "off", "sideways"])
def test_collar_policies_match_the_composed_steps(collar):
    for fine, coarse in (("X,+", "0,0"), ("/,-", "0,0"), ("0,+", "0,-")):
        steps = ref.lattice_steps(fine, coarse)
        assert _outcome(lambda: factor_map_edge(fine, coarse, collar)) == \
            _outcome(lambda: ref.compose_realization(steps, collar))


def test_paths_match_the_composed_realization():
    paths = _realizable_paths()
    assert len(paths) == 28
    for scheme, word in paths:
        f = compose_path(scheme, word)
        g = ref.compose_realization(canonical_realization(scheme, word))
        assert (f.source, f.target) == (g.source, g.target), (scheme, word)
        assert f.chain == g.chain, (scheme, word)


@pytest.mark.parametrize("steps", [
    (("X,+", "/,+"), ("/,+", "/,-")),          # a chain
    (("X,+", "0,+"),),                         # not one step
    (("X,+", "/,+"), ("X,+", "X,-")),          # no chain
    (("/,+", "0,+"), ("X,+", "/,+")),          # no chain, back to the start
    (("X,+", "/,+"), ("/,+", "/,+")),          # a step that stays put
    (("X,+", "/,+"), ("Y,+", "/,+")),          # an unknown scheme
])
@pytest.mark.parametrize("collar", ["forced", "auto", "off", "sideways"])
def test_realization_errors_match_the_composing_version(steps, collar):
    assert _outcome(lambda: compose_realization(steps, collar)) == \
        _outcome(lambda: ref.compose_realization(steps, collar))


@pytest.mark.parametrize("steps", [(), []])
@pytest.mark.parametrize("collar", ["forced", "auto", "off", "sideways"])
def test_empty_realization_is_invalid_path(steps, collar):
    # this used to raise a bare IndexError, as the composing version does
    with pytest.raises(InvalidPath, match="empty realization"):
        compose_realization(steps, collar)


def test_no_chair_query_multiplies_maps(cold_caches, monkeypatch):
    def no_compose(self, other):
        raise AssertionError("maps composed")

    monkeypatch.setattr(subst2d.CellularMap, "compose", no_compose)
    assert [str(g) for g in compute_path(FactorPath("X,-", "AAC"))] == \
        [str(g) for g in compute_quotient("chair:X,-", "chair:0,0")]
    assert compose_path("X,+", "ABAC").target is \
        subst2d.ap_complex_2d("0,0", "forced")[0]
