"""Shared fixtures."""
import pytest

from tilecohom import subst1d, subst2d

# the caches that hold complexes, cellular maps, descended rules and
# border-forcing answers; a complex keeps its cohomology groups and towers,
# a tower its classification, and a rule its legal patches
COMPLEX_AND_MAP_CACHES = (
    (subst1d, ("tm_system", "pd_system", "sol_system", "factor_map_phi",
               "factor_map_psi", "factor_map_psi_phi")),
    (subst2d, ("_ap_complex_2d_depth", "factor_map_edge", "_named_rule",
               "_named_border_forcing")))


@pytest.fixture
def cold_caches():
    """Empty the complex and map caches, so that the test builds and
    classifies every tower it reaches from a cold start."""
    for module, names in COMPLEX_AND_MAP_CACHES:
        for name in names:
            getattr(module, name).cache_clear()
