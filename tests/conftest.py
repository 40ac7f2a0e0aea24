"""Shared fixtures."""
import pytest

from tilecohom import catalog, complexes, limits, subst1d, subst2d

# every module-level lru_cache of the package but abelian.snf, whose memo is
# a pure function of one matrix and holds no complex, tower or limit:
# parsed 1-D names, substitutions (the master rule with its window indexes),
# complexes, cellular maps and the golden table
COMPLEX_AND_MAP_CACHES = (
    (subst1d, ("tm_system", "pd_system", "sol_system", "_space_1d")),
    (subst2d, ("master_system", "_ap_complex_2d_depth",
               "_factor_map_depth")),
    (catalog, ("golden_table",)))

# the content stores: what is computed on a complex (its reduction,
# cohomology groups, towers and quotient complexes), keyed by its cells and
# coboundaries, and the classification of a tower, keyed by its presentation
CONTENT_STORES = ((complexes, ("_complexes",)), (limits, ("_limits",)))


def empty_stores():
    for module, names in CONTENT_STORES:
        for name in names:
            getattr(module, name).clear()


def empty_caches():
    for module, names in COMPLEX_AND_MAP_CACHES:
        for name in names:
            getattr(module, name).cache_clear()
    empty_stores()


@pytest.fixture
def cold_caches():
    """Empty every cache and store, so that the test builds and classifies
    every tower it reaches from a cold start.  The fixture's value empties
    them again."""
    empty_caches()
    return empty_caches
