"""Differential tests: cohomology presentations read off two Smith forms
against the kernel-basis-and-solve path they replaced
(`complexes_reference.cohomology` and `complexes_reference._express`).

Every degree of every catalog complex is checked: the nine forced chair
complexes, the DEFAULT_GRID tm/pd/sol systems at both of their collar
depths, and the quotient complexes of the catalog factor maps; random
complexes with torsion are checked too.  The two presentations have the
same invariants, sending each old generator to the new class of its
cocycle is an isomorphism, and the new coordinates read the new
generators back as the identity.  Call counts pin the two Smith forms of
a cold `cohomology` and the solve-free `_express`.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import complexes_reference as ref
from tilecohom import abelian, complexes, subst1d, subst2d
from tilecohom.abelian import GroupHom, IntMatrix, cokernel, kernel_basis
from tilecohom.catalog import DEFAULT_GRID, catalog_factor_maps
from tilecohom.complexes import (CochainComplex, _express, cohomology,
                                 quotient_complex)

CHAIRS = list(subst2d.SCHEME_NAMES)
# each system's rule, which ap_complex_1d builds at both depths
RULES = {"tm_system": subst1d.tm_substitution,
         "pd_system": subst1d.pd_substitution,
         "sol_system": subst1d.solenoid_substitution}
SYSTEMS_1D = [(system, params, depth) for k, l in DEFAULT_GRID
              for system, params, depths in (
                  ("tm_system", (k, l), (1, subst1d.PHI_SOURCE_DEPTH)),
                  ("pd_system", (k, l), (1, 2)),
                  ("sol_system", (k + l,), (0, 1)))
              for depth in depths]
MAP_KEYS = [key for key, *_ in catalog_factor_maps()]


def quotient_of(key):
    f = {k: f for k, f, *_ in catalog_factor_maps()}[key]
    return quotient_complex(f).complex


def check_against_reference(c):
    for k in range(c.dimension + 1):
        old, new = ref.cohomology(c, k), cohomology(c, k)
        assert new.invariants == old.invariants
        iso = GroupHom(old, new, _express(new, old.ambient_lift))
        assert iso.is_injective() and cokernel(
            iso.matrix.hstack(iso.codomain.rel)).is_trivial()
        assert _express(new, new.ambient_lift) == \
            IntMatrix.identity(new.ngens)


@pytest.mark.parametrize("scheme", CHAIRS)
def test_chair_complex(scheme):
    check_against_reference(subst2d.ap_complex_2d(scheme, "forced")[0])


@pytest.mark.parametrize("system,params,depth", SYSTEMS_1D)
def test_1d_system(system, params, depth):
    check_against_reference(
        subst1d.ap_complex_1d(RULES[system](*params), depth)[0])


@pytest.mark.parametrize("key", MAP_KEYS)
def test_quotient_complex(key):
    check_against_reference(quotient_of(key))


@st.composite
def random_complexes(draw):
    """A dimension-2 complex with small random delta_0 = A and
    delta_1 = C K, where the rows of K span the left kernel of A."""
    sizes = n0, n1, n2 = [draw(st.integers(0, 4)) for _ in range(3)]

    def matrix(rows, cols):
        return IntMatrix(rows, cols, draw(st.lists(
            st.integers(-4, 4), min_size=rows * cols, max_size=rows * cols)))

    a = matrix(n1, n0)
    kt = kernel_basis(a.transpose()).transpose()
    cells = [[f"{d}:{i}" for i in range(n)] for d, n in enumerate(sizes)]
    return CochainComplex(cells, [a, matrix(n2, kt.rows) * kt])


@settings(max_examples=60, deadline=None)
@given(random_complexes())
def test_random_complex(c):
    check_against_reference(c)


def _is_diagonal(m):
    return all(j == i for i, row in enumerate(m.sparse_rows) for j in row)


def test_two_smith_forms_and_no_solve(monkeypatch, cold_caches):
    """A cold cohomology(c, k) decomposes at most two non-diagonal
    matrices, and _express solves nothing."""
    cxs = [subst2d.ap_complex_2d("X,+", "forced")[0],
           subst1d.tm_system(3, 2)[0],
           quotient_of("chair:X,+->chair:/,+"), quotient_of("tm:3,2->pd:3,2")]
    decomposed, uncached_snf = [], abelian.snf.__wrapped__

    def counting_snf(a):
        decomposed.append(a)
        return uncached_snf(a)

    def no_solve(a, b):
        raise AssertionError("_express called solve_matrix")

    monkeypatch.setattr(abelian, "snf", counting_snf)
    monkeypatch.setattr(complexes, "snf", counting_snf)
    monkeypatch.setattr(abelian, "solve_matrix", no_solve)
    assert not hasattr(complexes, "solve_matrix")
    for c in cxs:
        for k in range(c.dimension + 1):
            assert k not in c._hcache
            decomposed.clear()
            h = cohomology(c, k)
            assert decomposed
            assert sum(not _is_diagonal(a) for a in decomposed) <= 2
            assert _express(h, h.ambient_lift) == IntMatrix.identity(h.ngens)
