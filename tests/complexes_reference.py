"""Reference cohomology presentation by kernel basis and solve.

These are the `cohomology` and `_express` that the two-Smith-form
presentation in `tilecohom.complexes` replaced: the kernel basis of
delta_k, the coboundaries solved against it, the presentation reduced to
canonical coordinates by two more Smith forms, and cocycles expressed by a
solve against lift | im.  They are kept verbatim, except that `cohomology`
neither reads nor writes the complex's content entry, so that the groups
it builds never stand in for the ones under test.  Test-only code.
"""
from __future__ import annotations

from tilecohom.abelian import (FgAbGroup, IntMatrix, kernel_basis,
                               solve_matrix)
from tilecohom.complexes import CochainComplex, _reduce
from tilecohom.errors import NotWellDefined


def cohomology(c: CochainComplex, k: int) -> FgAbGroup:
    """ker delta_k / im delta_{k-1}, on a minimal generating set.

    Computed on the reduced complex of _reduce.  The presentation is
    reduced to canonical coordinates (one generator per nontrivial
    invariant factor); `ambient_lift` holds cocycle representatives of the
    generators in c's own cochains, and `_coords` what _express needs to
    write any cocycle in terms of the generators.
    """
    if not 0 <= k <= c.dimension:
        raise ValueError("degree out of range")
    red, iota, pi = _reduce(c)
    kb = kernel_basis(red.coboundary(k))
    im = red.coboundary(k - 1)
    rels = solve_matrix(kb, im)
    if rels is None:
        raise NotWellDefined("coboundaries do not lie in the cocycle lattice")
    big = FgAbGroup(kb.cols, rels)
    keep = [i for i, d in enumerate(big.invariants) if d != 1]
    from_min = big.Uinv.select_columns(keep)
    nk = len(keep)
    torsion = [(i, big.invariants[ki]) for i, ki in enumerate(keep)
               if big.invariants[ki] > 1]
    minrel = IntMatrix.from_entries(
        nk, len(torsion), {(i, j): d for j, (i, d) in enumerate(torsion)})
    lift = kb * from_min
    h = FgAbGroup(nk, minrel, ambient_lift=iota[k] * lift)
    h._coords = (c.coboundary(k), pi[k], lift.hstack(im))
    return h


def _express(h: FgAbGroup, cochains: IntMatrix) -> IntMatrix | None:
    """Coordinates of cocycle columns in h's generators, modulo coboundaries;
    None when a column is not a cocycle.

    A cocycle z is cohomologous to iota(pi z), so its coordinates are those
    of pi z in the reduced lift and coboundaries.  The answer is unique
    modulo h's relation lattice, which is exactly the ambiguity a GroupHom
    matrix is allowed to have.
    """
    delta, proj, basis = h._coords
    if not (delta * cochains).is_zero():
        return None
    x = solve_matrix(basis, proj * cochains)
    return None if x is None else x.submatrix(range(h.ngens), range(x.cols))
