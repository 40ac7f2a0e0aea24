"""Reference cohomology presentation by kernel basis and solve, and the
long exact sequence of a quotient with its connecting map lifted by solve.

These are the `cohomology` and `_express` that the two-Smith-form
presentation in `tilecohom.complexes` replaced: the kernel basis of
delta_k, the coboundaries solved against it, the presentation reduced to
canonical coordinates by two more Smith forms, and cocycles expressed by a
solve against lift | im.  They are kept verbatim, except that `cohomology`
neither reads nor writes the complex's content entry, so that the groups
it builds never stand in for the ones under test.

`les_quotient` is the sequence before its connecting map read the lift y
of f*_k y = lifted off the representative rows of `quotient_complex`: it
solves for y with `solve_matrix`.  It is kept verbatim, except that it
calls the package's `cohomology` and `_express` by module, since the names
above are the references'.  Test-only code.
"""
from __future__ import annotations

from tilecohom import complexes
from tilecohom.abelian import (FgAbGroup, GroupHom, IntMatrix, kernel_basis,
                               solve_matrix)
from tilecohom.complexes import (CellularMap, CochainComplex,
                                 _quotient_cohomology_tower, _reduce,
                                 cohomology_tower,
                                 hom_on_cohomology, quotient_complex)
from tilecohom.errors import NotACochainMap, NotWellDefined
from tilecohom.limits import TowerGroup, limit_les


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


def les_quotient(f: CellularMap, self_x: CellularMap, self_y: CellularMap):
    """Long exact sequence of the quotient in the limit.

    Returns a dict with classified limits for H^k(Y), H^k(X), H^k_Q and the
    list of nodes checked; raises ExactnessFailure/NotACochainMap on any
    defect.  The self-maps must intertwine with f (checked at chain level).
    """
    x, y = f.source, f.target
    # above y's dimension there are no target cells to intertwine
    for k in range(min(x.dimension, y.dimension) + 1):
        if f.chain[k] * self_x.chain[k] != self_y.chain[k] * f.chain[k]:
            raise NotACochainMap(
                f"factor map does not intertwine the self-maps at degree {k}")
    qc = quotient_complex(f)
    towers, maps, names = [], [], []
    for k in range(x.dimension + 1):
        if k <= y.dimension:
            ty = cohomology_tower(y, self_y, k)
        else:
            # H^k(Y) = 0 is the cohomology of the empty complex; its tower
            # is not kept, since a new identity map would key a new one
            h = complexes.cohomology(CochainComplex([[]], []), 0)
            ty = TowerGroup(h, GroupHom(h, h, IntMatrix.zeros(0, 0)))
        tx = cohomology_tower(x, self_x, k)
        tq = _quotient_cohomology_tower(qc, self_x, k)
        if k > 0:
            # zig-zag connecting map H^(k-1)_Q -> H^k(Y) on cocycle bases
            hq = towers[-1].group
            lifted = x.coboundary(k - 1) * (qc.section[k - 1] * hq.ambient_lift)
            y_coords = solve_matrix(f.cochain[k], lifted)
            if y_coords is None:
                raise NotACochainMap("connecting map lift failed")
            coords = complexes._express(ty.group, y_coords)
            if coords is None:
                raise NotACochainMap("connecting image is not a cocycle class")
            maps.append(GroupHom(hq, ty.group, coords))
        maps.append(hom_on_cohomology(f.cochain[k], ty.group, tx.group))
        maps.append(hom_on_cohomology(qc.proj[k], tx.group, tq.group))
        towers += [ty, tx, tq]
        names += [f"H^{k}(Y)", f"H^{k}(X)", f"H^{k}_Q"]
    # limit_les checks the first and last nodes against 0 -> H^0(Y) and
    # H^d_Q -> 0 itself, so the sequence carries no zero ends
    exprs = limit_les(towers, maps, names=names)
    return {"Y": exprs[0::3], "X": exprs[1::3], "Q": exprs[2::3],
            "nodes": ["0", *names, "0"]}
