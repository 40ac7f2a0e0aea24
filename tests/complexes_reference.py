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
calls the package's `cohomology`, `_express` and `quotient_complex` by
module, since the names in this module are the references'.

`CellularMap`, `pullback`, `_injective` and `quotient_complex` are the
matrix path that reading a factor map through its cell assignment
replaced: the map records no assignment, injectivity is decided on the
pullback's rows, and the quotient re-derives each source cell's cover
from the pullback rows.  `CellularMap` keeps the constructor and its
checks only, verbatim; the rest are verbatim, except
that `quotient_complex` neither reads nor writes the source's content
entry, so that the quotient it builds never stands in for the one under
test.  The section-independence check of this `quotient_complex` and the
lift and cocycle checks of this `les_quotient` are no longer in the
package, where construction proves them (`tests/test_factor_map_facts.py`);
here they still run.  Test-only code.
"""
from __future__ import annotations

from tilecohom import complexes
from tilecohom.abelian import (FgAbGroup, GroupHom, IntMatrix, kernel_basis,
                               rank, solve_matrix)
from tilecohom.complexes import (CochainComplex, QuotientComplex,
                                 _quotient_cohomology_tower, _reduce,
                                 cohomology_tower, hom_on_cohomology)
from tilecohom.errors import (NotACochainMap, NotInjectiveOnCochains,
                              NotWellDefined)
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
    qc = complexes.quotient_complex(f)
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


class CellularMap:
    """Cellular map via its chain matrices F_k : C_k(source) -> C_k(target).

    Entries are signed incidence multiplicities; a substitution self-map
    sends an edge to an edge path, a quotient map sends each cell to a
    single cell with sign +1.  `cochain[k]` is the pullback
    f*_k = F_k^T : C^k(target) -> C^k(source), and commutation with the
    coboundary is checked on it at construction.
    """

    __slots__ = ("source", "target", "chain", "cochain")

    def __init__(self, source: CochainComplex, target: CochainComplex, chain):
        self.source = source
        self.target = target
        self.chain = list(chain)
        if len(self.chain) != source.dimension + 1:
            raise ValueError("need one chain matrix per degree")
        for k, f in enumerate(self.chain):
            if f.rows != target.n_cells(k) or f.cols != source.n_cells(k):
                raise ValueError(f"chain matrix {k} has wrong shape")
        self.cochain = [f.transpose() for f in self.chain]
        for k in range(source.dimension):
            # f* delta = delta f*, the transpose of d f = f d
            left = self.cochain[k + 1] * self.target.coboundary(k)
            right = self.source.coboundary(k) * self.cochain[k]
            if left != right:
                raise NotACochainMap(f"boundary square fails at degree {k + 1}")


def pullback(f: CellularMap, require_injective: bool = False):
    """Cochain matrices f*_k : C^k(target) -> C^k(source), i.e. f.cochain.

    With require_injective, every f*_k must be injective (_injective), or
    NotInjectiveOnCochains names the first degree where it is not.
    """
    if require_injective:
        for k, p in enumerate(f.cochain):
            if not _injective(p):
                raise NotInjectiveOnCochains(
                    f"pullback not injective on degree-{k} cochains")
    return f.cochain


def _injective(p: IntMatrix) -> bool:
    """Whether p is injective on integer vectors.  When each row has at
    most one entry (each source cell covers at most one target cell, as for
    every factor map of the catalog), that holds exactly when every column
    is covered; otherwise p is decomposed (rank)."""
    rows = p.sparse_rows
    if all(len(r) <= 1 for r in rows):
        return len(set().union(*rows)) == p.cols
    return rank(p) == p.cols


def quotient_complex(f: CellularMap) -> QuotientComplex:
    """Quotient cochain complex of a factor map (one target cell per source
    cell), kept in the source's content entry under the target's content
    and f's chain matrices, so its checks run once per distinct content."""
    x, y = f.source, f.target
    pb = pullback(f, require_injective=True)
    projs, sections, qcells, reps = [], [], [], []
    for k, p in enumerate(pb):
        # each source cell covers at most one target cell, with sign +-1;
        # f* is injective, so then every target cell gets a representative
        cover, rep = [], {}
        for i, row in enumerate(p.sparse_rows):
            nz = list(row.items())
            if len(nz) > 1:
                raise NotWellDefined(
                    f"degree-{k} cell covers more than one target cell",
                    witness=x.cells[k][i])
            if nz and abs(nz[0][1]) != 1:
                raise NotWellDefined(
                    f"degree-{k} cell covers a target cell with multiplicity",
                    witness=x.cells[k][i])
            cover.append(nz[0] if nz else None)
            if nz:
                rep.setdefault(nz[0][0], (i, nz[0][1]))
        n = p.rows
        rep_rows = {i for i, _ in rep.values()}
        nonrep = [i for i in range(n) if i not in rep_rows]
        # projection: subtract the pullback of the representative coordinate
        q = {}
        for idx, i in enumerate(nonrep):
            q[idx, i] = 1
            if cover[i] is not None:
                j, t = cover[i]
                ri, s = rep[j]
                q[idx, ri] = -t * s
        projs.append(IntMatrix.from_entries(len(nonrep), n, q))
        sections.append(IntMatrix.from_entries(
            n, len(nonrep), {(i, idx): 1 for idx, i in enumerate(nonrep)}))
        qcells.append([x.cells[k][i] for i in nonrep])
        reps.append(IntMatrix.from_entries(p.cols, n, {
            (j, i): s for j, (i, s) in rep.items()}))
    deltas = []
    for k in range(x.dimension):
        deltas.append(projs[k + 1] * (x.coboundary(k) * sections[k]))
        # section-independence: delta must kill the pulled-back cochains
        if not (projs[k + 1] * (x.coboundary(k) * pb[k])).is_zero():
            raise NotWellDefined(
                f"coboundary does not descend to the quotient at degree {k}")
    qc = QuotientComplex(CochainComplex(qcells, deltas),
                         projs, sections, reps)
    return qc
