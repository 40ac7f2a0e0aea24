"""Cellular cochain complexes, cellular maps, and quotient complexes.

Complexes of dimension at most two with named cells; cohomology as
presented abelian groups with cocycle-basis witnesses; pullbacks of
cellular maps; quotient cochain complexes of a factor map together with
the long exact sequence connecting the three towers, and the shortcut
computation available when the top cohomology of the target vanishes.
"""
from __future__ import annotations

from .abelian import (FgAbGroup, GroupHom, IntMatrix, kernel_basis, rank,
                      solve_matrix)
from .errors import (HypothesisFailed, NotACochainMap,
                     NotInjectiveOnCochains, NotWellDefined)
from .limits import (TowerGroup, classify, eventual_restriction, limit_les,
                     subquotient_tower)


class CochainComplex:
    """Free cochain complex on named cells, degrees 0..dimension (<= 2)."""

    __slots__ = ("cells", "delta", "dimension", "_index", "_hcache")

    def __init__(self, cells, delta):
        self.cells = [list(c) for c in cells]
        self.dimension = len(self.cells) - 1
        if not 0 <= self.dimension <= 2:
            raise ValueError("only dimensions 0..2 are supported")
        self.delta = list(delta)
        if len(self.delta) != self.dimension:
            raise ValueError("need one coboundary per consecutive degree pair")
        for k, d in enumerate(self.delta):
            if d.rows != len(self.cells[k + 1]) or d.cols != len(self.cells[k]):
                raise ValueError(f"coboundary {k} has wrong shape")
        for k in range(self.dimension - 1):
            if not (self.delta[k + 1] * self.delta[k]).is_zero():
                raise ValueError(f"delta o delta != 0 at degree {k}")
        self._index = [{c: i for i, c in enumerate(cs)} for cs in self.cells]
        self._hcache = {}

    def n_cells(self, k):
        return len(self.cells[k]) if 0 <= k <= self.dimension else 0

    def cell_index(self, k, cell):
        return self._index[k][cell]

    def coboundary(self, k) -> IntMatrix:
        """delta_k, with zero matrices synthesized outside 0..dimension-1."""
        if 0 <= k < self.dimension:
            return self.delta[k]
        return IntMatrix.zeros(self.n_cells(k + 1), self.n_cells(k))

    def dump(self) -> str:
        lines = []
        for k, cs in enumerate(self.cells):
            lines.append(f"degree {k}: {len(cs)} cells")
            for c in cs:
                lines.append(f"  {c}")
        for k, d in enumerate(self.delta):
            lines.append(f"delta_{k} ({d.rows}x{d.cols}):")
            for row in d.to_rows():
                lines.append("  " + " ".join(str(x) for x in row))
        return "\n".join(lines)

    def __repr__(self):
        sizes = "/".join(str(len(c)) for c in self.cells)
        return f"CochainComplex(cells={sizes})"


def cohomology(c: CochainComplex, k: int) -> FgAbGroup:
    """ker delta_k / im delta_{k-1}, on a minimal generating set.

    The presentation is reduced to canonical coordinates (one generator
    per nontrivial invariant factor); `ambient_lift` holds cocycle
    representatives of the generators and `ambient_cob` the coboundary
    lattice, so arbitrary cocycles can still be expressed in terms of the
    generators (see _express).
    """
    if not 0 <= k <= c.dimension:
        raise ValueError("degree out of range")
    cached = c._hcache.get(k)
    if cached is not None:
        return cached
    kb = kernel_basis(c.coboundary(k))
    im = c.coboundary(k - 1) if k > 0 else IntMatrix.zeros(c.n_cells(k), 0)
    rels = solve_matrix(kb, im)
    if rels is None:
        raise NotWellDefined("coboundaries do not lie in the cocycle lattice")
    big = FgAbGroup(kb.cols, rels)
    keep = [i for i, d in enumerate(big.invariants) if d != 1]
    from_min = big.Uinv.select_columns(keep)
    nk = len(keep)
    torsion_cols = []
    for idx, ki in enumerate(keep):
        d = big.invariants[ki]
        if d > 1:
            col = [0] * nk
            col[idx] = d
            torsion_cols.append(col)
    minrel = IntMatrix.from_rows(
        [[col[i] for col in torsion_cols] for i in range(nk)]) \
        if torsion_cols else IntMatrix.zeros(nk, 0)
    h = FgAbGroup(len(keep), minrel, ambient_lift=kb * from_min,
                  ambient_cob=im)
    c._hcache[k] = h
    return h


def _express(h: FgAbGroup, cochains: IntMatrix) -> IntMatrix | None:
    """Coordinates of cocycle columns in h's generators, modulo coboundaries.

    The answer is unique modulo h's relation lattice, which is exactly the
    ambiguity a GroupHom matrix is allowed to have.
    """
    if h.ambient_cob is None or h.ambient_cob.cols == 0:
        return solve_matrix(h.ambient_lift, cochains)
    x = solve_matrix(h.ambient_lift.hstack(h.ambient_cob), cochains)
    if x is None:
        return None
    return x.submatrix(range(h.ngens), range(x.cols))


class CellularMap:
    """Cellular map via its chain matrices F_k : C_k(source) -> C_k(target).

    Entries are signed incidence multiplicities; a substitution self-map
    sends an edge to an edge path, a quotient map sends each cell to a
    single cell with sign +1.  Commutation with the boundary is checked on
    construction.
    """

    __slots__ = ("source", "target", "chain")

    def __init__(self, source: CochainComplex, target: CochainComplex, chain):
        self.source = source
        self.target = target
        self.chain = list(chain)
        if len(self.chain) != source.dimension + 1:
            raise ValueError("need one chain matrix per degree")
        for k, f in enumerate(self.chain):
            if f.rows != target.n_cells(k) or f.cols != source.n_cells(k):
                raise ValueError(f"chain matrix {k} has wrong shape")
        for k in range(source.dimension):
            # boundary = transpose of coboundary; d f = f d
            left = self.target.coboundary(k).transpose() * self.chain[k + 1]
            right = self.chain[k] * self.source.coboundary(k).transpose()
            if left != right:
                raise NotACochainMap(f"boundary square fails at degree {k + 1}")

    @classmethod
    def from_assignment(cls, source, target, assignment):
        """assignment[k]: dict source-cell -> list of (sign, target-cell)."""
        chain = []
        for k in range(source.dimension + 1):
            m = [[0] * source.n_cells(k) for _ in range(target.n_cells(k))]
            amap = assignment[k] if k < len(assignment) else {}
            for cell, images in amap.items():
                j = source.cell_index(k, cell)
                for sign, tcell in images:
                    m[target.cell_index(k, tcell)][j] += sign
            chain.append(IntMatrix.from_rows(m) if m else
                         IntMatrix.zeros(0, source.n_cells(k)))
        return cls(source, target, chain)

    @classmethod
    def identity(cls, c: CochainComplex):
        return cls(c, c, [IntMatrix.identity(c.n_cells(k))
                          for k in range(c.dimension + 1)])

    def compose(self, other: "CellularMap") -> "CellularMap":
        """self after other."""
        if other.target is not self.source:
            raise ValueError("composition mismatch")
        return CellularMap(other.source, self.target,
                           [f * g for f, g in zip(self.chain, other.chain)])

    def __repr__(self):
        return f"CellularMap({self.source!r} -> {self.target!r})"


def pullback(f: CellularMap, require_injective: bool = False):
    """Cochain matrices f*_k : C^k(target) -> C^k(source)."""
    mats = [m.transpose() for m in f.chain]
    if require_injective:
        for k, p in enumerate(mats):
            if rank(p) != p.cols:
                raise NotInjectiveOnCochains(
                    f"pullback not injective on degree-{k} cochains")
    return mats


def cohomology_tower(c: CochainComplex, self_map: CellularMap, k: int) -> TowerGroup:
    """H^k(c) with the endomorphism induced by the self-map's pullback."""
    h = cohomology(c, k)
    return TowerGroup(h, hom_on_cohomology(self_map.chain[k].transpose(), h, h))


def hom_on_cohomology(p: IntMatrix, ha: FgAbGroup, hb: FgAbGroup) -> GroupHom:
    """Induced map on cohomology from a cochain-level map p: C^k_a -> C^k_b."""
    x = _express(hb, p * ha.ambient_lift)
    if x is None:
        raise NotACochainMap("cochain map does not preserve cocycles")
    return GroupHom(ha, hb, x)


class QuotientComplex:
    """C^k_Q = C^k(X) / f*(C^k(Y)) for a cellular quotient map f: X -> Y.

    Carries projection and section matrices between the cochains of X and
    the quotient basis (the non-representative cells of X).
    """

    __slots__ = ("base", "other", "map", "complex", "proj", "section")

    def __init__(self, base, other, fmap, complex_, proj, section):
        self.base = base
        self.other = other
        self.map = fmap
        self.complex = complex_
        self.proj = proj
        self.section = section


def quotient_complex(f: CellularMap) -> QuotientComplex:
    """Quotient cochain complex of a factor map (one target cell per source cell)."""
    x, y = f.source, f.target
    pb = pullback(f, require_injective=True)
    projs, sections, qcells = [], [], []
    for k in range(x.dimension + 1):
        p = pb[k]
        # each source cell covers at most one target cell, with sign +-1
        rep_row = {}
        for i in range(p.rows):
            nz = [(j, p.entry(i, j)) for j in range(p.cols) if p.entry(i, j)]
            if len(nz) > 1:
                raise NotWellDefined(
                    f"degree-{k} cell covers more than one target cell",
                    witness=x.cells[k][i])
            if nz and abs(nz[0][1]) != 1:
                raise NotWellDefined(
                    f"degree-{k} cell covers a target cell with multiplicity",
                    witness=x.cells[k][i])
        for j in range(p.cols):
            for i in range(p.rows):
                if p.entry(i, j):
                    rep_row[j] = (i, p.entry(i, j))
                    break
            else:
                raise NotInjectiveOnCochains(
                    f"target degree-{k} cell {y.cells[k][j]} has no preimage")
        rep_rows = {i for i, _ in rep_row.values()}
        nonrep = [i for i in range(p.rows) if i not in rep_rows]
        # retraction r: picks the representative coordinate per target cell
        r = [[0] * p.rows for _ in range(p.cols)]
        for j, (i, s) in rep_row.items():
            r[j][i] = s
        rmat = IntMatrix.from_rows(r) if r else IntMatrix.zeros(0, p.rows)
        resid = IntMatrix.identity(p.rows) - p * rmat
        q = resid.submatrix(nonrep, range(p.rows))
        sec = [[int(i == nr) for nr in nonrep] for i in range(p.rows)]
        projs.append(q)
        sections.append(IntMatrix.from_rows(sec) if sec else
                        IntMatrix.zeros(p.rows, 0))
        qcells.append([x.cells[k][i] for i in nonrep])
    deltas = []
    for k in range(x.dimension):
        deltas.append(projs[k + 1] * x.coboundary(k) * sections[k])
        # section-independence: delta must kill the pulled-back cochains
        if not (projs[k + 1] * x.coboundary(k) * pb[k]).is_zero():
            raise NotWellDefined(
                f"coboundary does not descend to the quotient at degree {k}")
    qx = CochainComplex(qcells, deltas)
    return QuotientComplex(x, y, f, qx, projs, sections)


def _connecting_matrix(qc: QuotientComplex, pb, k, hq: FgAbGroup, hy1: FgAbGroup):
    """Zig-zag connecting map H^k_Q -> H^{k+1}(Y) on cocycle bases."""
    x = qc.base
    lifted = x.coboundary(k) * qc.section[k] * hq.ambient_lift
    y_coords = solve_matrix(pb[k + 1], lifted)
    if y_coords is None:
        raise NotACochainMap("connecting map lift failed")
    coords = _express(hy1, y_coords)
    if coords is None:
        raise NotACochainMap("connecting image is not a cocycle class")
    return coords


def les_quotient(f: CellularMap, self_x: CellularMap, self_y: CellularMap):
    """Long exact sequence of the quotient in the limit.

    Returns a dict with classified limits for H^k(Y), H^k(X), H^k_Q and the
    list of nodes checked; raises ExactnessFailure/NotACochainMap on any
    defect.  The self-maps must intertwine with f (checked at chain level).
    """
    x, y = f.source, f.target
    for k in range(x.dimension + 1):
        if f.chain[k] * self_x.chain[k] != self_y.chain[k] * f.chain[k]:
            raise NotACochainMap(
                f"factor map does not intertwine the self-maps at degree {k}")
    pb = pullback(f, require_injective=True)
    qc = quotient_complex(f)
    qx = qc.complex
    sq = [qc.proj[k] * self_x.chain[k].transpose() * qc.section[k]
          for k in range(x.dimension + 1)]
    towers, maps, names = [], [], []
    prev_hq = None
    prev_hq_tower = None
    d = x.dimension
    result = {"Y": [], "X": [], "Q": []}
    zero = TowerGroup(FgAbGroup.trivial(),
                      GroupHom.zero(FgAbGroup.trivial(), FgAbGroup.trivial()))
    towers.append(zero)
    names.append("0")
    for k in range(d + 1):
        ty = cohomology_tower(y, self_y, k) if k <= y.dimension else zero
        tx = cohomology_tower(x, self_x, k)
        hq = cohomology(qx, k)
        tq = TowerGroup(hq, hom_on_cohomology(sq[k], hq, hq))
        if k == 0:
            maps.append(GroupHom.zero(zero.group, ty.group))
        else:
            conn = _connecting_matrix(qc, pb, k - 1, prev_hq, ty.group)
            maps.append(GroupHom(prev_hq, ty.group, conn))
        maps.append(hom_on_cohomology(pb[k], ty.group, tx.group))
        maps.append(hom_on_cohomology(qc.proj[k], tx.group, tq.group))
        towers.extend([ty, tx, tq])
        names.extend([f"H^{k}(Y)", f"H^{k}(X)", f"H^{k}_Q"])
        prev_hq, prev_hq_tower = hq, tq
    towers.append(zero)
    names.append("0")
    maps.append(GroupHom.zero(prev_hq_tower.group, zero.group))
    exprs = limit_les(towers, maps, names=names)
    for i, name in enumerate(names):
        if name.endswith("(Y)"):
            result["Y"].append(exprs[i])
        elif name.endswith("(X)"):
            result["X"].append(exprs[i])
        elif name.endswith("_Q"):
            result["Q"].append(exprs[i])
    result["nodes"] = names
    return result


def lemma1_shortcut(f: CellularMap, self_x: CellularMap, self_y: CellularMap,
                    n: int | None = None):
    """(H^0_Q = 0 verdict, top quotient group) without the full sequence.

    Valid when H^{n+1}(Y) vanishes in the limit: then H^0_Q = 0 iff the
    pullback on H^1 is injective in the limit, and H^n_Q is the cokernel of
    the pullback on H^n.
    """
    x, y = f.source, f.target
    if n is None:
        n = x.dimension
    if n + 1 <= y.dimension:
        above = classify(cohomology_tower(y, self_y, n + 1))
        if not above.is_zero():
            raise HypothesisFailed(
                f"H^{n + 1} of the target does not vanish in the limit")
    pb = pullback(f, require_injective=True)
    # H^0_Q = 0 iff pullback on H^1 injective in the limit
    ty1 = cohomology_tower(y, self_y, 1) if y.dimension >= 1 else None
    tx1 = cohomology_tower(x, self_x, 1)
    if ty1 is None:
        h0q_zero = True
    else:
        h = hom_on_cohomology(pb[1], ty1.group, tx1.group)
        ker_tower = subquotient_tower(ty1, h.kernel_gens(), ty1.group.rel)
        h0q_zero = eventual_restriction(ker_tower).group.is_trivial()
    # top quotient group = coker of the pullback on H^n in the limit
    tyn = cohomology_tower(y, self_y, n) if n <= y.dimension else None
    txn = cohomology_tower(x, self_x, n)
    if tyn is None:
        top = classify(txn)
    else:
        h = hom_on_cohomology(pb[n], tyn.group, txn.group)
        gx = txn.group
        top = classify(subquotient_tower(
            txn, IntMatrix.identity(gx.ngens), gx.rel.hstack(h.matrix)))
    return h0q_zero, top

