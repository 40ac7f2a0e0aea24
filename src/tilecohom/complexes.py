"""Cellular cochain complexes, cellular maps, and quotient complexes.

Complexes of dimension at most two with named cells; cohomology as
presented abelian groups with cocycle-basis witnesses; pullbacks of
cellular maps; quotient cochain complexes of a factor map together with
the long exact sequence connecting the three towers, and the shortcut
computation available when the top cohomology of the target vanishes.
"""
from __future__ import annotations

from .abelian import FgAbGroup, GroupHom, IntMatrix, _axpy, rank, snf
from .errors import (HypothesisFailed, NotACochainMap,
                     NotInjectiveOnCochains, NotWellDefined)
from .limits import (TowerGroup, _dies_in_limit, classify, limit_les,
                     subquotient_tower)


# One entry per distinct content (cells and coboundaries), shared by every
# CochainComplex built with it: the reduction under "reduced", H^k under k,
# the tower of a self-map under (self_map, k), and the quotient complex of a
# factor map onto a target under (target content, chain matrices).
_complexes = {}


class CochainComplex:
    """Free cochain complex on named cells, degrees 0..dimension (<= 2).

    `_hcache` is the entry of its content in `_complexes`; delta o delta = 0
    is checked when a content is first seen.
    """

    __slots__ = ("cells", "delta", "dimension", "_index", "_key", "_hcache")

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
        self._index = [{c: i for i, c in enumerate(cs)} for cs in self.cells]
        for k, (cs, index) in enumerate(zip(self.cells, self._index)):
            if len(index) < len(cs):
                raise ValueError(f"repeated cell in degree {k}: " + repr(next(
                    c for i, c in enumerate(cs) if index[c] != i)))
        self._key = (tuple(map(tuple, self.cells)), tuple(self.delta))
        entry = _complexes.get(self._key)
        if entry is None:
            for k in range(self.dimension - 1):
                if not (self.delta[k + 1] * self.delta[k]).is_zero():
                    raise ValueError(f"delta o delta != 0 at degree {k}")
            entry = _complexes[self._key] = {}
        self._hcache = entry

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


def _reduce(c: CochainComplex):
    """(reduced complex, iota, pi) of c by unit-pivot elimination, kept in
    c's content entry.

    Each step removes a pair a in C^k, b in C^(k+1) with delta_k[b, a] = s
    = +-1.  With u = delta_k[b, !=a] and w = delta_k[!=b, a], delta_k
    becomes D - w s u on the other cells, delta_(k-1) loses row a and
    delta_(k+1) loses column b.  The cochain maps iota_k: C'^k -> C^k
    (matrices n_k x n'_k) and pi_k: C^k -> C'^k satisfy pi iota = id and
    iota pi ~ id, so they are inverse isomorphisms on cohomology
    (Kaczynski-Mischaikow-Mrozek, Computational Homology, 2004).

    Degrees are eliminated in increasing order, which leaves no unit entry
    in any coboundary: a later step only deletes rows of the earlier ones.
    Within a degree the rows are swept in index order until a sweep makes
    no step; each row pivots on its unit entry whose column has the fewest
    nonzeros, ties to the smaller index.  That keeps the fill-in low and
    the result a function of c alone.
    """
    cached = c._hcache.get("reduced")
    if cached is not None:
        return cached
    dim = c.dimension
    rows = [dict(enumerate(map(dict, d.sparse_rows))) for d in c.delta]
    cols = [{a: set() for a in range(d.cols)} for d in c.delta]
    for rk, ck in zip(rows, cols):
        for b, r in rk.items():
            for a in r:
                ck[a].add(b)
    iota = [{j: {j: 1} for j in range(c.n_cells(k))} for k in range(dim + 1)]
    pi = [{i: {i: 1} for i in range(c.n_cells(k))} for k in range(dim + 1)]
    for k in range(dim):
        rk, ck = rows[k], cols[k]
        swept = False
        while not swept:
            swept = True
            for b in sorted(rk):
                u = rk.get(b)
                units = [a for a, x in u.items() if x in (1, -1)] if u else ()
                if not units:
                    continue
                swept = False
                a = min(units, key=lambda a: (len(ck[a]), a))
                s = u.pop(a)
                del rk[b]
                for j in u:
                    ck[j].discard(b)
                w = {}
                for i in ck.pop(a) - {b}:
                    ri = rk[i]
                    w[i] = wi = ri.pop(a)
                    for j, uj in u.items():
                        old = ri.get(j)
                        y = (old or 0) - wi * s * uj
                        if y:
                            ri[j] = y
                            if old is None:
                                ck[j].add(i)
                        else:
                            del ri[j]
                            ck[j].discard(i)
                if k > 0:
                    for j in rows[k - 1].pop(a):
                        cols[k - 1][j].discard(a)
                if k + 1 < dim:
                    for i in cols[k + 1].pop(b):
                        del rows[k + 1][i][b]
                ia = iota[k].pop(a)
                for j, uj in u.items():
                    _axpy(iota[k][j], ia, -s * uj)
                pib = pi[k + 1].pop(b)
                for i, wi in w.items():
                    _axpy(pi[k + 1][i], pib, -s * wi)
                del pi[k][a], iota[k + 1][b]
    keep = [sorted(p) for p in pi]
    pos = [{x: i for i, x in enumerate(kp)} for kp in keep]
    deltas = [IntMatrix.from_entries(len(keep[k + 1]), len(keep[k]), {
        (i, pos[k][a]): x for i, b in enumerate(keep[k + 1])
        for a, x in rows[k][b].items()}) for k in range(dim)]
    iotas = [IntMatrix.from_entries(c.n_cells(k), len(kp), {
        (x, i): v for i, j in enumerate(kp) for x, v in iota[k][j].items()})
        for k, kp in enumerate(keep)]
    pis = [IntMatrix.from_entries(len(kp), c.n_cells(k), {
        (i, x): v for i, j in enumerate(kp) for x, v in pi[k][j].items()})
        for k, kp in enumerate(keep)]
    red = CochainComplex([[c.cells[k][i] for i in kp]
                          for k, kp in enumerate(keep)], deltas)
    c._hcache["reduced"] = red, iotas, pis
    return red, iotas, pis


def cohomology(c: CochainComplex, k: int) -> FgAbGroup:
    """ker delta_k / im delta_{k-1}, on a minimal generating set, from two
    Smith forms on the reduced complex of _reduce (Kaczynski-Mischaikow-
    Mrozek, Computational Homology, 2004, ch. 3).  With U delta_{k-1} V = D
    of rank r, im is spanned by the d_i U^-1 e_i, which delta_k kills; with
    W the V of snf(delta_k U^-1[:, r:]), of rank q, the generators are
    U^-1 e_i of order d_i > 1, then the free U^-1[:, r:] W[:, q:].
    `ambient_lift` holds them in c's own cochains, and `_coords` is
    (delta_k, E pi) for _express, E stacking U[tors] over W^-1[q:] U[r:].
    """
    if not 0 <= k <= c.dimension:
        raise ValueError("degree out of range")
    cached = c._hcache.get(k)
    if cached is not None:
        return cached
    red, iota, pi = _reduce(c)
    n = red.n_cells(k)
    s = snf(red.coboundary(k - 1))
    r = s.rank
    tors = [i for i, d in enumerate(s.invariant_factors) if d > 1]
    rest = s.Uinv.select_columns(range(r, n))
    t = snf(red.coboundary(k) * rest)
    free = range(t.rank, n - r)
    lift = s.Uinv.select_columns(tors).hstack(rest * t.V.select_columns(free))
    coords = s.U.submatrix(tors, range(n)).vstack(
        t.Vinv.submatrix(free, range(n - r))
        * s.U.submatrix(range(r, n), range(n)))
    rel = IntMatrix.diagonal([s.invariant_factors[i] for i in tors],
                             lift.cols, len(tors))
    h = FgAbGroup(lift.cols, rel, ambient_lift=iota[k] * lift)
    h._coords = (c.coboundary(k), coords * pi[k])
    c._hcache[k] = h
    return h


def _express(h: FgAbGroup, cochains: IntMatrix) -> IntMatrix | None:
    """Coordinates of cocycle columns in h's generators, modulo coboundaries;
    None when a column is not a cocycle.  A cocycle z is cohomologous to
    iota(pi z), whose coordinates are E pi z (see cohomology); a torsion
    coordinate is defined modulo its order, as a GroupHom matrix may be.
    """
    delta, coords = h._coords
    if not (delta * cochains).is_zero():
        return None
    return coords * cochains


class CellularMap:
    """Cellular map via its chain matrices F_k : C_k(source) -> C_k(target).

    Entries are signed incidence multiplicities; a substitution self-map
    sends an edge to an edge path, a factor map sends each cell to a
    single cell with sign +1.  `cochain[k]` is the pullback
    f*_k = F_k^T : C^k(target) -> C^k(source), and commutation with the
    coboundary is checked on it at construction.  If each source cell goes
    to at most one target cell, with sign +-1, `cells[k][i]` is cell i's
    (target cell, sign) or None; otherwise `cells` is None.
    """

    __slots__ = ("source", "target", "chain", "cochain", "cells")

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
        self.cells = _assignment(self)
        for k in range(source.dimension):
            # f* delta = delta f*, the transpose of d f = f d
            left = self.cochain[k + 1] * self.target.coboundary(k)
            right = self.source.coboundary(k) * self.cochain[k]
            if left != right:
                raise NotACochainMap(f"boundary square fails at degree {k + 1}")

    @classmethod
    def from_assignment(cls, source, target, assignment):
        """assignment[k]: dict source-cell -> list of (sign, target-cell)."""
        chain = []
        for k in range(source.dimension + 1):
            m = {}
            amap = assignment[k] if k < len(assignment) else {}
            for cell, images in amap.items():
                j = source.cell_index(k, cell)
                for sign, tcell in images:
                    at = (target.cell_index(k, tcell), j)
                    m[at] = m.get(at, 0) + sign
            chain.append(IntMatrix.from_entries(
                target.n_cells(k), source.n_cells(k), m))
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


def _assignment(f: CellularMap, refuse: bool = False):
    """Each source cell's (target cell, sign) or None, by degree; None, or
    with refuse NotWellDefined, if a cell's pullback row is not one +-1."""
    cells = []
    for k, p in enumerate(f.cochain):
        cells.append([])
        for i, row in enumerate(p.sparse_rows):
            if len(row) > 1 or row and abs(*row.values()) != 1:
                if not refuse:
                    return None
                raise NotWellDefined(f"degree-{k} cell covers " + (
                    "more than one target cell" if len(row) > 1
                    else "a target cell with multiplicity"),
                    witness=f.source.cells[k][i])
            cells[-1].append(next(iter(row.items()), None))
    return cells


def pullback(f: CellularMap, require_injective: bool = False):
    """Cochain matrices f*_k : C^k(target) -> C^k(source), i.e. f.cochain.

    With require_injective, every f*_k must be injective (_injective), or
    NotInjectiveOnCochains names the first degree where it is not.
    """
    if require_injective:
        for k in range(len(f.cochain)):
            if not _injective(f, k):
                raise NotInjectiveOnCochains(
                    f"pullback not injective on degree-{k} cochains")
    return f.cochain


def _injective(f: CellularMap, k: int) -> bool:
    """Whether f*_k is injective: every target cell is hit, or by rank."""
    if f.cells is None:
        return rank(f.cochain[k]) == f.target.n_cells(k)
    return len({c[0] for c in f.cells[k] if c}) == f.target.n_cells(k)


def cohomology_tower(c: CochainComplex, self_map: CellularMap, k: int) -> TowerGroup:
    """H^k(c) with the endomorphism induced by the self-map's pullback,
    kept with H^k in c's content entry under the key (self_map, k)."""
    h = cohomology(c, k)
    t = c._hcache.get((self_map, k))
    if t is None:
        t = TowerGroup(h, hom_on_cohomology(self_map.cochain[k], h, h))
        c._hcache[self_map, k] = t
    return t


def hom_on_cohomology(p: IntMatrix, ha: FgAbGroup, hb: FgAbGroup) -> GroupHom:
    """Induced map on cohomology from a cochain-level map p: C^k_a -> C^k_b."""
    return _induced(ha, hb, p * ha.ambient_lift)


def _induced(ha: FgAbGroup, hb: FgAbGroup, image: IntMatrix) -> GroupHom:
    """The hom ha -> hb sending each generator of ha to the class of the
    matching column of `image`, a cocycle of hb's complex."""
    x = _express(hb, image)
    if x is None:
        raise NotACochainMap("cochain map does not preserve cocycles")
    return GroupHom(ha, hb, x)


class QuotientComplex:
    """C^k_Q = C^k(X) / f*(C^k(Y)) for a cellular quotient map f: X -> Y.

    Carries projection and section matrices between the cochains of X and
    the quotient basis (the non-representative cells of X), and `rep[k]`,
    with one entry per cell j of Y: the sign s at (j, i) of its
    representative cell i of X, so rep[k] * (f*_k y) = y.
    """

    __slots__ = ("complex", "proj", "section", "rep")

    def __init__(self, complex_, proj, section, rep):
        self.complex = complex_
        self.proj = proj
        self.section = section
        self.rep = rep


def quotient_complex(f: CellularMap) -> QuotientComplex:
    """Quotient cochain complex of a factor map, read off its assignment:
    the first source cell over each target cell represents it, the others
    span the quotient.  Kept in the source's content entry under the target's
    content and f's chain matrices, so its checks run once per content."""
    x, y = f.source, f.target
    key = y._key, tuple(f.chain)
    cached = x._hcache.get(key)
    if cached is not None:
        return cached
    pullback(f, require_injective=True)
    projs, sections, qcells, reps = [], [], [], []
    for k, cover in enumerate(f.cells or _assignment(f, refuse=True)):
        # reversed, so the first cell over each target cell represents it
        rep = {c[0]: (i, c[1]) for i, c in reversed([*enumerate(cover)]) if c}
        basis = [i for i, c in enumerate(cover) if not c or rep[c[0]][0] != i]
        q = {}
        for idx, i in enumerate(basis):
            q[idx, i] = 1
            if cover[i] is not None:
                r, s = rep[cover[i][0]]
                q[idx, r] = -cover[i][1] * s
        projs.append(IntMatrix.from_entries(len(basis), len(cover), q))
        sections.append(IntMatrix.from_entries(len(cover), len(basis), {
            (i, idx): 1 for idx, i in enumerate(basis)}))
        qcells.append([x.cells[k][i] for i in basis])
        reps.append(IntMatrix.from_entries(y.n_cells(k), len(cover), {
            (j, i): s for j, (i, s) in rep.items()}))
    deltas = [projs[k + 1] * (x.coboundary(k) * sections[k])
              for k in range(x.dimension)]
    qc = x._hcache[key] = QuotientComplex(CochainComplex(qcells, deltas),
                                          projs, sections, reps)
    return qc


def _quotient_cohomology_tower(qc: QuotientComplex, self_x: CellularMap,
                               k: int) -> TowerGroup:
    """H^k_Q with the endo induced by proj f* section, applied to the
    generators' lift first so every product has a thin right factor."""
    h = cohomology(qc.complex, k)
    z = self_x.cochain[k] * (qc.section[k] * h.ambient_lift)
    return TowerGroup(h, _induced(h, h, qc.proj[k] * z))


def _require_intertwining(f: CellularMap, self_x: CellularMap,
                          self_y: CellularMap):
    """Raise NotACochainMap unless f self_x = self_y f at chain level."""
    # above y's dimension there are no target cells to intertwine
    for k in range(min(f.source.dimension, f.target.dimension) + 1):
        if f.chain[k] * self_x.chain[k] != self_y.chain[k] * f.chain[k]:
            raise NotACochainMap(
                f"factor map does not intertwine the self-maps at degree {k}")


def les_quotient(f: CellularMap, self_x: CellularMap, self_y: CellularMap):
    """Long exact sequence of the quotient in the limit.

    Returns a dict with classified limits for H^k(Y), H^k(X), H^k_Q and the
    list of nodes checked; raises ExactnessFailure/NotACochainMap on any
    defect.  The self-maps must intertwine with f (checked at chain level).
    """
    _require_intertwining(f, self_x, self_y)
    x, y = f.source, f.target
    qc = quotient_complex(f)
    towers, maps, names = [], [], []
    for k in range(x.dimension + 1):
        if k <= y.dimension:
            ty = cohomology_tower(y, self_y, k)
        else:
            # H^k(Y) = 0 is the cohomology of the empty complex; its tower
            # is not kept, since a new identity map would key a new one
            h = cohomology(CochainComplex([[]], []), 0)
            ty = TowerGroup(h, GroupHom(h, h, IntMatrix.zeros(0, 0)))
        tx = cohomology_tower(x, self_x, k)
        tq = _quotient_cohomology_tower(qc, self_x, k)
        if k > 0:
            # zig-zag connecting map H^(k-1)_Q -> H^k(Y): delta section z
            # lies in ker proj = im f*, and rep[k] reads its preimage off
            hq = towers[-1].group
            maps.append(_induced(hq, ty.group, qc.rep[k] * (
                x.coboundary(k - 1) * (qc.section[k - 1] * hq.ambient_lift))))
        maps.append(hom_on_cohomology(f.cochain[k], ty.group, tx.group))
        maps.append(hom_on_cohomology(qc.proj[k], tx.group, tq.group))
        towers += [ty, tx, tq]
        names += [f"H^{k}(Y)", f"H^{k}(X)", f"H^{k}_Q"]
    # limit_les checks the first and last nodes against 0 -> H^0(Y) and
    # H^d_Q -> 0 itself, so the sequence carries no zero ends
    exprs = limit_les(towers, maps, names=names)
    return {"Y": exprs[0::3], "X": exprs[1::3], "Q": exprs[2::3],
            "nodes": ["0", *names, "0"]}


def lemma1_shortcut(f: CellularMap, self_x: CellularMap, self_y: CellularMap,
                    n: int | None = None):
    """(H^0_Q = 0 verdict, top quotient group) without the full sequence.

    Valid when H^{n+1}(Y) vanishes in the limit: then H^0_Q = 0 iff the
    pullback on H^1 is injective in the limit (the stage is tried first),
    and H^n_Q is the cokernel of the pullback on H^n.  The self-maps must
    intertwine with f, as for les_quotient.
    """
    _require_intertwining(f, self_x, self_y)
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
        h0q_zero = _dies_in_limit(ty1, h.kernel_gens(), ty1.group.rel)
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

