"""Direct limits of stationary towers G -> G -> G -> ... of f.g. abelian groups.

A tower is a group together with a self-map; its direct limit is classified
into a canonical expression  torsion + Z[1/m]^a + Z^b  whenever the
endomorphism splits (after restriction to its eventual image) into primary
components with integer eigenvalues.  Anything else is returned with an
honest `unclassified` payload rather than a guessed form.
"""
from __future__ import annotations

import math
import operator
import re

import sympy

from .abelian import (FgAbGroup, GroupHom, IntMatrix, kernel_basis,
                      lattice_basis, preimage_lattice, snf, solve, solve_matrix)
from .errors import ExactnessFailure, NotACochainMap, Unclassified


def radical(n: int) -> int:
    """Product of the distinct primes of |n| (radical of 0 or 1 is itself)."""
    n = abs(n)
    if n <= 1:
        return n
    out = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            out *= p
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    return out * n if n > 1 else out


# one summand of a GroupExpr: Z_t, Z[1/m], Z[1/m]^a, Z or Z^b
_TOKEN = re.compile(
    r"Z_([0-9]+)|Z\[1/([0-9]+)\](?:\^([0-9]+))?|Z(?:\^([0-9]+))?")


class GroupExpr:
    """Canonical form  Z_{t1} + ... + Z[1/m]^a + ... + Z^b.

    Localization bases are normalized to the radical of the inverted
    integer (Z[1/4] and Z[1/2] are the same group), Z[1/1] is folded into
    the free part and Z[1/0] into the zero summand, as are Z_1 and a
    multiplicity 0.  A torsion order below 1, or a negative base,
    multiplicity or free rank, names no group and is refused (ValueError);
    every part is read through operator.index, so a float or a string is a
    TypeError.
    """

    __slots__ = ("torsion_parts", "localization_parts", "free_rank", "unclassified")

    def __init__(self, torsion_parts=(), localization_parts=(), free_rank=0,
                 unclassified=None):
        torsion = [operator.index(t) for t in torsion_parts]
        free = operator.index(free_rank)
        parts = [(operator.index(m), operator.index(a))
                 for m, a in localization_parts]
        if min(torsion, default=1) < 1 or free < 0 \
                or min(map(min, parts), default=0) < 0:
            raise ValueError(
                f"no group has torsion orders {torsion}, localizations "
                f"{parts} (base, multiplicity) and free rank {free}")
        self.torsion_parts = sorted(t for t in torsion if t > 1)
        locs = {}
        for m, a in parts:
            if a == 0 or m == 0:
                continue
            if m == 1:
                free += a
            else:
                base = radical(m)
                locs[base] = locs.get(base, 0) + a
        self.localization_parts = sorted(locs.items())
        self.free_rank = free
        self.unclassified = unclassified

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self):
        return not self.unclassified and not self.torsion_parts \
            and not self.localization_parts and self.free_rank == 0

    def key(self):
        if self.unclassified is not None:
            raise Unclassified("expression carries an unclassified payload")
        return (tuple(self.torsion_parts), tuple(self.localization_parts),
                self.free_rank)

    def __eq__(self, other):
        if not isinstance(other, GroupExpr):
            return NotImplemented
        if self.unclassified is not None or other.unclassified is not None:
            return False
        return self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def render(self) -> str:
        if self.unclassified is not None:
            return "unclassified"
        parts = [f"Z_{t}" for t in self.torsion_parts]
        for m, a in self.localization_parts:
            parts.append(f"Z[1/{m}]" + (f"^{a}" if a > 1 else ""))
        if self.free_rank:
            parts.append("Z" + (f"^{self.free_rank}" if self.free_rank > 1 else ""))
        return " + ".join(parts) if parts else "0"

    __str__ = render

    def __repr__(self):
        return f"GroupExpr({self.render()})"

    def structured(self) -> dict:
        if self.unclassified is not None:
            return {"unclassified": True}
        return {"torsion": list(self.torsion_parts),
                "localizations": [{"base": m, "mult": a}
                                  for m, a in self.localization_parts],
                "free_rank": self.free_rank}

    @classmethod
    def parse(cls, text: str) -> "GroupExpr":
        text = text.strip()
        if text == "0":
            return cls()
        torsion, locs, free = [], [], 0
        for tok in text.split(" + "):
            match = _TOKEN.fullmatch(tok.strip())
            # ASCII digits; orders and bases >= 2, exponents >= 1
            if match is None or any(g and int(g) < least for g, least in zip(
                    match.groups(), (2, 2, 1, 1))):
                raise ValueError(f"cannot parse group expression token {tok!r}")
            order, base, mult, rank = match.groups()
            if order:
                torsion.append(int(order))
            elif base:
                locs.append((int(base), int(mult or 1)))
            else:
                free += int(rank or 1)
        return cls(torsion, locs, free)


class TowerGroup:
    """A stationary direct system: one group and one self-map."""

    __slots__ = ("group", "endo")

    def __init__(self, group: FgAbGroup, endo: GroupHom):
        for side in (endo.domain, endo.codomain):
            if side is not group and (side.ngens != group.ngens
                                      or side.rel != group.rel):
                raise ValueError("endo is not a self-map of the tower group")
        self.group = group
        self.endo = endo

    def power(self, j: int) -> "TowerGroup":
        """The tower of the j-th power of the endomorphism, j >= 0."""
        if j < 0:
            raise ValueError(f"an endomorphism has no power {j}")
        m = IntMatrix.identity(self.group.ngens)
        for _ in range(j):
            m = self.endo.matrix * m
        return TowerGroup(self.group, GroupHom(self.group, self.group, m, check=False))

    def __repr__(self):
        return f"TowerGroup({self.group!r})"


def subquotient_tower(t: TowerGroup, sub: IntMatrix, rel: IntMatrix) -> TowerGroup:
    """The group sub/rel under the self-map induced by t's endomorphism.

    `sub` and `rel` generate (as columns, in t's presentation coordinates)
    self-map-invariant lattices with rel <= sub and t.group.rel <= sub.
    """
    basis = lattice_basis(sub)
    g = FgAbGroup(basis.cols, preimage_lattice(basis, rel))
    lifted = solve_matrix(basis.hstack(rel), t.endo.matrix * basis)
    if lifted is None:
        raise NotACochainMap("sublattice is not invariant under the self-map")
    endo_m = lifted.submatrix(range(basis.cols), range(lifted.cols))
    return TowerGroup(g, GroupHom(g, g, endo_m))


def eventual_restriction(t: TowerGroup) -> TowerGroup:
    """Cofinal sub-tower on which the endomorphism is injective.

    That is t itself when t is trivial or its endomorphism injective, else
    the image of the first power whose induced self-map is injective; the
    direct limit is unchanged.
    """
    g, s = t.group, t.endo.matrix
    if g.is_trivial() or t.endo.is_injective():
        return t
    torsion_bits = sum(d.bit_length() for d in g.invariants if d > 1)
    cap = g.ngens + torsion_bits + 4
    power = s
    for _ in range(cap + 1):
        sub = subquotient_tower(t, power.hstack(g.rel), g.rel)
        if sub.endo.is_injective():
            return sub
        power = s * power
    raise Unclassified("eventual image did not stabilize")  # unreachable


def _dies_in_limit(t: TowerGroup, sub: IntMatrix, rel: IntMatrix) -> bool:
    """Whether sub/rel dies in t's limit: at once if sub <= rel already."""
    return solve_matrix(rel, sub) is not None or eventual_restriction(
        subquotient_tower(t, sub, rel)).group.is_trivial()


def _canonical_blocks(g: FgAbGroup, s: IntMatrix):
    """Endo in canonical coordinates, split into torsion/free blocks."""
    b = g.U * s * g.Uinv
    tor_idx = [i for i, d in enumerate(g.invariants) if d > 1]
    free_idx = [i for i, d in enumerate(g.invariants) if d == 0]
    b_tt = b.submatrix(tor_idx, tor_idx)
    b_tf = b.submatrix(tor_idx, free_idx)
    b_ff = b.submatrix(free_idx, free_idx)
    b_ft = b.submatrix(free_idx, tor_idx)
    if not b_ft.is_zero():
        raise Unclassified("torsion maps into the free part")  # impossible for
        # a well-defined endomorphism; guards against presentation bugs
    return [g.invariants[i] for i in tor_idx], b_tt, b_tf, b_ff


def _charpoly(rows):
    """Coefficients of det(xI - B), leading 1 first, for a square int matrix
    given as rows: division-free Berkowitz (Berkowitz, IPL 18, 1984).

    Adding row and column r to the leading r-square block A multiplies the
    polynomial by the lower-triangular Toeplitz matrix whose first column is
    1, -a, -R C, -R A C, ..., -R A^(r-1) C (a the new diagonal entry, R and
    C the new row and column restricted to A).
    """
    poly = [1]
    for r, row in enumerate(rows):
        col = [1, -row[r]]
        v = [rows[i][r] for i in range(r)]
        for _ in range(r):
            col.append(-sum(x * y for x, y in zip(row, v)))
            v = [sum(x * y for x, y in zip(rows[i], v)) for i in range(r)]
        poly = [sum(col[i - j] * poly[j] for j in range(min(i, r) + 1))
                for i in range(r + 2)]
    return poly


def _integer_eigenvalues(b_ff: IntMatrix):
    """(eigenvalue, multiplicity) pairs, or None if the charpoly has an
    irrational factor."""
    rows = b_ff.to_rows()
    poly = _charpoly(rows)
    eigs = []
    zeros = 0
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
        zeros += 1
    if zeros:
        eigs.append((0, zeros))
    # an integer root divides the lowest coefficient, and no eigenvalue
    # exceeds the largest absolute row sum in modulus
    bound = max((sum(map(abs, row)) for row in rows), default=0)
    c = abs(poly[-1])
    cands = set()
    d = 1
    while d <= bound and d * d <= c:
        if c % d == 0:
            cands.add(d)
            if c // d <= bound:
                cands.add(c // d)
        d += 1
    for d in sorted(cands):
        for lam in (d, -d):
            mult = 0
            while len(poly) > 1:
                quot = [poly[0]]
                for a in poly[1:]:
                    quot.append(a + lam * quot[-1])
                if quot.pop():
                    break
                poly = quot
                mult += 1
            if mult:
                eigs.append((lam, mult))
    return eigs if len(poly) == 1 else None


# (ngens, relations, endo matrix) of a tower -> its classification, which
# _classify computes from exactly these three
_limits = {}


def classify(t: TowerGroup) -> GroupExpr:
    """Canonical form of the direct limit, or an unclassified payload.

    After restriction to the eventual image, the free part is split into
    primary blocks grouped by the radical of the eigenvalues.  The
    +-1-eigenvalue quotient is free (the restricted map is unimodular
    there), hence always splits off; a single localized block is a free
    module over its localization regardless of the index of the primary
    splitting.  Only when several distinct radicals interact through the
    finite-index discrepancy is a genuine splitting check required, and a
    failed check yields an unclassified payload rather than a guess.
    The result is kept in `_limits` under the tower's presentation, so that
    a tower with an equal one is not classified again.
    """
    key = t.group.ngens, t.group.rel, t.endo.matrix
    limit = _limits.get(key)
    if limit is None:
        limit = _limits[key] = _classify(t)
    return limit


def _classify(t: TowerGroup) -> GroupExpr:
    rt = eventual_restriction(t)
    g = rt.group
    if g.is_trivial():
        return GroupExpr()
    torsion, _b_tt, _b_tf, b_ff = _canonical_blocks(g, rt.endo.matrix)
    f = b_ff.rows
    if f == 0:
        return GroupExpr(torsion_parts=torsion)
    eigs = _integer_eigenvalues(b_ff)
    if eigs is None:
        return GroupExpr(unclassified=t)
    # group eigenvalues by radical; radical 1 = the free block
    by_rad = {}
    for lam_val, mult in eigs:
        by_rad.setdefault(radical(lam_val), []).append((lam_val, mult))
    blocks = []
    free_rank = 0
    for rad in sorted(by_rad):
        lams = by_rad[rad]
        dim = sum(mult for _, mult in lams)
        powm = IntMatrix.identity(f)
        for lam_val, mult in lams:
            shifted = b_ff - IntMatrix.identity(f).scale(lam_val)
            for _ in range(mult):
                powm = shifted * powm
        kb = kernel_basis(powm)
        if kb.cols != dim:
            return GroupExpr(unclassified=t)
        if rad == 1:
            free_rank += dim
        else:
            blocks.append((rad, dim, kb))
    locs = [(rad, dim) for rad, dim, _ in blocks]
    if len(blocks) >= 2 and not _blocks_split(blocks):
        return GroupExpr(unclassified=t)
    return GroupExpr(torsion_parts=torsion, localization_parts=locs,
                     free_rank=free_rank)


def _blocks_split(blocks) -> bool:
    """Whether several localized primary blocks give a direct-sum limit.

    The discrepancy group between the sum of the blocks and its saturation
    obstructs the splitting only when one of its p-primary generators has
    nontrivial p-denominator in two or more blocks whose base is coprime
    to p; such a coupling cannot be absorbed into any p-divisible summand.

    With U W V = D for the stacked block bases W, the generator of
    invariant factor d is column i of U^-1, and W (V e_i) = d U^-1 e_i
    gives its block coefficients as column i of V over d (unique when W
    has full column rank; otherwise the check fails).
    """
    stacked = blocks[0][2]
    for _, _, kb in blocks[1:]:
        stacked = stacked.hstack(kb)
    s = snf(stacked)
    index = 1
    for d in s.invariant_factors:
        index *= d
    if index == 1:
        return True
    if s.rank < stacked.cols:
        return False
    for i, d in enumerate(s.invariant_factors):
        if d == 1:
            continue
        coeffs = s.V.col(i)
        for p in sympy.factorint(d):
            involved = 0
            col = 0
            for rad, dim, _ in blocks:
                has_p_denom = any(d // math.gcd(c, d) % p == 0
                                  for c in coeffs[col:col + dim])
                if has_p_denom and rad % p != 0:
                    involved += 1
                col += dim
            if involved > 1:
                return False
    return True


def verify_split(t: TowerGroup) -> bool:
    """Exhibit an endo-equivariant section of the torsion/free extension.

    Solves  X*B_ff - B_tt*X = B_tf  (mod d_i on row i) at a finite stage of
    the eventually-restricted tower; a solution certifies that the limit is
    the direct sum reported by classify.
    """
    rt = eventual_restriction(t)
    g = rt.group
    torsion, b_tt, b_tf, b_ff = _canonical_blocks(g, rt.endo.matrix)
    r, f = len(torsion), b_ff.rows
    if r == 0 or f == 0:
        return True
    # unknowns: X (r x f) then Y (r x f) for the modular slack d_i * Y_ij
    nunk = 2 * r * f
    rows = []
    rhs = []
    for i in range(r):
        for j in range(f):
            row = [0] * nunk
            for k in range(f):
                row[i * f + k] += b_ff.entry(k, j)
            for k in range(r):
                row[k * f + j] -= b_tt.entry(i, k)
            row[r * f + i * f + j] = -torsion[i]
            rows.append(row)
            rhs.append(b_tf.entry(i, j))
    return solve(IntMatrix.from_rows(rows), rhs) is not None


def iso_check(a: GroupExpr, b: GroupExpr) -> bool:
    """Abstract isomorphism of two canonical expressions."""
    if a.unclassified is not None or b.unclassified is not None:
        raise Unclassified("iso_check on an unclassified expression")
    return a.key() == b.key()


def limit_les(terms, maps, names=None):
    """Classify each tower and certify exactness of the sequence in the limit.

    `maps[i]` goes from terms[i] to terms[i+1]; each must commute with the
    self-maps.  Exactness at a node holds iff the defect ker/im dies in the
    limit, which the finite stage decides first (see _dies_in_limit).
    """
    if len(maps) != len(terms) - 1:
        raise ValueError("need exactly one map between consecutive terms")
    for i, h in enumerate(maps):
        left = h.matrix * terms[i].endo.matrix
        right = terms[i + 1].endo.matrix * h.matrix
        if solve_matrix(terms[i + 1].group.rel, left - right) is None:
            raise NotACochainMap(f"map {i} does not commute with the self-maps")
    for i in range(1, len(terms) - 1):
        comp = maps[i].compose(maps[i - 1])
        if not comp.is_zero():
            node = names[i] if names else i
            raise ExactnessFailure(f"composite through node {node} is nonzero",
                                   node=node)
    for i, t in enumerate(terms):
        # the defect ker(outgoing)/im(incoming) must die in the limit
        rel = t.group.rel
        ker = (maps[i].kernel_gens() if i < len(maps)
               else IntMatrix.identity(t.group.ngens).hstack(rel))
        im = maps[i - 1].matrix.hstack(rel) if i > 0 else rel
        if not _dies_in_limit(t, ker, im):
            node = names[i] if names else i
            raise ExactnessFailure(f"sequence is not exact at node {node}",
                                   node=node)
    return [classify(t) for t in terms]
