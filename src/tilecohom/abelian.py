"""Exact integer linear algebra.

Matrices over the integers with Smith normal form, kernels, cokernels,
and presentations of finitely generated abelian groups together with
homomorphisms between them.  Everything is exact: entries are Python
integers, so there is no overflow at any size.
"""
from __future__ import annotations

import functools
import operator

from .errors import NotWellDefined


def _check_shape(rows, cols):
    if rows < 0 or cols < 0:
        raise ValueError(f"negative matrix shape {rows}x{cols}")


class IntMatrix:
    """Immutable integer matrix stored as sparse rows.

    `_r` holds one `{column: value}` dict per row with the nonzero entries
    only.  No stored row holds a zero, and no row is mutated once the
    matrix is built, so rows may be shared between matrices; code that
    eliminates on a row copies it first.  Equal matrices hash equal
    whatever the key order of their rows.
    """

    __slots__ = ("rows", "cols", "_r", "_hash")

    def __init__(self, rows, cols, entries):
        _check_shape(rows, cols)
        entries = [operator.index(x) for x in entries]
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self._r = tuple({j: x for j, x in enumerate(entries[i * cols:(i + 1) * cols])
                         if x} for i in range(rows))
        self._hash = None

    @classmethod
    def _of_rows(cls, rows, cols, r):
        """Trusted constructor: `r` is a tuple of `rows` dicts with nonzero
        int values at columns 0..cols-1, built inside this module."""
        self = object.__new__(cls)
        self.rows = rows
        self.cols = cols
        self._r = r
        self._hash = None
        return self

    @classmethod
    def from_rows(cls, rows_of_entries):
        rows = list(rows_of_entries)
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        return cls._of_rows(len(rows), ncols, tuple(
            {j: x for j, x in enumerate(map(operator.index, r)) if x} for r in rows))

    @classmethod
    def from_entries(cls, rows, cols, entries):
        """rows x cols matrix from sparse `{(i, j): value}` entries, zero
        elsewhere; every value must be an int (`operator.index`)."""
        _check_shape(rows, cols)
        out = [{} for _ in range(rows)]
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i}, {j}) outside {rows}x{cols}")
            v = operator.index(v)
            if v:
                out[i][j] = v
        return cls._of_rows(rows, cols, tuple(out))

    @classmethod
    def zeros(cls, rows, cols):
        _check_shape(rows, cols)
        return cls._of_rows(rows, cols, ({},) * rows)

    @classmethod
    def identity(cls, n):
        _check_shape(n, n)
        return cls._of_rows(n, n, tuple({i: 1} for i in range(n)))

    @classmethod
    def diagonal(cls, diag, rows=None, cols=None):
        diag = list(diag)
        rows = len(diag) if rows is None else rows
        cols = len(diag) if cols is None else cols
        entries = {(i, i): d for i, d in enumerate(diag) if i < rows and i < cols}
        return cls.from_entries(rows, cols, entries)

    @property
    def sparse_rows(self):
        """The `{column: nonzero value}` dict of each row; read only."""
        return self._r

    def _row_dict(self, i):
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} outside {self.rows}x{self.cols}")
        return self._r[i]

    def entry(self, i, j):
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside {self.rows}x{self.cols}")
        return self._row_dict(i).get(j, 0)

    def row(self, i):
        r = self._row_dict(i)
        return [r.get(j, 0) for j in range(self.cols)]

    def col(self, j):
        return [self.entry(i, j) for i in range(self.rows)]

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def transpose(self):
        out = [{} for _ in range(self.cols)]
        for i, r in enumerate(self._r):
            for j, x in r.items():
                out[j][i] = x
        return IntMatrix._of_rows(self.cols, self.rows, tuple(out))

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        c = self.cols
        return IntMatrix._of_rows(self.rows, c + other.cols, tuple(
            {**a, **{j + c: x for j, x in b.items()}} if b else a
            for a, b in zip(self._r, other._r)))

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("col mismatch")
        return IntMatrix._of_rows(self.rows + other.rows, self.cols,
                                  self._r + other._r)

    def submatrix(self, row_idx, col_idx):
        col_idx = list(col_idx)
        if not all(0 <= j < self.cols for j in col_idx):
            raise IndexError(f"column outside {self.rows}x{self.cols}")
        out = tuple({k: r[j] for k, j in enumerate(col_idx) if j in r}
                    for r in map(self._row_dict, row_idx))
        return IntMatrix._of_rows(len(out), len(col_idx), out)

    def select_columns(self, col_idx):
        return self.submatrix(range(self.rows), col_idx)

    def __mul__(self, other):
        """Product over the nonzeros of both factors.  A row of self with
        one entry 1 shares the matching row of other.  Otherwise the output
        row starts as a copy of the first nonempty row of other it draws
        on, and later rows with coefficient 1 or -1 are added without a
        multiply; no row of either factor is changed."""
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        b = other._r
        out = []
        for arow in self._r:
            if len(arow) > 1:
                acc = None
                for k, x in arow.items():
                    brow = b[k]
                    if not brow:
                        continue
                    if acc is None:
                        acc = dict(brow) if x == 1 else {
                            j: x * y for j, y in brow.items()}
                        get = acc.get
                    elif x == 1:
                        for j, y in brow.items():
                            acc[j] = get(j, 0) + y
                    elif x == -1:
                        for j, y in brow.items():
                            acc[j] = get(j, 0) - y
                    else:
                        for j, y in brow.items():
                            acc[j] = get(j, 0) + x * y
                if acc is None:
                    acc = {}
                elif 0 in acc.values():
                    acc = {j: y for j, y in acc.items() if y}
            elif arow:
                (k, x), = arow.items()
                acc = b[k] if x == 1 else {j: x * y for j, y in b[k].items()}
            else:
                acc = arow
            out.append(acc)
        return IntMatrix._of_rows(self.rows, other.cols, tuple(out))

    def scale(self, c):
        c = operator.index(c)
        if not c:
            return IntMatrix.zeros(self.rows, self.cols)
        return IntMatrix._of_rows(self.rows, self.cols, tuple(
            {j: c * x for j, x in r.items()} for r in self._r))

    def __add__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        out = []
        for a, b in zip(self._r, other._r):
            if b:
                a = dict(a)
                _axpy(a, b, 1)
            out.append(a)
        return IntMatrix._of_rows(self.rows, self.cols, tuple(out))

    def __sub__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows \
            and self.cols == other.cols and self._r == other._r

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.rows, self.cols,
                               tuple(frozenset(r.items()) for r in self._r)))
        return self._hash

    def is_zero(self):
        return not any(self._r)

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"


class SnfResult:
    """Smith normal form U*A*V = D with unimodular U, V."""

    __slots__ = ("U", "D", "V", "invariant_factors", "Uinv", "Vinv")

    def __init__(self, U, D, V, invariant_factors, Uinv, Vinv):
        self.U = U
        self.D = D
        self.V = V
        self.invariant_factors = list(invariant_factors)
        self.Uinv = Uinv
        self.Vinv = Vinv

    @property
    def rank(self):
        return len(self.invariant_factors)


def _axpy(dst, src, c):
    """dst += c * src on sparse {index: value} vectors; c != 0."""
    get = dst.get
    for k, x in src.items():
        y = get(k, 0) + c * x
        if y:
            dst[k] = y
        else:
            del dst[k]


@functools.lru_cache(maxsize=128)
def snf(A: IntMatrix) -> SnfResult:
    """Smith normal form with deterministic pivoting.

    Pivot: smallest nonzero absolute value in the working submatrix, ties
    broken by lexicographically smallest (row, col).  The elimination is
    sparse: copies of A's rows, rows of U and V^-1 and columns of V and
    U^-1 are {index: value} dicts, so each step touches only nonzeros, and
    they become the results' rows (V and U^-1 by a transpose).  Rows at
    or below step t have no entries left of column t, so the working
    submatrix is just rows t.. of `a`.  Results are memoized; the same
    relation and cocycle matrices are decomposed many times over.
    """
    m, n = A.rows, A.cols
    a = [dict(r) for r in A._r]         # rows of A
    u = [{i: 1} for i in range(m)]      # rows of U
    ui = [{i: 1} for i in range(m)]     # columns of U^-1
    v = [{j: 1} for j in range(n)]      # columns of V
    vi = [{j: 1} for j in range(n)]     # rows of V^-1
    t = 0
    while t < m and t < n:
        best = None
        for i in range(t, m):
            for j, x in a[i].items():
                key = (abs(x), i, j)
                if best is None or key < best:
                    best = key
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
            ui[t], ui[pi] = ui[pi], ui[t]
        if pj != t:
            for i in range(t, m):
                row = a[i]
                x, y = row.pop(t, 0), row.pop(pj, 0)
                if y:
                    row[t] = y
                if x:
                    row[pj] = x
            v[t], v[pj] = v[pj], v[t]
            vi[t], vi[pj] = vi[pj], vi[t]
        at = a[t]
        if at[t] < 0:
            for vec in (at, u[t], ui[t]):
                for k in vec:
                    vec[k] = -vec[k]
        d = at[t]
        dirty = False
        for i in range(t + 1, m):
            ai = a[i]
            if t in ai:
                q = ai[t] // d
                if q:
                    _axpy(ai, at, -q)
                    _axpy(u[i], u[t], -q)
                    _axpy(ui[t], ui[i], q)
                if t in ai:
                    dirty = True
        col_t = [(i, a[i][t]) for i in range(t, m) if t in a[i]]
        for j in [j for j in at if j > t]:
            q = at[j] // d
            if q:
                for i, x in col_t:
                    ai = a[i]
                    y = ai.get(j, 0) - q * x
                    if y:
                        ai[j] = y
                    else:
                        del ai[j]
                _axpy(v[j], v[t], -q)
                _axpy(vi[t], vi[j], q)
            if j in at:
                dirty = True
        if dirty:
            continue
        if d != 1:
            # enforce divisibility of the remaining block by the pivot
            offender = next((i for i in range(t + 1, m)
                             if any(x % d for x in a[i].values())), None)
            if offender is not None:
                _axpy(at, a[offender], 1)        # row_t += row_offender
                _axpy(u[t], u[offender], 1)
                _axpy(ui[offender], ui[t], -1)
                continue
        t += 1
    inv = [a[i][i] for i in range(t)]
    return SnfResult(IntMatrix._of_rows(m, m, tuple(u)),
                     IntMatrix._of_rows(m, n, tuple(a)),
                     IntMatrix._of_rows(n, n, tuple(v)).transpose(), inv,
                     IntMatrix._of_rows(m, m, tuple(ui)).transpose(),
                     IntMatrix._of_rows(n, n, tuple(vi)))


def rank(A: IntMatrix) -> int:
    return snf(A).rank


def kernel_basis(A: IntMatrix) -> IntMatrix:
    """Basis of the saturated integer kernel lattice, as columns."""
    s = snf(A)
    r = s.rank
    return s.V.select_columns(range(r, A.cols))


def lattice_basis(A: IntMatrix) -> IntMatrix:
    """Basis (columns) of the column lattice of A itself."""
    s = snf(A)
    inv, r = s.invariant_factors, s.rank
    return IntMatrix._of_rows(A.rows, r, tuple(
        {j: inv[j] * x for j, x in row.items() if j < r} for row in s.Uinv._r))


def solve(A: IntMatrix, b) -> list | None:
    """One integer solution x of A x = b, or None."""
    b = list(b)
    x = solve_matrix(A, IntMatrix(len(b), 1, b))
    return None if x is None else x.col(0)


def solve_matrix(A: IntMatrix, B: IntMatrix) -> IntMatrix | None:
    """X with A X = B; None if any column of B is unsolvable.

    With U A V = D: Y = U B, Z = D^-1 Y row by row (exactly, or not at
    all), X = V Z.  With no columns in A only B = 0 is solvable, by the
    empty X, and no Smith form is taken.
    """
    if A.cols == 0 and B.rows == A.rows:
        return IntMatrix.zeros(0, B.cols) if B.is_zero() else None
    s = snf(A)
    y = (s.U * B)._r
    r = s.rank
    if any(y[r:]):
        return None
    z = []
    for row, d in zip(y, s.invariant_factors):
        if d != 1:
            if any(x % d for x in row.values()):
                return None
            row = {j: x // d for j, x in row.items()}
        z.append(row)
    z.extend([{}] * (A.cols - r))
    return s.V * IntMatrix._of_rows(A.cols, B.cols, tuple(z))


def lattice_subset(A: IntMatrix, B: IntMatrix) -> bool:
    """Is every column of A in the column lattice of B?"""
    return solve_matrix(B, A) is not None


def preimage_lattice(M: IntMatrix, L: IntMatrix) -> IntMatrix:
    """Generators (columns) of {x : M x in column-lattice(L)}."""
    if L.cols == 0:
        return kernel_basis(M)
    k = kernel_basis(M.hstack(L))
    return k.submatrix(range(M.cols), range(k.cols))


def is_primitive_matrix(A: IntMatrix) -> bool:
    """Does some power of the nonnegative square matrix A have only positive
    entries?

    Boolean reachability on the support of A: reach[i] is the bit set of
    j with a path of exactly k steps from i to j.  By Wielandt's bound,
    if any power is positive then the power (n-1)^2 + 1 is; the walk also
    stops once the reachability pattern repeats.
    """
    n = A.rows
    full = (1 << n) - 1
    succ = [sum(1 << j for j, x in r.items() if x > 0) for r in A._r]
    reach, seen = succ, set()
    for _ in range((n - 1) ** 2):
        if all(r == full for r in reach):
            return True
        key = tuple(reach)
        if key in seen:
            return False
        seen.add(key)
        nxt = []
        for r in reach:
            acc = 0
            while r:
                low = r & -r
                acc |= succ[low.bit_length() - 1]
                r ^= low
            nxt.append(acc)
        reach = nxt
    return all(r == full for r in reach)


class FgAbGroup:
    """Finitely generated abelian group presented as Z^ngens / col(rel).

    Canonical coordinates are y = U x where U comes from the SNF of the
    relation matrix; coordinate i carries invariant d_i (d_i = 0 for a
    free coordinate).  `ambient_lift`, when present, sends presentation
    generators to vectors of an ambient cochain space.  `_coords` is set by
    complexes.cohomology, which also reads it back: the data that expresses
    an ambient cocycle in the generators.
    """

    __slots__ = ("ngens", "rel", "invariants", "U", "Uinv",
                 "free_rank", "torsion", "ambient_lift", "_coords")

    def __init__(self, ngens, rel=None, ambient_lift=None):
        self.ngens = ngens
        self.rel = rel if rel is not None else IntMatrix.zeros(ngens, 0)
        if self.rel.rows != ngens:
            raise ValueError("relation matrix has wrong height")
        s = snf(self.rel)
        inv = s.invariant_factors + [0] * (ngens - s.rank)
        self.invariants = inv
        self.U = s.U
        self.Uinv = s.Uinv
        self.free_rank = sum(1 for d in inv if d == 0)
        self.torsion = tuple(sorted(d for d in inv if d > 1))
        self.ambient_lift = ambient_lift
        self._coords = None

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def __repr__(self):
        return f"FgAbGroup(free_rank={self.free_rank}, torsion={list(self.torsion)})"


class GroupHom:
    """Homomorphism between presented groups, given on presentation generators."""

    __slots__ = ("domain", "codomain", "matrix")

    def __init__(self, domain: FgAbGroup, codomain: FgAbGroup, matrix: IntMatrix,
                 check=True):
        if matrix.rows != codomain.ngens or matrix.cols != domain.ngens:
            raise ValueError("hom matrix shape mismatch")
        self.domain = domain
        self.codomain = codomain
        self.matrix = matrix
        if check and domain.rel.cols:
            image_of_rel = matrix * domain.rel
            if solve_matrix(codomain.rel, image_of_rel) is None:
                raise NotWellDefined(
                    "matrix does not map relations into relations",
                    witness=image_of_rel)

    @classmethod
    def zero(cls, domain, codomain):
        return cls(domain, codomain, IntMatrix.zeros(codomain.ngens, domain.ngens),
                   check=False)

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other."""
        a, b = other.codomain, self.domain
        if a is not b and (a.ngens != b.ngens or a.rel != b.rel):
            raise ValueError("composition domain mismatch")
        return GroupHom(other.domain, self.codomain, self.matrix * other.matrix,
                        check=False)

    def is_zero(self) -> bool:
        return solve_matrix(self.codomain.rel, self.matrix) is not None

    def kernel_gens(self) -> IntMatrix:
        """Generators (columns, in domain presentation coords) of the kernel."""
        pre = preimage_lattice(self.matrix, self.codomain.rel)
        return pre.hstack(self.domain.rel)

    def is_injective(self) -> bool:
        return lattice_subset(self.kernel_gens(), self.domain.rel)


def induced_hom(f_matrix: IntMatrix, dom: FgAbGroup, cod: FgAbGroup) -> GroupHom:
    """Construct and verify the induced homomorphism on presentations."""
    return GroupHom(dom, cod, f_matrix, check=True)


def cokernel(A: IntMatrix) -> FgAbGroup:
    """Z^rows / column-lattice(A)."""
    return FgAbGroup(A.rows, A)
