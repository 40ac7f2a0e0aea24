"""Reference dense IntMatrix, and the former sparse product.

The tuple-of-tuples `IntMatrix` that the sparse row-dict class in
`tilecohom.abelian` replaced, kept verbatim so the differential tests in
`test_intmatrix_differential.py` can demand the same dense entries from
every public method and operator.  `sparse_product` is the sparse class's
product before its unit-coefficient rows (it multiplied every
coefficient), kept verbatim but for the class name, so the same tests can
demand identical row dicts in the same key order.  Test-only code.
"""
from __future__ import annotations

import operator
from itertools import compress

from tilecohom.abelian import IntMatrix as Sparse


def sparse_product(self, other):
    """Product over the nonzeros of both factors.  A row of self with
    one entry 1 shares the matching row of other."""
    if not isinstance(other, Sparse):
        return NotImplemented
    if self.cols != other.rows:
        raise ValueError("shape mismatch in product")
    b = other._r
    out = []
    for arow in self._r:
        if len(arow) > 1:
            acc = {}
            get = acc.get
            for k, x in arow.items():
                for j, y in b[k].items():
                    acc[j] = get(j, 0) + x * y
            if 0 in acc.values():
                acc = {j: y for j, y in acc.items() if y}
        elif arow:
            (k, x), = arow.items()
            acc = b[k] if x == 1 else {j: x * y for j, y in b[k].items()}
        else:
            acc = arow
        out.append(acc)
    return Sparse._of_rows(self.rows, other.cols, tuple(out))


class IntMatrix:
    """Immutable integer matrix, row-major."""

    __slots__ = ("rows", "cols", "_r")

    def __init__(self, rows, cols, entries):
        entries = [int(x) for x in entries]
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self._r = tuple(tuple(entries[i * cols:(i + 1) * cols]) for i in range(rows))

    @classmethod
    def _of_rows(cls, rows, cols, r):
        """Trusted constructor: `r` is a tuple of `rows` tuples of `cols`
        Python ints, built inside this module."""
        self = object.__new__(cls)
        self.rows = rows
        self.cols = cols
        self._r = r
        return self

    @classmethod
    def from_rows(cls, rows_of_entries):
        rows = list(rows_of_entries)
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        flat = [x for r in rows for x in r]
        return cls(len(rows), ncols, flat)

    @classmethod
    def from_entries(cls, rows, cols, entries):
        """rows x cols matrix from sparse `{(i, j): value}` entries, zero
        elsewhere; every value must be an int (`operator.index`)."""
        out = [[0] * cols for _ in range(rows)]
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise IndexError(f"entry ({i}, {j}) outside {rows}x{cols}")
            out[i][j] = operator.index(v)
        return cls._of_rows(rows, cols, tuple(map(tuple, out)))

    @classmethod
    def zeros(cls, rows, cols):
        return cls._of_rows(rows, cols, ((0,) * cols,) * rows)

    @classmethod
    def identity(cls, n):
        return cls._of_rows(n, n, tuple(tuple(int(i == j) for j in range(n))
                                        for i in range(n)))

    @classmethod
    def diagonal(cls, diag, rows=None, cols=None):
        diag = list(diag)
        rows = len(diag) if rows is None else rows
        cols = len(diag) if cols is None else cols
        m = [[0] * cols for _ in range(rows)]
        for i, d in enumerate(diag):
            if i < rows and i < cols:
                m[i][i] = d
        return cls.from_rows(m)

    def entry(self, i, j):
        return self._r[i][j]

    def row(self, i):
        return list(self._r[i])

    def col(self, j):
        return [r[j] for r in self._r]

    def to_rows(self):
        return [list(r) for r in self._r]

    def transpose(self):
        return IntMatrix._of_rows(self.cols, self.rows, tuple(zip(*self._r))
                                  if self.rows else ((),) * self.cols)

    def hstack(self, other):
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        return IntMatrix._of_rows(self.rows, self.cols + other.cols,
                                  tuple(a + b for a, b in zip(self._r, other._r)))

    def vstack(self, other):
        if self.cols != other.cols:
            raise ValueError("col mismatch")
        return IntMatrix._of_rows(self.rows + other.rows, self.cols,
                                  self._r + other._r)

    def submatrix(self, row_idx, col_idx):
        col_idx = list(col_idx)
        return IntMatrix._of_rows(len(row_idx), len(col_idx),
                                  tuple(tuple(self._r[i][j] for j in col_idx)
                                        for i in row_idx))

    def select_columns(self, col_idx):
        return self.submatrix(range(self.rows), col_idx)

    def __mul__(self, other):
        """Product that visits only the nonzeros of both factors; the
        coboundaries and cellular maps multiplied here are mostly zero."""
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        p = other.cols
        pidx = range(p)
        bnz = [[(j, br[j]) for j in compress(pidx, br)] for br in other._r]
        kidx = range(self.cols)
        out = []
        for arow in self._r:
            acc = [0] * p
            for k in compress(kidx, arow):
                x = arow[k]
                for j, y in bnz[k]:
                    acc[j] += x * y
            out.append(tuple(acc))
        return IntMatrix._of_rows(self.rows, p, tuple(out))

    def scale(self, c):
        return IntMatrix(self.rows, self.cols, [c * x for r in self._r for x in r])

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return IntMatrix._of_rows(self.rows, self.cols,
                                  tuple(tuple(a + b for a, b in zip(ra, rb))
                                        for ra, rb in zip(self._r, other._r)))

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self._r == other._r \
            and self.rows == other.rows and self.cols == other.cols

    def __hash__(self):
        return hash((self.rows, self.cols, self._r))

    def is_zero(self):
        return all(x == 0 for r in self._r for x in r)

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"
