"""Reference dense Smith normal form and column-wise solve.

These are the dense elimination and the column-by-column solver that the
sparse `tilecohom.abelian.snf` and batched `solve_matrix` replaced, kept
verbatim (without the memo cache) so the differential tests can demand
bit-identical transforms, normal forms and solutions.  `smith_solve_matrix`
is the batched `solve_matrix` as it stood before it answered a matrix
without columns by a zero test, verbatim: it takes a Smith form of every
A.  `is_surjective` is the former `GroupHom.is_surjective`, verbatim but
for taking the hom as its argument: the tests now ask whether the cokernel
of the hom's matrix beside the codomain relations is trivial.  Test-only
code.
"""
from __future__ import annotations

from tilecohom.abelian import IntMatrix, SnfResult, snf


def _apply(M, vec):
    """Matrix-vector product as a plain list (the former IntMatrix.apply)."""
    vec = list(vec)
    if len(vec) != M.cols:
        raise ValueError("vector length mismatch")
    out = []
    for r in M.to_rows():
        s = 0
        for x, v in zip(r, vec):
            if x:
                s += x * v
        out.append(s)
    return out


def _row_op(a, u, ui, i, j, q):
    """row_i -= q * row_j on a and u; inverse op tracked on columns of ui."""
    ai, aj = a[i], a[j]
    for k in range(len(ai)):
        ai[k] -= q * aj[k]
    uik, ujk = u[i], u[j]
    for k in range(len(uik)):
        uik[k] -= q * ujk[k]
    for row in ui:
        row[j] += q * row[i]


def _col_op(a, v, vi, i, j, q):
    """col_i -= q * col_j on a and v; inverse tracked on rows of vi."""
    for row in a:
        row[i] -= q * row[j]
    for row in v:
        row[i] -= q * row[j]
    vij, vii = vi[j], vi[i]
    for k in range(len(vij)):
        vij[k] += q * vii[k]


def dense_snf(A: IntMatrix) -> SnfResult:
    """Smith normal form with deterministic pivoting.

    Pivot: smallest nonzero absolute value in the working submatrix, ties
    broken by lexicographically smallest (row, col).  Results are memoized;
    the same relation and cocycle matrices are decomposed many times over.
    """
    m, n = A.rows, A.cols
    a = A.to_rows()
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    ui = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    vi = [[int(i == j) for j in range(n)] for i in range(n)]
    t = 0
    while t < m and t < n:
        best = None
        for i in range(t, m):
            ai = a[i]
            for j in range(t, n):
                x = ai[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if best[0] == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
            u[t], u[pi] = u[pi], u[t]
            for row in ui:
                row[t], row[pi] = row[pi], row[t]
        if pj != t:
            for row in a:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
            vi[t], vi[pj] = vi[pj], vi[t]
        if a[t][t] < 0:
            for k in range(n):
                a[t][k] = -a[t][k]
            for k in range(m):
                u[t][k] = -u[t][k]
            for row in ui:
                row[t] = -row[t]
        d = a[t][t]
        dirty = False
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // d
                if q:
                    _row_op(a, u, ui, i, t, q)
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if a[t][j]:
                q = a[t][j] // d
                if q:
                    _col_op(a, v, vi, j, t, q)
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility of the remaining block by the pivot
        offender = None
        for i in range(t + 1, m):
            ai = a[i]
            for j in range(t + 1, n):
                if ai[j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            _row_op(a, u, ui, t, offender, -1)  # row_t += row_offender
            continue
        t += 1
    diag = [a[i][i] for i in range(min(m, n))]
    inv = [d for d in diag if d != 0]
    flat = lambda rows, c: [x for r in rows for x in r] if rows else []
    return SnfResult(IntMatrix(m, m, flat(u, m)), IntMatrix(m, n, flat(a, n)),
                     IntMatrix(n, n, flat(v, n)), inv,
                     IntMatrix(m, m, flat(ui, m)), IntMatrix(n, n, flat(vi, n)))


def dense_solve_matrix(A: IntMatrix, B: IntMatrix) -> IntMatrix | None:
    """X with A X = B, columnwise; None if any column is unsolvable."""
    cols = []
    s = dense_snf(A)
    for j in range(B.cols):
        y = _apply(s.U, B.col(j))
        x = [0] * A.cols
        ok = True
        for i in range(A.rows):
            d = s.D.entry(i, i) if i < A.cols else 0
            if d == 0:
                if y[i] != 0:
                    ok = False
                    break
            else:
                if y[i] % d:
                    ok = False
                    break
                x[i] = y[i] // d
        if not ok:
            return None
        cols.append(_apply(s.V, x))
    return IntMatrix(A.cols, len(cols),
                     [c[i] for i in range(A.cols) for c in cols])


def smith_solve_matrix(A: IntMatrix, B: IntMatrix) -> IntMatrix | None:
    """X with A X = B; None if any column of B is unsolvable.

    With U A V = D: Y = U B, Z = D^-1 Y row by row (exactly, or not at
    all), X = V Z.
    """
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


def is_surjective(self) -> bool:
    stacked = self.matrix.hstack(self.codomain.rel)
    s = snf(stacked)
    return len([d for d in s.invariant_factors if d != 0]) == self.codomain.ngens \
        and all(abs(d) == 1 for d in s.invariant_factors)
