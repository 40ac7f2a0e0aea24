"""Reference sympy integer eigenvalues, radical and splitting check.

These are the sympy-based `_integer_eigenvalues`, `radical` and
`_blocks_split` that the Berkowitz characteristic polynomial with a bounded
integer-root search, the trial-division radical and the SNF-coefficient
splitting check in `tilecohom.limits` replaced, kept verbatim so the
differential tests can compare the two.  Test-only code.
"""
from __future__ import annotations

import sympy

from tilecohom.abelian import IntMatrix, snf


def radical(n: int) -> int:
    """Product of the distinct primes of |n| (radical of 0 or 1 is itself)."""
    n = abs(n)
    if n <= 1:
        return n
    out = 1
    for p in sympy.factorint(n):
        out *= p
    return out


def _integer_eigenvalues(b_ff: IntMatrix):
    """(eigenvalue, multiplicity) pairs, or None if the charpoly has an
    irrational factor."""
    m = sympy.Matrix(b_ff.to_rows())
    lam = sympy.symbols("lam")
    poly = m.charpoly(lam)
    _, factors = sympy.factor_list(poly.as_expr())
    eigs = []
    for fac, mult in factors:
        p = sympy.Poly(fac, lam)
        if p.degree() == 0:
            continue
        if p.degree() != 1:
            return None
        a1, a0 = p.all_coeffs()
        if a1 not in (1, -1) or int(a0) % int(a1):
            return None
        eigs.append((-int(a0) // int(a1), int(mult)))
    return eigs


def _blocks_split(blocks) -> bool:
    """Whether several localized primary blocks give a direct-sum limit.

    The discrepancy group between the sum of the blocks and its saturation
    obstructs the splitting only when one of its p-primary generators has
    nontrivial p-denominator in two or more blocks whose base is coprime
    to p; such a coupling cannot be absorbed into any p-divisible summand.
    """
    stacked = blocks[0][2]
    for _, _, kb in blocks[1:]:
        stacked = stacked.hstack(kb)
    s = snf(stacked)
    index = 1
    for d in s.invariant_factors:
        index *= abs(d)
    if abs(index) == 1:
        return True
    w = sympy.Matrix(stacked.to_rows())
    # work inside the saturation: generators of the discrepancy group are
    # the canonical coordinates with invariant factor > 1
    sat = sympy.Matrix(s.Uinv.select_columns(range(s.rank)).to_rows())
    for i, d in enumerate(s.invariant_factors):
        d = abs(d)
        if d <= 1:
            continue
        gen = sat[:, i]
        coeffs, params = w.gauss_jordan_solve(gen)
        if params:
            return False
        for p in sympy.factorint(d):
            involved = 0
            col = 0
            for rad, dim, _ in blocks:
                block_coeffs = coeffs[col:col + dim, 0]
                has_p_denom = any(sympy.Rational(c).q % p == 0
                                  for c in block_coeffs)
                if has_p_denom and rad % p != 0:
                    involved += 1
                col += dim
            if involved > 1:
                return False
    return True
