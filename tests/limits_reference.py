"""Reference sympy integer eigenvalues and radical.

These are the sympy-based `_integer_eigenvalues` and `radical` that the
Berkowitz characteristic polynomial with a bounded integer-root search and
the trial-division radical in `tilecohom.limits` replaced, kept verbatim so
the differential tests can compare the two.  Test-only code.
"""
from __future__ import annotations

import sympy

from tilecohom.abelian import IntMatrix


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
