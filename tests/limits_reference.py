"""Reference sympy integer eigenvalues, radical and splitting check, and
the limit layer without its finite-stage shortcuts.

These are the sympy-based `_integer_eigenvalues`, `radical` and
`_blocks_split` that the Berkowitz characteristic polynomial with a bounded
integer-root search, the trial-division radical and the SNF-coefficient
splitting check in `tilecohom.limits` replaced, and the `eventual_restriction`
(which always restricts to an image) and `limit_les` (which builds a defect
tower at every node) that the finite-stage tests replaced, kept verbatim so
the differential tests can compare the two.  Test-only code.
"""
from __future__ import annotations

import sympy

from tilecohom import limits
from tilecohom.abelian import IntMatrix, snf, solve_matrix
from tilecohom.errors import ExactnessFailure, NotACochainMap, Unclassified
from tilecohom.limits import GroupExpr, TowerGroup, subquotient_tower


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


def eventual_restriction(t: TowerGroup) -> TowerGroup:
    """Cofinal sub-tower on which the endomorphism is injective.

    Iterates the endomorphism, restricting to the image subgroup, until the
    induced self-map is injective; the direct limit is unchanged.
    """
    g, s = t.group, t.endo.matrix
    if g.ngens == 0:
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


def classify(t: TowerGroup) -> GroupExpr:
    """The classification as `limits.classify` made it on the reference's
    restriction: `limits._classify` keeps that tower as it is, because its
    endomorphism is injective.  Nothing is memoised.  An unclassified
    payload carries the restricted tower, so compare renderings."""
    return limits._classify(eventual_restriction(t))


def limit_les(terms, maps, names=None):
    """Classify each tower and certify exactness of the sequence in the limit.

    `maps[i]` goes from terms[i] to terms[i+1]; each must commute with the
    self-maps.  Exactness at an interior node holds iff the defect group
    ker/im dies in the limit (its eventual image is trivial).
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
        defect = subquotient_tower(t, ker, im)
        if not eventual_restriction(defect).group.is_trivial():
            node = names[i] if names else i
            raise ExactnessFailure(f"sequence is not exact at node {node}",
                                   node=node)
    return [classify(t) for t in terms]
