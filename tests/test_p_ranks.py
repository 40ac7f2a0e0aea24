"""p-rank oracle: dimensions of G/pG and G (x) Q of every classified limit.

Tensoring commutes with direct limits, so for a tower G -> G -> ... under
an endomorphism E, with G = Z^n / span(rel), the limit G_inf has

    dim_Fp(G_inf / p G_inf) = eventual rank of E on (Z/p)^n / span_p(rel),
    dim_Q(G_inf (x) Q)      = eventual rank of E on Q^n / span_Q(rel).

The eventual image is the decreasing chain U_0 = F^n, U_(k+1) = E U_k +
span(rel), which stops once two terms have one dimension.  A canonical
form torsion + Z[1/m]^a + ... + Z^b predicts both counts: the free rank,
plus the multiplicities of the localizations whose base p does not divide,
plus, at p, the torsion orders that p divides (over Q the torsion drops
out).  p-ranks are invariants of torsion-free groups of finite rank up to
quasi-isomorphism (Arnold, LNM 931).  The elimination below is Gaussian,
mod p and over Fraction, on plain lists: no `snf`, and nothing of
`classify` but its answer.  Each answer is checked at 2, 3, 5 and 7 and at
every prime of its localization bases and torsion orders.

Cases: every tower that `classify` sees on `test_eigen_differential.CASES`
(the catalog spaces, quotients and path words), the quotient towers of
`catalog_factor_maps`, the `tm`/`pd` spaces of the 1..40 grid and
hypothesis towers with torsion.  Unclassified answers are skipped.

What it cannot see, since its conditions are necessary only:
- the non-split pairs: an unclassified tm:k,l limit has the p-ranks of the
  closed form Z[1/a] + Z[1/b] + Z that would be the wrong answer;
- Z[1/2] + Z[1/3] against Z[1/6] + Z: at every prime and over Q both
  count alike (`test_blind_to_products_of_bases`);
- two rank-1 localizations glued at index 2, Z[1/a]u + Z[1/b]v + Z(u+v)/2
  with a, b odd: a subgroup of finite index has the same p-ranks, so the
  gluing reads as Z[1/a] + Z[1/b].
"""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from test_eigen_differential import CASES, run_case
from tilecohom import catalog, complexes, limits, subst1d
from tilecohom.abelian import FgAbGroup, GroupHom, IntMatrix
from tilecohom.catalog import catalog_factor_maps
from tilecohom.complexes import _quotient_cohomology_tower, quotient_complex
from tilecohom.limits import GroupExpr, TowerGroup, classify

SMALL_PRIMES = (2, 3, 5, 7)


def _primes(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def _echelon(vectors, p):
    """A reduced row-echelon basis of the span of `vectors` over F_p, or
    over Q when p is 0, as {pivot: vector with 1 at the pivot}."""
    def norm(x):
        return x % p if p else x

    basis = {}
    for v in vectors:
        v = [norm(Fraction(x) if not p else x) for x in v]
        for piv, b in basis.items():
            if v[piv]:
                c = v[piv]
                v = [norm(x - c * y) for x, y in zip(v, b)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            continue
        inv = pow(v[piv], -1, p) if p else 1 / v[piv]
        v = [norm(x * inv) for x in v]
        for q, b in basis.items():
            if b[piv]:
                c = b[piv]
                basis[q] = [norm(x - c * y) for x, y in zip(b, v)]
        basis[piv] = v
    return basis


def measured_rank(t: TowerGroup, p: int) -> int:
    """Eventual rank of the endomorphism on F_p^n, or Q^n when p is 0,
    modulo the relations."""
    e = t.endo.matrix.to_rows()
    n = t.group.ngens
    rel = t.group.rel.transpose().to_rows()
    span = [[int(i == j) for j in range(n)] for i in range(n)]
    while True:
        image = [[sum(x * y for x, y in zip(row, v)) for row in e]
                 for v in span]
        nxt = list(_echelon(image + rel, p).values())
        if len(nxt) == len(span):
            return len(span) - len(_echelon(rel, p))
        span = nxt


def predicted_rank(g: GroupExpr, p: int) -> int:
    return g.free_rank + sum(a for m, a in g.localization_parts
                             if not p or m % p) \
        + sum(1 for d in g.torsion_parts if p and d % p == 0)


def primes_of(g: GroupExpr):
    ps = set(SMALL_PRIMES)
    for n in [m for m, _ in g.localization_parts] + g.torsion_parts:
        ps.update(_primes(n))
    return sorted(ps)


def disagreements(t: TowerGroup, g: GroupExpr):
    """The fields (a prime, or 0 for Q) where g's counts are not t's."""
    return [p for p in [0] + primes_of(g)
            if measured_rank(t, p) != predicted_rank(g, p)]


def assert_ranks(t: TowerGroup, g: GroupExpr):
    if g.unclassified is None:
        assert disagreements(t, g) == [], (g, t)


def recorded(monkeypatch, compute):
    """Every (tower, answer) that classify gives while compute() runs."""
    seen = []

    def recording(t):
        g = classify(t)
        seen.append((t, g))
        return g

    for module in (catalog, complexes, limits, subst1d):
        monkeypatch.setattr(module, "classify", recording)
    compute()
    monkeypatch.undo()
    return seen


# ---- the catalog ----

@pytest.mark.parametrize("kind,arg", CASES, ids=[str(a) for _, a in CASES])
def test_catalog_limits(monkeypatch, kind, arg):
    seen = recorded(monkeypatch, lambda: run_case(kind, arg))
    assert seen
    for t, g in seen:
        assert_ranks(t, g)


MAPS = catalog_factor_maps()


@pytest.mark.parametrize("key,f,sx,sy", MAPS, ids=[m[0] for m in MAPS])
def test_catalog_quotient_towers(key, f, sx, sy):
    qc = quotient_complex(f)
    for k in range(qc.complex.dimension + 1):
        t = _quotient_cohomology_tower(qc, sx, k)
        assert_ranks(t, classify(t))


@pytest.mark.parametrize("k", range(1, 41))
def test_grid_spaces(cold_caches, k):
    for l in range(1, 41):
        for name in (f"tm:{k},{l}", f"pd:{k},{l}"):
            cx, sm = subst1d.system_1d(name)
            for degree in (0, 1):
                t = complexes.cohomology_tower(cx, sm, degree)
                assert_ranks(t, classify(t))
    cold_caches()   # the 80 complexes are not needed again


# ---- hand-built and random towers with torsion ----

def tower(rows, torsion=()):
    """Z^f + Z_d1 + ... under the endomorphism given by rows, with the
    torsion coordinates last."""
    n = len(rows)
    rel = IntMatrix.from_entries(n, len(torsion), {
        (n - len(torsion) + c, c): d for c, d in enumerate(torsion)})
    g = FgAbGroup(n, rel)
    return TowerGroup(g, GroupHom(g, g, IntMatrix.from_rows(rows)))


HAND_BUILT = {
    # Z[1/2] + Z[1/3]^2
    "two-bases": (tower([[2, 0, 0], [0, 3, 1], [0, 0, 3]]),
                  "Z[1/2] + Z[1/3]^2"),
    # Z[1/2] + Z_4 + Z_3, read as Z_12: units act on the torsion
    "torsion-kept": (tower([[2, 0, 0], [1, 3, 0], [0, 0, 2]], (4, 3)),
                     "Z_12 + Z[1/2]"),
    # doubling kills Z_4 in the limit; Z_9 under 2 survives
    "torsion-dies": (tower([[5, 0, 0], [0, 2, 0], [1, 0, 2]], (4, 9)),
                     "Z_9 + Z[1/5]"),
    # a zero eigenvalue on the free part, and Z_2 + Z_2
    "nilpotent-free": (tower([[0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0],
                              [1, 0, 0, 1]], (2, 2)), "Z_2 + Z_2 + Z"),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_towers(name):
    t, want = HAND_BUILT[name]
    assert classify(t).render() == want
    assert_ranks(t, classify(t))


def _swapped_bases(g: GroupExpr):
    (m1, a1), (m2, a2), *rest = g.localization_parts
    return GroupExpr(g.torsion_parts, [(m2, a1), (m1, a2), *rest],
                     g.free_rank)


def _torsion_dropped(g: GroupExpr):
    return GroupExpr(g.torsion_parts[1:], g.localization_parts, g.free_rank)


@pytest.mark.parametrize("name,mutate", [
    ("two-bases", _swapped_bases), ("torsion-kept", _torsion_dropped),
    ("torsion-dies", _torsion_dropped), ("nilpotent-free", _torsion_dropped)])
def test_mutated_answers_disagree(name, mutate):
    t, _ = HAND_BUILT[name]
    assert disagreements(t, mutate(classify(t)))


def test_blind_to_products_of_bases():
    a, b = GroupExpr.parse("Z[1/2] + Z[1/3]"), GroupExpr.parse("Z[1/6] + Z")
    assert all(predicted_rank(a, p) == predicted_rank(b, p)
               for p in (0, 2, 3, 5, 7, 11))


FREE_DIAGONAL = (0, 1, -1, 2, -2, 3, 4, 5, 6, -6, 10)


@st.composite
def torsion_towers(draw):
    """Z^f + Z_d1 + ... + Z_dr in a presentation mixed by a unimodular P,
    under an endo that is upper triangular on the free part (diagonal from
    FREE_DIAGONAL, zeros allowed), arbitrary from the free part into the
    torsion and any multiplier on each torsion summand, so it maps the
    relations into themselves and need not be injective."""
    f = draw(st.integers(0, 3))
    ds = draw(st.lists(st.sampled_from((2, 3, 4, 5, 6, 8, 9, 12)),
                       min_size=1, max_size=3))
    n = f + len(ds)
    m = [[0] * n for _ in range(n)]
    for i in range(f):
        m[i][i] = draw(st.sampled_from(FREE_DIAGONAL))
        for j in range(i + 1, f):
            m[i][j] = draw(st.integers(-3, 3))
    for i, d in enumerate(ds, start=f):
        for j in range(f):
            m[i][j] = draw(st.integers(-3, 3))
        m[i][i] = draw(st.integers(0, d - 1))
    p = pinv = IntMatrix.identity(n)
    for _ in range(draw(st.integers(0, 6)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-2, 2))
        e = [[int(r == s) for s in range(n)] for r in range(n)]
        einv = [row[:] for row in e]
        e[i][j], einv[i][j] = c, -c
        p = IntMatrix.from_rows(e) * p
        pinv = pinv * IntMatrix.from_rows(einv)
    t = tower(m, ds)
    g = FgAbGroup(n, p * t.group.rel)
    return TowerGroup(g, GroupHom(g, g, p * t.endo.matrix * pinv))


@settings(max_examples=200, deadline=None)
@given(torsion_towers())
def test_random_towers_with_torsion(t):
    assert_ranks(t, classify(t))
