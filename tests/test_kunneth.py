"""Künneth oracle: products of two 1-D substitutions through the 2-D builder.

For 1-D substitutions sigma and tau whose images have length 2, sigma x tau
is a 2x2 block substitution: tile (x, y) has (sigma(x)_i, tau(y)_j) in
quadrant (i, j).  Its tiling space is the product of the two 1-D spaces,
and Čech cohomology of a product of compacta obeys the Künneth formula,
with direct limits commuting with (x) and Tor:

    H^n(X x Y) = sum_{i+j=n} H^i(X) (x) H^j(Y)
                 + sum_{i+j=n+1} Tor(H^i(X), H^j(Y)).

Every 1-D group here is torsion-free, so the Tor terms vanish.  The 1-D
side comes from `absolute_cohomology_1d`; the 2-D side from the collared
builder `subst2d._complex(_quotient(sub, identity, 1))`, which reads only
the product rule it is given, never the chair family's master rule.  The
(x) of torsion-free `GroupExpr`s lives here only: Z[1/a] (x) Z[1/b] =
Z[1/ab], Z being Z[1/1].

The cochain Lefschetz numbers L(f^n) of the product's self-map must be the
products of the factors' (the method of `tests/test_lefschetz.py`): the
fixed tilings of omega^n on X x Y are pairs of fixed tilings.

Depth 0.  The border-forcing check finds forcing on sol:2 x sol:2 alone,
and Thue-Morse shows why the depth check refuses the others: TM x TM at
depth 0 gives Z, Z[1/2]^2, Z[1/2], which is not its Künneth answer.  The
depth-0 groups of PD x PD and PD x SOL are right although the check finds
no forcing; sol:2 x sol:2 is `chair:0,0` cell for cell.

The file also compares `legal_adjacencies(<Substitution2D>)`, now read off
the rule's depth-0 window index, with the cut from `legal(2, 1)` and
`legal(1, 2)` it replaced (kept in `tests/subst2d_reference.py`).
"""
import functools
import itertools

import pytest

import subst2d_reference as ref
from test_forcing_differential import RANDOM_RULES
from test_lefschetz import _cochain_lefschetz
from tilecohom.complexes import cohomology_tower
from tilecohom.limits import GroupExpr, classify
from tilecohom.subst1d import (absolute_cohomology_1d, pd_substitution,
                               solenoid_substitution, system_1d,
                               tm_substitution)
from tilecohom.subst2d import (QUADS, SCHEME_NAMES, Substitution2D,
                               _ap_complex_2d_depth, _complex, _quotient,
                               border_forcing_check, descend_rule,
                               legal_adjacencies, master_system)

FACTORS = {"tm:1,1": tm_substitution(1, 1), "pd:1,1": pd_substitution(1, 1),
           "sol:2": solenoid_substitution(2)}
PAIRS = list(itertools.product(FACTORS, repeat=2))


def _product(x, y):
    """The product rule of two named 1-D spaces' length-2 substitutions."""
    s, t = FACTORS[x], FACTORS[y]
    tiles = [(a, b) for a in s.alphabet for b in t.alphabet]
    return Substitution2D(tiles, {
        (a, b): {(i, j): (s.rule[a][i], t.rule[b][j]) for i, j in QUADS}
        for a, b in tiles})


PRODUCTS = {pair: _product(*pair) for pair in PAIRS}


def _build(sub, r):
    """(complex, self-map) of a rule's own collared tiles at depth r."""
    return _complex(_quotient(sub, lambda t: t, r))[:2]


def _groups(cx, sm):
    return [classify(cohomology_tower(cx, sm, k)) for k in range(3)]


def _cells(cx):
    return [cx.n_cells(k) for k in range(3)]


def _summands(g):
    """(base, multiplicity) of a torsion-free group, Z as base 1."""
    assert g.unclassified is None and not g.torsion_parts, g.render()
    return [(1, g.free_rank), *g.localization_parts]


def _kunneth(x, y):
    """[H^0, H^1, H^2] of X x Y from the 1-D groups."""
    gx, gy = absolute_cohomology_1d(x), absolute_cohomology_1d(y)
    return [GroupExpr((), [(m * n, a * b) for i in (0, 1) if 0 <= k - i <= 1
                           for m, a in _summands(gx[i])
                           for n, b in _summands(gy[k - i])])
            for k in range(3)]


def _parse(*texts):
    return [GroupExpr.parse(t) for t in texts]


@pytest.mark.parametrize("x,y", PAIRS)
def test_products_obey_kunneth(x, y):
    assert _groups(*_build(PRODUCTS[x, y], 1)) == _kunneth(x, y)


@pytest.mark.parametrize("x,y,groups,cells", [
    ("tm:1,1", "tm:1,1", ("Z", "Z[1/2]^2 + Z^2", "Z[1/2]^3 + Z"),
     [16, 48, 36]),
    ("tm:1,1", "pd:1,1", ("Z", "Z[1/2]^2 + Z^2", "Z[1/2]^3 + Z"),
     [16, 44, 30]),
    ("tm:1,1", "sol:2", ("Z", "Z[1/2]^2 + Z", "Z[1/2]^2"), None)])
def test_kunneth_reference_values(x, y, groups, cells):
    cx, sm = _build(PRODUCTS[x, y], 1)
    assert _groups(cx, sm) == _kunneth(x, y) == _parse(*groups)
    if cells:
        assert _cells(cx) == cells


@pytest.mark.parametrize("x,y", PAIRS)
def test_lefschetz_numbers_multiply(x, y):
    _, sm = _build(PRODUCTS[x, y], 1)
    lx, ly = (_cochain_lefschetz(system_1d(n)[1]) for n in (x, y))
    assert _cochain_lefschetz(sm) == [a * b for a, b in zip(lx, ly)]


def test_lefschetz_reference_values():
    assert _cochain_lefschetz(_build(PRODUCTS["tm:1,1", "tm:1,1"], 1)[1]) \
        == [0, 16, 36, 256]
    assert _cochain_lefschetz(_build(PRODUCTS["sol:2", "sol:2"], 1)[1]) \
        == [1, 9, 49, 225]


@pytest.mark.parametrize("x,y", PAIRS)
def test_only_the_solenoid_square_forces_its_border(x, y):
    sub = PRODUCTS[x, y]
    assert border_forcing_check(sub) == (1 if x == y == "sol:2" else None)


@pytest.mark.parametrize("x,y", [("pd:1,1", "pd:1,1"), ("pd:1,1", "sol:2")])
def test_period_doubling_products_right_at_depth_0_unforced(x, y):
    # the check finds no forcing up to 10-fold inflation, yet the depth-0
    # groups are the Künneth ones
    assert border_forcing_check(PRODUCTS[x, y], 10) is None
    assert _groups(*_build(PRODUCTS[x, y], 0)) == _kunneth(x, y)


def test_thue_morse_square_wrong_at_depth_0():
    got = _groups(*_build(PRODUCTS["tm:1,1", "tm:1,1"], 0))
    assert got == _parse("Z", "Z[1/2]^2", "Z[1/2]")
    assert got != _kunneth("tm:1,1", "tm:1,1")


def test_chair_00_is_the_solenoid_square():
    cx, sm, *_ = _ap_complex_2d_depth("0,0", 0)
    pcx, psm = _build(PRODUCTS["sol:2", "sol:2"], 0)
    assert _cells(cx) == _cells(pcx) == [1, 2, 1]
    assert cx.delta == pcx.delta
    assert sm.cochain == psm.cochain
    assert _groups(cx, sm) == _groups(pcx, psm) == \
        _parse("Z", "Z[1/2]^2", "Z[1/2]")


# the master and descended rules are built when their test runs, not at
# collection
ADJACENCY_RULES = {
    "master": master_system,
    **{name: functools.partial(descend_rule, name) for name in SCHEME_NAMES},
    **{f"random{i}": lambda r=r: r for i, r in enumerate(RANDOM_RULES)},
    **{"x".join(pair): lambda s=sub: s for pair, sub in PRODUCTS.items()}}


@pytest.mark.parametrize("label", ADJACENCY_RULES)
def test_adjacencies_of_a_rule_identical(label):
    sub = ADJACENCY_RULES[label]()
    assert legal_adjacencies(sub) == ref.cut_adjacencies(sub)
