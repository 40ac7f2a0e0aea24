"""Border forcing from supertile sides against the row-patch check it replaced.

`tests/subst2d_reference.py` keeps the former `_forcing_power`, which
inflated every legal 3x3 patch k times through the row inflation that was
`Substitution2D.inflate` (kept there as `_inflate`), verbatim.  The
side-table check must give the same answer for every max_power 0-5 on the
nine descended rules, on `decorate(name)` callables, on the master rule
and on seeded random primitive rules on ints, among which the answers
None, 1 and 2 all occur.

It also keeps `_tuple_forcing_power`, the side-table check as it stood
when each k-fold side was the tuple of its 2^k tiles.  The numbered sides
must agree with it for every max_power 0-12 on the master rule, the nine
descended rules and the random rules, and a check to power 16 on the
master rule must stay small in memory, where the side tuples took about
100 MB.
"""
import random
import tracemalloc

import pytest

import subst2d_reference as ref
from tilecohom import subst2d
from tilecohom.errors import NotWellDefined
from tilecohom.subst2d import (QUADS, SCHEME_NAMES, Substitution2D,
                               border_forcing_check, decorate, descend_rule,
                               master_system)

POWERS = range(6)


def _random_rule(seed):
    """A seeded rule on 2-6 int tiles whose child in each quadrant is drawn
    from one or two tiles, so that some rules force their border late."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    pools = {q: rng.sample(range(n), rng.randint(1, 2)) for q in QUADS}
    return Substitution2D(range(n), {t: {q: rng.choice(pools[q])
                                         for q in QUADS} for t in range(n)})


RANDOM_RULES = [sub for sub in map(_random_rule, range(120))
                if sub.is_primitive()]


def _reference_answer(scheme, max_power):
    """The answer of border_forcing_check with the row-patch check inside:
    None where the scheme's rule descends only to collared tiles."""
    if callable(scheme):
        try:
            sub = descend_rule(scheme)
        except NotWellDefined:
            return None
    elif ref._tile_descends(scheme):
        sub = descend_rule(scheme)
    else:
        return None
    return ref._forcing_power(sub, max_power)


def _assert_same(sub):
    for k in POWERS:
        assert subst2d._forcing_power(sub, k) == ref._forcing_power(sub, k), k


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_named_scheme_identical(name):
    _assert_same(descend_rule(name))
    for k in POWERS:
        assert border_forcing_check(name, k) == _reference_answer(name, k), k


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_coarsening_callable_identical(name):
    for k in POWERS:
        assert border_forcing_check(decorate(name), k) == \
            _reference_answer(decorate(name), k), k


def test_master_rule_identical():
    _assert_same(master_system())


def test_random_rules_identical():
    answers = set()
    for sub in RANDOM_RULES:
        _assert_same(sub)
        answers.add(subst2d._forcing_power(sub, max(POWERS)))
    assert {None, 1, 2} <= answers


def test_substitution_argument():
    # a Substitution2D is checked as given, afresh on each call
    late = next(sub for sub in RANDOM_RULES
                if ref._forcing_power(sub, 2) == 2)
    assert border_forcing_check(late) == 2
    assert border_forcing_check(late, 1) is None
    assert border_forcing_check(late, 2) == 2
    assert border_forcing_check(descend_rule("0,0")) == 1
    assert border_forcing_check(master_system()) is None


TUPLE_POWERS = range(13)


def _assert_same_as_tuples(sub):
    for k in TUPLE_POWERS:
        assert subst2d._forcing_power(sub, k) == \
            ref._tuple_forcing_power(sub, k), k


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_numbered_sides_match_side_tuples(name):
    _assert_same_as_tuples(descend_rule(name))


def test_numbered_sides_match_side_tuples_on_master_and_random_rules():
    for sub in [master_system()] + RANDOM_RULES:
        _assert_same_as_tuples(sub)


def test_high_power_check_stays_small():
    master = master_system()
    tracemalloc.start()
    try:
        assert border_forcing_check(master, 16) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak
