"""Legal patches on flat tile ids against the row-patch path they replaced.

`tests/subst2d_reference.py` keeps the row-patch `Substitution2D.legal`
(`RowSubstitution2D`), the closure it ran and the `_master_index` that cut
its windows from `legal(m, m)`, verbatim.  The flat closure must give the
same master index at r = 0, 1, 2 and the same lists of windows, in the same
order, at every size `test_master_index.py` uses, for the master rule,
every descended rule and a rule on plain ints.  The legal 2-patches are
closed afresh on every call, in 1-D and 2-D alike: a substitution keeps no
closure, so its legal patches do not depend on what was asked before.
"""
from collections import Counter

import pytest

import subst2d_reference as ref
from tilecohom import subst1d
from tilecohom.catalog import compute_quotient, compute_space
from tilecohom.errors import NotWellDefined
from tilecohom.subst1d import Substitution1D, legal_words, tm_substitution
from tilecohom.subst2d import (QUADS, SCHEME_NAMES, Substitution2D,
                               ap_complex_2d, descend_rule, master_system)

SIZES = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 3), (4, 3), (3, 4), (4, 4),
         (5, 5), (6, 6)]


def _row_copy(sub):
    return ref.RowSubstitution2D(sub.tiles, sub.rule)


def _wielandt():
    """The primitive 5-tile rule of test_subst2d (exponent 17)."""
    rule = {i: {q: i + 1 for q in QUADS} for i in range(4)}
    rule[4] = dict(zip(QUADS, (0, 0, 1, 1)))
    return Substitution2D(range(5), rule)


@pytest.mark.parametrize("r", [0, 1, 2])
def test_master_index_identical(r):
    assert master_system()._index(r) == ref._master_index(r)


@pytest.mark.parametrize("size", SIZES)
def test_master_legal_identical(size):
    assert master_system().legal(*size) == \
        ref.row_master_system().legal(*size)


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_descended_legal_identical(name):
    sub = descend_rule(name)
    old = _row_copy(sub)
    for size in ((3, 3), (2, 1), (1, 2), (2, 2)):
        assert sub.legal(*size) == old.legal(*size), size


def test_int_tile_legal_identical():
    sub = _wielandt()
    old = _row_copy(sub)
    for size in SIZES[:8]:
        assert sub.legal(*size) == old.legal(*size), size


def test_rule_missing_a_quadrant_is_rejected():
    rule = {0: {q: 0 for q in QUADS[:3]}}
    with pytest.raises(NotWellDefined):
        Substitution2D([0], rule)


def _recording(monkeypatch, cls, name):
    """Record (substitution, patch, m) of every image_windows call."""
    calls = []
    original = getattr(cls, name)

    def counting(self, patch, m):
        calls.append((self, patch, m))
        return original(self, patch, m)

    monkeypatch.setattr(cls, name, counting)
    return calls


def test_2d_legal_windows_independent_of_call_history(monkeypatch):
    calls = _recording(monkeypatch, Substitution2D, "_image_windows")
    sub = _wielandt()
    sub.legal(3, 3)
    assert any(m == 2 for _, _, m in calls)
    for size in ((2, 1), (1, 2), (4, 4), (5, 5), (3, 4)):
        calls.clear()
        assert sub.legal(*size) == _wielandt().legal(*size), size
        assert any(s is sub and m == 2 for s, _, m in calls), size


@pytest.mark.usefixtures("cold_caches")
def test_auto_collar_chair_seeds_each_closure_per_index(monkeypatch):
    # the auto choice builds the depth-0 classes and then the depth-1
    # complex: the master closure is seeded from each tile for either
    # index, the descended rule's once from each of its tiles
    calls = _recording(monkeypatch, Substitution2D, "_image_windows")
    ap_complex_2d("X,0", "auto")
    seeded = Counter(id(s) for s, patch, _ in calls if len(patch) == 1)
    subs = {id(s): s for s, _, _ in calls}
    master = master_system()
    assert seeded.pop(id(master)) == 2 * len(master.tiles)
    assert seeded
    assert all(seeded[i] == len(subs[i].tiles) for i in seeded)


def _tm32():
    """A fresh substitution, not the cached tm_substitution(3, 2)."""
    return Substitution1D(("1", "1b"), {"1": ("1", "1", "1", "1b", "1b"),
                                        "1b": ("1b", "1b", "1b", "1", "1")})


def test_1d_legal_words_independent_of_call_history(monkeypatch):
    s = _tm32()
    calls = []
    original = s._letter_windows

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(s, "_letter_windows", counting)
    assert legal_words(s, 3) == legal_words(tm_substitution(3, 2), 3)
    assert 2 in calls
    calls.clear()
    assert legal_words(s, 5)
    assert 2 in calls
    calls.clear()
    assert legal_words(s, 2) == legal_words(_tm32(), 2)
    assert 2 in calls


@pytest.mark.usefixtures("cold_caches")
def test_one_pair_closes_each_rule_once(monkeypatch):
    # the tm space, its two quotients, pd -> sol and the times-2 sequence
    # read each rule's one complex, built from one fresh substitution
    closures = []
    original = subst1d._legal_patches

    def counting(tiles, image_windows, stretch, n):
        closures.append(tuple(a for a, in tiles))
        return original(tiles, image_windows, stretch, n)

    monkeypatch.setattr(subst1d, "_legal_patches", counting)
    compute_space("tm:4,3")
    compute_quotient("tm:4,3", "pd:4,3")
    compute_quotient("tm:4,3", "sol:7")
    compute_quotient("pd:4,3", "sol:7")
    subst1d.verify_times2_ses(4, 3)
    assert sorted(closures) == [("1", "1b"), ("a", "b"), ("s",)]


def test_substitutions_keep_no_closure():
    s, sub = _tm32(), _wielandt()
    assert legal_words(s, 4) and sub.legal(3, 3)
    assert not hasattr(s, "_pairs")
    assert not hasattr(sub, "_pairs")
