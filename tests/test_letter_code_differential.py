"""Differential tests: the 1-D factor maps against the builders they replaced.

`subst1d` builds phi (the two-block code, tm -> pd), psi (the letter
collapse, pd -> sol) and psi after phi (tm -> sol) with one per-cell
builder: each source cell, a word, goes to the one target cell its code
names, with sign +1.  psi after phi used to be the product of the chain
matrices of psi and phi, and phi and psi had loops of their own (all three
kept in `tests/subst1d_reference.py`).  A letter collapse after a sliding
block code is the letter collapse of the source, so the maps must be
identical: same complexes, same chain matrices, and the same groups in
every long exact sequence built on them.  No query composes cellular maps.
"""
import pytest

import subst1d_reference as ref
from conftest import empty_stores
from tilecohom import subst1d
from tilecohom.catalog import (CHAIR_SPACES, PATH_STARTS, PATH_WORDS,
                               FactorPath, compute_path, compute_quotient,
                               compute_space)
from tilecohom.complexes import CellularMap, les_quotient

MAPS = ("factor_map_phi", "factor_map_psi", "factor_map_psi_phi")
PAIRS = [(k, l) for k in range(1, 13) for l in range(1, 13)] + [
    (1, 40), (40, 1), (40, 39), (33, 2), (20, 7), (25, 14)]


def _map(f):
    return f.source, f.target, f.chain


def _groups(exprs):
    # an unclassified expression equals nothing, itself included
    return [(str(e), e.unclassified) for e in exprs]


def _les(k, l, builders):
    out = {}
    for fine, coarse, name in ((f"tm:{k},{l}", f"pd:{k},{l}", MAPS[0]),
                               (f"pd:{k},{l}", f"sol:{k + l}", MAPS[1]),
                               (f"tm:{k},{l}", f"sol:{k + l}", MAPS[2])):
        f = getattr(builders, name)(k, l)
        res = les_quotient(f, subst1d.system_1d(fine)[1],
                           subst1d.system_1d(coarse)[1])
        out[fine, coarse] = {key: _groups(res[key]) for key in "YXQ"}
    return out


@pytest.mark.parametrize("k,l", PAIRS)
def test_maps_and_sequences_identical(k, l):
    for name in MAPS:
        assert _map(getattr(subst1d, name)(k, l)) == \
            _map(getattr(ref, name)(k, l)), name
    got = _les(k, l, subst1d)
    empty_stores()   # so the reference maps' sequences are computed anew
    assert got == _les(k, l, ref)


def test_psi_phi_is_the_letter_collapse():
    f = subst1d.factor_map_psi_phi(3, 1)
    assert f.source is subst1d.system_1d("tm:3,1")[0]
    assert f.target is subst1d.system_1d("sol:4")[0]
    for chain in f.chain:
        assert chain.rows == 1
        assert chain.row(0) == [1] * chain.cols


@pytest.mark.parametrize("k,l", [(k, l) for k in range(1, 7)
                                 for l in range(1, 7)])
def test_times2_ses_identical(k, l, monkeypatch):
    got = _groups(subst1d.verify_times2_ses(k, l))
    for name in MAPS:
        monkeypatch.setattr(subst1d, name, getattr(ref, name))
    assert got == _groups(subst1d.verify_times2_ses(k, l))


def _forbid_compose(monkeypatch):
    def compose(self, other):
        raise AssertionError("a query composed cellular maps")
    monkeypatch.setattr(CellularMap, "compose", compose)


def test_compose_ban_sees_the_old_builder(monkeypatch):
    _forbid_compose(monkeypatch)
    with pytest.raises(AssertionError, match="composed"):
        ref.factor_map_psi_phi(1, 1)


def test_no_query_composes_cellular_maps(cold_caches, monkeypatch):
    _forbid_compose(monkeypatch)
    for k in range(1, 5):
        for l in range(1, 5):
            sol, pd, tm = f"sol:{k + l}", f"pd:{k},{l}", f"tm:{k},{l}"
            for name in (sol, pd, tm):
                compute_space(name)
            for fine, coarse in ((tm, pd), (tm, sol), (pd, sol)):
                compute_quotient(fine, coarse)
    # the catalog-2d queries: every chair space, path word and relative
    # quotient onto chair:0,0
    for name in CHAIR_SPACES:
        compute_space(name, "forced")
        compute_quotient(name, "chair:0,0")
    for word in PATH_WORDS:
        compute_path(FactorPath(PATH_STARTS[word], word))
