"""Checks of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py

Takes about half a minute: it runs small traced query sets twice each.
"""
from __future__ import annotations

import sys

import pytest

import queries
import run

SRC = str(run.SRC)
if SRC not in sys.path:
    sys.path.insert(0, SRC)

# a small in-process set touching both the 1-D and the 2-D layers
SMALL_SET = queries.pair_queries(7, 3) + queries.pair_queries(2, 25) + [
    ["space", "chair:0,0", "forced"], ["space", "chair:/,0", "forced"],
    ["path", "/,0", "C"], ["quotient", "chair:/,0", "chair:0,0"]]
SMALL_CLI = [["space", "chair:0,0", "--json"],
             ["quotient", "tm:3,1", "pd:3,1", "--json"]]
EXACT = ("calls", "abelian.snf.cells_total", "abelian.snf.max_cells",
         "subst2d.complex_cells_max")


def exact_counts(doc):
    return {k: v for k, v in run.layer_metrics(doc["trace"]).items()
            if k.endswith(EXACT)}


@pytest.mark.parametrize("rep,qs", [(run.inproc_rep, SMALL_SET),
                                    (run.cli_rep, SMALL_CLI)])
def test_counts_repeat_exactly(rep, qs):
    env, speed = run.child_env(), run.HostSpeed()
    first, second = rep(qs, True, env, speed), rep(qs, True, env, speed)
    a, b = exact_counts(first), exact_counts(second)
    assert a == b
    assert a["abelian.snf.calls"] > 0 and a["subst2d.complex_cells_max"] > 0


def test_oracle_accepts_seed_results():
    from tilecohom import catalog
    oracle = queries.Oracle(catalog)
    doc = run.inproc_rep(SMALL_SET, False, run.child_env(), run.HostSpeed())
    for q, res in zip(SMALL_SET, doc["results"]):
        assert oracle.check(q, res) == (None, False), q


def test_oracle_rejects_wrong_group():
    from tilecohom import catalog
    oracle = queries.Oracle(catalog)
    wrong = [{"torsion": [], "localizations": [], "free_rank": 1}] * 3
    problem, _ = oracle.check(["space", "chair:X,+", "forced"], wrong)
    assert problem is not None
    problem, _ = oracle.check(["space", "tm:7,3"], "ValueError: boom")
    assert problem == "ValueError: boom"


def test_tm_split_cases():
    assert queries.tm_h1_split(2, 1) == "split"      # |k-l| = 1
    assert queries.tm_h1_split(3, 1) == "split"      # k+l even
    assert queries.tm_h1_split(6, 3) == "split"      # 9 and 3: one radical
    assert queries.tm_h1_split(25, 14) == "nonsplit"  # 39 and 11
    assert queries.tm_h1_split(5, 10) == "nested"    # 15 and 5


def test_binding_check_fails_loudly():
    import tilecohom
    from tilecohom import abelian, limits
    from tracer import BindingError, Tracer
    t = Tracer()
    t.install(tilecohom)
    try:
        limits.snf = t.originals["abelian.snf"]   # a stale by-name import
        with pytest.raises(BindingError, match="limits imports snf"):
            t.check_bindings(tilecohom)
    finally:
        for key, orig in t.originals.items():
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("tilecohom"):
                    for attr, val in list(vars(mod).items()):
                        if val is t.wrappers[key]:
                            setattr(mod, attr, orig)
        limits.snf = abelian.snf


def test_tail_percentile():
    assert run.tail(list(range(100))) == (89, 90.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)
