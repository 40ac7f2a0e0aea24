"""Typed refusals and result paths that no other test reaches.

`tests/check_untested_lines.py` lists the statements of the package that
no test executes.  Each case here runs one of them: an input the package
must refuse with a typed error and a fixed message, or a result path (the
hash of a group expression, an unclassified degree in the JSON document,
a failing `verify` row, a failed Lemma 1 hypothesis, Lemma 1 onto a
point, a limit without integer eigenvalues, the reprs and a timed-out
query).
"""
import json
import signal
import time

import pytest

from tilecohom import catalog, cli, subst2d
from tilecohom.abelian import FgAbGroup, GroupHom, IntMatrix
from tilecohom.catalog import verify_all
from tilecohom.complexes import (CellularMap, CochainComplex,
                                 lemma1_shortcut, les_quotient)
from tilecohom.errors import (HypothesisFailed, InvalidPath, NotACochainMap,
                              NotPrimitive, NotWellDefined, Unclassified)
from tilecohom.limits import GroupExpr, TowerGroup, classify, limit_les, \
    verify_split
from tilecohom.subst1d import (factor_map_1d, legal_words, pd_substitution,
                               system_1d, tm_substitution)
from tilecohom.subst2d import QUADS, Substitution2D

POINT = CochainComplex([["v"]], [])
INTERVAL = CochainComplex([["a", "b"], ["e"]],
                          [IntMatrix.from_rows([[-1, 1]])])
Z = FgAbGroup(1)


def _blocks(rule):
    """A Substitution2D rule from tile -> child, the same in every
    quadrant."""
    return {t: {q: child for q in QUADS} for t, child in rule.items()}


REFUSALS = {
    "intmatrix-entry-count": (
        lambda: IntMatrix(2, 2, [1, 2, 3]),
        ValueError, "entry count does not match shape"),
    "intmatrix-ragged-rows": (
        lambda: IntMatrix.from_rows([[1], [1, 2]]),
        ValueError, "ragged rows"),
    "intmatrix-times-int": (
        lambda: IntMatrix.identity(2) * 3,
        TypeError,
        "unsupported operand type(s) for *: 'IntMatrix' and 'int'"),
    "group-relation-height": (
        lambda: FgAbGroup(2, IntMatrix.zeros(3, 0)),
        ValueError, "relation matrix has wrong height"),
    "hom-shape": (
        lambda: GroupHom(Z, FgAbGroup(2), IntMatrix.identity(1)),
        ValueError, "hom matrix shape mismatch"),
    "complex-four-degrees": (
        lambda: CochainComplex([["a"], ["b"], ["c"], ["d"]],
                               [IntMatrix.zeros(1, 1)] * 3),
        ValueError, "only dimensions 0..2 are supported"),
    "complex-missing-coboundary": (
        lambda: CochainComplex([["a", "b"], ["e"]], []),
        ValueError, "need one coboundary per consecutive degree pair"),
    "map-chain-count": (
        lambda: CellularMap(INTERVAL, INTERVAL, [IntMatrix.identity(2)]),
        ValueError, "need one chain matrix per degree"),
    "map-chain-shape": (
        lambda: CellularMap(POINT, INTERVAL, [IntMatrix.identity(1)]),
        ValueError, "chain matrix 0 has wrong shape"),
    "limit-les-map-count": (
        lambda: limit_les([None, None], []),
        ValueError, "need exactly one map between consecutive terms"),
    "verify-scope": (
        lambda: verify_all("3d"),
        InvalidPath, "unknown verification scope '3d'"),
    "tm-parameters": (
        lambda: tm_substitution(0, 1),
        ValueError, "parameters must be >= 1"),
    "pd-parameters": (
        lambda: pd_substitution(1, 0),
        ValueError, "parameters must be >= 1"),
    "legal-words-length": (
        lambda: legal_words(tm_substitution(1, 1), 0),
        ValueError, "n >= 1 required"),
    "block-rule-leaves-tiles": (
        lambda: Substitution2D(["a"], _blocks({"a": "b"})),
        NotWellDefined, "rule is not closed on the tile set"),
    "block-rule-not-primitive": (
        lambda: Substitution2D(["a", "b"],
                               _blocks({"a": "a", "b": "b"})).legal(1, 1),
        NotPrimitive, "block substitution is not primitive"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal(case):
    run, error, message = REFUSALS[case]
    with pytest.raises(error) as e:
        run()
    assert type(e.value) is error
    assert str(e.value) == message


class TestGroupExprHash:
    def test_equal_groups_hash_equal(self):
        a, b = GroupExpr.parse("Z[1/2] + Z"), GroupExpr.parse("Z[1/4] + Z")
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_unclassified_has_no_key_and_no_hash(self):
        e = GroupExpr(unclassified="payload")
        with pytest.raises(Unclassified):
            e.key()
        with pytest.raises(Unclassified):
            hash(e)


def test_space_json_carries_unclassified_degree(capsys):
    # the exit status is left unasserted: an unclassified degree exits 0
    # today, and that is an open question of its own
    cli.main(["space", "tm:25,14", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert {"degree": 1, "unclassified": True} in doc["results"]


def test_verify_text_reports_a_failing_row(capsys, monkeypatch):
    rows = [dict(kind="space", key="tm:2,1", degree=0, expected="Z",
                 computed="Z", ok=True),
            dict(kind="space", key="tm:2,1", degree=1,
                 expected="Z[1/3] + Z^2", computed="Z^3", ok=False)]
    monkeypatch.setattr(catalog, "verify_all", lambda scope, grid: rows)
    code = cli.main(["verify", "1d"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert "FAIL space tm:2,1 H^1: expected Z[1/3] + Z^2, computed Z^3" \
        in out
    assert out[-1] == "1/2 checks passed"


def test_lemma1_hypothesis_fails_where_target_h2_survives():
    # H^2 of chair:0,0 is Z[1/2], so Lemma 1 does not apply at n = 1
    depth = subst2d._Depth(1)
    f = subst2d.factor_map_edge("X,+", "0,0", depth)
    sx = subst2d.ap_complex_2d("X,+", depth)[1]
    sy = subst2d.ap_complex_2d("0,0", depth)[1]
    with pytest.raises(HypothesisFailed) as e:
        lemma1_shortcut(f, sx, sy, n=1)
    assert str(e.value) == "H^2 of the target does not vanish in the limit"


@pytest.mark.parametrize("kl", ["1,1", "2,1", "2,2"])
def test_lemma1_refuses_self_maps_that_do_not_intertwine(kl):
    # the identity on pd:k,l does not commute with phi and the tm self-map;
    # Lemma 1 used to answer H^0_Q != 0 for it
    f, sx, _ = factor_map_1d(f"tm:{kl}", f"pd:{kl}")
    sy = CellularMap.identity(f.target)
    for run in (les_quotient, lemma1_shortcut):
        with pytest.raises(NotACochainMap) as e:
            run(f, sx, sy)
        assert str(e.value) == \
            "factor map does not intertwine the self-maps at degree 0"


@pytest.mark.parametrize("name,top", [("sol:2", "Z[1/2]"),
                                      ("tm:2,1", "Z[1/3] + Z^2")])
def test_lemma1_onto_a_point(name, top):
    # the target has no H^1 and no H^n: both groups come from the source
    cx, sx = system_1d(name)
    f = CellularMap.from_assignment(cx, POINT, [
        {v: [(1, "v")] for v in cx.cells[0]}])
    sy = CellularMap.identity(POINT)
    h0q_zero, got = lemma1_shortcut(f, sx, sy)
    q = les_quotient(f, sx, sy)["Q"]
    assert h0q_zero and q[0].is_zero()
    assert str(got) == top and got == q[-1]


def test_no_integer_eigenvalues_is_unclassified():
    z2 = FgAbGroup(2)
    t = TowerGroup(z2, GroupHom(z2, z2, IntMatrix.from_rows([[1, 1],
                                                             [1, 0]])))
    e = classify(t)
    assert e.unclassified is t


def test_split_without_torsion_is_true():
    assert verify_split(TowerGroup(Z, GroupHom(Z, Z,
                                               IntMatrix.from_rows([[2]]))))


def test_reprs():
    z2 = FgAbGroup(1, IntMatrix.from_rows([[2]]))
    assert repr(z2) == "FgAbGroup(free_rank=0, torsion=[2])"
    assert repr(INTERVAL) == "CochainComplex(cells=2/1)"
    assert repr(CellularMap.identity(POINT)) == \
        "CellularMap(CochainComplex(cells=1) -> CochainComplex(cells=1))"
    assert repr(GroupExpr.parse("Z[1/2] + Z")) == "GroupExpr(Z[1/2] + Z)"
    assert repr(TowerGroup(Z, GroupHom(Z, Z, IntMatrix.identity(1)))) == \
        "TowerGroup(FgAbGroup(free_rank=1, torsion=[]))"


def test_group_expr_is_not_equal_to_an_int():
    assert GroupExpr.zero().__eq__(0) is NotImplemented
    assert (GroupExpr.zero() == 0) is False


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="no SIGALRM")
def test_timeout_ends_the_query(capsys, monkeypatch):
    def compute_space(name, collar="auto"):
        time.sleep(2)
    monkeypatch.setattr(catalog, "compute_space", compute_space)
    handler = signal.getsignal(signal.SIGALRM)
    code = cli.main(["space", "sol:2", "--timeout-sec", "1"])
    assert code == 1
    assert signal.getsignal(signal.SIGALRM) is handler
    assert capsys.readouterr().err == "error: computation exceeded 1s\n"
