"""The content-keyed stores: complexes with equal cells and coboundaries
share their reduction, cohomology groups, towers and quotient complexes,
and towers with equal presentations share their classification.

The differential test runs every catalog case of test_eigen_differential
and the tm/pd/sol grid with k, l <= 12 twice: in one warm process, and with
every cache and store emptied before each query, which computes each query
on its own objects as the per-object caches did.  Rendered limits and
ExactnessFailure nodes must agree.
"""
import importlib
import pkgutil

import pytest
from conftest import COMPLEX_AND_MAP_CACHES, CONTENT_STORES

import tilecohom
from test_eigen_differential import CASES, run_case
from tilecohom import complexes, limits, subst1d
from tilecohom.abelian import FgAbGroup, GroupHom, IntMatrix
from tilecohom.complexes import (CellularMap, CochainComplex, _reduce,
                                 cohomology, cohomology_tower,
                                 quotient_complex)
from tilecohom.errors import ExactnessFailure
from tilecohom.limits import TowerGroup, classify


def torsion_complex(names):
    # the pivot (e1, f1) leaves delta' = (2) from e2 to f2: H^2 = Z_2
    return CochainComplex(
        names, [IntMatrix.zeros(2, 1), IntMatrix.from_rows([[1, 0], [3, 2]])])


@pytest.mark.usefixtures("cold_caches")
class TestComplexStore:
    def test_equal_complexes_share_cohomology(self):
        (a, sa), (b, sb) = (
            subst1d.ap_complex_1d(subst1d.tm_substitution(k, l), 1)
            for k, l in ((5, 7), (9, 11)))
        assert a is not b and sa is not sb
        assert cohomology(a, 1) is cohomology(b, 1)
        assert _reduce(a) is _reduce(b)
        # towers are kept per self-map: the two limits differ
        ta, tb = cohomology_tower(a, sa, 1), cohomology_tower(b, sb, 1)
        assert ta is not tb and ta.group is tb.group
        assert str(classify(ta)) == "Z[1/2] + Z[1/6] + Z"
        assert str(classify(tb)) == "Z[1/2] + Z[1/10] + Z"

    def test_other_cell_names_keep_their_reduction(self):
        renamed = torsion_complex([["w"], ["x1", "x2"], ["y1", "y2"]])
        assert _reduce(renamed)[0].cells == [["w"], ["x2"], ["y2"]]
        c = torsion_complex([["v"], ["e1", "e2"], ["f1", "f2"]])
        assert c._hcache is not renamed._hcache
        assert _reduce(c)[0].cells == [["v"], ["e2"], ["f2"]]
        h2 = cohomology(c, 2)
        assert h2.torsion == (2,) and h2.free_rank == 0 and h2.ngens == 1

    def test_delta_squared_checked_for_each_new_content(self, monkeypatch):
        d0, d1 = IntMatrix.from_rows([[1]]), IntMatrix.from_rows([[1]])
        for _ in range(2):
            with pytest.raises(ValueError, match="delta o delta"):
                CochainComplex([["v"], ["e"], ["f"]], [d0, d1])
        products = []
        original = IntMatrix.__mul__

        def counting(x, y):
            products.append((x, y))
            return original(x, y)

        monkeypatch.setattr(IntMatrix, "__mul__", counting)
        good = [IntMatrix.zeros(1, 1), IntMatrix.zeros(1, 1)]
        CochainComplex([["v"], ["e"], ["f"]], good)
        assert len(products) == 1
        CochainComplex([["v"], ["e"], ["f"]], good)
        assert len(products) == 1

    def test_equal_factor_maps_share_their_quotient(self, monkeypatch):
        f, g = subst1d.factor_map_phi(5, 7), subst1d.factor_map_phi(9, 11)
        assert f is not g
        qc = quotient_complex(f)
        ranks = []
        original = complexes.rank
        monkeypatch.setattr(complexes, "rank",
                            lambda p: ranks.append(p) or original(p))
        assert quotient_complex(g) is qc
        assert ranks == []

    def test_other_maps_onto_one_target_keep_their_quotients(self):
        src = CochainComplex([["v0", "v1"], ["e0", "e1"]],
                             [IntMatrix.from_rows([[-1, 1], [1, -1]])])
        tgt = CochainComplex([["v"], ["e"]], [IntMatrix.zeros(1, 1)])
        verts = {"v0": [(1, "v")], "v1": [(1, "v")]}
        fold = CellularMap.from_assignment(
            src, tgt, [verts, {"e0": [(1, "e")], "e1": [(1, "e")]}])
        pinch = CellularMap.from_assignment(
            src, tgt, [verts, {"e0": [(1, "e")]}])
        qf, qp = quotient_complex(fold), quotient_complex(pinch)
        assert qf.proj[1] != qp.proj[1]
        assert cohomology(qf.complex, 1).torsion == (2,)
        assert cohomology(qp.complex, 1).is_trivial()


def test_equal_presentations_classify_once(monkeypatch, cold_caches):
    calls = []
    original = limits._classify

    def recording(t):
        calls.append(t)
        return original(t)

    monkeypatch.setattr(limits, "_classify", recording)

    def doubling():
        g = FgAbGroup(1, IntMatrix.zeros(1, 0))
        return TowerGroup(g, GroupHom(g, g, IntMatrix.from_rows([[2]])))

    s, t = doubling(), doubling()
    assert s.group is not t.group
    assert classify(s) is classify(t)
    assert str(classify(t)) == "Z[1/2]"
    assert len(calls) == 1


# ---- every module-level cache is emptied by the cold_caches fixture ----

def test_fixture_empties_every_cache_and_store():
    """An lru_cache function, or a module-level dict not named in capitals
    (a constant table), that the fixture misses would let one test read what
    another computed.  abelian.snf is exempt: its memo is a function of one
    matrix and holds no complex, tower or limit."""
    listed = {(m.__name__, n) for m, names in
              COMPLEX_AND_MAP_CACHES + CONTENT_STORES for n in names}
    found = set()
    for info in pkgutil.iter_modules(tilecohom.__path__):
        mod = importlib.import_module(f"tilecohom.{info.name}")
        for name, val in vars(mod).items():
            cached = hasattr(val, "cache_clear") and \
                val.__module__ == mod.__name__
            store = isinstance(val, dict) and not name.startswith("__") \
                and not name.lstrip("_").isupper()
            if cached or store:
                found.add((mod.__name__, name))
    assert found - {("tilecohom.abelian", "snf")} == listed


# ---- the warm process against a cold start per query ----

GRID = [q for k in range(1, 13) for l in range(1, 13) for q in (
    [("space", f"sol:{k + l}"), ("space", f"pd:{k},{l}"),
     ("space", f"tm:{k},{l}")]
    + [("quotient", pair) for pair in ((f"tm:{k},{l}", f"pd:{k},{l}"),
                                       (f"tm:{k},{l}", f"sol:{k + l}"),
                                       (f"pd:{k},{l}", f"sol:{k + l}"))])]


def outcome(kind, arg):
    try:
        return [e.render() for e in run_case(kind, arg)]
    except ExactnessFailure as exc:
        return "ExactnessFailure", exc.node


@pytest.mark.parametrize("queries", [CASES, GRID], ids=["catalog", "grid"])
def test_warm_matches_cold_per_query(cold_caches, queries):
    warm = [outcome(*q) for q in queries]
    cold = []
    for q in queries:
        cold_caches()
        cold.append(outcome(*q))
    assert warm == cold
