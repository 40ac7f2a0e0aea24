"""End-to-end acceptance gate.

One test (or parametrized family) per headline guarantee: the 1-D grid
formulas, the quotient formulas, the x2 exact sequence, the shortcut/LES
agreement, the lattice edge rows and composed-path rows with their
realization- and path-independence, the nine absolute and nine
solenoid-relative tables, the randomized property suites, and the negative
controls.
"""
import time

import pytest
from hypothesis import given, settings, strategies as st

from tilecohom.abelian import (FgAbGroup, GroupHom, IntMatrix, kernel_basis,
                               snf)
from tilecohom.catalog import (DEFAULT_GRID, PATH_STARTS, PATH_WORDS,
                               FactorPath, SpaceId, catalog_factor_maps,
                               compute_path, compute_quotient, compute_space,
                               consistency_cross_checks, expected_1d_quotient,
                               expected_1d_space, golden_lookup,
                               lemma1_agreement, verify_all)
from tilecohom.complexes import (CellularMap, CochainComplex, cohomology,
                                 pullback)
from tilecohom.errors import (ExactnessFailure, NotInjectiveOnCochains,
                              NotWellDefined)
from tilecohom.limits import GroupExpr, TowerGroup, classify, iso_check, \
    limit_les, radical
from tilecohom.subst1d import (Substitution1D, _quotient_tower,
                               ap_complex_1d, factor_map_phi, factor_map_psi,
                               factor_map_psi_phi, pd_system, tm_system,
                               verify_times2_ses)
from tilecohom.subst2d import (compose_realization, descend_rule,
                               lattice_edges, path_realizations)
from tilecohom import subst2d


# ---- 1. absolute 1-D cohomology on the parameter grid ----

@pytest.mark.parametrize("kl", DEFAULT_GRID)
def test_absolute_1d_grid(kl):
    k, l = kl
    t0 = time.monotonic()
    for fam in ("sol", "pd", "tm"):
        name = f"sol:{k + l}" if fam == "sol" else f"{fam}:{k},{l}"
        sid = SpaceId.parse(name)
        computed = compute_space(name)
        expected = expected_1d_space(sid)
        assert len(computed) == 2
        for c, e in zip(computed, expected):
            assert iso_check(c, e), (name, str(c), str(e))
    assert time.monotonic() - t0 < 5.0


# ---- 2. the three quotient formulas, including degenerate k = l ----

@pytest.mark.parametrize("kl", DEFAULT_GRID)
def test_quotient_formulas_1d(kl):
    k, l = kl
    pairs = ((f"tm:{k},{l}", f"pd:{k},{l}"),
             (f"tm:{k},{l}", f"sol:{k + l}"),
             (f"pd:{k},{l}", f"sol:{k + l}"))
    for fine, coarse in pairs:
        t0 = time.monotonic()
        computed = compute_quotient(fine, coarse)
        expected = expected_1d_quotient(SpaceId.parse(fine),
                                        SpaceId.parse(coarse))
        for c, e in zip(computed, expected):
            assert iso_check(c, e), (fine, coarse, str(c), str(e))
        assert time.monotonic() - t0 < 5.0
    if k == l:
        # the Z[1/0] factor degenerates to nothing
        q = compute_quotient(f"tm:{k},{l}", f"sol:{k + l}")
        assert str(q[1]) == "Z"


# ---- 3. the x2 short exact sequence on every grid pair ----

@pytest.mark.parametrize("kl", DEFAULT_GRID)
def test_times2_ses_exact(kl):
    a, b, c = verify_times2_ses(*kl)
    k, l = kl
    assert iso_check(a, expected_1d_quotient(
        SpaceId.parse(f"pd:{k},{l}"), SpaceId.parse(f"sol:{k + l}"))[1])
    assert iso_check(c, expected_1d_quotient(
        SpaceId.parse(f"tm:{k},{l}"), SpaceId.parse(f"pd:{k},{l}"))[1])


# ---- 4. shortcut agrees with the long exact sequence everywhere ----

def test_lemma1_agreement_all_catalog_maps():
    maps = catalog_factor_maps()
    assert len(maps) == 15 + 12
    for key, f, sx, sy in maps:
        rep = lemma1_agreement(key, f, sx, sy)
        assert rep["h0_match"], key
        assert rep["top_match"], key


# ---- 5. lattice edge rows, identical across realizations of a label ----

def test_edge_rows_and_realization_independence():
    by_label = {}
    for label, fine, coarse in lattice_edges():
        t0 = time.monotonic()
        q = compute_quotient(f"chair:{fine}", f"chair:{coarse}",
                             collar="forced")
        assert time.monotonic() - t0 < 600.0
        by_label.setdefault(label, []).append(
            ((fine, coarse), tuple(e.key() for e in q)))
    assert set(by_label) == {"A", "B", "C"}
    for label, rows in by_label.items():
        keys = {row for _, row in rows}
        assert len(keys) == 1, (label, rows)
        expected = golden_lookup("path", label)
        assert keys == {tuple(expected[k].key() for k in range(3))}, label


# ---- 6. composed paths: all eight multi-step rows, path independence ----

MULTI_WORDS = tuple(w for w in PATH_WORDS if len(w) > 1)


@pytest.mark.parametrize("word", MULTI_WORDS)
def test_composed_path_rows(word):
    start = PATH_STARTS[word]
    computed = compute_path(FactorPath(start, word))
    expected = golden_lookup("path", word)
    for k in range(3):
        assert iso_check(computed[k], expected[k]), (word, k)
    if "AC" in word:
        assert 3 in computed[2].torsion_parts


def test_every_realization_of_every_word_agrees():
    for word in PATH_WORDS:
        start = PATH_STARTS[word]
        rows = set()
        for real in path_realizations(start, word):
            f = compose_realization(real)
            _, sx = subst2d.ap_complex_2d(real[0][0], "forced")
            _, sy = subst2d.ap_complex_2d(real[-1][1], "forced")
            from tilecohom.complexes import les_quotient
            res = les_quotient(f, sx, sy)
            rows.add(tuple(e.key() for e in res["Q"]))
        assert len(rows) == 1, word


def test_path_independence_ab_ba():
    rows = {tuple(str(e) for e in compute_path(FactorPath("X,+", w)))
            for w in ("AB", "BA")}
    assert len(rows) == 1


# ---- 7. the nine spaces and nine solenoid-relative quotients ----

@pytest.mark.parametrize("scheme", subst2d.SCHEME_NAMES)
def test_nine_chair_spaces(scheme):
    computed = compute_space(f"chair:{scheme}")
    expected = golden_lookup("space", f"chair:{scheme}")
    for k in range(3):
        assert iso_check(computed[k], expected[k]), (scheme, k)


def test_z_one_quarter_entry():
    # the trivial scheme's top group, quoted as (1/3)Z[1/4] ~ Z[1/4] ~ Z[1/2]
    h = compute_space("chair:0,0")
    assert iso_check(GroupExpr.parse("Z[1/4]"), h[2])


@pytest.mark.parametrize("scheme", subst2d.SCHEME_NAMES)
def test_nine_rel_solenoid_quotients(scheme):
    if scheme == "0,0":
        q = compute_quotient("chair:0,0", "chair:0,0")
        assert all(e.is_zero() for e in q)
        return
    computed = compute_quotient(f"chair:{scheme}", "chair:0,0")
    expected = golden_lookup("quotient", f"chair:{scheme}->chair:0,0")
    for k in range(3):
        assert iso_check(computed[k], expected[k]), (scheme, k)


def test_cross_checks():
    report = consistency_cross_checks()
    assert report and all(r["ok"] for r in report)


def test_verify_all_clean():
    report = verify_all("all")
    assert report and all(r["ok"] for r in report)


# ---- 8. randomized property suites (>= 1000 cases in this file alone) ----

small_matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n,
                                    max_size=n),
                           min_size=m, max_size=m)))


@settings(max_examples=400)
@given(small_matrices)
def test_prop_snf_contract(rows):
    a = IntMatrix.from_rows(rows)
    s = snf(a)
    assert s.U * a * s.V == s.D
    assert s.U * s.Uinv == IntMatrix.identity(a.rows)
    assert s.V * s.Vinv == IntMatrix.identity(a.cols)
    inv = s.invariant_factors
    for x, y in zip(inv, inv[1:]):
        assert y % x == 0


@settings(max_examples=150)
@given(small_matrices, st.lists(st.lists(st.integers(-3, 3), min_size=1,
                                         max_size=3), min_size=1, max_size=3))
def test_prop_delta_delta_zero(rows, brows):
    # d0 = incidence-style matrix; d1 rows drawn from the kernel of d0^T
    d0 = IntMatrix.from_rows(rows)
    k = kernel_basis(d0.transpose())
    b = IntMatrix.from_rows([(r * k.cols)[:k.cols] for r in brows]) \
        if k.cols else IntMatrix.zeros(len(brows), 0)
    d1 = b * k.transpose()
    assert (d1 * d0).is_zero()
    cx = CochainComplex(
        [[f"v{i}" for i in range(d0.cols)],
         [f"e{i}" for i in range(d0.rows)],
         [f"f{i}" for i in range(d1.rows)]], [d0, d1])
    # Euler characteristic in ranks
    euler = sum((-1) ** k * cx.n_cells(k) for k in range(3))
    hs = [cohomology(cx, k) for k in range(3)]
    assert sum((-1) ** k * hs[k].free_rank for k in range(3)) == euler


@settings(max_examples=200)
@given(st.integers(1, 6), st.integers(1, 6))
def test_prop_les_exact_random_ses(a, b):
    def tg(rows):
        g = FgAbGroup(len(rows))
        return TowerGroup(g, GroupHom(g, g, IntMatrix.from_rows(rows)))
    ta, tb = tg([[a]]), tg([[b]])
    tab = tg([[a, 0], [0, b]])
    zg = FgAbGroup(0)
    tz = TowerGroup(zg, GroupHom.zero(zg, zg))
    alpha = GroupHom(ta.group, tab.group, IntMatrix.from_rows([[1], [0]]))
    beta = GroupHom(tab.group, tb.group, IntMatrix.from_rows([[0, 1]]))
    limit_les([tz, ta, tab, tb, tz],
              [GroupHom.zero(zg, ta.group), alpha, beta,
               GroupHom.zero(tb.group, zg)])


@settings(max_examples=200)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
       st.integers(1, 3))
def test_prop_cofinality(a, b, d, j):
    g = FgAbGroup(2)
    t = TowerGroup(g, GroupHom(g, g, IntMatrix.from_rows([[a, b], [0, d]])))
    e1, e2 = classify(t), classify(t.power(j))
    if e1.unclassified is None and e2.unclassified is None:
        assert e1 == e2


@settings(max_examples=200)
@given(st.integers(-12, 12), st.integers(2, 12))
def test_prop_classifier_normal_form(a, d):
    g = FgAbGroup(1)
    gt = FgAbGroup(1, IntMatrix.from_rows([[d]]))
    for t in (TowerGroup(g, GroupHom(g, g, IntMatrix.from_rows([[a]]))),
              TowerGroup(gt, GroupHom(gt, gt, IntMatrix.from_rows([[a]]),
                                      check=False))):
        e = classify(t)
        if e.unclassified is None:
            for m, _ in e.localization_parts:
                assert m == radical(m) and m not in (0, 1)


@st.composite
def primitive_substitutions(draw):
    n = draw(st.integers(2, 3))
    alphabet = tuple("abc"[:n])
    rule = {a: tuple(draw(st.lists(st.sampled_from(alphabet), min_size=2,
                                   max_size=3))) for a in alphabet}
    s = Substitution1D(alphabet, rule)
    if not s.is_primitive():
        s = Substitution1D(alphabet, {a: rule[a] + alphabet
                                      for a in alphabet})
    return s


@settings(max_examples=60, deadline=None)
@given(primitive_substitutions())
def test_prop_collar_invariance_1d(s):
    e1 = classify(cohomology_tower_1(s, 1))
    e2 = classify(cohomology_tower_1(s, 2))
    if e1.unclassified is None and e2.unclassified is None:
        assert iso_check(e1, e2)


def cohomology_tower_1(s, depth):
    from tilecohom.complexes import cohomology_tower
    cx, sm = ap_complex_1d(s, depth)
    return cohomology_tower(cx, sm, 1)


# ---- 9. negative controls ----

def test_broken_arrow_identification_rejected():
    def q(tile):
        a, lab = tile
        return ("N" if a in ("NE", "NW") else a, lab)
    with pytest.raises(NotWellDefined):
        descend_rule(q)


def test_omitted_times2_map_breaks_exactness():
    k, l = 1, 1
    phi, psi, psiphi = (factor_map_phi(k, l), factor_map_psi(k, l),
                        factor_map_psi_phi(k, l))
    _, s_tm = tm_system(k, l)
    _, s_pd = pd_system(k, l)
    _, t1 = _quotient_tower(psi, s_pd, 1)
    qc2, t2 = _quotient_tower(psiphi, s_tm, 1)
    qc3, t3 = _quotient_tower(phi, s_tm, 1)
    beta = GroupHom(t2.group, t3.group,
                    _hom_matrix(qc3.proj[1] * qc2.section[1], t2, t3))
    zg = FgAbGroup(0)
    tz = TowerGroup(zg, GroupHom.zero(zg, zg))
    with pytest.raises(ExactnessFailure):
        limit_les([tz, t1, t2, t3, tz],
                  [GroupHom.zero(zg, t1.group),
                   GroupHom.zero(t1.group, t2.group),  # the x2 map, omitted
                   beta, GroupHom.zero(t3.group, zg)])


def _hom_matrix(p, ta, tb):
    from tilecohom.complexes import hom_on_cohomology
    return hom_on_cohomology(p, ta.group, tb.group).matrix


def test_noninjective_pullback_rejected():
    cx = CochainComplex([["v"], ["e"]], [IntMatrix.zeros(1, 1)])
    z = CellularMap(cx, cx, [IntMatrix.from_rows([[1]]),
                             IntMatrix.from_rows([[0]])])
    with pytest.raises(NotInjectiveOnCochains):
        pullback(z, require_injective=True)
