"""Differential tests: the limit layer's finite-stage answers against the
path they replaced (`limits_reference.eventual_restriction` and
`limits_reference.limit_les`).

`limit_les` and `lemma1_shortcut` settle a defect ker/im at the finite
stage when ker already lies in im (`limits._dies_in_limit`), and
`eventual_restriction` keeps a tower that is trivial or whose endomorphism
is already injective.  Every sequence and every defect that the catalog
cases, the catalog factor maps (with the Lemma 1 shortcut) and the tm/pd/sol
grid with k, l <= 12 give is recorded and answered by both.  Hand-built
sequences reach the fallback, and random injective towers check that
classify sees a tower as it would see its image.
"""
import pytest
from hypothesis import given, settings, strategies as st

import limits_reference as ref
from test_eigen_differential import CASES, run_case
from tilecohom import complexes, limits
from tilecohom.abelian import FgAbGroup, GroupHom, IntMatrix, solve_matrix
from tilecohom.catalog import (catalog_factor_maps, compute_quotient,
                               compute_space)
from tilecohom.complexes import lemma1_shortcut, les_quotient
from tilecohom.errors import ExactnessFailure
from tilecohom.limits import TowerGroup, subquotient_tower


def recorded(monkeypatch, run):
    """The (terms, maps, names) of every limit_les call and the
    (t, sub, rel) of every _dies_in_limit question that run() makes."""
    sequences, defects = [], []
    les, dies = limits.limit_les, limits._dies_in_limit

    def recording_les(terms, maps, names=None):
        sequences.append((terms, maps, names))
        return les(terms, maps, names)

    def recording_dies(t, sub, rel):
        defects.append((t, sub, rel))
        return dies(t, sub, rel)

    monkeypatch.setattr(complexes, "limit_les", recording_les)
    monkeypatch.setattr(limits, "_dies_in_limit", recording_dies)
    monkeypatch.setattr(complexes, "_dies_in_limit", recording_dies)
    run()
    monkeypatch.undo()
    return sequences, defects


def recorded_towers(monkeypatch, run):
    """Every tower that run() asks classify about."""
    seen = []
    original = limits._classify

    def recording(t):
        seen.append(t)
        return original(t)

    monkeypatch.setattr(limits, "_classify", recording)
    run()
    monkeypatch.undo()
    assert seen
    return seen


def outcome(les, terms, maps, names=None):
    """The rendered limits, or the node and message of the failure."""
    try:
        return [e.render() for e in les(terms, maps, names)]
    except ExactnessFailure as exc:
        return exc.node, str(exc)


def fresh(terms):
    """The same towers without their memoised classification."""
    return [TowerGroup(t.group, t.endo) for t in terms]


def assert_same(sequences, defects):
    assert sequences
    for terms, maps, names in sequences:
        assert outcome(limits.limit_les, fresh(terms), maps, names) == \
            outcome(ref.limit_les, terms, maps, names)
    for t, sub, rel in defects:
        assert limits._dies_in_limit(t, sub, rel) == ref.eventual_restriction(
            subquotient_tower(t, sub, rel)).group.is_trivial()


@pytest.mark.usefixtures("cold_caches")
@pytest.mark.parametrize("kind,arg", CASES, ids=[str(a) for _, a in CASES])
def test_catalog_sequences_match_reference(monkeypatch, kind, arg):
    if kind == "space":
        # spaces build no sequence; their towers go through classify
        for t in recorded_towers(monkeypatch, lambda: run_case(kind, arg)):
            assert limits.classify(TowerGroup(t.group, t.endo)).render() == \
                ref.classify(t).render()
        return
    assert_same(*recorded(monkeypatch, lambda: run_case(kind, arg)))


@pytest.mark.usefixtures("cold_caches")
def test_factor_maps_match_reference(monkeypatch):
    def run():
        for _key, f, sx, sy in catalog_factor_maps():
            les_quotient(f, sx, sy)
            lemma1_shortcut(f, sx, sy)

    sequences, defects = recorded(monkeypatch, run)
    assert len(sequences) == 15 + 12
    # the H^0_Q kernel towers of tm:1,1, tm:2,1 and tm:2,2 -> pd die only
    # in the limit
    assert sum(solve_matrix(rel, sub) is None for _, sub, rel in defects) == 3
    assert_same(sequences, defects)


@pytest.mark.usefixtures("cold_caches")
def test_grid_matches_reference(monkeypatch):
    def run():
        for k in range(1, 13):
            for l in range(1, 13):
                sol, pd, tm = f"sol:{k + l}", f"pd:{k},{l}", f"tm:{k},{l}"
                for name in (sol, pd, tm):
                    compute_space(name)
                for fine, coarse in ((tm, pd), (tm, sol), (pd, sol)):
                    compute_quotient(fine, coarse)

    sequences, defects = recorded(monkeypatch, run)
    assert len(sequences) == 3 * 144
    # every node of every grid sequence is settled at the finite stage
    assert all(solve_matrix(rel, sub) is not None for _, sub, rel in defects)
    assert_same(sequences, defects)


# ---- hand-built sequences that reach the fallback ----

def z_tower(endo, torsion=0):
    """Z (or Z_torsion) with multiplication by endo."""
    g = FgAbGroup(1, IntMatrix.from_rows([[torsion]]) if torsion else None)
    return TowerGroup(g, GroupHom(g, g, IntMatrix.from_rows([[endo]])))


def times(a, b, c):
    return GroupHom(a.group, b.group, IntMatrix.from_rows([[c]]))


def sequence(endos, factors, torsions=None):
    terms = [z_tower(e, d) for e, d in zip(endos, torsions or [0] * 3)]
    return terms, [times(a, b, c)
                   for a, b, c in zip(terms, terms[1:], factors)]


HAND_BUILT = {
    # 0 out of Z with endo 0: ker Z is not in im 0 at the stage, but the
    # defect Z under 0 dies in the limit (so does the last node's)
    "zero-endo": (sequence([0, 0], [0]), ["0", "0"]),
    # Z --2--> Z under 2: the last node's defect Z/2 under 2 dies
    "doubling": (sequence([2, 2], [2]), ["Z[1/2]", "Z[1/2]"]),
    # 0 out of Z with the identity: the defect Z never dies
    "zero-map": (sequence([1, 1], [0]), "A"),
    # Z --1--> Z --0--> Z under the identity: exact until the last node
    "last-node": (sequence([1, 1, 1], [1, 0]), "C"),
    # Z_3 --3--> Z_9 --0--> Z_3 under 2: the middle defect Z_3 under 2 is
    # an automorphism
    "torsion": (sequence([2, 2, 2], [3, 0], [3, 9, 3]), "B"),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_sequences_match_reference(monkeypatch, name):
    (terms, maps), want = HAND_BUILT[name]
    names = "ABC"[:len(terms)]
    got = []
    _, defects = recorded(monkeypatch, lambda: got.append(
        outcome(limits.limit_les, terms, maps, names)))
    assert got[0] == outcome(ref.limit_les, fresh(terms), maps, names)
    assert got[0] == want if isinstance(want, list) else got[0][0] == want
    # the last defect asked about is one the stage does not settle
    _, sub, rel = defects[-1]
    assert solve_matrix(rel, sub) is None


# ---- random towers whose endomorphism is injective ----

DIAGONAL = (1, -1, 2, -2, 3, 4, 5, 6, -6, 10, 15)


@st.composite
def injective_towers(draw):
    """Z^f + Z_d1 + ... + Z_dr in a presentation mixed by a unimodular P.

    The endo is lower block-triangular: a nonsingular upper triangular
    block on the free part (diagonal from DIAGONAL), arbitrary entries from
    the free part into the torsion, and units mod d_i on the torsion
    diagonal, so it maps the relations into themselves and is injective.
    """
    f = draw(st.integers(1, 4))
    ds = draw(st.lists(st.sampled_from((2, 3, 4, 6, 9)), max_size=2))
    n = f + len(ds)
    m = [[0] * n for _ in range(n)]
    for i in range(f):
        m[i][i] = draw(st.sampled_from(DIAGONAL))
        for j in range(i + 1, f):
            m[i][j] = draw(st.integers(-3, 3))
    for i, d in enumerate(ds, start=f):
        for j in range(f):
            m[i][j] = draw(st.integers(-3, 3))
        m[i][i] = draw(st.sampled_from([u for u in range(1, d) if
                                        _coprime(u, d)]))
    rel = [[0] * len(ds) for _ in range(n)]
    for c, d in enumerate(ds):
        rel[f + c][c] = d
    p = pinv = IntMatrix.identity(n)
    for _ in range(draw(st.integers(0, 6)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-2, 2))
        e = [[int(r == s) for s in range(n)] for r in range(n)]
        einv = [row[:] for row in e]
        e[i][j], einv[i][j] = c, -c
        p = IntMatrix.from_rows(e) * p
        pinv = pinv * IntMatrix.from_rows(einv)
    relm = p * IntMatrix(n, len(ds), [x for row in rel for x in row])
    g = FgAbGroup(n, relm)
    return TowerGroup(g, GroupHom(g, g, p * IntMatrix.from_rows(m) * pinv))


def _coprime(a, b):
    while b:
        a, b = b, a % b
    return a == 1


@settings(max_examples=200, deadline=None)
@given(injective_towers())
def test_injective_tower_classifies_like_its_image(t):
    assert t.endo.is_injective()
    assert limits.eventual_restriction(t) is t
    assert limits.classify(t).render() == \
        ref.classify(TowerGroup(t.group, t.endo)).render()


def test_trivial_tower_is_kept():
    t = z_tower(5, torsion=1)
    assert t.group.ngens == 1 and t.group.is_trivial()
    assert limits.eventual_restriction(t) is t
