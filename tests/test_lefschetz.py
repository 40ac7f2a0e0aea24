"""Lefschetz trace oracle: the Hopf trace formula on every tower.

For a cellular self-map f of a finite complex and every power n >= 1,

    sum_k (-1)^k tr((f*_k)^n on C^k) = sum_k (-1)^k tr((f*)^n on H^k (x) Q)

(Hatcher, *Algebraic Topology*, 2.C).  The left side needs only the
cochain matrices.  The right side is read off the tower that
`cohomology_tower` builds: H^k (x) Q is Q^ngens modulo span_Q(rel), so its
trace is tr(E^n) minus the trace of E^n on span_Q(rel), with E the tower
endomorphism.  The check thus covers `cohomology`, `_express`,
`hom_on_cohomology` and `cohomology_tower` with code they do not share:
plain ints and Fractions, no `snf` and no `classify`.

On a factor map f: X -> Y whose self-maps intertwine, the cochains of X
split into f*C(Y) and the quotient complex, so the Lefschetz numbers of
the towers of `cohomology_tower` and `_quotient_cohomology_tower` add:
L(X) = L(Y) + L(Q).  That is checked on the 1-D maps, the 12 lattice edges,
the composed maps of the 11 golden path words and the hypothesis letter
codings of `test_lift_differential`.

What it cannot see: the traces of all powers fix only the characteristic
polynomial over Q of each alternating sum.  Localization bases (Z[1/2]
against Z[1/4]), whether a limit splits, and torsion, which (x) Q kills,
are invisible to it.

Fixed points.  In 1-D, -L(f^n), read off the cochain matrices of the
approximant complex, counts the tilings that the n-th power of the
substitution homeomorphism omega fixes (Anderson-Putnam, ETDS 18, 1998,
who compute the zeta function of omega from the complex), and that count
needs only the rule.  omega^n inflates about the origin and substitutes
by sigma^n.  If the origin of a fixed tiling is the vertex between tiles
a and b, then ab is legal, sigma^n(a) ends in a and sigma^n(b) starts
with b; conversely each such 2-word gives one fixed tiling, the limit of
sigma^(nk)(a).sigma^(nk)(b).  If the origin lies inside a tile a = [c, c+1)
of a rule of constant length L, that tile sits at some position j of
sigma^n(a) = [L^n c, L^n (c+1)), so c = L^n c + j, c = -j / (L^n - 1), and
-1 < c < 0 exactly when 1 <= j <= L^n - 2; each such j with
sigma^n(a)[j] = a gives one fixed tiling.  The check compares the two for
n <= 3 on `tm` and `pd` with k, l <= 12 and on `sol:2..24`, with ints
only.  It sees the self-maps' cochain matrices (collars, legal words and
the substitution images of cells) against the rule, but only through
one alternating sum per power: not how it splits between H^0 and H^1,
and nothing of the cohomology groups or of the factor maps.  The 2-D
count, on the nine chair complexes, is derived at
`test_fixed_points_of_the_chair_substitutions`.
"""
import functools
from fractions import Fraction

import pytest
from hypothesis import given, settings, target

from test_lift_differential import letter_codings
from tilecohom import catalog, subst1d, subst2d
from tilecohom.catalog import PATH_STARTS, PATH_WORDS
from tilecohom.complexes import (_quotient_cohomology_tower, cohomology_tower,
                                 quotient_complex)
from tilecohom.subst2d import (MASTER_TILES, QUADS, SCHEME_NAMES, decorate,
                               master_rule)

POWERS = 4
ONE_D = ([f"{fam}:{k},{l}" for fam in ("tm", "pd")
          for k in range(1, 7) for l in range(1, 7)]
         + [f"sol:{m}" for m in range(2, 13)])
MAP_GRID = tuple((k, l) for k in range(1, 5) for l in range(1, 5))


def _traces(a):
    """[tr(A^n) for n = 1..POWERS] of a matrix given by its rows as
    {column: nonzero entry} dicts."""
    power, out = a, []
    for n in range(POWERS):
        if n:
            power = [_times(r, a) for r in power]
        out.append(sum(r.get(i, 0) for i, r in enumerate(power)))
    return out


def _times(row, a):
    out = {}
    for j, x in row.items():
        for k, y in a[j].items():
            out[k] = out.get(k, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _echelon(vectors):
    """A reduced echelon basis of span_Q(vectors), as (pivot, vector)."""
    basis = []
    for v in vectors:
        v = [Fraction(x) for x in v]
        for p, b in basis:
            v = [x - v[p] * y for x, y in zip(v, b)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            continue
        v = [x / v[pivot] for x in v]
        basis = [(p, [x - b[pivot] * y for x, y in zip(b, v)])
                 for p, b in basis] + [(pivot, v)]
    return basis


def _sparse(rows):
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def _tower_traces(endo, rel):
    """tr(E^n on Q^ngens / span_Q(rel)) for n = 1..POWERS, or None when E
    does not keep span_Q(rel)."""
    basis = _echelon(zip(*rel))
    restricted = [[None] * len(basis) for _ in basis]
    for j, (_, b) in enumerate(basis):
        w = [sum(x * y for x, y in zip(row, b)) for row in endo]
        coords = [w[p] for p, _ in basis]
        if w != [sum(c * v[i] for c, (_, v) in zip(coords, basis))
                 for i in range(len(w))]:
            return None
        for i, c in enumerate(coords):
            restricted[i][j] = c
    return [x - y for x, y in zip(_traces(_sparse(endo)),
                                  _traces(_sparse(restricted)))]


def _alternating(per_degree):
    if any(t is None for t in per_degree):
        return None
    return [sum((-1) ** k * t[n] for k, t in enumerate(per_degree))
            for n in range(POWERS)]


def _towers(towers):
    """Each tower as (endomorphism rows, relation rows)."""
    return [(t.endo.matrix.to_rows(), t.group.rel.to_rows()) for t in towers]


def _lefschetz(towers):
    return _alternating([_tower_traces(e, rel) for e, rel in towers])


def _cochain_lefschetz(self_map):
    return _alternating([_traces(m.sparse_rows) for m in self_map.cochain])


def _space(name):
    """(cochain Lefschetz numbers, towers) of a named space's complex."""
    if name.startswith("chair:"):
        cx, sm = subst2d.ap_complex_2d(name[len("chair:"):], "forced")
    else:
        cx, sm = subst1d.system_1d(name)
    towers = [cohomology_tower(cx, sm, k) for k in range(cx.dimension + 1)]
    return _cochain_lefschetz(sm), _towers(towers)


def _map_towers(f, sx, sy):
    """The towers of X, Y and Q of a factor map."""
    qc = quotient_complex(f)
    return tuple(_towers(towers) for towers in (
        [cohomology_tower(f.source, sx, k) for k in range(f.source.dimension + 1)],
        [cohomology_tower(f.target, sy, k) for k in range(f.target.dimension + 1)],
        [_quotient_cohomology_tower(qc, sx, k)
         for k in range(qc.complex.dimension + 1)]))


def _adds_up(x, y, q):
    lx, ly, lq = _lefschetz(x), _lefschetz(y), _lefschetz(q)
    return None not in (lx, ly, lq) and lx == [a + b for a, b in zip(ly, lq)]


@pytest.mark.parametrize("name", [f"chair:{s}" for s in SCHEME_NAMES]
                         + ONE_D)
def test_hopf_trace_formula(name):
    cochains, towers = _space(name)
    assert _lefschetz(towers) == cochains


def _path_maps():
    """The composed map of each golden path word, with the self-maps of its
    start and end schemes, as (key, f, sx, sy)."""
    out = []
    for word in PATH_WORDS:
        start = PATH_STARTS[word]
        end = subst2d.canonical_realization(start, word)[-1][1]
        sx, sy = (subst2d.ap_complex_2d(s, "forced")[1] for s in (start, end))
        out.append((f"{start}:{word}",
                    subst2d.compose_path(start, word, "forced"), sx, sy))
    return out


def test_factor_maps_add_up():
    maps = catalog.catalog_factor_maps(MAP_GRID) + _path_maps()
    assert len(maps) == 3 * len(MAP_GRID) + 12 + len(PATH_WORDS)
    for key, f, sx, sy in maps:
        assert _adds_up(*_map_towers(f, sx, sy)), key


def test_letter_codings_add_up():
    """L(X) = L(Y) + L(Q) on hypothesis letter codings.  Most have
    L(Q) = 0, so the search is steered to large |L(Q)|; some must have
    L(Q) != 0, and on those a negated quotient tower must fail the check."""
    seen = []

    @settings(max_examples=100, deadline=None, database=None)
    @given(letter_codings())
    def check(maps):
        x, y, q = _map_towers(*maps)
        lq = _lefschetz(q)
        assert lq is not None and _adds_up(x, y, q)
        target(float(sum(map(abs, lq))))
        if any(lq):
            seen.append(_adds_up(x, y, [([[-v for v in row] for row in e], rel)
                                        for e, rel in q]))

    check()
    assert seen and not all(seen)


def test_nontrivial_traces():
    # the oracle compares numbers that move with n, not zeros
    cochains, _ = _space("chair:X,0")
    assert len(set(cochains)) == POWERS


# ---- the check fails on a mutated tower ----

def test_negated_endomorphism_fails():
    cochains, towers = _space("chair:X,0")
    endo, rel = towers[1]
    towers[1] = [[-x for x in row] for row in endo], rel
    assert _lefschetz(towers) != cochains


def test_swapped_rows_fail():
    cochains, towers = _space("tm:3,1")
    endo, rel = towers[1]
    assert len(endo) > 1
    towers[1] = [endo[1], endo[0]] + endo[2:], rel
    assert _lefschetz(towers) != cochains


def test_dropped_quotient_degree_fails():
    f, sx, sy = subst1d.factor_map_1d("tm:3,1", "sol:4")
    x, y, q = _map_towers(f, sx, sy)
    assert _adds_up(x, y, q)
    assert not _adds_up(x, y, q[:-1])


# ---- fixed points of the substitution homeomorphism (1-D) ----

FIXED_POWERS = 3
RULES = {"tm": subst1d.tm_substitution, "pd": subst1d.pd_substitution,
         "sol": subst1d.solenoid_substitution}
FIXED_SPACES = {"tm": [f"tm:{k},{l}" for k in range(1, 13)
                       for l in range(1, 13)],
                "pd": [f"pd:{k},{l}" for k in range(1, 13)
                       for l in range(1, 13)],
                "sol": [f"sol:{m}" for m in range(2, 25)]}


def _rule(name):
    family, params = name.split(":")
    return RULES[family](*map(int, params.split(","))).rule


def _legal_pairs(rule):
    """The legal 2-words: those inside an image sigma(a), closed under
    taking the 2-words inside sigma(ab) of a legal ab."""
    pairs = {w[i:i + 2] for w in rule.values() for i in range(len(w) - 1)}
    todo = list(pairs)
    while todo:
        a, b = todo.pop()
        w = rule[a] + rule[b]
        for i in range(len(w) - 1):
            if w[i:i + 2] not in pairs:
                pairs.add(w[i:i + 2])
                todo.append(w[i:i + 2])
    return pairs


def _fixed_tilings(rule, interior=True):
    """[number of tilings fixed by omega^n for n = 1..FIXED_POWERS], from
    the rule alone (see the module docstring)."""
    pairs, power, out = _legal_pairs(rule), dict(rule), []
    for n in range(FIXED_POWERS):
        if n:
            power = {a: tuple(x for c in w for x in rule[c])
                     for a, w in power.items()}
        count = sum(power[a][-1] == a and power[b][0] == b for a, b in pairs)
        if interior and len({len(w) for w in rule.values()}) == 1:
            count += sum(w[1:-1].count(a) for a, w in power.items())
        out.append(count)
    return out


def _minus_lefschetz(name):
    """[-L(f^n) for n = 1..FIXED_POWERS] of the space's self-map, from the
    traces of its cochain matrices."""
    return [-x for x in _cochain_lefschetz(subst1d.system_1d(name)[1])
            [:FIXED_POWERS]]


@pytest.mark.parametrize("family", sorted(FIXED_SPACES))
def test_fixed_points_of_the_substitution(family):
    for name in FIXED_SPACES[family]:
        assert _minus_lefschetz(name) == _fixed_tilings(_rule(name)), name


def test_fixed_point_count_needs_its_interior_positions():
    # the same count without the tile-centred fixed points fails the check
    for name in ("tm:2,1", "pd:3,2", "sol:3"):
        assert _minus_lefschetz(name) != _fixed_tilings(_rule(name), False)


# ---- fixed points of the substitution homeomorphism (2-D) ----

CHAIR_POWERS = 3
MASTER = {t: master_rule(t) for t in MASTER_TILES}


def _inflate(square, rule):
    """The inflation of a patch {(x, y): tile}, y pointing north."""
    return {(2 * x + qx, 2 * y + qy): child for (x, y), t in square.items()
            for (qx, qy), child in rule[t].items()}


def _windows(square, side, m):
    """The m x m windows of a side x side patch, each as a patch."""
    return [{(i, j): square[x + i, y + j] for i in range(m) for j in range(m)}
            for x in range(side - m + 1) for y in range(side - m + 1)]


def _frozen(square):
    return tuple(sorted(square.items()))


def _master_windows():
    """The legal 3 x 3 and 4 x 4 master windows.  A legal m-square lies in
    the inflation of a legal square of side m // 2 + 1 (of a tile, for a
    2-square), so the 2-squares close under inflation from the tiles and
    the 3- and 4-squares are windows of the inflated 2- and 3-squares."""
    def grow(squares, side, m):
        return {_frozen(w) for s in squares
                for w in _windows(_inflate(dict(s), MASTER), 2 * side, m)}

    two = grow([(((0, 0), t),) for t in MASTER_TILES], 1, 2)
    frontier = two
    while frontier:
        frontier = grow(frontier, 2, 2) - two
        two |= frontier
    three = grow(two, 2, 3)
    return three, grow(three, 3, 4)


MASTER_3, MASTER_4 = _master_windows()


@functools.cache
def _collared(name):
    """The scheme's once-collared tiles, as (rule, legal 2 x 2 blocks): a
    collared tile is the q-image of a legal 3 x 3 master window, keyed by
    its patch, and a block is (SW, SE, NW, NE)."""
    q = decorate(name)

    def collar(square, x, y):
        return tuple(q(square[x + i, y + j])
                     for j in (-1, 0, 1) for i in (-1, 0, 1))

    rule = {}
    for w in MASTER_3:
        kids = _inflate(dict(w), MASTER)
        rule[collar(dict(w), 1, 1)] = {
            quad: collar(kids, 2 + quad[0], 2 + quad[1]) for quad in QUADS}
    blocks = {tuple(collar(dict(w), x, y) for y in (1, 2) for x in (1, 2))
              for w in MASTER_4}
    return rule, blocks


def _fixed_chairs(name, edges=True, vertices=True):
    """[number of tilings fixed by omega^n for n = 1..CHAIR_POWERS], from
    the master rule and the scheme's coarsening alone (see
    test_fixed_points_of_the_chair_substitutions)."""
    rule, blocks = _collared(name)
    power, out = {c: {(0, 0): c} for c in rule}, []
    for n in range(1, CHAIR_POWERS + 1):
        power = {c: _inflate(p, rule) for c, p in power.items()}
        top, inner = 2 ** n - 1, range(1, 2 ** n - 1)
        count = sum(p[x, y] == c for c, p in power.items()
                    for x in inner for y in inner)
        if edges:
            count += sum(power[a][top, i] == a and power[b][0, i] == b
                         for a, b in {(sw, se) for sw, se, _, _ in blocks}
                         for i in inner)
            count += sum(power[a][i, top] == a and power[b][i, 0] == b
                         for a, b in {(sw, nw) for sw, _, nw, _ in blocks}
                         for i in inner)
        if vertices:
            count += sum(power[sw][top, top] == sw and power[se][0, top] == se
                         and power[nw][top, 0] == nw and power[ne][0, 0] == ne
                         for sw, se, nw, ne in blocks)
        out.append(count)
    return out


def _chair_lefschetz(name, depth):
    """[L(f^n) for n = 1..CHAIR_POWERS] of the scheme's complex at a collar
    depth; only depth 1 has a public policy ("forced")."""
    sm = (subst2d.ap_complex_2d(name, "forced") if depth == 1
          else subst2d._ap_complex_2d_depth(name, depth))[1]
    return _cochain_lefschetz(sm)[:CHAIR_POWERS]


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_fixed_points_of_the_chair_substitutions(name):
    """L(f^n) of the collared chair complexes counts the tilings that
    omega^n fixes (Anderson-Putnam, ETDS 18, 1998), and the count needs
    only the rule.

    A fixed point of omega^n, which inflates the plane by 2^n about the
    origin, has index sign det(I - 2^n I) = +1 in 2-D (-1 in 1-D, hence
    the -L there), so L(f^n) is the number of fixed tilings.  The count
    runs on once-collared tiles: the q-images of legal 3 x 3 master
    windows, on which the rule of every scheme descends, and whose tiling
    space is conjugate to the scheme's.  Every tiling is a translate of a
    square grid, so a fixed tiling is fixed by where the origin sits:

    - inside a tile c at position x + [0, 1]^2: c sits at some position j
      of sigma^n(c), so x = 2^n x + j, x = -j / (2^n - 1), and the origin
      is inside exactly when 1 <= j_x, j_y <= 2^n - 2; each such j with
      sigma^n(c)[j] = c gives one;
    - inside an edge between a legal domino a|b: the edge lies on x = 0
      and its row on y = -j / (2^n - 1), 1 <= j <= 2^n - 2, with a at the
      east border of sigma^n(a) and b at the west border of sigma^n(b) in
      row j; vertical dominoes count the same way;
    - at a vertex: each legal 2 x 2 block whose four tiles sit at the
      facing corners of their own n-supertiles gives one.

    Each gives one tiling, the union of the nested supertiles about the
    origin.  The check runs for n <= 3 on the nine schemes at collar
    depths 1 and 2; depth 2 is reached through
    `subst2d._ap_complex_2d_depth`, as is the depth-0 complex of the
    mutation below.  It sees the self-maps' cochain matrices (collars,
    legal contacts and the substitution images of cells) against the
    rule, but only through one alternating sum per power: not how it
    splits between degrees, and nothing of the factor maps beyond
    L(Q) = L(X) - L(Y).  Nor does it see two cells whose images are
    swapped, as traces read only the cells that map to themselves."""
    count = _fixed_chairs(name)
    for depth in (1, 2):
        assert _chair_lefschetz(name, depth) == count, depth


def test_chair_fixed_point_counts():
    # reference values: 4^n + 1 on X,0, (2^n - 1)^2 on the one-tile 0,0
    assert _fixed_chairs("X,0") == [5, 17, 65]
    assert _fixed_chairs("0,0") == [1, 9, 49]


@pytest.mark.parametrize("term", ["edges", "vertices"])
def test_chair_count_needs_its_edges_and_vertices(term):
    # the count without one of its terms fails the check on every scheme
    for name in SCHEME_NAMES:
        assert _chair_lefschetz(name, 1) != _fixed_chairs(name, **{term: False})


def test_uncollared_chair_complex_fails():
    # X,+ does not force its border: its depth-0 complex has the wrong
    # Lefschetz numbers
    assert _fixed_chairs("X,+") == [8, 24, 80]
    assert _chair_lefschetz("X,+", 0) == [10, 26, 82]
