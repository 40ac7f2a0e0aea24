"""Named registry of spaces, the factor lattice, and golden result tables.

Space naming grammar: "tm:k,l", "pd:k,l", "sol:m", "chair:X,+" and so on.
The golden table lives in data/golden.txt (one record per space/pair/path
and degree); verify_all recomputes every entry and reports mismatches as
data rather than exceptions.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

from . import subst1d, subst2d
from .complexes import cohomology_tower, lemma1_shortcut, les_quotient
from .errors import InvalidPath
from .limits import GroupExpr, classify, radical
from .subst2d import SpaceId

DEFAULT_GRID = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2))
PATH_WORDS = ("A", "B", "C", "AA", "AB", "AAB", "BC", "AC", "AAC", "BAC",
              "ABAC")
# canonical starting scheme for each path word of the golden table
PATH_STARTS = {"A": "X,+", "B": "X,+", "C": "/,0", "AA": "X,+", "AB": "X,+",
               "AAB": "X,+", "BC": "0,+", "AC": "X,0", "AAC": "X,-",
               "BAC": "/,+", "ABAC": "X,+"}
CHAIR_SPACES = tuple(f"chair:{s}" for s in subst2d.SCHEME_NAMES)


@dataclass(frozen=True)
class FactorPath:
    """A path in the two-dimensional factor lattice."""

    start: str
    word: str


@dataclass(frozen=True)
class GoldenRecord:
    kind: str
    key: str
    degree: int
    expr: GroupExpr
    flags: tuple


@functools.lru_cache(maxsize=None)
def golden_table() -> tuple:
    text = (resources.files("tilecohom") / "data" / "golden.txt") \
        .read_text(encoding="utf-8")
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        kind, key, degree, expr, flags = line.split("|")
        records.append(GoldenRecord(kind, key, int(degree),
                                    GroupExpr.parse(expr),
                                    tuple(f for f in flags.split(",") if f)))
    return tuple(records)


def golden_lookup(kind: str, key: str):
    """Expected expressions by degree for one golden entry."""
    out = {}
    for rec in golden_table():
        if rec.kind == kind and rec.key == key:
            out[rec.degree] = rec.expr
    return out


# ---- expected values from the closed formulas (arbitrary parameters) ----

def _tm_h1_splits(k: int, l: int) -> bool:
    """Is H^1(tm:k,l) the direct sum Z[1/(k+l)] + Z[1/|k-l|] + Z?

    The two localized eigenlines span an index-2 sublattice.  When k+l is
    odd, |k-l| > 1 and neither prime set of k+l and |k-l| contains the
    other, 2 is inverted in neither line and (u1+u2)/2 is divisible by
    neither base, so the limit is not a direct sum of localizations.
    Nested or equal prime sets keep the closed form.
    """
    a, b = k + l, abs(k - l)
    if a % 2 == 0 or b <= 1:
        return True
    ra, rb = radical(a), radical(b)
    return ra % rb == 0 or rb % ra == 0


def expected_1d_space(sid: SpaceId):
    """Closed-form [H^0, H^1]; H^1 is an unclassified expression where the
    limit does not split (see _tm_h1_splits)."""
    if sid.family == "sol":
        return [GroupExpr.parse("Z"), GroupExpr((), [(sid.params[0], 1)], 0)]
    k, l = sid.params
    if sid.family == "pd":
        return [GroupExpr.parse("Z"), GroupExpr((), [(k + l, 1)], 1)]
    if not _tm_h1_splits(k, l):
        return [GroupExpr.parse("Z"), GroupExpr(
            unclassified=f"Z[1/{k + l}] + Z[1/{abs(k - l)}] + Z does not split")]
    return [GroupExpr.parse("Z"),
            GroupExpr((), [(k + l, 1), (abs(k - l), 1)], 1)]


def expected_1d_quotient(fine: SpaceId, coarse: SpaceId):
    k, l = fine.params
    if coarse.family == "pd":
        return [GroupExpr.zero(), GroupExpr([2], [(abs(k - l), 1)], 0)]
    if fine.family == "tm":
        return [GroupExpr.zero(), GroupExpr((), [(abs(k - l), 1)], 1)]
    return [GroupExpr.zero(), GroupExpr((), (), 1)]


# ---- computations ----

def compute_space(name: str, collar: str = "auto"):
    """Classified [H^0, ..., H^dim] of a named space."""
    (sid,), depth = subst2d.resolve_collar(collar, (name,))
    if sid.family != "chair":
        return subst1d.absolute_cohomology_1d(name)
    cx, sm = subst2d.ap_complex_2d(sid.scheme, depth)
    return [classify(cohomology_tower(cx, sm, k)) for k in (0, 1, 2)]


def compute_quotient(fine: str, coarse: str, collar: str = "auto"):
    """Classified quotient cohomology [H^0_Q, ..., H^dim_Q] of a pair.

    `collar` applies to chair pairs, as in compute_path: `auto` means
    depth 1 (see subst2d.resolve_collar).
    """
    (fid, cid), depth = subst2d.resolve_collar(collar, (fine, coarse),
                                               pair=True)
    if fid == cid:
        if fid.family == "chair":   # `off` holds here too, or raises
            subst2d._check_depth(depth, fid.scheme)
        return [GroupExpr.zero() for _ in range(fid.dimension + 1)]
    if fid.family == "chair" and cid.family == "chair":
        f = subst2d.factor_map_edge(fid.scheme, cid.scheme, depth)
        sx, sy = (subst2d.ap_complex_2d(i.scheme, depth)[1] for i in (fid, cid))
    elif fid.family != "chair" and cid.family != "chair":
        f, sx, sy = subst1d.factor_map_1d(fine, coarse)
    else:
        raise InvalidPath(f"no factor map from {fine!r} to {coarse!r}")
    return les_quotient(f, sx, sy)["Q"]


def compute_path(path: FactorPath, collar: str = "forced"):
    """Classified quotient cohomology of a composed lattice path (`auto`
    means depth 1, as for a pair)."""
    _, depth = subst2d.resolve_collar(collar, pair=True)
    f = subst2d.compose_path(path.start, path.word, depth)
    # self-maps of the endpoints of the realization compose_path followed
    end = subst2d.canonical_realization(path.start, path.word)[-1][1]
    sx, sy = (subst2d.ap_complex_2d(s, depth)[1] for s in (path.start, end))
    return les_quotient(f, sx, sy)["Q"]


def catalog_factor_maps(grid=DEFAULT_GRID):
    """Every factor map the catalog talks about, as (key, f, sx, sy)."""
    out = []
    for k, l in grid:
        for fine, coarse in ((f"tm:{k},{l}", f"pd:{k},{l}"),
                             (f"tm:{k},{l}", f"sol:{k + l}"),
                             (f"pd:{k},{l}", f"sol:{k + l}")):
            out.append((f"{fine}->{coarse}",)
                       + subst1d.factor_map_1d(fine, coarse))
    for typ, fine, coarse in subst2d.lattice_edges():
        f = subst2d.factor_map_edge(fine, coarse)
        _, sx = subst2d.ap_complex_2d(fine, "forced")
        _, sy = subst2d.ap_complex_2d(coarse, "forced")
        out.append((f"chair:{fine}->chair:{coarse}", f, sx, sy))
    return out


# ---- verification ----

def _check(kind, key, degree, expected, computed):
    ok = expected == computed or (expected.unclassified is not None
                                  and computed.unclassified is not None)
    return {"kind": kind, "key": key, "degree": degree,
            "expected": str(expected), "computed": str(computed), "ok": ok}


def _grid_pair(pair):
    """(k, l) of a 1-D grid pair, read as the name tm:k,l reads them;
    sol:k+l and pd:k,l are names when tm:k,l is."""
    k, l = pair
    try:
        return SpaceId.parse(f"tm:{k},{l}").params
    except InvalidPath as e:
        raise InvalidPath(f"grid pair {k},{l}: {e}") from None


def verify_all(scope: str = "all", grid=None):
    """Recompute golden/formula entries; mismatches are report rows."""
    if scope not in ("1d", "2d", "all"):
        raise InvalidPath(f"unknown verification scope {scope!r}")
    if scope == "2d" and grid is not None:
        raise InvalidPath("a 1-D grid does not apply to verify 2d")
    # every pair is read before any is computed
    grid = tuple(map(_grid_pair, grid if grid is not None else DEFAULT_GRID))
    if not grid:   # a verify that checks nothing must not read as a pass
        raise InvalidPath("the grid has no k,l pair")
    report = []
    if scope in ("1d", "all"):
        for k, l in grid:
            names = [f"sol:{k + l}", f"pd:{k},{l}", f"tm:{k},{l}"]
            for name in names:
                exp = expected_1d_space(SpaceId.parse(name))
                got = compute_space(name)
                for d, (e, g) in enumerate(zip(exp, got)):
                    report.append(_check("space", name, d, e, g))
            for fine, coarse in ((names[2], names[1]), (names[2], names[0]),
                                 (names[1], names[0])):
                exp = expected_1d_quotient(SpaceId.parse(fine),
                                           SpaceId.parse(coarse))
                got = compute_quotient(fine, coarse)
                for d, (e, g) in enumerate(zip(exp, got)):
                    report.append(_check("quotient", f"{fine}->{coarse}",
                                         d, e, g))
    if scope in ("2d", "all"):
        compute = {"space": lambda name: compute_space(name, "forced"),
                   "path": lambda word: compute_path(
                       FactorPath(PATH_STARTS[word], word)),
                   "quotient": lambda name: compute_quotient(
                       name, "chair:0,0")}
        for kind, key, arg in ([("space", n, n) for n in CHAIR_SPACES]
                               + [("path", w, w) for w in PATH_WORDS]
                               + [("quotient", f"{n}->chair:0,0", n)
                                  for n in CHAIR_SPACES]):
            exp, got = golden_lookup(kind, key), compute[kind](arg)
            for d in sorted(exp):
                report.append(_check(kind, key, d, exp[d], got[d]))
    return report


def consistency_cross_checks():
    """Cross-table consistency: degree-0 groups, quotients relative to the
    bottom scheme matching the path rows, and golden round-trips."""
    report = []
    z = GroupExpr.parse("Z")
    for name in CHAIR_SPACES:
        got = golden_lookup("space", name)[0]
        report.append(_check("h0", name, 0, z, got))
    rel_to_word = {"chair:X,+": "ABAC", "chair:/,+": "BAC", "chair:0,+": "BC",
                   "chair:X,-": "AAC", "chair:/,-": "AC", "chair:0,-": "C",
                   "chair:X,0": "AC", "chair:/,0": "C"}
    for name, word in rel_to_word.items():
        rel = golden_lookup("quotient", f"{name}->chair:0,0")
        row = golden_lookup("path", word)
        for d in sorted(rel):
            report.append(_check("rel-vs-path", f"{name}:{word}", d,
                                 row[d], rel[d]))
    for d, e in golden_lookup("quotient", "chair:0,0->chair:0,0").items():
        report.append(_check("rel-self", "chair:0,0", d, GroupExpr.zero(), e))
    for rec in golden_table():
        report.append(_check("roundtrip", f"{rec.kind}|{rec.key}", rec.degree,
                             rec.expr, GroupExpr.parse(rec.expr.render())))
    return report


def lemma1_agreement(key: str, f, sx, sy):
    """Compare the shortcut against the long exact sequence for one map."""
    res = les_quotient(f, sx, sy)
    h0q_zero, top = lemma1_shortcut(f, sx, sy)
    q = res["Q"]
    return {"key": key,
            "h0_match": h0q_zero == q[0].is_zero(),
            "top_match": top == q[-1],
            "les_top": str(q[-1]), "shortcut_top": str(top)}
