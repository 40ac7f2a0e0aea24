"""Differential tests: one input boundary against the policy readers it
replaced.

`subst2d.resolve_collar` parses a query's names once and turns its collar
policy into one depth; the catalog queries hand both down.  The parent's
`check_collar`, `_pair_collar`, `collar_depth` and the three queries are
kept in `tests/catalog_reference.py`.  Over the names, policies and query
shapes below, both must give identical groups, or the same error type and
message.
"""
import ast
import itertools
from pathlib import Path

import pytest

import catalog_reference as ref
from tilecohom import catalog, subst1d, subst2d
from tilecohom.catalog import (PATH_STARTS, FactorPath, compute_path,
                               compute_quotient, compute_space)
from tilecohom.errors import TilingCohomologyError
from tilecohom.subst2d import SCHEME_NAMES

CHAIRS = [f"chair:{s}" for s in SCHEME_NAMES]
OTHERS = ["tm:2,1", "tm:2,01", "pd:3,1", "sol:3", "foo:1", "chair:Y,+"]
NAMES = CHAIRS + OTHERS
POLICIES = ["auto", "on", "forced", "off", "bogus"]


def _below(fine, coarse):
    (fa, fl), (ca, cl) = (subst2d.scheme_parts(s) for s in (fine, coarse))
    return fine != coarse and \
        subst2d.ARROW_ORDER.index(fa) <= subst2d.ARROW_ORDER.index(ca) and \
        subst2d.LABEL_ORDER.index(fl) <= subst2d.LABEL_ORDER.index(cl)


COMPARABLE = [(f"chair:{f}", f"chair:{c}")
              for f, c in itertools.product(SCHEME_NAMES, repeat=2)
              if _below(f, c)]
PAIRS = (COMPARABLE + [(c, f) for f, c in COMPARABLE]
         + [(n, n) for n in NAMES]
         + [p for p in itertools.permutations(OTHERS + CHAIRS[:1]
                                              + CHAIRS[-1:], 2)])
PATHS = [FactorPath(start, word) for word, start in PATH_STARTS.items()] \
    + [FactorPath("tm:2,1", "A")]


def _outcome(call):
    try:
        return "ok", call()
    except (TilingCohomologyError, ValueError) as e:
        return type(e), str(e)


def test_comparable_pairs_cover_the_lattice():
    assert len(COMPARABLE) == 27


@pytest.mark.parametrize("collar", POLICIES)
def test_space_matches_reference(collar):
    for name in NAMES:
        assert _outcome(lambda: compute_space(name, collar)) == \
            _outcome(lambda: ref.compute_space(name, collar)), name


@pytest.mark.parametrize("collar", POLICIES)
def test_quotient_matches_reference(collar):
    for fine, coarse in PAIRS:
        assert _outcome(lambda: compute_quotient(fine, coarse, collar)) == \
            _outcome(lambda: ref.compute_quotient(fine, coarse, collar)), \
            (fine, coarse)


@pytest.mark.parametrize("collar", POLICIES)
def test_path_matches_reference(collar):
    for path in PATHS:
        assert _outcome(lambda: compute_path(path, collar)) == \
            _outcome(lambda: ref.compute_path(path, collar)), path


# ---- the public 2-D functions still take a policy ----

SCHEMES = list(SCHEME_NAMES) + ["Y,+", "X", "X,+,0"]
STEPS = [(("X,+", "/,+"), ("/,+", "/,-")), (("X,+", "0,+"),),
         (("X,+", "/,+"), ("X,+", "X,-")), (("X,+", "/,+"), ("Y,+", "/,+")),
         (("Q", "/,+"), ("/,+", "/,-"))]


@pytest.mark.parametrize("collar", POLICIES)
def test_public_2d_functions_match_reference(collar):
    for name in SCHEMES:
        assert _outcome(lambda: subst2d.ap_complex_2d(name, collar)) == \
            _outcome(lambda: ref.ap_complex_2d(name, collar)), name
    for fine, coarse in itertools.product(SCHEMES, repeat=2):
        assert _outcome(lambda: subst2d.factor_map_edge(fine, coarse,
                                                        collar)) == \
            _outcome(lambda: ref.factor_map_edge(fine, coarse, collar)), \
            (fine, coarse)
    for word, start in list(PATH_STARTS.items()) + [("Q", "X,+"),
                                                    ("A", "Y,+")]:
        assert _outcome(lambda: subst2d.compose_path(start, word, collar)) \
            == _outcome(lambda: ref.compose_path(start, word, collar)), word
    for steps in STEPS:
        assert _outcome(lambda: subst2d.compose_realization(steps, collar)) \
            == _outcome(lambda: ref.compose_realization(steps, collar)), steps


# ---- each name parsed once, each policy resolved once ----

QUERIES = ([(compute_space, (n, c)) for n in NAMES for c in POLICIES]
           + [(compute_quotient, (f, c, p)) for f, c in PAIRS
              for p in ("auto", "off")]
           + [(compute_path, (path, p)) for path in PATHS
              for p in ("forced", "off", "bogus")])


def test_each_name_parsed_once_and_policy_resolved_once(monkeypatch):
    """The 1-D parser, subst1d._space_1d, keeps each name's parse, and a
    query hands its names on: a cold start parses each 1-D name once."""
    resolved = []
    resolve = subst2d.resolve_collar

    def counting_resolve(*args, **kwargs):
        resolved.append(args)
        return resolve(*args, **kwargs)

    def parses(query, args):
        subst1d._space_1d.cache_clear()
        outcome = _outcome(lambda: query(*args))
        return outcome, subst1d._space_1d.cache_info().misses

    monkeypatch.setattr(subst2d, "resolve_collar", counting_resolve)
    for query, args in QUERIES:
        resolved.clear()
        outcome, misses = parses(query, args)
        assert len(resolved) == 1, (query.__name__, args)
        names = {a for a in args[:-1]
                 if isinstance(a, str) and not a.startswith("chair:")}
        # a name that fails to parse ends the query at once
        assert misses == len(names) if outcome[0] == "ok" \
            else misses <= len(names), (query.__name__, args)
    assert parses(compute_quotient, ("tm:2,1", "pd:2,1")) == \
        (parses(ref.compute_quotient, ("tm:2,1", "pd:2,1"))[0], 2)


def test_policy_strings_compared_in_one_function():
    """In src/, only resolve_collar compares a value against auto, on,
    forced or off, and only it raises the unknown-policy message."""
    policies = {"auto", "on", "forced", "off"}
    readers, raisers = set(), set()
    src = Path(catalog.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Compare):
                    consts = {c.value for c in ast.walk(node)
                              if isinstance(c, ast.Constant)}
                    if consts & policies:
                        readers.add((path.name, fn.name))
                if isinstance(node, ast.Constant) and \
                        isinstance(node.value, str) and \
                        "collar must be auto, on, forced or off" in node.value:
                    raisers.add((path.name, fn.name))
    assert readers == raisers == {("subst2d.py", "resolve_collar")}
