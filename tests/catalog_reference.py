"""Reference collar policy and catalog queries, before one resolver.

`check_collar`, `_pair_collar` and `compute_space`, `compute_quotient`,
`compute_path` from `tilecohom.catalog`, and `collar_depth` from
`tilecohom.subst2d`, as they stood when each query checked its policy in
`check_collar`, reparsed its names and decided its collar depth again in
every call below it.  `subst2d.resolve_collar` replaced the three policy
readers.  Kept verbatim, except that the queries call this module's
`collar_depth`, so the differential test can demand identical results,
error types and messages.  At the end, the public 2-D functions that took
only a policy (`ap_complex_2d`, `factor_map_edge`, `compose_path`,
`compose_realization`), verbatim but for the same `collar_depth` and
without the `factor_map_edge` memo.  Test-only code.
"""
from __future__ import annotations

from tilecohom import subst1d, subst2d
from tilecohom.catalog import FactorPath, SpaceId
from tilecohom.complexes import cohomology_tower, les_quotient
from tilecohom.errors import InvalidPath, NotBorderForcing
from tilecohom.limits import GroupExpr, classify
from tilecohom.subst2d import (ARROW_ORDER, LABEL_ORDER, _ap_complex_2d_depth,
                               _factor_map_depth, border_forcing_check,
                               canonical_realization, edge_type, scheme_parts)


def collar_depth(name: str, collar: str = "auto") -> int:
    if collar in ("forced", "on"):
        return 1
    if collar == "off":
        if border_forcing_check(name) is None:
            raise NotBorderForcing(
                f"scheme {name} does not force its border; an uncollared "
                "complex would compute the wrong limit")
        return 0
    if collar == "auto":
        return 0 if border_forcing_check(name) is not None else 1
    raise InvalidPath(f"collar must be auto, on, forced or off, not {collar!r}")


def check_collar(collar: str, *names) -> str:
    """The collar policy `collar` for the spaces `names`, or InvalidPath.

    The policies are auto, on (alias forced) and off.  Only chair:* spaces
    have collars, so on and off with a 1-D name are rejected rather than
    ignored.  Returns the policy with on spelled forced.
    """
    if collar not in ("auto", "on", "forced", "off"):
        raise InvalidPath(f"collar must be auto, on, forced or off, "
                          f"not {collar!r}")
    if collar != "auto":
        for name in names:
            if SpaceId.parse(name).family != "chair":
                raise InvalidPath(f"collar {collar} applies only to chair:* "
                                  f"spaces, not {name}")
    return "forced" if collar == "on" else collar


def compute_space(name: str, collar: str = "auto"):
    """Classified [H^0, ..., H^dim] of a named space."""
    collar = check_collar(collar, name)
    sid = SpaceId.parse(name)
    if sid.family == "chair":
        cx, sm = subst2d.ap_complex_2d(sid.scheme, collar)
        return [classify(cohomology_tower(cx, sm, k)) for k in (0, 1, 2)]
    return subst1d.absolute_cohomology_1d(name)


def _pair_collar(collar: str) -> str:
    """Collar policy for a factor map between chair spaces.

    One collar depth must serve every complex on the path, and of the nine
    schemes only 0,0 forces its border, so `auto` keeps forced collars.
    `off` computes on uncollared complexes, or raises NotBorderForcing as
    it does for every pair of named schemes.
    """
    return "forced" if collar == "auto" else collar


def compute_quotient(fine: str, coarse: str, collar: str = "auto"):
    """Classified quotient cohomology [H^0_Q, ..., H^dim_Q] of a pair.

    `collar` applies to chair pairs, as in compute_path: `auto` means
    forced collars (see _pair_collar).
    """
    collar = _pair_collar(check_collar(collar, fine, coarse))
    fid, cid = SpaceId.parse(fine), SpaceId.parse(coarse)
    if fid == cid:
        if fid.family == "chair":   # `off` holds here too, or raises
            collar_depth(fid.scheme, collar)
        return [GroupExpr.zero() for _ in range(fid.dimension + 1)]
    if fid.family == "chair" and cid.family == "chair":
        f = subst2d.factor_map_edge(fid.scheme, cid.scheme, collar)
        _, sx = subst2d.ap_complex_2d(fid.scheme, collar)
        _, sy = subst2d.ap_complex_2d(cid.scheme, collar)
    elif fid.family != "chair" and cid.family != "chair":
        f, sx, sy = subst1d.factor_map_1d(fine, coarse)
    else:
        raise InvalidPath(f"no factor map from {fine!r} to {coarse!r}")
    return les_quotient(f, sx, sy)["Q"]


def compute_path(path: FactorPath, collar: str = "forced"):
    """Classified quotient cohomology of a composed lattice path (`auto`
    means forced collars; see _pair_collar)."""
    collar = _pair_collar(check_collar(collar))
    f = subst2d.compose_path(path.start, path.word, collar)
    # self-maps of the endpoints of the realization compose_path followed
    end = subst2d.canonical_realization(path.start, path.word)[-1][1]
    _, sx = subst2d.ap_complex_2d(path.start, collar)
    _, sy = subst2d.ap_complex_2d(end, collar)
    return les_quotient(f, sx, sy)["Q"]


# ---- the public 2-D functions when they took only a policy ----

def ap_complex_2d(name: str, collar: str = "auto"):
    """(approximant complex, substitution self-map) of a decoration scheme."""
    scheme_parts(name)
    return _ap_complex_2d_depth(name, collar_depth(name, collar))[:2]


def factor_map_edge(fine: str, coarse: str, collar: str = "forced"):
    """Cellular factor map between the complexes of two schemes, for any
    coarse scheme strictly below fine in the lattice."""
    (fa, fl), (ca, cl) = scheme_parts(fine), scheme_parts(coarse)
    if fine == coarse or ARROW_ORDER.index(ca) < ARROW_ORDER.index(fa) \
            or LABEL_ORDER.index(cl) < LABEL_ORDER.index(fl):
        raise InvalidPath(f"no factor map from chair:{fine} to chair:{coarse}")
    return _factor_map_depth(fine, coarse, max(collar_depth(fine, collar),
                                               collar_depth(coarse, collar)))


def compose_path(space: str, word: str, collar: str = "forced"):
    """Factor map for a path label, along its canonical_realization."""
    return compose_realization(canonical_realization(space, word), collar)


def compose_realization(steps, collar: str = "forced"):
    """The factor map along a sequence of lattice edges, each starting
    where the one before ends: the one map from the first scheme to the
    last, read off the master windows like any pair's."""
    if not steps:
        raise InvalidPath("an empty realization has no factor map")
    for fine, coarse in steps:
        edge_type(fine, coarse)
        collar_depth(fine, collar)  # a collar error comes before a mismatch
    if any(c != f for (_, c), (f, _) in zip(steps, steps[1:])):
        raise ValueError("composition mismatch")
    return factor_map_edge(steps[0][0], steps[-1][1], collar)
