"""Reference 1-D legal-word enumeration, collared complex and factor maps.

`legal_words` is the supertile-seeded enumeration that the legal-patch
closure in `tilecohom.subst1d` replaced, and `ap_complex_1d` the builder
that cut every window of a collared cell's whole image before the
per-letter image tables.  `factor_map_phi`, `factor_map_psi` and
`factor_map_psi_phi` are the factor-map builders that `subst1d`'s one
per-cell builder replaced: phi and psi assigned each cell its image in
their own loops, and psi after phi was the product of their chain
matrices.  All are kept verbatim (the maps without their memo, so that
each call builds on the complexes that `subst1d` holds at that moment) so
the differential tests can demand identical word sets, complexes,
self-maps and factor maps.  Test-only code.
"""
from __future__ import annotations

from tilecohom.abelian import IntMatrix
from tilecohom.complexes import CellularMap, CochainComplex
from tilecohom.subst1d import PHI_SOURCE_DEPTH, pd_system, sol_system, tm_system


def legal_words(s, n: int) -> set:
    """All length-n factors of the substitution language."""
    s.require_primitive()
    if n < 1:
        raise ValueError("n >= 1 required")

    def factors(word):
        return {word[i:i + n] for i in range(len(word) - n + 1)}

    found = set()
    for a in s.alphabet:
        w = (a,)
        while len(w) < n:
            w = s.apply(w)
        found |= factors(s.apply(w))
    frontier = set(found)
    while frontier:
        new = set()
        for w in frontier:
            for f in factors(s.apply(w)):
                if f not in found:
                    found.add(f)
                    new.add(f)
        frontier = new
    return found


def ap_complex_1d(s: Substitution1D, depth: int = 1):
    """Collared complex and substitution self-map at the given collar depth.

    Edges are legal (2*depth+1)-words (the middle letter with `depth`
    letters of context on each side); vertices are legal 2*depth-words, or
    a single vertex at depth 0.  Edges are oriented left to right.
    """
    s.require_primitive()
    r = depth
    edges = sorted(legal_words(s, 2 * r + 1))
    # every legal word extends to the right, so the 2r-words are edge
    # heads; at depth 0 the one head is the empty word
    vertices = sorted({e[:-1] for e in edges})
    vi = {v: i for i, v in enumerate(vertices)}
    ei = {e: i for i, e in enumerate(edges)}
    d0 = {}
    for i, e in enumerate(edges):
        # at depth 0, head and tail are the one vertex () and cancel
        for v, sign in ((e[1:], 1), (e[:-1], -1)):
            d0[i, vi[v]] = d0.get((i, vi[v]), 0) + sign
    cx = CochainComplex([vertices, edges], [
        IntMatrix.from_entries(len(edges), len(vertices), d0)])

    f0 = {}
    for j, v in enumerate(vertices):
        img = s.apply(v)
        c = len(s.apply(v[:r]))
        f0[vi[img[c - r:c + r]], j] = 1
    f1 = {}
    for j, e in enumerate(edges):
        img = s.apply(e)
        off = len(s.apply(e[:r]))
        for t in range(len(s.rule[e[r]])):
            at = ei[img[off + t - r:off + t + r + 1]], j
            f1[at] = f1.get(at, 0) + 1
    self_map = CellularMap(cx, cx, [
        IntMatrix.from_entries(len(vertices), len(vertices), f0),
        IntMatrix.from_entries(len(edges), len(edges), f1)])
    return cx, self_map


def factor_map_phi(k: int, l: int) -> CellularMap:
    """Two-block code from the mirror system onto its period-doubling factor.

    Realized as a cellular map from the depth-2 mirror complex to the
    depth-1 factor complex: the factor letter at position i reads source
    positions i and i+1, so an image vertex (a 2-word) needs the source
    vertex to be a 4-word, and a depth-1 source would not determine it.
    """
    src, _ = tm_system(k, l)
    dst, _ = pd_system(k, l)
    r = PHI_SOURCE_DEPTH

    def code(word, i):
        return "a" if word[i] != word[i + 1] else "b"

    assign = [{}, {}]
    for v in src.cells[0]:
        # vertex = 2r-word centred between r-1 and r; image vertex = 2-word
        assign[0][v] = [(1, (code(v, r - 1), code(v, r)))]
    for e in src.cells[1]:
        # edge = (2r+1)-word centred at r; image edge = 3-word
        assign[1][e] = [(1, (code(e, r - 1), code(e, r), code(e, r + 1)))]
    return CellularMap.from_assignment(src, dst, assign)


def factor_map_psi(k: int, l: int) -> CellularMap:
    """Letter collapse from the period-doubling complex onto the solenoid."""
    src, _ = pd_system(k, l)
    dst, _ = sol_system(k + l)
    assign = [{v: [(1, ())] for v in src.cells[0]},
              {e: [(1, ("s",))] for e in src.cells[1]}]
    return CellularMap.from_assignment(src, dst, assign)


def factor_map_psi_phi(k: int, l: int) -> CellularMap:
    return factor_map_psi(k, l).compose(factor_map_phi(k, l))
