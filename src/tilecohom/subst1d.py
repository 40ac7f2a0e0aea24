"""One-dimensional substitution systems and their factor maps.

The two-letter mirror family ("tm"), its period-doubling factor ("pd"),
and the solenoid base system ("sol"), with collared complexes at a chosen
depth, legal-word enumeration, the two-block factor map phi, the
letter-collapse factor map psi, quotient cohomology of connected pairs,
and the three-term exact sequence relating the quotients over the solenoid.
"""
from __future__ import annotations

import functools
from collections import Counter
from itertools import chain

from .abelian import IntMatrix, is_primitive_matrix
from .complexes import (CellularMap, CochainComplex,
                        _quotient_cohomology_tower, cohomology_tower,
                        hom_on_cohomology, les_quotient, quotient_complex)
from .errors import InvalidPath, NotPrimitive
from .limits import classify, limit_les


class Substitution1D:
    """Primitive substitution on a finite alphabet."""

    def __init__(self, alphabet, rule):
        self.alphabet = tuple(alphabet)
        if not self.alphabet:
            raise ValueError("a substitution needs a nonempty alphabet")
        if len(set(self.alphabet)) < len(self.alphabet):
            raise ValueError(f"repeated letter in alphabet {self.alphabet!r}")
        if not set(self.alphabet) >= rule.keys():
            raise ValueError(f"rule has images of letters outside the "
                             f"alphabet {self.alphabet!r}")
        self.rule = {a: tuple(rule.get(a, ())) for a in self.alphabet}
        for a, w in self.rule.items():
            if not w or not self.rule.keys() >= set(w):
                raise ValueError(f"image of {a!r} is missing, empty or "
                                 "leaves the alphabet")
        self._windows = {}

    def apply(self, word):
        return tuple(chain.from_iterable(map(self.rule.__getitem__, word)))

    def _letter_windows(self, m):
        """Per-letter table, built once per m: the m-words inside each
        letter's image, counted."""
        if m not in self._windows:
            self._windows[m] = {a: Counter([w[i:i + m] for i in range(
                len(w) - m + 1)]) for a, w in self.rule.items()}
        return self._windows[m]

    def matrix(self) -> IntMatrix:
        idx = {a: i for i, a in enumerate(self.alphabet)}
        return IntMatrix.from_entries(len(idx), len(idx), Counter(
            (idx[c], idx[a]) for a, w in self.rule.items() for c in w))

    def is_primitive(self) -> bool:
        return is_primitive_matrix(self.matrix())

    def require_primitive(self):
        if not self.is_primitive():
            raise NotPrimitive(f"substitution on {self.alphabet} is not primitive")


def tm_substitution(k: int, l: int) -> Substitution1D:
    """1 -> 1^k 1b^l,  1b -> 1b^k 1^l."""
    if k < 1 or l < 1:
        raise ValueError("parameters must be >= 1")
    return Substitution1D(("1", "1b"), {"1": ("1",) * k + ("1b",) * l,
                                        "1b": ("1b",) * k + ("1",) * l})


def pd_substitution(k: int, l: int) -> Substitution1D:
    """a -> b^{k-1} a b^{l-1} b,  b -> b^{k-1} a b^{l-1} a."""
    if k < 1 or l < 1:
        raise ValueError("parameters must be >= 1")
    core = ("b",) * (k - 1) + ("a",) + ("b",) * (l - 1)
    return Substitution1D(("a", "b"), {"a": core + ("b",), "b": core + ("a",)})


def solenoid_substitution(m: int) -> Substitution1D:
    """s -> s^m."""
    if m < 2:
        raise ValueError("solenoid base must be >= 2")
    return Substitution1D(("s",), {"s": ("s",) * m})


def _legal_patches(tiles, image_windows, stretch, n):
    """The set of legal n-patches: n-words in 1-D, n x n squares (flat
    tuples of tile ids) in 2-D.

    `tiles` are the one-tile patches (all legal), `image_windows(p, m)`
    the m-patches in the image of p, `stretch` >= 2 the least factor by
    which the substitution lengthens a side.  A legal 2-patch lies in the
    image of a tile or of a legal 2-patch, a legal m'-patch, m' <= (m-1) *
    stretch + 1, in that of a legal m-patch (Anderson-Putnam, ETDS 18)."""
    if n < 2:
        return set(tiles)
    found = set().union(*(image_windows(t, 2) for t in tiles))
    frontier = found
    while frontier:
        frontier = set().union(*(image_windows(p, 2)
                                 for p in frontier)) - found
        found |= frontier
    m = 2
    while m < n:
        m = min(n, (m - 1) * stretch + 1)
        found = set().union(*(image_windows(p, m) for p in found))
    return found


def legal_words(s: Substitution1D, n: int) -> set:
    """All length-n factors of the substitution language."""
    s.require_primitive()
    if n < 1:
        raise ValueError("n >= 1 required")
    # a power of s with every image of length >= 2 has the same language
    t = s
    while min(map(len, t.rule.values())) < 2:
        if len(t.rule) == 1:
            raise ValueError("a one-letter substitution must expand")
        t = Substitution1D(s.alphabet, {a: s.apply(w)
                                        for a, w in t.rule.items()})

    def image_windows(w, m):
        # words inside an image come from its table; those leaving it are cut
        img, end = t.apply(w), 0
        found = set().union(*map(t._letter_windows(m).__getitem__, w))
        for a in w:
            start, end = end, end + len(t.rule[a])
            for i in range(max(start, end - m + 1),
                           min(end, len(img) - m + 1)):
                found.add(img[i:i + m])
        return found

    return _legal_patches([(a,) for a in s.alphabet], image_windows,
                          min(map(len, t.rule.values())), n)


def ap_complex_1d(s: Substitution1D, depth: int = 1):
    """Collared complex and substitution self-map at the given collar depth.

    Edges are legal (2*depth+1)-words (the middle letter with `depth`
    letters of context on each side); vertices are legal 2*depth-words, or
    a single vertex at depth 0.  Edges are oriented left to right.  Edge
    e goes to the edges centred in s(e[depth]): at the interior offsets
    depth <= t < |s(e[depth])| - depth they come from the per-letter table,
    the <= 2*depth others are cut at the boundaries with the collars' images.
    """
    if depth < 0:
        raise ValueError("collar depth must be >= 0")
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

    def collared(left, middle, right):
        img = s.apply(left)
        return img[len(img) - r:] + middle + s.apply(right)[:r]

    f0 = {(vi[collared(v[:r], (), v[r:])], j): 1
          for j, v in enumerate(vertices)}
    inside = s._letter_windows(2 * r + 1)
    f1 = {}
    for j, e in enumerate(edges):
        c = s.rule[e[r]]
        f1.update(((ei[w], j), x) for w, x in inside[e[r]].items())
        ctx = collared(e[:r], c, e[r + 1:])
        for t in chain(range(min(r, len(c))), range(max(r, len(c) - r),
                                                    len(c))):
            at = ei[ctx[t:t + 2 * r + 1]], j
            f1[at] = f1.get(at, 0) + 1
    self_map = CellularMap(cx, cx, [
        IntMatrix.from_entries(len(vertices), len(vertices), f0),
        IntMatrix.from_entries(len(edges), len(edges), f1)])
    return cx, self_map


@functools.lru_cache(maxsize=None)
def tm_system(k, l):
    return ap_complex_1d(tm_substitution(k, l), PHI_SOURCE_DEPTH)


@functools.lru_cache(maxsize=None)
def pd_system(k, l):
    return ap_complex_1d(pd_substitution(k, l), 1)


@functools.lru_cache(maxsize=None)
def sol_system(m):
    return ap_complex_1d(solenoid_substitution(m), 0)


PHI_SOURCE_DEPTH = 2  # two-block code with anticipation 1 needs this much collar


def _letter_code(source, target, code):
    """The factor map that sends each cell of the source system's complex,
    a word, to the one target cell code(word) with sign +1."""
    return CellularMap.from_assignment(source[0], target[0], [
        {w: [(1, code(w))] for w in cells} for cells in source[0].cells])


def _collapse(word):
    # a collared complex's vertices are even-length words, its edges odd
    return ("s",) * (len(word) % 2)   # the solenoid's one vertex or edge


def factor_map_phi(k: int, l: int) -> CellularMap:
    """Two-block code from the mirror system onto its period-doubling factor.

    Realized as a cellular map from the depth-2 mirror complex to the
    depth-1 factor complex: the factor letter at position i reads source
    positions i and i+1, so an image vertex (a 2-word) needs the source
    vertex to be a 4-word, and a depth-1 source would not determine it.
    """
    # a cell's first letter is collar that its image does not read
    return _letter_code(tm_system(k, l), pd_system(k, l),
                        lambda w: tuple("a" if x != y else "b"
                                        for x, y in zip(w[1:], w[2:])))


def factor_map_psi(k: int, l: int) -> CellularMap:
    """Letter collapse from the period-doubling complex onto the solenoid."""
    return _letter_code(pd_system(k, l), sol_system(k + l), _collapse)


def factor_map_psi_phi(k: int, l: int) -> CellularMap:
    """psi after phi: the letter collapse of the mirror complex."""
    return _letter_code(tm_system(k, l), sol_system(k + l), _collapse)


# the longest rule image a 1-D name may ask for, in letters: k + l for
# tm:k,l and pd:k,l, m for sol:m
MAX_IMAGE = 10 ** 6


def decimal(text: str) -> int:
    """The int that a string of ASCII decimal digits spells.  int() alone
    also reads signs, blanks, underscores and non-ASCII digits; those, and
    more than int()'s 4300 digits, raise ValueError."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal parameter: {text!r}")
    return int(text)


@functools.lru_cache(maxsize=None)
def _space_1d(name):
    """(family, params) of a 1-D space name: tm:k,l or pd:k,l with k, l >= 1,
    or sol:m with m >= 2, whose rule images are at most MAX_IMAGE letters
    long.  Kept per name: a query parses its names once (SpaceId.parse)."""
    family, _, rest = name.partition(":")
    arity = {"tm": 2, "pd": 2, "sol": 1}.get(family)
    if arity is None:
        raise InvalidPath(f"unknown 1-D space family in {name!r}")
    try:
        params = tuple(map(decimal, rest.split(",")))
    except ValueError:
        params = ()
    if len(params) != arity:
        raise InvalidPath(f"bad parameters in {name!r}")
    if family == "sol" and params[0] < 2:
        raise InvalidPath(f"solenoid base must be >= 2 in {name!r}")
    if min(params) < 1:
        raise InvalidPath(f"parameters must be >= 1 in {name!r}")
    if sum(params) > MAX_IMAGE:   # checked before any word is built
        raise InvalidPath(f"rule image longer than MAX_IMAGE = {MAX_IMAGE} "
                          f"letters in {name!r}")
    return family, params


def system_1d(name):
    """(complex, self-map) of a named 1-D space: its one complex, on which
    the factor maps are built too (tm at the two-block code's depth 2, pd
    at 1, sol at 0).  The depth does not change the limit (Anderson-Putnam,
    ETDS 18)."""
    family, params = _space_1d(name)
    # built per call, so that it reads the module's current bindings
    return {"tm": tm_system, "pd": pd_system, "sol": sol_system}[family](
        *params)


def factor_map_1d(source: str, target: str):
    """(f, self_src, self_tgt) for a connected pair of 1-D space names."""
    (sf, sp), (tf, tp) = _space_1d(source), _space_1d(target)
    if (sf, tf) == ("tm", "pd") and sp == tp:
        f = factor_map_phi(*sp)
    elif (sf, tf) in (("pd", "sol"), ("tm", "sol")) and tp[0] == sum(sp):
        f = (factor_map_psi if sf == "pd" else factor_map_psi_phi)(*sp)
    else:
        raise InvalidPath(f"no factor map from {source!r} to {target!r}")
    return f, system_1d(source)[1], system_1d(target)[1]


def absolute_cohomology_1d(name: str):
    """[H^0, H^1] of a 1-D space, classified in the limit."""
    cx, sm = system_1d(name)
    return [classify(cohomology_tower(cx, sm, k)) for k in (0, 1)]


def quotient_cohomology_1d(pair):
    """[H^0_Q, H^1_Q] for a connected pair of 1-D space names."""
    return les_quotient(*factor_map_1d(*pair))["Q"]


def _quotient_tower(f, self_x, k):
    """H^k of the quotient complex of f with its induced self-map."""
    qc = quotient_complex(f)
    return qc, _quotient_cohomology_tower(qc, self_x, k)


def verify_times2_ses(k: int, l: int):
    """Exactness of 0 -> H^1_Q(pd,sol) -> H^1_Q(tm,sol) -> H^1_Q(tm,pd) -> 0.

    The first map is induced by the two-block pullback (multiplication by 2
    after the identifications); the second is the further quotient.
    Returns the three classified groups; raises ExactnessFailure otherwise.
    """
    phi = factor_map_phi(k, l)
    psi = factor_map_psi(k, l)
    psiphi = factor_map_psi_phi(k, l)
    s_tm, s_pd = tm_system(k, l)[1], pd_system(k, l)[1]
    qc1, t1 = _quotient_tower(psi, s_pd, 1)
    qc2, t2 = _quotient_tower(psiphi, s_tm, 1)
    qc3, t3 = _quotient_tower(phi, s_tm, 1)
    alpha_c = qc2.proj[1] * phi.cochain[1] * qc1.section[1]
    beta_c = qc3.proj[1] * qc2.section[1]
    alpha = hom_on_cohomology(alpha_c, t1.group, t2.group)
    beta = hom_on_cohomology(beta_c, t2.group, t3.group)
    return limit_les([t1, t2, t3], [alpha, beta],
                     names=["H1_Q(pd,sol)", "H1_Q(tm,sol)", "H1_Q(tm,pd)"])
