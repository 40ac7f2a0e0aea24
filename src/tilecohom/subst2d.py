"""Two-dimensional block substitutions: the decorated-square family.

The master system has 32 prototiles (a square carrying an arrow pointing
at one corner plus four boolean edge labels, with the two labels at the
arrow's corner equal).  Nine decoration schemes coarsen the arrows (keep
all / keep only the two diagonal ones / drop) and the labels (keep all
four / keep left-right / drop); the substitution rule descends to every
scheme, giving a lattice of factor maps.  This module builds the collared
approximant complexes, the substitution self-maps, and the factor map
between any two comparable schemes, which also serves every path.  It also
holds a query's input boundary: `SpaceId` and `resolve_collar`.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from itertools import chain

from .abelian import IntMatrix, is_primitive_matrix
from .complexes import CellularMap, CochainComplex
from .errors import (InvalidPath, NotBorderForcing, NotPrimitive,
                     NotWellDefined)
from .subst1d import _legal_patches, _space_1d

ARROWS = ("NE", "NW", "SE", "SW")
Q_NW, Q_NE, Q_SW, Q_SE = (0, 1), (1, 1), (0, 0), (1, 0)
QUADS = (Q_NW, Q_NE, Q_SW, Q_SE)
SIDES = ("S", "N", "W", "E")
CORNERS = ("SW", "SE", "NW", "NE")


def _head_ok(tile):
    """The two edge labels at the arrow's head corner must agree."""
    a, (left, top, right, bottom) = tile
    return {"NE": top == right, "NW": left == top,
            "SE": right == bottom, "SW": left == bottom}[a]


MASTER_TILES = tuple((a, lab) for a in ARROWS
                     for lab in itertools.product((0, 1), repeat=4)
                     if _head_ok((a, lab)))


def master_rule(tile):
    """Children of a master tile, by quadrant."""
    a, (w, y, x, z) = tile
    if a == "NW":
        return {Q_NW: ("NW", (w, y, 1, 1)), Q_NE: ("SW", (0, y, x, 0)),
                Q_SW: ("NE", (w, 0, 0, z)), Q_SE: ("NW", (1, 1, x, z))}
    if a == "SW":
        return {Q_NW: ("SE", (w, y, 0, 0)), Q_NE: ("SW", (1, y, x, 1)),
                Q_SW: ("SW", (w, 1, 1, z)), Q_SE: ("NW", (0, 0, x, z))}
    if a == "NE":
        return {Q_NW: ("SE", (w, y, 0, 0)), Q_NE: ("NE", (1, y, x, 1)),
                Q_SW: ("NE", (w, 1, 1, z)), Q_SE: ("NW", (0, 0, x, z))}
    return {Q_NW: ("SE", (w, y, 1, 1)), Q_NE: ("SW", (0, y, x, 0)),
            Q_SW: ("NE", (w, 0, 0, z)), Q_SE: ("SE", (1, 1, x, z))}


ARROW_MODES = {"X": lambda a: a,
               "/": lambda a: a if a in ("NE", "SW") else "o",
               "0": lambda a: "."}
LABEL_MODES = {"+": lambda lab: lab,
               "-": lambda lab: (lab[0], lab[2]),
               "0": lambda lab: ()}
ARROW_ORDER = ("X", "/", "0")
LABEL_ORDER = ("+", "-", "0")
SCHEME_NAMES = tuple(f"{a},{l}" for a in ARROW_ORDER for l in LABEL_ORDER)


def scheme_parts(name: str):
    a, _, l = name.partition(",")
    if a not in ARROW_ORDER or l not in LABEL_ORDER:
        raise InvalidPath(f"unknown decoration scheme {name!r}")
    return a, l


@dataclass(frozen=True)
class SpaceId:
    """Parsed space name: family plus parameters."""

    family: str
    params: tuple

    @classmethod
    def parse(cls, name: str) -> "SpaceId":
        family, _, rest = name.partition(":")
        if family == "chair":
            return cls(family, scheme_parts(rest))
        return cls(*_space_1d(name))

    def __str__(self):
        return f"{self.family}:{','.join(str(p) for p in self.params)}"

    @property
    def scheme(self) -> str:
        if self.family != "chair":
            raise InvalidPath(f"{self} is not a two-dimensional space")
        return ",".join(self.params)

    @property
    def dimension(self) -> int:
        return 2 if self.family == "chair" else 1


def decorate(name: str):
    """Tile coarsening map of a scheme, acting on master tiles."""
    a, l = scheme_parts(name)
    amap, lmap = ARROW_MODES[a], LABEL_MODES[l]
    return lambda t: (amap(t[0]), lmap(t[1]))


class Substitution2D:
    """A 2x2 block substitution on a finite prototile set.

    The legal-patch closure runs on flat squares: row-major tuples, south
    row first, of tile ids (positions in `tiles`).  `_kids[t]` holds the
    ids of tile t's children in QUADS order, and `_gathers` the getters,
    one list per (square size, window side), that take a square's
    concatenated child quadruples to the windows of its inflation.
    """

    def __init__(self, tiles, rule):
        tiles = list(tiles)
        known = set(tiles)
        if len(known) < len(tiles):
            raise NotWellDefined("repeated tile", witness=next(
                t for i, t in enumerate(tiles) if t in tiles[:i]))
        if not known >= rule.keys():
            raise NotWellDefined("rule has an entry for a tile outside the "
                                 "tile set", witness=next(
                                     t for t in rule if t not in known))
        self.tiles = tuple(sorted(known, key=repr))
        self.rule = {t: dict(rule.get(t, ())) for t in self.tiles}
        for t, blk in self.rule.items():
            if blk.keys() != set(QUADS):
                raise NotWellDefined("rule must give every tile one child "
                                     "per quadrant", witness=t)
            for child in blk.values():
                if child not in self.rule:
                    raise NotWellDefined("rule is not closed on the tile set",
                                         witness=child)
        tid = {t: i for i, t in enumerate(self.tiles)}
        self._kids = tuple(tuple(tid[self.rule[t][q]] for q in QUADS)
                           for t in self.tiles)
        self._gathers = {}
        self._legal_cache = {}
        self._indexes = {}

    def matrix(self) -> IntMatrix:
        idx = {t: i for i, t in enumerate(self.tiles)}
        return IntMatrix.from_entries(len(idx), len(idx), Counter(
            (idx[c], idx[t]) for t, blk in self.rule.items()
            for c in blk.values()))

    def is_primitive(self) -> bool:
        return is_primitive_matrix(self.matrix())

    def require_primitive(self):
        if not self.is_primitive():
            raise NotPrimitive("block substitution is not primitive")

    def _children(self, square):
        """The child quadruples of a flat square's tiles, concatenated."""
        return tuple(chain.from_iterable(map(self._kids.__getitem__, square)))

    def _image_windows(self, square, m):
        """The flat m-square windows of the inflation of a flat square."""
        key = len(square), m
        getters = self._gathers.get(key)
        if getters is None:
            s = math.isqrt(len(square))
            getters = self._gathers[key] = _inflated_getters(
                s, m, itertools.product(range(2 * s - m + 1), repeat=2))
        kids = self._children(square)
        return {get(kids) for get in getters}

    def _squares(self, n):
        """The legal n x n squares, flat."""
        self.require_primitive()
        return _legal_patches([(t,) for t in range(len(self.tiles))],
                              self._image_windows, 2, n)

    def legal(self, w, h):
        """All legal w x h patches, as rows, sorted by repr: cut from the
        legal max(w, h)-squares of the legal-patch closure."""
        if w < 1 or h < 1:
            raise ValueError(f"legal patches need w, h >= 1, got {w}x{h}")
        key = (w, h)
        if key not in self._legal_cache:
            n = max(w, h)
            getters = [_getter(_window(n, w, h, x0, y0))
                       for x0 in range(n - w + 1) for y0 in range(n - h + 1)]
            flat = {get(sq) for sq in self._squares(n) for get in getters}
            self._legal_cache[key] = sorted(
                (_rows(f, w, self.tiles) for f in flat), key=repr)
        return self._legal_cache[key]

    def _index(self, r):
        """Int-keyed index of the legal windows at collar depth r, made
        once per depth (kept in `_indexes`) from the legal flat m-squares
        (m = 2r + 2) alone: their n-square sub-windows (n = 2r + 1) are
        exactly the legal n x n, and their (n+1) x n, n x (n+1) and m x m
        sub-windows give every adjacency and corner contact
        (tests/test_master_index.py checks both facts).  `windows` lists
        the n x n windows as flat tuples of tile ids, sorted (`legal(n, n)`
        order for the master rule, whose tiles have reprs of one length);
        a window's id is its position there, at r = 0 its tile's id.
        `children[w]` holds the ids of the four windows centred on the
        children of w's centre tile, in QUADS order; `h`, `v` and `corners`
        the id pairs (west, east), (south, north) and quadruples (SW, SE,
        NW, NE) of contacts."""
        if r in self._indexes:
            return self._indexes[r]
        n, m = 2 * r + 1, 2 * r + 2
        squares = self._squares(m)
        # the n-square sub-windows at an m-square's SW, SE, NW and NE corners
        subs = [_getter(_window(m, n, n, x0, y0))
                for x0, y0 in ((0, 0), (1, 0), (0, 1), (1, 1))]
        windows = sorted({sub(w) for w in squares for sub in subs})
        wid = {w: i for i, w in enumerate(windows)}
        centred = _inflated_getters(n, n,
                                    [(r + c, r + rr) for c, rr in QUADS])
        children = [tuple(wid[sub(kids)] for sub in centred)
                    for kids in map(self._children, windows)]
        corners = sorted({tuple(wid[sub(w)] for sub in subs) for w in squares})
        self._indexes[r] = dict(
            n=n, windows=windows, children=children, corners=corners,
            h=sorted({p for sw, se, nw, ne in corners
                      for p in ((sw, se), (nw, ne))}),
            v=sorted({p for sw, se, nw, ne in corners
                      for p in ((sw, nw), (se, ne))}))
        return self._indexes[r]


def _window(side, w, h, x0, y0):
    """Flat indices of the w x h window at (x0, y0) of a flat side-square."""
    return [(y0 + j) * side + x0 + i for j in range(h) for i in range(w)]


def _getter(idx):
    """The map flat -> tuple(flat[k] for k in idx), in C for two or more."""
    if len(idx) == 1:
        k, = idx
        return lambda flat: (flat[k],)
    return operator.itemgetter(*idx)


def _inflated_getters(s, m, origins):
    """Getters of the flat m-square windows at `origins` of the inflation of
    a flat s-square, reading the square's concatenated child quadruples."""
    # cell (x, y) of the inflation is child QUADS[q] of the source tile at
    # (x // 2, y // 2), entry 4 * source + q of the quadruples
    quad = {q: i for i, q in enumerate(QUADS)}
    spread = [4 * ((y >> 1) * s + (x >> 1)) + quad[x & 1, y & 1]
              for y in range(2 * s) for x in range(2 * s)]
    return [_getter([spread[k] for k in _window(2 * s, m, m, x0, y0)])
            for x0, y0 in origins]


@functools.lru_cache(maxsize=None)
def master_system() -> Substitution2D:
    return Substitution2D(MASTER_TILES, {t: master_rule(t)
                                         for t in MASTER_TILES})


def enumerate_prototiles(name: str):
    """Prototiles of a decoration scheme (images of the master tiles)."""
    q = decorate(name)
    return tuple(sorted({q(t) for t in MASTER_TILES}, key=repr))


def _rows(flat, w, tiles):
    """A flat window w tiles wide, of indices into tiles, as rows of
    tiles[index]."""
    return tuple(tuple(tiles[t] for t in flat[j:j + w])
                 for j in range(0, len(flat), w))


def _quotient(sub, q, r):
    """Collared classes at collar depth r of a substitution's quotient by
    a tile coarsening q: the images under q of its legal (2r+1)-square
    windows, in repr order; `cls` maps each window id of `sub._index(r)`
    to its class.  The substitution must descend to them (the classes of
    the four child windows depend only on the class of the parent),
    otherwise the first offending pair of windows is reported."""
    idx = sub._index(r)
    n = idx["n"]
    image = [q(t) for t in sub.tiles]
    code = {}
    tcode = [code.setdefault(x, len(code)) for x in image]
    first = {}
    rep = [first.setdefault(tuple(map(tcode.__getitem__, w)), i)
           for i, w in enumerate(idx["windows"])]
    keys = {i: _rows(idx["windows"][i], n, image) for i in first.values()}
    order = sorted(keys, key=lambda i: repr(keys[i]))
    cid = {i: c for c, i in enumerate(order)}
    cls = [cid[i] for i in rep]
    smap = [None] * len(order)
    for w, kids in enumerate(idx["children"]):
        blk = tuple(cls[k] for k in kids)
        if smap[cls[w]] is None:
            smap[cls[w]] = blk
        elif smap[cls[w]] != blk:
            raise NotWellDefined(
                f"substitution does not descend to the quotient at "
                f"collar depth {r}",
                witness=tuple(_rows(idx["windows"][x], n, sub.tiles)
                              for x in (order[cls[w]], w)))

    return dict(classes=[keys[i] for i in order], cls=cls, smap=smap,
                hpairs=sorted({(cls[a], cls[b]) for a, b in idx["h"]}),
                vpairs=sorted({(cls[a], cls[b]) for a, b in idx["v"]}),
                blocks=sorted({(cls[a], cls[b], cls[c], cls[d])
                               for a, b, c, d in idx["corners"]}), r=r)


def _collared_system(scheme, r: int):
    """`_quotient` of the master rule by a scheme name or a coarsening."""
    return _quotient(master_system(), scheme if callable(scheme)
                     else decorate(scheme), r)


def descend_rule(scheme) -> Substitution2D:
    """Quotient substitution on a scheme's (possibly collared) prototiles.

    `scheme` is a scheme name or a custom tile-coarsening callable.  If the
    rule descends tile-by-tile the prototiles are plain coarsened tiles.
    For a named scheme where only the collared rule descends, the
    prototiles are once-collared classes.  A callable is descended at tile
    level only: if the rule does not descend tile-by-tile it raises
    NotWellDefined with a witness pair, even when it would descend to
    once-collared tiles (border_forcing_check tells the two apart).
    """
    try:
        return _rule(_collared_system(scheme, 0))
    except NotWellDefined:
        if callable(scheme):
            raise
        return _rule(_collared_system(scheme, 1))


def _rule(sysd) -> Substitution2D:
    classes = sysd["classes"]
    if sysd["r"] == 0:
        classes = [c[0][0] for c in classes]
    return Substitution2D(classes, {
        c: {quad: classes[k] for quad, k in zip(QUADS, kids)}
        for c, kids in zip(classes, sysd["smap"])})


def legal_adjacencies(scheme, depth: int = 0):
    """(hpairs, vpairs) of legal horizontally/vertically adjacent pairs.

    For a scheme name, pairs of collared classes at the given depth; for a
    Substitution2D, which has no collars, pairs of its own tiles read off
    its depth-0 window index, and a depth other than 0 is a ValueError.
    """
    if isinstance(scheme, Substitution2D):
        if depth != 0:
            raise ValueError(f"a Substitution2D has only depth 0, got {depth}")
        idx, t = scheme._index(0), scheme.tiles
        return tuple(sorted([(t[a], t[b]) for a, b in idx[key]], key=repr)
                     for key in "hv")
    if depth < 0:
        raise ValueError(f"collar depth must be >= 0, got {depth}")
    sysd = _collared_system(scheme, depth)
    classes = sysd["classes"]
    return tuple([(classes[a], classes[b]) for a, b in sysd[key]]
                 for key in ("hpairs", "vpairs"))


def border_forcing_check(scheme, max_power: int = 4):
    """Smallest k <= max_power such that k-fold inflation of a prototile
    determines the ring of tiles around its supertile, or None.

    For a scheme (a name or a coarsening callable) the check runs on the
    tile-level quotient rule; if the rule only descends to collared
    prototiles the scheme cannot be built uncollared and the check reports
    None.
    """
    if max_power < 0:
        raise ValueError("max_power must be >= 0")
    if isinstance(scheme, Substitution2D):
        return _forcing_power(scheme, max_power)
    try:
        sysd = _collared_system(scheme, 0)
    except NotWellDefined:
        if callable(scheme):
            _collared_system(scheme, 1)  # raises unless the rule descends
        return None
    return _forcing_power(_rule(sysd), max_power)


def _forcing_power(sub, max_power):
    """Least k <= max_power at which each legal 3-square's centre tile fixes
    the ring around its k-supertile, or None: the facing sides of the edge
    neighbours' k-supertiles and corners of the diagonal ones.  A tile's
    k-fold S, N, W, E sides join two of its children's (k-1)-fold sides and
    are numbered level by level, a side's id standing for the pair of its
    halves' ids; its k-fold SW, SE, NW, NE corners are those of the child
    in that corner."""
    squares = sub._squares(3)
    sides = corners = [(t,) * 4 for t in range(len(sub.tiles))]
    for k in range(1, max_power + 1):
        ids = {}
        sides = [tuple(ids.setdefault(halves, len(ids)) for halves in (
            (sides[sw][0], sides[se][0]), (sides[nw][1], sides[ne][1]),
            (sides[sw][2], sides[nw][2]), (sides[se][3], sides[ne][3])))
            for nw, ne, sw, se in sub._kids]
        corners = [(corners[sw][0], corners[se][1], corners[nw][2],
                    corners[ne][3]) for nw, ne, sw, se in sub._kids]
        rings = {(c, sides[s][1], sides[n][0], sides[w][3], sides[e][2],
                  corners[sw][3], corners[se][2], corners[nw][1],
                  corners[ne][0])
                 for sw, s, se, w, c, e, nw, n, ne in squares}
        if len(rings) == len({ring[0] for ring in rings}):
            return k
    return None


class _Depth(int):
    """A depth resolve_collar chose, taken below in place of a policy."""


def resolve_collar(collar, names=(), pair=False):
    """(ids, depth): a query's names, parsed once each in order, and the
    collar depth its policy, auto, on (alias forced) or off, gives: the one
    reader of a policy.  A bad policy is refused before any name, on or off
    with a 1-D name is refused, and auto means depth 0 for chair spaces
    that force their border.  For a pair or a path (`pair`) auto means 1,
    as only 0,0 forces its border, and depth 0 is checked at the map."""
    if collar not in ("auto", "on", "forced", "off"):
        raise InvalidPath(f"collar must be auto, on, forced or off, "
                          f"not {collar!r}")
    ids = []
    for name in names:
        ids.append(SpaceId.parse(name))
        if collar != "auto" and ids[-1].family != "chair":
            raise InvalidPath(f"collar {collar} applies only to chair:* "
                              f"spaces, not {name}")
    schemes = () if pair else [i.scheme for i in ids if i.family == "chair"]
    depth = _Depth(any(border_forcing_check(s) is None for s in schemes)
                   if collar == "auto" and schemes else collar != "off")
    if collar != "auto":   # auto chose 0 only if every scheme forces
        _check_depth(depth, *schemes)
    return ids, depth


def _check_depth(depth: int, *schemes):
    """Refuse depth 0 for a scheme that does not force its border."""
    for name in schemes:
        if depth == 0 and border_forcing_check(name) is None:
            raise NotBorderForcing(
                f"scheme {name} does not force its border; an uncollared "
                "complex would compute the wrong limit")


def _roots(size, pairs):
    """Union-find on 0..size-1: each (a, b) in turn makes b's root the root
    of a's class.  Returns the root of every element."""
    p = list(range(size))

    def find(x):
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    for a, b in pairs:
        p[find(a)] = find(b)
    return [find(x) for x in range(size)]


def _cells(roots, names, classes):
    """Cell labels (class, side/corner) of the union-find roots, in repr
    order, the root element of each cell, and the cell index of every
    (class, slot) element."""
    labels = sorted(set(roots), key=lambda x: (x >> 2, names[x & 3]))
    at = {x: i for i, x in enumerate(labels)}
    return ([(classes[x >> 2], names[x & 3]) for x in labels], labels,
            [at[x] for x in roots])


# The edges and vertices of class c are numbered 4c + slot, with slots in
# SIDES and CORNERS order.  S/N edges run west->east and W/E edges
# south->north (tail, head below); 2-cells are oriented counterclockwise.
_S, _N, _W, _E = range(4)
_SW, _SE, _NW, _NE = range(4)
_ENDS = ((_SW, _SE), (_NW, _NE), (_SW, _NW), (_SE, _NE))
# position in QUADS of the child quadrant at each corner
_CORNER_QUAD = tuple(QUADS.index(q) for q in (Q_SW, Q_SE, Q_NW, Q_NE))


@functools.lru_cache(maxsize=None)
def _ap_complex_2d_depth(name: str, r: int):
    """`_complex` of a scheme's collared classes at collar depth r."""
    return _complex(_collared_system(name, r))


def _complex(sysd):
    """(complex, self-map, edges, vertices, cls) of `_quotient`'s collared
    classes; edges and vertices are (roots, index): the root element
    4 * class + slot of each cell, which alone gives its endpoints and
    images, and the cell of each element.  `cls` is passed through."""
    classes, smap = sysd["classes"], sysd["smap"]
    nc = len(classes)
    hp, vp = sysd["hpairs"], sysd["vpairs"]
    edges, eroots, eix = _cells(_roots(
        4 * nc, [(4 * a + _E, 4 * b + _W) for a, b in hp]
        + [(4 * a + _N, 4 * b + _S) for a, b in vp]), SIDES, classes)
    verts, vroots, vix = _cells(_roots(
        4 * nc, [x for a, b in hp for x in ((4 * a + _SE, 4 * b + _SW),
                                             (4 * a + _NE, 4 * b + _NW))]
        + [x for a, b in vp for x in ((4 * a + _NW, 4 * b + _SW),
                                      (4 * a + _NE, 4 * b + _SE))]
        + [(4 * sw + _NE, 4 * x + k) for sw, se, nw, ne in sysd["blocks"]
           for x, k in ((se, _NW), (nw, _SE), (ne, _SW))]), CORNERS, classes)

    # Every element of a cell gives what its root gives: each edge union
    # joins the ends of the two edges too, and the children of a legal
    # contact are legal contacts (_quotient checks that the rule descends).
    d0, a1 = {}, {}
    for i, x in enumerate(eroots):
        c, s = x >> 2, x & 3
        tail, head = (vix[4 * c + k] for k in _ENDS[s])
        d0[i, head] = d0.get((i, head), 0) + 1
        d0[i, tail] = d0.get((i, tail), 0) - 1
        for k in _ENDS[s]:
            j = eix[4 * smap[c][_CORNER_QUAD[k]] + s]
            a1[j, i] = a1.get((j, i), 0) + 1
    d1 = {}
    for c in range(nc):
        for s, sign in ((_S, 1), (_E, 1), (_N, -1), (_W, -1)):
            d1[c, eix[4 * c + s]] = d1.get((c, eix[4 * c + s]), 0) + sign
    cx = CochainComplex([verts, edges, classes],
                        [IntMatrix.from_entries(len(edges), len(verts), d0),
                         IntMatrix.from_entries(nc, len(edges), d1)])

    a2 = {}
    for c, kids in enumerate(smap):
        for k in kids:
            a2[k, c] = a2.get((k, c), 0) + 1
    a0 = {(vix[4 * smap[x >> 2][_CORNER_QUAD[x & 3]] + (x & 3)], i): 1
          for i, x in enumerate(vroots)}
    self_map = CellularMap(cx, cx, [
        IntMatrix.from_entries(len(verts), len(verts), a0),
        IntMatrix.from_entries(len(edges), len(edges), a1),
        IntMatrix.from_entries(nc, nc, a2)])
    return cx, self_map, (eroots, eix), (vroots, vix), sysd["cls"]


def ap_complex_2d(name: str, collar: str = "auto"):
    """(approximant complex, substitution self-map) of a decoration scheme.
    `collar` is a policy (see resolve_collar), or the depth it chose."""
    if not isinstance(collar, _Depth):
        scheme_parts(name)   # a bad name is reported before a bad policy
        _, collar = resolve_collar(collar, (f"chair:{name}",))
    return _ap_complex_2d_depth(name, collar)[:2]


def lattice_edges():
    """All one-step factor maps of the scheme lattice, as
    (type, fine, coarse) with type A (generic coarsening), B (dropping the
    top/bottom labels), or C (a step into the bottom scheme)."""
    out = []
    for ai, a in enumerate(ARROW_ORDER):
        for li, l in enumerate(LABEL_ORDER):
            fine = f"{a},{l}"
            if ai + 1 < len(ARROW_ORDER):
                coarse = f"{ARROW_ORDER[ai + 1]},{l}"
                out.append((edge_type(fine, coarse), fine, coarse))
            if li + 1 < len(LABEL_ORDER):
                coarse = f"{a},{LABEL_ORDER[li + 1]}"
                out.append((edge_type(fine, coarse), fine, coarse))
    return out


def edge_type(fine: str, coarse: str) -> str:
    fa, fl = scheme_parts(fine)
    ca, cl = scheme_parts(coarse)
    da = ARROW_ORDER.index(ca) - ARROW_ORDER.index(fa)
    dl = LABEL_ORDER.index(cl) - LABEL_ORDER.index(fl)
    if (da, dl) not in ((1, 0), (0, 1)):
        raise InvalidPath(f"{fine} -> {coarse} is not a one-step coarsening")
    if coarse == "0,0":
        return "C"
    if dl == 1 and fl == "+":
        return "B"
    return "A"


def factor_map_edge(fine: str, coarse: str, collar: str = "forced"):
    """Cellular factor map between the complexes of two schemes, for any
    coarse scheme strictly below fine in the lattice (collar: see
    resolve_collar)."""
    (fa, fl), (ca, cl) = scheme_parts(fine), scheme_parts(coarse)
    if fine == coarse or ARROW_ORDER.index(ca) < ARROW_ORDER.index(fa) \
            or LABEL_ORDER.index(cl) < LABEL_ORDER.index(fl):
        raise InvalidPath(f"no factor map from chair:{fine} to chair:{coarse}")
    if not isinstance(collar, _Depth):
        _, collar = resolve_collar(collar, pair=True)
    return _factor_map_depth(fine, coarse, collar)


@functools.lru_cache(maxsize=None)
def _factor_map_depth(fine: str, coarse: str, r: int):
    """The factor map fine -> coarse at collar depth r."""
    _check_depth(r, fine, coarse)
    fcx, _, (fe, _), (fv, _), fcls = _ap_complex_2d_depth(fine, r)
    ccx, _, (_, ce), (_, cv), ccls = _ap_complex_2d_depth(coarse, r)
    # the coarse class of each fine class, read off the master windows: the
    # coarse decoration of a tile is a function of the fine one, and legal
    # contacts stay legal, so a fine cell's root goes where its elements go
    down = dict(zip(fcls, ccls))

    def image(roots, index):
        return {(index[4 * down[x >> 2] + (x & 3)], i): 1
                for i, x in enumerate(roots)}

    return CellularMap(fcx, ccx, [
        IntMatrix.from_entries(ccx.n_cells(k), fcx.n_cells(k), m)
        for k, m in enumerate((image(fv, cv), image(fe, ce),
                               {(j, i): 1 for i, j in down.items()}))])


def path_realizations(space: str, word: str):
    """All edge sequences from `space` whose type letters spell `word`.

    Each realization is a tuple of (fine, coarse) scheme pairs.
    """
    scheme_parts(space)
    if not word or any(ch not in "ABC" for ch in word):
        raise InvalidPath(f"path label must be a nonempty word over ABC, "
                          f"got {word!r}")
    edges = lattice_edges()
    outs = []

    def walk(at, rest, acc):
        if not rest:
            outs.append(tuple(acc))
            return
        for t, fine, coarse in edges:
            if fine == at and t == rest[0]:
                acc.append((fine, coarse))
                walk(coarse, rest[1:], acc)
                acc.pop()

    walk(space, word, [])
    if not outs:
        raise InvalidPath(f"no path labelled {word!r} starts at {space}")
    return outs


def canonical_realization(space: str, word: str):
    """The realization of a path label that compose_path follows: the
    first one path_realizations finds.  lattice_edges lists each scheme's
    arrow-coarsening step before its label-coarsening step, so at each
    position the search prefers the arrow step (the composed quotient
    cohomology is realization-independent)."""
    return path_realizations(space, word)[0]


def compose_path(space: str, word: str, collar: str = "forced"):
    """Factor map for a path label, along its canonical_realization."""
    return compose_realization(canonical_realization(space, word), collar)


def compose_realization(steps, collar: str = "forced"):
    """The factor map along a sequence of lattice edges, each starting
    where the one before ends: the one map from the first scheme to the
    last, read off the master windows like any pair's."""
    if not steps:
        raise InvalidPath("an empty realization has no factor map")
    for i, (fine, coarse) in enumerate(steps):
        edge_type(fine, coarse)
        if i == 0 and not isinstance(collar, _Depth):
            _, collar = resolve_collar(collar, pair=True)
        _check_depth(collar, fine)  # a collar error comes before a mismatch
    if any(c != f for (_, c), (f, _) in zip(steps, steps[1:])):
        raise ValueError("composition mismatch")
    return factor_map_edge(steps[0][0], steps[-1][1], collar)
