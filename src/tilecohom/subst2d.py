"""Two-dimensional block substitutions: the decorated-square family.

The master system has 32 prototiles (a square carrying an arrow pointing
at one corner plus four boolean edge labels, with the two labels at the
arrow's corner equal).  Nine decoration schemes coarsen the arrows (keep
all / keep only the two diagonal ones / drop) and the labels (keep all
four / keep left-right / drop); the substitution rule descends to every
scheme, giving a lattice of factor maps.  This module builds the collared
approximant complexes, the substitution self-maps, the one-step factor
maps of the lattice, and composed paths.
"""
from __future__ import annotations

import functools
import itertools

from .abelian import IntMatrix, is_primitive_matrix
from .complexes import CellularMap, CochainComplex
from .errors import (InvalidPath, NotBorderForcing, NotPrimitive,
                     NotWellDefined)

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
    try:
        a, l = name.split(",")
    except ValueError:
        a, l = "", ""
    if a not in ARROW_ORDER or l not in LABEL_ORDER:
        raise InvalidPath(f"unknown decoration scheme {name!r}")
    return a, l


def decorate(name: str):
    """Tile coarsening map of a scheme, acting on master tiles."""
    a, l = scheme_parts(name)
    amap, lmap = ARROW_MODES[a], LABEL_MODES[l]
    return lambda t: (amap(t[0]), lmap(t[1]))


class Substitution2D:
    """A 2x2 block substitution on a finite prototile set."""

    def __init__(self, tiles, rule):
        self.tiles = tuple(sorted(set(tiles), key=repr))
        self.rule = {t: dict(rule[t]) for t in self.tiles}
        for blk in self.rule.values():
            for child in blk.values():
                if child not in self.rule:
                    raise NotWellDefined("rule is not closed on the tile set",
                                         witness=child)
        self._legal_cache = {}

    def inflate(self, patch):
        out = {}
        for (i, j), t in patch.items():
            for (c, r), child in self.rule[t].items():
                out[(2 * i + c, 2 * j + r)] = child
        return out

    @staticmethod
    def windows(patch, w, h):
        xs = [i for i, _ in patch]
        ys = [j for _, j in patch]
        x0s, y0s = min(xs), min(ys)
        width, height = max(xs) - x0s + 1, max(ys) - y0s + 1
        return [tuple(tuple(patch[(x0s + x0 + i, y0s + y0 + j)]
                            for i in range(w)) for j in range(h))
                for x0 in range(width - w + 1) for y0 in range(height - h + 1)]

    def matrix(self) -> IntMatrix:
        idx = {t: i for i, t in enumerate(self.tiles)}
        n = len(self.tiles)
        m = [[0] * n for _ in range(n)]
        for t in self.tiles:
            for child in self.rule[t].values():
                m[idx[child]][idx[t]] += 1
        return IntMatrix.from_rows(m)

    def is_primitive(self) -> bool:
        return is_primitive_matrix(self.matrix())

    def require_primitive(self):
        if not self.is_primitive():
            raise NotPrimitive("block substitution is not primitive")

    def legal(self, w, h):
        """All legal w x h patches: seed from large supertiles, close under
        inflation (stops when a pass adds nothing new)."""
        key = (w, h)
        if key in self._legal_cache:
            return self._legal_cache[key]
        self.require_primitive()
        found = set()
        for t in self.tiles:
            patch = {(0, 0): t}
            while len({i for i, _ in patch}) < max(w, h) * 2:
                patch = self.inflate(patch)
            found.update(self.windows(patch, w, h))
        frontier = list(found)
        while frontier:
            fresh = []
            for win in frontier:
                patch = {(i, j): win[j][i]
                         for j in range(h) for i in range(w)}
                for sub in self.windows(self.inflate(patch), w, h):
                    if sub not in found:
                        found.add(sub)
                        fresh.append(sub)
            frontier = fresh
        result = sorted(found, key=repr)
        self._legal_cache[key] = result
        return result


@functools.lru_cache(maxsize=None)
def master_system() -> Substitution2D:
    return Substitution2D(MASTER_TILES, {t: master_rule(t)
                                         for t in MASTER_TILES})


def enumerate_prototiles(name: str):
    """Prototiles of a decoration scheme (images of the master tiles)."""
    q = decorate(name)
    return tuple(sorted({q(t) for t in MASTER_TILES}, key=repr))


def _qwin(q, win):
    return tuple(tuple(q(t) for t in row) for row in win)


def _system_for_q(q, r):
    """Collared classes of a decoration quotient at collar depth r.

    Classes are images of legal (2r+1)-square master windows; the
    substitution must descend to them (images of the four child windows
    depend only on the image of the parent), otherwise the offending pair
    of master windows is reported.
    """
    ms = master_system()
    n = 2 * r + 1
    smap = {}
    witness_of = {}
    for win in ms.legal(n, n):
        patch = {(i, j): win[j][i] for j in range(n) for i in range(n)}
        big = ms.inflate(patch)
        blk = {}
        for (c, rr) in QUADS:
            ci, cj = 2 * r + c, 2 * r + rr
            blk[(c, rr)] = _qwin(q, tuple(
                tuple(big[(ci - r + i, cj - r + j)] for i in range(n))
                for j in range(n)))
        key = _qwin(q, win)
        if key in smap:
            if smap[key] != blk:
                raise NotWellDefined(
                    f"substitution does not descend to the quotient at "
                    f"collar depth {r}", witness=(witness_of[key], win))
        else:
            smap[key] = blk
            witness_of[key] = win
    classes = sorted(smap, key=repr)
    hpairs, vpairs, blocks = set(), set(), set()
    for win in ms.legal(n + 1, n):
        a = _qwin(q, tuple(row[:n] for row in win))
        b = _qwin(q, tuple(row[1:] for row in win))
        hpairs.add((a, b))
    for win in ms.legal(n, n + 1):
        a = _qwin(q, win[:n])
        b = _qwin(q, win[1:])
        vpairs.add((a, b))
    for win in ms.legal(n + 1, n + 1):

        def corner(x0, y0):
            return _qwin(q, tuple(row[x0:x0 + n] for row in win[y0:y0 + n]))

        blocks.add((corner(0, 0), corner(1, 0), corner(0, 1), corner(1, 1)))
    return dict(classes=classes, smap=smap, hpairs=sorted(hpairs, key=repr),
                vpairs=sorted(vpairs, key=repr),
                blocks=sorted(blocks, key=repr), r=r)


@functools.lru_cache(maxsize=None)
def _collared_system(name: str, r: int):
    return _system_for_q(decorate(name), r)


@functools.lru_cache(maxsize=None)
def _tile_descends(name: str) -> bool:
    try:
        _collared_system(name, 0)
        return True
    except NotWellDefined:
        return False


def descend_rule(scheme) -> Substitution2D:
    """Quotient substitution on a scheme's (possibly collared) prototiles.

    `scheme` is a scheme name or a custom tile-coarsening callable.  If the
    rule descends tile-by-tile the prototiles are plain coarsened tiles;
    for the named schemes where only the collared rule descends, the
    prototiles are once-collared classes.  A coarsening to which the rule
    does not descend at all raises NotWellDefined with a witness pair.
    """
    if callable(scheme):
        sysd = _system_for_q(scheme, 0)
    elif _tile_descends(scheme):
        sysd = _collared_system(scheme, 0)
    else:
        sysd = _collared_system(scheme, 1)
    if sysd["r"] == 0:
        tiles = [win[0][0] for win in sysd["classes"]]
        rule = {win[0][0]: {quad: child[0][0]
                            for quad, child in sysd["smap"][win].items()}
                for win in sysd["classes"]}
        return Substitution2D(tiles, rule)
    return Substitution2D(sysd["classes"], sysd["smap"])


def legal_adjacencies(scheme, depth: int = 0):
    """(hpairs, vpairs) of legal horizontally/vertically adjacent pairs.

    For a scheme name, pairs of collared classes at the given depth; for a
    Substitution2D, pairs of its own tiles from supertile enumeration.
    """
    if isinstance(scheme, Substitution2D):
        hp = {(w[0][0], w[0][1]) for w in scheme.legal(2, 1)}
        vp = {(w[0][0], w[1][0]) for w in scheme.legal(1, 2)}
        return sorted(hp, key=repr), sorted(vp, key=repr)
    sysd = _collared_system(scheme, depth)
    return sysd["hpairs"], sysd["vpairs"]


def border_forcing_check(scheme, max_power: int = 4):
    """Smallest k <= max_power such that k-fold inflation of a prototile
    determines the ring of tiles around its supertile, or None.

    For a scheme name the check runs on the tile-level quotient rule; if
    the rule only descends to collared prototiles the scheme cannot be
    built uncollared and the check reports None.
    """
    if isinstance(scheme, Substitution2D):
        sub = scheme
    else:
        if not _tile_descends(scheme):
            return None
        sub = descend_rule(scheme)
    legal3 = sub.legal(3, 3)
    for k in range(1, max_power + 1):
        ok = True
        for t in sub.tiles:
            rings = set()
            for win in legal3:
                if win[1][1] != t:
                    continue
                patch = {(i, j): win[j][i] for j in range(3) for i in range(3)}
                for _ in range(k):
                    patch = sub.inflate(patch)
                m = 2 ** k
                lo, hi = m - 1, 2 * m
                ring = tuple(sorted(((i, j), patch[(i, j)])
                                    for i in range(lo, hi + 1)
                                    for j in range(lo, hi + 1)
                                    if i in (lo, hi) or j in (lo, hi)))
                rings.add(ring)
            if len(rings) > 1:
                ok = False
                break
        if ok:
            return k
    return None


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
    raise ValueError(f"collar must be auto/forced/off, not {collar!r}")


class _DSU:
    def __init__(self):
        self.p = {}

    def find(self, x):
        p = self.p
        if x not in p:
            p[x] = x
            return x
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a, b):
        self.p[self.find(a)] = self.find(b)


# edge orientations: S/N edges run west->east, W/E edges run south->north;
# 2-cells are oriented counterclockwise
_EDGE_ENDS = {"S": ("SW", "SE"), "N": ("NW", "NE"),
              "W": ("SW", "NW"), "E": ("SE", "NE")}
_CORNER_QUAD = {"SW": Q_SW, "SE": Q_SE, "NW": Q_NW, "NE": Q_NE}


def _cell_dsus(sysd):
    """Edge and vertex identifications from adjacency and corner contacts."""
    edsu, vdsu = _DSU(), _DSU()
    for a, b in sysd["hpairs"]:
        edsu.union((a, "E"), (b, "W"))
        vdsu.union((a, "SE"), (b, "SW"))
        vdsu.union((a, "NE"), (b, "NW"))
    for a, b in sysd["vpairs"]:
        edsu.union((a, "N"), (b, "S"))
        vdsu.union((a, "NW"), (b, "SW"))
        vdsu.union((a, "NE"), (b, "SE"))
    for sw, se, nw, ne in sysd["blocks"]:
        vdsu.union((sw, "NE"), (se, "NW"))
        vdsu.union((sw, "NE"), (nw, "SE"))
        vdsu.union((sw, "NE"), (ne, "SW"))
    return edsu, vdsu


@functools.lru_cache(maxsize=None)
def _ap_complex_2d_depth(name: str, r: int):
    sysd = _collared_system(name, r)
    classes = sysd["classes"]
    smap = sysd["smap"]
    edsu, vdsu = _cell_dsus(sysd)
    edges = sorted({edsu.find((c, s)) for c in classes for s in SIDES},
                   key=repr)
    verts = sorted({vdsu.find((c, k)) for c in classes for k in CORNERS},
                   key=repr)
    ei = {x: i for i, x in enumerate(edges)}
    vi = {x: i for i, x in enumerate(verts)}
    ci = {c: i for i, c in enumerate(classes)}

    def eix(c, s):
        return ei[edsu.find((c, s))]

    def vix(c, k):
        return vi[vdsu.find((c, k))]

    d0 = [[0] * len(verts) for _ in range(len(edges))]
    seen_d0 = {}
    for c in classes:
        for s, (tail, head) in _EDGE_ENDS.items():
            col = (vix(c, head), vix(c, tail))
            i = eix(c, s)
            if seen_d0.setdefault(i, col) != col:
                raise NotWellDefined(
                    "edge endpoints differ between representatives",
                    witness=(c, s))
    for i, (h, t) in seen_d0.items():
        d0[i][h] += 1
        d0[i][t] -= 1
    d1 = [[0] * len(edges) for _ in range(len(classes))]
    for c in classes:
        row = d1[ci[c]]
        row[eix(c, "S")] += 1
        row[eix(c, "E")] += 1
        row[eix(c, "N")] -= 1
        row[eix(c, "W")] -= 1
    cx = CochainComplex(
        [verts, edges, classes],
        [IntMatrix.from_rows(d0), IntMatrix.from_rows(d1)])

    a2 = [[0] * len(classes) for _ in range(len(classes))]
    for c in classes:
        for child in smap[c].values():
            a2[ci[child]][ci[c]] += 1
    child_edges = {"S": ((Q_SW, "S"), (Q_SE, "S")),
                   "N": ((Q_NW, "N"), (Q_NE, "N")),
                   "W": ((Q_SW, "W"), (Q_NW, "W")),
                   "E": ((Q_SE, "E"), (Q_NE, "E"))}
    a1 = [[0] * len(edges) for _ in range(len(edges))]
    seen1 = {}
    for c in classes:
        blk = smap[c]
        for s, parts in child_edges.items():
            img = tuple(sorted(eix(blk[quad], ss) for quad, ss in parts))
            i = eix(c, s)
            if seen1.setdefault(i, img) != img:
                raise NotWellDefined(
                    "substitution image of an edge differs between "
                    "representatives", witness=(c, s))
    for i, img in seen1.items():
        for j in img:
            a1[j][i] += 1
    a0 = [[0] * len(verts) for _ in range(len(verts))]
    seen0 = {}
    for c in classes:
        blk = smap[c]
        for k, quad in _CORNER_QUAD.items():
            img = vix(blk[quad], k)
            i = vix(c, k)
            if seen0.setdefault(i, img) != img:
                raise NotWellDefined(
                    "substitution image of a vertex differs between "
                    "representatives", witness=(c, k))
    for i, img in seen0.items():
        a0[img][i] = 1
    self_map = CellularMap(cx, cx, [IntMatrix.from_rows(a0),
                                    IntMatrix.from_rows(a1),
                                    IntMatrix.from_rows(a2)])
    return cx, self_map


def ap_complex_2d(name: str, collar: str = "auto"):
    """(approximant complex, substitution self-map) of a decoration scheme."""
    scheme_parts(name)
    return _ap_complex_2d_depth(name, collar_depth(name, collar))


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


def lattice_steps(fine: str, coarse: str):
    """The factor map fine -> coarse as a chain of lattice_edges() steps,
    as (fine, coarse) pairs: the arrow steps first, then the label steps."""
    fa, fl = scheme_parts(fine)
    ca, cl = scheme_parts(coarse)
    ai, aj = ARROW_ORDER.index(fa), ARROW_ORDER.index(ca)
    li, lj = LABEL_ORDER.index(fl), LABEL_ORDER.index(cl)
    if aj < ai or lj < li:
        raise InvalidPath(f"no factor map from chair:{fine} to chair:{coarse}")
    chain = ([f"{a},{fl}" for a in ARROW_ORDER[ai:aj + 1]]
             + [f"{ca},{l}" for l in LABEL_ORDER[li + 1:lj + 1]])
    return tuple(zip(chain, chain[1:]))


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


def _tile_coarsening(fine: str, coarse: str):
    qf, qc = decorate(fine), decorate(coarse)
    out = {}
    for t in MASTER_TILES:
        ft, ct = qf(t), qc(t)
        if out.setdefault(ft, ct) != ct:
            raise NotWellDefined(
                f"coarsening {fine} -> {coarse} not determined by fine tiles",
                witness=t)
    return out


@functools.lru_cache(maxsize=None)
def factor_map_edge(fine: str, coarse: str, collar: str = "forced"):
    """Cellular factor map between the complexes of two adjacent schemes."""
    edge_type(fine, coarse)
    r = max(collar_depth(fine, collar), collar_depth(coarse, collar))
    fcx, _ = _ap_complex_2d_depth(fine, r)
    ccx, _ = _ap_complex_2d_depth(coarse, r)
    tmap = _tile_coarsening(fine, coarse)

    def cmap(win):
        return tuple(tuple(tmap[t] for t in row) for row in win)

    fci = {c: i for i, c in enumerate(fcx.cells[2])}
    cci = {c: i for i, c in enumerate(ccx.cells[2])}
    m2 = [[0] * len(fcx.cells[2]) for _ in range(len(ccx.cells[2]))]
    for c in fcx.cells[2]:
        m2[cci[cmap(c)]][fci[c]] = 1
    # edges/vertices: the identified-cell image must not depend on the
    # representative (class, side/corner) pair
    fe, fv = _cell_lookups(fcx, _collared_system(fine, r))
    ce, cv = _cell_lookups(ccx, _collared_system(coarse, r))
    m1 = [[0] * len(fcx.cells[1]) for _ in range(len(ccx.cells[1]))]
    seen1 = {}
    for c in fcx.cells[2]:
        for s in SIDES:
            i, j = fe[(c, s)], ce[(cmap(c), s)]
            if seen1.setdefault(i, j) != j:
                raise NotWellDefined(
                    "edge image differs between representatives",
                    witness=(c, s))
    for i, j in seen1.items():
        m1[j][i] = 1
    m0 = [[0] * len(fcx.cells[0]) for _ in range(len(ccx.cells[0]))]
    seen0 = {}
    for c in fcx.cells[2]:
        for k in CORNERS:
            i, j = fv[(c, k)], cv[(cmap(c), k)]
            if seen0.setdefault(i, j) != j:
                raise NotWellDefined(
                    "vertex image differs between representatives",
                    witness=(c, k))
    for i, j in seen0.items():
        m0[j][i] = 1
    return CellularMap(fcx, ccx, [IntMatrix.from_rows(m0),
                                  IntMatrix.from_rows(m1),
                                  IntMatrix.from_rows(m2)])


def _cell_lookups(cx, sysd):
    """(edge index, vertex index) lookups keyed by (class, side/corner)."""
    edsu, vdsu = _cell_dsus(sysd)
    ei = {x: i for i, x in enumerate(cx.cells[1])}
    vi = {x: i for i, x in enumerate(cx.cells[0])}
    fe = {(c, s): ei[edsu.find((c, s))]
          for c in cx.cells[2] for s in SIDES}
    fv = {(c, k): vi[vdsu.find((c, k))]
          for c in cx.cells[2] for k in CORNERS}
    return fe, fv


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
    """The realization of a path label that compose_path composes.

    Among the realizations of the label word, arrow-coarsening steps are
    preferred over label-coarsening steps at each position (the composed
    quotient cohomology is realization-independent; see path_realizations
    to enumerate the alternatives).
    """
    def step_key(step):
        fine, coarse = step
        return 0 if scheme_parts(fine)[0] != scheme_parts(coarse)[0] else 1

    return min(path_realizations(space, word),
               key=lambda real: [step_key(s) for s in real])


def compose_path(space: str, word: str, collar: str = "forced"):
    """Composite factor map for a path label, on its canonical_realization."""
    return compose_realization(canonical_realization(space, word), collar)


def compose_realization(steps, collar: str = "forced"):
    maps = [factor_map_edge(f, c, collar) for f, c in steps]
    out = maps[0]
    for m in maps[1:]:
        out = m.compose(out)
    return out
