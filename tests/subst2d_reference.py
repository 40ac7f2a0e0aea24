"""Reference 2-D complex construction on tuple-keyed windows.

These are the dict-patch legal-window enumeration (`Substitution2D.legal`),
the per-scheme window work (`_system_for_q`), the tuple-keyed union-find
(`_DSU`, `_cell_dsus`, `_cell_lookups`), the complex build
(`_ap_complex_2d_depth`), the factor map (`factor_map_edge`) and
`border_forcing_check` that the int-keyed master-window index in
`tilecohom.subst2d` replaced, kept verbatim so the differential tests can
demand identical windows, cells, matrices, rules and witnesses.  The
row-patch `legal` (`RowSubstitution2D`), closure and `_master_index` that
the flat squares of tile ids replaced are kept at the end, verbatim too,
with the row inflation `_inflate` that was `Substitution2D.inflate`,
followed by the `canonical_realization` that took the minimum over all
realizations of a path label before it became the first one found, the
row-patch `_forcing_power` that the side tables replaced, the side-tuple
`_tuple_forcing_power` that the numbered sides replaced, and the
`lattice_steps` chain and the composing `compose_realization` that the
factor map of any comparable pair replaced, the element-wise cell maps
that the root elements replaced, and the cut of a rule's contact pairs
from its legal dominoes (`cut_adjacencies`) that the depth-0 window index
replaced.  Test-only code.
"""
from __future__ import annotations

import functools

from catalog_reference import collar_depth
from tilecohom import subst2d
from tilecohom.abelian import IntMatrix
from tilecohom.complexes import CellularMap, CochainComplex
from tilecohom.errors import InvalidPath, NotWellDefined
from tilecohom.subst2d import (ARROW_ORDER, CORNERS, LABEL_ORDER,
                               MASTER_TILES, QUADS, Q_NE, Q_NW, Q_SE, Q_SW,
                               SIDES, decorate, edge_type,
                               master_rule, path_realizations, scheme_parts)


class Substitution2D(subst2d.Substitution2D):
    """The block substitution with its former dict-patch methods."""

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


# ---- the row-patch closure and master index the flat squares replaced ----
#
# `Substitution2D.legal` on rows of tiles, the shared closure
# `_legal_patches` as it stood before it kept the 2-patches on the
# substitution, and `_master_index`, which cut its windows from the rows of
# `legal(m, m)`: verbatim but for the class they live on and the master
# system `_master_index` reads.  `_inflate` is the row inflation these
# paths and `_forcing_power` below ran, `Substitution2D.inflate` as it
# stood: verbatim but for taking the substitution as an argument.


def _inflate(sub, rows):
    """Inflation of a patch given as rows of tiles, south row first
    (rows[j][i] is the tile at (i, j))."""
    rule = sub.rule
    return [[rule[t][(c, r)] for t in row for c in (0, 1)]
            for row in rows for r in (0, 1)]


class RowSubstitution2D(subst2d.Substitution2D):
    """The block substitution with its former row-patch `legal`."""

    def legal(self, w, h):
        """All legal w x h patches, as rows, sorted by repr: cut from the
        legal max(w, h)-squares of the legal-patch closure."""
        key = (w, h)
        if key not in self._legal_cache:
            self.require_primitive()
            squares = _legal_patches(
                [((t,),) for t in self.tiles],
                lambda p, m: _windows(_inflate(self, p), m, m), 2, max(w, h))
            self._legal_cache[key] = sorted(
                set().union(*(_windows(p, w, h) for p in squares)), key=repr)
        return self._legal_cache[key]


def _legal_patches(tiles, image_windows, stretch, n):
    """The set of legal n-patches: n-words in 1-D, n x n squares in 2-D.

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


def _windows(rows, w, h):
    """The set of w x h windows of a patch given as rows."""
    # cuts[y][x0] is row y cut to [x0, x0 + w); zipping h consecutive
    # rows of cuts yields the windows of that band
    cuts = [[tuple(row[x0:x0 + w]) for x0 in range(len(row) - w + 1)]
            for row in rows]
    return set().union(*(zip(*cuts[y0:y0 + h])
                         for y0 in range(len(cuts) - h + 1)))


@functools.lru_cache(maxsize=None)
def row_master_system() -> RowSubstitution2D:
    return RowSubstitution2D(MASTER_TILES, {t: master_rule(t)
                                            for t in MASTER_TILES})


def _rows(flat, n, tiles):
    """A flat n x n window of master-tile indices as rows of tiles[index]."""
    return tuple(tuple(tiles[t] for t in flat[j * n:(j + 1) * n])
                 for j in range(n))


@functools.lru_cache(maxsize=None)
def _master_index(r: int):
    """Int-keyed index of the legal master windows for collar depth r.

    Built from the legal m-square master windows (m = 2r + 2) alone: their
    n-square sub-windows (n = 2r + 1) are exactly the legal n x n, and
    their (n+1) x n, n x (n+1) and m x m sub-windows give every adjacency
    and corner contact (tests/test_master_index.py checks both facts).
    `windows` lists the n x n windows as flat row-major tuples of indices
    into `master_system().tiles`, in `legal(n, n)` (repr) order; a window's
    id is its position there.  `children[w]` holds the ids of the four
    windows centred on the children of w's centre tile, in QUADS order;
    `h`, `v` and `corners` hold the id pairs (west, east), (south, north)
    and quadruples (SW, SE, NW, NE) of contacts.
    """
    ms = row_master_system()
    tid = {t: i for i, t in enumerate(ms.tiles)}
    n, m = 2 * r + 1, 2 * r + 2

    def cut(width, x0, y0):
        """Getter of the n x n sub-window at (x0, y0) of a flat window."""
        idx = [(y0 + j) * width + x0 + i for j in range(n) for i in range(n)]
        return lambda flat: tuple(flat[k] for k in idx)

    subs = {(x0, y0): cut(m, x0, y0) for x0 in (0, 1) for y0 in (0, 1)}
    masters = [tuple(tid[t] for row in win for t in row)
               for win in ms.legal(m, m)]
    windows = sorted({sub(w) for w in masters for sub in subs.values()})
    wid = {w: i for i, w in enumerate(windows)}
    centred = [cut(2 * n, r + c, r + rr) for c, rr in QUADS]
    children = []
    for w in windows:
        big = [tid[t] for row in _inflate(ms, _rows(w, n, ms.tiles))
               for t in row]
        children.append(tuple(wid[sub(big)] for sub in centred))
    ids = [{key: wid[sub(w)] for key, sub in subs.items()} for w in masters]
    return dict(
        n=n, windows=windows, children=children,
        h=sorted({(s[0, y], s[1, y]) for s in ids for y in (0, 1)}),
        v=sorted({(s[x, 0], s[x, 1]) for s in ids for x in (0, 1)}),
        corners=sorted({(s[0, 0], s[1, 0], s[0, 1], s[1, 1]) for s in ids}))


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


# ---- the row-patch border-forcing test the side tables replaced ----
#
# `subst2d._forcing_power` as it stood when it inflated every legal 3x3
# patch k times through the row-based `Substitution2D.inflate` (`_inflate`
# above): verbatim.


def _forcing_power(sub, max_power):
    legal3 = sub.legal(3, 3)
    for k in range(1, max_power + 1):
        lo, hi = 2 ** k - 1, 2 ** (k + 1)
        ring = [(i, j) for i in range(lo, hi + 1) for j in range(lo, hi + 1)
                if i in (lo, hi) or j in (lo, hi)]
        for t in sub.tiles:
            rings = set()
            for rows in legal3:
                if rows[1][1] != t:
                    continue
                for _ in range(k):
                    rows = _inflate(sub, rows)
                rings.add(tuple(rows[j][i] for i, j in ring))
            if len(rings) > 1:
                break
        else:
            return k
    return None


# ---- the side-tuple border-forcing test the numbered sides replaced ----
#
# `subst2d._forcing_power` as it stood when each k-fold side was the tuple
# of its 2^k tiles, so that its memory grew fourfold every two powers:
# verbatim but for its name.


def _tuple_forcing_power(sub, max_power):
    """Least k <= max_power at which each legal 3-square's centre tile fixes
    the ring around its k-supertile, or None: the facing sides of the edge
    neighbours' k-supertiles and corners of the diagonal ones.  A tile's
    k-fold S, N, W, E sides join two of its children's (k-1)-fold sides."""
    squares = sub._squares(3)
    sides = [((t,),) * 4 for t in range(len(sub.tiles))]
    for k in range(1, max_power + 1):
        sides = [(sides[sw][0] + sides[se][0], sides[nw][1] + sides[ne][1],
                  sides[sw][2] + sides[nw][2], sides[se][3] + sides[ne][3])
                 for nw, ne, sw, se in sub._kids]
        rings = {(c, sides[s][1], sides[n][0], sides[w][3], sides[e][2],
                  sides[sw][1][-1], sides[se][1][0], sides[nw][0][-1],
                  sides[ne][0][0])
                 for sw, s, se, w, c, e, nw, n, ne in squares}
        if len(rings) == len({ring[0] for ring in rings}):
            return k
    return None


# ---- the lattice chain and the composed maps the pair map replaced ----
#
# `subst2d.lattice_steps` and `subst2d.compose_realization` as they stood
# when a quotient walked the chain of lattice edges and a path multiplied
# its edge maps: verbatim, except that compose_realization calls
# `edge_map`, the one-step factor_map_edge of that time (this module's
# factor_map_edge is the tuple-keyed reference).


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


def edge_map(fine: str, coarse: str, collar: str = "forced"):
    """factor_map_edge when it took lattice edges only: the edge check,
    then the package's map of the pair, which has the same body."""
    edge_type(fine, coarse)
    return subst2d.factor_map_edge(fine, coarse, collar)


def compose_realization(steps, collar: str = "forced"):
    maps = [edge_map(f, c, collar) for f, c in steps]
    out = maps[0]
    for m in maps[1:]:
        out = m.compose(out)
    return out


# ---- the element-wise cell maps the root elements replaced ----
#
# `subst2d._cells`, `_cell_map`, `_ap_complex_2d_depth` and
# `_factor_map_depth` as they stood when the image of every (class, slot)
# element was computed and two elements of one cell that disagreed raised
# NotWellDefined: five checks, on the edge endpoints, the substitution
# images of edges and vertices, and the factor-map images of edges and
# vertices.  Verbatim but for the names `element_cells`,
# `element_complex_2d_depth` and `element_factor_map_depth`, for
# `subst2d.` before the names this module also defines or that only
# `subst2d` holds, and for the line breaks that prefix needs.


def element_cells(roots, names, classes):
    """Cell labels (class, side/corner) of the union-find roots, in repr
    order, and the cell index of every (class, slot) element."""
    labels = sorted(set(roots), key=lambda x: (x >> 2, names[x & 3]))
    at = {x: i for i, x in enumerate(labels)}
    return ([(classes[x >> 2], names[x & 3]) for x in labels],
            [at[x] for x in roots])


def _cell_map(index, image, what, classes, names):
    """{cell: image(c, slot)} over every (class, slot) element of `index`;
    the image of a cell must not depend on the representative element."""
    seen = {}
    for x, i in enumerate(index):
        j = image(x >> 2, x & 3)
        if seen.setdefault(i, j) != j:
            raise NotWellDefined(f"{what} differs between representatives",
                                 witness=(classes[x >> 2], names[x & 3]))
    return seen


_S, _N, _W, _E = range(4)
_SW, _SE, _NW, _NE = range(4)


@functools.lru_cache(maxsize=None)
def element_complex_2d_depth(name: str, r: int):
    """(complex, self-map, edge index, vertex index) at collar depth r; the
    indices map each 4 * class + slot to its cell."""
    sysd = subst2d._collared_system(name, r)
    classes, smap = sysd["classes"], sysd["smap"]
    nc = len(classes)
    hp, vp = sysd["hpairs"], sysd["vpairs"]
    edges, eix = element_cells(subst2d._roots(
        4 * nc, [(4 * a + _E, 4 * b + _W) for a, b in hp]
        + [(4 * a + _N, 4 * b + _S) for a, b in vp]), SIDES, classes)
    verts, vix = element_cells(subst2d._roots(
        4 * nc, [x for a, b in hp for x in ((4 * a + _SE, 4 * b + _SW),
                                             (4 * a + _NE, 4 * b + _NW))]
        + [x for a, b in vp for x in ((4 * a + _NW, 4 * b + _SW),
                                      (4 * a + _NE, 4 * b + _SE))]
        + [(4 * sw + _NE, 4 * x + k) for sw, se, nw, ne in sysd["blocks"]
           for x, k in ((se, _NW), (nw, _SE), (ne, _SW))]), CORNERS, classes)

    d0 = {}
    for i, (h, t) in _cell_map(
            eix, lambda c, s: (vix[4 * c + subst2d._ENDS[s][1]],
                               vix[4 * c + subst2d._ENDS[s][0]]),
            "edge endpoints", classes, SIDES).items():
        d0[i, h] = d0.get((i, h), 0) + 1
        d0[i, t] = d0.get((i, t), 0) - 1
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
    a1 = {}
    for i, img in _cell_map(
            eix, lambda c, s: tuple(sorted(
                eix[4 * smap[c][subst2d._CORNER_QUAD[k]] + s]
                for k in subst2d._ENDS[s])),
            "substitution image of an edge", classes, SIDES).items():
        for j in img:
            a1[j, i] = a1.get((j, i), 0) + 1
    a0 = _cell_map(
        vix, lambda c, k: vix[4 * smap[c][subst2d._CORNER_QUAD[k]] + k],
        "substitution image of a vertex", classes, CORNERS)
    self_map = CellularMap(cx, cx, [
        IntMatrix.from_entries(len(verts), len(verts),
                               {(j, i): 1 for i, j in a0.items()}),
        IntMatrix.from_entries(len(edges), len(edges), a1),
        IntMatrix.from_entries(nc, nc, a2)])
    return cx, self_map, eix, vix


@functools.lru_cache(maxsize=None)
def element_factor_map_depth(fine: str, coarse: str, r: int):
    """The factor map fine -> coarse at collar depth r."""
    subst2d._check_depth(r, fine, coarse)
    fcx, _, fe, fv = element_complex_2d_depth(fine, r)
    ccx, _, ce, cv = element_complex_2d_depth(coarse, r)
    fsys = subst2d._collared_system(fine, r)
    fclasses = fsys["classes"]
    # the coarse class of each fine class, read off the master windows: the
    # coarse decoration of a tile is a function of the fine one
    down = dict(zip(fsys["cls"], subst2d._collared_system(coarse, r)["cls"]))
    m1 = _cell_map(fe, lambda c, s: ce[4 * down[c] + s], "edge image",
                   fclasses, SIDES)
    m0 = _cell_map(fv, lambda c, k: cv[4 * down[c] + k], "vertex image",
                   fclasses, CORNERS)
    return CellularMap(fcx, ccx, [
        IntMatrix.from_entries(ccx.n_cells(k), fcx.n_cells(k),
                               {(j, i): 1 for i, j in m.items()})
        for k, m in enumerate((m0, m1, down))])


# ---- the adjacency cut the depth-0 window index replaced ----
#
# The `Substitution2D` branch of `subst2d.legal_adjacencies` as it stood
# when it cut the contact pairs of a rule's own tiles from `legal(2, 1)` and
# `legal(1, 2)`, verbatim but for the name `cut_adjacencies`.


def cut_adjacencies(scheme, depth: int = 0):
    """(hpairs, vpairs) of legal horizontally/vertically adjacent pairs of
    a Substitution2D's tiles, from supertile enumeration."""
    if depth != 0:
        raise ValueError(f"a Substitution2D has only depth 0, got {depth}")
    hp = {(w[0][0], w[0][1]) for w in scheme.legal(2, 1)}
    vp = {(w[0][0], w[1][0]) for w in scheme.legal(1, 2)}
    return sorted(hp, key=repr), sorted(vp, key=repr)
