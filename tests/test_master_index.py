"""The int-keyed master-window index against the tuple-keyed path it replaced.

`tests/subst2d_reference.py` holds the former per-scheme window enumeration,
union-find, complex build and factor map verbatim.  Every catalog complex,
lattice edge, adjacency list, descended rule and descent witness must come
out identical; and the fact the index rests on (one enumeration of the
legal (2r+2)-square master windows yields every smaller legal window the
build uses) is checked directly.  The reference also keeps the former
dict-patch `legal` and `border_forcing_check`, which must agree too: the
legal-patch closure gives identical lists of windows, in the same order.
"""
import pytest

import subst2d_reference as ref
from tilecohom.errors import NotWellDefined
from tilecohom.subst2d import (SCHEME_NAMES, _ap_complex_2d_depth,
                               border_forcing_check, descend_rule,
                               factor_map_edge, lattice_edges,
                               legal_adjacencies, master_system)

DEPTHS = [(name, 1) for name in SCHEME_NAMES] + [
    (name, 0) for name in SCHEME_NAMES if ref._tile_descends(name)]


def _bad_arrow(tile):
    a, lab = tile
    return ("N" if a in ("NE", "NW") else a, lab)


def _sub_windows(win, w, h):
    return {tuple(tuple(row[x0:x0 + w]) for row in win[y0:y0 + h])
            for x0 in range(len(win[0]) - w + 1)
            for y0 in range(len(win) - h + 1)}


@pytest.mark.parametrize("r", [0, 1])
def test_master_windows_hold_every_smaller_legal_window(r):
    ms = master_system()
    n, m = 2 * r + 1, 2 * r + 2
    masters = ms.legal(m, m)
    for w, h in ((n, n), (n + 1, n), (n, n + 1), (m, m)):
        subs = set().union(*(_sub_windows(win, w, h) for win in masters))
        assert subs == set(ms.legal(w, h)), (w, h)


@pytest.mark.parametrize("size", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 3),
                                  (4, 3), (3, 4), (4, 4), (5, 5), (6, 6)])
def test_legal_windows_identical(size):
    assert master_system().legal(*size) == ref.master_system().legal(*size)


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_scheme_legal_windows_identical(name):
    new, old = descend_rule(name), ref.descend_rule(name)
    for size in ((3, 3), (2, 1), (1, 2)):
        assert new.legal(*size) == old.legal(*size), size


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_border_forcing_identical(name):
    assert border_forcing_check(name) == ref.border_forcing_check(name)
    if ref._tile_descends(name):
        assert descend_rule(name).legal(3, 3) == \
            ref.descend_rule(name).legal(3, 3)


@pytest.mark.parametrize("r", [0, 1])
def test_index_windows_and_contacts(r):
    ms = master_system()
    n = 2 * r + 1
    idx = ms._index(r)
    tiles = ms.tiles
    nested = [tuple(tuple(tiles[t] for t in w[j * n:(j + 1) * n])
                    for j in range(n)) for w in idx["windows"]]
    assert nested == ms.legal(n, n)
    at = {w: i for i, w in enumerate(nested)}
    assert idx["h"] == sorted({(at[tuple(row[:n] for row in win)],
                                at[tuple(row[1:] for row in win)])
                               for win in ms.legal(n + 1, n)})
    assert idx["v"] == sorted({(at[win[:n]], at[win[1:]])
                               for win in ms.legal(n, n + 1)})
    assert len(idx["children"]) == len(nested)


@pytest.mark.parametrize("name,r", DEPTHS)
def test_complex_identical(name, r):
    cx, sm, *_ = _ap_complex_2d_depth(name, r)
    rcx, rsm = ref._ap_complex_2d_depth(name, r)
    assert cx.cells == rcx.cells
    assert cx.delta == rcx.delta
    assert sm.chain == rsm.chain


@pytest.mark.parametrize("name,r", DEPTHS)
def test_adjacencies_identical(name, r):
    assert legal_adjacencies(name, r) == ref.legal_adjacencies(name, r)


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_descended_rule_identical(name):
    new, old = descend_rule(name), ref.descend_rule(name)
    assert new.tiles == old.tiles
    assert new.rule == old.rule


@pytest.mark.parametrize("typ,fine,coarse", lattice_edges())
def test_factor_map_identical(typ, fine, coarse):
    f = factor_map_edge(fine, coarse)
    g = ref.factor_map_edge(fine, coarse)
    assert f.source.cells == g.source.cells
    assert f.target.cells == g.target.cells
    assert f.chain == g.chain


def test_bad_coarsening_same_witness():
    with pytest.raises(NotWellDefined) as new:
        descend_rule(_bad_arrow)
    with pytest.raises(NotWellDefined) as old:
        ref.descend_rule(_bad_arrow)
    assert str(new.value) == str(old.value)
    assert new.value.witness == old.value.witness
    assert new.value.witness is not None
