"""Differential tests: 2-D cells read off their root elements against the
element-wise build.

An edge or vertex of a collared complex is a class of (collared tile, side
or corner) elements, glued along the legal contacts (Anderson-Putnam,
ETDS 18, 1998).  `subst2d._ap_complex_2d_depth` and `_factor_map_depth`
read each cell's endpoints, substitution image and factor-map image off
one element, the union-find root of its class.  The element-wise build
they replaced is kept verbatim in `tests/subst2d_reference.py`: it
computes the image of every element and raises NotWellDefined when two
elements of one cell disagree.  Why no input can make those five checks
fail:

- each union of two edges also joins their ends, in `_ENDS` order, so
  every element of an edge class has the same endpoint classes;
- the children of a legal contact are legal contacts (`_quotient` checks
  that the substitution descends to the classes, and
  `tests/test_master_index.py` that the contact lists are complete);
- coarsening keeps contacts legal, since both class lists are images of
  the same master windows (`tests/test_factor_map_facts.py`).

On the nine schemes at collar depths 0-2, and on every ordered scheme
pair at depths 0-2, both builds must give the same cells, coboundaries
and chain matrices, or the same typed error and message.  The reference
still runs its checks, so where it builds, the facts hold there.
"""
import itertools

import pytest

import subst2d_reference as ref
from tilecohom import subst2d
from tilecohom.errors import TilingCohomologyError
from tilecohom.subst2d import SCHEME_NAMES, _Depth

DEPTHS = (0, 1, 2)


def _outcome(run):
    """run()'s value, or its error's type and message; no error may be
    one of the removed representative checks."""
    try:
        return run()
    except (TilingCohomologyError, ValueError) as e:
        assert "differs between representatives" not in str(e)
        return type(e), str(e)


def _failed(out):
    return isinstance(out, tuple) and isinstance(out[0], type)


@pytest.mark.parametrize("r", DEPTHS)
@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_complex_and_self_map_identical(name, r):
    new = _outcome(lambda: subst2d._ap_complex_2d_depth(name, r))
    old = _outcome(lambda: ref.element_complex_2d_depth(name, r))
    if _failed(new) or _failed(old):
        assert new == old
        return
    (cx, sm), (rcx, rsm) = new[:2], old[:2]
    assert cx.cells == rcx.cells
    assert cx.delta == rcx.delta
    assert sm.chain == rsm.chain


@pytest.mark.parametrize("r", DEPTHS)
@pytest.mark.parametrize("fine,coarse",
                         list(itertools.product(SCHEME_NAMES, repeat=2)))
def test_factor_map_identical(fine, coarse, r, monkeypatch):
    """Both constructions behind the one guard of `factor_map_edge`."""
    new = _outcome(lambda: subst2d.factor_map_edge(fine, coarse, _Depth(r)))
    monkeypatch.setattr(subst2d, "_factor_map_depth",
                        ref.element_factor_map_depth)
    old = _outcome(lambda: subst2d.factor_map_edge(fine, coarse, _Depth(r)))
    if _failed(new) or _failed(old):
        assert new == old
        return
    assert new.source.cells == old.source.cells
    assert new.target.cells == old.target.cells
    assert new.chain == old.chain
