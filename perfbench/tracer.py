"""Layer tracing from outside the program.

`Tracer.install()` replaces each public entry point of the tilecohom
layers with a wrapper that records a span (name, start, end, parent) and,
where the layer has one, a cache outcome.  The wrapper is bound wherever the
original object was bound: in the defining module, in every module that
imported the name with ``from .x import name``, and in the package
namespace.  Nothing in the program itself changes.

`Tracer.check_bindings()` fails loudly when an entry point no longer exists
or when a module whose source imports it by name does not hold the wrapper,
so that a rename cannot silently turn a layer metric into 0.
"""
from __future__ import annotations

import ast
import functools
import sys
import time

# module -> public functions wrapped in that module
ENTRY_POINTS = {
    "abelian": ("snf", "rank", "kernel_basis", "lattice_basis", "solve",
                "solve_matrix", "preimage_lattice", "cokernel",
                "induced_hom"),
    "complexes": ("cohomology", "pullback", "cohomology_tower",
                  "hom_on_cohomology", "quotient_complex", "les_quotient",
                  "lemma1_shortcut"),
    "limits": ("eventual_restriction", "classify", "verify_split",
               "iso_check", "limit_les"),
    "subst1d": ("ap_complex_1d", "tm_system", "pd_system", "sol_system",
                "factor_map_phi", "factor_map_psi", "factor_map_psi_phi",
                "factor_map_1d", "absolute_cohomology_1d",
                "quotient_cohomology_1d"),
    "subst2d": ("border_forcing_check", "ap_complex_2d", "factor_map_edge",
                "path_realizations", "compose_path", "compose_realization",
                "descend_rule"),
    "catalog": ("compute_space", "compute_quotient", "compute_path"),
}

class BindingError(RuntimeError):
    """An entry point the benchmark traces is missing or not rebound."""


def _package_modules(package):
    prefix = package.__name__ + "."
    return [mod for name, mod in sorted(sys.modules.items())
            if name == package.__name__ or name.startswith(prefix)]


def _by_name_imports(package):
    """(importer module, defining module name, name) for every module-level
    `from .<module> import name` in the package's sources.  Imports inside
    functions look the name up in the defining module at call time, so the
    rebinding there covers them."""
    out = []
    for mod in _package_modules(package):
        path = getattr(mod, "__file__", None)
        if not path:
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level >= 1:
                out += [(mod, node.module, a.name) for a in node.names
                        if a.asname is None]
    return out


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []        # (name, start, end, parent index or -1)
        self._stack = []
        self.originals = {}    # "module.name" -> original object
        self.wrappers = {}
        self.calls = {}
        self.hits = {}         # cache hits per entry point, where measurable
        self.snf_cells = []    # rows*cols of each snf cache miss
        self.complex_cells = []  # total cells of each ap_complex_2d result
        self._seen_cohomology = set()
        self._complexes = {}   # keeps complexes alive so ids stay unique

    # ---- installation ----

    def install(self, package):
        for modname, names in ENTRY_POINTS.items():
            mod = sys.modules.get(f"{package.__name__}.{modname}")
            if mod is None:
                raise BindingError(f"module {package.__name__}.{modname} "
                                   "is not importable")
            for name in names:
                orig = getattr(mod, name, None)
                if not callable(orig):
                    raise BindingError(f"entry point {modname}.{name} "
                                       "no longer exists")
                key = f"{modname}.{name}"
                self.originals[key] = orig
                self.wrappers[key] = self._wrap(key, orig)
        wrapper_of = {id(orig): self.wrappers[key]
                      for key, orig in self.originals.items()}
        for mod in _package_modules(package):
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapper_of:
                    setattr(mod, attr, wrapper_of[id(val)])
        self.check_bindings(package)

    def check_bindings(self, package):
        for key, wrapper in self.wrappers.items():
            modname, name = key.split(".")
            defining = sys.modules[f"{package.__name__}.{modname}"]
            if getattr(defining, name, None) is not wrapper:
                raise BindingError(f"{key} is not rebound in its own module")
        for mod, modname, name in _by_name_imports(package):
            wrapper = self.wrappers.get(f"{modname}.{name}")
            if wrapper is not None and getattr(mod, name, None) is not wrapper:
                raise BindingError(f"{mod.__name__} imports {name} from "
                                   f"{modname} but does not hold the traced "
                                   "wrapper")

    def _wrap(self, key, orig):
        spans, stack, calls, hits = self.spans, self._stack, self.calls, \
            self.hits
        calls[key] = 0
        info = getattr(orig, "cache_info", None)
        if info is not None or key == "complexes.cohomology":
            hits[key] = 0

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            before = info().hits if info is not None else 0
            if key == "complexes.cohomology":
                hits[key] += self._repeat_cohomology(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (key, start, end, stack[-1] if stack else -1)
            if info is not None and info().hits > before:
                hits[key] += 1
            elif key == "abelian.snf":
                self.snf_cells.append(args[0].rows * args[0].cols)
            if key == "subst2d.ap_complex_2d":
                cx = result[0]
                self.complex_cells.append(
                    sum(cx.n_cells(k) for k in range(cx.dimension + 1)))
            return result

        if info is not None:
            wrapper.cache_info = info
            wrapper.cache_clear = orig.cache_clear
        return wrapper

    def _repeat_cohomology(self, c, k):
        """1 when (complex, degree) was asked for before, else 0."""
        self._complexes[id(c)] = c
        seen = (id(c), k) in self._seen_cohomology
        self._seen_cohomology.add((id(c), k))
        return int(seen)

    # ---- results ----

    def self_times(self):
        """name -> [calls, total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def summary(self):
        """JSON-ready counters of one traced process."""
        return {"calls": dict(self.calls), "hits": dict(self.hits),
                "spans": self.self_times(),
                "snf_cells": [len(self.snf_cells), sum(self.snf_cells),
                              max(self.snf_cells, default=0)],
                "complex_cells_max": max(self.complex_cells, default=0),
                "cache_info": self.cache_info()}

    def cache_info(self):
        out = {key: orig.cache_info()._asdict()
               for key, orig in sorted(self.originals.items())
               if hasattr(orig, "cache_info")}
        out["complexes.cohomology(per complex)"] = {
            "complexes": len(self._complexes),
            "cached_degrees": len(self._seen_cohomology)}
        return out
