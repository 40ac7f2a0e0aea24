"""Count the hits and misses of every memo of `tilecohom` on the benchmark's
query sets.

Memos are the package's `functools.lru_cache` functions, read through
`cache_info()`, the two content stores, `complexes._complexes` and
`limits._limits`, whose `get` is counted by a dict subclass put in their
place from outside, and the per-object caches, counted by wrapping from
outside the one method that reads each: `Substitution1D._windows`
(`_letter_windows`), `Substitution2D._gathers` (`_image_windows`),
`Substitution2D._indexes` (`_index`), `Substitution2D._legal_cache`
(`legal`) and `IntMatrix._hash` (`__hash__`).  A call is a hit if the
entry was there before it.  A memo with no hits on any workload is one
that no workload needs.

The catalog-2d and grid-1d sets of `perfbench/queries.py` (seed 1 by
default) run in this process through the benchmark worker's `run_query`,
one after the other, each from emptied memos, as the benchmark runs each
in a fresh process.  The cli-cold set runs one query of each kind (a
chair space under the default collar policy, a 1-D space of each family
and a 1-D quotient of each pair kind) in a fresh interpreter of its own,
through `tilecohom.cli.main`.

The counts are a report, not a check; the script always exits 0.

Usage:
    python tests/check_memo_traffic.py [SEED]
"""
import contextlib
import importlib
import io
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True   # leave no cache files beside perfbench/

import queries  # noqa: E402  (perfbench/queries.py, read only)
import tilecohom  # noqa: E402
from tilecohom import catalog, complexes, limits  # noqa: E402
from tilecohom.abelian import IntMatrix  # noqa: E402
from tilecohom.subst1d import Substitution1D  # noqa: E402
from tilecohom.subst2d import Substitution2D  # noqa: E402
from worker import run_query  # noqa: E402  (perfbench/worker.py)

STORES = ((complexes, "_complexes"), (limits, "_limits"))

# (class, method that reads the cache, cache, whether a call hits it)
OBJECT_CACHES = (
    (Substitution1D, "_letter_windows", "_windows",
     lambda obj, m: m in obj._windows),
    (Substitution2D, "_image_windows", "_gathers",
     lambda obj, square, m: (len(square), m) in obj._gathers),
    (Substitution2D, "_index", "_indexes", lambda obj, r: r in obj._indexes),
    (Substitution2D, "legal", "_legal_cache",
     lambda obj, w, h: (w, h) in obj._legal_cache),
    (IntMatrix, "__hash__", "_hash", lambda obj: obj._hash is not None),
)
object_counts = {}


class CountingStore(dict):
    """A store that counts its lookups by `get`, hashing each key once as
    a plain dict does (`IntMatrix._hash` counts the hashes)."""

    hits = misses = 0

    def get(self, key, default=None):
        value = super().get(key, self)
        if value is self:
            self.misses += 1
            return default
        self.hits += 1
        return value


def lru_caches():
    """(module.name, function) of every lru_cache of the package."""
    for info in pkgutil.iter_modules(tilecohom.__path__):
        mod = importlib.import_module(f"tilecohom.{info.name}")
        for name, val in sorted(vars(mod).items()):
            if hasattr(val, "cache_info") and val.__module__ == mod.__name__:
                yield f"{info.name}.{name}", val


def count_calls(cls, method, cache, hit):
    """Wrap cls.method so that each call counts a hit or a miss of cache."""
    original = getattr(cls, method)
    counts = object_counts.setdefault(
        f"{cls.__module__.rpartition('.')[2]}.{cls.__name__}.{cache}", [0, 0])

    def counting(obj, *args):
        counts[not hit(obj, *args)] += 1
        return original(obj, *args)

    setattr(cls, method, counting)


def reset():
    """Empty every memo, put counting stores in place and zero the
    per-object counts."""
    for _, fn in lru_caches():
        fn.cache_clear()
    for mod, name in STORES:
        setattr(mod, name, CountingStore())
    for counts in object_counts.values():
        counts[:] = [0, 0]


def census():
    """{memo: [hits, misses]} since the last reset."""
    out = {name: [fn.cache_info().hits, fn.cache_info().misses]
           for name, fn in lru_caches()}
    for mod, name in STORES:
        store = getattr(mod, name)
        out[f"{mod.__name__.rpartition('.')[2]}.{name}"] = [store.hits,
                                                            store.misses]
    out.update((name, list(counts)) for name, counts in object_counts.items())
    return out


def in_process(workload, seed):
    reset()
    catalog.golden_table()   # the worker loads it before its queries
    for query in queries.make(workload, seed, catalog.PATH_STARTS):
        run_query(catalog, query)
    return census()


def cli_kinds(seed):
    """One cli-cold query of each kind, in first-drawn order."""
    kinds = {}
    for argv in queries.cli_cold(seed):
        names = [a for a in argv[1:] if ":" in a]
        kind = (argv[0],) + tuple(
            n if n.startswith("chair:") else n.partition(":")[0]
            for n in names)
        kinds.setdefault(kind, argv)
    return list(kinds.values())


def child(argv):
    """Run one CLI query from cold and print its census as JSON."""
    from tilecohom import cli
    reset()
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    print(json.dumps({"status": status, "census": census()}))


def table(columns):
    names = sorted({name for counts in columns.values() for name in counts})
    heads = list(columns)
    width = max(map(len, names))
    print(f"{'memo (hits/misses)':<{width}}  " + "  ".join(heads))
    for name in names:
        cells = ["{}/{}".format(*columns[h].get(name, ("-", "-")))
                 for h in heads]
        print(f"{name:<{width}}  " + "  ".join(
            f"{c:>{len(h)}}" for c, h in zip(cells, heads)))


def main(argv):
    for spec in OBJECT_CACHES:
        count_calls(*spec)
    if argv[1:2] == ["--child"]:
        child(argv[2:])
        return 0
    seed = int(argv[1]) if len(argv) > 1 else 1
    columns = {w: in_process(w, seed) for w in ("catalog-2d", "grid-1d")}
    for query in cli_kinds(seed):
        done = subprocess.run(
            [sys.executable, __file__, "--child", *query],
            capture_output=True, text=True, check=True)
        report = json.loads(done.stdout)
        label = " ".join(a for a in query if a != "--json")
        if report["status"]:
            label += f" (exit {report['status']})"
        columns[label] = report["census"]
    print(f"seed {seed}: the catalog-2d and grid-1d sets in one process, "
          "each from emptied memos; each cli-cold kind in a fresh process")
    table(columns)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
