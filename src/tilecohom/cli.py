"""Command-line front end.

Verbs: space, quotient, path, verify, dump.  Text output renders group
expressions in the canonical grammar; --json emits one structured document
per invocation.  Exit status: 0 on success or all checks passing, 1 on a
verification mismatch or failed computation, 2 on a usage error.

`run()` is the process entry point; `main()` returns the status and leaves
the process running, for tests and embedders.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
from typing import NoReturn

from . import catalog, subst1d, subst2d
from .abelian import IntMatrix
from .errors import InvalidPath, TilingCohomologyError


def _positive_int(text: str) -> int:
    try:
        n = subst1d.decimal(text)
    except ValueError:   # not ASCII digits
        n = 0
    if not 1 <= n < 2 ** 31:   # signal.alarm takes at most 2**31 - 1
        raise argparse.ArgumentTypeError(
            f"expected ASCII digits N >= 1, N < 2**31, got {text}")
    return n


def _common_flags():
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--json", action="store_true",
                   help="emit a structured JSON document")
    p.add_argument("--timeout-sec", type=_positive_int, default=None,
                   metavar="N", help="abort after N seconds, 1 <= N < 2**31")
    return p


def _collar_flag():
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--collar", choices=["auto", "on", "off"], default="auto",
                   help="collaring policy for chair:* complexes (on and off "
                        "are usage errors for 1-D spaces)")
    return p


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    collared = [common, _collar_flag()]
    p = argparse.ArgumentParser(
        prog="tilecohom",
        description="Cohomology and quotient cohomology of substitution "
                    "tiling spaces (exact arithmetic).")
    sub = p.add_subparsers(dest="verb", required=True)
    sp = sub.add_parser("space", parents=collared,
                        help="absolute cohomology of a named space")
    sp.add_argument("name", help='e.g. "tm:2,1", "sol:3", "chair:X,+"')
    qp = sub.add_parser("quotient", parents=collared,
                        help="quotient cohomology of a factor-map pair")
    qp.add_argument("fine")
    qp.add_argument("coarse")
    pp = sub.add_parser("path", parents=collared,
                        help="quotient cohomology of a composed lattice path")
    pp.add_argument("start", help='e.g. "chair:X,+"')
    pp.add_argument("word", help="word over A, B, C")
    vp = sub.add_parser("verify", parents=[common],
                        help="recompute the golden tables and report")
    vp.add_argument("scope", nargs="?", default="all",
                    choices=["1d", "2d", "all"])
    vp.add_argument("--grid", default=None, metavar="k1,l1;k2,l2",
                    help="override the 1-D parameter grid")
    dp = sub.add_parser("dump", parents=collared,
                        help="print the cells and coboundaries of a complex")
    dp.add_argument("name")
    return p


def _parse_grid(text):
    items = [pair.split(",") for pair in text.split(";") if pair]
    try:
        return tuple((subst1d.decimal(k), subst1d.decimal(l))
                     for k, l in items)
    except ValueError:   # not decimal digits, or not a pair
        raise InvalidPath(f"cannot parse grid {text!r}: expected k1,l1;k2,l2")


def _emit(args, doc, text_lines):
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _degree_results(exprs):
    return [dict(degree=k, **e.structured()) for k, e in enumerate(exprs)]


def _run_groups(args, doc, compute, label, first=0):
    """Time compute() and emit its groups, in `doc` and as one line."""
    t0 = time.monotonic()
    exprs = compute()
    doc.update(results=_degree_results(exprs),
               runtime_ms=int((time.monotonic() - t0) * 1000))
    _emit(args, doc, ["; ".join(f"H^{k}{label} = {e}"
                                for k, e in enumerate(exprs) if k >= first)])
    return 0


def _run_space(args):
    return _run_groups(args, {"space": args.name},
                       lambda: catalog.compute_space(args.name, args.collar),
                       "")


def _run_quotient(args):
    return _run_groups(args, {"pair": f"{args.fine}->{args.coarse}"},
                       lambda: catalog.compute_quotient(
                           args.fine, args.coarse, args.collar), "_Q")


def _run_path(args):
    sid = catalog.SpaceId.parse(args.start)
    if sid.family != "chair":
        raise InvalidPath("path computations start at a chair:* space")
    doc = {"path": {"start": args.start, "word": args.word}}
    return _run_groups(args, doc, lambda: catalog.compute_path(
        catalog.FactorPath(sid.scheme, args.word), args.collar), "_Q", 1)


def _run_verify(args):
    grid = _parse_grid(args.grid) if args.grid is not None else None
    t0 = time.monotonic()
    report = catalog.verify_all(args.scope, grid)
    ms = int((time.monotonic() - t0) * 1000)
    failures = [r for r in report if not r["ok"]]
    lines = []
    for r in report:
        if r["ok"]:
            lines.append(f"PASS {r['kind']} {r['key']} H^{r['degree']} = "
                         f"{r['computed']}")
        else:
            lines.append(f"FAIL {r['kind']} {r['key']} H^{r['degree']}: "
                         f"expected {r['expected']}, computed {r['computed']}")
    lines.append(f"{len(report) - len(failures)}/{len(report)} checks passed")
    _emit(args,
          {"scope": args.scope, "checks": report,
           "failures": len(failures), "runtime_ms": ms},
          lines)
    return 1 if failures else 0


def _run_dump(args):
    (sid,), depth = subst2d.resolve_collar(args.collar, (args.name,))
    cx, _ = (subst2d.ap_complex_2d(sid.scheme, depth) if sid.family == "chair"
             else subst1d.system_1d(args.name))
    _emit(args, {"space": args.name, "dump": cx.dump()}, [cx.dump()])
    return 0


def _error(args, e, code):
    """Report a failed run: the message with the witness or node the typed
    error carries, and with --json the same as a document on stdout."""
    witness, node = getattr(e, "witness", None), getattr(e, "node", None)
    extra = "".join(f"; {key}: {val!r}" for key, val
                    in (("witness", witness), ("node", node)) if val is not None)
    print(f"error: {e}{extra}", file=sys.stderr)
    if args.json:
        print(json.dumps({"error": type(e).__name__, "message": str(e),
                          "witness": witness, "node": node},
                         indent=2, sort_keys=True, default=_jsonable))
    return code


def _jsonable(x):
    return x.to_rows() if isinstance(x, IntMatrix) else repr(x)


_VERBS = {"space": _run_space, "quotient": _run_quotient, "path": _run_path,
          "verify": _run_verify, "dump": _run_dump}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    if args.timeout_sec:
        def _on_alarm(signum, frame):
            raise TimeoutError(f"computation exceeded {args.timeout_sec}s")
        try:
            previous = signal.signal(signal.SIGALRM, _on_alarm)
        except (AttributeError, ValueError):
            # no SIGALRM on this platform, or not the main thread
            print("error: --timeout-sec needs SIGALRM, which only the main "
                  "thread of a POSIX process receives", file=sys.stderr)
            return 2
        signal.alarm(args.timeout_sec)
    try:
        return _VERBS[args.verb](args)
    except InvalidPath as e:
        return _error(args, e, 2)
    except (TilingCohomologyError, TimeoutError) as e:
        return _error(args, e, 1)
    finally:
        if args.timeout_sec:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


def run() -> NoReturn:
    """main(), then end the process with its status: the entry point of
    `python -m tilecohom.cli` and of the `tilecohom` console script.

    After flushing stdout and stderr it ends with os._exit, skipping
    interpreter teardown (freeing every module, sympy's among them, and a
    last garbage collection): about 0.1 s of a cold query.  The package
    registers no atexit callback.  Under a hook, or when a flush fails, it
    exits normally, so that a profiler writes its report and the
    interpreter reports the failed flush as it always has.  An exception
    that escapes main() ends the process the usual way."""
    status = main()
    # coverage, cProfile and debuggers set a trace or profile hook, or
    # register a sys.monitoring tool (Python 3.12 and later; ids 0-5)
    monitoring = getattr(sys, "monitoring", None)
    if sys.gettrace() is None and sys.getprofile() is None and (
            monitoring is None
            or all(monitoring.get_tool(i) is None for i in range(6))):
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:   # None when its descriptor was closed
                    stream.flush()
            os._exit(status)
        except (OSError, ValueError):   # a closed pipe or a closed stream
            pass
    sys.exit(status)


if __name__ == "__main__":
    run()
