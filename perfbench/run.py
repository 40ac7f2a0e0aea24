"""tilecohom benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload catalog-2d|grid-1d|cli-cold \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every query set runs in fresh
interpreters (`perfbench/worker.py`, or `python -m tilecohom.cli` for
cli-cold), one process at a time, so no cache carries over between sets.
The set is repeated while another repetition still fits in S seconds; each
timing metric is the median over repetitions.  Timed intervals are scaled
to a reference host speed by calibration rounds taken between them (see
perfbench/README.md, "Host speed").

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced repetitions, prints the per-layer metrics of the traced ones and
reports the tracing overhead.  The last line of standard output is the
result object; the line before it holds the details (environment stamp,
percentiles, per-repetition figures, failures, cache_info).
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import queries
from worker import TRACE_PREFIX, HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = str(HERE / "worker.py")
SETUP_PROBES = 5         # extra fresh interpreters timed for setup_s
TAIL_BEYOND = 10         # samples that must lie beyond the tail percentile
CHILD_TIMEOUT_S = 150
# Seconds one calibration round (worker.calibration_round) takes on the host
# timed intervals are scaled to: the 2-core x86 VM the
# benchmark was written on, in its faster state.
CAL_REFERENCE_S = 0.0025
# the 1-D system caches, summarised as subst1d.systems.cache_hit_ratio
SYSTEM_CACHES = ("subst1d.tm_system", "subst1d.pd_system",
                 "subst1d.sol_system")

# Per-layer metrics that must be nonzero on a traced run of each workload:
# a zero means a wrapped entry point is no longer reached (renamed, moved
# or bypassed), which would silently zero a layer metric.
NOT_EXERCISED = {
    "catalog-2d": ("subst1d.", "subst2d.border_forcing_check"),
    "grid-1d": ("subst2d.", "catalog.compute_path"),
}
CLI_EXERCISED = ("abelian.snf.calls", "complexes.cohomology.calls",
                 "limits.classify.calls", "subst2d.ap_complex_2d.calls",
                 "subst2d.ap_complex_2d.self_s", "subst2d.complex_cells_max",
                 "subst2d.border_forcing_check.self_s",
                 "subst1d.absolute_cohomology_1d.self_s",
                 "catalog.compute_space.s", "catalog.compute_quotient.s",
                 "import.tilecohom_s", "import.sympy_s")


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # same iteration orders, same call counts
    return env


def import_times(stderr):
    """Cumulative -X importtime seconds of the tilecohom and sympy packages."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            name = name.strip()
            if name in ("tilecohom", "sympy") and cumulative.strip().isdigit():
                out[f"import.{name}_s"] = int(cumulative) / 1e6
    return out


def tail(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; the maximum when there are too few samples."""
    s = sorted(latencies)
    i = max(len(s) - TAIL_BEYOND - 1, 0) if len(s) > TAIL_BEYOND \
        else len(s) - 1
    return s[i], 100.0 * (i + 1) / len(s)


# ---- one repetition of a query set, in fresh processes ----

def inproc_rep(qs, trace, env, speed):
    setup_cal = speed.now()
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) \
        + [WORKER, "inproc"]
    spawn = time.monotonic()
    p = subprocess.run(cmd + [repr(spawn)], input=json.dumps(
        {"queries": qs, "trace": trace}), capture_output=True, text=True,
        env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if p.returncode != 0:
        raise BenchError(f"worker exited {p.returncode}:\n{p.stderr[-3000:]}")
    doc = json.loads(p.stdout.splitlines()[-1])
    doc["setup_calibration_s"] = setup_cal
    if trace:
        doc["trace"]["imports"] = import_times(p.stderr)
    return doc


def cli_rep(qs, trace, env, speed):
    latencies, results, summaries, calibration = [], [], [], []
    for argv in qs:
        calibration.append(speed.now())
        cmd = [sys.executable] + (["-X", "importtime", WORKER, "cli"] if trace
                                  else ["-m", "tilecohom.cli"]) + argv
        t = time.perf_counter()
        p = subprocess.run(cmd, capture_output=True, text=True, env=env,
                           cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        latencies.append(time.perf_counter() - t)
        if p.returncode != 0:
            results.append(f"exit {p.returncode}: {p.stderr.strip()[-300:]}")
        else:
            try:
                results.append(json.loads(p.stdout)["results"])
            except (ValueError, KeyError) as exc:
                results.append(f"unreadable CLI output: {exc}")
        if trace:
            lines = [ln for ln in p.stderr.splitlines()
                     if ln.startswith(TRACE_PREFIX)]
            if not lines:
                raise BenchError(f"traced CLI {argv} left no trace:\n"
                                 f"{p.stderr[-3000:]}")
            s = json.loads(lines[-1][len(TRACE_PREFIX):])
            s["imports"] = import_times(p.stderr)
            summaries.append(s)
    doc = {"latencies": latencies, "calibration_s": calibration,
           "results": results}
    if trace:
        doc["trace"] = merge_summaries(summaries)
    return doc


def merge_summaries(summaries):
    """Sum the traces of the separate CLI processes of one repetition."""
    out = {"calls": {}, "hits": {}, "spans": {}, "snf_cells": [0, 0, 0],
           "complex_cells_max": 0, "cache_info": {}}
    imports = {}
    for s in summaries:
        for part in ("calls", "hits"):
            for k, v in s[part].items():
                out[part][k] = out[part].get(k, 0) + v
        for k, row in s["spans"].items():
            acc = out["spans"].setdefault(k, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        c = s["snf_cells"]
        out["snf_cells"] = [out["snf_cells"][0] + c[0],
                            out["snf_cells"][1] + c[1],
                            max(out["snf_cells"][2], c[2])]
        out["complex_cells_max"] = max(out["complex_cells_max"],
                                       s["complex_cells_max"])
        for k, info in s["cache_info"].items():
            acc = out["cache_info"].setdefault(k, {})
            for f, v in info.items():
                if f != "maxsize":
                    acc[f] = acc.get(f, 0) + v
        for k, v in s["imports"].items():
            imports.setdefault(k, []).append(v)
    out["imports"] = {k: statistics.median(v) for k, v in imports.items()}
    return out


# ---- metrics ----

def layer_metrics(s):
    """Every per-layer figure one traced repetition yields, by name."""
    calls, hits, spans = s["calls"], s["hits"], s["spans"]

    def ratio(h, c):
        return h / c if c else 0.0

    m = {}
    for key, n in calls.items():
        row = spans.get(key, [0, 0.0, 0.0])
        m[f"{key}.calls"] = n
        m[f"{key}.self_s"] = row[2]
        m[f"{key}.s"] = row[1]
        if key in hits:
            m[f"{key}.cache_hit_ratio"] = ratio(hits[key], n)
    m["abelian.snf.cells_total"] = s["snf_cells"][1]
    m["abelian.snf.max_cells"] = s["snf_cells"][2]
    m["subst1d.systems.cache_hit_ratio"] = ratio(
        sum(hits[k] for k in SYSTEM_CACHES), sum(calls[k] for k in SYSTEM_CACHES))
    m["subst2d.complex_cells_max"] = s["complex_cells_max"]
    m.update(s["imports"])
    return m


def is_time(name):
    return name.endswith("_s") or name.endswith(".s")


def per_layer(workload, traced, spec):
    """Per-layer metrics over the traced repetitions: counts must repeat
    exactly, times are medians (as measured, not scaled)."""
    rows = [layer_metrics(doc["trace"]) for doc in traced]
    out = {}
    for name, unit in spec:
        if any(name not in r for r in rows):
            raise BenchError(f"per-layer metric {name} was not measured")
        vals = [r[name] for r in rows]
        if not is_time(name) and len(set(vals)) != 1:
            raise BenchError(f"{name} differs between traced repetitions "
                             f"of one query set: {vals}")
        out[name] = {"value": statistics.median(vals) if is_time(name)
                     else vals[0], "unit": unit}
    skip = NOT_EXERCISED.get(workload)
    required = [n for n, _ in spec if not n.startswith(skip)] if skip \
        else CLI_EXERCISED
    zero = [n for n in required if not out[n]["value"]]
    if zero:
        raise BenchError(f"{workload} no longer exercises {', '.join(zero)}")
    return out


def scaled(seconds, calibration_s):
    """A time scaled to the reference host speed by the calibration round
    taken last before it (see README, Host speed)."""
    return seconds * CAL_REFERENCE_S / calibration_s


def scaled_latencies(doc):
    return [scaled(lat, cal)
            for lat, cal in zip(doc["latencies"], doc["calibration_s"])]


def set_stats(latency_sets):
    """(wall, p50, tail, tail percentile) per query set."""
    return [(sum(lat), statistics.median(lat)) + tail(lat)
            for lat in latency_sets]


def end_to_end(reps, setups, spec):
    stats = set_stats([scaled_latencies(r) for r in reps])
    values = {
        "wall_s": statistics.median(s[0] for s in stats),
        "query_p50_s": statistics.median(s[1] for s in stats),
        "query_tail_s": statistics.median(s[2] for s in stats),
        "setup_s": statistics.median(setups),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    measured = set_stats([r["latencies"] for r in reps])
    detail = {"rep_wall_s": [s[0] for s in stats],
              "rep_p50_s": [s[1] for s in stats],
              "rep_tail_s": [s[2] for s in stats],
              "measured_rep_wall_s": [s[0] for s in measured],
              "measured_rep_p50_s": [s[1] for s in measured],
              "measured_rep_tail_s": [s[2] for s in measured],
              "tail_percentile": stats[0][3],
              "samples_per_rep": len(reps[0]["latencies"]),
              "setup_samples_s": setups,
              "calibration_s": [c for r in reps
                                for c in dict.fromkeys(r["calibration_s"])]}
    return {n: {"value": values[n], "unit": u} for n, u in spec}, detail


# ---- environment stamp ----

def git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "tilecohom").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment():
    try:
        sympy_version = importlib.metadata.version("sympy")
    except importlib.metadata.PackageNotFoundError:
        sympy_version = None
    return {"commit": git_commit(), "src_sha256": src_digest(),
            "python": platform.python_version(), "sympy": sympy_version,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg())}


# ---- main ----

def repeat(seconds, reps_once):
    """Call reps_once() at least once and again while another call is
    expected to end within `seconds`; returns the list of its results."""
    out, longest = [], 0.0
    start = time.monotonic()
    while True:
        t = time.monotonic()
        out.append(reps_once())
        longest = max(longest, time.monotonic() - t)
        if time.monotonic() - start + longest > seconds:
            return out


def run(args):
    if not (SRC / "tilecohom" / "__init__.py").is_file():
        raise BenchError(f"no tilecohom sources under {SRC}; run from the "
                         "root of a tilecohom checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_spec = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layer_spec = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    env_stamp = environment()
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    from tilecohom import catalog
    oracle = queries.Oracle(catalog)
    qs = queries.make(args.workload, args.seed, catalog.PATH_STARTS)
    env = child_env()
    cli = args.workload == "cli-cold"
    rep = cli_rep if cli else inproc_rep

    speed = HostSpeed()
    probes = [inproc_rep([], False, env, speed) for _ in range(SETUP_PROBES)]
    if args.trace:
        pairs = repeat(args.seconds, lambda: (rep(qs, False, env, speed),
                                              rep(qs, True, env, speed)))
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
    else:
        untraced = repeat(args.seconds, lambda: rep(qs, False, env, speed))
        traced = []
    if not cli:
        probes += untraced
    setups = [scaled(p["setup_s"], p["setup_calibration_s"]) for p in probes]

    attempted = failed = refused = 0
    problems = []
    for doc in untraced + traced:
        for q, res in zip(qs, doc["results"]):
            attempted += 1
            problem, was_refused = oracle.check(q, res)
            refused += was_refused
            if problem is not None:
                failed += 1
                problems.append(f"{q}: {problem}")

    e2e, detail = end_to_end(untraced, setups, e2e_spec)
    if args.trace:
        metrics = per_layer(args.workload, traced, layer_spec)
        detail["trace_overhead_s"] = statistics.median(
            sum(t["latencies"]) for t in traced) - statistics.median(
            detail["measured_rep_wall_s"])
        detail["cache_info"] = traced[0]["trace"]["cache_info"]
    else:
        metrics = e2e
    env_stamp["loadavg_end"] = list(os.getloadavg())
    detail.update({"workload": args.workload, "seed": args.seed,
                   "queries_per_rep": len(qs), "reps": len(untraced),
                   "traced_reps": len(traced),
                   "failed_frac": failed / attempted, "refused": refused,
                   "problems": problems[:20], "env": env_stamp})
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["catalog-2d", "grid-1d", "cli-cold"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    try:
        run(args)
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
