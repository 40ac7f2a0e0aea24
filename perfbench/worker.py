"""One fresh benchmark process.

    python3 perfbench/worker.py inproc SPAWN_TIME < job.json
        Imports tilecohom, loads the golden table, then runs the job's
        queries in this process.  SPAWN_TIME is the parent's
        time.monotonic() just before it started this interpreter, so the
        reported setup time covers interpreter start, the import and the
        golden-table load.  Prints one JSON line with the setup time, each
        query's latency, the calibration round last taken before it (rounds
        run between queries, at least CALIBRATE_EVERY_S apart) and its
        structured result and, when the job asks for it, the tracer summary.

    python3 -X importtime perfbench/worker.py cli ARGS...
        Runs `tilecohom.cli` with ARGS under the tracer, as one traced cold
        CLI query.  The CLI's own output goes to stdout unchanged; the tracer
        summary goes to stderr on one line starting with TRACE_PREFIX.

Queries are JSON lists: ["space", name, collar], ["quotient", fine, coarse]
or ["path", start scheme, word].
"""
from __future__ import annotations

import json
import sys
import time

TRACE_PREFIX = "perfbench-trace "
CALIBRATE_EVERY_S = 0.25


def calibration_round():
    """Seconds for a fixed pure-Python integer loop (median of 3 runs): a
    sample of how fast this host runs Python right now."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


class HostSpeed:
    """Calibration rounds of this process, taken between (never during)
    timed operations and at least CALIBRATE_EVERY_S apart."""

    def __init__(self):
        self.rounds, self._last = [], float("-inf")

    def now(self):
        """The latest round, after taking a new one if the last is old."""
        if time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.rounds.append(calibration_round())
            self._last = time.perf_counter()
        return self.rounds[-1]


def run_query(catalog, query):
    verb = query[0]
    if verb == "space":
        return catalog.compute_space(query[1], query[2])
    if verb == "quotient":
        return catalog.compute_quotient(query[1], query[2])
    if verb == "path":
        return catalog.compute_path(catalog.FactorPath(query[1], query[2]))
    raise ValueError(f"unknown query verb {verb!r}")


def inproc(spawn_time):
    import tilecohom
    from tilecohom import catalog
    catalog.golden_table()
    setup_s = time.monotonic() - spawn_time
    job = json.loads(sys.stdin.read())
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(tilecohom)
    latencies, outcomes, calibration = [], [], []
    speed = HostSpeed()
    for query in job["queries"]:
        calibration.append(speed.now())
        start = time.perf_counter()
        try:
            outcomes.append(run_query(catalog, query))
        except Exception as exc:  # a failed query is counted, never dropped
            outcomes.append(f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - start)
    results = [o if isinstance(o, str) else [e.structured() for e in o]
               for o in outcomes]
    doc = {"setup_s": setup_s, "latencies": latencies,
           "calibration_s": calibration, "results": results}
    if tracer is not None:
        doc["trace"] = tracer.summary()
    print(json.dumps(doc))


def traced_cli(argv):
    import tilecohom
    from tilecohom import cli
    from tracer import Tracer
    tracer = Tracer()
    tracer.install(tilecohom)
    code = cli.main(argv)
    sys.stdout.flush()
    print(TRACE_PREFIX + json.dumps(tracer.summary()), file=sys.stderr)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "inproc":
        inproc(float(sys.argv[2]))
    elif sys.argv[1] == "cli":
        sys.exit(traced_cli(sys.argv[2:]))
    else:
        sys.exit(f"unknown worker mode {sys.argv[1]!r}")
