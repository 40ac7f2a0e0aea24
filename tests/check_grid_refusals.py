"""Check a `tilecohom verify 1d --json` report over the full 1..40 grid.

The report must hold the 12 checks of every (k, l) pair with
1 <= k, l <= 40, and its failing checks must be exactly the H^1 of the
tm:k,l spaces with k + l odd, |k - l| > 1 and strictly nested prime
sets (one radical a proper divisor of the other), each computed as
`unclassified`.  There the closed form Z[1/(k+l)] + Z[1/|k-l|] + Z
holds, but the classifier's splitting heuristic refuses it.  Any other failure, and any of those
checks passing, fails this check, so that a change of presentation that
flips the splitting decision cannot pass unseen.

Usage:
    GRID=$(python -c "print(';'.join(f'{k},{l}' for k in range(1, 41)
                                     for l in range(1, 41)))")
    tilecohom verify 1d --json --grid "$GRID" > report.json  # exits 1
    python tests/check_grid_refusals.py report.json
"""
import json
import sys

N = 40


def radical(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            out *= p
            while n % p == 0:
                n //= p
        p += 1
    return out * n if n > 1 else out


def nested_refusals():
    out = set()
    for k in range(1, N + 1):
        for l in range(1, N + 1):
            a, b = k + l, abs(k - l)
            ra, rb = radical(a), radical(b)
            nested = ra != rb and (ra % rb == 0 or rb % ra == 0)
            if a % 2 and b > 1 and nested:
                out.add(("space", f"tm:{k},{l}", 1))
    return out


def main(path):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    checks = report["checks"]
    failed = [c for c in checks if not c["ok"]]
    got = {(c["kind"], c["key"], c["degree"]) for c in failed}
    want = nested_refusals()
    problems = []
    if len(checks) != 12 * N * N:
        problems.append(f"{len(checks)} checks, expected {12 * N * N}")
    if report["failures"] != len(failed) or len(got) != len(failed):
        problems.append("failure count does not match the failing checks")
    problems += [f"unexpected failure: {c}" for c in sorted(got - want)]
    problems += [f"no longer refused: {c}" for c in sorted(want - got)]
    problems += [f"not unclassified: {c['key']} computed {c['computed']}"
                 for c in failed if c["computed"] != "unclassified"]
    for line in problems:
        print(line)
    print(f"{len(checks) - len(failed)}/{len(checks)} checks passed; "
          f"{len(want)} nested refusals expected, {len(failed)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
