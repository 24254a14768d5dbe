#!/usr/bin/env python3
"""Performance gate: the repository benchmark on a base checkout and on this one.

Run from anywhere, with the base commit checked out in BASE_DIR:

    python3 .github/perf_gate.py BASE_DIR

For every workload in BENCHMARK.json it runs
`python3 perfbench/run.py --workload W --seconds <run_seconds>` PAIRS times
in BASE_DIR and PAIRS times in the checkout holding this script,
alternating which side runs first.  Each checkout builds into its own
`.bench_build`.  It prints one row per workload and end-to-end metric
(base median, change median, delta, bound, verdict) and exits 1 when

* a change median is worse than the base median by more than the
  metric's `bound`;
* a change-side run fails or reports `failed > 0` (at the default seed
  every cell is checked against perfbench/pins.json);
* a base-side run fails or reports `failed > 0`.

A metric whose base runs spread wider than its bound (interquartile range
over the median) cannot be judged at that bound: it is reported as
unresolved with a `::warning::` rather than passed or failed, unless the
change runs and the base runs do not overlap at all.
"""

import json
import os
import statistics
import subprocess
import sys

# Five pairs per workload keep a full gate near 15 minutes on a 2-vCPU
# runner (three workloads x ten runs of about 22 s, plus one build per
# side), which is what CI can spend on every pull request.
PAIRS = 5
CHANGE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def bench_run(checkout, workload, seconds):
    """One benchmark run; returns (result object or None, failure lines)."""
    # Without CARGO_TARGET_DIR each side builds into its own .bench_build.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                        "--seconds", str(seconds)], cwd=checkout, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = r.stderr.strip().splitlines()
    fails = list(dict.fromkeys(line for line in lines if line.startswith("FAIL ")))
    try:
        res = json.loads(r.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        res = None
    if r.returncode != 0 or res is None:
        return None, fails or lines[-5:] or [f"exited {r.returncode}"]
    return res, fails


def med(xs):
    return f"{statistics.median(xs):.4g}" if xs else "-"


def spread(xs):
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)


def main():
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} BASE_DIR")
    base = os.path.abspath(sys.argv[1])
    with open(os.path.join(CHANGE, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    errors, rows = [], []
    sides = [("base", base), ("change", CHANGE)]
    for w in (w["name"] for w in bench["workloads"]):
        values = {"base": {}, "change": {}}
        for i in range(PAIRS):
            for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
                res, fails = bench_run(checkout, w, seconds)
                if res is None or res["failed"] > 0:
                    what = "failed" if res is None else \
                        f"failed {res['failed']} of {res['attempted']} cells"
                    errors.append(f"{w}: {side} run {i + 1} {what}: " + " | ".join(fails[:3]))
                    log(f"{w} pair {i + 1} {side}: {what}")
                    continue
                for name, m in res["metrics"].items():
                    values[side].setdefault(name, []).append(m["value"])
                log(f"{w} pair {i + 1} {side}: " + ", ".join(
                    f"{k} {m['value']:.4g}" for k, m in res["metrics"].items()))
        for m in bench["end_to_end"]:
            b, c = values["base"].get(m["name"], []), values["change"].get(m["name"], [])
            if len(b) < 2 or not c:
                rows.append((w, m["name"], med(b), med(c), "-", m["bound"], "no data"))
                continue
            sign = 1 if m["better"] == "lower" else -1
            bm, cm = statistics.median(b), statistics.median(c)
            delta = (cm - bm) / bm
            noise = spread(b)
            apart = max(c) < min(b) or min(c) > max(b)
            if noise > m["bound"] and not apart:
                verdict = "unresolved"
                print(f"::warning::{w} {m['name']}: base spread {noise:.1%} is wider "
                      f"than the bound {m['bound']:.0%}; unresolved")
            elif sign * delta > m["bound"]:
                verdict = "FAIL"
                errors.append(f"{w} {m['name']}: change median {cm:.4g} is {abs(delta):.1%} "
                              f"worse than base median {bm:.4g} (bound {m['bound']:.0%})")
            else:
                verdict = "ok"
            rows.append((w, m["name"], med(b), med(c), f"{delta:+.1%}",
                         m["bound"], verdict))
    print(f"{'workload':<16} {'metric':<16} {'base':>9} {'change':>9} {'delta':>8} "
          f"{'bound':>6}  verdict")
    for w, name, bm, cm, delta, bound, verdict in rows:
        print(f"{w:<16} {name:<16} {bm:>9} {cm:>9} {delta:>8} {bound:>6.0%}  {verdict}")
    for e in errors:
        print(f"::error::{e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
