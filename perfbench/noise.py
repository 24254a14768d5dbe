#!/usr/bin/env python3
"""Noise record for the repository benchmark.

Runs `perfbench/run.py` on each workload once per seed, in one or more
batches, and reports for every end-to-end metric the median, the
run-to-run spread (interquartile range over the seeds as a share of the
median, as `statistics.quantiles(values, n=4)` gives it) and, with two
batches, the batch-to-batch change of the median.  Run from the
repository root:

    python3 perfbench/noise.py --seeds 1-10 --batches 2 --out perfbench/noise.json
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(xs):
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)


def seeds_of(text):
    a, _, b = text.partition("-")
    return list(range(int(a), int(b or a) + 1))


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{platform.machine()}, {os.cpu_count()} cpus, {model}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=None, help="comma-separated (default: all)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--batches", type=int, default=1)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seeds_of(args.seeds)
    record = {"workloads": {}}
    if args.out and os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
    record.update(host=host(), run_seconds=bench["run_seconds"], seeds=seeds)
    worst = True
    for name in names:
        batches = []
        for b in range(args.batches):
            values = {}
            for seed in seeds:
                t0 = time.perf_counter()
                r = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                                    "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                                    "--trace", "0"], stdout=subprocess.PIPE,
                                   stderr=subprocess.DEVNULL, text=True)
                res = json.loads(r.stdout.strip().splitlines()[-1])
                assert r.returncode == 0 and res["correct"], f"{name} seed {seed}: {res}"
                for k, v in res["metrics"].items():
                    values.setdefault(k, []).append(v["value"])
                print(f"{name} batch {b} seed {seed}: {time.perf_counter() - t0:.1f}s "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                      file=sys.stderr, flush=True)
            batches.append(values)
        rec = {}
        for k in batches[0]:
            medians = [statistics.median(v[k]) for v in batches]
            spreads = [spread(v[k]) for v in batches]
            entry = {"median": medians, "run_to_run_spread": spreads, "bound": bounds[k]}
            if len(batches) > 1:
                entry["batch_to_batch"] = [m / medians[0] - 1 for m in medians[1:]]
            rec[k] = entry
            ok = k == "setup_s" or max(spreads) < bounds[k] / 3
            worst = worst and ok
            print(f"{name:16} {k:16} median {' '.join(f'{m:.4g}' for m in medians)}  "
                  f"spread {' '.join(f'{s:.3f}' for s in spreads)}  bound {bounds[k]}"
                  f"{'' if ok else '  <-- above a third of the bound'}", file=sys.stderr)
        record["workloads"][name] = rec
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if worst else 1


if __name__ == "__main__":
    sys.exit(main())
