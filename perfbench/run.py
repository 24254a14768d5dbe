#!/usr/bin/env python3
"""The repository benchmark: the `prestage` CLI on three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload fetch_bound --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Workloads (see BENCHMARK.json and perfbench/interactions.json):

* fetch_bound      one long live cell, CLGP+L0+PB:16 at 4 KB L1 and
                   0.045 um on gcc, default i-TLB, 1 thread.
* data_bound       one long live cell, `base` at 64 KB L1 on mcf, 1 thread.
* mechanism_sweep  six `prestage run` invocations, one per prefetcher,
                   FDP preset at 4 KB, all 12 benchmarks, short cells
                   replayed from traces recorded at set-up, 2 threads.

`--seed` is the execution seed of every generated spec (`exec_seed`): it
picks the dynamic path through each benchmark, so the same seed gives the
same inputs.  The synthesized programs themselves (`workload_seed`) are
part of the benchmark's definition and stay fixed, because a different
program is a different benchmark (mcf's IPC moves 4x across program
seeds, which no timing bound could absorb).

With `--trace 0` one run times whole CLI invocations for `--seconds`,
alternating a set-up round (the same invocations with a one-instruction
window) with a timed round.  It reports the sum of each invocation's
fastest timed run as `wall_s`, the median set-up round as `setup_s`, and
the median peak RSS.  With `--trace 1` it runs the CLI once, times `prestage merge`
of the workload's shards, and runs `perfbench layers`, which re-runs the
cells in process and prints the per-layer ledger.

Every cell is checked and feeds `failed`/`attempted`: CLI artifacts are
read by key; at the default seed `cycles`/`committed`/`redirects` must
match perfbench/pins.json; replayed sweep rows must equal live rows; every
in-process run must equal the CLI artifact.  A failure names the cell and
prints a `prestage shard --spec ... --cells i..i+1` reproduction line.

The last line of stdout is the result object.  The program builds the CLI
and the layer drivers with cargo (into $CARGO_TARGET_DIR, default
`.bench_build`) and keeps its scratch files under `.perfbench-work/`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 42
WORKLOAD_SEED = 42
TECH = "45"
ITLB = {"entries": 64, "assoc": 4, "page_bytes": 4096, "miss_cycles": 30}
MECHANISMS = ["none", "nextline", "fdp", "clgp", "mana", "progmap"]
BENCHMARKS = ["gzip", "vpr", "gcc", "mcf", "crafty", "parser",
              "eon", "perlbmk", "gap", "vortex", "bzip2", "twolf"]

# (warmup, measure) at full size and in the self-test.
WORKLOADS = {
    "fetch_bound": dict(preset="clgp+l0+pb16", l1=4096, bench=["gcc"], itlb=ITLB,
                        threads=1, mechanisms=[None], replay=False,
                        full=(200_000, 1_800_000), tiny=(2_000, 20_000)),
    "data_bound": dict(preset="base", l1=65536, bench=["mcf"], itlb=None,
                       threads=1, mechanisms=[None], replay=False,
                       full=(400_000, 3_600_000), tiny=(2_000, 20_000)),
    "mechanism_sweep": dict(preset="fdp", l1=4096, bench=BENCHMARKS, itlb=None,
                            threads=2, mechanisms=MECHANISMS, replay=True,
                            full=(10_000, 50_000), tiny=(1_000, 4_000)),
}

MIN_ROUNDS = 3
MAX_ROUNDS = 200


class BenchError(Exception):
    """A failure that makes the run meaningless (no result is printed)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def spread(xs):
    """Interquartile range as a share of the median."""
    if len(xs) < 2 or median(xs) == 0:
        return 0.0
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / median(xs)


class Tools:
    """The two binaries the benchmark drives, built from this checkout."""

    def __init__(self):
        if not (os.path.isfile("Cargo.toml") and os.path.isfile("src/bin/prestage.rs")
                and os.path.isfile("perfbench/layers/Cargo.toml")):
            raise BenchError("run this from the repository root: Cargo.toml, "
                             "src/bin/prestage.rs and perfbench/layers are required")
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        self.env = dict(os.environ, CARGO_TARGET_DIR=target)
        for args in (["cargo", "build", "--release", "--offline", "--bin", "prestage"],
                     ["cargo", "build", "--release", "--offline",
                      "--manifest-path", "perfbench/layers/Cargo.toml"]):
            r = subprocess.run(args, env=self.env, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                raise BenchError(f"build failed: {' '.join(args)}")
        self.prestage = os.path.join(target, "release", "prestage")
        self.perfbench = os.path.join(target, "release", "perfbench")

    def spawn(self, argv, logfile):
        """Run argv once; returns wall_s, cpu_s, maxrss_kb and exit."""
        r = subprocess.run([self.perfbench, "spawn", "--log", logfile, "--", *argv],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if r.returncode != 0:
            raise BenchError(f"spawn failed: {r.stderr.strip()}")
        return json.loads(r.stdout.strip().splitlines()[-1])

    def prestage_ok(self, args, logfile):
        rec = self.spawn([self.prestage, *args], logfile)
        if rec["exit"] != 0:
            raise BenchError(f"prestage {' '.join(args)} exited {rec['exit']} (see {logfile})")
        return rec


def make_spec(w, seed, mechanism, warmup, measure, trace_dir):
    return {
        "schema": 4, "presets": [w["preset"]], "tech": TECH, "l1_sizes": [w["l1"]],
        "bench": w["bench"], "warmup_insts": warmup, "measure_insts": measure,
        "workload_seed": WORKLOAD_SEED, "exec_seed": seed, "threads": w["threads"],
        "predictor": "stream", "trace": {"dir": trace_dir} if trace_dir else None,
        "prefetcher": mechanism, "itlb": w["itlb"], "insertion": None,
    }


class Workload:
    """One workload at one seed: its specs, scratch files and checks."""

    def __init__(self, tools, name, seed, tiny):
        self.tools, self.name, self.seed, self.tiny = tools, name, seed, tiny
        self.w = dict(WORKLOADS[name])
        self.w["threads"] = min(self.w["threads"], os.cpu_count() or 1)
        self.warmup, self.measure = self.w["tiny" if tiny else "full"]
        self.dir = os.path.join(".perfbench-work", f"{name}-s{seed}{'-tiny' if tiny else ''}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.log = os.path.join(self.dir, "cli.log")
        self.trace_dir = os.path.join(self.dir, "traces") if self.w["replay"] else None
        self.specs = {}   # label -> (timed spec path, set-up spec path, live spec path)
        for m in self.w["mechanisms"]:
            label = m or self.w["preset"]
            paths = []
            for kind, (wu, ms), trace in (("timed", (self.warmup, self.measure), self.trace_dir),
                                          ("setup", (0, 1), self.trace_dir),
                                          ("live", (self.warmup, self.measure), None)):
                p = os.path.join(self.dir, f"{label}.{kind}.json")
                with open(p, "w") as f:
                    json.dump(make_spec(self.w, seed, m, wu, ms, trace), f, indent=2)
                paths.append(p)
            self.specs[label] = paths
        self.attempted = 0
        self.failed = 0
        self.pins = None
        if seed == DEFAULT_SEED and not tiny:
            with open(os.path.join(HERE, "pins.json")) as f:
                self.pins = json.load(f).get(name)

    def sim_insts(self):
        return len(self.w["mechanisms"]) * len(self.w["bench"]) * (self.warmup + self.measure)

    def record_traces(self):
        if self.trace_dir:
            live = next(iter(self.specs.values()))[2]
            self.tools.prestage_ok(["trace", "record", live, "--out", self.trace_dir], self.log)

    def artifact(self, label, kind):
        return os.path.join(self.dir, f"{label}.{kind}.out.json")

    def run_cli(self, kind):
        """All of the workload's invocations once; returns (per-invocation
        wall seconds, CPU seconds, peak rss_kb).

        A failing invocation leaves no artifact, so the check of its cells
        counts every one of them as failed."""
        walls, cpu, rss = [], 0.0, 0.0
        idx = {"timed": 0, "setup": 1, "live": 2}[kind]
        for label, paths in self.specs.items():
            out = self.artifact(label, kind)
            if os.path.exists(out):
                os.remove(out)
            rec = self.tools.spawn([self.tools.prestage, "run", paths[idx], "--out", out], self.log)
            if rec["exit"] != 0:
                log(f"prestage run {paths[idx]} exited {rec['exit']} (see {self.log})")
            walls.append(rec["wall_s"])
            cpu += rec["cpu_s"]
            rss = max(rss, rec["maxrss_kb"])
        return walls, cpu, rss

    # -- checks --------------------------------------------------------------

    def cells_of(self, path):
        """Artifact cells by flat index: (preset, l1, bench) -> counters."""
        if not os.path.exists(path):
            return []
        with open(path) as f:
            art = json.load(f)
        cells = []
        for row in art["rows"]:
            for pb in row["per_bench"]:
                st = pb["stats"]
                cells.append(((row["preset"], row["l1"], pb["bench"]),
                              {k: st[k] for k in ("cycles", "committed", "redirects")}))
        return cells

    def fail(self, label, index, ident, what):
        self.failed += 1
        spec = self.specs[label][0]
        log(f"FAIL {self.name} seed {self.seed} cell {index} {'/'.join(map(str, ident))} "
            f"prefetcher={label}: {what}\n  reproduce: {self.tools.prestage} shard "
            f"--spec {spec} --cells {index}..{index + 1} --out {self.dir}/repro.json")

    def check(self, label, cells, reference=None, pinned=True):
        """Count and check one artifact's cells against pins and a reference."""
        expect = len(self.w["bench"])
        if len(cells) != expect:
            self.attempted += expect
            for i in range(expect):
                self.fail(label, i, ("?",), f"artifact holds {len(cells)} cells, expected {expect}")
            return
        for i, (ident, got) in enumerate(cells):
            self.attempted += 1
            problems = []
            if reference is not None and reference[i] != (ident, got):
                problems.append(f"differs from reference {reference[i]}: {ident} {got}")
            if pinned and self.pins is not None:
                pin =self.pins.get(label, {}).get("/".join(map(str, ident)))
                if pin != got:
                    problems.append(f"pinned {pin}, got {got}")
            if problems:
                self.fail(label, i, ident, "; ".join(problems))

    def live_reference(self):
        """Live rows of every spec; a replayed artifact must equal them."""
        if not self.w["replay"]:
            return {}
        self.run_cli("live")
        return {label: self.cells_of(self.artifact(label, "live")) for label in self.specs}

    # -- modes ---------------------------------------------------------------

    def timed(self, seconds):
        self.record_traces()
        reference = self.live_reference()
        walls, setups, rss = [], [], []
        start = time.perf_counter()
        rounds = 0
        while rounds < MIN_ROUNDS or (time.perf_counter() - start < seconds
                                      and rounds < MAX_ROUNDS):
            setups.append(self.run_cli("setup")[0])
            wall, _, peak = self.run_cli("timed")
            walls.append(wall)
            rss.append(peak / 1024)
            for label in self.specs:
                self.check(label, self.cells_of(self.artifact(label, "setup")), pinned=False)
                cells = self.cells_of(self.artifact(label, "timed"))
                ref = reference.get(label)
                if ref is None:
                    # A live workload: every round must reproduce the first.
                    ref = reference.setdefault(label, cells)
                self.check(label, cells, ref)
            rounds += 1
        # Other tenants of the host slow whole stretches of rounds by up to
        # half; the work itself is deterministic, so the fastest run of each
        # invocation is the stable estimate of its cost.  Set-up reports
        # the median round.
        wall_s = sum(map(min, zip(*walls)))
        fastest_setup = sum(map(min, zip(*setups)))
        totals, setup_totals = [sum(w) for w in walls], [sum(s) for s in setups]
        log(f"{self.name} seed {self.seed}: {rounds} rounds; wall_s {wall_s:.4f} "
            f"(median round {median(totals):.4f}, spread {spread(totals):.3f}), setup_s "
            f"{median(setup_totals):.4f} (fastest {fastest_setup:.4f}, spread "
            f"{spread(setup_totals):.3f}), peak_rss_mb {median(rss):.1f}, error_rate "
            f"{self.failed / max(self.attempted, 1):.4f}")
        return {
            "wall_s": wall_s,
            "setup_s": median(setup_totals),
            "sim_minst_per_s": self.sim_insts() / max(wall_s - fastest_setup, 1e-9) / 1e6,
            "peak_rss_mb": median(rss),
        }

    def cells_file(self):
        """The cell list `perfbench layers` re-runs, one key=value line each."""
        path = os.path.join(self.dir, "cells.txt")
        itlb = self.w["itlb"]
        itlb = ",".join(str(itlb[k]) for k in ("entries", "assoc", "page_bytes", "miss_cycles")) \
            if itlb else "-"
        with open(path, "w") as f:
            for m in self.w["mechanisms"]:
                label = m or self.w["preset"]
                for i, bench in enumerate(self.w["bench"]):
                    trace = "-"
                    if self.trace_dir:
                        trace = os.path.join(self.trace_dir,
                                             f"{bench}-w{WORKLOAD_SEED}-x{self.seed}.pstr")
                    f.write(f"index={i} spec={self.specs[label][0]} bench={bench} "
                            f"preset={self.w['preset']} tech={TECH} l1={self.w['l1']} "
                            f"warmup={self.warmup} measure={self.measure} "
                            f"workload_seed={WORKLOAD_SEED} exec_seed={self.seed} "
                            f"prefetcher={m or '-'} itlb={itlb} trace={trace}\n")
        return path

    def traced(self):
        self.record_traces()
        reference = self.live_reference()
        walls, cpu, _ = self.run_cli("timed")
        artifacts = {}
        for label in self.specs:
            artifacts[label] = self.cells_of(self.artifact(label, "timed"))
            self.check(label, artifacts[label], reference.get(label))

        # `prestage merge` of one spec's shards, made at set-up.
        label, paths = list(self.specs.items())[-1]
        n = len(self.w["bench"])
        cut = max(n // 2, 1)
        shards = []
        for a, b in ((0, cut), (cut, n)):
            if a < b:
                out = os.path.join(self.dir, f"shard-{a}-{b}.json")
                self.tools.prestage_ok(["shard", "--spec", paths[0], "--cells", f"{a}..{b}",
                                        "--out", out], self.log)
                shards.append(out)
        merged = os.path.join(self.dir, "merged.json")
        merges = [self.tools.prestage_ok(["merge", *shards, "--out", merged], self.log)["wall_s"]
                  for _ in range(5)]
        self.check(label, self.cells_of(merged), artifacts[label])

        # In-process cells and layer drivers.
        reps = 2 if self.w["replay"] else 3
        r = subprocess.run([self.tools.perfbench, "layers", "--cells", self.cells_file(),
                            "--reps", str(reps), "--scale", "0.05" if self.tiny else "1"],
                           stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
        if r.returncode != 0:
            raise BenchError("perfbench layers failed")
        layers = json.loads(r.stdout.strip().splitlines()[-1])
        by_spec = {paths[0]: label for label, paths in self.specs.items()}
        for c in layers["cells"]:
            label = by_spec[c["spec"]]
            ident, want = artifacts[label][c["index"]]
            got = {k: c[k] for k in ("cycles", "committed", "redirects")}
            self.attempted += 1
            if c["mismatch"] or got != want:
                self.fail(label, c["index"], ident,
                          f"in-process {got} vs CLI {want} {c['mismatch'] or ''}".strip())
        metrics = dict(layers["metrics"])
        metrics["sim.runner.cpu_util"] = cpu / max(sum(walls) * self.w["threads"], 1e-9)
        metrics["sim.spec.merge_ms"] = median(merges) * 1e3
        return metrics


def load_benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def run(tools, name, seed, seconds, trace, tiny=False):
    """One benchmark run; returns the result object."""
    bench = load_benchmark()
    wl = Workload(tools, name, seed, tiny)
    values = wl.traced() if trace else wl.timed(seconds)
    declared = bench["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    if wl.failed == 0:
        shutil.rmtree(wl.dir, ignore_errors=True)
    return {"correct": wl.failed == 0, "attempted": max(wl.attempted, 1),
            "failed": wl.failed, "metrics": metrics}


def selftest(tools):
    """Tiny pass of every workload, timed and traced, with closure checks."""
    bench = load_benchmark()
    with open(os.path.join(HERE, "interactions.json")) as f:
        interactions = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    assert sorted(names) == sorted(WORKLOADS), f"workloads {names} vs {sorted(WORKLOADS)}"
    for m in bench["per_layer"]:
        assert m["name"] in interactions["per_layer"], f"{m['name']} has no interaction entry"
    for name in names:
        for trace in (0, 1):
            res = run(tools, name, 3, 1, trace, tiny=True)
            assert res["correct"] and res["failed"] == 0, f"{name} trace {trace}: {res}"
            declared = bench["per_layer" if trace else "end_to_end"]
            assert set(res["metrics"]) == {m["name"] for m in declared}
            for m in declared:
                got = res["metrics"][m["name"]]
                assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), got
            if trace:
                v = {k: x["value"] for k, x in res["metrics"].items()}
                ledger = sum(x for k, x in v.items() if k.startswith("ledger."))
                total = v["sim.engine.ns_per_inst"]
                assert abs(ledger - total) <= 1e-6 * max(abs(total), 1.0), \
                    f"{name}: ledger sums to {ledger}, engine {total}"
            log(f"selftest {name} trace {trace}: ok")
    log("selftest: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")
    try:
        tools = Tools()
        if args.selftest:
            selftest(tools)
            return 0
        res = run(tools, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
