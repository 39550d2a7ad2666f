#!/usr/bin/env python3
"""Simulator benchmark: simulated seconds per wall second, layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload city_serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20    # every workload, both modes

Builds perfbench/ (a Release CMake project over the simulator sources) into
.bench_build/, then starts perfbench_runner once per run until --seconds
have elapsed, cycling through INSTANCES instances of the workload seeded
from --seed.  One process per run keeps peak RSS and CPU time per run and
lets a stalled run be killed at its deadline.  A run that throws, fails its
conservation audit, misses its output check or stalls counts as one failed
run.  A fixed calibration kernel is timed before and after every run, and
the run's times are scaled to a reference host speed (see CALIB_REF_S).

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of separate traced runs.  Each metric is the median over
an instance's runs, averaged over the instances, with its unit, spread
(IQR / median within an instance, median over the instances) and sample
count.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  perfbench/README.md says which end-to-end
metric each per-layer metric should move, and on which workload.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD, "perfbench_runner")

WORKLOADS = ["city_serial", "static_crowd", "city_world2", "city_fleet2"]
SERIAL = {"city_serial", "static_crowd"}

# One benchmark run measures INSTANCES instances of its workload: instance i
# of --seed s runs at config seed INSTANCES * s + i.  How fast one instance
# runs depends on its seed (32 static_crowd instances run back to back took
# 0.59 to 0.69 s, 6 % IQR / median); averaging over the instances shrinks
# that part of the spread across seeds by about sqrt(INSTANCES).
INSTANCES = 8

# The host's speed drifts: on a shared 4-vCPU guest the 10-second medians of
# one static_crowd run ranged from 0.40 to 0.71 s within eight minutes, so
# medians of raw wall time over 25-second windows spread 22 % (IQR / median).
# Every run is therefore bracketed by two timings of a fixed kernel that
# does not depend on the simulator (`perfbench_runner calibrate`), and each
# of the run's times is scaled by CALIB_REF_S / (their mean): the time it
# would have taken on a host that runs the kernel in CALIB_REF_S.  Over four
# minutes of static_crowd runs that cut the spread of 20-second medians
# from 20 % to 5 %.  A faster simulator still shows in full, since the
# kernel does not change with it.
CALIB_REF_S = 0.07
# Per-layer metrics in these units are times, and are scaled the same way.
TIME_UNITS = {"s", "ms", "us", "ns"}

# Digests (FNV-1a 64) of core::fingerprint for the serial workloads' instances
# at the default seed.  At other seeds every run of an instance must
# reproduce its first one.
DEFAULT_SEED = 1
PINNED_DIGESTS = {
    "city_serial": ["79b16c91b7b487dc", "2fd6218b58217ee8", "e4e011fb748f04c2",
                    "08106b40fd0430f2", "8df5aa21f18a1d03", "23e4e968d307a905",
                    "70a9f3d594ed03b7", "d9851ffa5957808c"],
    "static_crowd": ["8846663a89c2591b", "9cbc420b98980973", "8708a620f890cc20",
                     "3c3de5b18122ad27", "edb4f6b75ef86644", "4e94dbb952fc700e",
                     "1d4d1d260e7b2367", "09751cca4bff1d2a"],
}

# A run still going after this is a stall: it is killed and counted failed.
RUN_DEADLINE_S = 20.0

# Runs during which the hypervisor stole more than this share of the host's
# CPU time are left out of the medians (a contended host slows the
# barrier-bound workloads up to 5x).  While an instance has fewer than
# MIN_CLEAN clean runs the measurement goes on, for at most EXTRA_S beyond
# --seconds.
STEAL_LIMIT = 0.05
MIN_CLEAN = 2
EXTRA_S = 5.0

# Runs in the first WARMUP_S are checked but not sampled: on a host that was
# idle, the first second of load ran up to 2.5x slower than sustained load.
WARMUP_S = 3.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the runner up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_runner",
                  "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:] + p.stderr[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(1)


def median(values):
    return statistics.median(values) if values else 0.0


def spread(values):
    """Interquartile range as a share of the median (0 below 2 samples)."""
    if len(values) < 2 or median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def combine(groups, rate=False):
    """The median of each instance's samples, averaged over the instances.
    A rate of simulated over wall seconds is averaged harmonically, so that
    it reads total simulated time over total wall time."""
    medians = [median(v) for v in groups.values()]
    if rate:
        return len(medians) / sum(1.0 / m for m in medians)
    return statistics.fmean(medians)


def row(groups, rate=False):
    """(value, spread, sample count) of per-instance samples; the spread is
    the median over the instances of each one's run-to-run spread."""
    return (combine(groups, rate),
            median([spread(v) for v in groups.values()]),
            sum(len(v) for v in groups.values()))


def derived(value):
    """A row computed from other rows: one value, no spread of its own."""
    return (value, 0.0, 1)


class Session:
    """The runs of one workload's instances: how many were attempted, which
    failed."""

    def __init__(self, workload, short, time_layers):
        self.workload = workload
        self.short = short
        self.time_layers = time_layers  # per-layer metrics that are times
        self.attempted = 0
        self.failed = 0
        self.reference = {}  # instance seed -> the digest its runs reproduce
        self.pinned = False
        self.contended = 0  # timed runs with host steal above the limit
        self.left_out = False  # whether they were left out of the medians
        self.calib_s = None  # the latest calibration, if it succeeded
        self.calibs = []  # every calibration kernel time

    def fail(self, reason):
        self.failed += 1
        log(f"perfbench: {self.workload}: FAILED: {reason}")

    def spawn(self, args):
        """One runner process: (its result object, None) or (None, why not)."""
        try:
            p = subprocess.run([RUNNER] + args, cwd=ROOT, capture_output=True,
                               text=True, timeout=RUN_DEADLINE_S)
        except subprocess.TimeoutExpired:
            return None, f"stalled past {RUN_DEADLINE_S:.0f} s; killed"
        if p.returncode != 0:
            return None, f"exited {p.returncode}: {p.stderr.strip()[-600:]}"
        try:
            return json.loads(p.stdout.strip().splitlines()[-1]), None
        except (ValueError, IndexError):
            return None, "printed no result"

    def calibrate(self):
        """The calibration kernel's time now, or None when it failed."""
        result, why = self.spawn(["calibrate"])
        self.calib_s = None if result is None else result["calib_s"]
        if result is None:
            log(f"perfbench: calibration {why}")
        else:
            self.calibs.append(self.calib_s)
        return self.calib_s

    def run(self, mode, seed):
        """One runner process between two calibrations; its result with every
        time scaled to the reference host speed, or None when it failed."""
        self.attempted += 1
        before = self.calib_s if self.calib_s is not None else self.calibrate()
        args = [mode, self.workload, str(seed)] + (["--short"] if self.short
                                                   else [])
        result, why = self.spawn(args)
        after = self.calibrate()
        if result is None:
            self.fail(f"{mode} run of seed {seed} {why}")
            return None
        expected = self.reference.setdefault(seed, result["digest"])
        if result["digest"] != expected:
            self.fail(f"{mode} run of seed {seed}: digest {result['digest']} "
                      f"!= expected {expected}")
            return None
        if before is None or after is None:
            self.fail(f"{mode} run of seed {seed}: no calibration to scale it")
            return None
        factor = CALIB_REF_S / (0.5 * (before + after))
        result["run_wall_s"] *= factor
        result["cpu_s"] *= factor
        result["setup_s"] = [t * factor for t in result["setup_s"]]
        layers = result["layers"]
        for name in self.time_layers & layers.keys():
            layers[name] *= factor
        return result


def clean(runs):
    return [r for r in runs if r["host_steal_share"] <= STEAL_LIMIT]


def measure(workload, seed, seconds, trace, short, time_layers):
    """Runs the instances of `workload` in turn for `seconds` (each at least
    once); returns the session and the timed runs, traced runs and oracle
    wall time, each keyed by instance seed."""
    seeds = [INSTANCES * seed + i for i in range(INSTANCES)]
    s = Session(workload, short, time_layers)
    oracle_wall = {}
    if workload in SERIAL:
        if seed == DEFAULT_SEED and not short:
            s.reference = dict(zip(seeds, PINNED_DIGESTS[workload]))
            s.pinned = True
    else:
        for x in seeds:
            oracle = s.run("oracle", x)
            if oracle is None:
                s.reference[x] = "no-oracle"  # nothing can match it
            else:
                oracle_wall[x] = oracle["run_wall_s"]
    order = itertools.cycle(seeds)
    warm_until = time.monotonic() + WARMUP_S
    while time.monotonic() < warm_until:
        s.run("timed", next(order))
    timed = {x: [] for x in seeds}
    traced = {x: [] for x in seeds}
    t0 = time.monotonic()
    for n, x in enumerate(itertools.cycle(seeds), 1):
        r = s.run("timed", x)
        if r:
            timed[x].append(r)
        if trace and workload in SERIAL:
            r = s.run("traced", x)
            if r:
                traced[x].append(r)
        elapsed = time.monotonic() - t0
        if n >= INSTANCES and elapsed >= seconds and (
                elapsed >= seconds + EXTRA_S
                or all(len(clean(v)) >= MIN_CLEAN for v in timed.values())):
            break
    s.contended = sum(len(v) - len(clean(v)) for v in timed.values())
    if s.contended and all(clean(v) for v in timed.values()):
        timed = {x: clean(v) for x, v in timed.items()}
        traced = {x: clean(v) or v for x, v in traced.items()}
        s.left_out = True
    return s, timed, traced, oracle_wall


def walls(runs):
    return {x: [r["run_wall_s"] for r in v] for x, v in runs.items()}


def end_to_end(timed):
    def per_run(f):
        return {x: [f(r) for r in v] for x, v in timed.items()}

    return {
        "sim_s_per_wall_s": row(per_run(lambda r: r["sim_s"] / r["run_wall_s"]),
                                rate=True),
        "cpu_s_per_sim_s": row(per_run(lambda r: r["cpu_s"] / r["sim_s"])),
        "setup_s": row({x: [t for r in v for t in r["setup_s"]]
                        for x, v in timed.items()}),
        "peak_rss_mib": row(per_run(lambda r: r["peak_rss_mib"])),
    }


def per_layer(workload, timed, traced, oracle_wall, names):
    """Samples from the traced runs (serial) or the timed runs' counters
    (world, fleet).  A layer the workload bypasses, or that no public
    accessor reaches on it, reads 0."""
    source = traced if workload in SERIAL else timed
    out = {name: row({x: [r["layers"].get(name, 0.0) for r in v]
                      for x, v in source.items()})
           for name in names}
    wall = combine(walls(timed))  # untraced
    out["sim.events_per_wall_s"] = derived(out["sim.events"][0] / wall)
    if workload in SERIAL:
        out["trace.overhead"] = derived(combine(walls(traced)) / wall)
        out["mobility.share"] = derived(
            out["mobility.oracle_calls"][0] * out["mobility.ns_per_call"][0]
            * 1e-9 / wall)
    else:
        out["trace.overhead"] = derived(1.0)  # no decorated stack: nothing to slow
        out["sim.shard.speedup_vs_k1"] = derived(
            statistics.fmean(oracle_wall.values()) / wall)
    return out


def report(workload, seed, seconds, trace, short, spec):
    """Measures one workload, prints its table, returns the result object."""
    time_layers = {m["name"] for m in spec["per_layer"]
                   if m["unit"] in TIME_UNITS}
    s, timed, traced, oracle_wall = measure(workload, seed, seconds, trace,
                                            short, time_layers)
    group = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    if all(timed.values()) and (not trace or workload not in SERIAL
                                or all(traced.values())):
        names = [m["name"] for m in group]
        rows = (per_layer(workload, timed, traced, oracle_wall, names)
                if trace else end_to_end(timed))
        ctx = next(iter(timed.values()))[0]["context"]
        print(f"perfbench {workload} seed={seed} trace={trace}: "
              f"{s.attempted} runs of {INSTANCES} instances (seeds "
              f"{min(timed)}..{max(timed)}), {s.failed} failed; host "
              f"cores={ctx['cores']} build={ctx['build_type']} "
              f"governor={ctx['cpu_governor']}")
        print("  fingerprint digests " + " ".join(s.reference.values())
              + (" (pinned for this seed)" if s.pinned else
                 " (every run reproduced its instance's)"))
        print(f"  calibration kernel: median {median(s.calibs) * 1e3:.1f} ms "
              f"over {len(s.calibs)} timings; every time below is scaled to "
              f"a host that runs it in {CALIB_REF_S * 1e3:.0f} ms")
        if s.contended:
            print(f"  {s.contended} timed runs had host steal above "
                  f"{STEAL_LIMIT:.0%}" + (" and were left out" if s.left_out
                                          else "; kept: too few clean runs"))
        print(f"  {'metric':<34} {'unit':<11} {'value':>13} {'spread':>8} "
              f"{'n':>4}")
        for m in group:
            value, within, n = rows[m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"  {m['name']:<34} {m['unit']:<11} {value:>13.6g} "
                  f"{within * 100:>7.2f}% {n:>4}")
    return {"correct": s.failed == 0 and bool(metrics),
            "attempted": s.attempted, "failed": s.failed, "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--short", action="store_true",
                    help="divide every horizon by 20 (self-tests)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build()
    if args.workload != "all":
        result = report(args.workload, args.seed, args.seconds, args.trace,
                        args.short, spec)
    else:
        # Every workload in both modes; metric names gain a workload prefix.
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (0, 1):
                r = report(workload, args.seed, args.seconds, trace,
                           args.short, spec)
                result["correct"] = result["correct"] and r["correct"]
                result["attempted"] += r["attempted"]
                result["failed"] += r["failed"]
                for name, m in r["metrics"].items():
                    result["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
