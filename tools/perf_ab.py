#!/usr/bin/env python3
"""Paired perfbench A/B of two checkouts on one host.

    python3 tools/perf_ab.py --base ../parent --head . \\
        --workload static_crowd --pairs 10 --seconds 20 --seed 501
    python3 tools/perf_ab.py --self-test

Pair i runs `python3 perfbench/run.py --workload W --seed S0+i --seconds S
--trace 0` in both checkouts, the base first in even pairs and the head
first in odd ones, so a drift in host speed lands on both sides alike.
Each run's stdout and stderr go to files under --log-dir, and its last
stdout line is perfbench's JSON result.

The report lists every pair's end-to-end metrics (BENCHMARK.json
`end_to_end`, read from the head), then per metric each side's median and
quartiles, the pairs the head won in the metric's `better` direction, and
a verdict:

  gain        the head won at least 9 in 10 pairs, and its median is
              better than the base's by more than the base's IQR, over
              at least 10 pairs (fewer read "gain, too few pairs");
  regression  the head's median is worse than the base's by more than the
              metric's relative `bound`;
  neutral     anything else.

Exit status: 1 when a run fails (non-zero exit, no JSON result,
`correct: false` or `failed > 0`; the message names the side, pair and
seed), 2 when any metric's verdict is a regression, else 0.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile


class RunFailure(Exception):
    pass


def quartiles(values):
    """(q1, median, q3); statistics.quantiles' default method, as
    perfbench/run.py uses for its spread."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(base, head, better, bound):
    """Summary and verdict for one metric over paired samples."""
    assert len(base) == len(head) and base
    sign = 1.0 if better == "higher" else -1.0
    won = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    gained = sign * (hmed - bmed)
    if won * 10 >= 9 * len(base) and gained > bq3 - bq1:
        verdict = "gain" if len(base) >= 10 else "gain, too few pairs"
    elif -gained > bound * abs(bmed):
        verdict = "regression"
    else:
        verdict = "neutral"
    return {"base": (bq1, bmed, bq3), "head": (hq1, hmed, hq3), "won": won,
            "pairs": len(base), "verdict": verdict}


def check_result(result, side, pair, seed):
    """Raises RunFailure naming the run unless perfbench judged it sound."""
    where = f"{side} run of pair {pair} (seed {seed})"
    if result is None:
        raise RunFailure(f"{where} printed no JSON result")
    if result.get("correct") is not True:
        raise RunFailure(f"{where} reported correct: {result.get('correct')}")
    if result.get("failed", 0) > 0:
        raise RunFailure(f"{where} reported {result['failed']} failed runs")


def last_json_line(path):
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def run_side(checkout, workload, seed, seconds, log_dir, pair, side):
    stem = os.path.join(log_dir, f"pair{pair:02d}_{side}")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    with open(stem + ".out", "w") as out, open(stem + ".err", "w") as err:
        code = subprocess.call(cmd, cwd=checkout, stdout=out, stderr=err,
                               stdin=subprocess.DEVNULL)
    if code != 0:
        raise RunFailure(f"{side} run of pair {pair} (seed {seed}) exited "
                         f"{code}; see {stem}.err")
    result = last_json_line(stem + ".out")
    check_result(result, side, pair, seed)
    return {name: m["value"] for name, m in result["metrics"].items()}


def report(metrics, pairs):
    """Prints the per-pair table and the per-metric verdicts; returns the
    verdicts by metric name."""
    names = [m["name"] for m in metrics]
    print("pair  seed  " + "  ".join(f"{n:>36}" for n in names))
    for p in pairs:
        cells = [f"{p['base'][n]:.6g} -> {p['head'][n]:.6g} "
                 f"({p['head'][n] / p['base'][n] if p['base'][n] else 0:.2f}x)"
                 for n in names]
        print(f"{p['pair']:>4}  {p['seed']:>4}  "
              + "  ".join(f"{c:>36}" for c in cells))
    print()
    verdicts = {}
    for m in metrics:
        n = m["name"]
        j = judge([p["base"][n] for p in pairs], [p["head"][n] for p in pairs],
                  m["better"], m["bound"])
        verdicts[n] = j["verdict"]
        b, h = j["base"], j["head"]
        print(f"{n} ({m['unit']}, {m['better']} is better, bound "
              f"{m['bound']:.0%}): base {b[1]:.6g} [{b[0]:.6g}-{b[2]:.6g}], "
              f"head {h[1]:.6g} [{h[0]:.6g}-{h[2]:.6g}], head won "
              f"{j['won']}/{j['pairs']}: {j['verdict']}")
    return verdicts


def self_test():
    cases = [
        # (name, base, head, better, bound, verdict)
        ("10/10 wins, gap above IQR", [100, 102, 98, 101, 99, 100, 103, 97,
                                       100, 101],
         [120, 121, 119, 122, 118, 120, 123, 117, 120, 121], "higher", 0.25,
         "gain"),
        ("9/10 wins still a gain", [100] * 9 + [130], [110] * 9 + [100],
         "higher", 0.25, "gain"),
        ("8/10 wins is not", [100] * 8 + [130, 130], [110] * 8 + [100, 100],
         "higher", 0.25, "neutral"),
        ("every win inside the base IQR", [90, 95, 100, 105, 110, 90, 95, 100,
                                           105, 110],
         [91, 96, 101, 106, 111, 91, 96, 101, 106, 111], "higher", 0.25,
         "neutral"),
        ("lower is better: a gain", [2.0] * 6 + [2.1] * 4,
         [1.7] * 6 + [1.8] * 4, "lower", 0.25, "gain"),
        ("6/6 wins are too few pairs", [100] * 6, [120] * 6, "higher", 0.25,
         "gain, too few pairs"),
        ("30 % slower beyond a 25 % bound", [100] * 6, [70] * 6, "higher",
         0.25, "regression"),
        ("20 % slower within a 25 % bound", [100] * 6, [80] * 6, "higher",
         0.25, "neutral"),
        ("6 % more memory beyond a 5 % bound", [10.0] * 6, [10.6] * 6,
         "lower", 0.05, "regression"),
        ("4 % more memory within it", [10.0] * 6, [10.4] * 6, "lower", 0.05,
         "neutral"),
    ]
    bad = 0
    for name, base, head, better, bound, want in cases:
        got = judge(base, head, better, bound)["verdict"]
        if got != want:
            bad += 1
            print(f"FAIL {name}: {got}, expected {want}")
    q = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    if q != (1.5, 3.0, 4.5):
        bad += 1
        print(f"FAIL quartiles of 1..5: {q}")
    good = {"correct": True, "attempted": 8, "failed": 0, "metrics": {}}
    failures = [
        (None, "printed no JSON result"),
        (dict(good, correct=False), "correct: False"),
        (dict(good, failed=2), "2 failed runs"),
    ]
    for result, fragment in failures:
        try:
            check_result(result, "head", 3, 504)
            bad += 1
            print(f"FAIL {result} was accepted")
        except RunFailure as e:
            if "head run of pair 3 (seed 504)" not in str(e) or \
                    fragment not in str(e):
                bad += 1
                print(f"FAIL message '{e}' lacks the run or '{fragment}'")
    try:
        check_result(good, "base", 0, 501)
    except RunFailure as e:
        bad += 1
        print(f"FAIL a sound result was refused: {e}")
    print("perf_ab self-test:", "ok" if bad == 0 else f"{bad} failed")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        epilog="Exit status: 1 on a failed run, 2 on a regression verdict.")
    ap.add_argument("--base", help="checkout measured as the baseline")
    ap.add_argument("--head", help="checkout measured as the change")
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1,
                    help="pair i runs at seed SEED + i")
    ap.add_argument("--log-dir",
                    help="where each run's output goes (default: a new "
                         "temporary directory)")
    ap.add_argument("--self-test", action="store_true",
                    help="check the verdicts on canned pair lists")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not (args.base and args.head and args.workload) or args.pairs < 1:
        ap.error("--base, --head, --workload and --pairs >= 1 are required")

    with open(os.path.join(args.head, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    log_dir = args.log_dir or tempfile.mkdtemp(prefix="perf_ab_")
    os.makedirs(log_dir, exist_ok=True)
    print(f"perf_ab: {args.workload}, {args.pairs} pairs of {args.seconds:g} s "
          f"from seed {args.seed}; run output in {log_dir}", flush=True)
    sides = {"base": args.base, "head": args.head}
    pairs = []
    try:
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            row = {"pair": i, "seed": seed}
            for side in order:
                row[side] = run_side(sides[side], args.workload, seed,
                                     args.seconds, log_dir, i, side)
            pairs.append(row)
            print(f"  pair {i} (seed {seed}, {order[0]} first) done",
                  flush=True)
    except RunFailure as e:
        print(f"perf_ab: {e}", file=sys.stderr)
        return 1
    print()
    verdicts = report(metrics, pairs)
    return 2 if "regression" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main())
