#!/usr/bin/env python3
"""Steadiness check: runs each workload as independent sets of seeded runs.

    python3 perfbench/steadiness.py                      # 2 sets x 10 runs, all workloads
    python3 perfbench/steadiness.py --workloads fig9_packet --runs 5 --sets 1

Every run is `<BENCHMARK.json command> --workload W --seed N --seconds S
--trace 0`, each with its own seed (set k uses seeds k*100+1 .. k*100+runs).
For each workload, metric and set it prints the median, the quartiles
(statistics.quantiles(n=4)) and the spread (q3 - q1) / median, then:

  * spread: PASS when every set's spread is at most a third of the metric's
    bound, OK when within the bound, FAIL beyond it (setup_s is exempt);
  * drift:  the last set's median against the first set's, FAIL when it is
    worse by more than the bound.

Any run with correct=false, failed>0 or a non-zero exit is reported. Raw
values can be saved with --out FILE (JSON). Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    elapsed = time.monotonic() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None, elapsed
    return json.loads(lines[-1]), elapsed


def worse_by(metric, first, second):
    """Share by which `second` is worse than `first` (negative = better)."""
    if first == 0:
        return 0.0
    change = (second - first) / abs(first)
    return change if metric["better"] == "lower" else -change


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write raw per-run values as JSON")
    args = parser.parse_args()

    raw = {}
    problems = 0
    for workload in args.workloads:
        sets = []
        for k in range(1, args.sets + 1):
            values = {m["name"]: [] for m in bench["end_to_end"]}
            for i in range(1, args.runs + 1):
                seed = k * 100 + i
                result, elapsed = run_once(bench["command"], workload, seed, args.seconds)
                if result is None or not result["correct"] or result["failed"]:
                    problems += 1
                    print(f"{workload} seed {seed}: FAILED RUN {result}", flush=True)
                    continue
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
                print(f"{workload} set {k} seed {seed}: {elapsed:.1f} s, "
                      f"attempted {result['attempted']} failed {result['failed']}",
                      file=sys.stderr, flush=True)
            sets.append(values)
        raw[workload] = sets

        print(f"\n== {workload}: {args.sets} set(s) x {args.runs} runs, "
              f"--seconds {args.seconds}")
        print(f"{'metric':<18} {'set':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians, verdicts = [], []
            for k, values in enumerate(sets, 1):
                v = values[name]
                if len(v) < 2:
                    print(f"{name:<18} {k:>3} too few runs")
                    problems += 1
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med if med else 0.0
                medians.append(med)
                if name == "setup_s":
                    verdict = "exempt"
                elif spread <= bound / 3:
                    verdict = "PASS"
                elif spread <= bound:
                    verdict = "OK (above bound/3)"
                else:
                    verdict = "FAIL"
                    problems += 1
                verdicts.append(verdict)
                print(f"{name:<18} {k:>3} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{spread:>8.4f} {bound:>6.3f}  {verdict}")
            if len(medians) >= 2:
                drift = worse_by(metric, medians[0], medians[-1])
                ok = drift <= bound
                problems += 0 if ok else 1
                print(f"{name:<18} drift set {len(medians)} vs 1: {drift:+.4f} "
                      f"{'PASS' if ok else 'FAIL'}")
        sys.stdout.flush()

    if args.out:
        Path(args.out).write_text(json.dumps(raw, indent=1))
    print(f"\n{problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
