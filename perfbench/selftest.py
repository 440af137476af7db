#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (about a minute after the build).

    python3 perfbench/selftest.py

Checks, for every workload of BENCHMARK.json and fig9_fluid at --scale tiny:
  * --trace 0 prints exactly the end_to_end metrics and --trace 1 exactly the
    per_layer metrics, each with the unit BENCHMARK.json declares, with
    correct=true and failed=0 against the committed tiny reference digest;
  * the bypass predictions: core.scheduler.* and core.adaptation.* are zero
    on fig9_fluid and cache_churn, cache.* is zero outside cache_churn;
  * a non-default seed runs clean (no reference digest applies to it).
Then that a deliberately perturbed reference digest raises error_rate above
0, and that run.py in a directory holding only BENCHMARK.json and perfbench/
exits non-zero without printing a result. Exits 0 when everything holds.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Scratch space inside run.py's build tree.
WORK = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench" / "selftest"

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# Runnable by hand but not listed in BENCHMARK.json (see README.md).
EXTRA_WORKLOADS = ["fig9_fluid"]
failures = []


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, trace, *extra, seed=1, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny", *extra]
    done = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return done.returncode, result


def check_metrics(workload, trace, result):
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == want, f"{workload} trace {trace}: every metric printed with its unit")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
           f"{workload} trace {trace}: correct, {result['attempted']} attempted, "
           f"{result['failed']} failed")


def check_bypass(workload, metrics):
    value = {k: v["value"] for k, v in metrics.items()}
    if workload in ("fig9_fluid", "cache_churn"):
        idle = [k for k in value if k.startswith(("core.scheduler.", "core.adaptation."))]
        expect(all(value[k] == 0 for k in idle),
               f"{workload}: scheduler and adaptation counters are zero")
    if workload != "cache_churn":
        idle = [k for k in value if k.startswith("cache.")]
        expect(all(value[k] == 0 for k in idle), f"{workload}: cache counters are zero")
    else:
        expect(value["cache.hits"] > 0 and value["cache.coop_probes"] > 0,
               "cache_churn: cache hits and coop probes are non-zero")
    if workload == "fig9_packet":
        expect(value["core.scheduler.segments_enqueued"] > 0,
               "fig9_packet: the deadline scheduler enqueues segments")


def main():
    work = WORK
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    for w in [w["name"] for w in BENCH["workloads"]] + EXTRA_WORKLOADS:
        for trace in (0, 1):
            code, result = bench(w, trace)
            expect(code == 0 and result is not None, f"{w} trace {trace}: exit 0 with a result")
            if result is None:
                continue
            check_metrics(w, trace, result)
            if trace:
                check_bypass(w, result["metrics"])
        code, result = bench(w, 0, seed=7)
        expect(code == 0 and result is not None and result["correct"],
               f"{w}: seed 7 runs clean")

    refs = json.loads((HERE / "reference_digests.json").read_text())
    key = "tiny/fig9_fluid"
    digest = refs[key]
    refs[key] = ("1" if digest[0] != "1" else "2") + digest[1:]
    perturbed = work / "perturbed_reference.json"
    perturbed.write_text(json.dumps(refs))
    code, result = bench("fig9_fluid", 1, "--reference", str(perturbed))
    expect(code == 0 and result is not None and not result["correct"]
           and result["metrics"]["error_rate"]["value"] > 0,
           "perturbed reference digest raises error_rate above 0")

    bare = work / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for f in HERE.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench" / f.name)
    code, result = bench("fig9_fluid", 0, cwd=bare)
    expect(code != 0 and result is None,
           "without the library sources run.py exits non-zero and prints no result")
    shutil.rmtree(work, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
