#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Run from the root of a checkout (builds on first use, about a minute of
runs after that):

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py --size tiny untraced once
and traced twice with the same seed, and checks that

  * each run exits 0 and its last line is the result object with
    exactly the keys correct/attempted/failed/metrics, correct and with
    no failures;
  * an untraced run emits exactly the end_to_end metrics of
    BENCHMARK.json and a traced run exactly the per_layer metrics, each
    with its unit;
  * every metric is positive on every workload (each layer does work
    there, from the workload itself or from the in-process census), and
    the layers the prediction table says a workload drives are driven by
    it;
  * the deterministic counts repeat exactly across the two traced runs;
  * the serve request stream is byte-identical for equal seeds (same
    digest) and differs for another seed.
"""

import json
import re
import subprocess
import sys

SECONDS = "1"
EXACT_COUNTS = ["vm.runs_per_op", "vm.steps_per_op", "timing.cycles_per_op",
                "serve.hit_ratio"]

failures = []


def check(ok, what):
    if not ok:
        failures.append(what)
        print(f"FAIL: {what}", file=sys.stderr)


def run(workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
           "--size", "tiny"]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    label = f"{workload} seed {seed} trace {trace}"
    check(p.returncode == 0, f"{label}: exit {p.returncode}\n{p.stderr}")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        check(False, f"{label}: last line is not JSON")
        return {}, p.stdout
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{label}: result keys {sorted(result)}")
    check(result.get("correct") is True and result.get("failed") == 0 and
          result.get("attempted", 0) >= 1, f"{label}: not correct")
    return result.get("metrics", {}), p.stdout


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    # The layers each workload drives itself (not through the census).
    driven = {
        "figures": ["opt.ms", "vm.measure_ms", "timing.sim_ms",
                    "core.runcache_hit_ratio"],
        "sweep": ["timing.sim_ms", "core.runcache_hit_ratio"],
        "serve": ["serve.miss_ms", "serve.hit_ratio",
                  "core.runcache_hit_ratio"],
    }

    for workload in ["figures", "sweep", "serve"]:
        metrics, _ = run(workload, 7, 0)
        check({k: v.get("unit") for k, v in metrics.items()} == e2e,
              f"{workload}: untraced metrics {sorted(metrics)}")
        for name, v in metrics.items():
            check(v["value"] > 0, f"{workload}: {name} is {v['value']}")

        first, out1 = run(workload, 7, 1)
        second, out2 = run(workload, 7, 1)
        check({k: v.get("unit") for k, v in first.items()} == layers,
              f"{workload}: traced metrics {sorted(first)}")
        for name, v in first.items():
            check(v["value"] > 0, f"{workload}: {name} is {v['value']}")
        for name in driven[workload]:
            check(first.get(name, {}).get("value", 0) > 0,
                  f"{workload}: does not drive {name}")
        for name in EXACT_COUNTS:
            a = first.get(name, {}).get("value")
            b = second.get(name, {}).get("value")
            check(a is not None and a == b,
                  f"{workload}: {name} differs across runs ({a} vs {b})")

        if workload == "serve":
            digest = re.compile(r"schedule digest (\d+)")
            d1 = digest.search(out1)
            d2 = digest.search(out2)
            _, other = run(workload, 8, 0)
            d3 = digest.search(other)
            check(d1 and d2 and d3 and d1.group(1) == d2.group(1) and
                  d1.group(1) != d3.group(1),
                  "serve: request stream is not a function of the seed")

    if failures:
        print(f"selftest: {len(failures)} failure(s)", file=sys.stderr)
        sys.exit(1)
    print("selftest: ok")


if __name__ == "__main__":
    main()
