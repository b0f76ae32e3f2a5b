#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks three things:
  1. BENCHMARK.json is well formed and its per-layer names equal the
     harness's table (perfbench/cpp/main.cpp, kLayerMetrics).
  2. A shortened run (--quick, 1 s) of every workload completes, in both
     modes. Each run is correct and emits exactly the metric names that
     BENCHMARK.json lists for its mode.
  3. In a directory that holds only BENCHMARK.json and perfbench/, run.py
     exits non-zero and prints no result.
Exit code 0 when all pass.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in spec[k]]
    check(len(names) == len(set(names)), "metric names are unique")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and
              m["better"] == "lower" for m in spec["end_to_end"]),
          "setup_s is an end-to-end metric")

    with open(os.path.join(HERE, "cpp", "main.cpp")) as f:
        src = f.read()
    table = src[src.index("kLayerMetrics"):]
    table = table[:table.index("};")]
    harness = re.findall(r'\{"([^"]+)", "([^"]+)"\}', table)
    check([n for n, _ in harness] == [m["name"] for m in spec["per_layer"]],
          "harness layer table names == BENCHMARK.json per_layer")
    check([u for _, u in harness] == [m["unit"] for m in spec["per_layer"]],
          "harness layer table units == BENCHMARK.json per_layer")

    run = [sys.executable, os.path.join(HERE, "run.py")]
    for w in spec["workloads"]:
        for trace in (0, 1):
            key = "per_layer" if trace else "end_to_end"
            r = subprocess.run(run + ["--workload", w["name"], "--seconds", "1",
                                      "--trace", str(trace), "--quick"],
                               cwd=ROOT, capture_output=True, text=True)
            what = f"{w['name']} --trace {trace} --quick"
            if r.returncode != 0:
                check(False, f"{what}: exit {r.returncode}: {r.stderr[-500:]}")
                continue
            res = json.loads(r.stdout.strip().splitlines()[-1])
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{what}: result keys")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                  f"{what}: correct")
            check(sorted(res["metrics"]) == sorted(m["name"] for m in spec[key]),
                  f"{what}: metric names == BENCHMARK.json {key}")
            units = {m["name"]: m["unit"] for m in spec[key]}
            check(all(v["unit"] == units.get(k) for k, v in res["metrics"].items()),
                  f"{what}: metric units")

    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            spec["workloads"][0]["name"], "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
                           cwd=bare, env=env, capture_output=True, text=True,
                           timeout=180)
        last = r.stdout.strip().splitlines()[-1:] or [""]
        check(r.returncode != 0 and '"metrics"' not in last[0],
              "bare directory: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
