#!/usr/bin/env python3
"""Same-runner perf gate: is the head checkout slower than the base checkout?

    python3 tools/perf_gate.py BASE_CHECKOUT HEAD_CHECKOUT

Both arguments are full checkouts (in CI: the PR's merge-base, or HEAD^ on a
push, added as a git worktree, and the commit under test). For each of PAIRS
pairs and each workload in WORKLOADS, the gate runs the unmodified
`python3 perfbench/run.py --workload W --seconds RUN_SECONDS` once in each
checkout, back to back, flipping which side runs first from pair to pair.
Each checkout builds into its own .bench_build/.

It fails (exit 1) when
  - any run exits non-zero, or its record is not `correct` with `failed == 0`;
  - the runs report more than one host (`cpu_model`, `nproc`);
  - on any workload, the median over pairs of the head/base ratio of
    `sim_cycles_per_s` is below BOUND.

Single readings are not compared: the same binary's speed drifts by tens of
percent between host phases minutes apart, while the two runs of a pair are
seconds apart. BOUND, PAIRS and
RUN_SECONDS come from an A/A calibration (EXPERIMENTS.md, "Perf gate").

The summary -- verdict, per-pair ratios and every run's full perfbench
record, host included -- is written to HEAD_CHECKOUT/BENCH_perf.json.
"""

import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("cmp_fig5", "noc_8x8")
METRIC = "sim_cycles_per_s"
PAIRS = 6
RUN_SECONDS = 5
BOUND = 0.93
SUMMARY = "BENCH_perf.json"


def run_once(checkout, workload):
    """One perfbench run; returns its full record from .bench_out/."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # an absolute one would be shared
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seconds", str(RUN_SECONDS)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return {"workload": workload, "correct": False,
                "error": f"run.py exited with code {proc.returncode}"}
    path = os.path.join(checkout, ".bench_out",
                        f"result-{workload}-seed1-trace0.json")
    with open(path) as f:
        return json.load(f)


def decide(pairs):
    """The verdict on `pairs`, a list of {workload: {"base": record,
    "head": record}}. Returns {"pass", "reasons", "workloads"}."""
    reasons = []
    hosts = set()
    ratios = {w: [] for w in WORKLOADS}
    for i, pair in enumerate(pairs):
        for w in WORKLOADS:
            ok = True
            for side in ("base", "head"):
                rec = pair[w][side]
                if not rec.get("correct") or rec.get("failed") != 0:
                    ok = False
                    reasons.append(
                        f"pair {i + 1}: {w} on {side} is not correct with failed == 0"
                        + (f" ({rec['error']})" if "error" in rec else ""))
                else:
                    hosts.add((rec.get("cpu_model"), rec.get("nproc")))
            if ok:
                ratios[w].append(pair[w]["head"]["metrics"][METRIC]["value"] /
                                 pair[w]["base"]["metrics"][METRIC]["value"])
    if len(hosts) > 1:
        reasons.append(f"runs report different hosts: {sorted(hosts)}")
    summary = {}
    for w in WORKLOADS:
        median = statistics.median(ratios[w]) if ratios[w] else None
        summary[w] = {"ratios": ratios[w], "median_ratio": median}
        if median is not None and median < BOUND:
            reasons.append(f"{w}: median head/base {METRIC} ratio "
                           f"{median:.3f} < {BOUND}")
    return {"pass": not reasons, "reasons": reasons, "workloads": summary}


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sides = {"base": os.path.abspath(sys.argv[1]),
             "head": os.path.abspath(sys.argv[2])}
    pairs = []
    for i in range(PAIRS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        pair = {w: {} for w in WORKLOADS}
        for w in WORKLOADS:
            for side in order:
                rec = pair[w][side] = run_once(sides[side], w)
                value = rec.get("metrics", {}).get(METRIC, {}).get("value")
                print(f"perf_gate: pair {i + 1}/{PAIRS} {w} {side}: "
                      f"{METRIC} {value}", flush=True)
        pairs.append(pair)

    verdict = decide(pairs)
    summary = {"metric": METRIC, "bound": BOUND, "pairs": PAIRS,
               "run_seconds": RUN_SECONDS, **verdict, "runs": pairs}
    with open(os.path.join(sides["head"], SUMMARY), "w") as f:
        json.dump(summary, f, indent=2)
        f.write("\n")

    for w, s in verdict["workloads"].items():
        med = s["median_ratio"]
        print(f"perf_gate: {w}: median head/base {METRIC} "
              f"{'n/a' if med is None else f'{med:.3f}'} over "
              f"{len(s['ratios'])} pairs (bound {BOUND})")
    for r in verdict["reasons"]:
        print(f"perf_gate: FAIL {r}")
    print("perf_gate: " + ("PASS" if verdict["pass"] else "FAIL"))
    sys.exit(0 if verdict["pass"] else 1)


if __name__ == "__main__":
    main()
