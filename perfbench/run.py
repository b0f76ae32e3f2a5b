#!/usr/bin/env python3
"""Run the repository benchmark on one workload and print its result.

    python3 perfbench/run.py --workload cmp_fig5 [--seed 1] [--seconds 20]
                             [--trace 0|1] [--quick]

Run from the root of a checkout. The script builds the simulator and the
perfbench harness from source (CMake, into $CARGO_TARGET_DIR or .bench_build),
runs the harness, checks its outputs and its metric names against
BENCHMARK.json, records host and provenance in
.bench_out/result-<workload>-seed<seed>-trace<t>.json, prints every metric by
name with its unit, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. Any failure to build, run or verify
exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TICK_LOOP = {"cmp_fig5", "cmp_fig6", "noc_8x8"}
HARNESS_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found; run from a full checkout")
    bdir = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def run_harness(binary, args, out_dir):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    if args.quick:
        cmd.append("--quick")
    # Own process group, so a timeout also stops the sweep's forked workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"harness exceeded {HARNESS_TIMEOUT_S}s")
    if proc.returncode != 0:
        fail(f"harness exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        fail("harness printed nothing")
    try:
        return lines[:-1], json.loads(lines[-1])
    except ValueError:
        fail("harness's last line is not JSON")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the simulator and benchmark sources, for checkouts that
    are not git repositories."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="shrunken cells for the self-test; not comparable")
    args = p.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    text, res = run_harness(binary, args, out_dir)

    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    got = list(res["metrics"])
    if sorted(got) != sorted(wanted):
        fail(f"metric names differ from BENCHMARK.json: "
             f"missing {sorted(set(wanted) - set(got))}, "
             f"extra {sorted(set(got) - set(wanted))}")
    nproc = len(os.sched_getaffinity(0))
    if args.workload in TICK_LOOP and (res["workers"] != 1 or res["threads"] != 1):
        fail(f"{args.workload} resolved to {res['workers']} workers / "
             f"{res['threads']} threads; tick-loop results need exactly 1")
    if res["workers"] > nproc:
        fail(f"{res['workers']} workers exceed nproc={nproc}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": res["default_seed"],
        "held_out_seed": res["held_out_seed"],
        "trace": args.trace,
        "quick": args.quick,
        "seconds": args.seconds,
        "workers": res["workers"],
        "threads": res["threads"],
        "passes": res["passes"],
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "compiler": res["compiler"],
        "flags": res["flags"],
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failures": res["failures"],
        "model_outputs": res["model_outputs"],
        "metrics": res["metrics"],
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=2)

    for line in text:
        print(line)
    print(f"workload {args.workload}, seed {args.seed} (default "
          f"{res['default_seed']}, held-out {res['held_out_seed']}), "
          f"{res['passes']} passes, {res['workers']} worker(s), nproc {nproc}, "
          f"{record['cpu_model']}, {res['compiler']} {res['flags']}, "
          f"commit {record['commit'] or 'n/a'}, "
          f"source {record['source_sha256'][:12]}")
    for m, v in res["metrics"].items():
        print(f"  {m:40s} {v['value']:>16.6g} {v['unit']}")
    print(f"correct={res['correct']} attempted={res['attempted']} "
          f"failed={res['failed']} "
          f"fail_ratio={res['failed'] / max(1, res['attempted']):.6g}")
    print(json.dumps({
        "correct": bool(res["correct"]) and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))


if __name__ == "__main__":
    main()
