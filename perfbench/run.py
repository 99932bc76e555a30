#!/usr/bin/env python3
"""Builds and runs the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds
perfbench/ (which links the library from src/) into the build directory
($CARGO_TARGET_DIR, default .bench_build); later runs rebuild incrementally.

Each run starts the benchmark binary three times: twice with --setup-only and
once for the measured run, so setup_s is the median of three fresh-process
set-ups.  With --trace 0 it reports the end-to-end metrics named in
BENCHMARK.json, with --trace 1 the per-layer ones.  The last stdout line is
the result object; the line before it carries the host fingerprint and the
workload inputs.  Exit status is 0 only for a correct, valid run.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ablation-jit", "coverage-check", "serve-mixed")
SETUPS = 3
BUILD_TIMEOUT_S = 700
SETUP_TIMEOUT_S = 30
RUN_GRACE_S = 60


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != HERE:
            shutil.rmtree(bdir)  # configured for another checkout
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def cache_value(bdir, key):
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def fingerprint(bdir):
    cpu = "unknown"
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    compiler = cache_value(bdir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout.splitlines()
        compiler = version[0] if version else compiler
    except (OSError, subprocess.TimeoutExpired):
        pass
    sha = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"cpu_model": cpu, "nproc": os.cpu_count(), "compiler": compiler,
            "build_type": cache_value(bdir, "CMAKE_BUILD_TYPE"),
            "git_sha": sha, "source_sha256": digest.hexdigest()[:16]}


def run_binary(binary, args, timeout):
    try:
        proc = subprocess.run([binary] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out: " + " ".join(args))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"benchmark exited {proc.returncode} without a result")
    return proc.returncode, result


def main():
    # subprocess.run kills its child when an exception unwinds through it,
    # so turning SIGTERM into SystemExit stops the benchmark binary too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    bdir = build_dir()
    binary = build(bdir)
    work = os.path.join(bdir, "run")
    os.makedirs(work, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--trace", str(args.trace),
              "--reference", os.path.join("perfbench", "reference.tsv"),
              "--work-dir", os.path.relpath(work, ROOT)]

    attempted = failed = 0
    setups = []
    for _ in range(SETUPS - 1):
        code, res = run_binary(binary, common + ["--setup-only"],
                               SETUP_TIMEOUT_S)
        attempted += res["attempted"]
        failed += res["failed"] + (code != 0)
        setups.append(res["metrics"]["setup_s"])
    code, res = run_binary(binary, common, args.seconds + RUN_GRACE_S)
    attempted += res["attempted"]
    failed += res["failed"] + (code != 0 and res["valid"])
    setups.append(res["metrics"]["setup_s"])
    if not res["valid"]:
        fail("run flagged invalid; no numbers reported", 3)

    measured = dict(res["metrics"])
    measured["setup_s"] = statistics.median(setups)
    metrics = {}
    absent = []
    for m in wanted:
        if m["name"] in measured:
            value = measured[m["name"]]
        elif args.trace:
            value = 0.0  # a layer this workload does not load
            absent.append(m["name"])
        else:
            fail(f"end-to-end metric {m['name']} not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if absent:
        log("not loaded by this workload (reported as 0): " +
            ", ".join(absent))

    context = {"fingerprint": fingerprint(bdir),
               "inputs": dict(res["inputs"], workload=args.workload,
                              seed=args.seed, seconds=args.seconds,
                              trace=args.trace),
               "observed": res["observed"],
               "setup_s_samples": setups}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(bdir, "results", name), "w") as f:
        json.dump(dict(context, result=result), f, indent=1)
    print("context: " + json.dumps(context))
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
