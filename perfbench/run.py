#!/usr/bin/env python3
"""Benchmark entry point for the conditional-deep-learning cascade.

    python3 perfbench/run.py --workload offline|stream|serve --seed N \
        --seconds S --trace 0|1 [--smoke]
    python3 perfbench/run.py --selftest

Run from the repository root. The first call builds perfbench/ (which pulls
in ../src) into the work directory, then trains MNIST_2C and MNIST_3C once
for this source tree; neither step is timed. Every call then runs one
workload in perfbench's benchmark binary and forwards its output, whose last
line is the JSON result. The work directory is $CARGO_TARGET_DIR when set,
otherwise .bench_build.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("offline", "stream", "serve")
RUN_TIMEOUT_S = 170
PREPARE_DEADLINE = time.monotonic() + 700  # build + training, first run only


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def prepare(cmd, **kwargs):
    """Runs one build or training step within the first-run deadline."""
    try:
        return subprocess.run(cmd, timeout=max(
            1.0, PREPARE_DEADLINE - time.monotonic()), **kwargs).returncode
    except subprocess.TimeoutExpired:
        fail(f"{cmd[0]} {cmd[1]} did not finish before the first-run deadline")


def work_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def source_hash():
    """Fingerprint of everything the binary and the weights depend on."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for f in sorted(filenames):
                if f.endswith((".cpp", ".h", ".txt")):
                    files.append(os.path.join(dirpath, f))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def build(work, key):
    """Configures and builds the benchmark package once per source tree."""
    build_dir = os.path.join(work, "cmake")
    binary = os.path.join(build_dir, "cdl_perfbench")
    stamp = os.path.join(build_dir, "perfbench.stamp")
    if os.path.exists(binary) and os.path.exists(stamp):
        with open(stamp) as fh:
            if fh.read().strip() == key:
                return binary
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(work, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", build_dir, "-j", jobs]):
            rc = prepare(cmd, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                with open(log_path) as fh:
                    sys.stderr.write(fh.read()[-4000:])
                fail(f"build failed ({' '.join(cmd[:2])}), log in {log_path}")
    with open(stamp, "w") as fh:
        fh.write(key + "\n")
    return binary


def weights(work, key, binary):
    """Trains the two paper nets once per source tree (never timed)."""
    final = os.path.join(work, "weights", key)
    if os.path.exists(os.path.join(final, "COMPLETE")):
        return final
    os.makedirs(os.path.dirname(final), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="train-", dir=os.path.dirname(final))
    rc = prepare([binary, "train", "--weights", tmp], stdout=sys.stderr)
    if rc != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        fail("training failed")
    shutil.rmtree(final, ignore_errors=True)
    os.rename(tmp, final)
    return final


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def declared_metrics(trace):
    return {m["name"]: m["unit"]
            for m in spec()["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    """The printed result has the contract's keys, and its metric names and
    units are exactly those BENCHMARK.json declares for this mode."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        return f"metrics differ: missing {missing} extra {extra} units {units}"
    return None


def run_workload(args, binary, wdir, key, work):
    cmd = [binary, "run", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--weights", wdir, "--source-hash", key]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            work, "traces", f"{args.workload}-seed{args.seed}.json")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} run failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    problem = check_result(result, args.trace)
    if problem:
        fail(f"{args.workload}: {problem}")
    with open(os.path.join(work, "records.jsonl"), "a") as fh:
        fh.write(lines[0] + "\n")
    sys.stdout.write(proc.stdout)
    return result, json.loads(lines[0])["record"]


def selftest(binary, wdir, key, work):
    """Smoke runs: same seed -> same traffic and counts; another seed ->
    other traffic, same metric names; names/units match BENCHMARK.json."""
    exact = ("accuracy", "energy_uj_per_image")
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            runs = []
            for seed in (7, 7, 8):
                a = argparse.Namespace(workload=workload, seed=seed,
                                       seconds=1, trace=trace, smoke=True)
                runs.append(run_workload(a, binary, wdir, key, work))
            (r1, c1), (r2, c2), (r3, c3) = runs
            tag = f"{workload} trace={trace}"
            if c1["traffic_digest"] != c2["traffic_digest"]:
                problems.append(f"{tag}: same seed, different traffic")
            if c1["traffic_digest"] == c3["traffic_digest"]:
                problems.append(f"{tag}: other seed, same traffic")
            if set(r1["metrics"]) != set(r3["metrics"]):
                problems.append(f"{tag}: metric names depend on the seed")
            names = [n for n in r1["metrics"]
                     if n in exact or n.startswith("cdl.exit_frac.")]
            for n in names:
                if r1["metrics"][n]["value"] != r2["metrics"][n]["value"]:
                    problems.append(f"{tag}: {n} differs for the same seed")
            if not all(r["correct"] for r, _ in runs):
                problems.append(f"{tag}: a run reported correct=false")
    print(json.dumps({"selftest": "fail" if problems else "pass",
                      "problems": problems}))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int,
                   help="measured seconds (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny traffic and one set-up (wiring check)")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no cdl sources under {ROOT}/src", 2)
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    if args.seconds < 1:
        p.error("--seconds must be >= 1")

    work = work_dir()
    key = source_hash()
    binary = build(work, key)
    wdir = weights(work, key, binary)
    if args.selftest:
        return selftest(binary, wdir, key, work)
    result, _ = run_workload(args, binary, wdir, key, work)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
