#!/usr/bin/env python3
"""Builds the SkySR library and the benchmark program from source, runs one
workload, and passes its report through.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-spec     # regenerate BENCHMARK.json
    python3 perfbench/run.py --describe       # per-layer metric -> e2e map

The last line of standard output is the result object. The build
goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), the
result records and span files to .../perfbench-out. Exit status: 0 when every
answer and layer check was correct, 1 otherwise, 2 on usage or a missing
source tree.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import spec  # noqa: E402

RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the benchmark; returns its path or None."""
    build_dir = os.path.join(build_root(), "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
            return None
    cmd = ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode:
        return None
    return os.path.join(build_dir, "skysr_perfbench")


def provenance(args):
    src = os.path.join(ROOT, "src")
    digest = hashlib.sha256()
    lines = 0
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith((".h", ".cc")):
                continue
            with open(os.path.join(dirpath, name), "rb") as f:
                data = f.read()
            digest.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        git_sha = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": git_sha, "src_sha256": digest.hexdigest()[:16],
            "src_lines": lines, "build_type": "Release",
            "nproc": os.cpu_count(), "cpu": cpu, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def conform(line, workload, trace):
    """Puts the program's result in BENCHMARK.json's metric order.

    The program prints only the metrics it measured. Every end-to-end metric
    must be there; a per-layer metric may be missing only on a workload
    outside its `on` list, where it reads 0. Returns (result, problem).
    """
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return None, "result keys %s" % sorted(result)
    declared = spec.PER_LAYER if trace else spec.END_TO_END
    got = result["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in declared})
    if unknown:
        return None, "metrics not in BENCHMARK.json: %s" % unknown
    metrics = {}
    for m in declared:
        value = got.get(m["name"])
        if value is None:
            if not trace or workload in m["on"]:
                return None, "metric %s was not measured" % m["name"]
            value = {"value": 0.0, "unit": m["unit"]}
        if value.get("unit") != m["unit"]:
            return None, "metric %s has unit %s, not %s" % (
                m["name"], value.get("unit"), m["unit"])
        metrics[m["name"]] = value
    result["metrics"] = metrics
    return result, None


def run_one(binary, args):
    out_dir = os.path.join(build_root(), "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    prov = provenance(args)
    print("provenance: " + json.dumps(prov, sort_keys=True), flush=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result, problem = conform(lines[-1], args.workload, args.trace)
    except (ValueError, AttributeError):
        result, problem = None, "no result line"
    for line in lines[:-1]:
        print(line)
    if problem:
        log("invalid benchmark output: " + problem)
        return 1
    print(json.dumps(result), flush=True)
    record = {"provenance": prov, "result": result}
    name = "result-%s-seed%d-trace%d.json" % (args.workload, args.seed,
                                               args.trace)
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1)
    return proc.returncode


def describe():
    print("| per-layer metric | unit | better | should move | on |")
    print("|---|---|---|---|---|")
    for m in spec.PER_LAYER:
        print("| %s | %s | %s | %s | %s |" % (
            m["name"], m["unit"], m["better"], ", ".join(m["moves"]) or "-",
            ", ".join(m["on"])))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-spec", action="store_true")
    parser.add_argument("--describe", action="store_true")
    args = parser.parse_args()

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(spec.benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if args.describe:
        describe()
        return 0
    names = [w["name"] for w in spec.WORKLOADS]
    if args.workload not in names + ["all"]:
        parser.error("--workload must be one of %s or all" % ", ".join(names))
    if not os.path.exists(os.path.join(ROOT, "src", "skysr.h")):
        log("SkySR sources not found under %s/src" % ROOT)
        return 2
    binary = build()
    if binary is None:
        log("build failed")
        return 1
    status = 0
    for name in names if args.workload == "all" else [args.workload]:
        args.workload = name
        status = max(status, run_one(binary, args))
    return status


if __name__ == "__main__":
    sys.exit(main())
