#!/usr/bin/env python3
"""Repository benchmark: builds the rlcr library and the perfbench binary
from this checkout's sources, runs one workload, and relays its result.

    python3 perfbench/run.py --workload gsino_cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest

Build output and scratch files go under $CARGO_TARGET_DIR (default
.bench_build) at the checkout root. Progress goes to stderr; the last line
of stdout is the JSON result {"correct", "attempted", "failed", "metrics"}.
--selftest runs every workload at a tiny scale, checks that every metric
BENCHMARK.json names is printed with its unit, and checks that a wrong
expected fingerprint is counted as a failed operation.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gsino_cold", "eco_delta", "whatif_service")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build():
    """Configures once, builds incrementally, returns the binary's path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "core" / "session.h"
    ).is_file():
        log(f"no library sources at {ROOT} (need CMakeLists.txt and src/)")
        sys.exit(2)
    out = build_root() / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            log("build failed")
            sys.exit(1)
    return out / "perfbench"


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns the parsed result line, or None."""
    work = build_root() / "work"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           # Relative: the service socket path must fit sockaddr_un.
           "--work-dir", os.path.relpath(work, ROOT),
           "--trace-file", str(work / f"trace-{workload}-{seed}.json"),
           *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} timed out after {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"{workload} exited with {proc.returncode}")
        return None
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        log(f"{workload} printed unexpected keys {sorted(result)}")
        return None
    return result


def selftest(binary):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            r = run_binary(binary, workload, 1, 1, trace, ["--tiny"])
            got = {} if r is None else {
                k: v["unit"] for k, v in r["metrics"].items()}
            good = (r is not None and r["correct"] and r["failed"] == 0
                    and r["attempted"] > 0 and got == want[trace])
            log(f"selftest {workload} trace={trace}: "
                f"{'ok' if good else 'FAILED'}")
            ok = ok and good
    # A wrong expected fingerprint must turn every cold op into a failure.
    r = run_binary(binary, "gsino_cold", 1, 1, 0,
                   ["--tiny", "--expect-route", "1", "--expect-state", "1"])
    good = (r is not None and not r["correct"]
            and r["failed"] == r["attempted"] > 0)
    log(f"selftest wrong fingerprint counted as failure: "
        f"{'ok' if good else 'FAILED'}")
    return ok and good


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    binary = build()
    if args.selftest:
        return 0 if selftest(binary) else 1
    result = run_binary(binary, args.workload, args.seed, args.seconds,
                        args.trace)
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
