#!/usr/bin/env python3
"""Gate: the default thread count must not make Phase I slower than serial.

Usage: check_thread_ratio.py --serial M.json ... --default M.json ...

Each M.json is a `route_cli --metrics-out` registry from one run. The gate
takes the best (minimum) `router.runtime_s` of each arm, which damps
scheduler noise on shared runners, and fails when default / serial > MAX_RATIO.
"""

import argparse
import json
import sys

MAX_RATIO = 1.2


def best_route_s(paths):
    times = []
    for path in paths:
        with open(path) as f:
            metrics = json.load(f)["metrics"]
        times.append(float(metrics["router.runtime_s"]["value"]))
    return min(times)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--serial", nargs="+", required=True)
    ap.add_argument("--default", nargs="+", required=True)
    args = ap.parse_args(argv)
    serial = best_route_s(args.serial)
    default = best_route_s(args.default)
    ratio = default / serial if serial > 0 else float("inf")
    print(f"check_thread_ratio: Phase I route {serial:.3f} s serial, "
          f"{default:.3f} s default threads, ratio {ratio:.2f} "
          f"(max {MAX_RATIO:.2f})")
    if ratio > MAX_RATIO:
        print("check_thread_ratio: the default thread count routes Phase I "
              "slower than the serial path allows", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
