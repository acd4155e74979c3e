#!/usr/bin/env python3
"""Gate the scenario-matrix entries (bench_scenarios).

Usage: check_scenarios.py BENCH.json

BENCH.json is a google-benchmark JSON export (or the merged
BENCH_router.json) holding BM_ScenarioMatrix/<class>/<kind> entries.
Checks:
  - at least one class is present, and every class that appears carries
    the complete four-kind matrix row (bound_sweep, tech_sweep,
    delta_chain, eco_slice) — a partial row is not a matrix;
  - every cell ran more than one flow (runs > 1: a campaign of one run
    has nothing to share or patch);
  - every cell records compute_avoided > 0 — the sweeps must reuse the
    shared routing artifact and the delta kinds must carry clean region
    solves over; zero means the incrementality machinery silently
    degraded to full recomputes;
  - every cell records fingerprint_match == 1: each campaign's final
    state, recomputed from scratch in a fresh session, matched the
    incremental result bit for bit (the differential contract of
    tests/delta_differential_test.cpp, re-checked on every CI run).

Exit status 0 iff every check passes.
"""

import json
import sys

KINDS = ("bound_sweep", "tech_sweep", "delta_chain", "eco_slice")


def fail(msg: str) -> None:
    print(f"check_scenarios: {msg}", file=sys.stderr)
    sys.exit(1)


def main(argv: list[str]) -> None:
    if len(argv) != 2:
        fail("usage: check_scenarios.py BENCH.json")
    path = argv[1]
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")

    matrix: dict[str, dict[str, dict]] = {}
    for entry in data.get("benchmarks", []):
        name = entry.get("name", "")
        if not name.startswith("BM_ScenarioMatrix/"):
            continue
        parts = name.split("/")
        if len(parts) < 3:
            fail(f"{path}: malformed entry name {name!r}")
        cls, kind = parts[1], parts[2]
        if kind not in KINDS:
            fail(f"{path}: unknown scenario kind in {name!r}")
        matrix.setdefault(cls, {})[kind] = entry

    if not matrix:
        fail(f"{path}: no BM_ScenarioMatrix entries")

    for cls in sorted(matrix):
        row = matrix[cls]
        missing = [k for k in KINDS if k not in row]
        if missing:
            fail(f"{path}: {cls}: matrix row incomplete, missing "
                 f"{', '.join(missing)}")

        for kind in KINDS:
            cell = row[kind]
            runs = cell.get("runs")
            if not isinstance(runs, (int, float)) or runs <= 1:
                fail(f"{path}: {cls}/{kind}: runs = {runs!r} (want > 1)")
            avoided = cell.get("compute_avoided")
            if not isinstance(avoided, (int, float)) or avoided <= 0:
                fail(f"{path}: {cls}/{kind}: compute_avoided = {avoided!r} "
                     "— the campaign recomputed everything; incrementality "
                     "is silently broken")
            if cell.get("fingerprint_match") != 1.0:
                fail(f"{path}: {cls}/{kind}: fingerprint_match != 1 — the "
                     "incremental end state diverged from the from-scratch "
                     "recompute")

        summary = " ".join(
            f"{k}:avoided={row[k].get('compute_avoided'):.0f}" for k in KINDS)
        print(f"check_scenarios: {cls}: {summary} — OK")

    print(f"check_scenarios: {path}: {len(matrix)} class(es) x "
          f"{len(KINDS)} kinds — OK")


if __name__ == "__main__":
    main(sys.argv)
