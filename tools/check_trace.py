#!/usr/bin/env python3
"""Validate observability exports from `route_cli` (docs/OBSERVABILITY.md).

Usage: check_trace.py TRACE.json [METRICS.json]

TRACE.json is a Chrome trace-event file written by
`obs::TraceSession::write_chrome_trace` (via `route_cli --trace-out`).
Checks:
  - well-formed JSON with a non-empty `traceEvents` array;
  - at least one "M" (metadata) event naming the process/threads;
  - every "X" (complete-span) event carries name/cat/pid/tid and
    non-negative ts/dur, with ts non-decreasing across the file (the
    writer sorts spans by start time);
  - the staged-session span taxonomy is present: one span per session
    stage plus the ID-router phase spans and the Phase II solver span.

METRICS.json (optional) is a MetricsSnapshot export (`--metrics-out`).
Checks the shape ({"metrics":{name:{kind,value}}}) and pins the stable
key set: every session.*/router.*/refine.* adapter name plus the five
resource.* sampler gauges. Adding a stats field without teaching the
adapter already fails the build (sizeof static_asserts in
src/obs/metrics.cpp); this check is the reverse direction — renaming or
dropping an exported key breaks external consumers, so it fails here.

Exit status 0 iff every check passes; failures list what was missing.
"""

import json
import sys

# One span per staged-session stage, the ID-router's internal phases,
# and the Phase II batch solver. maze.net / store.* spans are
# workload-dependent (reroutes, attached store) and are deliberately not
# required.
REQUIRED_SPANS = [
    "session.route",
    "session.budget",
    "session.solve_regions",
    "session.refine",
    "router.build",
    "router.deletion",
    "router.collect",
    "sino.solve",
    "refine.pass1",
]

REQUIRED_METRICS = [
    # session.* — StageCounters (16)
    "session.route_requests", "session.route_executed",
    "session.route_loaded", "session.budget_requests",
    "session.budget_executed", "session.budget_loaded",
    "session.solve_requests", "session.solve_executed",
    "session.solve_loaded", "session.refine_requests",
    "session.refine_executed", "session.refine_loaded",
    "session.delta_applies", "session.delta_nets_rerouted",
    "session.delta_regions_solved", "session.delta_regions_reused",
    # router.* — RoutingStats (7 exported)
    "router.edges_initial", "router.edges_deleted", "router.edges_locked",
    "router.reinserts", "router.prerouted_nets", "router.rsmt_fallback_nets",
    "router.runtime_s",
    # refine.* — RefineStats (6)
    "refine.pass1_nets_fixed", "refine.pass1_resolves",
    "refine.pass1_gave_up", "refine.pass2_shields_removed",
    "refine.pass2_accepted", "refine.pass2_rejected",
    # resource.* — ResourceSampler gauges (5)
    "resource.samples", "resource.rss_peak_kb", "resource.rss_last_kb",
    "resource.store_peak_bytes", "resource.pool_peak_threads",
]

# store.* keys appear only when an artifact store is attached to the
# session; when any of them is present, all of them must be.
STORE_METRICS = [
    "store.hits", "store.misses", "store.stores", "store.evictions",
    "store.rejected", "store.put_failures", "store.lock_waits",
    "store.bytes_written", "store.bytes_read",
]


def fail(msg: str) -> None:
    print(f"check_trace: {msg}", file=sys.stderr)
    sys.exit(1)


def load(path: str) -> dict:
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: {e}")
    if not isinstance(data, dict):
        fail(f"{path}: top level is not a JSON object")
    return data


def check_trace(path: str) -> None:
    data = load(path)
    events = data.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: missing or empty traceEvents")

    spans = [e for e in events if e.get("ph") == "X"]
    meta = [e for e in events if e.get("ph") == "M"]
    if not meta:
        fail(f"{path}: no 'M' metadata events (process/thread names)")
    if not spans:
        fail(f"{path}: no 'X' complete-span events")

    last_ts = None
    for i, e in enumerate(spans):
        for key in ("name", "cat", "pid", "tid", "ts", "dur"):
            if key not in e:
                fail(f"{path}: span #{i} is missing '{key}': {e}")
        if e["ts"] < 0 or e["dur"] < 0:
            fail(f"{path}: span #{i} has negative ts/dur: {e}")
        if last_ts is not None and e["ts"] < last_ts:
            fail(f"{path}: span #{i} breaks the sorted-by-start order")
        last_ts = e["ts"]

    names = {e["name"] for e in spans}
    missing = [n for n in REQUIRED_SPANS if n not in names]
    if missing:
        fail(f"{path}: required spans absent: {', '.join(missing)}")
    print(
        f"check_trace: {path}: {len(spans)} spans across "
        f"{len({e['tid'] for e in spans})} thread(s), "
        f"{len(names)} distinct names — OK"
    )


def check_metrics(path: str) -> None:
    data = load(path)
    metrics = data.get("metrics")
    if not isinstance(metrics, dict) or not metrics:
        fail(f"{path}: missing or empty 'metrics' object")

    for name, entry in metrics.items():
        if not isinstance(entry, dict):
            fail(f"{path}: '{name}' is not an object")
        if entry.get("kind") not in ("counter", "gauge"):
            fail(f"{path}: '{name}' has bad kind: {entry.get('kind')!r}")
        if not isinstance(entry.get("value"), (int, float)):
            fail(f"{path}: '{name}' has non-numeric value")

    missing = [n for n in REQUIRED_METRICS if n not in metrics]
    if missing:
        fail(f"{path}: required metrics absent: {', '.join(missing)}")
    if any(n in metrics for n in STORE_METRICS):
        missing = [n for n in STORE_METRICS if n not in metrics]
        if missing:
            fail(f"{path}: partial store.* key set; absent: "
                 f"{', '.join(missing)}")
    print(f"check_trace: {path}: {len(metrics)} metrics — OK")


def main(argv: list[str]) -> None:
    if len(argv) < 2 or len(argv) > 3:
        fail("usage: check_trace.py TRACE.json [METRICS.json]")
    check_trace(argv[1])
    if len(argv) == 3:
        check_metrics(argv[2])


if __name__ == "__main__":
    main(sys.argv)
