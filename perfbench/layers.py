"""The traced run: per-layer metrics from spans, counters and the driver.

One ``--trace 1`` run makes two passes over the same seeded traffic: the
stock daemon (tracing off) and the span-recording launcher.  Per-layer
numbers come from the traced pass; ``trace.overhead_share`` compares the
median send-to-answer time of plain completions in the two passes (plain
requests carry no solve, whose run-to-run variation would swamp the few
microseconds of span bookkeeping).

Along the blocking path of an assign request the layer spans are the
request's children (protocol decode, service observe, scheduler wait,
protocol encode, journal) plus the one batch that served its worker
(service prepare, solver, service commit and the batch's own time).  Every
assign request must have exactly one such batch, and their durations must
add up to the request's duration: the residual is the part of the request
no layer span covers (the app's own time between layers) plus any time two
layer spans count twice, as a share of the request.  Its median over
assign requests must stay within ``PATH_TOLERANCE``, or the traced run is
invalid: the layers would not account for the request.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from pathlib import Path

#: Largest accepted median share of an assign request that the blocking
#: path's layer spans leave unaccounted or count twice.
PATH_TOLERANCE = 0.05

#: Requests the driver sends (the harness's own probes are left out).
_WORKLOAD_PATHS = ("/workers", "/complete", "/tasks")


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _mean_per(spans: list[dict], per: int, scale: float) -> float:
    """Total span time per ``per`` calls, in units of ``1/scale`` s
    (0 when the layer never ran)."""
    return scale * sum(_duration(s) for s in spans) / per if per else 0.0


def path_accounting(spans: list[dict]) -> tuple[list[float], int]:
    """``(residual share per assign request, assign requests without
    exactly one batch)``.

    The residual is ``|request - covered| + (sum of durations - covered)``
    over the request's duration, where ``covered`` is the union of the path
    spans: what they leave out plus what they count twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span)
    batches = [s for s in spans if s["name"] == "batch"]
    residuals, unmatched = [], 0
    for request in spans:
        if request["name"] != "app.request" or not request.get("assign"):
            continue
        path = list(children[request["id"]])
        waits = [s for s in path if s["name"] == "scheduler.wait"]
        served = [
            b for wait in waits for b in batches
            if wait["worker"] in b["workers"] and b["start"] == wait["end"]
        ]
        if len(waits) != 1 or len(served) != 1:
            unmatched += 1
            continue
        path += served
        duration = _duration(request)
        covered = _covered([(s["start"], s["end"]) for s in path])
        twice = sum(_duration(s) for s in path) - covered
        residuals.append((abs(duration - covered) + twice) / duration)
    return residuals, unmatched


def per_layer(traced: dict, untraced: dict) -> tuple[dict, dict]:
    """``(metric values, sample descriptions)`` from the two passes."""
    from stats import percentile

    spans = [s for s in traced["spans"] if s["end"] is not None]
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    solves = len(by_name["solver.solve"])
    batches = by_name["batch"]
    commits = by_name["service.commit"]
    prepares = [s for s in by_name["service.prepare"] if s["candidates"]]
    reassigned = sum(s["reassigned"] * s["x_max"] for s in commits)
    requests = [s for s in by_name["app.request"] if s["path"].startswith(_WORKLOAD_PATHS)]
    client = [
        s.service
        for phase in ("open_loop", "saturation", "probe")
        for s in traced[phase].samples
        if s.ok
    ]
    build = by_name["diversity.build"]
    healthz_cache = traced["healthz"]["cache"]

    def mean_request_s(raw: dict) -> float:
        metrics = raw["metrics"]
        return metrics["serve_request_seconds_sum"] / metrics["serve_request_seconds_count"]

    def plain_service_s(raw: dict) -> float:
        return statistics.median(s.service for s in raw["open_loop"].of("plain") if s.ok)

    lateness = percentile(
        [s.lateness * 1000.0 for s in untraced["open_loop"].samples], 0.99
    )
    conn_wait = percentile(
        [s.conn_wait * 1000.0 for s in untraced["open_loop"].samples], 0.99
    )
    residuals, unmatched = path_accounting(spans)
    counters = [traced["metrics"], untraced["metrics"]]
    values = {
        "solver.solve_ms": _mean_per(by_name["solver.solve"], solves, 1e3),
        "solver.encode_ms": _mean_per(by_name["solver.encode"], solves, 1e3),
        "solver.matching_ms": _mean_per(by_name["solver.matching"], solves, 1e3),
        "solver.profits_ms": _mean_per(by_name["solver.profits"], solves, 1e3),
        "solver.lsap_ms": _mean_per(by_name["solver.lsap"], solves, 1e3),
        "solver.decode_ms": _mean_per(by_name["solver.decode"], solves, 1e3),
        "solver.candidates": (
            statistics.fmean(s["candidates"] for s in prepares) if prepares else 0.0
        ),
        "scheduler.wait_ms": _mean_per(
            by_name["scheduler.wait"], len(by_name["scheduler.wait"]), 1e3
        ),
        "scheduler.batch_workers": (
            statistics.fmean(len(b["workers"]) for b in batches) if batches else 0.0
        ),
        "service.prepare_ms": _mean_per(
            by_name["service.prepare"], len(by_name["service.prepare"]), 1e3
        ),
        "service.commit_ms": _mean_per(commits, len(commits), 1e3),
        "service.observe_us": _mean_per(
            by_name["service.observe"], len(by_name["service.observe"]), 1e6
        ),
        "service.admit_ms": _mean_per(
            by_name["service.admit"], len(by_name["service.admit"]), 1e3
        ),
        "service.fill_ratio": (
            sum(s["solver_tasks"] for s in commits) / reassigned if reassigned else 0.0
        ),
        "diversity.build_s": _mean_per(build, len(build), 1.0),
        "diversity.carve_ms": _mean_per(
            by_name["diversity.carve"], len(by_name["diversity.carve"]), 1e3
        ),
        "diversity.append_ms": _mean_per(
            by_name["diversity.append"], len(by_name["diversity.append"]), 1e3
        ),
        "diversity.resident_mb": healthz_cache["allocated_rows"] ** 2 * 8 / 2**20,
        "app.request_ms": mean_request_s(traced) * 1e3,
        "app.client_gap_ms": 1e3 * (
            statistics.fmean(client) - statistics.fmean(_duration(s) for s in requests)
        ),
        "app.snapshot_ms": _mean_per(
            by_name["app.snapshot"], len(by_name["app.snapshot"]), 1e3
        ),
        "app.journal_us": _mean_per(
            by_name["app.journal"], len(by_name["app.journal"]), 1e6
        ),
        "protocol.decode_us": _mean_per(
            by_name["protocol.decode"], len(by_name["protocol.decode"]), 1e6
        ),
        "protocol.encode_us": _mean_per(
            by_name["protocol.encode"], len(by_name["protocol.encode"]), 1e6
        ),
        "resilience.degradations": sum(
            c.get("serve_degradations_total", 0.0) for c in counters
        ),
        "resilience.deadline_misses": sum(
            c.get("serve_deadline_exceeded_total", 0.0) for c in counters
        ),
        "driver.lateness_p99_ms": lateness.value,
        "driver.conn_wait_p99_ms": conn_wait.value,
        "trace.overhead_share": plain_service_s(traced) / plain_service_s(untraced) - 1.0,
        "trace.path_residual_share": statistics.median(residuals) if residuals else 0.0,
    }
    samples = {
        "driver.lateness_p99_ms": lateness.describe(),
        "driver.conn_wait_p99_ms": conn_wait.describe(),
        "trace.path_residual_share": {"n": len(residuals), "unmatched": unmatched},
        "spans": len(spans),
        "solves": solves,
        "batches": len(batches),
    }
    return values, samples


def traced_report(workload, seed: int, seconds: float, workdir: Path) -> dict:
    from run import counts, gates, serve_once

    untraced = serve_once(workload, seed, seconds, workdir, spawns=1)
    traced = serve_once(workload, seed, seconds, workdir, launcher=True)
    values, samples = per_layer(traced, untraced)
    checks = {
        f"{label}.{name}": ok
        for label, raw in (("untraced", untraced), ("traced", traced))
        for name, ok in gates(raw).items()
    }
    checks["trace_path_within_tolerance"] = (
        samples["trace.path_residual_share"]["n"] > 0
        and samples["trace.path_residual_share"]["unmatched"] == 0
        and values["trace.path_residual_share"] <= PATH_TOLERANCE
    )
    attempted, failed = (sum(pair) for pair in zip(counts(untraced), counts(traced)))
    return {
        "gates": checks,
        "attempted": attempted,
        "failed": failed,
        "errors": (untraced["driver"].errors + traced["driver"].errors)[:5],
        "samples": samples,
        "path_tolerance": PATH_TOLERANCE,
        "values": values,
    }
