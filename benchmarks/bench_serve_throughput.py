"""Serving-path performance: daemon throughput.

An in-process daemon on an ephemeral port, driven by the closed-loop load
generator over real sockets; reports requests/sec, request latency
quantiles, and the daemon's solve-batch latency histogram.  Emits one JSON
perf record (also written to ``benchmarks/serve_perf.json`` when run
standalone: ``python benchmarks/bench_serve_throughput.py``).
"""

from __future__ import annotations

import asyncio
import json
import pathlib

from repro.serve.loadgen import LoadgenConfig, run_self_contained

PERF_PATH = pathlib.Path(__file__).parent / "serve_perf.json"

THROUGHPUT_WORKERS = 50
THROUGHPUT_COMPLETIONS = 12
THROUGHPUT_TASKS = 4000


def measure_throughput() -> dict:
    """Drive the daemon with the load generator; return the perf record."""
    result, metrics = asyncio.run(
        run_self_contained(
            LoadgenConfig(
                n_workers=THROUGHPUT_WORKERS,
                completions_per_worker=THROUGHPUT_COMPLETIONS,
                seed=7,
            ),
            n_tasks=THROUGHPUT_TASKS,
        )
    )
    solve = metrics["serve_solve_seconds"]
    record = {
        "benchmark": "serve_throughput",
        "workers": THROUGHPUT_WORKERS,
        "completions": result.completions,
        "requests": result.requests,
        "requests_per_second": round(result.requests_per_second, 2),
        "request_p50_seconds": result.latency["p50"],
        "request_p95_seconds": result.latency["p95"],
        "solve_batches": metrics["serve_solves_total"],
        "solve_p50_seconds": solve["p50"],
        "solve_p95_seconds": solve["p95"],
        "solve_p99_seconds": solve["p99"],
        "mean_batch_size": metrics["serve_solve_batch_size"]["mean"],
        "disjointness_violations": metrics["serve_disjointness_violations_total"],
        "clean": result.clean,
    }
    return record


def test_serve_throughput(report):
    record = measure_throughput()
    report("serve throughput:\n" + json.dumps(record, indent=2))
    assert record["clean"]
    assert record["disjointness_violations"] == 0
    assert record["solve_batches"] > 0
    assert record["requests_per_second"] > 0


def main() -> int:
    record = measure_throughput()
    payload = json.dumps(record, indent=2)
    print(payload)
    PERF_PATH.write_text(payload + "\n")
    print(f"wrote {PERF_PATH}")
    return 0 if record["clean"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
