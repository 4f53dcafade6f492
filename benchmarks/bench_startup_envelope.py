"""Daemon startup envelope — set-up time and peak memory against corpus size.

Spawns ``repro serve --tasks N`` at three corpus sizes and records, for each,
the time from spawn to the first healthy ``/healthz`` and the daemon's peak
resident set (``VmHWM``) at that moment.  Everything the daemon builds at
startup — the corpus, the task pool, the diversity index — must grow at most
linearly in N, so the gate compares marginal costs per task: over the upper
segment (``SIZES[1]`` → ``SIZES[2]``) each metric may grow at most
``SLACK`` times as fast as over the lower one (``SIZES[0]`` → ``SIZES[1]``).
A quadratic term makes that ratio ``(N2 + N1) / (N1 + N0)`` = 4 at the
default sizes, and a |T|×|T| float64 matrix would need ~51 GB at 80k tasks,
so any return to a quadratic structure trips it.  A spawn whose resident
set passes ``RSS_CAP_MB`` is killed and fails the gate before it can
exhaust the host.

Time is the minimum over ``REPEATS`` spawns, memory the median.
Standalone: ``python benchmarks/bench_startup_envelope.py`` rewrites
``benchmarks/BENCH_startup.json``; ``--check`` re-runs and applies the gates
without rewriting it.  Reads ``/proc/<pid>/status``, so Linux only.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_startup.json"

SIZES = (5_000, 20_000, 80_000)
REPEATS = 3
SEED = 7
#: Upper-segment marginal cost may be at most this multiple of the lower one.
SLACK = 2.0
#: A daemon resident set above this aborts the run (a quadratic structure).
RSS_CAP_MB = 1024.0
HEALTH_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _healthy(port: int) -> bool:
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=1.0) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                b"Connection: close\r\n\r\n"
            )
            return sock.recv(16).startswith(b"HTTP/1.1 200")
    except OSError:
        return False


def _status_mb(pid: int, field: str) -> float:
    for line in pathlib.Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} missing from /proc/{pid}/status")


def spawn_once(n_tasks: int) -> dict:
    """One daemon: spawn → healthy seconds and VmHWM MiB, then SIGINT."""
    port = _free_port()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--tasks", str(n_tasks),
         "--seed", str(SEED), "--port", str(port)],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        while not _healthy(port):
            elapsed = time.perf_counter() - started
            if proc.poll() is not None:
                raise RuntimeError(
                    f"daemon at {n_tasks} tasks exited with {proc.returncode}"
                )
            rss = _status_mb(proc.pid, "VmRSS")
            if rss > RSS_CAP_MB:
                raise RuntimeError(
                    f"daemon at {n_tasks} tasks passed {RSS_CAP_MB:.0f} MiB "
                    f"resident ({rss:.0f} MiB) before it was healthy"
                )
            if elapsed > HEALTH_TIMEOUT_S:
                raise RuntimeError(
                    f"daemon at {n_tasks} tasks not healthy after "
                    f"{HEALTH_TIMEOUT_S:.0f} s"
                )
            time.sleep(0.01)
        setup_s = time.perf_counter() - started
        return {"setup_s": setup_s, "peak_rss_mb": _status_mb(proc.pid, "VmHWM")}
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def measure(sizes=SIZES, repeats: int = REPEATS) -> dict:
    points = []
    for n_tasks in sizes:
        runs = [spawn_once(n_tasks) for _ in range(repeats)]
        points.append({
            "tasks": n_tasks,
            "setup_s": round(min(r["setup_s"] for r in runs), 4),
            "peak_rss_mb": round(
                statistics.median(r["peak_rss_mb"] for r in runs), 2
            ),
        })
    record = {
        "benchmark": "startup_envelope",
        "seed": SEED,
        "repeats": repeats,
        "slack": SLACK,
        "points": points,
    }
    for metric in ("setup_s", "peak_rss_mb"):
        lower, upper = _segment_slopes(points, metric)
        record[f"{metric}_per_1k_tasks"] = [
            round(lower * 1000, 4), round(upper * 1000, 4)
        ]
        record[f"{metric}_slope_ratio"] = round(upper / lower, 3) if lower > 0 else None
    return record


def _segment_slopes(points: list[dict], metric: str) -> tuple[float, float]:
    """Marginal cost per task over the lower and the upper size segment."""
    (n0, n1, n2) = (p["tasks"] for p in points)
    (v0, v1, v2) = (p[metric] for p in points)
    return (v1 - v0) / (n1 - n0), (v2 - v1) / (n2 - n1)


def gate_failures(record: dict) -> list[str]:
    failures = []
    for metric in ("setup_s", "peak_rss_mb"):
        lower, upper = _segment_slopes(record["points"], metric)
        if upper > SLACK * max(lower, 0.0):
            failures.append(
                f"{metric} grows superlinearly: {upper * 1000:.4g} per 1k tasks "
                f"over the upper segment vs {lower * 1000:.4g} over the lower "
                f"(allowed {SLACK}x)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="apply the linearity gates without rewriting the baseline",
    )
    args = parser.parse_args(argv)
    try:
        record = measure()
    except RuntimeError as exc:
        print(f"GATE {exc}", file=sys.stderr)
        return 1
    print(json.dumps(record, indent=2))
    failures = gate_failures(record)
    for line in failures:
        print(f"GATE {line}", file=sys.stderr)
    if args.check:
        print("startup envelope check:", "FAIL" if failures else "OK")
    else:
        BASELINE_PATH.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {BASELINE_PATH}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
