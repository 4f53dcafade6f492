#!/usr/bin/env python3
"""The serving benchmark: open-loop crowd traffic against a spawned daemon.

    python3 perfbench/run.py --workload steady-gre --seed 1 --seconds 35 --trace 0

Run from the repository root.  Each run spawns ``python -m repro serve``
(``--trace 1``: also the span-recording launcher in ``launcher.py``),
drives it over HTTP from this single-threaded asyncio process with at most
``nproc`` keep-alive connections, checks the serving contract and prints
every metric ``BENCHMARK.json`` declares, with its unit and direction.  The
first stdout line is a JSON report (gates, percentile sample counts, run
metadata); the last is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  A failed correctness gate makes the
run invalid: it prints ``"correct": false`` and exits 1.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: Spawns per untraced run; ``setup_s`` is their median.
SETUP_SPAWNS = 3
#: Longest share of ``--seconds`` spent in the closed-loop saturation phase.
SATURATION_SHARE = 0.15
#: The saturation phase stops after this many completions even when time
#: is left, so a faster daemon cannot drain the pool below the cap shape.
SATURATION_COMPLETIONS = 300
#: Worker plans for saturation: enough for ``SATURATION_COMPLETIONS``.
SATURATION_PLANS = 64
#: ``POST /tasks`` sent one at a time after saturation: the ingest path
#: (admission and diversity-cache appends) measured after the traffic.  The
#: gap spreads the probe over about five seconds.  The declared figure is
#: the median: a post takes about 2 ms, so the host's own hiccups of a
#: millisecond or more decide a high percentile (the p90 is reported
#: unbounded).  800 posts of ``POST_BATCH`` tasks admit about as many tasks
#: as the traffic leaves in the pool, so the cache's growth during the
#: probe stays below the corpus it was built from.
INGEST_PROBE_POSTS = 800
INGEST_PROBE_GAP_S = 0.004


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata(workload, seed: int) -> dict:
    import numpy

    from workloads import DAEMON_SEED

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "event_loop": "asyncio (stdlib; daemon --uvloop off)",
        "git_sha": _git_sha(),
        "workload": workload.name,
        "workload_seed": seed,
        "daemon_seed": DAEMON_SEED,
    }


class Phases:
    """How one run splits ``--seconds`` between its two phases."""

    def __init__(self, workload, seconds: float):
        from workloads import SESSION_S

        self.saturation_s = max(1.0, SATURATION_SHARE * seconds)
        self.open_s = max(1.0, seconds - self.saturation_s)
        # Arrivals stop one mean session length early so most sessions end
        # in time; the rest are cut at ``open_s``.
        self.arrival_window_s = max(1.0, self.open_s - SESSION_S)
        self.n_workers = max(1, round(workload.arrival_rate * self.arrival_window_s))


async def drive(workload, seed: int, port: int, seconds: float, vocabulary) -> dict:
    """Both phases and the ingest probe against a healthy daemon."""
    from driver import Driver, PhaseResult
    from schedule import task_posts, worker_plans
    from workloads import (
        COMPLETIONS, POST_BATCH, RANDOM_PAD, SATURATION_WORKERS, TIME_COMPRESSION,
    )

    phases = Phases(workload, seconds)
    plans = worker_plans(
        seed, vocabulary, phases.n_workers, phases.arrival_window_s,
        COMPLETIONS, TIME_COMPRESSION,
    )
    saturation_plans = worker_plans(
        seed + 1_000_003, vocabulary, SATURATION_PLANS, 1.0, COMPLETIONS,
        TIME_COMPRESSION, prefix="s",
    )
    driver = Driver(port, os.cpu_count() or 1, RANDOM_PAD)
    try:
        open_loop = await driver.open_loop(plans, phases.open_s)
        saturation = await driver.saturate(
            saturation_plans, SATURATION_WORKERS, phases.saturation_s,
            SATURATION_COMPLETIONS,
        )
        # Read before the probe, whose admissions refill the pool: every
        # solve of both phases ran at the cap shape only if this holds.
        remaining = await driver.remaining_tasks()
        probe = PhaseResult()
        await driver.post_tasks(
            probe,
            task_posts(seed, vocabulary, INGEST_PROBE_POSTS, POST_BATCH),
            INGEST_PROBE_GAP_S,
        )
    finally:
        await driver.close()
    return {
        "driver": driver,
        "open_loop": open_loop,
        "saturation": saturation,
        "probe": probe,
        "remaining_before_probe": remaining,
        "max_connections": driver.pool.max_in_use,
    }


def serve_once(
    workload,
    seed: int,
    seconds: float,
    workdir: Path,
    launcher: bool = False,
    spawns: int = SETUP_SPAWNS,
) -> dict:
    """Spawn ``spawns`` times (set-up samples; once with the launcher),
    drive the last daemon, read its state and stop it."""
    from daemon import Daemon, http_get

    state = workdir / "state"
    spans = workdir / "spans.json"
    setups = []
    if launcher:
        spawns = 1
    for attempt in range(spawns):
        shutil.rmtree(state, ignore_errors=True)
        state.mkdir(parents=True)
        argv = (
            [str(HERE / "launcher.py"), str(spans)] if launcher else ["-m", "repro"]
        ) + workload.serve_args(str(state))
        daemon = Daemon(ROOT, argv, workdir / "daemon.log")
        try:
            setups.append(daemon.start())
            if attempt < spawns - 1:
                continue
            _, body = http_get(daemon.port, "/vocabulary")
            vocabulary = json.loads(body)["keywords"]
            raw = asyncio.run(drive(workload, seed, daemon.port, seconds, vocabulary))
            raw["vocabulary"] = vocabulary
            raw["healthz"] = daemon.healthz()
            raw["metrics"] = daemon.metrics()
            raw["peak_rss_mb"] = daemon.peak_rss_mb()
        finally:
            daemon.stop()
    raw["setups"] = setups
    if launcher:
        raw["spans"] = json.loads(spans.read_text())
    return raw


def gates(raw: dict) -> dict[str, bool]:
    from workloads import CANDIDATE_CAP

    driver = raw["driver"]
    metrics = raw["metrics"]
    return {
        "no_duplicate_display": driver.duplicates == 0,
        "no_disjointness_violation": metrics.get(
            "serve_disjointness_violations_total", 0.0
        ) == 0.0,
        "no_degradation": metrics.get("serve_degradations_total", 0.0) == 0.0,
        "no_deadline_exceeded": driver.deadline_exceeded == 0
        and metrics.get("serve_deadline_exceeded_total", 0.0) == 0.0,
        "cap_shape_held": raw["remaining_before_probe"] >= CANDIDATE_CAP,
        "connections_within_nproc": raw["max_connections"] <= (os.cpu_count() or 1),
    }


def end_to_end(raw: dict) -> tuple[dict, dict]:
    """``(metric values, percentile sample descriptions)``."""
    from driver import ASSIGN_LIMIT_S, PLAIN_LIMIT_S
    from stats import MotivationMeter, percentile

    open_loop, saturation = raw["open_loop"], raw["saturation"]

    def ok_ms(samples):
        return [s.latency * 1000.0 for s in samples if s.ok]

    posts = raw["probe"].of("tasks")
    named = {
        "assign_p50_ms": (ok_ms(open_loop.of("assign")), 0.50),
        "assign_p90_ms": (ok_ms(open_loop.of("assign")), 0.90),
        "plain_p50_ms": (ok_ms(open_loop.of("plain")), 0.50),
        "plain_p99_ms": (ok_ms(open_loop.of("plain")), 0.99),
        "post_tasks_p50_ms": (ok_ms(posts), 0.50),
        "post_tasks_p90_ms": (ok_ms(posts), 0.90),
    }
    values, samples = {}, {}
    for name, (data, q) in named.items():
        result = percentile(data, q)
        values[name] = result.value
        samples[name] = result.describe()
    completes = open_loop.of("assign", "plain")
    within = sum(
        1 for s in completes
        if s.ok and s.latency <= (ASSIGN_LIMIT_S if s.kind == "assign" else PLAIN_LIMIT_S)
    )
    meter = MotivationMeter(raw["vocabulary"])
    motivations = [
        meter.score(plan.keywords, plan.profile.weights, sets)
        for plan, sets in open_loop.assigned_sets + saturation.assigned_sets
    ]
    values.update(
        setup_s=statistics.median(raw["setups"]),
        peak_rss_mb=raw["peak_rss_mb"],
        within_limit_share=within / len(completes),
        capacity_cps=saturation.completions / saturation.duration,
        motivation_per_display=statistics.fmean(motivations),
    )
    # Plain latency is timed from the due time, so it includes any wait for
    # the worker's previous answer; that inherited part is shown apart.
    plain = [s for s in open_loop.of("plain") if s.ok]
    samples["plain_inherited"] = {
        "n": sum(1 for s in plain if s.inherited > 0.0),
        "max_ms": 1000.0 * max((s.inherited for s in plain), default=0.0),
        "p99_ms_without": percentile(
            [(s.latency - s.inherited) * 1000.0 for s in plain], 0.99
        ).value,
    }
    samples["open_loop_truncated"] = open_loop.truncated
    samples["remaining_before_probe"] = raw["remaining_before_probe"]
    samples["motivation_per_display"] = {"n": len(motivations)}
    samples["within_limit_share"] = {"n": len(completes)}
    samples["setup_s"] = {"n": len(raw["setups"]), "each": raw["setups"]}
    return values, samples


def counts(raw: dict) -> tuple[int, int]:
    """``(attempted, failed)`` requests over every phase of one pass."""
    phases = [raw["open_loop"], raw["saturation"], raw["probe"]]
    samples = [s for phase in phases for s in phase.samples]
    return len(samples), sum(1 for s in samples if not s.ok)


def untraced_report(workload, seed: int, seconds: float, workdir: Path) -> dict:
    raw = serve_once(workload, seed, seconds, workdir)
    values, samples = end_to_end(raw)
    attempted, failed = counts(raw)
    return {
        "gates": gates(raw),
        "attempted": attempted,
        "failed": failed,
        "errors": raw["driver"].errors[:5],
        "samples": samples,
        "values": values,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return _fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = contract["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workdir = ROOT / ".perfbench_run" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            from layers import traced_report

            report = traced_report(workload, args.seed, args.seconds, workdir)
        else:
            report = untraced_report(workload, args.seed, args.seconds, workdir)
    except Exception as exc:  # the run is invalid; say why and fail
        print(f"perfbench: run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    values = report.pop("values")
    # Measured but not declared in BENCHMARK.json: no regression bound.
    report["unbounded"] = {
        name: value for name, value in values.items()
        if name not in {m["name"] for m in declared}
    }
    report["failed_share"] = report["failed"] / report["attempted"]
    report["metadata"] = metadata(workload, args.seed)
    print(json.dumps({"report": report}, sort_keys=True))
    for metric in declared:
        print(
            f"{metric['name']:>28} {values[metric['name']]:>14.4f} "
            f"{metric['unit']:<6} {metric['better']} is better"
        )
    result = {
        "correct": all(report["gates"].values()),
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
