"""One benchmark run inside a fresh interpreter; started by ``run.py``.

``--mode setup`` stops once the first request is ready and reports the
set-up time.  ``--mode run`` then drives the closed loop: one client,
the next request sent only after the previous one returned, for
``--seconds`` of loop time or exactly ``--requests`` requests.  Each
request's answers are checked right after it returns, outside the timed
window and the loop's time budget.  The run ends with one JSON line.
With ``--trace`` the layer wrappers record spans and the line carries
the per-layer figures.

The host's speed drifts by tens of percent within seconds when other
tenants load it, so the loop also times a fixed calibration kernel
after every ``SEGMENT_S`` of request time, and set-up is followed by
``SETUP_CALIBRATIONS`` passes.  The reported set-up time, throughput
and latencies are scaled to the speed at which a calibration pass takes
``REFERENCE_CALIBRATION_S``; the wall-clock figures are reported beside
them (``setup_wall_s``, ``wall``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

#: Request time between two calibration passes.
SEGMENT_S = 0.1
#: Kernel calls in one calibration pass (about 4 ms).
CALIBRATION_CALLS = 5
#: Pass time that reported figures are scaled to.  On a 2-vCPU VM on a
#: 2.1 GHz Intel Xeon with CPython 3.11, passes take 4.2-4.5 ms at the median.
REFERENCE_CALIBRATION_S = 0.004
#: Calibration passes right after set-up; their median scales ``setup_s``.
SETUP_CALIBRATIONS = 3


def _calibration_kernel() -> int:
    """Fixed interpreter work that touches no library code."""
    table: dict[int, int] = {}
    for i in range(1500):
        key = (i * 7919) % 977
        table[key] = table.get(key, 0) + i
    sets = [frozenset(range(k, k + 8)) for k in range(0, 400, 4)]
    overlap = sum(len(a & b) for a, b in zip(sets, sets[1:]))
    return len(sorted(table.items())) + overlap


def _calibrate() -> float:
    """Seconds one calibration pass takes on the host right now.

    The kernel makes no reference cycles, so the collector is paused
    for the pass and the library's heap size does not enter it.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(CALIBRATION_CALLS):
            _calibration_kernel()
        return time.perf_counter() - start
    finally:
        gc.enable()


def _scaled(
    latencies: list[float], segment_of: list[int], calibrations: list[float]
) -> list[float]:
    """Request times at the reference host speed.

    Segment ``k`` runs between calibration passes ``k`` and ``k + 1``;
    its host speed is the median of the four passes around it, so one
    disturbed pass does not move it.
    """
    speeds = [
        REFERENCE_CALIBRATION_S / statistics.median(calibrations[max(0, k - 1) : k + 3])
        for k in range(len(calibrations) - 1)
    ]
    return [elapsed * speeds[segment] for elapsed, segment in zip(latencies, segment_of)]


def _summary(latencies: list[float], asks: list[int], window: int) -> dict:
    """Median window rate and latency percentiles of one list of request times."""
    rates = [
        sum(asks[start : start + window]) / sum(latencies[start : start + window])
        for start in range(0, len(latencies) - window + 1, window)
    ]
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else latencies * 9
    return {
        "jobs_per_s": statistics.median(rates) if rates else sum(asks) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": deciles[8],
    }


def _layer_metrics(
    tracer, work: dict, requests: int, request_s: float, modes: dict, trips: int
) -> dict:
    """Per-request layer figures; ``work`` holds the STATS deltas of the timed calls."""
    from tracer import GROUPS, REQUEST

    rows = tracer.self_times()

    def total(prefix: str, field: str, entry: str = "") -> float:
        return sum(
            row[field]
            for name, row in rows.items()
            if name.split("/")[0].startswith(prefix) and name.split("/")[-1].startswith(entry)
        )

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    per = 1.0 / requests
    compile_hits = work["compile_cache_hits"]
    rechecks = sum(modes.values())
    metrics = {
        "core.run.calls": total("core.run", "calls") * per,
        "core.run.self_s": total("core.run", "self_s") * per,
        "core.unfold.self_s": total("core.unfold", "self_s") * per,
        "core.unfold.disjuncts": tracer.disjuncts * per,
        "logic.query.calls": total("logic.query", "calls") * per,
        "logic.query.self_s": total("logic.query", "self_s") * per,
        "logic.sat.calls": total("logic.sat", "calls") * per,
        "logic.sat.self_s": total("logic.sat", "self_s") * per,
        "automata.translate_s": total("automata.translate", "total_s") * per,
        "automata.search_s": total("automata.search", "total_s") * per,
        "automata.vectors_explored": work["vectors_explored"] * per,
        "automata.compile_cache_hit_ratio": ratio(
            compile_hits, compile_hits + work["compile_cache_misses"]
        ),
        "analysis.calls": total("analysis", "calls") * per,
        "analysis.self_s": total("analysis", "self_s") * per,
        "mediator.calls": total("mediator", "calls") * per,
        "mediator.self_s": total("mediator", "self_s") * per,
        "mediator.candidates": work["mediator_candidates"] * per,
        "guard.trips": trips * per,
        "serve.fingerprint.calls": total("serve.fingerprint", "calls") * per,
        "serve.fingerprint.self_s": total("serve.fingerprint", "self_s") * per,
        "serve.cache.hit_ratio": ratio(tracer.handle_hits, tracer.handles),
        "serve.cache.get_s": total("serve.cache", "total_s", "get") * per,
        "serve.store.reads": total("serve.store", "calls", "get") * per,
        "serve.store.writes": total("serve.store", "calls", "put") * per,
        "serve.store.self_s": total("serve.store", "self_s") * per,
        "serve.scheduler.self_s": total("serve.scheduler", "self_s") * per,
        "serve.pool.jobs": tracer.pool_jobs * per,
        "serve.pool.overhead_s": (
            total("serve.pool", "total_s", "_run_batch_pooled") - tracer.worker_exec_s()
        )
        * per,
        "delta.diff_s": total("delta.diff", "total_s") * per,
        "delta.recheck.self_s": total("delta.recheck", "self_s") * per,
        "delta.session.self_s": total("delta.session", "self_s") * per,
    }
    for mode in ("cached", "replay", "warm", "resume", "full"):
        metrics[f"delta.mode.{mode}"] = modes.get(mode, 0) * per
    metrics["delta.full_share"] = ratio(modes.get("full", 0), rechecks)
    metrics["trace.request_s"] = request_s * per
    groups = {group: total(group, "self_s") for group in GROUPS}
    groups["client"] = rows.get(REQUEST, {"self_s": 0.0})["self_s"]
    return {"metrics": metrics, "groups": groups}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--requests", type=int)
    parser.add_argument("--restart-at", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()
    # Set-up starts at the launcher's clock reading taken just before this
    # interpreter was spawned.
    launched_at = float(os.environ["PERFBENCH_LAUNCHED_AT"])

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(args.workdir)
        tracer.install()
    from workloads import WORKLOADS

    from repro.analysis.stats import STATS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.open()
    request = workload.prepare(0)
    setup_wall_s = time.time() - launched_at
    setup_s = setup_wall_s * REFERENCE_CALIBRATION_S / statistics.median(
        _calibrate() for _ in range(SETUP_CALIBRATIONS)
    )
    if args.mode == "setup":
        workload.close()
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    restartable = hasattr(workload, "restart")
    restart_at = None
    latencies: list[float] = []
    asks: list[int] = []
    segment_of: list[int] = []
    segment_s = 0.0
    asked = decided = failed = trips = 0
    failures: list[str] = []
    modes: dict[str, int] = {}
    work = dict.fromkeys(STATS.snapshot(), 0)
    # Time spent between requests (checks and calibration passes); it
    # does not count against --seconds.
    aside_s = 0.0
    calibrations = [_calibrate()]
    loop_start = time.perf_counter()
    index = 0
    while True:
        if restartable and restart_at is None:
            due = (
                index == args.restart_at
                if args.restart_at is not None
                else time.perf_counter() - loop_start - aside_s >= args.seconds / 2
            )
            if due:
                workload.restart()
                restart_at = index
        asked += request.asks
        before = STATS.snapshot() if tracer is not None else None
        root = tracer.begin_request(index) if tracer is not None else None
        start = time.perf_counter()
        try:
            result = request.call()
        except Exception:  # noqa: BLE001 - a raising request is a failed question
            result = None
            failed += request.asks
            failures.append(traceback.format_exc(limit=3))
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close(root)
            for key, value in STATS.snapshot().items():
                work[key] += value - before[key]
        latencies.append(elapsed)
        asks.append(request.asks)
        segment_of.append(len(calibrations) - 1)
        segment_s += elapsed
        # Checks and calibration run between requests, outside the timed
        # window and the loop's time budget, so nothing is kept for later.
        aside_start = time.perf_counter()
        if segment_s >= SEGMENT_S:
            calibrations.append(_calibrate())
            segment_s = 0.0
        if result is not None:
            mode = getattr(result, "mode", None)
            if mode is not None:
                modes[mode] = modes.get(mode, 0) + 1
            for question in request.judge(result):
                decided += question.decided
                trips += question.tripped
                try:
                    error = question.check()
                except Exception:  # noqa: BLE001 - a raising check is a failed answer
                    error = traceback.format_exc(limit=3)
                if error is not None:
                    failed += 1
                    failures.append(error)
        del request, result
        aside_s += time.perf_counter() - aside_start
        index += 1
        if args.requests is not None:
            if index >= args.requests:
                break
        elif time.perf_counter() - loop_start - aside_s >= args.seconds:
            break
        request = workload.prepare(index)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if segment_s > 0:
        calibrations.append(_calibrate())
    workload.close()

    request_s = sum(latencies)
    scaled = _scaled(latencies, segment_of, calibrations)
    out = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "requests": len(latencies),
        "restart_at": restart_at,
        "request_s": request_s,
        "scaled_request_s": sum(scaled),
        **_summary(scaled, asks, workload.WINDOW),
        "wall": _summary(latencies, asks, workload.WINDOW),
        "calibration_s": statistics.median(calibrations),
        "calibrations": len(calibrations),
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "questions": asked,
        "decided": decided,
        "failed": failed,
        "failures": failures[:5],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        out.update(_layer_metrics(tracer, work, len(latencies), request_s, modes, trips))
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
