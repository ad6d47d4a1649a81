"""The solver benchmark: one seeded workload, end-to-end or per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload pl_decide --seed 1 --seconds 10 --trace 0

Every run measures the library under ``src/`` in fresh interpreters
(``child.py``) with ``PYTHONHASHSEED`` pinned, every ``REPRO_*``
variable cleared and an empty store directory inside the checkout.

``--trace 0`` reports the end-to-end metrics.  Set-up is measured in
``SETUP_SAMPLES`` interpreters (the measuring one included) and
reported as their median.  Times are scaled to a reference host speed
by the calibration passes ``child.py`` interleaves; the wall-clock
figures are printed on a line of their own.

``--trace 1`` reports the per-layer metrics.  It runs the workload once
untraced for ``--seconds``, then again with the layer wrappers for the
same requests, and compares the two scaled request times for the
tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is nonzero if
any answer failed its check or a run could not complete.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_zipf", "pl_decide", "relational_decide", "edit_recheck")
HASH_SEED = "0"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150

#: Per-layer units by the last part of the metric name; the other
#: per-layer metrics are seconds per request.
LAYER_UNITS = {
    "calls": "count/req",
    "disjuncts": "count/req",
    "vectors_explored": "count/req",
    "candidates": "count/req",
    "trips": "count/req",
    "reads": "count/req",
    "writes": "count/req",
    "jobs": "count/req",
    "cached": "count/req",
    "replay": "count/req",
    "warm": "count/req",
    "resume": "count/req",
    "full": "count/req",
    "hit_ratio": "ratio",
    "compile_cache_hit_ratio": "ratio",
    "full_share": "ratio",
    "overhead_share": "ratio",
}


class RunFailed(Exception):
    """A child interpreter failed or printed no result."""


def _child(args: argparse.Namespace, workdir: str, *extra: str) -> dict:
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    env["TMPDIR"] = workdir
    command = [
        sys.executable,
        os.path.join(HERE, "child.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--workdir",
        workdir,
        *extra,
    ]
    env["PERFBENCH_LAUNCHED_AT"] = repr(time.time())
    # Its own session, so the child and its pool worker stop together.
    child = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise RunFailed(f"child timed out after {CHILD_TIMEOUT_S}s") from error
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RunFailed(f"child exited with code {child.returncode}")
    return json.loads(lines[-1])


def _fresh_dir(base: str, name: str) -> str:
    path = os.path.join(base, name)
    os.makedirs(path)
    return path


def _end_to_end(args: argparse.Namespace, base: str) -> tuple[dict, dict]:
    setups = [
        _child(args, _fresh_dir(base, f"setup{i}"), "--mode", "setup")
        for i in range(SETUP_SAMPLES - 1)
    ]
    run = _child(
        args, _fresh_dir(base, "run"), "--mode", "run", "--seconds", str(args.seconds)
    )
    setups.append(run)
    metrics = {
        "setup_s": (statistics.median(setup["setup_s"] for setup in setups), "s"),
        "jobs_per_s": (run["jobs_per_s"], "1/s"),
        "latency_p50_ms": (run["latency_p50_s"] * 1e3, "ms"),
        "latency_p90_ms": (run["latency_p90_s"] * 1e3, "ms"),
        "decided_share": (run["decided"] / run["questions"], "ratio"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    wall = run["wall"]
    print(f"requests {run['requests']} (latency samples), questions {run['questions']}")
    print(
        f"wall clock: jobs_per_s {wall['jobs_per_s']:.6g}, latency_p50_ms "
        f"{wall['latency_p50_s'] * 1e3:.6g}, latency_p90_ms {wall['latency_p90_s'] * 1e3:.6g}, "
        f"setup_s {statistics.median(setup['setup_wall_s'] for setup in setups):.6g}"
    )
    print(
        f"calibration pass {run['calibration_s'] * 1e3:.4g} ms median of "
        f"{run['calibrations']} (reference {run['reference_calibration_s'] * 1e3:.4g} ms)"
    )
    print(f"failed_share {run['failed'] / run['questions']:.6f} ratio")
    samples = ", ".join(f"{setup['setup_s']:.4f}" for setup in setups)
    print(f"setup samples (s): {samples}")
    return run, metrics


def _per_layer(args: argparse.Namespace, base: str) -> tuple[dict, dict]:
    plain = _child(
        args, _fresh_dir(base, "plain"), "--mode", "run", "--seconds", str(args.seconds)
    )
    extra = ["--mode", "run", "--trace", "--requests", str(plain["requests"])]
    if plain["restart_at"] is not None:
        extra += ["--restart-at", str(plain["restart_at"])]
    if args.spans:
        extra += ["--spans", os.path.abspath(args.spans)]
    traced = _child(args, _fresh_dir(base, "traced"), *extra)
    layers = dict(traced["metrics"])
    layers["trace.overhead_share"] = (
        traced["scaled_request_s"] - plain["scaled_request_s"]
    ) / traced["scaled_request_s"]
    metrics = {
        name: (value, LAYER_UNITS.get(name.split(".")[-1], "s/req"))
        for name, value in layers.items()
    }
    print(f"requests {traced['requests']} traced, {plain['requests']} untraced")
    print("parent-process self time by layer (share of traced request time):")
    for group, seconds in sorted(traced["groups"].items(), key=lambda item: -item[1]):
        print(f"  {group:<18} {seconds / traced['request_s']:7.1%}")
    combined = {
        key: plain[key] + traced[key] for key in ("questions", "failed", "decided")
    }
    combined["failures"] = plain["failures"] + traced["failures"]
    return combined, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", help="with --trace 1, write the spans here as JSON lines")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout (src/repro not found)", file=sys.stderr)
        return 2

    base = os.path.join(os.getcwd(), ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(base)
    try:
        measure = _per_layer if args.trace else _end_to_end
        run, metrics = measure(args, base)
    except RunFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, PYTHONHASHSEED={HASH_SEED}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for failure in run["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["questions"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
