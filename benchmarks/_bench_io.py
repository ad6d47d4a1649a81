"""Shared timing/emission helpers for the BENCH_*.json exports.

The pytest-benchmark runs measure scaling shape interactively; the
``main()`` entry points in ``bench_table1_pl_recursive.py`` and
``bench_table1_pl_nr.py`` use these helpers to record *before/after*
numbers for the compiled PL/AFA engine into a single
``BENCH_table1_pl.json`` at the repository root, and to drop a
``repro.obs`` JSONL trace artifact next to it (one per emitter; inspect
with ``python -m repro.obs report <artifact>``).  ``bench_table1_cq_nr.py``
and ``bench_fig1_travel.py`` do the same for ``BENCH_table1_relational.json``
through :func:`relational_main`.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable

#: Version of the BENCH_*.json layout written by :func:`merge_section`.
BENCH_SCHEMA_VERSION = 2

_REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))

BENCH_TABLE1_PL = os.path.join(_REPO_ROOT, "BENCH_table1_pl.json")
BENCH_TABLE1_RELATIONAL = os.path.join(_REPO_ROOT, "BENCH_table1_relational.json")


def trace_artifact_path(emitter_file: str) -> str:
    """The trace artifact path for a bench emitter, next to the JSON.

    ``bench_table1_pl_recursive.py`` → ``BENCH_table1_pl_recursive.trace.jsonl``
    at the repository root, so each emitter owns (and truncates) exactly
    one artifact regardless of run order.
    """
    stem = os.path.splitext(os.path.basename(emitter_file))[0]
    stem = stem.removeprefix("bench_")
    return os.path.join(_REPO_ROOT, f"BENCH_{stem}.trace.jsonl")


def timed(func: Callable[[], Any], repeats: int = 3) -> tuple[float, Any]:
    """Best-of-``repeats`` wall-clock for ``func``; returns (seconds, result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _metrics_context() -> dict | None:
    """The active :mod:`repro.metrics` snapshot context, if enabled.

    ``REPRO_METRICS=... python benchmarks/bench_*.py`` stamps the run's
    cache hit rate and per-histogram count/p99 into the emitted
    ``_meta`` block, tying the committed numbers to the serving-layer
    conditions they were measured under.  Disabled (the default) stamps
    nothing, so plain regeneration runs leave the files byte-stable.
    """
    try:
        from repro import metrics
    except ImportError:  # pragma: no cover - src/ not on the path
        return None
    return metrics.bench_context()


def _progress_context() -> dict | None:
    """The live search-progress/profiler context, if telemetry is on.

    ``REPRO_PROGRESS=1`` (optionally plus ``REPRO_PROFILE=...``) stamps
    the run's final frontier size, peak depth, and sample count into
    ``_meta.progress`` so a committed number carries the search shape it
    was measured under.  Disabled (the default) stamps nothing.
    """
    try:
        from repro.obs import progress
    except ImportError:  # pragma: no cover - src/ not on the path
        return None
    return progress.bench_context()


def merge_section(
    path: str, section: str, payload: dict, regenerate: str | None = None
) -> dict:
    """Write ``payload`` under ``section`` in the JSON file at ``path``.

    Other sections are preserved, so several bench emitters can each
    write their own section independently and in either order.  The
    ``_meta`` block is derived from the arguments — the file name from
    ``path``, the per-section regeneration command from ``regenerate`` —
    rather than hardcoded, and carries a ``schema_version`` so readers
    can detect layout changes.  Section-specific context (what "before"
    and "after" mean, notes) belongs in the section payload itself.
    """
    data: dict = {}
    if os.path.exists(path):
        with open(path) as handle:
            data = json.load(handle)
    data[section] = payload
    meta = data.get("_meta")
    if not isinstance(meta, dict):
        meta = {}
    meta["file"] = os.path.basename(path)
    meta["schema_version"] = BENCH_SCHEMA_VERSION
    commands = meta.get("regenerate")
    if not isinstance(commands, dict):
        # Legacy layout (schema v1) kept a flat list and PL-specific
        # before/after strings; rebuild from scratch.
        commands = {}
        meta.pop("before", None)
        meta.pop("after", None)
    if regenerate:
        commands[section] = regenerate
    meta["regenerate"] = commands
    context = _metrics_context()
    if context is not None:
        meta.setdefault("metrics", {})[section] = context
    progress_context = _progress_context()
    if progress_context is not None:
        meta.setdefault("progress", {})[section] = progress_context
    data["_meta"] = meta
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return data

def pair_with_baseline(
    rows: list[dict],
    baseline: str,
    section: str,
    key: str,
    metric: str,
    speedup: str = "speedup",
    same: tuple[str, ...] = (),
) -> str:
    """Pair ``rows`` with the rows the same emitter wrote at a baseline commit.

    ``baseline`` is the JSON file the emitter wrote in a checkout of the
    baseline commit.  Its ``section`` rows are matched on ``key`` and must
    agree on every field named in ``same``.  Each row gains
    ``<metric>_before`` and ``speedup`` (baseline over this run).  Returns
    the note that explains ``<metric>_before`` in the section payload.
    """
    with open(baseline) as handle:
        before = {row[key]: row for row in json.load(handle)[section]["rows"]}
    for row in rows:
        base = before[row[key]]
        for field in same:
            if base[field] != row[field]:
                raise SystemExit(
                    f"{row[key]}: {field} {row[field]!r} differs from the baseline"
                )
        row[f"{metric}_before"] = base[metric]
        row[speedup] = round(base[metric] / row[metric], 2)
    return f"{metric} of the same emitter run in a checkout of the baseline commit"


def relational_main(
    emitter_file: str,
    section: str,
    experiment: str,
    cases: Callable[[], list[tuple[str, Callable[[], Any]]]],
    emit_trace: Callable[[str], None],
    argv: list[str] | None = None,
) -> None:
    """Command line of the ``BENCH_table1_relational.json`` emitters.

    Times every ``(case, call)`` best of 5 and records the call's result
    (a verdict or an output size) next to the seconds.  ``--before``
    names the JSON that the *same* emitter wrote in a checkout of the
    baseline commit, paired through :func:`pair_with_baseline` on
    ``case`` (the results must agree).  Then writes the emitter's trace
    artifact.
    """
    import argparse

    script = os.path.basename(emitter_file)
    parser = argparse.ArgumentParser(prog=script)
    parser.add_argument(
        "--before",
        metavar="JSON",
        help="BENCH_table1_relational.json written by this script in a "
        "checkout of the baseline commit",
    )
    args = parser.parse_args(argv)
    rows = []
    for case, call in cases():
        seconds, result = timed(call, repeats=5)
        rows.append({"case": case, "result": result, "seconds": round(seconds, 6)})
    payload = {
        "experiment": experiment,
        "seconds": "best of 5 wall-clock repetitions of the case",
        "rows": rows,
    }
    if args.before:
        payload["seconds_before"] = pair_with_baseline(
            rows, args.before, section, "case", "seconds", same=("result",)
        )
    merge_section(
        BENCH_TABLE1_RELATIONAL,
        section,
        payload,
        regenerate=(
            f"PYTHONPATH=src python benchmarks/{script} "
            "[--before <baseline checkout>/BENCH_table1_relational.json]"
        ),
    )
    trace_path = trace_artifact_path(emitter_file)
    emit_trace(trace_path)
    print(f"wrote {BENCH_TABLE1_RELATIONAL} section {section}")
    print(f"wrote {trace_path} (inspect: python -m repro.obs report)")
    for row in rows:
        extra = f"  {row['speedup']}x" if "speedup" in row else ""
        print(f"  {row['case']:<44} {row['seconds']:.4f} s{extra}")
