"""Serve and store smoke: the service end to end, plus its CLIs.

A 2-worker batch deduplicates and is answered from the cache when it is
resubmitted; a store-backed service writes its answer, and a cold
reopen warm-starts from the store without solving.  The ``python -m
repro.serve procedures`` and ``store stats|vacuum`` commands run in a
subprocess.  Run on their own with ``pytest -m smoke``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro.automata.afa as afa
from repro.serve import JobSpec, SolverService
from repro.workloads.scaling import pl_counter_sws

pytestmark = pytest.mark.smoke


def _cli(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.serve", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


def test_two_worker_batch_dedups_then_hits_the_cache():
    specs = [
        JobSpec("nonempty_pl", (pl_counter_sws(n),), label=f"counter-{n}-{i}")
        for i in (0, 1)
        for n in (6, 7, 8, 9)
    ]
    with SolverService(workers=2) as service:
        cold = service.run_batch(specs)
        assert [a.verdict.value for a in cold] == ["yes"] * 8
        assert service.jobs_executed == 4, service.stats()  # dedup
        warm = service.run_batch(specs)
        assert all(a.is_yes for a in warm)
        assert service.cache.stats.hits >= 8, service.stats()
        assert service.jobs_executed == 4, service.stats()  # all cached
    assert "nonempty_pl" in _cli("procedures")


def test_store_write_cold_reopen_and_warm_start(tmp_path):
    cache_dir = str(tmp_path / "store")
    specs = [JobSpec("nonempty_pl", (pl_counter_sws(8),))]

    # Write: a service with a store-backed disk tier solves once.
    with SolverService(cache_dir=cache_dir) as service:
        assert service.run_batch(specs)[0].is_yes
        stats = service.cache.store.stats()
        assert stats["journal_mode"] == "wal", stats
        assert stats["answers"] == 1, stats
        assert stats["artifacts"], stats

    # Reopen cold: simulate a fresh process (cleared compile caches,
    # empty memory tier) and warm-start from the store.
    afa._SEARCHER_CACHE.clear()
    afa._DIFF_SEARCHER_CACHE.clear()
    with SolverService(cache_dir=cache_dir) as service:
        assert service.cache.stats.disk_loaded == 1
        assert service.run_batch(specs)[0].is_yes
        assert service.jobs_executed == 0, service.stats()  # answer reused
        assert service.cache.stats.hits >= 1

    _cli("store", "stats", cache_dir)
    _cli("store", "vacuum", cache_dir)
