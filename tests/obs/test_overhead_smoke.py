"""Profiler-overhead guard: disabled-mode solves stay inside the baselines.

With the profiler and progress telemetry off (the default), fresh guarded
solves must still clear the committed perf tripwire bounds in
``benchmarks/baselines.json``: the telemetry hooks may not tax the
disabled path.  The solves are traced to a file that ``python -m
repro.obs check`` then reads in a fresh interpreter, exactly as a
release check would.  Run on its own with ``pytest -m smoke``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.analysis import (
    equivalent_cq_nr,
    equivalent_fo_bounded,
    nonempty_cq_nr,
    nonempty_fo_bounded,
    nonempty_pl,
    nonempty_pl_nr_sat,
)
from repro.obs import profile, progress
from repro.reductions.sat_to_sws import clauses_from_tuples, cnf_to_sws
from repro.workloads import travel
from repro.workloads.scaling import cq_diamond_sws, pl_counter_sws, random_3cnf

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines.json"


def _solve_all() -> None:
    for bits in (8, 9, 10):
        assert nonempty_pl(pl_counter_sws(bits)).is_yes
    for seed in (0, 1):
        sws = cnf_to_sws(clauses_from_tuples(random_3cnf(seed, 8, 24)))
        nonempty_pl_nr_sat(sws)
    # The relational-* bounds: expansion procedures and bounded FO searches.
    for depth in (2, 3):
        assert nonempty_cq_nr(cq_diamond_sws(depth)).is_yes
    assert equivalent_cq_nr(cq_diamond_sws(2), cq_diamond_sws(2)).is_yes
    tau1, tau2 = travel.travel_service(), travel.recursive_airfare_service()
    assert not nonempty_fo_bounded(tau1, max_session_length=1, budget=2000).is_no
    assert not equivalent_fo_bounded(
        tau1, tau2, max_domain=1, max_rows=1, max_session_length=1, budget=2000
    ).is_yes


@pytest.mark.smoke
def test_disabled_mode_solves_stay_in_bounds(tmp_path):
    assert not profile.is_enabled() and not progress.is_enabled()
    trace = tmp_path / "overhead.trace.jsonl"
    obs.configure(path=str(trace), mode="w")
    try:
        _solve_all()
    finally:
        obs.configure(enabled=False)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro.obs", "check",
            "--baseline", str(BASELINES),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
