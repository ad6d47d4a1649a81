"""``python -m repro.delta`` end to end (in-process via main())."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.delta.__main__ import main

MENU = "repro.workloads.editing:menu_editing_trace"
FLIP = "repro.workloads.editing:flip_trace"
RENAME = "repro.workloads.editing:rename_trace"
GROW = "repro.workloads.editing:growing_trace"


def test_diff_prints_per_step_deltas(capsys):
    assert main(["diff", "--trace", FLIP]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2
    assert all("local" in line and "w1" in line for line in out)


def test_diff_json_records_parse(capsys):
    assert main(["diff", "--trace", GROW, "--json"]) == 0
    (line,) = capsys.readouterr().out.strip().splitlines()
    record = json.loads(line)
    assert record["alphabet_changed"] is True
    assert record["step"] == 1


def test_module_entry_point_runs_diff():
    """The ``python -m`` entry point itself, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.delta", "diff", "--trace", GROW, "--json"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (line,) = proc.stdout.strip().splitlines()
    assert json.loads(line)["alphabet_changed"] is True


def test_replay_menu_is_fully_incremental(capsys):
    assert (
        main(
            [
                "replay",
                "--trace", MENU,
                "--compare",
                "--require-warm", "3",
                "--json",
            ]
        )
        == 0
    )
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    summary = lines[-1]["_summary"]
    assert summary["incremental_rechecks"] == summary["rechecks"]
    steps = [r for r in lines if "mode" in r and r["step"] > 0]
    assert all(r["mode"] in ("replay", "warm", "cached") for r in steps)
    assert all(r["verdict"] == r["expected"] for r in steps if "expected" in r)


def test_replay_flip_verdicts_match_scratch(capsys):
    assert main(["replay", "--trace", FLIP, "--compare", "--json"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    verdicts = [r["verdict"] for r in lines if "step" in r and r["step"] > 0]
    assert verdicts == ["no", "yes"]


def test_replay_rename_is_cached(capsys):
    assert main(["replay", "--trace", RENAME, "--json"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    modes = [r["mode"] for r in lines if "step" in r and r["step"] > 0]
    assert set(modes) == {"cached"}


def test_require_warm_fails_when_unmet(capsys):
    # growing_trace's single edit forces the full path — no warm work.
    assert main(["replay", "--trace", GROW, "--require-warm", "1"]) == 1
    assert "FAIL" in capsys.readouterr().err


def test_trace_factory_args_forwarded(capsys):
    assert (
        main(["diff", "--trace", MENU, "--arg", "4", "--arg", "3", "--json"])
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    # menu_editing_trace(4, 3) → default 6 edits still apply (arg 3 is
    # `length`); one JSON record per consecutive pair.
    assert len(lines) == 6


def test_disallowed_trace_module_rejected():
    with pytest.raises((SystemExit, ValueError)):
        main(["diff", "--trace", "os:getcwd"])


def test_cache_dir_persists_snapshots(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert (
        main(["replay", "--trace", MENU, "--cache-dir", cache_dir]) == 0
    )
    capsys.readouterr()
    from repro.serve.store import Store

    with Store(str(tmp_path / "cache" / "answers.sqlite3")) as store:
        assert store.search_state_count() >= 1
        assert store.answer_count() >= 1
