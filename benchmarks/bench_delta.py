"""Experiment DLT.1 — incremental re-solving for edited services.

The claim ``repro.delta`` makes: after a *single-row* edit (one state's
transition/synthesis rules change), re-checking the edited version
through a :class:`repro.delta.Session` costs near-constant time — the
sub-fingerprint diff, row patching, and witness replay all scale with
the edit, not the instance — while a from-scratch solve re-pays
canonicalization, ``to_afa``, formula compilation, and the vector BFS
on every keystroke.

One section into ``BENCH_delta.json``, ``menu_editing``: union "menu"
services (Table 1's PL shape) at growing branch counts, each re-checked
over a deterministic single-row edit script.  The per-edit re-check
must beat the full re-solve by ≥5× and should stay roughly flat as the
instance grows.
"""

from __future__ import annotations

import pytest

from repro.analysis import nonempty_pl
from repro.delta import Session
from repro.workloads.editing import menu_editing_trace

#: Menu sizes (branch counts) for the editing sweep; words are length 6
#: over a 6-letter alphabet, so states ≈ branches · 6.
MENU_BRANCHES = (8, 16, 32)
MENU_LENGTH = 6
MENU_ALPHABET = "abcdef"
MENU_EDITS = 8

#: Acceptance bar: single-row-edit re-check vs full re-solve.
MIN_SPEEDUP = 5.0


def _menu_trace(branches: int):
    return menu_editing_trace(
        branches=branches,
        length=MENU_LENGTH,
        alphabet=MENU_ALPHABET,
        edits=MENU_EDITS,
        seed=1,
    )


@pytest.mark.parametrize("branches", list(MENU_BRANCHES))
def test_dlt_1_single_row_edit_recheck(benchmark, branches, one_shot):
    """Per-edit re-check stays near-constant while the instance grows."""
    trace = _menu_trace(branches)
    session = Session(trace[0])
    session.check()
    session.edit(trace[1])
    session.recheck()  # warm the engine once; measure steady-state edits
    step = [2]

    def edit_and_recheck():
        version = trace[step[0]]
        step[0] = step[0] + 1 if step[0] + 1 < len(trace) else 2
        session.edit(version)
        return session.recheck()

    result = benchmark.pedantic(
        edit_and_recheck, rounds=3, iterations=1, warmup_rounds=0
    )
    assert result.answer.is_yes
    assert result.mode in ("replay", "warm")
    benchmark.extra_info["branches"] = branches
    benchmark.extra_info["states"] = len(trace[0].states)


@pytest.mark.parametrize("branches", list(MENU_BRANCHES))
def test_dlt_1_full_resolve_reference(benchmark, branches, one_shot):
    """The from-scratch cost the re-check is measured against."""
    trace = _menu_trace(branches)

    answer = one_shot(lambda: nonempty_pl(trace[1]))
    assert answer.is_yes
    benchmark.extra_info["branches"] = branches


# -- BENCH_delta.json emission ------------------------------------------------


def bench_menu_editing() -> dict:
    from _bench_io import timed

    rows = []
    for branches in MENU_BRANCHES:
        trace = _menu_trace(branches)
        # Full re-solve of an edited version, from scratch, best-of-3.
        full_s, answer = timed(lambda: nonempty_pl(trace[1]))
        assert answer.is_yes

        # One session replays the whole edit script; per-edit wall
        # clock includes the diff (sub-fingerprint hashing of the
        # edited copy), invalidation, and the re-check itself.
        session = Session(trace[0])
        session.check()
        modes: dict[str, int] = {}
        per_edit: list[float] = []
        for version in trace[1:]:
            session.edit(version)
            result = session.recheck()
            assert result.answer.is_yes
            per_edit.append(result.elapsed_s)
            modes[result.mode] = modes.get(result.mode, 0) + 1
        # Steady state: the first re-check pays the one-time engine
        # build for the session, so it is reported but not averaged.
        steady = per_edit[1:]
        mean_s = sum(steady) / len(steady)
        best_s = min(steady)
        rows.append(
            {
                "branches": branches,
                "states": len(trace[0].states),
                "edits": len(steady),
                "full_resolve_s": round(full_s, 6),
                "first_recheck_s": round(per_edit[0], 6),
                "recheck_mean_s": round(mean_s, 6),
                "recheck_best_s": round(best_s, 6),
                "speedup_mean": round(full_s / mean_s, 2),
                "speedup_best": round(full_s / best_s, 2),
                "modes": dict(sorted(modes.items())),
            }
        )
    return {
        "claim": (
            "single-row-edit re-check through a delta Session beats a "
            f"from-scratch re-solve by >= {MIN_SPEEDUP}x on Table 1 PL "
            "menu services, and stays near-constant as the instance grows"
        ),
        "min_speedup_required": MIN_SPEEDUP,
        "rows": rows,
    }


def main(argv: list[str] | None = None) -> None:
    import argparse

    from _bench_io import merge_section, pair_with_baseline

    parser = argparse.ArgumentParser(prog="bench_delta.py")
    parser.add_argument(
        "--before",
        metavar="JSON",
        help="BENCH_delta.json written by this script in a checkout of the "
        "baseline commit",
    )
    args = parser.parse_args(argv)
    menu = bench_menu_editing()
    if args.before:
        menu["recheck_mean_s_before"] = pair_with_baseline(
            menu["rows"],
            args.before,
            "menu_editing",
            "branches",
            "recheck_mean_s",
            speedup="recheck_speedup_vs_before",
        )
    merge_section(
        "BENCH_delta.json",
        "menu_editing",
        menu,
        regenerate=(
            "PYTHONPATH=src python benchmarks/bench_delta.py "
            "[--before <baseline checkout>/BENCH_delta.json]"
        ),
    )
    failed = [
        row for row in menu["rows"] if row["speedup_mean"] < MIN_SPEEDUP
    ]
    for row in menu["rows"]:
        print(
            f"menu {row['branches']:>3} branches ({row['states']} states): "
            f"full {row['full_resolve_s'] * 1e3:8.2f}ms | "
            f"re-check {row['recheck_mean_s'] * 1e3:6.2f}ms mean "
            f"({row['speedup_mean']:.1f}x), "
            f"{row['recheck_best_s'] * 1e3:6.2f}ms best "
            f"({row['speedup_best']:.1f}x) | modes {row['modes']}"
            + (
                f" | {row['recheck_speedup_vs_before']}x vs before"
                if "recheck_speedup_vs_before" in row
                else ""
            )
        )
    if failed:
        raise SystemExit(
            f"FAIL: {len(failed)} menu row(s) under the {MIN_SPEEDUP}x bar: "
            + ", ".join(str(row["branches"]) for row in failed)
        )


if __name__ == "__main__":
    main()
