"""Experiment F1 — Figure 1: FSA vs SWS specification of the travel service.

The paper's motivating comparison: the FSA of Figure 1(a) checks airfare,
hotel and the local arrangement *sequentially* (three rounds of
interaction), while the SWS of Figure 1(b) fans out in parallel (one round)
and synthesizes deterministically.  The benchmark measures both
specifications deciding the same booking and records the round counts; the
accepted outcomes must coincide.
"""

import pytest

from repro.core.run import run_relational
from repro.models.roman import RomanService, encode_roman_word, roman_to_sws
from repro.core.run import run_pl
from repro.workloads import travel


@pytest.mark.parametrize("scenario", ["tickets", "cars", "nothing"])
def test_f1_sws_parallel_rounds(benchmark, scenario):
    """The SWS decides any scenario in one round (tree height 1)."""
    service = travel.travel_service()
    database = travel.sample_database(
        with_tickets=scenario == "tickets",
        with_cars=scenario in ("tickets", "cars"),
    )
    request = travel.booking_request()

    result = benchmark(lambda: run_relational(service, database, request))
    benchmark.extra_info["rounds"] = result.tree.height()
    benchmark.extra_info["packages"] = len(result.output)
    assert result.tree.height() == 1
    # Deterministic synthesis: tickets preferred when available.
    if scenario == "tickets":
        assert all(row[2] != travel.BLANK for row in result.output)
    if scenario == "cars":
        assert result.output and all(
            row[3] != travel.BLANK for row in result.output
        )
    if scenario == "nothing":
        assert not result.output


def test_f1_fsa_sequential_rounds(benchmark):
    """The FSA needs one interaction per aspect: three sequential rounds."""
    fsa = travel.travel_fsa()
    word = ["a", "h", "t"]

    accepted = benchmark(lambda: fsa.accepts(word))
    benchmark.extra_info["rounds"] = len(word)
    assert accepted
    assert len(word) == 3  # the paper's sequential-dependency point


def test_f1_translated_fsa_as_sws(benchmark):
    """The Roman translation preserves the FSA's decision, now in SWS form."""
    service = RomanService(travel.travel_fsa(), "travel")
    sws = roman_to_sws(service)
    encoded = encode_roman_word(["a", "h", "c"])

    value = benchmark(lambda: run_pl(sws, encoded).output)
    assert value
    benchmark.extra_info["sws_states"] = len(sws.states)


# -- BENCH_table1_relational.json emission -----------------------------------

#: Runs per timed repetition of a single travel run (each takes ~0.1 ms).
RUNS = 100
#: Step budget of the bounded searches; it counts runs, so a search does
#: the same work (and reaches the same verdict) however fast each run is.
FO_STEPS = 2000


def cases():
    """(case, call) per timed row; each call builds its own service."""
    from repro.analysis import equivalent_fo_bounded, nonempty_fo_bounded

    def runs(make_service, scenario):
        database = travel.sample_database(
            with_tickets=scenario == "tickets",
            with_cars=scenario in ("tickets", "cars"),
        )
        request = travel.booking_request()

        def call():
            service = make_service()
            for _ in range(RUNS):
                output = run_relational(service, database, request).output
            return f"{len(output)} packages"

        return call

    out = [
        (f"tau1_run_x{RUNS}_{scenario}", runs(travel.travel_service, scenario))
        for scenario in ("tickets", "cars", "nothing")
    ]
    out.append(
        (f"tau2_run_x{RUNS}_tickets", runs(travel.recursive_airfare_service, "tickets"))
    )
    out.append(
        (f"nonempty_fo_bounded_tau1_{FO_STEPS}_steps",
         lambda: nonempty_fo_bounded(
             travel.travel_service(), max_session_length=1, budget=FO_STEPS
         ).verdict.value)
    )
    out.append(
        (f"equivalent_fo_bounded_tau1_tau2_{FO_STEPS}_steps",
         lambda: equivalent_fo_bounded(
             travel.travel_service(), travel.recursive_airfare_service(),
             max_domain=1, max_rows=1, max_session_length=1, budget=FO_STEPS,
         ).verdict.value)
    )
    return out


def emit_trace_artifact(path: str) -> None:
    """A traced representative sweep, separate from the timed one."""
    from repro import obs
    from repro.analysis import equivalent_fo_bounded, nonempty_fo_bounded

    obs.configure(path=path, mode="w")
    try:
        assert not nonempty_fo_bounded(
            travel.travel_service(), max_session_length=1, budget=FO_STEPS
        ).is_no
        assert not equivalent_fo_bounded(
            travel.travel_service(), travel.recursive_airfare_service(),
            max_domain=1, max_rows=1, max_session_length=1, budget=FO_STEPS,
        ).is_yes
    finally:
        obs.configure(enabled=False)


def main(argv=None) -> None:
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from _bench_io import relational_main

    relational_main(
        __file__,
        "fig1_travel",
        "F1 travel service (SWS(FO, FO)) — runs and bounded searches",
        cases,
        emit_trace_artifact,
        argv,
    )


if __name__ == "__main__":
    main()
