"""Experiment T1.3 — Table 1, row SWS_nr(CQ, UCQ).

Paper bounds: non-emptiness PSPACE-complete, validation NEXPTIME-complete,
equivalence coNEXPTIME-complete.  The engine behind all three is the UCQ≠
expansion, whose size doubles per level of the shared-successor diamond
DAG — O(depth) states, 2^depth disjuncts.  The benchmark sweeps the
diamond depth and measures (a) expansion-based non-emptiness, (b)
Klug-containment equivalence of expansions, and (c) the guided small-model
validation, recording the expansion sizes alongside.
"""

import pytest

from repro.analysis import equivalent_cq_nr, nonempty_cq_nr, validate_cq_nr
from repro.core.run import run_relational
from repro.core.unfold import expand, saturation_length
from repro.data.generators import InstanceGenerator
from repro.workloads.scaling import cq_diamond_sws


@pytest.mark.parametrize("depth", [2, 3, 4, 5])
def test_t1_3_nonemptiness_diamond(benchmark, depth, one_shot):
    """PSPACE shape: the expansion doubles per diamond level."""
    service = cq_diamond_sws(depth)

    answer = one_shot(lambda: nonempty_cq_nr(service))
    assert answer.is_yes
    expansion = expand(service, saturation_length(service))
    assert len(expansion.disjuncts) == 2**depth
    benchmark.extra_info["depth"] = depth
    benchmark.extra_info["disjuncts"] = len(expansion.disjuncts)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_t1_3_equivalence_diamond(benchmark, depth, one_shot):
    """coNEXPTIME procedure: containment of exponential expansions."""
    left = cq_diamond_sws(depth)
    right = cq_diamond_sws(depth)

    answer = one_shot(lambda: equivalent_cq_nr(left, right))
    assert answer.is_yes
    benchmark.extra_info["depth"] = depth


@pytest.mark.parametrize("depth", [1, 2])
def test_t1_3_equivalence_negative(benchmark, depth, one_shot):
    """Distinguishing diamonds of different depth."""
    answer = one_shot(
        lambda: equivalent_cq_nr(cq_diamond_sws(depth), cq_diamond_sws(depth + 1))
    )
    assert answer.is_no
    benchmark.extra_info["depth"] = depth


@pytest.mark.parametrize("depth", [1, 2])
def test_t1_3_validation_diamond(benchmark, depth, one_shot):
    """NEXPTIME procedure: validate a real run's output."""
    service = cq_diamond_sws(depth)
    gen = InstanceGenerator(seed=23, domain_size=2)
    output = frozenset()
    for _ in range(20):
        database = gen.database(service.db_schema, 4)
        inputs = gen.input_sequence(service.input_schema, depth + 1, 2)
        output = run_relational(service, database, inputs).output.rows
        if output:
            break
    assert output, "fixture never produced output"

    answer = one_shot(lambda: validate_cq_nr(service, output))
    assert answer.is_yes
    benchmark.extra_info["depth"] = depth
    benchmark.extra_info["output_rows"] = len(output)


# -- BENCH_table1_relational.json emission -----------------------------------


def _observed_output(service, depth):
    """A nonempty output of a real run, as in the validation benchmark."""
    gen = InstanceGenerator(seed=23, domain_size=2)
    for _ in range(20):
        database = gen.database(service.db_schema, 4)
        inputs = gen.input_sequence(service.input_schema, depth + 1, 2)
        output = run_relational(service, database, inputs).output.rows
        if output:
            return output
    raise AssertionError("fixture never produced output")


def cases():
    """(case, call) per timed row; each call builds its own instances."""

    def verdict(answer):
        return answer.verdict.value

    out = []
    for depth in (2, 3, 4, 5):
        out.append(
            (f"nonempty_diamond_{depth}",
             lambda d=depth: verdict(nonempty_cq_nr(cq_diamond_sws(d))))
        )
    for depth in (1, 2, 3):
        out.append(
            (f"equivalent_diamond_{depth}",
             lambda d=depth: verdict(equivalent_cq_nr(cq_diamond_sws(d), cq_diamond_sws(d))))
        )
    for depth in (1, 2):
        out.append(
            (f"equivalent_diamond_{depth}_vs_{depth + 1}",
             lambda d=depth: verdict(
                 equivalent_cq_nr(cq_diamond_sws(d), cq_diamond_sws(d + 1))
             ))
        )
    for depth in (1, 2):
        output = _observed_output(cq_diamond_sws(depth), depth)
        out.append(
            (f"validate_diamond_{depth}",
             lambda d=depth, o=output: verdict(validate_cq_nr(cq_diamond_sws(d), o)))
        )
    return out


def emit_trace_artifact(path: str) -> None:
    """A traced representative sweep, separate from the timed one."""
    from repro import obs

    obs.configure(path=path, mode="w")
    try:
        for depth in (2, 3):
            assert nonempty_cq_nr(cq_diamond_sws(depth)).is_yes
        assert equivalent_cq_nr(cq_diamond_sws(2), cq_diamond_sws(2)).is_yes
        assert equivalent_cq_nr(cq_diamond_sws(1), cq_diamond_sws(2)).is_no
    finally:
        obs.configure(enabled=False)


def main(argv=None) -> None:
    import os
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from _bench_io import relational_main

    relational_main(
        __file__,
        "cq_nr",
        "T1.3 SWS_nr(CQ, UCQ) — expansion procedures on diamonds",
        cases,
        emit_trace_artifact,
        argv,
    )


if __name__ == "__main__":
    main()
