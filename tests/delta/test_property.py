"""Hypothesis property: incremental re-check == from-scratch solve.

Random edit scripts over random PL services, replayed through one
:class:`repro.delta.Session`.  The contract is *verdict* equality plus
witness validity — not full ``Answer`` equality, because a replayed
re-check legitimately keeps the previous witness while a scratch solve
may find a different (equally valid) one.

A drawn per-step trip flag runs that re-check under fault injection at
the search site it reaches: ``delta.recheck`` (the warm search) after a
local edit, ``afa.search_witness`` (a fresh solve) otherwise.  A trip
must yield UNKNOWN, and a tripped step never contradicts the scratch
solve.  The next untripped re-check — of the next edit, or of the same
version when the script ends — must decide again, which drives the
UNKNOWN → warm and UNKNOWN → full paths.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis import nonempty_pl, validate_pl
from repro.core.run import run_pl
from repro.delta import Session
from repro.guard import inject
from repro.workloads.editing import replace_rule
from repro.workloads.random_sws import random_pl_sws

#: The guard span of a fresh ``nonempty_pl`` / ``validate_pl`` solve.
FRESH_SPAN = "afa.search_witness"


@st.composite
def edit_scripts(draw):
    """A base service plus 1–4 single-state edits borrowed from a donor.

    Swapping in a donor state's (rule, synthesis) pair keeps the script
    well-formed (targets name the same state set) while freely changing
    guards, branching, and finality — including edits that change the
    verdict or shrink the inspected alphabet (which forces the full
    path; the property holds for every mode).
    """
    n_states = draw(st.integers(3, 6))
    recursive = draw(st.booleans())
    base = random_pl_sws(
        draw(st.integers(0, 150)), n_states=n_states, recursive=recursive
    )
    donor = random_pl_sws(
        draw(st.integers(151, 300)), n_states=n_states, recursive=recursive
    )
    states = sorted(base.states)
    script = [base]
    current = base
    for step in range(draw(st.integers(1, 4))):
        state = draw(st.sampled_from(states))
        current = replace_rule(
            current,
            state,
            rule=donor.transitions[state],
            synthesis=donor.synthesis.get(state),
            name=f"v{step + 1}",
        )
        script.append(current)
    return script


#: One trip flag per possible edit (``edit_scripts`` draws at most 4).
trip_flags = st.lists(st.booleans(), min_size=4, max_size=4)


def _recheck(session: Session, version, trip: bool):
    """Stage ``version`` and re-check it; returns (result, tripped)."""
    delta = session.edit(version)
    if not trip:
        return session.recheck(), False
    span = "delta.recheck" if delta.is_local else FRESH_SPAN
    with inject.injected(span) as plan:
        result = session.recheck()
    return result, plan.fired


def _check_script(session, script, trips, scratch_solve, check_witness):
    """Replay ``script`` through ``session`` against scratch solves."""
    session.check()

    def matches_scratch(version, result):
        assert result.answer.verdict is scratch_solve(version).verdict
        if result.answer.is_yes:
            check_witness(version, result.answer.witness)

    unknown = False
    for version, trip in zip(script[1:], trips):
        result, tripped = _recheck(session, version, trip)
        unknown = tripped
        if tripped:
            assert result.answer.is_unknown
        else:
            matches_scratch(version, result)
    if unknown:
        result = session.recheck()
        assert result.mode == "full"
        matches_scratch(script[-1], result)


@given(edit_scripts(), trip_flags)
@settings(max_examples=40, deadline=None)
def test_incremental_nonempty_matches_scratch(script, trips):
    def accepted(version, witness):
        assert run_pl(version, list(witness)).output

    _check_script(Session(script[0]), script, trips, nonempty_pl, accepted)


@given(edit_scripts(), st.booleans(), trip_flags)
@settings(max_examples=20, deadline=None)
def test_incremental_validate_matches_scratch(script, output, trips):
    def scratch(version):
        return validate_pl(version, output=output)

    def yields_output(version, witness):
        assert run_pl(version, list(witness)).output is output

    session = Session(script[0], "validate_pl", output=output)
    _check_script(session, script, trips, scratch, yields_output)
