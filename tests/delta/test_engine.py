"""Delta engine: re-check modes, patched rows, and soundness edges."""

from __future__ import annotations

import pytest

from repro.analysis import nonempty_pl, validate_pl
from repro.automata.afa import patch_engine
from repro.core.pl_semantics import pair_states, to_afa, to_afa_incremental
from repro.core.run import run_pl
from repro.delta import DeltaError, Session, compute_delta
from repro.guard import CancelToken, Guard
from repro.workloads.editing import (
    flip_trace,
    growing_trace,
    menu_editing_trace,
    rename_trace,
    replace_rule,
)
from repro.workloads.random_sws import random_pl_sws
from repro.workloads.scaling import pl_counter_sws


def _scratch_verdicts(trace):
    return [nonempty_pl(sws).verdict for sws in trace]


class TestRecheckModes:
    def test_menu_trace_rechecks_incrementally(self):
        trace = menu_editing_trace(edits=5)
        session = Session(trace[0])
        assert session.check().is_yes
        expected = _scratch_verdicts(trace)
        for step, version in enumerate(trace[1:], start=1):
            delta = session.edit(version)
            assert delta.is_local
            result = session.recheck()
            assert result.mode in ("replay", "warm")
            assert result.answer.verdict is expected[step]
            if result.answer.is_yes:
                assert run_pl(version, list(result.answer.witness)).output
        assert session.stats()["incremental_rechecks"] == 5
        assert session.stats()["modes"].get("full", 0) == 0

    def test_rename_only_edit_invalidates_nothing(self):
        trace = rename_trace(steps=2)
        session = Session(trace[0])
        first = session.check()
        for version in trace[1:]:
            session.edit(version)
            result = session.recheck()
            assert result.mode == "cached"
            assert result.delta.is_empty
            assert result.answer is first

    def test_yes_to_no_flip_is_sound(self):
        """A stale YES frontier must not leak into the dead version."""
        base, dead, back = flip_trace()
        session = Session(base)
        assert session.check().is_yes
        session.edit(dead)
        no = session.recheck()
        assert no.mode == "warm"  # witness replay fails, search reruns
        assert no.answer.is_no
        session.edit(back)
        yes = session.recheck()
        assert yes.answer.is_yes
        assert run_pl(back, list(yes.answer.witness)).output

    def test_warm_search_honours_the_recheck_budget(self):
        base, dead, _ = flip_trace()
        session = Session(base)
        session.check()
        session.edit(dead)
        token = CancelToken()
        token.cancel()
        result = session.recheck(budget=Guard(cancel_token=token))
        assert result.mode == "warm"
        assert result.answer.is_unknown
        assert result.answer.trip.site == "delta.recheck"
        # The UNKNOWN is not cached: the next re-check decides in full.
        again = session.recheck()
        assert again.mode == "full" and again.answer.is_no

    def test_alphabet_growth_forces_full_resolve(self):
        base, grown = growing_trace()
        session = Session(base)
        session.check()
        delta = session.edit(grown)
        assert delta.alphabet_changed
        result = session.recheck()
        assert result.mode == "full"
        assert result.answer.verdict is nonempty_pl(grown).verdict

    def test_state_count_change_forces_full_resolve(self):
        from repro.workloads.pl_services import HASH, word_service

        base = word_service(["a", HASH], "ab")
        longer = word_service(["a", "b", HASH], "ab")
        session = Session(base)
        session.check()
        session.edit(longer)
        result = session.recheck()
        assert result.mode == "full"
        assert result.answer.is_yes

    def test_tripped_search_is_resolved_in_full_then_cached(self):
        # Guards only check at the every-256-pop checkpoints, so the
        # counter must be big enough to reach one before finishing.
        bits = 10
        sws = pl_counter_sws(bits)
        session = Session(sws, budget=30)  # trips at the first checkpoint
        assert session.check().is_unknown
        result = session.recheck(budget=10**8)
        assert result.mode == "full"
        assert result.answer.is_yes
        # The counter's unique witness; run_pl replay is skipped here
        # because forward simulation of the counter is exponential.
        assert len(result.answer.witness) == 2**bits
        again = session.recheck()
        assert again.mode == "cached" and again.answer is result.answer


class TestValidate:
    def test_validate_pl_rechecks_both_polarities(self):
        trace = menu_editing_trace(edits=3)
        for output in (True, False):
            session = Session(trace[0], "validate_pl", output=output)
            session.check()
            for version in trace[1:]:
                session.edit(version)
                result = session.recheck()
                scratch = validate_pl(version, output=output)
                assert result.answer.verdict is scratch.verdict
                assert result.mode != "full"

    def test_unsupported_procedure_is_rejected(self):
        with pytest.raises(DeltaError):
            Session(random_pl_sws(0), "equivalent_pl")


class TestIncrementalAFA:
    def _edited_pair(self, seed=11):
        base = random_pl_sws(seed, n_states=5, n_variables=2)
        donor = random_pl_sws(seed + 50, n_states=5, n_variables=2)
        state = sorted(base.states)[2]
        edited = replace_rule(
            base,
            state,
            rule=donor.transitions[state],
            synthesis=donor.synthesis.get(state),
            name="edited",
        )
        return base, edited, state

    def test_incremental_rebuild_matches_scratch(self):
        base, edited, state = self._edited_pair()
        delta = compute_delta(base, edited)
        if not delta.is_local:
            pytest.skip("donor edit changed the alphabet for this seed")
        base_afa = to_afa(base)
        incremental = to_afa_incremental(
            edited, base, base_afa, delta.changed_states
        )
        scratch = to_afa(edited)
        assert incremental is not None
        assert incremental.states == scratch.states
        assert incremental.finals == scratch.finals
        assert set(incremental.transitions) == set(scratch.transitions)
        for key, formula in scratch.transitions.items():
            assert incremental.transitions[key] == formula

    def test_incremental_rebuild_refuses_layout_changes(self):
        base, grown = growing_trace()
        base_afa = to_afa(base)
        assert (
            to_afa_incremental(grown, base, base_afa, frozenset({"w1"}))
            is None
        )

    def test_patched_engine_rows_match_full_compile(self):
        base, edited, state = self._edited_pair(seed=23)
        delta = compute_delta(base, edited)
        if not delta.is_local:
            pytest.skip("donor edit changed the alphabet for this seed")
        base_afa = to_afa(base)
        base_engine = base_afa._engine()
        incremental = to_afa_incremental(
            edited, base, base_afa, delta.changed_states
        )
        assert incremental is not None
        dirty = {
            pair for s in delta.changed_states for pair in pair_states(s)
        }
        patched = patch_engine(base_engine, incremental, dirty)
        assert patched is not None
        full = to_afa(edited)._engine()
        assert patched.order == full.order
        assert patched.final_mask == full.final_mask
        n = len(full.order)
        masks = [0, (1 << n) - 1, full.final_mask]
        masks += [(0x9E3779B9 * i) & ((1 << n) - 1) for i in range(1, 40)]
        for symbol in full.reps:
            f_row = full.rows[full.rep_of[symbol]]
            p_row = patched.rows[patched.rep_of[symbol]]
            for mask in masks:
                assert p_row(mask) == f_row(mask)
