"""Incremental re-check of an edited instance against its snapshot.

Four re-check modes, cheapest first; each is *sound* — soundness never
depends on the edit being small, only the cost does:

* ``cached`` — the delta is empty (identical or rename-only version)
  and the stored answer is decided: it is returned as-is.
* ``replay`` — local edit, and the previous witness still drives the
  edited automaton to the expected verdict; re-validated in
  O(|witness| · |classes|) pre-steps, so the old answer is *proved*
  still correct rather than assumed.
* ``warm`` — local edit: the AFA is rebuilt only for the edited states
  (:func:`repro.core.pl_semantics.to_afa_incremental`), the compiled
  engine is row-patched (:func:`repro.automata.afa.patch_engine` —
  clean states' row bits reuse the previous closures, the symbol
  quotient refines instead of recomputing), and the BFS runs afresh
  over the patched rows.  Reached vectors are a whole-instance
  property, so none are carried over — reusing them would be unsound
  precisely in the YES→NO flip case.
* ``full`` — everything else: a global edit (states added/removed,
  alphabet grew, start moved), or an empty delta whose stored answer is
  a budget-tripped UNKNOWN.  The registry procedure runs from scratch.

The warm search checkpoints through the ordinary guard site
``delta.recheck``, so budgets, fault injection, and progress telemetry
apply to incremental re-checks exactly as to full solves.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable

from repro import metrics
from repro.analysis.verdict import Answer
from repro.automata.afa import (
    AFA,
    _CompiledAFA,
    _reconstruct_classes,
    generic_search,
    patch_engine,
)
from repro.core.pl_semantics import pair_states, to_afa, to_afa_incremental
from repro.core.sws import SWS
from repro.delta.diff import InstanceDelta, compute_delta
from repro.delta.snapshot import SearchState
from repro.errors import ReproError
from repro.guard import GuardTrip, checkpoint_callable, ensure_guard, register_span
from repro.serve.fingerprint import (
    SubFingerprints,
    job_fingerprint,
    sub_fingerprints,
)

__all__ = ["DeltaError", "RecheckResult", "SUPPORTED_PROCEDURES", "recheck"]

register_span(
    "delta.recheck",
    "repro.delta.engine",
    "warm BFS over patched transition rows",
)


class DeltaError(ReproError):
    """Raised for instances or procedures the delta engine cannot serve."""


def _accepting_for(procedure: str, kwargs: dict) -> bool:
    if procedure == "nonempty_pl":
        return True
    if procedure == "validate_pl":
        return bool(kwargs.get("output", True))
    raise DeltaError(
        f"procedure {procedure!r} has no incremental re-check "
        f"(supported: {', '.join(sorted(SUPPORTED_PROCEDURES))})"
    )


#: Procedures the engine can re-check incrementally.  Both reduce to one
#: AFA witness search; ``accepting`` is the polarity of the search.
SUPPORTED_PROCEDURES = frozenset({"nonempty_pl", "validate_pl"})


@dataclass
class RecheckResult:
    """One re-check's outcome plus where its work went."""

    answer: Answer
    mode: str
    delta: InstanceDelta
    elapsed_s: float
    pops: int = 0
    rows_patched: int = 0
    rows_reused: int = 0

    def as_dict(self) -> dict:
        return {
            "verdict": self.answer.verdict.value,
            "mode": self.mode,
            "elapsed_s": self.elapsed_s,
            "pops": self.pops,
            "rows_patched": self.rows_patched,
            "rows_reused": self.rows_reused,
            "delta": self.delta.as_dict(),
        }


def solve_fresh(
    procedure_fn: Callable[..., Answer],
    procedure: str,
    sws: SWS,
    kwargs: dict,
    budget: Any = None,
    tree: SubFingerprints | None = None,
) -> tuple[SearchState, Answer]:
    """Run the registry procedure from scratch; returns (snapshot, answer)."""
    if tree is None:
        tree = sub_fingerprints(sws)
    answer = procedure_fn(sws, guard=budget, **kwargs)
    fingerprint = job_fingerprint(procedure, (sws,), kwargs)
    return SearchState(procedure, fingerprint, tree.root, answer), answer


def _replay(
    engine: _CompiledAFA, witness: Any, accepting: bool
) -> bool | None:
    """Whether ``witness`` still yields ``accepting`` on the edited engine.

    ``None`` when the witness mentions symbols the engine lacks (cannot
    happen after a local edit, but the check keeps replay total).
    """
    mask = engine.final_mask
    for symbol in reversed(witness):
        rep = engine.rep_of.get(symbol)
        if rep is None:
            return None
        mask = engine.rows[rep](mask)
    return bool(engine.initial_fn(mask)) == accepting


def _search(
    engine: _CompiledAFA, accepting: bool, budget: Any
) -> tuple[Answer, int]:
    """One guarded BFS over the engine's rows; returns (answer, pops)."""
    start = engine.final_mask
    if engine.initial_fn(start) == accepting:
        return Answer.yes(witness=[], detail="delta search"), 0
    rows = list(enumerate(engine.rows[rep] for rep in engine.reps))
    guard = ensure_guard(budget) if budget is not None else None
    try:
        with guard.activate() if guard is not None else nullcontext():
            # Fetched under the activated guard: with no ambient guard
            # the checkpoint would be the shared no-op.
            ckpt = checkpoint_callable("delta.recheck")
            parents, hit, pops = generic_search(
                rows, start, accepting, engine.initial_fn, ckpt
            )
    except GuardTrip as error:
        return Answer.unknown(detail=error.trip.describe(), trip=error.trip), 0
    if hit is None:
        return Answer.no(detail="vector space exhausted (delta search)"), pops
    witness = _reconstruct_classes(parents, hit, engine.reps)
    return Answer.yes(witness=list(witness), detail="delta search"), pops


def recheck(
    procedure_fn: Callable[..., Answer],
    procedure: str,
    base: SWS,
    base_state: SearchState,
    base_tree: SubFingerprints,
    base_afa: AFA | None,
    new: SWS,
    kwargs: dict,
    budget: Any = None,
    new_tree: SubFingerprints | None = None,
) -> tuple[RecheckResult, SearchState, SubFingerprints, AFA | None]:
    """Re-check ``new`` against the snapshot of ``base``.

    Returns the result plus the *successor* snapshot, tree, and live AFA
    for the session to adopt.  ``base_afa`` may be ``None`` (cold
    session restored from the store); the warm path then rebuilds it
    once and later edits go incremental.
    """
    t0 = time.perf_counter()
    if new_tree is None:
        new_tree = sub_fingerprints(new)
    delta = compute_delta(base, new, base_tree, new_tree)
    accepting = _accepting_for(procedure, kwargs)

    pops = 0
    rows_patched = 0
    rows_reused = 0
    next_state = base_state
    next_afa = base_afa

    stored = base_state.answer
    if delta.is_empty and stored is not None and not stored.is_unknown:
        mode = "cached"
        answer = stored
    else:
        incremental = None
        if delta.is_local:
            if next_afa is None:
                next_afa = to_afa(base)
            incremental = to_afa_incremental(
                new, base, next_afa, delta.changed_states
            )
        if incremental is None:
            mode = "full"
            next_state, answer = solve_fresh(
                procedure_fn, procedure, new, kwargs, budget, new_tree
            )
            next_afa = None
        else:
            base_engine = next_afa._engine()
            next_afa = incremental
            dirty_pairs = {
                pair
                for state in delta.changed_states
                for pair in pair_states(state)
            }
            engine = None
            # Clean states' rows carry over only if some state is clean.
            if len(delta.changed_states) < len(base_tree.states):
                engine = patch_engine(base_engine, incremental, dirty_pairs)
            if engine is None:
                engine = incremental._engine()
            else:
                incremental._engine_cache = engine
                rows_patched = len(engine.reps)
                rows_reused = len(engine.order) - len(dirty_pairs)
            if (
                stored is not None
                and stored.is_yes
                and stored.witness is not None
                and _replay(engine, stored.witness, accepting)
            ):
                mode = "replay"
                answer = Answer.yes(
                    witness=list(stored.witness),
                    detail="delta replay: previous witness re-validated",
                )
            else:
                mode = "warm"
                answer, pops = _search(engine, accepting, budget)
            next_state = SearchState(
                procedure,
                job_fingerprint(procedure, (new,), kwargs),
                new_tree.root,
                answer,
            )

    elapsed = time.perf_counter() - t0
    metrics.counter("delta.recheck", mode=mode).inc()
    metrics.histogram("delta.recheck.latency_s", mode=mode).observe(elapsed)
    metrics.histogram("delta.edit.states").observe(len(delta.changed_states))
    if rows_reused:
        metrics.counter("delta.rows.reused").inc(rows_reused)
    result = RecheckResult(
        answer=answer,
        mode=mode,
        delta=delta,
        elapsed_s=elapsed,
        pops=pops,
        rows_patched=rows_patched,
        rows_reused=rows_reused,
    )
    return result, next_state, new_tree, next_afa
