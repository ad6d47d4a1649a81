"""The interactive editing session: ``open → edit → recheck``.

A :class:`Session` owns one evolving instance for one procedure and
keeps everything a re-check can reuse: the current version's
sub-fingerprint tree, the live (incrementally rebuilt) AFA and patched
engine, and the :class:`~repro.delta.snapshot.SearchState` snapshot.
Decided answers flow into the serve-tier answer cache under the same
delta-aware job fingerprints the scheduler uses, so an edited spec that
later arrives through ``serve run`` hits the cache; snapshots persist
in the store's ``search_states`` table so a *new process* can reopen
the session and still re-check incrementally.

Obtain one directly, or from a running service via
:meth:`repro.serve.scheduler.SolverService.session` (which wires the
service's cache and store in).
"""

from __future__ import annotations

from typing import Any, Callable

from repro import metrics
from repro.core.sws import SWS
from repro.delta.diff import InstanceDelta, compute_delta
from repro.delta.engine import (
    DeltaError,
    RecheckResult,
    SUPPORTED_PROCEDURES,
    recheck,
    solve_fresh,
)
from repro.delta.snapshot import SearchState
from repro.serve.fingerprint import job_fingerprint, sub_fingerprints

__all__ = ["Session"]


def _resolve_procedure(procedure: str) -> Callable[..., Any]:
    from repro.serve.registry import PROCEDURES

    try:
        return PROCEDURES[procedure]
    except KeyError:
        raise DeltaError(f"unknown procedure {procedure!r}") from None


class Session:
    """One editable instance, checked incrementally across versions."""

    def __init__(
        self,
        sws: SWS,
        procedure: str = "nonempty_pl",
        *,
        cache: Any = None,
        store: Any = None,
        budget: Any = None,
        **kwargs: Any,
    ) -> None:
        if procedure not in SUPPORTED_PROCEDURES:
            raise DeltaError(
                f"procedure {procedure!r} has no incremental re-check "
                f"(supported: {', '.join(sorted(SUPPORTED_PROCEDURES))})"
            )
        self.procedure = procedure
        self.procedure_fn = _resolve_procedure(procedure)
        self.kwargs = kwargs
        self.cache = cache
        self.store = store if store is not None else getattr(cache, "store", None)
        self.budget = budget
        self.current = sws
        self.tree = sub_fingerprints(sws)
        self.fingerprint = job_fingerprint(procedure, (sws,), kwargs)
        self.state: SearchState | None = None
        self.afa = None
        self.pending: SWS | None = None
        self.pending_tree = None
        self.rechecks = 0
        self.modes: dict[str, int] = {}
        metrics.counter("delta.sessions.opened").inc()

    # -- lifecycle ---------------------------------------------------------------

    def check(self, budget: Any = None) -> Any:
        """The initial (or current-version) answer, solving if needed.

        Tries, in order: the in-session snapshot, a persisted snapshot
        from the store, the answer cache, then a fresh solve.
        """
        if self.state is not None and self.state.answer is not None:
            return self.state.answer
        restored = self._load_snapshot()
        if restored is not None:
            self.state = restored
            if restored.answer is not None and not restored.answer.is_unknown:
                return restored.answer
        cached = self._cache_get()
        if cached is not None:
            if self.state is None:
                self.state = SearchState(
                    self.procedure, self.fingerprint, self.tree.root, cached
                )
            return cached
        self.state, answer = solve_fresh(
            self.procedure_fn,
            self.procedure,
            self.current,
            self.kwargs,
            budget if budget is not None else self.budget,
            self.tree,
        )
        self._publish(answer)
        return answer

    def edit(self, new: SWS) -> InstanceDelta:
        """Stage ``new`` as the next version; returns its delta.

        Staging is idempotent — a second ``edit`` before ``recheck``
        replaces the pending version.  The delta is diagnostic here;
        ``recheck`` recomputes it against whatever is finally staged.
        """
        self.pending_tree = sub_fingerprints(new)
        delta = compute_delta(self.current, new, self.tree, self.pending_tree)
        self.pending = new
        return delta

    def recheck(self, budget: Any = None) -> RecheckResult:
        """Re-check the staged (or current) version incrementally."""
        if self.state is None or self.state.answer is None:
            self.check(budget)
        new = self.pending if self.pending is not None else self.current
        new_tree = self.pending_tree if self.pending is not None else self.tree
        assert self.state is not None
        result, next_state, next_tree, next_afa = recheck(
            self.procedure_fn,
            self.procedure,
            self.current,
            self.state,
            self.tree,
            self.afa,
            new,
            self.kwargs,
            budget if budget is not None else self.budget,
            new_tree,
        )
        self.current = new
        self.tree = next_tree
        self.state = next_state
        self.afa = next_afa
        self.fingerprint = next_state.fingerprint
        self.pending = None
        self.pending_tree = None
        self.rechecks += 1
        self.modes[result.mode] = self.modes.get(result.mode, 0) + 1
        self._publish(result.answer)
        return result

    # -- persistence -------------------------------------------------------------

    def _publish(self, answer: Any) -> None:
        if answer is None:
            return
        if self.cache is not None and not answer.is_unknown:
            try:
                self.cache.put(self.fingerprint, answer, self.procedure)
            except Exception:  # noqa: BLE001 - cache degradation is non-fatal
                pass
        if self.store is not None and self.state is not None:
            try:
                self.store.put_search_state(
                    self.procedure,
                    self.fingerprint,
                    self.state,
                    meta=self.state.meta(),
                )
            except Exception:  # noqa: BLE001 - persistence is best-effort
                pass

    def _load_snapshot(self) -> SearchState | None:
        if self.store is None:
            return None
        try:
            state = self.store.get_search_state(self.procedure, self.fingerprint)
        except Exception:  # noqa: BLE001
            return None
        if not isinstance(state, SearchState):
            return None
        if state.root != self.tree.root:
            return None
        return state

    def _cache_get(self) -> Any | None:
        if self.cache is None:
            return None
        try:
            return self.cache.get(self.fingerprint, self.procedure)
        except Exception:  # noqa: BLE001
            return None

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-friendly session counters for CLIs and tests."""
        warm_modes = sum(
            count for mode, count in self.modes.items() if mode != "full"
        )
        return {
            "procedure": self.procedure,
            "fingerprint": self.fingerprint,
            "rechecks": self.rechecks,
            "modes": dict(sorted(self.modes.items())),
            "incremental_rechecks": warm_modes,
            "states": len(self.current.states),
        }
