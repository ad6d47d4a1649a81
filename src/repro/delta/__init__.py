"""repro.delta — incremental re-solving for edited services.

The paper's decision procedures are one-shot; this subsystem turns them
into an interactive editing backend.  An edit to a service almost never
changes most of it, so a re-check should cost what the *edit* costs, not
what the *service* costs:

* :mod:`repro.delta.diff` — structural deltas from per-state
  sub-fingerprint Merkle trees (:func:`repro.serve.fingerprint.sub_fingerprints`).
* :mod:`repro.delta.snapshot` — :class:`SearchState`: what a solve
  leaves for the next re-check (the version's identity and its answer).
* :mod:`repro.delta.engine` — the re-check itself: cached / replay /
  warm / full, cheapest sound mode first.
* :mod:`repro.delta.session` — :class:`Session`: ``open → edit →
  recheck``, wired into the serve cache and the store's
  ``search_states`` table.
* ``python -m repro.delta`` — diff two versions, or replay an edit
  script from :mod:`repro.workloads.editing` and report per-step modes.

See ``docs/INCREMENTAL.md`` for the soundness argument per mode.
"""

from repro.delta.diff import InstanceDelta, affected_cone, compute_delta
from repro.delta.engine import DeltaError, RecheckResult, SUPPORTED_PROCEDURES
from repro.delta.session import Session
from repro.delta.snapshot import SearchState

__all__ = [
    "DeltaError",
    "InstanceDelta",
    "RecheckResult",
    "SUPPORTED_PROCEDURES",
    "SearchState",
    "Session",
    "affected_cone",
    "compute_delta",
]
