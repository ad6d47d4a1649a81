"""The snapshot one solve of one instance leaves for the next re-check.

A :class:`SearchState` is the identity of the solved version (procedure,
job fingerprint, sub-fingerprint root) plus its answer.  The engine
reads only these: the root decides whether an edit is empty, and a YES
answer's witness is what a replay re-validates.  Row reuse needs no
snapshot tag: one AFA transition-row bit depends on exactly one SWS
state's rules, so :attr:`repro.delta.diff.InstanceDelta.changed_states`
already says which compiled rows
:func:`repro.automata.afa.patch_engine` keeps.

The snapshot holds only picklable data; compiled row closures live in
the owning session's process and are rebuilt after a cold load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["SearchState"]


@dataclass
class SearchState:
    """Snapshot of one (procedure, instance-version) solve."""

    procedure: str
    fingerprint: str
    root: str
    answer: Any = None

    def meta(self) -> dict:
        """JSON-friendly summary for store rows and CLI output."""
        return {
            "procedure": self.procedure,
            "root": self.root,
            "has_witness": getattr(self.answer, "witness", None) is not None,
            "verdict": getattr(
                getattr(self.answer, "verdict", None), "value", None
            ),
        }
