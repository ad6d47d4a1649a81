"""Synthesized Web services (Definition 2.1).

An SWS ``τ = (Q, δ, σ, q0)`` over schemas ``R`` (local database), ``Rin``
(input messages) and ``Rout`` (output actions) has, for every state ``q``,

* one transition rule ``δ(q): q → (q1, φ1), ..., (qk, φk)`` — each ``φi``
  is a query from ``R, Rin, Msg(q)`` to ``Msg(qi)``; ``k = 0`` marks a
  *final* state;
* one synthesis rule ``σ(q): Act(q) ← ψ`` — for ``k > 0``, ``ψ`` reads the
  successor action registers ``Act(q1), ..., Act(qk)``; for ``k = 0`` it
  reads ``R, Rin, Msg(q)``.

The start state never occurs on a rule's right-hand side.

Two query regimes share this one data type:

* **PL services** (``SWSKind.PL``): queries are propositional formulas;
  registers hold a single truth value; the local database is empty.  In a
  transition formula the reserved variable ``Msg`` denotes the parent's
  register and the remaining variables are input variables.  In an internal
  synthesis formula the variables ``A1, ..., Ak`` denote the successors'
  registers positionally (aliases ``Act_<state>`` work when successor
  states are pairwise distinct); a final synthesis formula uses input
  variables and ``Msg``.
* **Relational services** (``SWSKind.RELATIONAL``): queries are
  :class:`~repro.logic.cq.ConjunctiveQuery`,
  :class:`~repro.logic.ucq.UnionQuery` or
  :class:`~repro.logic.fo.FOQuery` objects over the database relations plus
  the reserved relation names ``In`` (the current input message, payload
  attributes only) and ``Msg`` (the parent register); internal synthesis
  queries range over ``Act1, ..., Actk`` (aliases ``Act_<state>`` when
  unambiguous).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Union

from repro.data.schema import DatabaseSchema, RelationSchema
from repro.errors import SWSDefinitionError
from repro.logic import pl
from repro.logic.cq import ConjunctiveQuery
from repro.logic.fo import FOQuery
from repro.logic.ucq import UnionQuery

#: Reserved relation/variable names inside rule queries.
MSG = "Msg"
IN = "In"

RelationalQuery = Union[ConjunctiveQuery, UnionQuery, FOQuery]
Query = Union[pl.Formula, RelationalQuery]


class SWSKind(Enum):
    """The two query regimes an SWS can be written in."""

    PL = "pl"
    RELATIONAL = "relational"


@dataclass(frozen=True)
class TransitionRule:
    """``δ(q): q → (q1, φ1), ..., (qk, φk)``; empty targets = final state."""

    targets: tuple[tuple[str, Query], ...]

    def __init__(self, targets: Iterable[tuple[str, Query]] = ()) -> None:
        object.__setattr__(self, "targets", tuple(targets))

    @property
    def is_final(self) -> bool:
        """Whether the rule's right-hand side is empty (``k = 0``)."""
        return not self.targets

    @property
    def successor_states(self) -> tuple[str, ...]:
        """Successor state names, in order (possibly with repeats)."""
        return tuple(state for state, _query in self.targets)

    def __len__(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class SynthesisRule:
    """``σ(q): Act(q) ← ψ``."""

    query: Query


class SWS:
    """A synthesized Web service (Definition 2.1)."""

    #: The service's sub-fingerprint tree, computed on first use by
    #: :func:`repro.serve.fingerprint.sub_fingerprints`; pickling drops it.
    _tree = None

    def __init__(
        self,
        states: Iterable[str],
        start: str,
        transitions: Mapping[str, TransitionRule],
        synthesis: Mapping[str, SynthesisRule],
        *,
        kind: SWSKind,
        db_schema: DatabaseSchema | None = None,
        input_schema: RelationSchema | None = None,
        output_arity: int | None = None,
        name: str = "τ",
    ) -> None:
        self.states = tuple(dict.fromkeys(states))
        self.start = start
        self.transitions = dict(transitions)
        self.synthesis = dict(synthesis)
        self.kind = kind
        self.name = name
        self.db_schema = db_schema if db_schema is not None else DatabaseSchema()
        self.input_schema = input_schema
        self.output_arity = output_arity
        self._validate()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_tree", None)
        return state

    # -- validation (Definition 2.1 well-formedness) ------------------------------------

    def _validate(self) -> None:
        state_set = set(self.states)
        if self.start not in state_set:
            raise SWSDefinitionError(
                f"start state {self.start!r} is not among the states"
            )
        missing_t = state_set - set(self.transitions)
        missing_s = state_set - set(self.synthesis)
        if missing_t:
            raise SWSDefinitionError(
                f"states without a transition rule: {sorted(missing_t)}"
            )
        if missing_s:
            raise SWSDefinitionError(
                f"states without a synthesis rule: {sorted(missing_s)}"
            )
        extra = (set(self.transitions) | set(self.synthesis)) - state_set
        if extra:
            raise SWSDefinitionError(f"rules for unknown states: {sorted(extra)}")
        for state, rule in self.transitions.items():
            for target, _query in rule.targets:
                if target not in state_set:
                    raise SWSDefinitionError(
                        f"transition of {state!r} targets unknown state {target!r}"
                    )
                if target == self.start:
                    raise SWSDefinitionError(
                        "the start state must not appear on any rule's rhs "
                        f"(found in δ({state!r}))"
                    )
        if self.kind is SWSKind.RELATIONAL:
            self._validate_relational()
        else:
            self._validate_pl()

    def _validate_relational(self) -> None:
        if self.input_schema is None or self.output_arity is None:
            raise SWSDefinitionError(
                "relational SWS's need an input payload schema and output arity"
            )
        payload_arity = self.input_schema.arity
        for state, rule in self.transitions.items():
            for target, query in rule.targets:
                if isinstance(query, pl.Formula):
                    raise SWSDefinitionError(
                        f"δ({state!r}) uses a PL formula in a relational SWS"
                    )
                if query.arity != payload_arity:
                    raise SWSDefinitionError(
                        f"δ({state!r})→{target!r} query has arity {query.arity}, "
                        f"Msg registers need {payload_arity}"
                    )
        for state, rule in self.synthesis.items():
            query = rule.query
            if isinstance(query, pl.Formula):
                raise SWSDefinitionError(
                    f"σ({state!r}) uses a PL formula in a relational SWS"
                )
            if query.arity != self.output_arity:
                raise SWSDefinitionError(
                    f"σ({state!r}) has arity {query.arity}, "
                    f"Act registers need {self.output_arity}"
                )

    def _validate_pl(self) -> None:
        for state, rule in self.transitions.items():
            for _target, query in rule.targets:
                if not isinstance(query, pl.Formula):
                    raise SWSDefinitionError(
                        f"δ({state!r}) must use PL formulas in a PL SWS"
                    )
        for state, rule in self.synthesis.items():
            if not isinstance(rule.query, pl.Formula):
                raise SWSDefinitionError(
                    f"σ({state!r}) must use a PL formula in a PL SWS"
                )
            if not self.transitions[state].is_final:
                k = len(self.transitions[state])
                allowed = self._internal_synthesis_names(state)
                stray = rule.query.variables() - allowed
                if stray:
                    raise SWSDefinitionError(
                        f"σ({state!r}) mentions {sorted(stray)}; internal "
                        f"synthesis formulas may only use A1..A{k} "
                        "(or unambiguous Act_<state> aliases)"
                    )

    def _internal_synthesis_names(self, state: str) -> frozenset[str]:
        rule = self.transitions[state]
        names = {f"A{i + 1}" for i in range(len(rule))}
        successors = rule.successor_states
        for target in successors:
            if successors.count(target) == 1:
                names.add(f"Act_{target}")
        return frozenset(names)

    def successor_register_aliases(self, state: str) -> dict[str, int]:
        """Map internal-synthesis register names to successor positions.

        Both positional names (``A1``/``Act1``, ...) and unambiguous
        ``Act_<state>`` aliases are included; used by both run engines.
        """
        rule = self.transitions[state]
        aliases: dict[str, int] = {}
        for i in range(len(rule)):
            aliases[f"A{i + 1}"] = i
            aliases[f"Act{i + 1}"] = i
        successors = rule.successor_states
        for i, target in enumerate(successors):
            if successors.count(target) == 1:
                aliases[f"Act_{target}"] = i
        return aliases

    # -- dependency graph (Section 2, "SWS classes") -------------------------------------

    def dependency_edges(self) -> frozenset[tuple[str, str]]:
        """Edges q → qi of the dependency graph Gτ."""
        return frozenset(
            (state, target)
            for state, rule in self.transitions.items()
            for target, _query in rule.targets
        )

    def is_recursive(self) -> bool:
        """Whether Gτ is cyclic (the SWS is recursively defined)."""
        return self._cycle_or_depth()[0]

    def depth(self) -> int:
        """Longest path length (in edges) of the dependency DAG.

        Only defined for nonrecursive SWS's; the execution tree of a
        nonrecursive service has depth at most ``depth() + 1`` nodes along
        any branch, so the service consumes at most ``depth() + 1`` input
        messages (k-prefix behaviour — see Theorem 5.1(4)).
        """
        recursive, depth = self._cycle_or_depth()
        if recursive:
            raise SWSDefinitionError(f"{self.name}: depth() on a recursive SWS")
        return depth

    def _cycle_or_depth(self) -> tuple[bool, int]:
        edges: dict[str, list[str]] = {s: [] for s in self.states}
        for source, target in self.dependency_edges():
            edges[source].append(target)
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {s: WHITE for s in self.states}
        longest = {s: 0 for s in self.states}

        def visit(state: str) -> bool:
            color[state] = GRAY
            best = 0
            for target in edges[state]:
                if color[target] == GRAY:
                    return True
                if color[target] == WHITE and visit(target):
                    return True
                best = max(best, longest[target] + 1)
            longest[state] = best
            color[state] = BLACK
            return False

        for state in self.states:
            if color[state] == WHITE and visit(state):
                return True, 0
        return False, longest[self.start]

    def reachable_states(self) -> frozenset[str]:
        """States reachable from the start state in Gτ."""
        edges: dict[str, list[str]] = {s: [] for s in self.states}
        for source, target in self.dependency_edges():
            edges[source].append(target)
        seen: set[str] = set()
        stack = [self.start]
        while stack:
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            stack.extend(edges[state])
        return frozenset(seen)

    def query_constants(self) -> frozenset:
        """Data constants mentioned anywhere in the service's rule queries.

        Bounded analyses must include these in their search domains: a
        transition guarded by ``tag = 'a'`` can only fire on instances that
        actually contain ``'a'``.
        """
        from repro.logic.cq import ConjunctiveQuery
        from repro.logic.fo import FOQuery
        from repro.logic.ucq import UnionQuery

        values: set = set()

        def collect(query) -> None:
            if isinstance(query, ConjunctiveQuery):
                values.update(c.value for c in query.constants())
            elif isinstance(query, UnionQuery):
                for disjunct in query.disjuncts:
                    values.update(c.value for c in disjunct.constants())
            elif isinstance(query, FOQuery):
                values.update(c.value for c in query.formula.constants())

        for rule in self.transitions.values():
            for _target, query in rule.targets:
                collect(query)
        for rule in self.synthesis.values():
            collect(rule.query)
        return frozenset(values)

    # -- PL conveniences --------------------------------------------------------------------

    def input_variables(self) -> frozenset[str]:
        """For PL services: the input variables the service inspects.

        All variables of transition formulas and final synthesis formulas,
        minus the reserved register name ``Msg``.
        """
        if self.kind is not SWSKind.PL:
            raise SWSDefinitionError("input_variables() is for PL services")
        names: set[str] = set()
        for state, rule in self.transitions.items():
            for _target, query in rule.targets:
                assert isinstance(query, pl.Formula)
                names |= query.variables()
            if rule.is_final:
                sigma = self.synthesis[state].query
                assert isinstance(sigma, pl.Formula)
                names |= sigma.variables()
        return frozenset(names) - {MSG}

    # -- running (delegates to repro.core.run) ------------------------------------------------

    def run(self, *args, **kwargs):
        """Run the service; see :func:`repro.core.run.run`."""
        from repro.core.run import run

        return run(self, *args, **kwargs)

    def __repr__(self) -> str:
        shape = "recursive" if self.is_recursive() else "nonrecursive"
        return (
            f"SWS({self.name!r}, {self.kind.value}, {len(self.states)} states, "
            f"{shape})"
        )
