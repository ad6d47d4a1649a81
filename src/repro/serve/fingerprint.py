"""Deterministic structural fingerprints for problem instances.

The answer cache and the in-flight deduplication of :mod:`repro.serve`
key on *what is being asked*: the decision procedure plus the structure
of its instance.  Python's builtin ``hash`` (and anything derived from
``repr`` of sets/dicts) varies with ``PYTHONHASHSEED`` and with
construction order, so fingerprints are computed over an explicit
canonical form instead:

* unordered containers (sets, dicts, ``DatabaseSchema``, mediator rule
  maps) are serialized in sorted order, and so are the parts a query's
  own equality treats as sets: CQ atoms and comparisons, UCQ disjuncts;
* ordered containers (tuples of transition targets, query heads, FO
  operands) keep their order — position is semantics there (``A1``
  refers to the first successor);
* an SWS has one scheme, the per-state Merkle tree of
  :func:`sub_fingerprints`: one digest per state's rules, one for the
  global fields, and a root over both.  Its canonical form *is* that
  root, so job keys, mediator components and :mod:`repro.delta` diffs
  all agree, and a resubmitted or edited service costs one dictionary
  lookup per unchanged state rather than a walk of every rule;
* subset-valued automaton states reuse the canonical naming discipline
  of :func:`repro.automata.afa.symbol_sort_key` /
  ``_canonical_state_name`` from PR 1, so a determinized DFA fingerprints
  identically however its frozenset states were built;
* ``name`` attributes are **excluded** — they are labels, not structure,
  so renaming a service does not lose its cache entries.

The memos behind the tree are keyed on values, not on objects, and the
keys are exact: two keys are equal only when their canonical forms are.
Query constants compare by Python value, as query evaluation does, so
``Constant(1)``, ``Constant(1.0)`` and ``Constant(True)`` are one
constant and share one canonical form (:func:`_constant_value`).  What
a digest is therefore never depends on what the process saw first.

The fingerprint is the SHA-256 of the canonical form, making collisions
between distinct instances negligible; equal fingerprints are treated as
"the same question" by the cache and scheduler.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Mapping

from repro.automata.afa import AFA
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.core.sws import SWS, SynthesisRule, TransitionRule
from repro.data.database import Database
from repro.data.input_sequence import InputSequence
from repro.data.relation import Relation
from repro.data.schema import DatabaseSchema, RelationSchema
from repro.errors import ReproError
from repro.guard import Budget
from repro.logic import fo, pl
from repro.logic.cq import Atom, Comparison, ConjunctiveQuery, LabeledNull
from repro.logic.terms import Constant, Variable
from repro.logic.ucq import UnionQuery
from repro.mediator.mediator import Mediator, MediatorTransitionRule

__all__ = [
    "FingerprintError",
    "SubFingerprints",
    "canonical",
    "fingerprint",
    "job_fingerprint",
    "sub_fingerprints",
]


class FingerprintError(ReproError):
    """Raised for values no canonical form is defined for."""


def _seq(items: Iterable[Any]) -> tuple:
    return tuple(canonical(item) for item in items)


def _sorted_set(items: Iterable[Any]) -> tuple:
    # Canonical forms are heterogeneous trees; repr gives them a total,
    # deterministic order where direct comparison would raise TypeError
    # (e.g. the ε transition label None next to string symbols).
    return tuple(sorted(_seq(items), key=repr))


def _sorted_map(mapping: Mapping[Any, Any]) -> tuple:
    return tuple(
        sorted(
            ((canonical(k), canonical(v)) for k, v in mapping.items()),
            key=repr,
        )
    )


#: Canonical forms of PL nodes, memoized.  Hash-consing makes formulas
#: DAGs with heavy sharing; a plain tree recursion re-expands every
#: shared subformula (exponentially, in the worst case), while the memo
#: keeps the walk linear in DAG size.  Interning also keeps the nodes
#: alive process-wide, so a bounded plain dict is the right cache shape;
#: it is cleared when full.  SWS rules reach it only on a miss of
#: :data:`_STATE_DIGEST_MEMO`, so one-off services add few nodes.
_PL_CANON_MEMO: dict[pl.Formula, tuple] = {}
_PL_CANON_MEMO_LIMIT = 8_192


def _pl_formula(formula: pl.Formula) -> tuple:
    cached = _PL_CANON_MEMO.get(formula)
    if cached is not None:
        return cached
    if isinstance(formula, pl.Var):
        result = ("pl.var", formula.name)
    elif isinstance(formula, pl.Const):
        result = ("pl.const", formula.value)
    elif isinstance(formula, pl.Not):
        result = ("pl.not", _pl_formula(formula.operand))
    elif isinstance(formula, pl.And):
        result = ("pl.and", tuple(_pl_formula(op) for op in formula.operands))
    elif isinstance(formula, pl.Or):
        result = ("pl.or", tuple(_pl_formula(op) for op in formula.operands))
    else:
        raise FingerprintError(f"unknown PL node {type(formula).__name__}")
    return _remember(_PL_CANON_MEMO, _PL_CANON_MEMO_LIMIT, formula, result)


def _fo_formula(formula: fo.FOFormula) -> tuple:
    if isinstance(formula, fo.RelAtom):
        return ("fo.atom", formula.atom.relation, _seq(formula.atom.terms))
    if isinstance(formula, fo.Equals):
        return ("fo.eq", canonical(formula.left), canonical(formula.right))
    if isinstance(formula, fo.NotF):
        return ("fo.not", _fo_formula(formula.operand))
    if isinstance(formula, fo.AndF):
        return ("fo.and", tuple(_fo_formula(op) for op in formula.operands))
    if isinstance(formula, fo.OrF):
        return ("fo.or", tuple(_fo_formula(op) for op in formula.operands))
    if isinstance(formula, (fo.Exists, fo.Forall)):
        tag = "fo.exists" if isinstance(formula, fo.Exists) else "fo.forall"
        return (tag, _seq(formula.variables), _fo_formula(formula.body))
    raise FingerprintError(f"unknown FO node {type(formula).__name__}")


def _transition_rule(rule: TransitionRule) -> tuple:
    # Target order is positional semantics (A1, A2, ... registers).
    return tuple((target, canonical(query)) for target, query in rule.targets)


def _mediator(mediator: Mediator) -> tuple:
    return (
        "mediator",
        _sorted_set(mediator.states),
        mediator.start,
        tuple(
            sorted(
                (state, tuple(rule.targets))
                for state, rule in mediator.transitions.items()
            )
        ),
        tuple(
            sorted(
                (state, canonical(rule.query))
                for state, rule in mediator.synthesis.items()
            )
        ),
        tuple(
            sorted(
                (component, canonical(sws))
                for component, sws in mediator.components.items()
            )
        ),
    )


def _afa(afa: AFA) -> tuple:
    return (
        "afa",
        _sorted_set(afa.states),
        _sorted_set(afa.alphabet),
        tuple(
            sorted(
                (((canonical(state), canonical(symbol)), _pl_formula(formula))
                for (state, symbol), formula in afa.transitions.items()),
                key=repr,
            )
        ),
        _pl_formula(afa.initial_condition),
        _sorted_set(afa.finals),
    )


def _nfa(nfa: NFA) -> tuple:
    return (
        "nfa",
        _sorted_set(nfa.states),
        _sorted_set(nfa.alphabet),
        tuple(
            sorted(
                (((canonical(state), canonical(symbol)), _sorted_set(targets))
                for (state, symbol), targets in nfa.transitions.items()),
                key=repr,
            )
        ),
        _sorted_set(nfa.initials),
        _sorted_set(nfa.finals),
    )


def _dfa(dfa: DFA) -> tuple:
    return (
        "dfa",
        _sorted_set(dfa.states),
        _sorted_set(dfa.alphabet),
        tuple(
            sorted(
                (((canonical(state), canonical(symbol)), canonical(target))
                for (state, symbol), target in dfa.transitions.items()),
                key=repr,
            )
        ),
        canonical(dfa.initial),
        _sorted_set(dfa.finals),
    )


def _constant_value(value: Any) -> Any:
    """One form per equality class of a query constant's value.

    ``Constant`` equality is Python value equality, so the form sends
    equal values to one form: a bool or an integral float becomes its
    int, and a tuple is formed element-wise.  Other types raise :class:`FingerprintError` rather than risk a form that equal
    values do not share.
    """
    if isinstance(value, bool) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    if value is None or isinstance(value, (int, float, str, bytes)):
        return value
    if isinstance(value, tuple):
        return ("seq", tuple(_constant_value(item) for item in value))
    raise FingerprintError(
        f"no canonical form for a constant of type {type(value).__name__}"
    )


def _cq(query: ConjunctiveQuery) -> tuple:
    # Atoms and comparisons are sets, as in ConjunctiveQuery.__eq__:
    # listing the same body in another order asks the same question.
    atoms = {("atom", atom.relation, _seq(atom.terms)) for atom in query.atoms}
    comparisons = {
        ("neq" if c.negated else "eq", canonical(c.left), canonical(c.right))
        for c in query.comparisons
    }
    return (
        "cq",
        _seq(query.head),
        tuple(sorted(atoms, key=repr)),
        tuple(sorted(comparisons, key=repr)),
    )


def canonical(value: Any) -> Any:
    """The canonical, order- and hash-seed-independent form of ``value``.

    Returns a tree of primitives and tuples whose ``repr`` is
    deterministic; :func:`fingerprint` hashes that representation.
    Raises :class:`FingerprintError` for values with no defined form.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, (tuple, list)):
        return ("seq", _seq(value))
    if isinstance(value, (set, frozenset)):
        return ("set", _sorted_set(value))
    if isinstance(value, dict):
        return ("map", _sorted_map(value))
    if isinstance(value, pl.Formula):
        return _pl_formula(value)
    if isinstance(value, SWS):
        return ("sws", _tree(value).root)
    if isinstance(value, Mediator):
        return _mediator(value)
    if isinstance(value, AFA):
        return _afa(value)
    if isinstance(value, NFA):
        return _nfa(value)
    if isinstance(value, DFA):
        return _dfa(value)
    if isinstance(value, ConjunctiveQuery):
        return _cq(value)
    if isinstance(value, UnionQuery):
        # Disjuncts are a set, as in UnionQuery.__eq__.
        disjuncts = {_cq(d) for d in value.disjuncts}
        return ("ucq", value.arity, tuple(sorted(disjuncts, key=repr)))
    if isinstance(value, fo.FOQuery):
        return ("fo.query", _seq(value.head), _fo_formula(value.formula))
    if isinstance(value, fo.FOFormula):
        return _fo_formula(value)
    if isinstance(value, Variable):
        return ("var", value.name)
    if isinstance(value, Constant):
        return ("const", _constant_value(value.value))
    if isinstance(value, LabeledNull):
        return ("null", value.label)
    if isinstance(value, Atom):
        return ("atom", value.relation, _seq(value.terms))
    if isinstance(value, Comparison):
        return (
            "neq" if value.negated else "eq",
            canonical(value.left),
            canonical(value.right),
        )
    if isinstance(value, RelationSchema):
        return ("rschema", value.name, tuple(value.attributes))
    if isinstance(value, DatabaseSchema):
        return ("dschema", tuple(sorted((n, canonical(r)) for n, r in value.items())))
    if isinstance(value, Relation):
        return ("relation", canonical(value.schema), _sorted_set(value.rows))
    if isinstance(value, Database):
        return (
            "database",
            canonical(value.schema),
            tuple(sorted((n, canonical(value[n])) for n in value.schema)),
        )
    if isinstance(value, InputSequence):
        return (
            "input",
            canonical(value.schema),
            tuple(canonical(message) for message in value),
        )
    if isinstance(value, Budget):
        # Budgets never enter fingerprints (a decided answer does not
        # depend on the budget it was computed under), but give them a
        # canonical form so job *labels* can include them.
        return ("budget", tuple(sorted(value.as_dict().items())))
    raise FingerprintError(
        f"no canonical form for {type(value).__name__}; "
        "register one in repro.serve.fingerprint"
    )


def fingerprint(value: Any) -> str:
    """SHA-256 hex digest of ``value``'s canonical form."""
    return _digest(canonical(value))


#: Per-state digest memo, keyed on the state's ``(TransitionRule,
#: SynthesisRule)`` pair by value.  Rules are frozen dataclasses over
#: hash-consed formulas or value-compared queries, so edited copies of a
#: service (which share rule objects for untouched states) and services
#: rebuilt by the same builder both hit here without re-canonicalizing
#: the rules.  The key is exact: rule equality implies canonical
#: equality (see the module docstring).  Cleared when full; a catalog
#: of services keeps well under the limit, and one-off services cannot
#: grow it past it.
_STATE_DIGEST_MEMO: dict[tuple[TransitionRule, SynthesisRule], str] = {}
_STATE_DIGEST_MEMO_LIMIT = 1_024

#: Global-field digest memo, keyed on (kind, state set, start, schemas,
#: output arity) by value.
_GLOBALS_DIGEST_MEMO: dict[tuple, str] = {}
_GLOBALS_DIGEST_MEMO_LIMIT = 1_024


def _remember(memo: dict, limit: int, key: Any, value: Any) -> Any:
    if len(memo) >= limit:
        memo.clear()
    memo[key] = value
    return value


def _digest(payload: Any) -> str:
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


class SubFingerprints:
    """Merkle tree of an SWS: its canonical form and what a diff reads.

    ``states`` maps each state to the digest of its local rules
    (transition rule + synthesis rule); ``globals_digest`` covers
    everything that is not local to one state (kind, state set, start
    state, schemas, output arity).  ``root`` hashes the two layers
    together and is the SWS's canonical form, so two instances have
    equal roots exactly when they have equal :func:`fingerprint`\\ s —
    and a diff of two trees localizes *which* states changed without
    comparing rules.
    """

    __slots__ = ("root", "globals_digest", "states")

    def __init__(self, root: str, globals_digest: str, states: Mapping[str, str]):
        self.root = root
        self.globals_digest = globals_digest
        self.states = dict(states)

    def changed_states(self, other: "SubFingerprints") -> frozenset[str]:
        """States whose local digest differs (or exists on one side only)."""
        mine, theirs = self.states, other.states
        changed = {
            state
            for state in mine.keys() | theirs.keys()
            if mine.get(state) != theirs.get(state)
        }
        return frozenset(changed)


def _tree(sws: SWS) -> SubFingerprints:
    # Computed once per instance: the tree is kept on the SWS (which
    # drops it when pickled), so keying a job on a service the caller
    # already diffed costs an attribute read.
    tree = sws._tree
    if tree is not None:
        return tree
    states: dict[str, str] = {}
    for state in sws.states:
        key = (sws.transitions[state], sws.synthesis[state])
        digest = _STATE_DIGEST_MEMO.get(key)
        if digest is None:
            rule, synth = key
            payload = ("sws.state", _transition_rule(rule), canonical(synth.query))
            digest = _remember(
                _STATE_DIGEST_MEMO, _STATE_DIGEST_MEMO_LIMIT, key, _digest(payload)
            )
        states[state] = digest
    key = (
        sws.kind,
        frozenset(sws.states),
        sws.start,
        sws.db_schema,
        sws.input_schema,
        sws.output_arity,
    )
    globals_digest = _GLOBALS_DIGEST_MEMO.get(key)
    if globals_digest is None:
        payload = (
            "sws.globals",
            sws.kind.value,
            _sorted_set(sws.states),
            sws.start,
            canonical(sws.db_schema),
            canonical(sws.input_schema),
            sws.output_arity,
        )
        globals_digest = _remember(
            _GLOBALS_DIGEST_MEMO, _GLOBALS_DIGEST_MEMO_LIMIT, key, _digest(payload)
        )
    root = _digest(("sws.root", globals_digest, tuple(sorted(states.items()))))
    tree = sws._tree = SubFingerprints(root, globals_digest, states)
    return tree


def sub_fingerprints(sws: SWS) -> SubFingerprints:
    """The per-state Merkle tree of ``sws``; its root is the SWS's canonical form."""
    if not isinstance(sws, SWS):
        raise FingerprintError(
            f"sub_fingerprints is defined for SWS instances, not {type(sws).__name__}"
        )
    return _tree(sws)


def job_fingerprint(
    procedure: str, args: tuple = (), kwargs: Mapping[str, Any] | None = None
) -> str:
    """Fingerprint of a whole job: procedure name + instance arguments.

    Resource budgets are deliberately *not* part of the key: the
    procedures are sound, so any decided (YES/NO) answer is
    budget-independent, and guard-tripped UNKNOWN answers are never
    cached in the first place.  Procedure parameters that change the
    *question* (``max_session_length``, ``invocation_bound``, ...)
    arrive through ``args``/``kwargs`` and are included.
    """
    payload = (
        "job",
        procedure,
        _seq(args),
        tuple(sorted((k, canonical(v)) for k, v in (kwargs or {}).items())),
    )
    return _digest(payload)
