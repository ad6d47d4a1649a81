"""Expansion of SWS(CQ, UCQ) services into UCQ≠ queries.

For a *fixed session length* ``n``, the execution tree of a CQ/UCQ service
has a fixed shape (every node spawns all successors until the input is
exhausted), and all rule queries are positive; composing the queries along
the tree therefore turns the whole run into a single UCQ with inequalities
over the database relations and per-step input relations ``In_1, ..., In_n``:

    τ(D, I1..In)  =  Q_n(D, In_1 ← I1, ..., In_n ← In).

The paper uses this expansion implicitly throughout Section 4: nonrecursive
services are "converted to UCQ queries with inequality" (Section 5.2), the
PSPACE non-emptiness bound for SWS_nr(CQ, UCQ) checks the (exponentially
large) expansion disjunct-by-disjunct, and the coNEXPTIME equivalence bound
applies Klug-style containment to two expansions.

Semantics captured exactly:

* the empty-register cutoff at internal nodes (rule (1)) becomes a
  *nonemptiness guard*: each disjunct of an internal state's action query is
  conjoined with the (existentially quantified) body of the state's message
  definition — positive, hence still UCQ;
* input exhaustion (``j > n``) empties internal contributions and makes
  ``In_j`` the empty relation at final nodes;
* the root is exempt from the empty-register cutoff (the paper's special
  case), and its message definition is the empty query.

For a nonrecursive service of dependency depth ``d``, ``Q_n`` is literally
the same query for every ``n ≥ d + 1`` (no node has a larger timestamp), so
:func:`saturation_length` bounds the lengths any analysis must consider —
this is the k-prefix phenomenon of Theorem 5.1(4) in relational form.
"""

from __future__ import annotations

from typing import Mapping

from repro._stats import STATS
from repro.core.classes import SWSClass, is_in_class, require_class
from repro.core.sws import IN, MSG, SWS, SWSKind
from repro.data.database import Database
from repro.data.input_sequence import InputSequence
from repro.data.relation import Relation, Row
from repro.data.schema import RelationSchema
from repro.errors import AnalysisError
from repro.logic.cq import Atom, ConjunctiveQuery
from repro.logic.terms import FreshVariableFactory, Variable
from repro.logic.ucq import UnionQuery, compose_union


def input_relation_name(j: int) -> str:
    """The relation name standing for the j-th input message."""
    return f"In_{j}"


def as_union(query) -> UnionQuery:
    """Wrap a CQ as a singleton UCQ; pass UCQs through."""
    if isinstance(query, ConjunctiveQuery):
        return UnionQuery.of(query)
    if isinstance(query, UnionQuery):
        return query
    raise AnalysisError(
        f"expansion requires CQ/UCQ rule queries, got {type(query).__name__}"
    )


def expand(sws: SWS, session_length: int) -> UnionQuery:
    """The UCQ≠ query ``Q_n`` of the service at session length ``n``.

    Works for recursive services too — the tree at a fixed ``n`` is finite —
    but its size is exponential in ``n`` for recursive services and
    exponential in the DAG depth for nonrecursive ones.
    """
    require_class(sws, SWSClass.CQ_UCQ, "expand")
    if sws.kind is not SWSKind.RELATIONAL or sws.output_arity is None:
        raise AnalysisError("expand() needs a relational SWS")
    if session_length < 0:
        raise AnalysisError("session_length must be non-negative")
    payload_arity = sws.input_schema.arity if sws.input_schema else 0
    # The rule queries keep their own variable names through composition;
    # fresh names must not capture them.
    factory = FreshVariableFactory(_rule_variables(sws))
    n = session_length

    def in_definition(j: int) -> UnionQuery:
        if j > n:
            return UnionQuery.empty(payload_arity, name=IN)
        head = tuple(Variable(f"x{i}") for i in range(payload_arity))
        identity = ConjunctiveQuery(
            head, [Atom(input_relation_name(j), head)], (), IN
        )
        return UnionQuery.of(identity)

    def guard(result: UnionQuery, msg_def: UnionQuery) -> UnionQuery:
        """Conjoin "the message register is nonempty" to every disjunct.

        Both sides are normal forms from composition, and the renamed-apart
        witness shares no variable with the disjunct, so the conjunction is
        normal and satisfiable as it stands.
        """
        guarded: list[ConjunctiveQuery] = []
        for disjunct in result.disjuncts:
            for witness in msg_def.disjuncts:
                renamed = witness.rename_apart(factory)
                guarded.append(
                    ConjunctiveQuery._trusted(
                        disjunct.head,
                        disjunct.atoms + renamed.atoms,
                        disjunct.comparisons + renamed.comparisons,
                        disjunct.name,
                        normal=True,
                    )
                )
        return UnionQuery(guarded, arity=result.arity, name=result.name)

    def act_query(state: str, j: int, msg_def: UnionQuery) -> UnionQuery:
        rule = sws.transitions[state]
        sigma = as_union(sws.synthesis[state].query)
        if rule.is_final:
            definitions = {MSG: msg_def, IN: in_definition(j)}
            return compose_union(sigma, definitions, factory)
        if j > n:
            return UnionQuery.empty(sws.output_arity, name=state)
        definitions: dict[str, UnionQuery] = {}
        aliases = sws.successor_register_aliases(state)
        child_results: list[UnionQuery] = []
        # Duplicate (target, φ) pairs denote children with literally equal
        # registers; computing their subtree once halves the work on DAGs
        # that fan out through repeated targets (the diamond family).
        duplicate_cache: dict[tuple[str, int], UnionQuery] = {}
        for target, phi in rule.targets:
            key = (target, id(phi))
            if key not in duplicate_cache:
                child_msg = compose_union(
                    as_union(phi), {MSG: msg_def, IN: in_definition(j)}, factory
                )
                duplicate_cache[key] = act_query(target, j + 1, child_msg)
            child_results.append(duplicate_cache[key])
        for name, position in aliases.items():
            definitions[name] = child_results[position]
        result = compose_union(sigma, definitions, factory)
        if state != sws.start:
            result = guard(result, msg_def)
        return result

    root_msg = UnionQuery.empty(payload_arity, name=MSG)
    expansion = act_query(sws.start, 1, root_msg)
    result = UnionQuery(expansion.disjuncts, arity=sws.output_arity, name=sws.name)
    STATS.expansion_disjuncts += len(result.disjuncts)
    return result


def _rule_variables(sws: SWS) -> set[Variable]:
    """Every variable of the service's transition and synthesis queries."""
    out: set[Variable] = set()
    queries = [phi for rule in sws.transitions.values() for _target, phi in rule.targets]
    queries += [rule.query for rule in sws.synthesis.values()]
    for query in queries:
        out |= query.variables()
    return out


def saturation_length(sws: SWS) -> int:
    """The session length at which the expansion stops changing.

    A nonrecursive service of dependency depth ``d`` has execution trees of
    node-depth ≤ d, so timestamps never exceed ``d + 1``; ``Q_n = Q_{d+1}``
    for all ``n ≥ d + 1``.
    """
    if sws.is_recursive():
        raise AnalysisError("saturation_length() is for nonrecursive services")
    return sws.depth() + 1


def expansion_relations(sws: SWS, session_length: int) -> list[str]:
    """The relation names an expansion may mention."""
    names = list(sws.db_schema.relation_names())
    names.extend(input_relation_name(j) for j in range(1, session_length + 1))
    return names


def evaluate_expansion(
    expansion: UnionQuery,
    sws: SWS,
    database: Database,
    inputs: InputSequence,
    session_length: int,
) -> frozenset[Row]:
    """Evaluate ``Q_n`` against concrete ``(D, I)``.

    Used by tests to confirm ``Q_n(D, I) = τ(D, I)`` — the expansion's
    correctness property.
    """
    payload = inputs.schema
    env: dict[str, Relation] = {name: database[name] for name in database}
    for j in range(1, session_length + 1):
        name = input_relation_name(j)
        env[name] = Relation(payload.renamed(name), inputs.message(j).rows)
    # Relations the expansion mentions but the run never populated (e.g.
    # inputs beyond the sequence) evaluate as empty.
    for name in expansion.relations():
        if name not in env:
            arity = _relation_arity(expansion, name)
            schema = RelationSchema(name, tuple(f"a{i}" for i in range(arity)))
            env[name] = Relation.empty(schema)
    return expansion.evaluate(env)


def _relation_arity(expansion: UnionQuery, name: str) -> int:
    for disjunct in expansion.disjuncts:
        for atom in disjunct.atoms:
            if atom.relation == name:
                return len(atom.terms)
    raise AnalysisError(f"relation {name!r} not in the expansion")
