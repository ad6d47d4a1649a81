"""Unions of conjunctive queries.

Synthesis rules of SWS(CQ, UCQ) services are UCQs (Section 2).  Besides
evaluation and the classical decision procedures (satisfiability,
containment à la Sagiv–Yannakakis extended to =/≠ via the equality-pattern
machinery in :mod:`repro.logic.cq`), this module implements *composition*:
unfolding atoms that refer to derived relations (message/action registers)
by the UCQs defining them.  Composition is the engine behind the expansion
of a nonrecursive SWS into a single UCQ≠ query (Theorem 4.1(2) machinery)
and behind the query-rewriting view of composition synthesis (Section 5.2).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping

from repro.data.relation import Relation, Row
from repro.errors import QueryError
from repro.logic.cq import Atom, Comparison, ConjunctiveQuery, _normal_form
from repro.logic.terms import FreshVariableFactory, Term, Variable


class UnionQuery:
    """A union of conjunctive queries with a common head arity.

    The empty union (no disjuncts) is allowed and denotes the query with the
    constant empty answer — SWS synthesis rules may degenerate to it.
    """

    _hash: "int | None" = None

    def __init__(
        self,
        disjuncts: Iterable[ConjunctiveQuery],
        arity: int | None = None,
        name: str = "Q",
    ) -> None:
        self.disjuncts: tuple[ConjunctiveQuery, ...] = tuple(disjuncts)
        self.name = name
        if self.disjuncts:
            arities = {d.arity for d in self.disjuncts}
            if len(arities) != 1:
                raise QueryError(f"mixed head arities in union: {sorted(arities)}")
            inferred = arities.pop()
            if arity is not None and arity != inferred:
                raise QueryError(
                    f"declared arity {arity} does not match disjuncts ({inferred})"
                )
            self.arity = inferred
        else:
            if arity is None:
                raise QueryError("empty union requires an explicit arity")
            self.arity = arity

    # -- structure -----------------------------------------------------------------

    @classmethod
    def empty(cls, arity: int, name: str = "Q") -> "UnionQuery":
        """The union with no disjuncts (constant empty answer)."""
        return cls((), arity=arity, name=name)

    @classmethod
    def of(cls, *disjuncts: ConjunctiveQuery) -> "UnionQuery":
        """Union of the given CQs."""
        return cls(disjuncts)

    def variables(self) -> frozenset[Variable]:
        """All variables across the disjuncts."""
        out: frozenset[Variable] = frozenset()
        for d in self.disjuncts:
            out |= d.variables()
        return out

    def relations(self) -> frozenset[str]:
        """All relation names across the disjuncts."""
        out: frozenset[str] = frozenset()
        for d in self.disjuncts:
            out |= d.relations()
        return out

    def union(self, other: "UnionQuery") -> "UnionQuery":
        """Union of two UCQs of the same arity."""
        if self.arity != other.arity:
            raise QueryError(
                f"cannot union arity {self.arity} with arity {other.arity}"
            )
        return UnionQuery(self.disjuncts + other.disjuncts, arity=self.arity, name=self.name)

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self.disjuncts)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, UnionQuery):
            return NotImplemented
        return (
            hash(self) == hash(other)
            and self.arity == other.arity
            and (
                self.disjuncts == other.disjuncts
                or set(self.disjuncts) == set(other.disjuncts)
            )
        )

    def __hash__(self) -> int:
        # Memoized: queries are keys of the fingerprint memos.
        if self._hash is None:
            self._hash = hash((self.arity, frozenset(self.disjuncts)))
        return self._hash

    def __getstate__(self) -> dict:
        # The memoized hash is per interpreter (string hashes differ).
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __str__(self) -> str:
        if not self.disjuncts:
            return f"{self.name}/{self.arity} :- false"
        return "  UNION  ".join(str(d) for d in self.disjuncts)

    def __repr__(self) -> str:
        return f"<UCQ {len(self.disjuncts)} disjuncts, arity {self.arity}>"

    # -- semantics ----------------------------------------------------------------

    def evaluate(self, database: Mapping[str, Relation]) -> frozenset[Row]:
        """Union of the disjuncts' answers."""
        out: set[Row] = set()
        for disjunct in self.disjuncts:
            out |= disjunct.evaluate(database)
        return frozenset(out)

    def is_satisfiable(self) -> bool:
        """Whether some database yields a nonempty answer."""
        return any(d.is_satisfiable() for d in self.disjuncts)

    def satisfiable_disjuncts(self) -> "UnionQuery":
        """Drop unsatisfiable disjuncts (a normalization step)."""
        kept = [d for d in self.disjuncts if d.is_satisfiable()]
        return UnionQuery(kept, arity=self.arity, name=self.name)

    # -- containment / equivalence ------------------------------------------------------

    def contained_in(self, other: "UnionQuery") -> bool:
        """Sagiv–Yannakakis containment, =/≠-complete via equality patterns."""
        if self.arity != other.arity:
            raise QueryError(
                f"containment requires equal arities: {self.arity} vs {other.arity}"
            )
        return all(
            d.contained_in_union(other.disjuncts) for d in self.disjuncts
        )

    def equivalent_to(self, other: "UnionQuery") -> bool:
        """Mutual containment."""
        return self.contained_in(other) and other.contained_in(self)

    def minimized(self) -> "UnionQuery":
        """Drop unsatisfiable and redundant disjuncts, minimize the rest."""
        kept: list[ConjunctiveQuery] = []
        candidates = [d for d in self.disjuncts if d.is_satisfiable()]
        for i, disjunct in enumerate(candidates):
            others = candidates[:i] + candidates[i + 1 :]
            if others and disjunct.contained_in_union(others):
                candidates = others
                return UnionQuery(
                    candidates, arity=self.arity, name=self.name
                ).minimized()
        kept = [d.minimized() for d in candidates]
        return UnionQuery(kept, arity=self.arity, name=self.name)


def compose(
    query: ConjunctiveQuery,
    definitions: Mapping[str, UnionQuery],
    factory: FreshVariableFactory | None = None,
) -> UnionQuery:
    """Unfold derived-relation atoms of ``query`` by their definitions.

    Every atom over a relation in ``definitions`` is replaced by the body of
    one of the defining UCQ's disjuncts (renamed apart); the cross product
    over all choices yields a UCQ.  Atoms over other relations are kept
    as-is.  Composition works on normal forms: each choice unifies the
    atoms' terms with the renamed heads, and the unifier is applied
    directly, so every disjunct comes out equality-free and normal.  A
    choice is dropped when the unifier equates two distinct constants or
    makes an inequality relate a term to itself.

    This is classical query composition: the result is equivalent to
    evaluating ``query`` on a database where every derived relation holds
    the answer of its definition.
    """
    factory = factory or FreshVariableFactory(sorted(query.variables()))
    return UnionQuery(
        _compose(query, definitions, factory), arity=query.arity, name=query.name
    )


def compose_union(
    query: UnionQuery,
    definitions: Mapping[str, UnionQuery],
    factory: FreshVariableFactory | None = None,
) -> UnionQuery:
    """Unfold every disjunct of a UCQ (see :func:`compose`)."""
    factory = factory or FreshVariableFactory(sorted(query.variables()))
    disjuncts: list[ConjunctiveQuery] = []
    for disjunct in query.disjuncts:
        disjuncts.extend(_compose(disjunct, definitions, factory))
    return UnionQuery(disjuncts, arity=query.arity, name=query.name)


#: One way to unfold an atom: (atom term, head term) pairs to unify, and
#: the atoms and inequalities the choice contributes.
_Choice = tuple[
    tuple[tuple[Term, Term], ...], tuple[Atom, ...], tuple[Comparison, ...]
]


def _compose(
    query: ConjunctiveQuery,
    definitions: Mapping[str, UnionQuery],
    factory: FreshVariableFactory,
) -> list[ConjunctiveQuery]:
    normal = query.normalized()
    if normal is None:
        return []
    choice_lists: list[list[_Choice]] = []
    for atom in normal.atoms:
        if atom.relation not in definitions:
            choice_lists.append([((), (atom,), ())])
            continue
        definition = definitions[atom.relation]
        if definition.arity != len(atom.terms):
            raise QueryError(
                f"definition of {atom.relation!r} has arity {definition.arity}, "
                f"atom uses {len(atom.terms)}"
            )
        choices: list[_Choice] = []
        for disjunct in definition.disjuncts:
            disjunct = disjunct.normalized()
            if disjunct is None:
                continue
            renamed = disjunct.rename_apart(factory)
            pairs = tuple(zip(atom.terms, renamed.head))
            choices.append((pairs, renamed.atoms, renamed.comparisons))
        if not choices:
            return []
        choice_lists.append(choices)

    disjuncts: list[ConjunctiveQuery] = []
    for combo in itertools.product(*choice_lists):
        mapping = _unify(pair for pairs, _atoms, _ineqs in combo for pair in pairs)
        if mapping is None:
            continue
        candidate = _normal_form(
            normal.head,
            [atom for _pairs, atoms, _ineqs in combo for atom in atoms],
            normal.comparisons
            + tuple(comp for _pairs, _atoms, ineqs in combo for comp in ineqs),
            mapping,
            normal.name,
        )
        if candidate is not None:
            disjuncts.append(candidate)
    return disjuncts


def _unify(pairs: Iterable[tuple[Term, Term]]) -> dict[Variable, Term] | None:
    """The most general unifier of the pairs, resolved to representatives.

    A small union-find: a class containing a constant is represented by
    it, otherwise by the root the first binding left, so an atom term
    stays the representative of the fresh head variable bound to it.
    ``None`` when two distinct constants would be equated.
    """
    parent: dict[Variable, Term] = {}

    def find(term: Term) -> Term:
        while isinstance(term, Variable) and term in parent:
            term = parent[term]
        return term

    for atom_term, head_term in pairs:
        left, right = find(atom_term), find(head_term)
        if left == right:
            continue
        if isinstance(right, Variable):
            parent[right] = left
        elif isinstance(left, Variable):
            parent[left] = right
        else:
            return None  # two distinct constants
    return {variable: find(variable) for variable in parent}
