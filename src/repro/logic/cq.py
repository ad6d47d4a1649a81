"""Conjunctive queries with equality and inequality.

The SWS classes SWS(CQ, UCQ) and SWS_nr(CQ, UCQ) (Section 2) use conjunctive
queries — with ``=`` and ``≠``, as the paper stipulates — for transition
rules, and unions of conjunctive queries for synthesis rules.  This module
implements:

* the CQ data type with relational atoms, equalities and inequalities;
* evaluation against a database (any mapping of relation names to
  :class:`~repro.data.relation.Relation`) from a join plan compiled once
  per query: a fixed atom order whose steps probe hash indexes on the
  positions earlier steps bind;
* satisfiability (consistency of the =/≠ constraints);
* canonical databases, including the enumeration over *equality patterns*
  (partitions of the query's terms) that Klug's containment test for queries
  with inequality requires — this is the engine behind the coNEXPTIME
  equivalence procedure for SWS_nr(CQ, UCQ) (Theorem 4.1(2));
* containment and equivalence (against CQs and unions of CQs);
* core minimization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.data.relation import Relation, Row
from repro.errors import QueryError
from repro.logic.terms import (
    Constant,
    FreshVariableFactory,
    Substitution,
    Term,
    Variable,
    partitions,
    term_value,
)

#: Marks a memo slot whose value (possibly ``None``) is not computed yet.
_UNSET = object()
#: Marks a query that is its own normal form.
_SELF = object()

#: Per-instance memos that pickling drops (see ``__getstate__``).  The
#: hash is among them: string hashes differ between interpreters.
_DERIVED = ("_classes", "_normal", "_plan", "_hash")


@dataclass(frozen=True)
class Atom:
    """A relational atom ``R(t1, ..., tk)``."""

    relation: str
    terms: tuple[Term, ...]

    def __init__(self, relation: str, terms: Iterable[Term]) -> None:
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "terms", tuple(terms))

    def variables(self) -> frozenset[Variable]:
        """Variables occurring in the atom."""
        return frozenset(t for t in self.terms if isinstance(t, Variable))

    def constants(self) -> frozenset[Constant]:
        """Constants occurring in the atom."""
        return frozenset(t for t in self.terms if isinstance(t, Constant))

    def rename(self, mapping: Mapping[Variable, Term]) -> "Atom":
        """Apply a variable renaming/substitution; the atom itself if no term moves."""
        terms = tuple([_apply(t, mapping) for t in self.terms])
        return self if terms == self.terms else Atom(self.relation, terms)

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(str(t) for t in self.terms)})"


@dataclass(frozen=True)
class Comparison:
    """An equality (``negated=False``) or inequality (``negated=True``)."""

    left: Term
    right: Term
    negated: bool

    def variables(self) -> frozenset[Variable]:
        """Variables occurring in the comparison."""
        return frozenset(t for t in (self.left, self.right) if isinstance(t, Variable))

    def rename(self, mapping: Mapping[Variable, Term]) -> "Comparison":
        """Apply a variable renaming/substitution."""
        return Comparison(_apply(self.left, mapping), _apply(self.right, mapping), self.negated)

    def __str__(self) -> str:
        op = "!=" if self.negated else "="
        return f"{self.left} {op} {self.right}"


def eq(left: Term, right: Term) -> Comparison:
    """An equality atom."""
    return Comparison(left, right, negated=False)


def neq(left: Term, right: Term) -> Comparison:
    """An inequality atom."""
    return Comparison(left, right, negated=True)


def _apply(term: Term, mapping: Mapping[Variable, Term]) -> Term:
    if isinstance(term, Variable):
        return mapping.get(term, term)
    return term


def _normal_form(
    head: Iterable[Term],
    atoms: Iterable[Atom],
    inequalities: Iterable[Comparison],
    mapping: Mapping[Variable, Term],
    name: str,
) -> "ConjunctiveQuery | None":
    """The equality-free query that ``mapping`` makes of the given parts.

    ``mapping`` sends every variable of an equality class to the class's
    representative, so the result has no ``=`` atom.  Inequalities are
    deduplicated and those between two constants dropped (they hold);
    the result is ``None`` when one relates a term to itself.  The caller
    guarantees that every head and inequality variable left after the
    mapping occurs in an atom, so the result is built without the safety
    check.
    """
    kept: dict[Comparison, None] = {}
    for comp in inequalities:
        left, right = _apply(comp.left, mapping), _apply(comp.right, mapping)
        if left == right:
            return None
        if isinstance(left, Constant) and isinstance(right, Constant):
            continue
        if left is comp.left and right is comp.right:
            kept[comp] = None
        else:
            kept[Comparison(left, right, negated=True)] = None
    return ConjunctiveQuery._trusted(
        tuple([_apply(t, mapping) for t in head]),
        tuple([a.rename(mapping) for a in atoms]),
        tuple(kept),
        name,
        normal=True,
    )


@dataclass(frozen=True)
class LabeledNull:
    """A fresh value used in canonical databases.

    Labeled nulls compare unequal to every ordinary constant and to every
    other null, which is exactly the freshness canonical-database arguments
    need.
    """

    index: int

    def __repr__(self) -> str:
        return f"⊥{self.index}"


class ConjunctiveQuery:
    """A conjunctive query with =/≠: ``head :- atoms, comparisons``.

    ``head`` is a tuple of terms (variables or constants); a 0-ary head
    makes the query boolean.  The query must be *safe*: every head variable
    and every variable in a comparison must be range-restricted, i.e. occur
    in a relational atom or be transitively equated to one (or to a
    constant).

    The equality closure, the normal form and the evaluation plan are
    derived on first use and memoized on the instance.
    """

    _classes: "list[list[Term]] | None" = None
    _normal: "ConjunctiveQuery | None | object" = _UNSET
    _plan: "_JoinPlan | None" = None
    _hash: "int | None" = None

    def __init__(
        self,
        head: Iterable[Term],
        atoms: Iterable[Atom],
        comparisons: Iterable[Comparison] = (),
        name: str = "Q",
    ) -> None:
        self.head: tuple[Term, ...] = tuple(head)
        self.atoms: tuple[Atom, ...] = tuple(atoms)
        self.comparisons: tuple[Comparison, ...] = tuple(comparisons)
        self.name = name
        self._check_safety()

    # -- structure ----------------------------------------------------------------

    def variables(self) -> frozenset[Variable]:
        """All variables occurring anywhere in the query."""
        out: set[Variable] = {t for t in self.head if isinstance(t, Variable)}
        for atom in self.atoms:
            out |= atom.variables()
        for comp in self.comparisons:
            out |= comp.variables()
        return frozenset(out)

    def constants(self) -> frozenset[Constant]:
        """All constants occurring anywhere in the query."""
        out: set[Constant] = {t for t in self.head if isinstance(t, Constant)}
        for atom in self.atoms:
            out |= atom.constants()
        for comp in self.comparisons:
            out |= {
                t for t in (comp.left, comp.right) if isinstance(t, Constant)
            }
        return frozenset(out)

    def relations(self) -> frozenset[str]:
        """Names of all relations the query mentions."""
        return frozenset(a.relation for a in self.atoms)

    @property
    def arity(self) -> int:
        """Head arity."""
        return len(self.head)

    def equalities(self) -> tuple[Comparison, ...]:
        """The equality comparisons."""
        return tuple(c for c in self.comparisons if not c.negated)

    def inequalities(self) -> tuple[Comparison, ...]:
        """The inequality comparisons."""
        return tuple(c for c in self.comparisons if c.negated)

    def rename(self, mapping: Mapping[Variable, Term], name: str | None = None) -> "ConjunctiveQuery":
        """Apply a variable renaming/substitution throughout the query."""
        return ConjunctiveQuery(
            tuple(_apply(t, mapping) for t in self.head),
            tuple(a.rename(mapping) for a in self.atoms),
            tuple(c.rename(mapping) for c in self.comparisons),
            name or self.name,
        )

    def rename_apart(self, factory: FreshVariableFactory) -> "ConjunctiveQuery":
        """Rename every variable to a fresh one from ``factory``.

        The renaming is injective, so the result is safe, and normal when
        this query is; it is built without re-checking either.
        """
        mapping = factory.rename_apart(sorted(self.variables()))
        return ConjunctiveQuery._trusted(
            tuple([_apply(t, mapping) for t in self.head]),
            tuple([a.rename(mapping) for a in self.atoms]),
            tuple([c.rename(mapping) for c in self.comparisons]),
            self.name,
            normal=self._normal is _SELF,
        )

    @classmethod
    def _trusted(
        cls,
        head: tuple[Term, ...],
        atoms: tuple[Atom, ...],
        comparisons: tuple[Comparison, ...],
        name: str,
        normal: bool,
    ) -> "ConjunctiveQuery":
        """A query that is safe by construction, built without the check.

        ``normal`` marks it as its own normal form: no ``=`` atom, and
        only deduplicated inequalities that are neither trivially violated
        nor between two constants.
        """
        query = cls.__new__(cls)
        query.head, query.atoms, query.comparisons, query.name = (
            head, atoms, comparisons, name
        )
        if normal:
            query._normal = _SELF
        return query

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return (
            hash(self) == hash(other)
            and self.head == other.head
            and (self.atoms == other.atoms or set(self.atoms) == set(other.atoms))
            and (
                self.comparisons == other.comparisons
                or set(self.comparisons) == set(other.comparisons)
            )
        )

    def __hash__(self) -> int:
        # Memoized: queries are keys of the fingerprint memos.
        if self._hash is None:
            self._hash = hash(
                (self.head, frozenset(self.atoms), frozenset(self.comparisons))
            )
        return self._hash

    def __str__(self) -> str:
        head = f"{self.name}({', '.join(str(t) for t in self.head)})"
        body = ", ".join(
            [str(a) for a in self.atoms] + [str(c) for c in self.comparisons]
        )
        return f"{head} :- {body}" if body else f"{head} :- true"

    def __repr__(self) -> str:
        return f"<CQ {self}>"

    def __getstate__(self) -> dict:
        # The closure, normal form and plan are derived on first use; they
        # never travel through pickles (worker IPC, the artifact store).
        state = dict(self.__dict__)
        for key in _DERIVED:
            state.pop(key, None)
        return state

    # -- safety --------------------------------------------------------------------

    def _check_safety(self) -> None:
        atom_vars = {t for a in self.atoms for t in a.terms if isinstance(t, Variable)}
        terms = list(self.head)
        for comp in self.comparisons:
            terms += (comp.left, comp.right)
        unsafe = {t for t in terms if isinstance(t, Variable) and t not in atom_vars}
        if not unsafe:
            return  # the closure is needed only for variables outside atoms
        for cls in self._equality_classes():
            if any(isinstance(t, Constant) or t in atom_vars for t in cls):
                unsafe.difference_update(cls)
        if unsafe:
            raise QueryError(
                f"query {self.name!r} is unsafe: variables "
                f"{sorted(v.name for v in unsafe)} are not range-restricted"
            )

    def _equality_classes(self) -> list[list[Term]]:
        """The classes of the closure of the equality atoms.

        Only terms of ``=`` atoms appear: every other term is its own
        singleton class, which neither grounds a variable nor renames one.
        Computed once per query.
        """
        if self._classes is not None:
            return self._classes
        class_of: dict[Term, list[Term]] = {}
        for comp in self.equalities():
            left, right = class_of.get(comp.left), class_of.get(comp.right)
            if left is None and right is None:
                merged = list(dict.fromkeys((comp.left, comp.right)))
            elif left is None or right is None:
                merged = left or right
                merged.append(comp.left if left is None else comp.right)
            elif left is not right:
                merged, absorbed = (left, right) if len(left) >= len(right) else (right, left)
                merged.extend(absorbed)
            else:
                continue
            for term in merged:
                class_of[term] = merged
        self._classes = list({id(c): c for c in class_of.values()}.values())
        return self._classes

    # -- satisfiability ---------------------------------------------------------------

    def normalized(self) -> "ConjunctiveQuery | None":
        """Eliminate equalities by substituting class representatives.

        Returns an equivalent query without equality atoms, or ``None`` when
        the =/≠ constraints are inconsistent (two distinct constants forced
        equal, or an inequality within one class).  Memoized; the normal
        form is its own normal form.
        """
        normal = self._normal
        if normal is _UNSET:
            normal = self._normalize()
            # A self-reference would be a cycle only the collector frees.
            self._normal = _SELF if normal is self else normal
            return normal
        return self if normal is _SELF else normal

    def _normalize(self) -> "ConjunctiveQuery | None":
        mapping: dict[Variable, Term] = {}
        for cls in self._equality_classes():
            constants = [t for t in cls if isinstance(t, Constant)]
            if len({c.value for c in constants}) > 1:
                return None
            rep: Term
            if constants:
                rep = constants[0]
            else:
                rep = min(
                    (t for t in cls if isinstance(t, Variable)),
                    key=lambda v: v.name,
                )
            for term in cls:
                if isinstance(term, Variable):
                    mapping[term] = rep
        normal = _normal_form(
            self.head, self.atoms, self.inequalities(), mapping, self.name
        )
        if normal is not None and not mapping and normal.comparisons == self.comparisons:
            return self
        return normal

    def is_satisfiable(self) -> bool:
        """Whether some database makes the query return its head."""
        return self.normalized() is not None

    # -- evaluation ------------------------------------------------------------------

    def evaluate(self, database: Mapping[str, Relation]) -> frozenset[Row]:
        """Evaluate against a database; returns the set of head tuples."""
        normalized = self.normalized()
        if normalized is None:
            return frozenset()
        if normalized._plan is None:
            normalized._plan = _JoinPlan(normalized)
        return normalized._plan.run(database, normalized.name)

    def holds(self, database: Mapping[str, Relation]) -> bool:
        """For boolean queries: whether the body is satisfied."""
        return bool(self.evaluate(database))

    def _inequalities_hold(self, substitution: Substitution) -> bool:
        for comp in self.inequalities():
            if term_value(comp.left, substitution) == term_value(comp.right, substitution):
                return False
        return True

    # -- canonical databases and containment ---------------------------------------------

    def canonical_instance(self) -> tuple[dict[str, set[Row]], Row] | None:
        """The canonical database: variables frozen to distinct nulls.

        Returns ``(facts, head_row)`` or ``None`` if the query is
        unsatisfiable.  This is the *most general* pattern; containment
        under inequality additionally needs :meth:`equality_patterns`.
        """
        normalized = self.normalized()
        if normalized is None:
            return None
        freeze: dict[Variable, Any] = {
            v: LabeledNull(i) for i, v in enumerate(sorted(normalized.variables()))
        }
        return normalized._freeze(freeze)

    def equality_patterns(
        self, extra_constants: Iterable[Constant] = ()
    ) -> Iterator[tuple[dict[str, set[Row]], Row]]:
        """All canonical databases over the equality patterns of the query.

        A pattern partitions the query's variables, identifying variables
        within a block and separating blocks; blocks may also be merged with
        constants.  Patterns violating the query's inequalities are skipped.
        Klug's containment test quantifies over exactly these instances:
        ``Q1 ⊆ Q2`` iff every pattern's canonical database makes ``Q2``
        return the frozen head of ``Q1``.

        ``extra_constants`` must include the constants of the *containing*
        query when the patterns drive a containment test: a variable of this
        query can, on a real database, take the value of a constant that
        only the other query mentions, and completeness requires covering
        that case.
        """
        normalized = self.normalized()
        if normalized is None:
            return
        variables = sorted(normalized.variables())
        constants = sorted(set(normalized.constants()) | set(extra_constants))
        # Each variable is either merged into one of the constants or placed
        # in a partition block with other variables.  We enumerate by first
        # choosing, for every variable, a constant (or "none"), and then
        # partitioning the unmerged variables.
        options: list[list[Constant | None]] = [
            [None, *constants] for _ in variables
        ]
        for choice in itertools.product(*options):
            merged: dict[Variable, Any] = {}
            free: list[Variable] = []
            for variable, target in zip(variables, choice):
                if target is None:
                    free.append(variable)
                else:
                    merged[variable] = target.value
            for partition in partitions(free):
                freeze = dict(merged)
                for i, block in enumerate(partition):
                    for variable in block:
                        freeze[variable] = LabeledNull(i)
                instance = normalized._freeze_checked(freeze)
                if instance is not None:
                    yield instance

    def _freeze(self, freeze: Mapping[Variable, Any]) -> tuple[dict[str, set[Row]], Row]:
        facts: dict[str, set[Row]] = {}
        for atom in self.atoms:
            row = tuple(term_value(t, freeze) for t in atom.terms)
            facts.setdefault(atom.relation, set()).add(row)
        head_row = tuple(term_value(t, freeze) for t in self.head)
        return facts, head_row

    def _freeze_checked(
        self, freeze: Mapping[Variable, Any]
    ) -> tuple[dict[str, set[Row]], Row] | None:
        if not self._inequalities_hold(freeze):
            return None
        return self._freeze(freeze)

    def contained_in(self, other: "ConjunctiveQuery") -> bool:
        """Whether this query is contained in ``other`` (Klug-style test)."""
        return self.contained_in_union((other,))

    def contained_in_union(self, disjuncts: Sequence["ConjunctiveQuery"]) -> bool:
        """Containment in a union of CQs.

        Complete for CQs with =/≠ (the equality-pattern enumeration) and for
        unions on the right-hand side (Sagiv–Yannakakis: the frozen head
        must be produced by *some* disjunct on *each* canonical instance).
        """
        for disjunct in disjuncts:
            if disjunct.arity != self.arity:
                raise QueryError(
                    "containment requires equal head arities: "
                    f"{self.arity} vs {disjunct.arity}"
                )
        needs_patterns = bool(self.inequalities()) or any(
            d.inequalities() for d in disjuncts
        )
        instances: Iterable[tuple[dict[str, set[Row]], Row]]
        if needs_patterns:
            other_constants: set[Constant] = set()
            for disjunct in disjuncts:
                other_constants |= disjunct.constants()
            instances = self.equality_patterns(other_constants)
        else:
            canonical = self.canonical_instance()
            instances = [canonical] if canonical is not None else []
        all_relations = self.relations().union(*(d.relations() for d in disjuncts))
        for facts, head_row in instances:
            database = _facts_as_database(facts, all_relations)
            if not any(head_row in d.evaluate(database) for d in disjuncts):
                return False
        return True

    def equivalent_to(self, other: "ConjunctiveQuery") -> bool:
        """Mutual containment."""
        return self.contained_in(other) and other.contained_in(self)

    def minimized(self) -> "ConjunctiveQuery":
        """Remove redundant atoms while preserving equivalence (core).

        Only meaningful (and only attempted) for queries without
        inequalities; queries with ≠ are returned unchanged.
        """
        if self.inequalities():
            return self
        atoms = list(self.atoms)
        changed = True
        while changed:
            changed = False
            for atom in list(atoms):
                candidate_atoms = [a for a in atoms if a != atom]
                if not candidate_atoms:
                    continue
                try:
                    candidate = ConjunctiveQuery(
                        self.head, candidate_atoms, self.comparisons, self.name
                    )
                except QueryError:
                    continue  # dropping the atom breaks safety
                if candidate.equivalent_to(self):
                    atoms = candidate_atoms
                    changed = True
                    break
        return ConjunctiveQuery(self.head, atoms, self.comparisons, self.name)


class _Step:
    """One atom of a join plan.

    ``filters`` pin positions to constants and ``repeats`` tie a position
    to an earlier one (a variable repeated within the atom); both are
    applied while the index is built.  ``key_positions`` hold variables
    that earlier steps bound, read from ``key_slots``; ``binds`` store the
    first occurrences of new variables; ``checks`` are the inequalities
    whose both sides are known once this step has bound its variables.
    """

    __slots__ = (
        "relation", "arity", "filters", "repeats",
        "key_positions", "key_slots", "binds", "checks",
    )

    def __init__(
        self,
        atom: Atom,
        slots: dict[Term, int],
        bound: set[Variable],
        checks: Iterable[tuple[int, int]],
    ) -> None:
        self.relation = atom.relation
        self.arity = len(atom.terms)
        filters: list[tuple[int, Any]] = []
        repeats: list[tuple[int, int]] = []
        key_positions: list[int] = []
        key_slots: list[int] = []
        binds: list[tuple[int, int]] = []
        first: dict[Variable, int] = {}
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant):
                filters.append((position, term.value))
            elif term in bound:
                key_positions.append(position)
                key_slots.append(slots[term])
            elif term in first:
                repeats.append((position, first[term]))
            else:
                first[term] = position
                binds.append((slots[term], position))
        self.filters = tuple(filters)
        self.repeats = tuple(repeats)
        self.key_positions = tuple(key_positions)
        self.key_slots = tuple(key_slots)
        self.binds = tuple(binds)
        self.checks = tuple(checks)

    def index(
        self, database: Mapping[str, Relation], query_name: str
    ) -> "list[Row] | dict[tuple, list[Row]]":
        """The atom's matching rows, keyed on ``key_positions`` if any."""
        if self.relation not in database:
            raise QueryError(
                f"query {query_name!r} mentions relation {self.relation!r} "
                f"absent from the database ({sorted(database)})"
            )
        filters, repeats = self.filters, self.repeats
        rows: list[Row] = []
        for row in database[self.relation]:
            if len(row) != self.arity:
                raise QueryError(
                    f"atom arity {self.arity} does not match row arity {len(row)}"
                )
            if all(row[p] == value for p, value in filters) and all(
                row[p] == row[q] for p, q in repeats
            ):
                rows.append(row)
        if not self.key_positions:
            return rows
        index: dict[tuple, list[Row]] = {}
        positions = self.key_positions
        for row in rows:
            index.setdefault(tuple([row[p] for p in positions]), []).append(row)
        return index


class _JoinPlan:
    """The compiled evaluation plan of an equality-free (normalized) CQ.

    Variables and the head/inequality constants live in one value array;
    the steps follow the greedy join order that maximizes bound variables
    at each atom.  :meth:`run` builds each step's hash index on first use
    within the call, so the indexes never outlive one evaluation.
    """

    __slots__ = ("steps", "template", "head_slots")

    def __init__(self, query: ConjunctiveQuery) -> None:
        slots: dict[Term, int] = {}
        template: list[Any] = []

        def slot(term: Term) -> int:
            if term not in slots:
                slots[term] = len(template)
                template.append(term.value if isinstance(term, Constant) else None)
            return slots[term]

        for variable in sorted(query.variables()):
            slot(variable)
        remaining = list(query.atoms)
        pending = list(query.inequalities())
        bound: set[Variable] = set()
        steps: list[_Step] = []
        while remaining:
            best = max(
                remaining,
                key=lambda a: (len(a.variables() & bound), -len(a.variables())),
            )
            remaining.remove(best)
            known = bound | best.variables()
            # An inequality is tested at the first step that binds both
            # sides (safety puts every variable of a normal form in an atom).
            ready = [c for c in pending if c.variables() <= known]
            pending = [c for c in pending if not c.variables() <= known]
            checks = [(slot(c.left), slot(c.right)) for c in ready]
            steps.append(_Step(best, slots, bound, checks))
            bound = known
        self.steps = tuple(steps)
        self.head_slots = tuple(slot(t) for t in query.head)
        self.template = tuple(template)

    def run(self, database: Mapping[str, Relation], query_name: str) -> frozenset[Row]:
        """The head tuples of every match that passes the inequalities."""
        steps = self.steps
        last = len(steps)
        head = self.head_slots
        values = list(self.template)
        indexes: list[Any] = [None] * last
        out: set[Row] = set()

        def extend(depth: int) -> None:
            if depth == last:
                out.add(tuple([values[s] for s in head]))
                return
            step = steps[depth]
            index = indexes[depth]
            if index is None:
                index = indexes[depth] = step.index(database, query_name)
            if step.key_slots:
                index = index.get(tuple([values[s] for s in step.key_slots]), ())
            for row in index:
                for s, p in step.binds:
                    values[s] = row[p]
                for a, b in step.checks:
                    if values[a] == values[b]:
                        break
                else:
                    extend(depth + 1)

        extend(0)
        return frozenset(out)


def _facts_as_database(
    facts: Mapping[str, set[Row]], relations: Iterable[str]
) -> dict[str, Relation]:
    """Wrap frozen facts as anonymous relations for evaluation."""
    from repro.data.schema import RelationSchema

    database: dict[str, Relation] = {}
    for name in relations:
        rows = facts.get(name, set())
        arity = len(next(iter(rows))) if rows else 0
        schema = RelationSchema(name, [f"a{i}" for i in range(arity)])
        database[name] = Relation(schema, rows)
    return database
