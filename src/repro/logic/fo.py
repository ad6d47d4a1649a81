"""First-order queries.

SWS(FO, FO) services — the class that captures the data-driven transducer
models of Abiteboul et al. and Deutsch et al. (Section 3, "The peer model")
— express transition and synthesis rules as first-order queries.  All three
decision problems are undecidable for this class (Theorem 4.1(1), by
reduction from FO satisfiability), so the library provides:

* exact *evaluation* over finite databases with active-domain semantics,
  which is all the run semantics of Section 2 needs; and
* a *bounded-model satisfiability* search (a MACE-style grounding of the
  formula to SAT for increasing domain sizes), which powers the sound but
  necessarily incomplete analysis procedures in :mod:`repro.analysis.bounded`.

Formulas are built from relational atoms (:class:`repro.logic.cq.Atom`),
equality, the boolean connectives and the two quantifiers.  A
:class:`FOQuery` pairs a formula with a tuple of free head variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.data.relation import Relation, Row
from repro.errors import QueryError
from repro.logic import pl
from repro.logic.cq import Atom, ConjunctiveQuery
from repro.logic.terms import Constant, Term, Variable, term_value

#: Candidate bindings for some free variables of a formula: the variables
#: and a function from a database to the set of their value tuples.  Sound:
#: every assignment under which the formula holds restricts to one of the
#: tuples.  ``None`` stands for "no constraint derived".
CandidateGenerator = tuple[tuple[Variable, ...], Callable[[Mapping[str, Relation]], set[Row]]]


class FOFormula:
    """Base class for first-order formulas."""

    def free_variables(self) -> frozenset[Variable]:
        """Variables not bound by a quantifier."""
        raise NotImplementedError

    def constants(self) -> frozenset[Constant]:
        """All constants in the formula."""
        raise NotImplementedError

    def relations(self) -> frozenset[str]:
        """All relation names in the formula."""
        raise NotImplementedError

    def _holds(
        self,
        database: Mapping[str, Relation],
        assignment: dict[Variable, Any],
        domain: Sequence[Any],
    ) -> bool:
        raise NotImplementedError

    def _ground(
        self,
        assignment: dict[Variable, Any],
        domain: Sequence[Any],
        fact_var: "FactNamer",
    ) -> pl.Formula:
        raise NotImplementedError

    def _generator(self) -> CandidateGenerator | None:
        """Candidate bindings drawn from positive atoms and ``var = c``."""
        return None

    # -- sugar ------------------------------------------------------------------

    def __and__(self, other: "FOFormula") -> "FOFormula":
        return AndF((self, other))

    def __or__(self, other: "FOFormula") -> "FOFormula":
        return OrF((self, other))

    def __invert__(self) -> "FOFormula":
        return NotF(self)


@dataclass(frozen=True)
class RelAtom(FOFormula):
    """A relational atom used as a formula."""

    atom: Atom

    def free_variables(self) -> frozenset[Variable]:
        return self.atom.variables()

    def constants(self) -> frozenset[Constant]:
        return self.atom.constants()

    def relations(self) -> frozenset[str]:
        return frozenset({self.atom.relation})

    def _holds(self, database, assignment, domain) -> bool:
        if self.atom.relation not in database:
            raise QueryError(
                f"formula mentions relation {self.atom.relation!r} absent "
                f"from the database"
            )
        row = tuple(term_value(t, assignment) for t in self.atom.terms)
        return row in database[self.atom.relation]

    def _ground(self, assignment, domain, fact_var) -> pl.Formula:
        row = tuple(term_value(t, assignment) for t in self.atom.terms)
        return pl.Var(fact_var(self.atom.relation, row))

    def _generator(self) -> CandidateGenerator:
        relation, terms = self.atom.relation, self.atom.terms
        arity = len(terms)
        first: dict[Variable, int] = {}
        tests: list[tuple[int, int | None, Any]] = []
        for position, term in enumerate(terms):
            if isinstance(term, Constant):
                tests.append((position, None, term.value))
            elif term in first:
                tests.append((position, first[term], None))
            else:
                first[term] = position
        positions = tuple(first.values())

        def rows(database: Mapping[str, Relation]) -> set[Row]:
            return {
                tuple([row[p] for p in positions])
                for row in database[relation]
                if len(row) == arity
                and all(
                    row[p] == (value if q is None else row[q])
                    for p, q, value in tests
                )
            }

        return tuple(first), rows

    def __str__(self) -> str:
        return str(self.atom)


@dataclass(frozen=True)
class Equals(FOFormula):
    """An equality between two terms."""

    left: Term
    right: Term

    def free_variables(self) -> frozenset[Variable]:
        return frozenset(
            t for t in (self.left, self.right) if isinstance(t, Variable)
        )

    def constants(self) -> frozenset[Constant]:
        return frozenset(
            t for t in (self.left, self.right) if isinstance(t, Constant)
        )

    def relations(self) -> frozenset[str]:
        return frozenset()

    def _holds(self, database, assignment, domain) -> bool:
        return term_value(self.left, assignment) == term_value(self.right, assignment)

    def _ground(self, assignment, domain, fact_var) -> pl.Formula:
        same = term_value(self.left, assignment) == term_value(self.right, assignment)
        return pl.TRUE if same else pl.FALSE

    def _generator(self) -> CandidateGenerator | None:
        sides = (self.left, self.right)
        variables = [t for t in sides if isinstance(t, Variable)]
        constants = [t for t in sides if isinstance(t, Constant)]
        if len(variables) != 1 or len(constants) != 1:
            return None
        only = {(constants[0].value,)}
        return (variables[0],), lambda database: set(only)

    def __str__(self) -> str:
        return f"{self.left} = {self.right}"


@dataclass(frozen=True)
class NotF(FOFormula):
    """Negation."""

    operand: FOFormula

    def free_variables(self) -> frozenset[Variable]:
        return self.operand.free_variables()

    def constants(self) -> frozenset[Constant]:
        return self.operand.constants()

    def relations(self) -> frozenset[str]:
        return self.operand.relations()

    def _holds(self, database, assignment, domain) -> bool:
        return not self.operand._holds(database, assignment, domain)

    def _ground(self, assignment, domain, fact_var) -> pl.Formula:
        return pl.Not(self.operand._ground(assignment, domain, fact_var))

    def __str__(self) -> str:
        return f"¬({self.operand})"


@dataclass(frozen=True)
class AndF(FOFormula):
    """N-ary conjunction."""

    operands: tuple[FOFormula, ...]

    def __init__(self, operands: Iterable[FOFormula]) -> None:
        object.__setattr__(self, "operands", tuple(operands))

    def free_variables(self) -> frozenset[Variable]:
        return frozenset().union(*(op.free_variables() for op in self.operands))

    def constants(self) -> frozenset[Constant]:
        return frozenset().union(*(op.constants() for op in self.operands))

    def relations(self) -> frozenset[str]:
        return frozenset().union(*(op.relations() for op in self.operands))

    def _holds(self, database, assignment, domain) -> bool:
        return all(op._holds(database, assignment, domain) for op in self.operands)

    def _ground(self, assignment, domain, fact_var) -> pl.Formula:
        return pl.And([op._ground(assignment, domain, fact_var) for op in self.operands])

    def _generator(self) -> CandidateGenerator | None:
        joined: CandidateGenerator | None = None
        for op in self.operands:
            generator = op._generator()
            if generator is not None:
                joined = generator if joined is None else _join(joined, generator)
        return joined

    def __str__(self) -> str:
        return " ∧ ".join(f"({op})" for op in self.operands) if self.operands else "⊤"


@dataclass(frozen=True)
class OrF(FOFormula):
    """N-ary disjunction."""

    operands: tuple[FOFormula, ...]

    def __init__(self, operands: Iterable[FOFormula]) -> None:
        object.__setattr__(self, "operands", tuple(operands))

    def free_variables(self) -> frozenset[Variable]:
        return frozenset().union(*(op.free_variables() for op in self.operands))

    def constants(self) -> frozenset[Constant]:
        return frozenset().union(*(op.constants() for op in self.operands))

    def relations(self) -> frozenset[str]:
        return frozenset().union(*(op.relations() for op in self.operands))

    def _holds(self, database, assignment, domain) -> bool:
        return any(op._holds(database, assignment, domain) for op in self.operands)

    def _ground(self, assignment, domain, fact_var) -> pl.Formula:
        return pl.Or([op._ground(assignment, domain, fact_var) for op in self.operands])

    def _generator(self) -> CandidateGenerator | None:
        generators = [op._generator() for op in self.operands]
        if any(g is None for g in generators):
            return None
        if not generators:
            return (), lambda database: set()
        variables = generators[0][0]
        if any(set(g[0]) != set(variables) for g in generators):
            return None
        parts = [
            (rows, tuple(g_vars.index(v) for v in variables))
            for g_vars, rows in generators
        ]

        def rows(database: Mapping[str, Relation]) -> set[Row]:
            out: set[Row] = set()
            for part, order in parts:
                out.update(tuple([row[i] for i in order]) for row in part(database))
            return out

        return variables, rows

    def __str__(self) -> str:
        return " ∨ ".join(f"({op})" for op in self.operands) if self.operands else "⊥"


@dataclass(frozen=True)
class Exists(FOFormula):
    """Existential quantification over one or more variables."""

    variables: tuple[Variable, ...]
    body: FOFormula

    def __init__(self, variables: Iterable[Variable], body: FOFormula) -> None:
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "body", body)

    def free_variables(self) -> frozenset[Variable]:
        return self.body.free_variables() - frozenset(self.variables)

    def constants(self) -> frozenset[Constant]:
        return self.body.constants()

    def relations(self) -> frozenset[str]:
        return self.body.relations()

    def _holds(self, database, assignment, domain) -> bool:
        for values in itertools.product(domain, repeat=len(self.variables)):
            extended = dict(assignment)
            extended.update(zip(self.variables, values))
            if self.body._holds(database, extended, domain):
                return True
        return False

    def _ground(self, assignment, domain, fact_var) -> pl.Formula:
        parts = []
        for values in itertools.product(domain, repeat=len(self.variables)):
            extended = dict(assignment)
            extended.update(zip(self.variables, values))
            parts.append(self.body._ground(extended, domain, fact_var))
        return pl.Or(parts)

    def _generator(self) -> CandidateGenerator | None:
        generator = self.body._generator()
        if generator is None:
            return None
        variables, body_rows = generator
        keep = tuple(i for i, v in enumerate(variables) if v not in self.variables)
        if len(keep) == len(variables):
            return generator

        def rows(database: Mapping[str, Relation]) -> set[Row]:
            return {tuple([row[i] for i in keep]) for row in body_rows(database)}

        return tuple(variables[i] for i in keep), rows

    def __str__(self) -> str:
        names = ", ".join(v.name for v in self.variables)
        return f"∃{names}.({self.body})"


@dataclass(frozen=True)
class Forall(FOFormula):
    """Universal quantification over one or more variables."""

    variables: tuple[Variable, ...]
    body: FOFormula

    def __init__(self, variables: Iterable[Variable], body: FOFormula) -> None:
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "body", body)

    def free_variables(self) -> frozenset[Variable]:
        return self.body.free_variables() - frozenset(self.variables)

    def constants(self) -> frozenset[Constant]:
        return self.body.constants()

    def relations(self) -> frozenset[str]:
        return self.body.relations()

    def _holds(self, database, assignment, domain) -> bool:
        for values in itertools.product(domain, repeat=len(self.variables)):
            extended = dict(assignment)
            extended.update(zip(self.variables, values))
            if not self.body._holds(database, extended, domain):
                return False
        return True

    def _ground(self, assignment, domain, fact_var) -> pl.Formula:
        parts = []
        for values in itertools.product(domain, repeat=len(self.variables)):
            extended = dict(assignment)
            extended.update(zip(self.variables, values))
            parts.append(self.body._ground(extended, domain, fact_var))
        return pl.And(parts)

    def __str__(self) -> str:
        names = ", ".join(v.name for v in self.variables)
        return f"∀{names}.({self.body})"


def _join(left: CandidateGenerator, right: CandidateGenerator) -> CandidateGenerator:
    """Natural join of two candidate generators (a hash join)."""
    left_vars, left_rows = left
    right_vars, right_rows = right
    left_key = tuple(left_vars.index(v) for v in right_vars if v in left_vars)
    right_key = tuple(i for i, v in enumerate(right_vars) if v in left_vars)
    extra = tuple(i for i, v in enumerate(right_vars) if v not in left_vars)

    def rows(database: Mapping[str, Relation]) -> set[Row]:
        lefts = left_rows(database)
        if not lefts:
            return lefts
        index: dict[Row, list[Row]] = {}
        for row in right_rows(database):
            index.setdefault(tuple([row[i] for i in right_key]), []).append(
                tuple([row[i] for i in extra])
            )
        return {
            row + tail
            for row in lefts
            for tail in index.get(tuple([row[i] for i in left_key]), ())
        }

    return left_vars + tuple(right_vars[i] for i in extra), rows


def atom(relation: str, *terms: Term) -> RelAtom:
    """Shorthand for a relational atom formula."""
    return RelAtom(Atom(relation, terms))


class FOQuery:
    """A first-order query: free head variables plus a formula.

    Evaluation uses *active-domain* semantics: quantifiers and free
    variables range over the values occurring in the database plus the
    query's own constants.  This matches the relational-transducer models
    the paper builds on (genericity/domain independence is the caller's
    concern, as usual in that literature).

    Head bindings are not enumerated blindly: the formula's top-level
    positive atoms and ``var = constant`` equalities (joined through ∧,
    unioned through ∨ when every disjunct binds the same variables,
    projected through ∃) generate candidates, only the remaining head
    variables range over the active domain, and every candidate is checked
    against the full formula.  The generator is compiled on first use.
    """

    _plan: "tuple[frozenset[str], CandidateGenerator, tuple[Variable, ...], tuple[int, ...]] | None" = None

    def __init__(
        self,
        head: Iterable[Variable],
        formula: FOFormula,
        name: str = "Q",
    ) -> None:
        self.head: tuple[Variable, ...] = tuple(head)
        self.formula = formula
        self.name = name
        if len(set(self.head)) != len(self.head):
            raise QueryError(f"duplicate head variables in {name!r}")
        # Head variables that do not occur freely range over the whole
        # active domain — legal FO, occasionally useful, kept.  The
        # converse is an error: a free variable outside the head would be
        # unbound during evaluation.
        stray = formula.free_variables() - frozenset(self.head)
        if stray:
            raise QueryError(
                f"free variables {sorted(v.name for v in stray)} of "
                f"{name!r} are not in the head; quantify them explicitly"
            )

    @property
    def arity(self) -> int:
        """Head arity."""
        return len(self.head)

    def relations(self) -> frozenset[str]:
        """All relation names the query mentions."""
        return self.formula.relations()

    def evaluate(self, database: Mapping[str, Relation]) -> frozenset[Row]:
        """Answers under active-domain semantics.

        Raises :class:`QueryError` when the formula mentions a relation
        absent from ``database``.
        """
        if self._plan is None:
            self._plan = self._compile()
        relations, (bound, candidates), order, output = self._plan
        for relation in sorted(relations):
            if relation not in database:
                raise QueryError(
                    f"formula mentions relation {relation!r} absent "
                    f"from the database"
                )
        domain = sorted(active_domain(database, self.formula), key=repr)
        holds = self.formula._holds
        free = len(order) - len(bound)
        out: set[Row] = set()
        for row in candidates(database):
            for rest in itertools.product(domain, repeat=free):
                values = row + rest
                if holds(database, dict(zip(order, values)), domain):
                    out.add(tuple([values[i] for i in output]))
        return frozenset(out)

    def _compile(
        self,
    ) -> tuple[frozenset[str], CandidateGenerator, tuple[Variable, ...], tuple[int, ...]]:
        """Relations, candidate generator, binding order, head positions."""
        generator = self.formula._generator()
        if generator is None:
            generator = ((), lambda database: {()})
        bound = generator[0]
        order = bound + tuple(v for v in self.head if v not in bound)
        output = tuple(order.index(v) for v in self.head)
        return self.formula.relations(), generator, order, output

    def __getstate__(self) -> dict:
        # The compiled plan holds closures; it is rebuilt on first use.
        state = dict(self.__dict__)
        state.pop("_plan", None)
        return state

    def holds(self, database: Mapping[str, Relation]) -> bool:
        """For boolean queries: truth of the (closed) formula."""
        return bool(self.evaluate(database))

    def __str__(self) -> str:
        head = ", ".join(v.name for v in self.head)
        return f"{self.name}({head}) := {self.formula}"


def active_domain(
    database: Mapping[str, Relation], formula: FOFormula | None = None
) -> frozenset[Any]:
    """Values in the database, plus the formula's constants."""
    values: set[Any] = set()
    for relation in database.values():
        values |= relation.active_domain()
    if formula is not None:
        values |= {c.value for c in formula.constants()}
    if not values:
        # FO evaluation over an entirely empty database still needs one
        # element for the quantifiers to range over; a single fresh value
        # is the canonical choice (any one-element domain is isomorphic).
        values.add("#adom")
    return frozenset(values)


# -- bounded model finding -------------------------------------------------------


class FactNamer:
    """Names propositional variables for potential facts ``R(row)``."""

    def __init__(self) -> None:
        self._names: dict[tuple[str, Row], str] = {}

    def __call__(self, relation: str, row: Row) -> str:
        key = (relation, row)
        if key not in self._names:
            # Ordinal names are injective; names built from the relation
            # and the row's reprs collide (``R_1('a')`` vs ``R(1, 'a')``).
            self._names[key] = f"fact{len(self._names)}"
        return self._names[key]

    def decode(self) -> dict[str, tuple[str, Row]]:
        """Map from propositional variable name back to the fact."""
        return {name: key for key, name in self._names.items()}


def ground_to_sat(
    formula: FOFormula, domain: Sequence[Any], fact_var: FactNamer | None = None
) -> pl.Formula:
    """Ground a *closed* FO formula over an explicit finite domain.

    Every potential fact becomes a propositional variable; quantifiers
    expand into finite conjunctions/disjunctions.  The result is
    satisfiable iff the formula has a model with that domain (constants
    interpreted as themselves — include them in ``domain``).
    """
    free = formula.free_variables()
    if free:
        raise QueryError(
            f"grounding requires a closed formula; free: {sorted(v.name for v in free)}"
        )
    return formula._ground({}, domain, fact_var or FactNamer())


def bounded_satisfiable(
    formula: FOFormula, max_domain_size: int = 3
) -> tuple[bool, int | None]:
    """Search for a finite model with at most ``max_domain_size`` elements.

    Returns ``(found, size)``; ``(False, None)`` means no model up to the
    bound exists — which, FO satisfiability being undecidable, does *not*
    imply unsatisfiability.  Constants of the formula are always part of
    the domain (mutually distinct, as usual for data values).
    """
    from repro.logic.sat import satisfiable

    constants = sorted({c.value for c in formula.constants()}, key=repr)
    base = len(constants)
    upper = max(base, max_domain_size)
    for size in range(max(base, 1), upper + 1):
        domain = list(constants) + [f"#e{i}" for i in range(size - base)]
        grounded = ground_to_sat(formula, domain)
        if satisfiable(grounded):
            return True, size
    return False, None


def cq_to_fo(query: ConjunctiveQuery) -> FOQuery:
    """View a conjunctive query as an FO query (∃-closure of the body).

    Head constants and repeated head variables are normalized into fresh
    head variables constrained by equalities, since :class:`FOQuery` heads
    are duplicate-free variable tuples.
    """
    parts: list[FOFormula] = [RelAtom(a) for a in query.atoms]
    for comp in query.comparisons:
        equality = Equals(comp.left, comp.right)
        parts.append(NotF(equality) if comp.negated else equality)

    head: list[Variable] = []
    extra: list[FOFormula] = []
    seen: set[Variable] = set()
    for i, term in enumerate(query.head):
        if isinstance(term, Variable) and term not in seen:
            head.append(term)
            seen.add(term)
        else:
            fresh = Variable(f"_h{i}")
            head.append(fresh)
            extra.append(Equals(fresh, term))

    body: FOFormula = AndF(parts + extra) if extra else AndF(parts)
    bound = sorted(query.variables() - frozenset(head))
    if bound:
        body = Exists(bound, body)
    return FOQuery(head, body, query.name)
