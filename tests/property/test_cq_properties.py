"""Hypothesis property tests for CQ/UCQ: containment is a preorder,
evaluation respects containment, composition is sound, and compiled
evaluation agrees with a brute-force oracle."""

import itertools

from hypothesis import assume, given, settings, strategies as st

from repro.data.relation import Relation
from repro.data.schema import RelationSchema
from repro.errors import QueryError
from repro.logic.cq import Atom, ConjunctiveQuery, eq, neq
from repro.logic.terms import Constant, Variable
from repro.logic.ucq import UnionQuery, compose

ARITIES = {"E": 2, "F": 2, "T": 3}
VARIABLES = [Variable(n) for n in ("x", "y", "z", "w")]
CONSTANTS = [Constant(v) for v in (0, 1, 2)]


@st.composite
def conjunctive_queries(draw):
    """Safe CQs with repeated variables, constants, 3-ary atoms, = and ≠."""
    terms = st.one_of(
        st.sampled_from(VARIABLES[:3]), st.sampled_from(VARIABLES[:3]),
        st.sampled_from(CONSTANTS),
    )
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        rel = draw(st.sampled_from(sorted(ARITIES)))
        atoms.append(Atom(rel, tuple(draw(terms) for _ in range(ARITIES[rel]))))
    used = sorted({v for a in atoms for v in a.variables()}, key=lambda v: v.name)
    # ``w`` never occurs in an atom: it is safe only through an equality.
    comparable = used + CONSTANTS + [VARIABLES[3]]
    comparisons = []
    for _ in range(draw(st.integers(0, 2))):
        make = draw(st.sampled_from([eq, neq]))
        comparisons.append(
            make(draw(st.sampled_from(comparable)), draw(st.sampled_from(comparable)))
        )
    head_terms = used + [VARIABLES[3]] + CONSTANTS[:1]
    head = tuple(
        draw(st.sampled_from(head_terms)) for _ in range(draw(st.integers(1, 2)))
    )
    try:
        return ConjunctiveQuery(head, atoms, comparisons)
    except QueryError:
        assume(False)


@st.composite
def databases(draw):
    values = st.integers(0, 2)
    return {
        name: Relation(
            RelationSchema(name, [f"a{i}" for i in range(arity)]),
            draw(st.lists(st.tuples(*[values] * arity), max_size=5)),
        )
        for name, arity in ARITIES.items()
    }


def _oracle(query, db):
    """Brute force: every assignment over the active domain plus constants."""
    domain = {v for relation in db.values() for row in relation for v in row}
    domain |= {c.value for c in query.constants()}
    variables = sorted(query.variables())

    def value(term, assignment):
        return term.value if isinstance(term, Constant) else assignment[term]

    answers = set()
    for values in itertools.product(sorted(domain), repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if all(
            tuple(value(t, assignment) for t in a.terms) in db[a.relation].rows
            for a in query.atoms
        ) and all(
            (value(c.left, assignment) == value(c.right, assignment)) != c.negated
            for c in query.comparisons
        ):
            answers.add(tuple(value(t, assignment) for t in query.head))
    return frozenset(answers)


def _pad(query, arity):
    """Unify head arity for containment comparisons."""
    if query.arity == arity:
        return query
    head = query.head + (query.head[-1],) * (arity - query.arity)
    return ConjunctiveQuery(head, query.atoms, query.comparisons)


class TestContainmentProperties:
    @given(conjunctive_queries())
    @settings(max_examples=50, deadline=None)
    def test_reflexive(self, query):
        assert query.contained_in(query)

    @given(conjunctive_queries(), conjunctive_queries(), databases())
    @settings(max_examples=50, deadline=None)
    def test_containment_implies_answer_inclusion(self, q1, q2, db):
        arity = max(q1.arity, q2.arity)
        q1, q2 = _pad(q1, arity), _pad(q2, arity)
        if q1.contained_in(q2):
            assert q1.evaluate(db) <= q2.evaluate(db)

    @given(conjunctive_queries(), databases())
    @settings(max_examples=50, deadline=None)
    def test_unsatisfiable_evaluates_empty(self, query, db):
        if not query.is_satisfiable():
            assert query.evaluate(db) == frozenset()

    @given(conjunctive_queries(), databases())
    @settings(max_examples=40, deadline=None)
    def test_minimization_preserves_answers(self, query, db):
        assert query.minimized().evaluate(db) == query.evaluate(db)


class TestUnionProperties:
    @given(conjunctive_queries(), conjunctive_queries(), databases())
    @settings(max_examples=40, deadline=None)
    def test_union_evaluation(self, q1, q2, db):
        arity = max(q1.arity, q2.arity)
        q1, q2 = _pad(q1, arity), _pad(q2, arity)
        union = UnionQuery.of(q1, q2)
        assert union.evaluate(db) == q1.evaluate(db) | q2.evaluate(db)

    @given(conjunctive_queries(), conjunctive_queries())
    @settings(max_examples=30, deadline=None)
    def test_disjuncts_contained_in_union(self, q1, q2):
        arity = max(q1.arity, q2.arity)
        q1, q2 = _pad(q1, arity), _pad(q2, arity)
        union = UnionQuery.of(q1, q2)
        assert UnionQuery.of(q1).contained_in(union)
        assert UnionQuery.of(q2).contained_in(union)

    @given(conjunctive_queries(), databases())
    @settings(max_examples=30, deadline=None)
    def test_union_minimization_preserves_answers(self, query, db):
        doubled = UnionQuery.of(query, query)
        assert doubled.minimized().evaluate(db) == query.evaluate(db)


class TestCompiledEvaluation:
    @given(conjunctive_queries(), databases())
    @settings(max_examples=200, deadline=None)
    def test_cq_matches_oracle(self, query, db):
        assert query.evaluate(db) == _oracle(query, db)

    @given(conjunctive_queries(), databases(), databases())
    @settings(max_examples=50, deadline=None)
    def test_interleaved_evaluations_agree(self, query, db1, db2):
        # The memoized normal form and plan carry no state between calls.
        answers = [query.evaluate(db) for db in (db1, db2, db1)]
        assert answers == [_oracle(query, db1), _oracle(query, db2), answers[0]]

    @given(conjunctive_queries(), conjunctive_queries(), databases())
    @settings(max_examples=100, deadline=None)
    def test_ucq_matches_oracle(self, q1, q2, db):
        arity = max(q1.arity, q2.arity)
        q1, q2 = _pad(q1, arity), _pad(q2, arity)
        union = UnionQuery.of(q1, q2)
        assert union.evaluate(db) == _oracle(q1, db) | _oracle(q2, db)


class TestCompositionProperties:
    @given(conjunctive_queries(), conjunctive_queries(), conjunctive_queries(), databases())
    @settings(max_examples=150, deadline=None)
    def test_compose_matches_materialization(self, query, d1, d2, db):
        # E := d1 ∪ d2 over the base E, F, T; unfolding the query's E atoms
        # must answer like the query on a database whose E is materialized.
        definition = UnionQuery.of(_pad(d1, 2), _pad(d2, 2))
        materialized = dict(db)
        materialized["E"] = Relation(db["E"].schema, definition.evaluate(db))
        composed = compose(query, {"E": definition})
        assert composed.evaluate(db) == query.evaluate(materialized)
        for disjunct in composed:
            assert not disjunct.equalities() and disjunct.normalized() is disjunct
            rebuilt = ConjunctiveQuery(disjunct.head, disjunct.atoms, disjunct.comparisons)
            assert rebuilt == disjunct
