"""Hypothesis property tests for FO evaluation: candidate generation never
changes an answer.

``FOQuery.evaluate`` draws head bindings from the formula's positive atoms
and ``var = constant`` equalities; the oracle here enumerates every head
tuple over the active domain and checks the formula on each one.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.relation import Relation
from repro.data.schema import RelationSchema
from repro.errors import QueryError
from repro.logic import fo
from repro.logic.terms import Constant, Variable

ARITIES = {"E": 2, "U": 1}
VARIABLES = [Variable(n) for n in ("x", "y", "z")]
CONSTANTS = [Constant(v) for v in (0, 1)]
TERMS = st.one_of(
    st.sampled_from(VARIABLES), st.sampled_from(VARIABLES), st.sampled_from(CONSTANTS)
)


@st.composite
def atoms(draw, relations=tuple(sorted(ARITIES))):
    relation = draw(st.sampled_from(relations))
    return fo.atom(relation, *(draw(TERMS) for _ in range(ARITIES.get(relation, 1))))


@st.composite
def equalities(draw):
    return fo.Equals(draw(TERMS), draw(TERMS))


def formulas(leaves):
    """∧/∨ over mixed bindings, ¬, ∃ and ∀ above atoms and equalities."""
    return st.recursive(
        st.one_of(leaves, equalities()),
        lambda children: st.one_of(
            st.lists(children, min_size=1, max_size=3).map(fo.AndF),
            st.lists(children, min_size=1, max_size=3).map(fo.OrF),
            children.map(fo.NotF),
            st.tuples(st.sampled_from(VARIABLES), children).map(
                lambda pair: fo.Exists((pair[0],), pair[1])
            ),
            st.tuples(st.sampled_from(VARIABLES), children).map(
                lambda pair: fo.Forall((pair[0],), pair[1])
            ),
        ),
        max_leaves=6,
    )


@st.composite
def same_binding_disjunctions(draw):
    """Top-level ∨ whose disjuncts all bind the same variables."""
    bound = draw(st.lists(st.sampled_from(VARIABLES), min_size=1, max_size=2, unique=True))
    terms = st.one_of(st.sampled_from(bound), st.sampled_from(CONSTANTS))
    disjuncts = []
    for _ in range(draw(st.integers(2, 3))):
        parts = [
            fo.atom("U", v) if draw(st.booleans())
            else fo.Equals(v, draw(st.sampled_from(CONSTANTS)))
            for v in bound
        ]
        if draw(st.booleans()):
            parts.append(fo.atom("E", draw(terms), draw(terms)))
        if draw(st.booleans()):
            parts.append(fo.NotF(draw(formulas(atoms()))))
        disjuncts.append(fo.AndF(draw(st.permutations(parts))))
    return fo.OrF(disjuncts)


@st.composite
def queries(draw, leaves=atoms(), formula=None):
    formula = draw(formula if formula is not None else formulas(leaves))
    free = sorted(formula.free_variables())
    # Head variables that are not free range over the whole active domain.
    extra = draw(st.lists(st.sampled_from(VARIABLES), max_size=1))
    head = list(dict.fromkeys(free + extra))
    return fo.FOQuery(draw(st.permutations(head)), formula)


@st.composite
def databases(draw):
    values = st.integers(0, 2)
    return {
        name: Relation(
            RelationSchema(name, [f"a{i}" for i in range(arity)]),
            draw(st.lists(st.tuples(*[values] * arity), max_size=4)),
        )
        for name, arity in ARITIES.items()
    }


def _oracle(query, db):
    """Every head tuple over the active domain, checked one by one."""
    domain = sorted(fo.active_domain(db, query.formula), key=repr)
    return frozenset(
        values
        for values in itertools.product(domain, repeat=len(query.head))
        if query.formula._holds(db, dict(zip(query.head, values)), domain)
    )


class TestCandidateGeneration:
    @given(queries(), databases())
    @settings(max_examples=300, deadline=None)
    def test_evaluate_matches_full_enumeration(self, query, db):
        assert query.evaluate(db) == _oracle(query, db)

    @given(queries(formula=same_binding_disjunctions()), databases())
    @settings(max_examples=150, deadline=None)
    def test_union_of_disjunct_candidates(self, query, db):
        assert query.evaluate(db) == _oracle(query, db)

    @given(queries(), databases(), databases())
    @settings(max_examples=50, deadline=None)
    def test_interleaved_evaluations_agree(self, query, db1, db2):
        answers = [query.evaluate(db) for db in (db1, db2, db1)]
        assert answers == [_oracle(query, db1), _oracle(query, db2), answers[0]]

    @given(queries(), databases())
    @settings(max_examples=50, deadline=None)
    def test_boolean_holds_matches(self, query, db):
        closed = fo.FOQuery((), fo.Exists(query.head, query.formula))
        assert closed.holds(db) == bool(_oracle(query, db))

    @given(queries(leaves=atoms(relations=("E", "U", "Missing"))), databases())
    @settings(max_examples=100, deadline=None)
    def test_missing_relation_raises(self, query, db):
        if "Missing" in query.relations():
            with pytest.raises(QueryError, match="absent"):
                query.evaluate(db)
        else:
            assert query.evaluate(db) == _oracle(query, db)
