"""Tests for first-order queries: evaluation and bounded model finding."""

import pytest

from repro.data.relation import Relation
from repro.data.schema import RelationSchema
from repro.errors import QueryError
from repro.logic import fo
from repro.logic.cq import Atom, ConjunctiveQuery, neq
from repro.logic.terms import const, var

x, y, z = var("x"), var("y"), var("z")


@pytest.fixture
def db():
    return {
        "E": Relation(RelationSchema("E", ("a", "b")), [(1, 2), (2, 3), (3, 1)])
    }


class TestEvaluation:
    def test_atom(self, db):
        q = fo.FOQuery((x, y), fo.atom("E", x, y))
        assert q.evaluate(db) == {(1, 2), (2, 3), (3, 1)}

    def test_negation(self, db):
        # Nodes with no self loop: all of them.
        q = fo.FOQuery((x,), fo.NotF(fo.atom("E", x, x)))
        assert q.evaluate(db) == {(1,), (2,), (3,)}

    def test_existential(self, db):
        q = fo.FOQuery(
            (x,), fo.Exists((y,), fo.AndF([fo.atom("E", x, y), fo.atom("E", y, x)]))
        )
        assert q.evaluate(db) == frozenset()

    def test_universal(self, db):
        # Nodes x such that every outgoing edge goes to 2: just node 1.
        q = fo.FOQuery(
            (x,),
            fo.AndF(
                [
                    fo.Exists((y,), fo.atom("E", x, y)),
                    fo.Forall(
                        (y,),
                        fo.OrF(
                            [fo.NotF(fo.atom("E", x, y)), fo.Equals(y, const(2))]
                        ),
                    ),
                ]
            ),
        )
        assert q.evaluate(db) == {(1,)}

    def test_equality(self, db):
        q = fo.FOQuery((x, y), fo.AndF([fo.atom("E", x, y), fo.Equals(x, const(1))]))
        assert q.evaluate(db) == {(1, 2)}

    def test_closed_formula_holds(self, db):
        sentence = fo.Exists((x, y), fo.atom("E", x, y))
        q = fo.FOQuery((), sentence)
        assert q.holds(db)

    def test_active_domain_semantics(self, db):
        # A negated atom ranges over the active domain only.
        q = fo.FOQuery((x,), fo.NotF(fo.Exists((y,), fo.atom("E", x, y))))
        assert q.evaluate(db) == frozenset()  # all nodes have out-edges

    def test_missing_relation_raises(self):
        q = fo.FOQuery((x,), fo.atom("Nope", x))
        with pytest.raises(QueryError):
            q.evaluate({})

    def test_quantifier_shadowing_a_head_variable(self, db):
        # The inner y is a different variable: its values must not
        # restrict the head's y.
        q = fo.FOQuery(
            (x, y),
            fo.AndF([fo.atom("E", x, y), fo.Exists((y,), fo.atom("E", y, const(1)))]),
        )
        assert q.evaluate(db) == {(1, 2), (2, 3), (3, 1)}

    def test_head_variable_not_free(self, db):
        q = fo.FOQuery((x, z), fo.atom("E", x, const(2)))
        assert q.evaluate(db) == {(1, 1), (1, 2), (1, 3)}

    def test_disjuncts_binding_different_variables(self, db):
        q = fo.FOQuery(
            (x, y), fo.OrF([fo.atom("E", x, y), fo.Equals(x, const(3))])
        )
        assert q.evaluate(db) == {(1, 2), (2, 3), (3, 1), (3, 2), (3, 3)}

    def test_duplicate_head_rejected(self):
        with pytest.raises(QueryError, match="duplicate"):
            fo.FOQuery((x, x), fo.atom("E", x, x))


class TestCqToFo:
    def test_plain_translation(self, db):
        cq = ConjunctiveQuery((x,), [Atom("E", (x, y))])
        foq = fo.cq_to_fo(cq)
        assert foq.evaluate(db) == cq.evaluate(db)

    def test_with_inequality(self, db):
        cq = ConjunctiveQuery((x, y), [Atom("E", (x, y))], [neq(x, y)])
        foq = fo.cq_to_fo(cq)
        assert foq.evaluate(db) == cq.evaluate(db)

    def test_with_head_constant(self, db):
        cq = ConjunctiveQuery((const("t"), x), [Atom("E", (x, y))])
        foq = fo.cq_to_fo(cq)
        assert foq.evaluate(db) == cq.evaluate(db)

    def test_with_repeated_head_variable(self, db):
        cq = ConjunctiveQuery((x, x), [Atom("E", (x, y))])
        foq = fo.cq_to_fo(cq)
        assert foq.evaluate(db) == cq.evaluate(db)


class TestGrounding:
    def test_ground_requires_closed(self):
        with pytest.raises(QueryError, match="closed"):
            fo.ground_to_sat(fo.atom("E", x, y), [0, 1])

    def test_grounding_respects_models(self):
        # ∃x E(x,x) grounded over a 2-element domain.
        sentence = fo.Exists((x,), fo.atom("E", x, x))
        grounded = fo.ground_to_sat(sentence, [0, 1])
        from repro.logic.sat import satisfiable

        assert satisfiable(grounded)
        negated = fo.NotF(sentence)
        grounded_neg = fo.ground_to_sat(negated, [0, 1])
        assert satisfiable(grounded_neg)  # the empty E is a model


class TestFactNamer:
    def test_names_are_injective_and_decode_exactly(self):
        namer = fo.FactNamer()
        first = namer("R_1", ("a",))
        second = namer("R", (1, "a"))
        assert first != second
        assert namer("R_1", ("a",)) == first
        assert namer.decode() == {first: ("R_1", ("a",)), second: ("R", (1, "a"))}

    def test_colliding_reprs_keep_distinct_facts(self):
        # R_1('a') ∧ ¬R(1, 'a') has the model {R_1('a')}; when both facts
        # shared one propositional variable the grounding was unsatisfiable.
        sentence = fo.AndF(
            [
                fo.atom("R_1", const("a")),
                fo.NotF(fo.atom("R", const(1), const("a"))),
            ]
        )
        assert fo.bounded_satisfiable(sentence, 2) == (True, 2)


class TestBoundedSatisfiability:
    def test_simple_satisfiable(self):
        sentence = fo.Exists((x, y), fo.AndF([fo.atom("E", x, y), fo.NotF(fo.Equals(x, y))]))
        found, size = fo.bounded_satisfiable(sentence, max_domain_size=3)
        assert found
        assert size == 2

    def test_unsatisfiable_within_bound(self):
        # ∃x E(x) ∧ ∀x ¬E(x) has no model at any size.
        sentence = fo.AndF(
            [
                fo.Exists((x,), fo.atom("E1", x)),
                fo.Forall((x,), fo.NotF(fo.atom("E1", x))),
            ]
        )
        found, size = fo.bounded_satisfiable(sentence, max_domain_size=3)
        assert not found
        assert size is None

    def test_needs_two_elements(self):
        # ∃x∃y x≠y needs domain size ≥ 2.
        sentence = fo.Exists((x, y), fo.NotF(fo.Equals(x, y)))
        found, size = fo.bounded_satisfiable(sentence, max_domain_size=3)
        assert found and size == 2

    def test_constants_always_in_domain(self):
        sentence = fo.Exists((x,), fo.AndF([fo.Equals(x, const("a")), fo.atom("E1", x)]))
        found, _size = fo.bounded_satisfiable(sentence, max_domain_size=1)
        assert found
