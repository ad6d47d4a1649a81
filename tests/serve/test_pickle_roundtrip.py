"""Every public model type must cross a process boundary intact.

The worker pool ships instances to forked workers via pickle; these
tests pin the round-trip for one representative instance per public
type, checking structural identity through the serve fingerprint (which
ignores incidental attributes like compiled-engine caches) plus a
behavioural probe where the type has behaviour.
"""

from __future__ import annotations

import pickle

import pytest

from repro.analysis.verdict import Answer, Verdict
from repro.automata.afa import AFA
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.data.database import Database
from repro.data.relation import Relation
from repro.data.schema import DatabaseSchema, RelationSchema
from repro.guard import Budget
from repro.logic import fo, pl
from repro.logic.cq import Atom, Comparison, ConjunctiveQuery
from repro.logic.terms import Constant, Variable
from repro.logic.ucq import UnionQuery
from repro.serve import fingerprint
from repro.workloads.random_sws import random_cq_sws, random_fo_sws, random_pl_sws
from repro.workloads.scaling import afa_counter, cq_diamond_sws, pl_counter_sws
from repro.workloads.travel import (
    booking_request,
    sample_database,
    travel_mediator,
)


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


def assert_same_fingerprint(value):
    copy = roundtrip(value)
    assert fingerprint(copy) == fingerprint(value)
    return copy


def test_pl_formula_reinterns():
    f = pl.Or((pl.And((pl.Var("x"), pl.Not(pl.Var("y")))), pl.Const(True)))
    g = roundtrip(f)
    # Hash-consing: unpickling re-interns into the same node.
    assert g is f


def test_fo_query():
    q = fo.FOQuery(
        head=[Variable("x")],
        formula=fo.Exists(
            [Variable("y")],
            fo.AndF(
                [
                    fo.RelAtom(Atom("R", (Variable("x"), Variable("y")))),
                    fo.NotF(fo.Equals(Variable("x"), Constant(1))),
                ]
            ),
        ),
    )
    assert_same_fingerprint(q)


def test_cq_and_ucq():
    q = ConjunctiveQuery(
        head=[Variable("x")],
        atoms=[Atom("R", (Variable("x"), Variable("y")))],
        comparisons=[Comparison(Variable("x"), Variable("y"), negated=True)],
    )
    assert_same_fingerprint(q)
    assert_same_fingerprint(UnionQuery([q], arity=1))


@pytest.mark.parametrize(
    "factory",
    [
        lambda: pl_counter_sws(4),
        lambda: cq_diamond_sws(3),
        lambda: random_pl_sws(seed=7),
        lambda: random_cq_sws(seed=7),
        lambda: random_fo_sws(seed=7),
    ],
)
def test_sws_kinds(factory):
    sws = factory()
    copy = assert_same_fingerprint(sws)
    assert copy.states == sws.states
    assert copy.reachable_states() == sws.reachable_states()


def test_mediator():
    mediator = travel_mediator()
    copy = assert_same_fingerprint(mediator)
    assert set(copy.components) == set(mediator.components)


def test_afa_with_compiled_engine():
    afa = afa_counter(3)
    word = afa.accepting_witness()
    assert word is not None  # forces engine compilation (exec closures)
    copy = assert_same_fingerprint(afa)
    # The dropped engine recompiles on first use in the receiver.
    assert copy.accepts(word)
    assert copy.accepting_witness() is not None


def test_nfa_and_dfa():
    nfa = NFA(
        states={"p", "q", "r"},
        alphabet={"a", "b"},
        transitions={("p", "a"): {"q"}, ("q", None): {"r"}, ("r", "b"): {"r"}},
        initials={"p"},
        finals={"r"},
    )
    copy = assert_same_fingerprint(nfa)
    assert copy.accepts(["a", "b"]) == nfa.accepts(["a", "b"])
    dfa = nfa.determinize()
    dcopy = assert_same_fingerprint(dfa)
    assert dcopy.accepts(["a"]) == dfa.accepts(["a"])


def test_database_relation_schemas():
    db = sample_database()
    copy = assert_same_fingerprint(db)
    assert set(copy.schema) == set(db.schema)
    schema = RelationSchema("E", ("src", "dst"))
    assert roundtrip(schema) == schema
    dschema = DatabaseSchema([schema])
    assert_same_fingerprint(dschema)
    rel = Relation(schema, {(1, 2), (2, 3)})
    assert_same_fingerprint(rel)


def test_input_sequence():
    seq = booking_request()
    copy = assert_same_fingerprint(seq)
    assert list(copy) == list(seq)


def test_answer_and_budget():
    answer = Answer.yes(witness=("w",), detail="test")
    copy = roundtrip(answer)
    assert copy == answer and copy.verdict is Verdict.YES
    budget = Budget(deadline_s=1.5, step_budget=100)
    assert roundtrip(budget) == budget


def test_evaluation_memos_never_reach_the_wire():
    """Normal forms and plans are built on first use and dropped by pickle.

    Worker IPC and the artifact store see the same bytes and the same job
    fingerprint whether or not an instance was evaluated or normalized.
    """
    from repro.analysis import nonempty_cq_nr
    from repro.core.run import run_relational
    from repro.serve.fingerprint import job_fingerprint
    from repro.workloads.travel import travel_service

    x, y = Variable("x"), Variable("y")
    cq = ConjunctiveQuery(
        (x,),
        [Atom("R", (x, y))],
        [Comparison(y, Constant(1), negated=False), Comparison(x, y, negated=True)],
    )
    plain = ConjunctiveQuery((x,), [Atom("R", (y, x))])
    ucq = UnionQuery([cq, plain], arity=1)
    foq = fo.FOQuery(
        (x,), fo.OrF([fo.atom("R", x, Constant(1)), fo.NotF(fo.atom("R", x, x))])
    )
    travel, diamond = travel_service(), cq_diamond_sws(2)
    instances = {"cq": cq, "ucq": ucq, "fo": foq, "travel": travel, "diamond": diamond}

    def wire():
        return {
            name: (pickle.dumps(value), job_fingerprint("probe", (value,)))
            for name, value in instances.items()
        }

    before = wire()
    schema = RelationSchema("R", ("a", "b"))
    db = {"R": Relation(schema, [(0, 1), (2, 1), (3, 3)])}
    answers = {"cq": cq.evaluate(db), "ucq": ucq.evaluate(db), "fo": foq.evaluate(db)}
    assert cq.normalized() is cq.normalized() and ucq.is_satisfiable()
    packages = run_relational(travel, sample_database(), booking_request()).output
    assert packages and nonempty_cq_nr(diamond).is_yes
    assert wire() == before

    for name, query in (("cq", cq), ("ucq", ucq), ("fo", foq)):
        copy = roundtrip(query)
        assert copy.evaluate(db) == answers[name]
    assert not {"_classes", "_normal", "_plan"} & set(vars(roundtrip(cq)))
    assert "_plan" not in vars(roundtrip(foq))
    assert run_relational(roundtrip(travel), sample_database(), booking_request()).output == packages


def test_composed_expansion_roundtrip():
    """Expansions reach workers and the artifact store as pickles.

    Their disjuncts are built as normal forms without the safety check;
    the copy must carry none of the memos and still be its own normal
    form with the same answers.
    """
    from repro.core.unfold import evaluate_expansion, expand
    from repro.data.generators import InstanceGenerator

    sws = cq_diamond_sws(3)
    expansion = expand(sws, 4)
    gen = InstanceGenerator(seed=5, domain_size=2)
    db = gen.database(sws.db_schema, 3)
    inputs = gen.input_sequence(sws.input_schema, 4, 2)
    rows = evaluate_expansion(expansion, sws, db, inputs, 4)
    assert rows
    assert all(d._plan is not None for d in expansion.disjuncts)

    copy = roundtrip(expansion)
    assert copy == expansion and len(copy.disjuncts) == len(expansion.disjuncts)
    for disjunct in copy.disjuncts:
        assert not {"_classes", "_normal", "_plan"} & set(vars(disjunct))
        assert disjunct.normalized() is disjunct
    assert evaluate_expansion(copy, sws, db, inputs, 4) == rows
