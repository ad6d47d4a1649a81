"""Tests for the UCQ≠ expansion of CQ/UCQ services."""

import itertools
import time

import pytest

from repro.core.run import run_relational
from repro.core.sws import MSG, SWS, SWSKind, SynthesisRule, TransitionRule
from repro.core.unfold import (
    evaluate_expansion,
    expand,
    expansion_relations,
    input_relation_name,
    saturation_length,
)
from repro.data.generators import InstanceGenerator
from repro.errors import AnalysisError
from repro.logic.cq import Atom, ConjunctiveQuery, eq, neq
from repro.logic.terms import Constant, Variable, var
from repro.logic.ucq import UnionQuery, compose
from repro.workloads.random_sws import DEFAULT_CQ_SCHEMA, DEFAULT_PAYLOAD, random_cq_sws
from repro.workloads.scaling import cq_chain_sws, cq_diamond_sws
from repro.workloads.travel import travel_service


class TestBasics:
    def test_input_relation_names(self):
        assert input_relation_name(3) == "In_3"

    def test_saturation_length(self):
        assert saturation_length(cq_diamond_sws(3)) == 4

    def test_saturation_rejects_recursive(self):
        with pytest.raises(AnalysisError):
            saturation_length(cq_chain_sws(0))

    def test_expand_rejects_fo(self):
        with pytest.raises(AnalysisError):
            expand(travel_service(), 1)

    def test_negative_length_rejected(self):
        with pytest.raises(AnalysisError):
            expand(cq_diamond_sws(1), -1)

    def test_expansion_relations(self):
        sws = cq_diamond_sws(1)
        names = expansion_relations(sws, 2)
        assert "R" in names and "In_1" in names and "In_2" in names


class TestExponentialGrowth:
    def test_diamond_doubles(self):
        sizes = []
        for depth in (1, 2, 3, 4):
            sws = cq_diamond_sws(depth)
            expansion = expand(sws, saturation_length(sws))
            sizes.append(len(expansion.disjuncts))
        assert sizes == [2, 4, 8, 16]

    def test_chain_unfolding_grows_linearly(self):
        chain = cq_chain_sws(0)
        sizes = [len(expand(chain, n).disjuncts) for n in range(2, 6)]
        assert sizes == sorted(sizes)
        assert sizes[0] >= 1


class TestCorrectness:
    """Q_n(D, I) must equal τ(D, I) for inputs of length n."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_nonrecursive(self, seed):
        gen = InstanceGenerator(seed=seed + 100, domain_size=3)
        sws = random_cq_sws(seed, n_states=4, recursive=False)
        n = saturation_length(sws)
        expansion = expand(sws, n)
        for _trial in range(3):
            db = gen.database(sws.db_schema, 3)
            inputs = gen.input_sequence(sws.input_schema, n, 2)
            direct = run_relational(sws, db, inputs).output.rows
            if expansion.disjuncts:
                via_q = evaluate_expansion(expansion, sws, db, inputs, n)
            else:
                via_q = frozenset()
            assert direct == via_q

    @pytest.mark.parametrize("n", range(0, 4))
    def test_recursive_chain_per_length(self, n):
        gen = InstanceGenerator(seed=n, domain_size=3)
        chain = cq_chain_sws(0)
        expansion = expand(chain, n)
        for _trial in range(3):
            db = gen.database(chain.db_schema, 4)
            inputs = gen.input_sequence(chain.input_schema, n, 2)
            direct = run_relational(chain, db, inputs).output.rows
            if expansion.disjuncts:
                via_q = evaluate_expansion(expansion, chain, db, inputs, n)
            else:
                via_q = frozenset()
            assert direct == via_q

    def test_truncated_sessions(self):
        gen = InstanceGenerator(seed=9, domain_size=3)
        sws = cq_diamond_sws(3)
        for n in range(0, 3):  # below saturation
            expansion = expand(sws, n)
            db = gen.database(sws.db_schema, 4)
            inputs = gen.input_sequence(sws.input_schema, n, 2)
            direct = run_relational(sws, db, inputs).output.rows
            via_q = (
                evaluate_expansion(expansion, sws, db, inputs, n)
                if expansion.disjuncts
                else frozenset()
            )
            assert direct == via_q

    def test_saturation_really_saturates(self):
        sws = cq_diamond_sws(2)
        n = saturation_length(sws)
        q_at_saturation = expand(sws, n)
        q_beyond = expand(sws, n + 2)
        assert q_at_saturation.equivalent_to(q_beyond)


class TestMonotonicity:
    def test_output_monotone_in_session_length(self):
        # Positivity: extending the input can only grow the output.
        gen = InstanceGenerator(seed=4, domain_size=3)
        chain = cq_chain_sws(0)
        db = gen.database(chain.db_schema, 5)
        inputs = gen.input_sequence(chain.input_schema, 4, 2)
        previous = frozenset()
        for n in range(1, 5):
            out = run_relational(chain, db, inputs.prefix(n)).output.rows
            assert previous <= out or not previous
            previous = out


def assert_normal_and_safe(disjunct):
    """A composed disjunct is its own normal form and passes the public checks."""
    assert not disjunct.equalities()
    assert disjunct.normalized() is disjunct
    rebuilt = ConjunctiveQuery(
        disjunct.head, disjunct.atoms, disjunct.comparisons, disjunct.name
    )
    assert rebuilt == disjunct
    assert rebuilt.normalized() is rebuilt


def assert_expansion_matches_run(sws, n, seed, trials=3):
    expansion = expand(sws, n)
    for disjunct in expansion.disjuncts:
        assert_normal_and_safe(disjunct)
    gen = InstanceGenerator(seed=seed, domain_size=3)
    for _trial in range(trials):
        db = gen.database(sws.db_schema, 4)
        inputs = gen.input_sequence(sws.input_schema, n, 2)
        direct = run_relational(sws, db, inputs).output.rows
        via_q = (
            evaluate_expansion(expansion, sws, db, inputs, n)
            if expansion.disjuncts
            else frozenset()
        )
        assert direct == via_q, (sws.name, n, seed)


def with_factory_names(sws):
    """The service with its rule variables renamed ``_v0, _v1, ...``.

    Those are the names :class:`FreshVariableFactory` hands out, so every
    renamed-apart definition would capture a rule variable unless the
    factory reserves them.
    """
    rule_queries = [phi for rule in sws.transitions.values() for _t, phi in rule.targets]
    rule_queries += [rule.query for rule in sws.synthesis.values()]
    names = sorted(set().union(*(q.variables() for q in rule_queries)))
    mapping = {v: Variable(f"_v{i}") for i, v in enumerate(names)}

    def rename(query):
        if isinstance(query, UnionQuery):
            return UnionQuery(
                [d.rename(mapping) for d in query.disjuncts],
                arity=query.arity,
                name=query.name,
            )
        return query.rename(mapping)

    transitions = {
        state: TransitionRule([(t, rename(phi)) for t, phi in rule.targets])
        for state, rule in sws.transitions.items()
    }
    synthesis = {
        state: SynthesisRule(rename(rule.query)) for state, rule in sws.synthesis.items()
    }
    return SWS(
        sws.states,
        sws.start,
        transitions,
        synthesis,
        kind=sws.kind,
        db_schema=sws.db_schema,
        input_schema=sws.input_schema,
        output_arity=sws.output_arity,
        name=f"{sws.name}_v",
    )


def three_state_service(a, b, c):
    """q0 reads the input, q1 follows R, q2 emits the S-successors."""
    x, y, z = var(a), var(b), var(c)
    first = ConjunctiveQuery((x, y), [Atom("In", (x, y))], (), "first")
    step = ConjunctiveQuery(
        (y, z), [Atom(MSG, (x, y)), Atom("R", (y, z))], (), "step"
    )
    emit = ConjunctiveQuery(
        (x, z), [Atom(MSG, (x, y)), Atom("S", (y, z))], (), "emit"
    )
    pass_up = UnionQuery.of(ConjunctiveQuery((x, y), [Atom("A1", (x, y))], (), "up"))
    return SWS(
        ["q0", "q1", "q2"],
        "q0",
        {
            "q0": TransitionRule([("q1", first)]),
            "q1": TransitionRule([("q2", step)]),
            "q2": TransitionRule(),
        },
        {
            "q0": SynthesisRule(pass_up),
            "q1": SynthesisRule(pass_up),
            "q2": SynthesisRule(UnionQuery.of(emit)),
        },
        kind=SWSKind.RELATIONAL,
        db_schema=DEFAULT_CQ_SCHEMA,
        input_schema=DEFAULT_PAYLOAD,
        output_arity=2,
    )


class TestVariableCapture:
    @pytest.mark.parametrize("names", [("_v0", "_v1", "_v2"), ("x", "y", "z")])
    def test_rule_variables_named_like_fresh_ones(self, names):
        # Fresh names once captured ``_v0``..``_v2``: about half of the
        # seeded (D, I) then disagreed with the run.
        sws = three_state_service(*names)
        for seed in range(40):
            assert_expansion_matches_run(sws, 3, seed, trials=1)


#: Wall-clock budget per differential family: cases grow until it is spent.
BUDGET_S = 1.5

DIFFERENTIAL_FAMILIES = {
    # Random nonrecursive services, 3 to 8 states, at saturation.
    "random": lambda seed: random_cq_sws(seed, n_states=3 + seed % 6),
    # Every diamond depth 1..4 (2 to 16 disjuncts) per round of seeds.
    "diamond": lambda seed: cq_diamond_sws(1 + seed % 4),
}


class TestDifferential:
    """Q_n(D, I) == τ(D, I) on as many cases as the budget affords."""

    @pytest.mark.parametrize("collide", [False, True], ids=["plain", "collide"])
    @pytest.mark.parametrize("family", sorted(DIFFERENTIAL_FAMILIES))
    def test_nonrecursive_families(self, family, collide):
        make = DIFFERENTIAL_FAMILIES[family]
        deadline = time.perf_counter() + BUDGET_S
        for seed in itertools.count():
            sws = make(seed)
            if collide:
                sws = with_factory_names(sws)
            assert_expansion_matches_run(sws, saturation_length(sws), seed)
            if seed >= 8 and time.perf_counter() > deadline:
                break

    @pytest.mark.parametrize("collide", [False, True], ids=["plain", "collide"])
    def test_recursive_chain(self, collide):
        chain = cq_chain_sws(0)
        if collide:
            chain = with_factory_names(chain)
        deadline = time.perf_counter() + BUDGET_S
        for seed in itertools.count():
            for n in range(0, 5):
                assert_expansion_matches_run(chain, n, seed)
            if time.perf_counter() > deadline:
                break


class TestComposedNormalForms:
    """compose() writes each choice straight out as a normal form."""

    def test_constant_clash_drops_the_choice(self):
        y = var("y")
        definition = UnionQuery.of(
            ConjunctiveQuery((Constant(1), y), [Atom("E", (y, y))], (), "one"),
            ConjunctiveQuery((Constant(2), y), [Atom("E", (y, y))], (), "two"),
        )
        query = ConjunctiveQuery((y,), [Atom("D", (Constant(2), y))])
        composed = compose(query, {"D": definition})
        assert [d.head for d in composed] == [(y,)]
        assert composed.disjuncts[0].atoms == (Atom("E", (y, y)),)
        assert_normal_and_safe(composed.disjuncts[0])

    def test_inequalities_are_resolved_deduplicated_or_dropped(self):
        x, y, u, v = var("x"), var("y"), var("u"), var("v")
        definition = UnionQuery.of(
            ConjunctiveQuery((u, v), [Atom("E", (u, v))], [neq(u, v)], "d")
        )
        # D(x, x) makes the definition's u != v read x != x: no disjunct.
        assert not compose(
            ConjunctiveQuery((x,), [Atom("D", (x, x))]), {"D": definition}
        ).disjuncts
        # D(1, 2) makes it 1 != 2, which holds and disappears.
        ground = compose(
            ConjunctiveQuery((), [Atom("D", (Constant(1), Constant(2)))]),
            {"D": definition},
        )
        (only,) = ground.disjuncts
        assert only.comparisons == () and only.atoms == (
            Atom("E", (Constant(1), Constant(2))),
        )
        # The query's own x != y duplicates the definition's after binding.
        query = ConjunctiveQuery((x, y), [Atom("D", (x, y))], [neq(x, y)])
        (only,) = compose(query, {"D": definition}).disjuncts
        assert only.comparisons == (neq(x, y),)
        assert_normal_and_safe(only)

    def test_query_equalities_are_folded_in(self):
        x, y, w, u, v = var("x"), var("y"), var("w"), var("u"), var("v")
        definition = UnionQuery.of(ConjunctiveQuery((u, v), [Atom("E", (u, v))]))
        query = ConjunctiveQuery((w,), [Atom("D", (x, y))], [eq(w, y), eq(x, Constant(0))])
        (only,) = compose(query, {"D": definition}).disjuncts
        assert only.atoms == (Atom("E", (Constant(0), w)),) and only.head == (w,)
        assert_normal_and_safe(only)
