"""Fingerprints must depend on structure only.

Same instance built in a different order, under a different hash seed,
or with a different name → same fingerprint; any structural change →
a different one.
"""

from __future__ import annotations

import importlib
import os
import pickle
import random
import subprocess
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.nfa import NFA
from repro.core.sws import SWS, SWSKind, SynthesisRule, TransitionRule
from repro.logic import pl
from repro.logic.cq import Atom, ConjunctiveQuery
from repro.logic.terms import Constant, Variable
from repro.logic.ucq import UnionQuery
from repro.serve import fingerprint, job_fingerprint
from repro.serve.fingerprint import FingerprintError, canonical, sub_fingerprints
from repro.workloads.random_sws import random_cq_sws, random_pl_sws
from repro.workloads.scaling import cq_diamond_sws, pl_counter_sws
from repro.workloads.travel import travel_mediator, travel_service


def shuffled_pl_counter(bits: int, seed: int) -> SWS:
    """``pl_counter_sws(bits)`` rebuilt with shuffled container orders."""
    base = pl_counter_sws(bits)
    rng = random.Random(seed)
    states = list(base.states)
    rng.shuffle(states)
    trans_items = list(base.transitions.items())
    rng.shuffle(trans_items)
    synth_items = list(base.synthesis.items())
    rng.shuffle(synth_items)
    return SWS(
        states=states,
        start=base.start,
        transitions=dict(trans_items),
        synthesis=dict(synth_items),
        kind=base.kind,
        db_schema=base.db_schema,
        input_schema=base.input_schema,
        output_arity=base.output_arity,
        name=f"shuffled-{seed}",  # names are labels, not structure
    )


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_build_order_and_name_independent(bits, seed):
    assert fingerprint(shuffled_pl_counter(bits, seed)) == fingerprint(
        pl_counter_sws(bits)
    )


def test_structural_changes_change_fingerprint():
    assert fingerprint(pl_counter_sws(4)) != fingerprint(pl_counter_sws(5))
    assert fingerprint(travel_service()) != fingerprint(pl_counter_sws(4))


def test_mediator_fingerprint_stable():
    assert fingerprint(travel_mediator()) == fingerprint(travel_mediator())


def test_nfa_epsilon_and_mixed_symbols():
    # ε transitions are keyed by None; sorting falls back to repr so the
    # mix of None and str never raises.
    def build(order):
        transitions = {("p", "a"): {"q"}, ("q", None): {"r"}}
        items = list(transitions.items())
        if order:
            items.reverse()
        return NFA(
            states=order and ["r", "q", "p"] or ["p", "q", "r"],
            alphabet={"a"},
            transitions=dict(items),
            initials={"p"},
            finals={"r"},
        )

    assert fingerprint(build(False)) == fingerprint(build(True))


def test_containers_canonicalize():
    assert canonical({1, 2, 3}) == canonical({3, 2, 1})
    assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})
    # Sequences keep order: position is semantics.
    assert canonical((1, 2)) != canonical((2, 1))


def test_pl_interning_vs_fresh_nodes():
    f = pl.And((pl.Var("x"), pl.Var("y")))
    g = pl.And((pl.Var("x"), pl.Var("y")))
    assert fingerprint(f) == fingerprint(g)


def test_job_fingerprint_excludes_budget_kwarg_order():
    sws = pl_counter_sws(3)
    a = job_fingerprint("nonempty_cq", (sws,), {"max_session_length": 4})
    b = job_fingerprint("nonempty_cq", (sws,), {"max_session_length": 4})
    c = job_fingerprint("nonempty_cq", (sws,), {"max_session_length": 5})
    d = job_fingerprint("nonempty_pl", (sws,))
    assert a == b
    assert a != c  # question-changing kwargs are part of the key
    assert a != d  # so is the procedure name


def test_unknown_type_raises():
    class Opaque:
        pass

    with pytest.raises(FingerprintError):
        fingerprint(Opaque())


_HASHSEED_SNIPPET = """
from repro.serve import fingerprint
from repro.workloads.random_sws import random_cq_sws
from repro.workloads.scaling import pl_counter_sws
from repro.workloads.travel import travel_mediator
print(fingerprint(pl_counter_sws(5)))
print(fingerprint(travel_mediator()))
print(fingerprint(random_cq_sws(3)))
"""


def test_hash_seed_independent():
    """Two interpreters with different PYTHONHASHSEED agree exactly."""
    outputs = []
    for seed in ("1", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-c", _HASHSEED_SNIPPET],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].split()) == 3


# -- one SWS scheme: the Merkle root, with exact memo keys ------------------------

_fp = importlib.import_module("repro.serve.fingerprint")


def _rebuilt(sws: SWS, transitions=None, synthesis=None) -> SWS:
    return SWS(
        sws.states,
        sws.start,
        transitions if transitions is not None else sws.transitions,
        synthesis if synthesis is not None else sws.synthesis,
        kind=sws.kind,
        db_schema=sws.db_schema,
        input_schema=sws.input_schema,
        output_arity=sws.output_arity,
    )


def _structure(sws: SWS) -> tuple:
    """A flat structural form built from the canonical forms of the parts."""
    rules = tuple(
        sorted(
            (
                state,
                tuple(
                    (target, canonical(query))
                    for target, query in sws.transitions[state].targets
                ),
                canonical(sws.synthesis[state].query),
            )
            for state in sws.states
        )
    )
    return (
        sws.kind.value,
        tuple(sorted(sws.states)),
        sws.start,
        canonical(sws.db_schema),
        canonical(sws.input_schema),
        sws.output_arity,
        rules,
    )


def _shuffle_query(query, rng: random.Random):
    if isinstance(query, ConjunctiveQuery):
        atoms, comparisons = list(query.atoms), list(query.comparisons)
        rng.shuffle(atoms)
        rng.shuffle(comparisons)
        return ConjunctiveQuery(query.head, atoms, comparisons, query.name)
    if isinstance(query, UnionQuery):
        disjuncts = [_shuffle_query(d, rng) for d in query.disjuncts]
        rng.shuffle(disjuncts)
        return UnionQuery(disjuncts, arity=query.arity, name=query.name)
    return query


def _shuffled_bodies(sws: SWS, seed: int) -> SWS:
    """The same service with every CQ body and UCQ union listed in another order."""
    rng = random.Random(seed)
    transitions = {
        state: TransitionRule(
            (target, _shuffle_query(query, rng)) for target, query in rule.targets
        )
        for state, rule in sws.transitions.items()
    }
    synthesis = {
        state: SynthesisRule(_shuffle_query(rule.query, rng))
        for state, rule in sws.synthesis.items()
    }
    return _rebuilt(sws, transitions, synthesis)


def _with_constant(sws: SWS, value) -> SWS:
    """``sws`` with ``R(v, value)`` joined into every final CQ synthesis."""

    def constrain(query: ConjunctiveQuery) -> ConjunctiveQuery:
        anchor = query.head[0]
        atoms = query.atoms + (Atom("R", (anchor, Constant(value))),)
        return ConjunctiveQuery(query.head, atoms, query.comparisons, query.name)

    synthesis = dict(sws.synthesis)
    for state in sws.states:
        if sws.transitions[state].is_final:
            query = sws.synthesis[state].query
            synthesis[state] = SynthesisRule(
                UnionQuery([constrain(d) for d in query.disjuncts], arity=query.arity)
            )
    return _rebuilt(sws, synthesis=synthesis)


def _diamond_with_final(value, atoms_reversed: bool = False) -> SWS:
    base = cq_diamond_sws(1)
    x, y = Variable("x"), Variable("y")
    atoms = [Atom("In", (x, y)), Atom("R", (x, Constant(value)))]
    if atoms_reversed:
        atoms.reverse()
    synthesis = dict(base.synthesis)
    synthesis["d1"] = SynthesisRule(ConjunctiveQuery((x, y), atoms))
    return _rebuilt(base, synthesis=synthesis)


def test_sws_canonical_form_is_the_merkle_root():
    sws = random_cq_sws(5)
    assert canonical(sws) == ("sws", sub_fingerprints(sws).root)
    mediator = travel_mediator()
    components = dict(canonical(mediator)[-1])
    for name, component in mediator.components.items():
        assert components[name] == ("sws", sub_fingerprints(component).root)


def test_tree_is_computed_once_and_never_pickled():
    sws = pl_counter_sws(4)
    tree = sub_fingerprints(sws)
    assert sub_fingerprints(sws) is tree
    job_fingerprint("nonempty_pl", (sws,))
    assert sws._tree is tree
    copy = pickle.loads(pickle.dumps(sws))
    assert copy._tree is None
    assert sub_fingerprints(copy).root == tree.root


def _fresh_memos(monkeypatch):
    for name in ("_STATE_DIGEST_MEMO", "_GLOBALS_DIGEST_MEMO", "_PL_CANON_MEMO"):
        monkeypatch.setattr(_fp, name, {})


@pytest.mark.parametrize(
    "values",
    [(True, 1, 1.0), ((1, 2.0), (True, 2), (1.0, 2))],
    ids=["scalar", "tuple"],
)
def test_equal_constants_share_a_digest_in_either_order(monkeypatch, values):
    # Constants compare by value, as evaluation does: 1 == True == 1.0,
    # also inside containers.  A memo hit hands one the other's digest,
    # so their canonical forms must agree, whichever the process saw first.
    constants = [Constant(v) for v in values]
    assert all(c == constants[0] and hash(c) == hash(constants[0]) for c in constants)
    assert len({canonical(c) for c in constants}) == 1
    seen = set()
    for order in (values, values[::-1]):
        _fresh_memos(monkeypatch)
        roots = [sub_fingerprints(_diamond_with_final(v)).root for v in order]
        assert len(set(roots)) == 1
        seen.update(roots)
        assert len({fingerprint(_diamond_with_final(v)) for v in order}) == 1
    assert len(seen) == 1
    _fresh_memos(monkeypatch)
    other = sub_fingerprints(_diamond_with_final("1")).root
    assert other not in seen and other != sub_fingerprints(_diamond_with_final(2)).root


def test_constant_without_a_canonical_form_raises():
    with pytest.raises(FingerprintError):
        canonical(Constant(Decimal(1)))
    with pytest.raises(FingerprintError):
        canonical(Constant(frozenset({1})))


_ORDER_SNIPPET = """
import sys
from repro.core.sws import SWS, SynthesisRule
from repro.logic.cq import Atom, ConjunctiveQuery
from repro.logic.terms import Constant, Variable
from repro.logic.ucq import UnionQuery
from repro.serve.fingerprint import sub_fingerprints
from repro.workloads.scaling import cq_diamond_sws

x, y = Variable("x"), Variable("y")
base = cq_diamond_sws(1)

def variant(state, query):
    synthesis = dict(base.synthesis)
    synthesis[state] = SynthesisRule(query)
    return SWS(base.states, base.start, base.transitions, synthesis, kind=base.kind,
               db_schema=base.db_schema, input_schema=base.input_schema,
               output_arity=base.output_arity)

r_atom, in_atom = Atom("R", (x, Constant(7))), Atom("In", (x, y))
left = ConjunctiveQuery((x, y), [Atom("A1", (x, y))])
right = ConjunctiveQuery((x, y), [Atom("A2", (x, y))])
variants = {
    "atoms-in-first": variant("d1", ConjunctiveQuery((x, y), [in_atom, r_atom])),
    "atoms-r-first": variant("d1", ConjunctiveQuery((x, y), [r_atom, in_atom])),
    "union-left-first": variant("d0", UnionQuery.of(left, right)),
    "union-right-first": variant("d0", UnionQuery.of(right, left)),
}
names = sorted(variants, reverse=sys.argv[1] == "reversed")
for name in names:
    print(name, sub_fingerprints(variants[name]).root)
"""


def test_atom_and_disjunct_order_agree_across_fresh_interpreters():
    """Either order first, in a fresh memo: the same roots, and set order is ignored."""
    runs = []
    for order in ("sorted", "reversed"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, "-c", _ORDER_SNIPPET, order],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        runs.append(dict(line.split() for line in proc.stdout.splitlines()))
    assert runs[0] == runs[1]
    roots = runs[0]
    assert roots["atoms-in-first"] == roots["atoms-r-first"]
    assert roots["union-left-first"] == roots["union-right-first"]
    assert roots["atoms-in-first"] != roots["union-left-first"]


@given(
    kind=st.sampled_from(["cq", "pl"]),
    seeds=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    values=st.tuples(*[st.sampled_from([None, 1, True, 1.0, "1", 0, False])] * 2),
    shuffle=st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_equal_roots_exactly_when_equal_structure(kind, seeds, values, shuffle):
    """Root equality ⇔ structural equality ⇔ equality of the memo keys
    (the rules by value), whatever the memos saw before."""
    services = []
    for seed, value in zip(seeds, values):
        if kind == "pl":
            sws = shuffled_pl_counter(2 + seed, shuffle) if value is None else (
                _rebuilt(random_pl_sws(seed, n_states=4))
            )
        else:
            sws = random_cq_sws(seed)
            if value is not None:
                sws = _with_constant(sws, value)
        services.append(sws)
    services.append(_shuffled_bodies(services[1], shuffle))
    roots = [sub_fingerprints(sws).root for sws in services]
    structures = [_structure(sws) for sws in services]
    rules = [(sws.transitions, sws.synthesis) for sws in services]
    for i in range(3):
        for j in range(3):
            assert (roots[i] == roots[j]) == (structures[i] == structures[j])
            assert (roots[i] == roots[j]) == (rules[i] == rules[j])
    assert roots[1] == roots[2]  # listing order is not structure


def test_one_off_services_keep_every_memo_within_its_limit(monkeypatch):
    limits = []
    for name, limit in (
        ("_STATE_DIGEST_MEMO", 32),
        ("_PL_CANON_MEMO", 64),
        ("_GLOBALS_DIGEST_MEMO", 4),
    ):
        memo: dict = {}
        monkeypatch.setattr(_fp, name, memo)
        monkeypatch.setattr(_fp, f"{name}_LIMIT", limit)
        limits.append((memo, limit))
    for uid in range(120):
        one_off = (
            random_pl_sws(10**9 + uid, n_states=2 + uid % 5)
            if uid % 3
            else random_cq_sws(10**9 + uid, n_states=2 + uid % 4)
        )
        job_fingerprint("nonempty_pl", (one_off,))
        for memo, limit in limits:
            assert len(memo) <= limit
    assert all(memo for memo, _limit in limits)  # the stream did fill them
