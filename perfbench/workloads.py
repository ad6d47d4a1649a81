"""The benchmark's four workloads: seeded request streams and answer checks.

A workload turns ``(seed, request index)`` into one request: a
zero-argument ``call`` that the benchmark times, and a ``judge`` that
turns the call's result into the questions it answered.  Each
:class:`Question` carries whether it was decided (YES/NO) and a
``check`` that the benchmark runs outside the timed window; a check
returns ``None`` when the answer is right and a reason otherwise.

Requests follow a fixed cycle of slots, so every seed asks the same mix
of question kinds; the seed only draws the instances inside each slot.
Instances are built fresh for every request, so no identity-keyed memo
can answer a repeat.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.analysis import (
    contained_cq_nr,
    contained_pl,
    equivalent_cq_nr,
    equivalent_fo_bounded,
    equivalent_pl,
    nonempty_cq,
    nonempty_cq_nr,
    nonempty_fo_bounded,
    nonempty_pl,
    nonempty_pl_nr_sat,
    validate_cq_nr,
    validate_pl,
    validate_pl_nr_sat,
)
from repro.core.pl_semantics import joint_variables, to_afa
from repro.core.run import run_pl, run_relational
from repro.core.sws import MSG, SWS, SWSKind, SynthesisRule, TransitionRule
from repro.data.database import Database
from repro.data.generators import InstanceGenerator
from repro.data.input_sequence import InputSequence
from repro.data.schema import DatabaseSchema, RelationSchema
from repro.delta import Session
from repro.guard import Budget
from repro.logic.cq import Atom, ConjunctiveQuery
from repro.logic.sat import solve_cnf
from repro.logic.terms import var
from repro.logic.ucq import UnionQuery
from repro.mediator import compose_cq_nr, compose_pl_regular, run_mediator, run_mediator_pl
from repro.reductions.afa_to_sws import afa_to_sws, encode_afa_word
from repro.reductions.sat_to_sws import clauses_from_tuples, cnf_to_sws
from repro.serve.scheduler import SolverService
from repro.workloads import travel
from repro.workloads.editing import (
    flip_trace,
    growing_trace,
    menu_editing_trace,
    rename_trace,
)
from repro.workloads.pl_services import HASH, encode_letters, union_word_service, word_service
from repro.workloads.random_sws import random_cq_sws, random_fo_sws, random_pl_sws
from repro.workloads.scaling import (
    afa_counter,
    cq_chain_sws,
    cq_diamond_sws,
    cq_recursive_diamond_sws,
    pl_counter_sws,
    random_3cnf,
)

Check = Callable[[], "str | None"]


@dataclass
class Question:
    """One answered question: decided or not, and its deferred check."""

    decided: bool
    check: Check
    tripped: bool = False


@dataclass
class Request:
    """One timed call and the judge that turns its result into questions."""

    call: Callable[[], Any]
    judge: Callable[[Any], list[Question]]
    asks: int = 1


class Workload:
    """A seeded request stream; ``WINDOW`` requests make one throughput window."""

    WINDOW = 1

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir

    def open(self) -> None:
        """Acquire what the requests need (a service, a store)."""

    def close(self) -> None:
        """Release what :meth:`open` acquired."""

    def prepare(self, index: int) -> Request:
        raise NotImplementedError


def _asked(answer: Any, check: Check) -> Question:
    """The question an ``Answer`` (or composition result) answered."""
    return Question(
        answer.verdict.value != "unknown", check, getattr(answer, "trip", None) is not None
    )


def _one(answer: Any, check: Check) -> list[Question]:
    return [_asked(answer, check)]


# -- answer checks ---------------------------------------------------------------


def _pl_replay(sws: SWS, word: Any, accepted: bool) -> str | None:
    """A PL witness replayed through the AFA's own membership test."""
    if to_afa(sws).accepts(word) != accepted:
        return f"witness {'rejected' if accepted else 'accepted'} by AFA.accepts"
    return None


def _expect(answer: Any, verdict: str) -> str | None:
    if answer.verdict.value != verdict:
        return f"verdict {answer.verdict.value}, expected {verdict}"
    return None


def _relational_replay(sws: SWS, witness: Any) -> str | None:
    database, inputs = witness
    if not run_relational(sws, database, inputs).output:
        return "witness (D, I) gives empty output"
    return None


# -- pl_decide -------------------------------------------------------------------


def _compose_goal(rng: random.Random, letters: str, positive: bool) -> list[list[str]]:
    """Goal sessions over single-letter components; a fused word if negative."""
    words = []
    for _ in range(rng.choice((2, 3))):
        word: list[str] = []
        for _ in range(rng.choice((1, 2))):
            word += [rng.choice(letters), HASH]
        words.append(word)
    if not positive:
        words[0] = [rng.choice(letters), rng.choice(letters), HASH]
    return words


class PLDecide(Workload):
    """Distinct PL questions called straight into ``analysis``/``mediator``."""

    SLOTS = (
        "counter_nonempty",
        "random_nonempty",
        "counter_validate_accept",
        "sat",
        "random_nonempty",
        "counter_equivalent_self",
        "random_validate",
        "counter_nonempty",
        "compose",
        "random_equivalent",
        "counter_validate_reject",
        "random_nonempty",
        "sat",
        "counter_equivalent_next",
        "afa_run",
        "random_validate",
    )
    LETTERS = "ab"
    #: Requests per throughput window: two cycles, so both size variants count.
    WINDOW = 2 * len(SLOTS)

    def prepare(self, index: int) -> Request:
        rng = random.Random(f"pl_decide:{self.seed}:{index}")
        uid = self.seed * 10_000_000 + index
        cycle, position = divmod(index, len(self.SLOTS))
        return getattr(self, f"_{self.SLOTS[position]}")(rng, uid, cycle)

    def _counter_nonempty(self, rng: random.Random, uid: int, cycle: int) -> Request:
        bits = 9 if cycle % 2 == 0 else 10
        sws = pl_counter_sws(bits)

        def judge(answer: Any) -> list[Question]:
            def check() -> str | None:
                if not answer.is_yes or len(answer.witness) != 2**bits:
                    return f"counter({bits}) must be YES with a witness of length {2**bits}"
                return _pl_replay(sws, answer.witness, True)

            return _one(answer, check)

        return Request(lambda: nonempty_pl(sws), judge)

    def _counter_validate_accept(self, rng: random.Random, uid: int, cycle: int) -> Request:
        bits = 8 if cycle % 2 == 0 else 9
        sws = pl_counter_sws(bits)

        def judge(answer: Any) -> list[Question]:
            def check() -> str | None:
                if not answer.is_yes or len(answer.witness) != 2**bits:
                    return f"counter({bits}) must validate true at length {2**bits}"
                return _pl_replay(sws, answer.witness, True)

            return _one(answer, check)

        return Request(lambda: validate_pl(sws, True), judge)

    def _counter_validate_reject(self, rng: random.Random, uid: int, cycle: int) -> Request:
        sws = pl_counter_sws(8 if cycle % 2 == 0 else 9)

        def judge(answer: Any) -> list[Question]:
            def check() -> str | None:
                return _expect(answer, "yes") or _pl_replay(sws, answer.witness, False)

            return _one(answer, check)

        return Request(lambda: validate_pl(sws, False), judge)

    def _counter_equivalent_self(self, rng: random.Random, uid: int, cycle: int) -> Request:
        bits = 7 if cycle % 2 == 0 else 8
        left, right = pl_counter_sws(bits), pl_counter_sws(bits)

        def judge(answer: Any) -> list[Question]:
            return _one(answer, lambda: _expect(answer, "yes"))

        return Request(lambda: equivalent_pl(left, right), judge)

    def _counter_equivalent_next(self, rng: random.Random, uid: int, cycle: int) -> Request:
        bits = 8 if cycle % 2 == 0 else 7
        left, right = pl_counter_sws(bits), pl_counter_sws(bits + 1)

        def judge(answer: Any) -> list[Question]:
            def check() -> str | None:
                if not answer.is_no or len(answer.witness) != 2**bits:
                    return f"counters {bits}/{bits + 1} must differ at length {2**bits}"
                return _pl_replay(left, answer.witness, True) or _pl_replay(
                    right, answer.witness, False
                )

            return _one(answer, check)

        return Request(lambda: equivalent_pl(left, right), judge)

    @staticmethod
    def _random_service(uid: int, even: bool) -> SWS:
        return random_pl_sws(uid, n_states=5 if even else 6, n_variables=2)

    def _random_nonempty(self, rng: random.Random, uid: int, cycle: int) -> Request:
        sws = self._random_service(uid, cycle % 2 == 0)

        def judge(answer: Any) -> list[Question]:
            def check() -> str | None:
                sat = nonempty_pl_nr_sat(sws)
                if sat.verdict is not answer.verdict:
                    return f"AFA route {answer.verdict.value}, SAT route {sat.verdict.value}"
                return _pl_replay(sws, answer.witness, True) if answer.is_yes else None

            return _one(answer, check)

        return Request(lambda: nonempty_pl(sws), judge)

    def _random_validate(self, rng: random.Random, uid: int, cycle: int) -> Request:
        sws = self._random_service(uid, cycle % 2 == 0)
        output = rng.random() < 0.5

        def judge(answer: Any) -> list[Question]:
            def check() -> str | None:
                sat = validate_pl_nr_sat(sws, output)
                if sat.verdict is not answer.verdict:
                    return f"AFA route {answer.verdict.value}, SAT route {sat.verdict.value}"
                return _pl_replay(sws, answer.witness, output) if answer.is_yes else None

            return _one(answer, check)

        return Request(lambda: validate_pl(sws, output), judge)

    def _random_equivalent(self, rng: random.Random, uid: int, cycle: int) -> Request:
        left = self._random_service(uid, cycle % 2 == 0)
        right = random_pl_sws(uid + 5_000_000, n_states=len(left.states), n_variables=2)

        def judge(answer: Any) -> list[Question]:
            def check() -> str | None:
                both = contained_pl(left, right).is_yes and contained_pl(right, left).is_yes
                if both != answer.is_yes:
                    return f"equivalence {answer.verdict.value}, containments say {both}"
                if answer.is_no:
                    variables = joint_variables(left, right)
                    word = answer.witness
                    if to_afa(left, variables).accepts(word) == to_afa(right, variables).accepts(word):
                        return "distinguishing word does not distinguish"
                return None

            return _one(answer, check)

        return Request(lambda: equivalent_pl(left, right), judge)

    def _sat(self, rng: random.Random, uid: int, cycle: int) -> Request:
        clauses = clauses_from_tuples(random_3cnf(uid, 8, 32 if cycle % 2 == 0 else 36))
        sws = cnf_to_sws(clauses)

        def judge(answer: Any) -> list[Question]:
            def check() -> str | None:
                satisfiable = solve_cnf(clauses) is not None
                if satisfiable != answer.is_yes:
                    return f"service route {answer.verdict.value}, DPLL on the CNF {satisfiable}"
                if answer.is_yes:
                    # The clause states read the second message; an empty
                    # session position reads as the all-false assignment.
                    word = answer.witness
                    true = word[1] if len(word) > 1 else frozenset()
                    for clause in clauses:
                        if not any((lit.variable in true) == lit.positive for lit in clause):
                            return "witness assignment falsifies a clause"
                return None

            return _one(answer, check)

        return Request(lambda: nonempty_pl_nr_sat(sws), judge)

    def _compose(self, rng: random.Random, uid: int, cycle: int) -> Request:
        letters = self.LETTERS
        positive = cycle % 2 == 0
        words = _compose_goal(rng, letters, positive)
        goal = union_word_service(words, letters, "goal")
        components = {f"S{x}": word_service([x, HASH], letters, f"S{x}") for x in letters}

        def judge(result: Any) -> list[Question]:
            def check() -> str | None:
                if result.exists != positive:
                    return f"composition exists={result.exists}, expected {positive}"
                if not positive:
                    return None
                probes = words + [w[:-1] for w in words] + [w + w for w in words]
                for word in probes:
                    encoded = encode_letters(word)
                    if run_mediator_pl(result.mediator, encoded).output != run_pl(goal, encoded).output:
                        return f"mediator and goal disagree on {''.join(word)}"
                return None

            return _one(result, check)

        return Request(lambda: compose_pl_regular(goal, components), judge)

    def _afa_run(self, rng: random.Random, uid: int, cycle: int) -> Request:
        length = 3 + cycle % 3
        sws = afa_to_sws(afa_counter(2))
        word = encode_afa_word(["a"] * length)

        def judge(result: Any) -> list[Question]:
            def check() -> str | None:
                expected = afa_counter(2).accepts(["a"] * length)
                if result.output != expected or expected != (length % 4 == 0):
                    return f"run on a^{length} output {result.output}, AFA says {expected}"
                return None

            return [Question(True, check)]

        return Request(lambda: run_pl(sws, word), judge)


# -- relational_decide -----------------------------------------------------------

_X, _Y, _Z = var("x"), var("y"), var("z")
_VIEW_PAYLOAD = RelationSchema("Rin", ("p", "q"))


def _view_schema(k: int) -> DatabaseSchema:
    return DatabaseSchema([RelationSchema(f"R{i}", ("a", "b")) for i in range(k)])


def _join(relation: str) -> UnionQuery:
    return UnionQuery.of(
        ConjunctiveQuery(
            (_X, _Z), [Atom(MSG, (_X, _Y)), Atom(relation, (_Y, _Z))], (), f"j{relation}"
        )
    )


def _emit_service(schema: DatabaseSchema, emit: UnionQuery, name: str) -> SWS:
    first = ConjunctiveQuery((_X, _Y), [Atom("In", (_X, _Y))], (), "copy")
    up = UnionQuery.of(ConjunctiveQuery((_X, _Y), [Atom("A1", (_X, _Y))], (), "up"))
    return SWS(
        ("q0", "q1"),
        "q0",
        {"q0": TransitionRule([("q1", first)]), "q1": TransitionRule()},
        {"q0": SynthesisRule(up), "q1": SynthesisRule(emit)},
        kind=SWSKind.RELATIONAL,
        db_schema=schema,
        input_schema=_VIEW_PAYLOAD,
        output_arity=2,
        name=name,
    )


def _travel_instance(rng: random.Random) -> tuple[Database, InputSequence, str]:
    """A seeded offer catalog over three keys and one booking request."""
    keys = ("k1", "k2", "k3")
    contents: dict[str, list[tuple]] = {name: [] for name in ("Ra", "Rh", "Rt", "Rc")}
    for key in keys:
        for relation, offers in (
            ("Ra", ("EDI-MCO-0800", "EDI-MCO-1230", "LHR-MCO-0900")),
            ("Rh", ("PolynesianResort", "ContemporaryResort")),
            ("Rt", ("4DayParkHopper",)),
            ("Rc", ("CompactCar", "Minivan")),
        ):
            for offer in offers:
                if rng.random() < 0.6:
                    contents[relation].append((key, offer))
    key = rng.choice(keys)
    return Database(travel.DB_SCHEMA, contents), travel.booking_request(key), key


def _travel_packages(database: Database, key: str) -> frozenset:
    """Example 2.1's packages, computed directly: flight × room × (ticket, else car)."""

    def offers(relation: str) -> list:
        return [offer for k, offer in database[relation].rows if k == key]

    blank = travel.BLANK
    tickets = [(ticket, blank) for ticket in offers("Rt")]
    extras = tickets or [(blank, car) for car in offers("Rc")]
    return frozenset(
        (flight, room) + extra
        for flight in offers("Ra")
        for room in offers("Rh")
        for extra in extras
    )


class RelationalDecide(Workload):
    """CQ/UCQ/FO questions and relational runs, called directly."""

    SLOTS = (
        "diamond_nonempty",
        "travel_run",
        "random_cq_nonempty",
        "fo_nonempty",
        "diamond_contained",
        "chain_nonempty",
        "travel_run",
        "diamond_validate",
        "fo_equivalent",
        "recursive_diamond_nonempty",
        "diamond_equivalent",
        "random_cq_nonempty",
        "compose",
        "travel_run",
    )
    WINDOW = 2 * len(SLOTS)
    #: Guard step budgets of the bounded FO searches (one step per run).
    FO_STEPS = 24
    RANDOM_FO_STEPS = 40

    def prepare(self, index: int) -> Request:
        rng = random.Random(f"relational_decide:{self.seed}:{index}")
        uid = self.seed * 10_000_000 + index
        cycle, position = divmod(index, len(self.SLOTS))
        return getattr(self, f"_{self.SLOTS[position]}")(rng, uid, cycle)

    def _diamond_nonempty(self, rng: random.Random, uid: int, cycle: int) -> Request:
        sws = cq_diamond_sws(2 if cycle % 2 == 0 else 3)

        def judge(answer: Any) -> list[Question]:
            return _one(
                answer,
                lambda: _expect(answer, "yes") or _relational_replay(sws, answer.witness),
            )

        return Request(lambda: nonempty_cq_nr(sws), judge)

    def _random_cq_nonempty(self, rng: random.Random, uid: int, cycle: int) -> Request:
        sws = random_cq_sws(uid)

        def judge(answer: Any) -> list[Question]:
            def check() -> str | None:
                if answer.is_yes:
                    return _relational_replay(sws, answer.witness)
                bounded = nonempty_fo_bounded(sws, budget=Budget(step_budget=self.RANDOM_FO_STEPS))
                if bounded.is_yes:
                    return "NO, but the bounded instance search found output"
                return _expect(answer, "no")

            return _one(answer, check)

        return Request(lambda: nonempty_cq_nr(sws), judge)

    def _diamond_contained(self, rng: random.Random, uid: int, cycle: int) -> Request:
        depth, deeper = 1 + cycle // 2 % 2, cycle % 2 == 0
        left, right = cq_diamond_sws(depth), cq_diamond_sws(depth + deeper)

        def judge(answer: Any) -> list[Question]:
            return _one(answer, lambda: _expect(answer, "no" if deeper else "yes"))

        return Request(lambda: contained_cq_nr(left, right), judge)

    def _diamond_equivalent(self, rng: random.Random, uid: int, cycle: int) -> Request:
        depth, same = 1 + cycle // 2 % 2, cycle % 2 == 0
        left, right = cq_diamond_sws(depth), cq_diamond_sws(depth + (not same))

        def judge(answer: Any) -> list[Question]:
            return _one(answer, lambda: _expect(answer, "yes" if same else "no"))

        return Request(lambda: equivalent_cq_nr(left, right), judge)

    def _chain_nonempty(self, rng: random.Random, uid: int, cycle: int) -> Request:
        sws = cq_chain_sws(0)
        horizon = 3 if cycle % 2 == 0 else 4

        def judge(answer: Any) -> list[Question]:
            return _one(
                answer,
                lambda: _expect(answer, "yes") or _relational_replay(sws, answer.witness),
            )

        return Request(lambda: nonempty_cq(sws, max_session_length=horizon), judge)

    def _recursive_diamond_nonempty(self, rng: random.Random, uid: int, cycle: int) -> Request:
        sws = cq_recursive_diamond_sws()
        horizon = 3 if cycle % 2 == 0 else 2

        def judge(answer: Any) -> list[Question]:
            return _one(answer, lambda: _expect(answer, "unknown"))

        return Request(lambda: nonempty_cq(sws, max_session_length=horizon), judge)

    def _diamond_validate(self, rng: random.Random, uid: int, cycle: int) -> Request:
        depth = 1 + cycle % 2
        sws = cq_diamond_sws(depth)
        generator = InstanceGenerator(seed=uid, domain_size=2)
        output: frozenset = frozenset()
        while not output:
            database = generator.database(sws.db_schema, 4)
            inputs = generator.input_sequence(sws.input_schema, depth + 1, 2)
            output = run_relational(sws, database, inputs).output.rows

        def judge(answer: Any) -> list[Question]:
            def check() -> str | None:
                if not answer.is_yes:
                    return _expect(answer, "yes")
                found = run_relational(sws, *answer.witness).output.rows
                return None if found == output else "witness (D, I) does not produce O"

            return _one(answer, check)

        return Request(lambda: validate_cq_nr(sws, output), judge)

    def _compose(self, rng: random.Random, uid: int, cycle: int) -> Request:
        views = 1 + cycle // 2 % 2
        positive = cycle % 2 == 0
        schema = _view_schema(views + 1)
        goal_emit = _join("R0")
        for i in range(1, views):
            goal_emit = goal_emit.union(_join(f"R{i}"))
        if not positive:
            goal_emit = goal_emit.union(_join(f"R{views}"))
        goal = _emit_service(schema, goal_emit, "goal")
        components = {f"V{i}": _emit_service(schema, _join(f"R{i}"), f"V{i}") for i in range(views)}

        def judge(result: Any) -> list[Question]:
            def check() -> str | None:
                if result.exists != positive:
                    return f"composition exists={result.exists}, expected {positive}"
                if not positive:
                    return None
                generator = InstanceGenerator(seed=uid, domain_size=3)
                for _ in range(3):
                    database = generator.database(schema, 4)
                    inputs = generator.input_sequence(_VIEW_PAYLOAD, 2, 2)
                    ran = run_mediator(result.mediator, database, inputs).output.rows
                    if ran != run_relational(goal, database, inputs).output.rows:
                        return "mediator run and goal run disagree"
                return None

            return _one(result, check)

        return Request(lambda: compose_cq_nr(goal, components), judge)

    def _fo_nonempty(self, rng: random.Random, uid: int, cycle: int) -> Request:
        if cycle % 2 == 0:
            sws = travel.travel_service()
            budget = Budget(step_budget=self.FO_STEPS)
            kwargs = {"max_session_length": 1}
        else:
            sws = random_fo_sws(uid)
            budget = Budget(step_budget=self.RANDOM_FO_STEPS)
            kwargs = {}

        def judge(answer: Any) -> list[Question]:
            def check() -> str | None:
                if answer.is_no:
                    return "bounded search claimed NO"
                return _relational_replay(sws, answer.witness) if answer.is_yes else None

            return _one(answer, check)

        return Request(lambda: nonempty_fo_bounded(sws, budget=budget, **kwargs), judge)

    def _fo_equivalent(self, rng: random.Random, uid: int, cycle: int) -> Request:
        if cycle % 2 == 0:
            left, right = travel.travel_service(), travel.recursive_airfare_service()
            budget = Budget(step_budget=self.FO_STEPS)
            kwargs = {"max_domain": 1, "max_rows": 1, "max_session_length": 1}
        else:
            left, right = random_fo_sws(uid), random_fo_sws(uid + 5_000_000)
            budget = Budget(step_budget=self.RANDOM_FO_STEPS)
            kwargs = {}

        def judge(answer: Any) -> list[Question]:
            def check() -> str | None:
                if answer.is_yes:
                    return "bounded search claimed YES"
                if answer.is_no:
                    database, inputs = answer.witness
                    out_left = run_relational(left, database, inputs).output.rows
                    if out_left == run_relational(right, database, inputs).output.rows:
                        return "distinguishing instance does not distinguish"
                return None

            return _one(answer, check)

        return Request(
            lambda: equivalent_fo_bounded(left, right, budget=budget, **kwargs), judge
        )

    def _travel_run(self, rng: random.Random, uid: int, cycle: int) -> Request:
        sws = travel.travel_service()
        database, inputs, key = _travel_instance(rng)

        def judge(result: Any) -> list[Question]:
            def check() -> str | None:
                if result.output.rows != _travel_packages(database, key):
                    return "τ1 run differs from the packages Example 2.1 defines"
                return None

            return [Question(True, check)]

        return Request(lambda: run_relational(sws, database, inputs), judge)


# -- serve_zipf ------------------------------------------------------------------


def _counter_known(bits: int, output: bool = True) -> Callable[[Any, tuple], "str | None"]:
    def known(answer: Any, args: tuple) -> str | None:
        if not answer.is_yes:
            return f"counter({bits}) must be YES"
        if output and len(answer.witness) != 2**bits:
            return f"counter({bits}) witness must have length {2**bits}"
        return _pl_replay(args[0], answer.witness, output)

    return known


def _verdict_known(verdict: str) -> Callable[[Any, tuple], "str | None"]:
    return lambda answer, args: _expect(answer, verdict)


def _diamond_known(answer: Any, args: tuple) -> str | None:
    return _expect(answer, "yes") or _relational_replay(args[0], answer.witness)


def _pl_second_route(answer: Any, args: tuple, output: bool) -> str | None:
    """SAT route on a nonrecursive PL service, plus witness replay."""
    sat = validate_pl_nr_sat(args[0], output)
    if sat.verdict is not answer.verdict:
        return f"served {answer.verdict.value}, SAT route {sat.verdict.value}"
    return _pl_replay(args[0], answer.witness, output) if answer.is_yes else None


def _cq_second_route(answer: Any, args: tuple) -> str | None:
    """Witness replay for YES; for NO the bounded instance search finds nothing."""
    if answer.is_yes:
        return _relational_replay(args[0], answer.witness)
    if nonempty_fo_bounded(args[0], budget=Budget(step_budget=40)).is_yes:
        return "NO, but the bounded instance search found output"
    return None


class ServeZipf(Workload):
    """Zipf traffic through ``SolverService(workers=1)`` in batches.

    A catalog entry is ``(procedure, build, kwargs, check, key)``:
    ``build`` makes fresh argument objects for every ask, ``check``
    judges the served answer, and ``key`` names the question so a
    check that repeats for every ask of it runs once.
    """

    BATCH = 16
    #: One-off asks (never repeated, always cold) per batch, cycled.  The
    #: counts are fixed so every seed has the same cold-job mix, and the
    #: median and 90th-percentile batches fall inside the one- and
    #: two-cold-job groups rather than on a boundary between groups.
    ONE_OFFS = (0, 1, 2, 1, 0, 1, 3, 1, 2, 0, 1, 2, 1, 0, 1, 2, 1, 0, 1, 2)
    WINDOW = len(ONE_OFFS)

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.service: SolverService | None = None
        rng = random.Random(f"serve_zipf:{seed}:catalog")
        self.catalog = self._catalog(rng)
        self.weights = [1.0 / (rank + 1) for rank in range(len(self.catalog))]
        self.checked: dict[Any, tuple[Any, "str | None"]] = {}

    @staticmethod
    def _catalog(rng: random.Random) -> list[tuple]:
        """Popular questions by rank; kinds interleave in a seed-independent order."""
        counters: list[tuple] = []
        for bits in range(3, 9):
            counters.append(
                ("nonempty_pl", lambda b=bits: (pl_counter_sws(b),), {}, _counter_known(bits))
            )
        for bits in range(3, 7):
            for output in (True, False):
                counters.append(
                    (
                        "validate_pl",
                        lambda b=bits: (pl_counter_sws(b),),
                        {"output": output},
                        _counter_known(bits, output),
                    )
                )
            counters.append(
                (
                    "equivalent_pl",
                    lambda b=bits: (pl_counter_sws(b), pl_counter_sws(b)),
                    {},
                    _verdict_known("yes"),
                )
            )
            counters.append(
                (
                    "equivalent_pl",
                    lambda b=bits: (pl_counter_sws(b), pl_counter_sws(b + 1)),
                    {},
                    _verdict_known("no"),
                )
            )
        random_pl: list[tuple] = []
        for index in range(18):
            sid, output = rng.randrange(10**6), index % 3 != 2
            procedure, kwargs = ("nonempty_pl", {}) if output else ("validate_pl", {"output": False})
            random_pl.append(
                (
                    procedure,
                    lambda s=sid: (random_pl_sws(s, n_states=5),),
                    kwargs,
                    lambda a, args, o=output: _pl_second_route(a, args, o),
                )
            )
        relational: list[tuple] = [
            ("nonempty_cq_nr", lambda d=depth: (cq_diamond_sws(d),), {}, _diamond_known)
            for depth in (1, 2, 3)
        ]
        for _ in range(7):
            sid = rng.randrange(10**6)
            relational.append(
                ("nonempty_cq_nr", lambda s=sid: (random_cq_sws(s),), {}, _cq_second_route)
            )
        jobs: list[tuple] = []
        for position in range(len(counters)):
            for kind in (counters, random_pl, relational):
                if position < len(kind):
                    jobs.append(kind[position])
        return [job + (("catalog", index),) for index, job in enumerate(jobs)]

    def open(self) -> None:
        self.service = SolverService(workers=1, cache_dir=os.path.join(self.workdir, "store"))
        # Spawn the pool worker with a job outside the traffic.
        warm = word_service(["a", HASH], "a", "warmup")
        self.service.run_batch([{"procedure": "nonempty_pl", "args": (warm,)}])

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def restart(self) -> None:
        """Close the service and reopen it on the same store."""
        self.close()
        self.open()

    def _one_off(self, uid: int) -> tuple:
        sid = 10**9 + uid
        build = lambda: (random_pl_sws(sid, n_states=4),)  # noqa: E731
        check = lambda a, args: _pl_second_route(a, args, True)  # noqa: E731
        return ("nonempty_pl", build, {}, check, None)

    def prepare(self, index: int) -> Request:
        rng = random.Random(f"serve_zipf:{self.seed}:{index}")
        first = (self.seed * 10_000_000 + index) * self.BATCH
        cold = self.ONE_OFFS[index % len(self.ONE_OFFS)]
        popular = rng.choices(self.catalog, weights=self.weights, k=self.BATCH - cold)
        jobs = popular + [self._one_off(first + position) for position in range(cold)]
        rng.shuffle(jobs)
        specs = [
            {"procedure": procedure, "args": build(), "kwargs": kwargs}
            for procedure, build, kwargs, _check, _key in jobs
        ]

        def call() -> list:
            return self.service.run_batch(specs)

        def judge(results: list) -> list[Question]:
            return [
                _asked(answer, self._checker(job, spec["args"], answer))
                for job, spec, answer in zip(jobs, specs, results)
            ]

        return Request(call, judge, asks=len(specs))

    def _checker(self, job: tuple, args: tuple, answer: Any) -> Check:
        _procedure, _build, _kwargs, known, key = job

        def check() -> str | None:
            if answer.is_unknown:
                return f"served UNKNOWN ({answer.detail})"
            seen = self.checked.get(key)
            if seen is not None and seen[0] == answer:
                return seen[1]
            error = known(answer, args)
            if key is not None:
                self.checked[key] = (answer, error)
            return error

        return check


# -- edit_recheck ----------------------------------------------------------------


@dataclass
class _EditSession:
    """One editing session: its versions, open budget and known verdicts."""

    key: tuple
    versions: list[SWS]
    expected: list[str]
    open_budget: Budget | None = None
    witness_length: int | None = None


class EditRecheck(Workload):
    """One editor, one ``repro.delta.Session`` at a time.

    A session's first request opens it (``Session`` plus ``check``);
    each later request stages the next version and re-checks it.  A
    tripped session opens under a small step budget and is re-checked
    under a large one without an edit.
    """

    #: Session kinds in cycle order; the number is the menu's branch
    #: count or the tripped counter's bits, so every seed asks the same sizes.
    SESSIONS = (
        ("menu", 6),
        ("flip", 0),
        ("menu", 8),
        ("rename", 0),
        ("tripped", 8),
        ("menu", 10),
        ("growing", 0),
        ("tripped", 9),
    )
    #: Re-checks per menu session.  Long sessions keep the slow requests
    #: (menu opens, and each menu's first re-check, which builds its
    #: engine) near 4% of a cycle, so the 90th percentile falls among
    #: re-checks rather than on the edge of the slow group.
    MENU_EDITS = 40
    #: Two cycles of sessions: three menus of 41 versions, flip 3,
    #: rename 4, growing 2 and two tripped sessions of 2 requests.
    WINDOW = 2 * (3 * (MENU_EDITS + 1) + 13)
    MENU_TRACES = 4
    TRIP_STEPS = 40
    RESUME_STEPS = 10**7

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.plan: list[tuple[_EditSession, int]] = []
        self.sessions = 0
        self.session: Session | None = None
        self.scratch: dict[tuple, bool] = {}
        self.replayed: dict[tuple, bool] = {}

    def _next_session(self) -> _EditSession:
        index = self.sessions
        self.sessions += 1
        rng = random.Random(f"edit_recheck:{self.seed}:{index}")
        kind, size = self.SESSIONS[index % len(self.SESSIONS)]
        if kind == "menu":
            trace_seed = self.seed * 1000 + rng.randrange(self.MENU_TRACES)
            versions = menu_editing_trace(size, 4, "abcd", self.MENU_EDITS, trace_seed)
            return _EditSession(("menu", size, trace_seed), versions, ["yes"] * len(versions))
        if kind == "flip":
            word = tuple(rng.choice("abcd") for _ in range(3))
            return _EditSession(("flip", word), flip_trace(word, "abcd"), ["yes", "no", "yes"])
        if kind == "rename":
            branches = rng.choice((3, 4, 5))
            versions = rename_trace(branches, "ab", 3)
            return _EditSession(("rename", branches), versions, ["yes"] * len(versions))
        if kind == "growing":
            alphabet = rng.choice(("ab", "abc"))
            return _EditSession(("growing", alphabet), growing_trace(alphabet), ["yes", "yes"])
        sws = pl_counter_sws(size)
        return _EditSession(
            ("tripped", size),
            [sws, sws],
            ["unknown", "yes"],
            open_budget=Budget(step_budget=self.TRIP_STEPS),
            witness_length=2**size,
        )

    def prepare(self, index: int) -> Request:
        if not self.plan:
            session = self._next_session()
            self.plan = [(session, step) for step in range(len(session.versions))]
        plan, step = self.plan.pop(0)
        version = plan.versions[step]

        if step == 0:

            def call() -> Any:
                self.session = Session(version, budget=plan.open_budget)
                return self.session.check()

        elif plan.open_budget is not None:

            def call() -> Any:
                return self.session.recheck(budget=Budget(step_budget=self.RESUME_STEPS))

        else:

            def call() -> Any:
                self.session.edit(version)
                return self.session.recheck()

        def judge(result: Any) -> list[Question]:
            answer = result if step == 0 else result.answer
            return _one(answer, lambda: self._check(plan, step, version, answer))

        return Request(call, judge)

    def _check(self, plan: _EditSession, step: int, version: SWS, answer: Any) -> str | None:
        error = _expect(answer, plan.expected[step])
        if error is not None:
            return error
        if answer.is_unknown:
            return None
        # From-scratch verdicts and witness replays are memoized as plain
        # values, so no automaton outlives its check.
        memo = plan.key + (step,)
        witness = tuple(answer.witness) if answer.is_yes else None
        if memo not in self.scratch or (memo, witness) not in self.replayed:
            afa = to_afa(version)
            self.scratch[memo] = afa.accepting_witness() is not None
            self.replayed[memo, witness] = witness is None or afa.accepts(witness)
        if self.scratch[memo] != answer.is_yes:
            return f"re-check {answer.verdict.value}, from-scratch solve nonempty={self.scratch[memo]}"
        if plan.witness_length is not None and len(witness) != plan.witness_length:
            return f"witness length {len(witness)}, expected {plan.witness_length}"
        if not self.replayed[memo, witness]:
            return "witness rejected by AFA.accepts"
        return None


WORKLOADS = {
    "serve_zipf": ServeZipf,
    "pl_decide": PLDecide,
    "relational_decide": RelationalDecide,
    "edit_recheck": EditRecheck,
}
