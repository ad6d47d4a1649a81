"""Alternating finite automata (boolean automata).

Theorem 4.1(3) ties SWS(PL, PL) to AFA: the PSPACE lower bound on
non-emptiness is by expressing AFA in SWS(PL, PL) "in ptime", and the
upper bound checks non-emptiness "along the same lines as AFA non-emptiness
checking".  This module implements AFA with arbitrary boolean transition
conditions (alternation *and* negation) and the backward valuation-vector
semantics that both AFA decision procedures and the SWS(PL, PL) procedures
in :mod:`repro.core.pl_semantics` share:

For a word ``w`` read *suffix-first*, the valuation vector ``V_w`` assigns
each state ``q`` the truth of "the run from q accepts w".  ``V_ε`` is the
final-state indicator; ``V_{a·w}(q) = δ(q, a)`` evaluated on ``V_w``.  The
automaton accepts ``w`` iff the initial condition evaluates to true on
``V_w``.  Reachability over the (finitely many) vectors decides emptiness
in exponential time / polynomial space — the classical AFA bound.

**Compiled hot path.**  The searches run on a compiled engine
(:class:`_CompiledAFA`): states map to bit positions, valuation vectors are
int bitsets, every transition formula is compiled once into a
bitmask-evaluating closure (:func:`repro.logic.pl.compile_mask`), and
alphabet symbols inducing *identical* transition rows are collapsed to one
representative per class — for SWS-derived AFAs this shrinks the
2^|vars| assignment alphabet to its effective quotient.  Public results
(vectors, witnesses) are unchanged; ``use_compiled(False)`` restores the
interpreted AST path for cross-validation and before/after benchmarks.

**Determinism.**  Symbols are always explored in a canonical order
(:func:`symbol_sort_key`) that does not depend on ``PYTHONHASHSEED`` —
``repr`` of a frozenset does, so sorting by ``repr`` (the old behaviour)
made witness words differ across interpreter runs.
"""

from __future__ import annotations

import importlib.util
import marshal
from collections import deque
from contextlib import contextmanager
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from repro import artifacts
from repro._stats import STATS
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.errors import ReproError
from repro.guard import checkpoint_callable, register_span
from repro.logic import pl
from repro.obs import span

State = str
Symbol = Hashable

Vector = frozenset[State]
"""A valuation vector, represented as the set of states valued true."""

_USE_COMPILED = True


def use_compiled(enabled: bool) -> None:
    """Globally enable/disable the compiled engine (on by default)."""
    global _USE_COMPILED
    _USE_COMPILED = bool(enabled)


@contextmanager
def ast_fallback() -> Iterator[None]:
    """Temporarily run all AFA procedures on the interpreted AST path.

    Used by cross-validation tests and the before/after benchmarks; the
    compiled and interpreted paths must agree on every result.
    """
    global _USE_COMPILED
    previous = _USE_COMPILED
    _USE_COMPILED = False
    try:
        yield
    finally:
        _USE_COMPILED = previous


def symbol_sort_key(symbol: Symbol) -> tuple:
    """A canonical, hash-seed-independent sort key for alphabet symbols.

    ``repr`` of a ``frozenset`` enumerates elements in hash order, which
    varies with ``PYTHONHASHSEED`` — any search ordered by it returns
    different (equally valid) witnesses on different runs.  This key orders
    sets by their sorted element keys instead, recursively.
    """
    if isinstance(symbol, (frozenset, set)):
        return (1, tuple(sorted(symbol_sort_key(e) for e in symbol)))
    if isinstance(symbol, tuple):
        return (2, tuple(symbol_sort_key(e) for e in symbol))
    return (0, (type(symbol).__name__, repr(symbol)))


def _canonical_state_name(state) -> str:
    """A deterministic string name for (possibly subset-valued) states.

    ``str(frozenset)`` follows hash-table iteration order, so two *equal*
    frozensets built in different orders can stringify differently — the
    same determinized subset state would then get two distinct names, and
    a transition condition could mention a "state" that is not in the
    state set.  Sets are named by their sorted element names instead.
    """
    if isinstance(state, (frozenset, set)):
        inner = ", ".join(sorted(_canonical_state_name(e) for e in state))
        return "{" + inner + "}"
    if isinstance(state, tuple):
        return "(" + ", ".join(_canonical_state_name(e) for e in state) + ")"
    return str(state)


def _reconstruct(parents: Mapping, node) -> tuple:
    """Rebuild a witness word from BFS parent links.

    ``parents[n]`` is ``(symbol, predecessor)`` or ``None`` at the start
    node; since ``witness(next) = (symbol,) + witness(prev)``, walking the
    chain emits the word front-to-back — O(length), where the old
    tuple-prepend scheme cost O(length²) per BFS branch.
    """
    word: list = []
    link = parents[node]
    while link is not None:
        symbol, node = link
        word.append(symbol)
        link = parents[node]
    return tuple(word)


def _reconstruct_classes(parents: Mapping, node, reps: Sequence[Symbol]) -> tuple:
    """Like :func:`_reconstruct`, for links holding symbol-class indices."""
    word: list = []
    link = parents[node]
    while link is not None:
        idx, node = link
        word.append(reps[idx])
        link = parents[node]
    return tuple(word)


def _class_exprs(gen: "pl._MaskCodegen", keys: Sequence[tuple]) -> list[str]:
    """One fused mask→mask expression per transition-row class.

    ``keys`` are row tuples (one formula per state bit); the expressions
    share hoisted temps through the common ``gen``, so subformulas shared
    across classes evaluate once per BFS iteration.
    """
    for key in keys:
        for formula in key:
            if formula is not pl.FALSE:
                gen.count_refs(formula)
    exprs = []
    for key in keys:
        terms = [
            f"({gen.expr(formula)} << {i})" if i else gen.expr(formula)
            for i, formula in enumerate(key)
            if formula is not pl.FALSE
        ]
        exprs.append(" | ".join(terms) if terms else "0")
    return exprs


def _compile_fn_source(name: str, source: str):
    return compile(source, f"<afa.{name}>", "exec")


def _exec_code(name: str, code) -> Callable:
    namespace: dict = {"_deque": deque}
    exec(code, namespace)
    return namespace[name]


def _exec_source(name: str, lines: list[str]) -> Callable:
    return _exec_code(name, _compile_fn_source(name, "\n".join(lines) + "\n"))


_SEARCHER_CACHE: dict[tuple, tuple[Callable, Callable]] = {}
_DIFF_SEARCHER_CACHE: dict[tuple, Callable] = {}

#: Marshalled code objects are interpreter-version specific; artifacts
#: tagged with a different magic fall back to recompiling stored source.
_BYTECODE_MAGIC = importlib.util.MAGIC_NUMBER.hex()

#: Bumped when the generated searcher source changes shape (v2: ckpt
#: calls carry the visited map for progress telemetry).  Artifacts from
#: an older codegen are regenerated rather than rehydrated.
_CODEGEN_VERSION = 2


def _load_searchers_artifact(cache_key: tuple) -> tuple[Callable, Callable] | None:
    """Rehydrate persisted searchers, or ``None`` to compile from scratch.

    Prefers the marshalled code objects (skips parsing + compiling); a
    magic-number mismatch (store written by another Python version)
    recompiles from the stored source, which is still cheaper than
    regenerating it.  Any malformed payload falls through to a rebuild.
    """
    if not artifacts.enabled():
        return None
    payload = artifacts.load("afa.searchers", cache_key)
    if not isinstance(payload, dict):
        return None
    if payload.get("codegen") != _CODEGEN_VERSION:
        return None
    try:
        if payload.get("magic") == _BYTECODE_MAGIC:
            search_code = marshal.loads(payload["search_code"])
            sweep_code = marshal.loads(payload["sweep_code"])
        else:
            search_code = _compile_fn_source("_search", payload["search_src"])
            sweep_code = _compile_fn_source("_sweep", payload["sweep_src"])
        return _exec_code("_search", search_code), _exec_code("_sweep", sweep_code)
    except Exception:  # noqa: BLE001 - corrupt artifact: recompile instead
        return None


def _compile_searchers(engine: "_CompiledAFA") -> tuple[Callable, Callable]:
    """Generate the whole witness-search / sweep BFS as single functions.

    Inlining every transition row into the loop body removes all per-step
    Python function calls — the search runs as one compiled code object
    over int bitsets.  Parent links store the symbol-*class index*;
    :func:`_reconstruct_classes` maps them back to representative symbols.

    Generated functions depend only on the state order and the interned
    row formulas, so they are cached globally — rebuilding the same AFA
    (e.g. one ``to_afa`` per analysis call) reuses the compiled search.
    When an artifact store is in scope the source and marshalled code
    objects also persist under a content fingerprint of that same key,
    so a *cold process* skips codegen (and, same interpreter version,
    parsing/compilation) for engines any prior run ever compiled.
    """
    cache_key = (
        engine.order,
        tuple(engine.row_keys[rep] for rep in engine.reps),
    )
    cached = _SEARCHER_CACHE.get(cache_key)
    if cached is not None:
        STATS.compile_cache_hits += 1
        return cached
    restored = _load_searchers_artifact(cache_key)
    if restored is not None:
        STATS.compile_cache_hits += 1
        _SEARCHER_CACHE[cache_key] = restored
        return restored
    STATS.compile_cache_misses += 1
    gen = pl._MaskCodegen(engine.index)
    exprs = _class_exprs(gen, [engine.row_keys[rep] for rep in engine.reps])
    temps = ["    " + line for line in gen.lines]

    # The guard checkpoint is batched: one callback per 256 pops (plus one
    # on entry, so tiny searches still hit a checkpoint) — the masked test
    # is the only per-iteration overhead, preserving the compiled speedup.
    search = [
        "def _search(start, accepting, initial, ckpt):",
        "    parents = {start: None}",
        "    queue = _deque((start,))",
        "    append = queue.append",
        "    popleft = queue.popleft",
        "    n = 0",
        "    ckpt(0, queue, parents)",
        "    while queue:",
        "        v = popleft()",
        "        n += 1",
        "        if not n & 255:",
        "            ckpt(n, queue, parents)",
        *temps,
    ]
    sweep = [
        "def _sweep(start, ckpt):",
        "    parents = {start: None}",
        "    queue = _deque((start,))",
        "    append = queue.append",
        "    popleft = queue.popleft",
        "    n = 0",
        "    ckpt(0, queue, parents)",
        "    while queue:",
        "        v = popleft()",
        "        n += 1",
        "        if not n & 255:",
        "            ckpt(n, queue, parents)",
        *temps,
    ]
    for idx, expr in enumerate(exprs):
        search += [
            f"        nxt = {expr}",
            "        if nxt not in parents:",
            f"            parents[nxt] = ({idx}, v)",
            "            if initial(nxt) == accepting:",
            "                return parents, nxt, n",
            "            append(nxt)",
        ]
        sweep += [
            f"        nxt = {expr}",
            "        if nxt not in parents:",
            f"            parents[nxt] = ({idx}, v)",
            "            append(nxt)",
        ]
    search.append("    return parents, None, n")
    sweep.append("    return parents, n")
    search_src = "\n".join(search) + "\n"
    sweep_src = "\n".join(sweep) + "\n"
    search_code = _compile_fn_source("_search", search_src)
    sweep_code = _compile_fn_source("_sweep", sweep_src)
    built = _exec_code("_search", search_code), _exec_code("_sweep", sweep_code)
    _SEARCHER_CACHE[cache_key] = built
    if artifacts.enabled():
        artifacts.store(
            "afa.searchers",
            cache_key,
            {
                "magic": _BYTECODE_MAGIC,
                "codegen": _CODEGEN_VERSION,
                "search_src": search_src,
                "sweep_src": sweep_src,
                "search_code": marshal.dumps(search_code),
                "sweep_code": marshal.dumps(sweep_code),
            },
            meta={"states": len(engine.order), "classes": len(engine.reps)},
        )
    return built


def generic_search(
    rows: Sequence[tuple[int, Callable[[int], int]]],
    start: int,
    accepting: bool | None,
    initial: Callable[[int], bool],
    ckpt: Callable[..., None],
) -> tuple[dict, int | None, int]:
    """Interpreted BFS over parameterized transition rows.

    Same contract as the generated ``_search`` / ``_sweep`` (parent links
    carry the symbol-*class index* paired with each row; returns
    ``(parents, hit_or_None, n)``, with ``accepting=None`` meaning a full
    sweep) but taking the per-class row callables as data instead of
    code-generating the loop body.  :mod:`repro.delta` uses it to re-check
    an edited automaton over *patched* rows without paying searcher
    codegen.
    """
    parents: dict = {start: None}
    queue = deque((start,))
    n = 0
    append = queue.append
    popleft = queue.popleft
    ckpt(0, queue, parents)
    while queue:
        v = popleft()
        n += 1
        if not n & 255:
            ckpt(n, queue, parents)
        for idx, row in rows:
            nxt = row(v)
            if nxt not in parents:
                parents[nxt] = (idx, v)
                if accepting is not None and initial(nxt) == accepting:
                    return parents, nxt, n
                append(nxt)
    return parents, None, n


def _compile_diff_search(
    mine: "_CompiledAFA", theirs: "_CompiledAFA"
) -> tuple[Callable, tuple[Symbol, ...]]:
    """Generate the joint difference-witness BFS over mask *pairs*.

    Symbol dedup here is joint: two symbols collapse only when they induce
    identical rows in *both* automata.  Both automata's rows inline into
    one loop body (argument ``v`` / temps ``a*`` for ``mine``, ``w`` /
    ``b*`` for ``theirs``).
    """
    seen: set[tuple] = set()
    reps: list[Symbol] = []
    keys_mine: list[tuple] = []
    keys_theirs: list[tuple] = []
    for symbol in mine.symbols:
        key = (mine.row_keys[symbol], theirs.row_keys[symbol])
        if key in seen:
            continue
        seen.add(key)
        reps.append(symbol)
        keys_mine.append(key[0])
        keys_theirs.append(key[1])
    cache_key = (
        mine.order,
        theirs.order,
        tuple(zip(keys_mine, keys_theirs)),
    )
    cached = _DIFF_SEARCHER_CACHE.get(cache_key)
    if cached is not None:
        STATS.compile_cache_hits += 1
        return cached, tuple(reps)
    STATS.compile_cache_misses += 1
    gen_a = pl._MaskCodegen(mine.index, arg="v", prefix="a")
    gen_b = pl._MaskCodegen(theirs.index, arg="w", prefix="b")
    exprs_a = _class_exprs(gen_a, keys_mine)
    exprs_b = _class_exprs(gen_b, keys_theirs)
    lines = [
        "def _dsearch(start, ia, ib, ckpt):",
        "    parents = {start: None}",
        "    queue = _deque((start,))",
        "    append = queue.append",
        "    popleft = queue.popleft",
        "    n = 0",
        "    ckpt(0, queue, parents)",
        "    while queue:",
        "        pair = popleft()",
        "        n += 1",
        "        if not n & 255:",
        "            ckpt(n, queue, parents)",
        "        v, w = pair",
        "        if ia(v) != ib(w):",
        "            return parents, pair, n",
        *("    " + line for line in gen_a.lines),
        *("    " + line for line in gen_b.lines),
    ]
    for idx, (ea, eb) in enumerate(zip(exprs_a, exprs_b)):
        lines += [
            f"        nxt = ({ea}, {eb})",
            "        if nxt not in parents:",
            f"            parents[nxt] = ({idx}, pair)",
            "            append(nxt)",
        ]
    lines.append("    return parents, None, n")
    fn = _exec_source("_dsearch", lines)
    _DIFF_SEARCHER_CACHE[cache_key] = fn
    return fn, tuple(reps)


class _CompiledAFA:
    """The compiled evaluation engine behind an :class:`AFA`.

    Built once per automaton and cached; holds the state→bit mapping, the
    per-symbol compiled transition rows, and the symbol quotient (one
    representative per class of symbols with identical rows).
    """

    __slots__ = (
        "order",
        "index",
        "final_mask",
        "initial_fn",
        "symbols",
        "row_keys",
        "rep_of",
        "reps",
        "rows",
        "rep_rows",
        "_search_fn",
        "_sweep_fn",
        "_diff_cache",
    )

    def __init__(self, afa: "AFA") -> None:
        self.order: tuple[State, ...] = tuple(sorted(afa.states))
        self.index: dict[State, int] = {s: i for i, s in enumerate(self.order)}
        self.final_mask = 0
        for state in afa.finals:
            self.final_mask |= 1 << self.index[state]
        self.initial_fn = pl.compile_mask(afa.initial_condition, self.index)
        self.symbols: tuple[Symbol, ...] = tuple(
            sorted(afa.alphabet, key=symbol_sort_key)
        )
        # Group symbols by transition row (tuple of interned formulas, one
        # per state): identical rows induce identical pre_step functions,
        # so only one representative per class needs exploring.  The
        # quotient (rep_of / reps) persists as a job-scoped artifact:
        # slot keys rely on the procedures deriving their automata
        # deterministically, so a stored quotient with matching state
        # order and alphabet describes this same automaton, and only one
        # row tuple per *class* (instead of per symbol) must be built.
        self.row_keys: dict[Symbol, tuple] = {}
        self.rep_of: dict[Symbol, Symbol] = {}
        self.rows: dict[Symbol, Callable[[int], int]] = {}
        slot = artifacts.slot("afa.quotient")
        quotient = self._valid_quotient(
            artifacts.load("afa.quotient", slot) if slot is not None else None
        )
        if quotient is not None:
            self.rep_of = dict(quotient["rep_of"])
            self.reps: tuple[Symbol, ...] = tuple(quotient["reps"])
            rows_by_rep = {
                rep: tuple(
                    afa.transitions.get((state, rep), pl.FALSE)
                    for state in self.order
                )
                for rep in self.reps
            }
            for symbol in self.symbols:
                self.row_keys[symbol] = rows_by_rep[self.rep_of[symbol]]
            class_items = [(rows_by_rep[rep], rep) for rep in self.reps]
        else:
            classes: dict[tuple, Symbol] = {}
            for symbol in self.symbols:
                key = tuple(
                    afa.transitions.get((state, symbol), pl.FALSE)
                    for state in self.order
                )
                self.row_keys[symbol] = key
                rep = classes.setdefault(key, symbol)
                self.rep_of[symbol] = rep
            self.reps = tuple(classes.values())
            class_items = list(classes.items())
            if slot is not None:
                artifacts.store(
                    "afa.quotient",
                    slot,
                    {
                        "order": self.order,
                        "symbols": self.symbols,
                        "rep_of": self.rep_of,
                        "reps": self.reps,
                    },
                    meta={"classes": len(self.reps)},
                )
        for key, rep in class_items:
            self.rows[rep] = pl.compile_row(
                (
                    (1 << i, formula)
                    for i, formula in enumerate(key)
                    if formula is not pl.FALSE
                ),
                self.index,
            )
        self.rep_rows: tuple[tuple[Symbol, Callable[[int], int]], ...] = tuple(
            (rep, self.rows[rep]) for rep in self.reps
        )
        self._search_fn: Callable | None = None
        self._sweep_fn: Callable | None = None
        self._diff_cache: dict["_CompiledAFA", tuple[Callable, tuple]] = {}
        STATS.afa_compilations += 1
        STATS.alphabet_symbols += len(self.symbols)
        STATS.symbol_classes += len(self.reps)

    def _valid_quotient(self, payload) -> dict | None:
        """``payload`` if it is a quotient applicable here, else ``None``.

        The state order and alphabet must match exactly, every symbol
        must be classified, and every class representative must name an
        actual symbol — anything else (staleness, corruption, a slot
        collision) silently recomputes the quotient from scratch.
        """
        if not isinstance(payload, dict):
            return None
        try:
            if payload["order"] != self.order:
                return None
            if payload["symbols"] != self.symbols:
                return None
            rep_of = payload["rep_of"]
            reps = payload["reps"]
            universe = set(self.symbols)
            if set(rep_of) != universe or not universe.issuperset(reps):
                return None
            if set(rep_of.values()) != set(reps):
                return None
        except (KeyError, TypeError, AttributeError):
            return None
        return payload

    def searcher(self) -> Callable:
        """The generated witness-search BFS (built on first use)."""
        if self._search_fn is None:
            self._search_fn, self._sweep_fn = _compile_searchers(self)
        return self._search_fn

    def sweeper(self) -> Callable:
        """The generated full-sweep BFS (built on first use)."""
        if self._sweep_fn is None:
            self._search_fn, self._sweep_fn = _compile_searchers(self)
        return self._sweep_fn

    def diff_searcher(
        self, theirs: "_CompiledAFA"
    ) -> tuple[Callable, tuple[Symbol, ...]]:
        """The generated pair-BFS against ``theirs`` (cached per partner)."""
        cached = self._diff_cache.get(theirs)
        if cached is None:
            cached = _compile_diff_search(self, theirs)
            self._diff_cache[theirs] = cached
        return cached

    def pre_step(self, mask: int, symbol: Symbol) -> int:
        """``V_{a·w}`` from ``V_w``, both as int bitsets."""
        STATS.pre_steps += 1
        return self.rows[self.rep_of[symbol]](mask)

    def to_vector(self, mask: int) -> Vector:
        return frozenset(s for i, s in enumerate(self.order) if mask >> i & 1)

    def to_mask(self, vector: Iterable[State]) -> int:
        mask = 0
        for state in vector:
            mask |= 1 << self.index[state]
        return mask


def patch_engine(
    base: "_CompiledAFA", afa: "AFA", dirty_states: Iterable[State]
) -> "_CompiledAFA | None":
    """A compiled engine for ``afa`` reusing ``base``'s row closures.

    Applicable when ``afa`` has the same state order and alphabet as the
    engine ``base`` was compiled for and its transition formulas differ
    from ``base``'s only on the AFA states in ``dirty_states`` (the
    *support* of the edit); returns ``None`` when the layouts diverge.
    Each transition-row bit depends only on its own state's formula, so a
    patched row is ``(base_row(v) & clean) | patch(v)`` where ``patch``
    compiles just the dirty states' formulas — per-class compile cost is
    proportional to the edit, not to the automaton.  The symbol quotient
    is refined the same way: symbols sharing a base class split only when
    their dirty-state formulas differ.
    """
    order = tuple(sorted(afa.states))
    if order != base.order:
        return None
    symbols = tuple(sorted(afa.alphabet, key=symbol_sort_key))
    if symbols != base.symbols:
        return None
    index = base.index
    dirty = [s for s in order if s in set(dirty_states)]
    dirty_idx = [index[s] for s in dirty]
    clean = (1 << len(order)) - 1
    for i in dirty_idx:
        clean &= ~(1 << i)

    engine = object.__new__(_CompiledAFA)
    engine.order = order
    engine.index = index
    engine.final_mask = 0
    for state in afa.finals:
        engine.final_mask |= 1 << index[state]
    engine.initial_fn = pl.compile_mask(afa.initial_condition, index)
    engine.symbols = symbols
    engine.row_keys = {}
    engine.rep_of = {}
    engine.rows = {}
    # Two-level quotient: symbols with the same base class and the same
    # dirty-state patch provably share a row, so the (long) full row key
    # is built and hashed once per *group*, not once per symbol.  Groups
    # whose patched keys coincide anyway (base rows differed only on now
    # overridden dirty states) still merge through ``classes``, keeping
    # the quotient exact — and stopping class-count drift across chained
    # patches.
    classes: dict[tuple, Symbol] = {}
    patch_keys: dict[Symbol, tuple] = {}
    key_of_rep: dict[Symbol, tuple] = {}
    group_rep: dict[tuple, Symbol] = {}
    for symbol in symbols:
        patch = tuple(
            afa.transitions.get((state, symbol), pl.FALSE) for state in dirty
        )
        rep = group_rep.get((base.rep_of[symbol], patch))
        if rep is None:
            key = list(base.row_keys[symbol])
            for j, i in enumerate(dirty_idx):
                key[i] = patch[j]
            full_key = tuple(key)
            rep = classes.setdefault(full_key, symbol)
            if rep is symbol:
                patch_keys[rep] = patch
                key_of_rep[rep] = full_key
            group_rep[(base.rep_of[symbol], patch)] = rep
        engine.rep_of[symbol] = rep
        engine.row_keys[symbol] = key_of_rep[rep]
    engine.reps = tuple(classes.values())
    for rep in engine.reps:
        base_row = base.rows[base.rep_of[rep]]
        patch_row = pl.compile_row(
            (
                (1 << i, formula)
                for i, formula in zip(dirty_idx, patch_keys[rep])
                if formula is not pl.FALSE
            ),
            index,
        )
        engine.rows[rep] = _patched_row(base_row, clean, patch_row)
    engine.rep_rows = tuple((rep, engine.rows[rep]) for rep in engine.reps)
    engine._search_fn = None
    engine._sweep_fn = None
    engine._diff_cache = {}
    STATS.afa_engine_patches += 1
    STATS.alphabet_symbols += len(engine.symbols)
    STATS.symbol_classes += len(engine.reps)
    return engine


def _patched_row(
    base_row: Callable[[int], int], clean: int, patch_row: Callable[[int], int]
) -> Callable[[int], int]:
    def row(v: int) -> int:
        return (base_row(v) & clean) | patch_row(v)

    return row


class AFA:
    """An alternating finite automaton with boolean transition conditions.

    ``transitions[(q, a)]`` is a propositional formula over state names;
    a missing entry means ``false`` (the run from ``q`` rejects on ``a``).
    ``initial_condition`` is a formula over state names evaluated on the
    full-word vector; for a conventional AFA it is a single state variable.
    """

    def __init__(
        self,
        states: Iterable[State],
        alphabet: Iterable[Symbol],
        transitions: Mapping[tuple[State, Symbol], pl.Formula],
        initial_condition: pl.Formula,
        finals: Iterable[State],
    ) -> None:
        self.states = frozenset(states)
        self.alphabet = frozenset(alphabet)
        self.transitions = dict(transitions)
        self.initial_condition = initial_condition
        self.finals = frozenset(finals)
        self._engine_cache: _CompiledAFA | None = None
        if not self.finals <= self.states:
            raise ReproError("final states must be states")
        for (state, symbol), formula in self.transitions.items():
            if state not in self.states:
                raise ReproError(f"transition from unknown state {state!r}")
            if symbol not in self.alphabet:
                raise ReproError(f"transition on unknown symbol {symbol!r}")
            stray = formula.variables() - self.states
            if stray:
                raise ReproError(
                    f"transition condition mentions non-states {sorted(stray)}"
                )
        stray = initial_condition.variables() - self.states
        if stray:
            raise ReproError(f"initial condition mentions non-states {sorted(stray)}")

    @classmethod
    def _from_validated(
        cls,
        states: frozenset,
        alphabet: frozenset,
        transitions: dict,
        initial_condition: pl.Formula,
        finals: frozenset,
    ) -> "AFA":
        """Construct without re-validating, for derived automata.

        ``__init__`` checks every transition formula against the state
        set — linear in the whole automaton, which defeats incremental
        construction (:func:`repro.core.pl_semantics.to_afa_incremental`
        splices a few recomputed rows into an already-validated base).
        Callers own the arguments: all five must already satisfy the
        ``__init__`` invariants, and the dicts/frozensets are stored
        as-is, not copied.
        """
        afa = object.__new__(cls)
        afa.states = states
        afa.alphabet = alphabet
        afa.transitions = transitions
        afa.initial_condition = initial_condition
        afa.finals = finals
        afa._engine_cache = None
        return afa

    def __getstate__(self) -> dict:
        # The compiled engine holds exec()-generated closures, which cannot
        # be pickled; drop it so automata round-trip through worker
        # processes (the receiver recompiles on first use).
        state = self.__dict__.copy()
        state["_engine_cache"] = None
        return state

    def _engine(self) -> _CompiledAFA:
        """The compiled engine, built on first use."""
        engine = self._engine_cache
        if engine is None:
            with span(
                "afa.compile",
                states=len(self.states),
                alphabet=len(self.alphabet),
            ) as sp:
                engine = _CompiledAFA(self)
                sp.set(symbol_classes=len(engine.reps))
            self._engine_cache = engine
        return engine

    def _symbol_order(self) -> list[Symbol]:
        """The full alphabet in canonical (hash-seed-independent) order."""
        return sorted(self.alphabet, key=symbol_sort_key)

    # -- backward semantics -----------------------------------------------------------

    def empty_word_vector(self) -> Vector:
        """``V_ε``: exactly the final states are true."""
        return frozenset(self.finals)

    def pre_step(self, vector: Vector, symbol: Symbol) -> Vector:
        """``V_{a·w}`` from ``V_w``: evaluate every transition condition."""
        if _USE_COMPILED:
            engine = self._engine()
            return engine.to_vector(engine.pre_step(engine.to_mask(vector), symbol))
        return self._pre_step_ast(vector, symbol)

    def _pre_step_ast(self, vector: Vector, symbol: Symbol) -> Vector:
        """Interpreted reference implementation (per-state AST recursion)."""
        STATS.pre_steps += 1
        return frozenset(
            state
            for state in self.states
            if self.transitions.get((state, symbol), pl.FALSE).evaluate(vector)
        )

    def vector_for(self, word: Sequence[Symbol]) -> Vector:
        """The valuation vector of a word (computed suffix-first)."""
        if _USE_COMPILED:
            engine = self._engine()
            mask = engine.to_mask(self.finals)
            for symbol in reversed(word):
                mask = engine.pre_step(mask, symbol)
            return engine.to_vector(mask)
        vector = self.empty_word_vector()
        for symbol in reversed(word):
            vector = self._pre_step_ast(vector, symbol)
        return vector

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """Language membership."""
        if _USE_COMPILED:
            engine = self._engine()
            mask = engine.to_mask(self.finals)
            for symbol in reversed(word):
                mask = engine.pre_step(mask, symbol)
            return engine.initial_fn(mask)
        return self.initial_condition.evaluate(self.vector_for(word))

    # -- decision procedures -------------------------------------------------------------

    def reachable_vectors(self) -> dict[Vector, tuple[Symbol, ...]]:
        """All vectors reachable from ``V_ε``, with a witness suffix each.

        The witness of vector ``V`` is a word ``w`` with ``V_w = V``.  The
        search is breadth-first, so witnesses are shortest; only one symbol
        per transition-row class is explored (identical rows cannot reach
        new vectors), so witnesses use class representatives.
        """
        with span(
            "afa.reachable_vectors",
            compiled=_USE_COMPILED,
            states=len(self.states),
        ) as sp:
            vectors = self._reachable_vectors_impl()
            sp.set(vectors=len(vectors))
            return vectors

    def _reachable_vectors_impl(self) -> dict[Vector, tuple[Symbol, ...]]:
        ckpt = checkpoint_callable("afa.reachable_vectors")
        if _USE_COMPILED:
            engine = self._engine()
            parents, popped = engine.sweeper()(engine.to_mask(self.finals), ckpt)
            STATS.vectors_explored += popped
            STATS.pre_steps += popped * len(engine.reps)
            reps = engine.reps
            return {
                engine.to_vector(m): _reconstruct_classes(parents, m, reps)
                for m in parents
            }
        start = self.empty_word_vector()
        parents_v: dict[Vector, tuple[Symbol, Vector] | None] = {start: None}
        queue_v: deque[Vector] = deque([start])
        order = self._symbol_order()
        n = 0
        ckpt(0, queue_v, parents_v)
        while queue_v:
            vector = queue_v.popleft()
            STATS.vectors_explored += 1
            n += 1
            ckpt(n, queue_v, parents_v)
            for symbol in order:
                nxt = self._pre_step_ast(vector, symbol)
                if nxt not in parents_v:
                    parents_v[nxt] = (symbol, vector)
                    queue_v.append(nxt)
        return {v: _reconstruct(parents_v, v) for v in parents_v}

    def is_empty(self) -> bool:
        """Emptiness via vector reachability."""
        return self.accepting_witness() is None

    def accepting_witness(self) -> tuple[Symbol, ...] | None:
        """A word in the language, or ``None`` when empty.

        Explores vectors breadth-first and stops at the first vector that
        satisfies the initial condition, so the witness is of minimal
        length among the BFS layers explored.
        """
        return self._search_witness(accepting=True)

    def rejecting_witness(self) -> tuple[Symbol, ...] | None:
        """A word *not* in the language, or ``None`` when L = Σ*.

        The dual of :meth:`accepting_witness` over the same vector space;
        used by PL validation with output ``false``.
        """
        return self._search_witness(accepting=False)

    def _search_witness(self, accepting: bool) -> tuple[Symbol, ...] | None:
        with span(
            "afa.search_witness",
            accepting=accepting,
            compiled=_USE_COMPILED,
            states=len(self.states),
        ) as sp:
            witness = self._search_witness_impl(accepting)
            sp.set(
                found=witness is not None,
                witness_length=None if witness is None else len(witness),
            )
            return witness

    def _search_witness_impl(self, accepting: bool) -> tuple[Symbol, ...] | None:
        ckpt = checkpoint_callable("afa.search_witness")
        if _USE_COMPILED:
            engine = self._engine()
            start = engine.to_mask(self.finals)
            if engine.initial_fn(start) == accepting:
                return ()
            parents, hit, popped = engine.searcher()(
                start, accepting, engine.initial_fn, ckpt
            )
            STATS.vectors_explored += popped
            STATS.pre_steps += popped * len(engine.reps)
            if hit is None:
                return None
            return _reconstruct_classes(parents, hit, engine.reps)
        start = self.empty_word_vector()
        if self.initial_condition.evaluate(start) == accepting:
            return ()
        parents_v: dict[Vector, tuple[Symbol, Vector] | None] = {start: None}
        queue_v: deque[Vector] = deque([start])
        order = self._symbol_order()
        n = 0
        ckpt(0, queue_v, parents_v)
        while queue_v:
            vector = queue_v.popleft()
            STATS.vectors_explored += 1
            n += 1
            ckpt(n, queue_v, parents_v)
            for symbol in order:
                nxt = self._pre_step_ast(vector, symbol)
                if nxt in parents_v:
                    continue
                parents_v[nxt] = (symbol, vector)
                if self.initial_condition.evaluate(nxt) == accepting:
                    return _reconstruct(parents_v, nxt)
                queue_v.append(nxt)
        return None

    def to_dfa(self) -> DFA:
        """The *reverse-deterministic* DFA over valuation vectors.

        Vectors are states; reading symbol ``a`` maps ``V_w`` to ``V_{a·w}``
        — i.e. this DFA reads words **reversed**.  It accepts reverse(L):
        a word ``w`` is in L(self) iff ``reversed(w)`` is accepted here.
        The DFA stays over the *full* alphabet (every symbol of a collapsed
        class gets its representative's transitions).
        """
        witnesses = self.reachable_vectors()
        vectors = set(witnesses)
        transitions: dict[tuple[Vector, Symbol], Vector] = {}
        for vector in vectors:
            for symbol in self.alphabet:
                transitions[(vector, symbol)] = self.pre_step(vector, symbol)
        finals = {
            vector
            for vector in vectors
            if self.initial_condition.evaluate(vector)
        }
        return DFA(vectors, self.alphabet, transitions, self.empty_word_vector(), finals)

    def to_nfa(self) -> NFA:
        """An NFA for the (forward) language, via reversing :meth:`to_dfa`."""
        reverse_dfa = self.to_dfa()
        transitions: dict[tuple[Vector, Symbol | None], set[Vector]] = {}
        for (source, symbol), target in reverse_dfa.transitions.items():
            transitions.setdefault((target, symbol), set()).add(source)
        return NFA(
            reverse_dfa.states,
            reverse_dfa.alphabet,
            {k: frozenset(v) for k, v in transitions.items()},
            reverse_dfa.finals,
            {reverse_dfa.initial},
        )

    def equivalent_to(self, other: "AFA") -> bool:
        """Language equivalence via the product of vector spaces.

        Runs a joint BFS over pairs of vectors; the automata differ iff
        some reachable pair disagrees on the initial conditions.
        """
        if self.alphabet != other.alphabet:
            raise ReproError("equivalence requires identical alphabets")
        return self.difference_witness(other) is None

    def difference_witness(self, other: "AFA") -> tuple[Symbol, ...] | None:
        """A word accepted by exactly one of the two automata, or ``None``.

        Symbol dedup is *joint*: two symbols collapse only when they induce
        identical transition rows in both automata.
        """
        if self.alphabet != other.alphabet:
            raise ReproError("comparison requires identical alphabets")
        with span(
            "afa.difference_witness",
            compiled=_USE_COMPILED,
            states=len(self.states) + len(other.states),
        ) as sp:
            witness = self._difference_witness_impl(other)
            sp.set(
                found=witness is not None,
                witness_length=None if witness is None else len(witness),
            )
            return witness

    def _difference_witness_impl(self, other: "AFA") -> tuple[Symbol, ...] | None:
        ckpt = checkpoint_callable("afa.difference_witness")
        if _USE_COMPILED:
            mine_e, theirs_e = self._engine(), other._engine()
            dsearch, reps = mine_e.diff_searcher(theirs_e)
            start = (mine_e.to_mask(self.finals), theirs_e.to_mask(other.finals))
            parents, hit, popped = dsearch(
                start, mine_e.initial_fn, theirs_e.initial_fn, ckpt
            )
            STATS.vectors_explored += popped
            STATS.pre_steps += popped * 2 * len(reps)
            if hit is None:
                return None
            return _reconstruct_classes(parents, hit, reps)
        start_v = (self.empty_word_vector(), other.empty_word_vector())
        parents_v: dict[tuple[Vector, Vector], tuple | None] = {start_v: None}
        queue_v: deque[tuple[Vector, Vector]] = deque([start_v])
        order = self._symbol_order()
        n = 0
        ckpt(0, queue_v, parents_v)
        while queue_v:
            pair_v = queue_v.popleft()
            mine_v, theirs_v = pair_v
            STATS.vectors_explored += 1
            n += 1
            ckpt(n, queue_v, parents_v)
            if self.initial_condition.evaluate(mine_v) != other.initial_condition.evaluate(
                theirs_v
            ):
                return _reconstruct(parents_v, pair_v)
            for symbol in order:
                nxt_v = (
                    self._pre_step_ast(mine_v, symbol),
                    other._pre_step_ast(theirs_v, symbol),
                )
                if nxt_v not in parents_v:
                    parents_v[nxt_v] = (symbol, pair_v)
                    queue_v.append(nxt_v)
        return None

    @classmethod
    def from_nfa(cls, nfa: NFA) -> "AFA":
        """Encode an NFA as an AFA (disjunctive transition conditions).

        The NFA must be ε-free; eliminate ε-transitions by determinizing
        first if needed.
        """
        with span(
            "afa.from_nfa",
            nfa_states=len(nfa.states),
            alphabet=len(nfa.alphabet),
        ):
            return cls._from_nfa_impl(nfa)

    @classmethod
    def _from_nfa_impl(cls, nfa: NFA) -> "AFA":
        for (_state, symbol) in nfa.transitions:
            if symbol is None:
                raise ReproError("from_nfa requires an ε-free NFA")
        name = _canonical_state_name
        states = {name(s) for s in nfa.states}
        if len(states) != len(nfa.states):
            raise ReproError("NFA state names collide after str()")
        transitions: dict[tuple[State, Symbol], pl.Formula] = {}
        for (source, symbol), targets in nfa.transitions.items():
            transitions[(name(source), symbol)] = pl.disjoin(
                pl.Var(t) for t in sorted(name(t) for t in targets)
            )
        initial = pl.disjoin(pl.Var(s) for s in sorted(name(s) for s in nfa.initials))
        return cls(states, nfa.alphabet, transitions, initial, {name(s) for s in nfa.finals})

    def __repr__(self) -> str:
        return (
            f"AFA(states={len(self.states)}, alphabet={len(self.alphabet)}, "
            f"finals={len(self.finals)})"
        )


register_span(
    "afa.search_witness",
    "AFA accepting/rejecting-witness BFS over valuation vectors",
    "Theorem 4.1(3): SWS(PL, PL) non-emptiness/validation via AFA",
)
register_span(
    "afa.reachable_vectors",
    "AFA full vector-space sweep (to_dfa / reachable_vectors)",
    "Theorem 4.1(3): AFA reachability underlying the PL procedures",
)
register_span(
    "afa.difference_witness",
    "joint pair-BFS over two AFA vector spaces",
    "Theorem 4.1(3): PL equivalence via AFA difference",
)
