"""Benchmark-side spans around the library's layer entry points.

The library is measured from outside: :func:`install` replaces each
public entry point listed in :data:`ENTRY_POINTS` with a wrapper that
records a span (name, start, end, parent, request id) into a
:class:`Tracer`.  A function is rebound everywhere the ``repro`` package
imported it by name (for example ``job_fingerprint`` in the scheduler
and in ``delta.session``), so calls through those bindings are seen
too.  Nothing under ``src/`` is edited.

Spans are kept in memory and written out when the run ends.  A span's
self time is its duration minus the time its direct children cover.
Only the benchmark process records spans; a forked pool worker runs the
wrappers as pass-throughs, except for the worker's job body, whose
execution time is appended to a per-worker file so the parent can
subtract it from the pooled drain time.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from typing import Any, Callable

#: Layer → entry points.  ``"module:function"`` rebinds a function
#: everywhere ``repro`` imported it; ``"module:Class.method"`` patches
#: the method on its class.  The span name is ``layer/entry``.
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "core.run": (
        "repro.core.run:run_pl",
        "repro.core.run:run_relational",
    ),
    "core.unfold": ("repro.core.unfold:expand",),
    "logic.query": (
        "repro.logic.cq:ConjunctiveQuery.evaluate",
        "repro.logic.cq:ConjunctiveQuery.contained_in",
        "repro.logic.ucq:UnionQuery.evaluate",
        "repro.logic.ucq:UnionQuery.contained_in",
        "repro.logic.fo:FOQuery.evaluate",
    ),
    "logic.sat": (
        "repro.logic.sat:solve_cnf",
        "repro.logic.sat:model",
        "repro.logic.sat:satisfiable",
    ),
    "automata.translate": ("repro.core.pl_semantics:to_afa",),
    "automata.search": (
        "repro.automata.afa:AFA.accepting_witness",
        "repro.automata.afa:AFA.rejecting_witness",
        "repro.automata.afa:AFA.difference_witness",
    ),
    "analysis": tuple(
        f"repro.analysis:{name}"
        for name in (
            "nonempty_pl",
            "nonempty_pl_nr_sat",
            "nonempty_cq",
            "nonempty_cq_nr",
            "nonempty_fo_bounded",
            "validate_pl",
            "validate_pl_nr_sat",
            "validate_cq_nr",
            "contained_pl",
            "contained_cq",
            "contained_cq_nr",
            "equivalent_pl",
            "equivalent_cq",
            "equivalent_cq_nr",
            "equivalent_fo_bounded",
        )
    ),
    "mediator": tuple(
        f"repro.mediator:{name}"
        for name in (
            "compose_pl_regular",
            "compose_pl_prefix",
            "compose_mdtb_pl",
            "compose_cq_nr",
            "compose_uc2rpq",
            "run_mediator",
            "run_mediator_pl",
            "run_mediator_relational",
        )
    ),
    "serve.fingerprint": (
        "repro.serve.fingerprint:job_fingerprint",
        "repro.serve.fingerprint:sub_fingerprints",
    ),
    "serve.cache": (
        "repro.serve.cache:AnswerCache.get",
        "repro.serve.cache:AnswerCache.put",
    ),
    "serve.store": (
        "repro.serve.store:Store.get_answer",
        "repro.serve.store:Store.put_answer",
        "repro.serve.store:Store.get_artifact",
        "repro.serve.store:Store.put_artifact",
        "repro.serve.store:Store.get_search_state",
        "repro.serve.store:Store.put_search_state",
    ),
    "serve.scheduler": (
        "repro.serve.scheduler:SolverService.run_batch",
        "repro.serve.scheduler:SolverService.submit",
        "repro.serve.scheduler:SolverService.drain",
    ),
    "serve.pool": (
        "repro.serve.scheduler:SolverService._run_batch_pooled",
        "repro.serve.pool:WorkerPool.submit",
    ),
    "delta.session": (
        "repro.delta.session:Session.check",
        "repro.delta.session:Session.edit",
        "repro.delta.session:Session.recheck",
    ),
    "delta.diff": ("repro.delta.diff:compute_delta",),
    "delta.recheck": ("repro.delta.engine:recheck",),
}

#: Layers grouped for the breakdown: the self time of every span whose
#: layer starts with a group's prefix is summed into that group.
GROUPS = (
    "core.run",
    "core.unfold",
    "logic.query",
    "logic.sat",
    "automata",
    "analysis",
    "mediator",
    "serve.fingerprint",
    "serve.cache",
    "serve.store",
    "serve.scheduler",
    "serve.pool",
    "delta",
)

#: Name of the root span the benchmark opens around each request.
REQUEST = "request"

_NAME, _START, _END, _PARENT, _REQ = range(5)


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self, worker_dir: str) -> None:
        self.pid = os.getpid()
        self.worker_dir = worker_dir
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._request = -1
        self.pool_jobs = 0
        self.handles = 0
        self.handle_hits = 0
        self.disjuncts = 0

    # -- recording ---------------------------------------------------------------

    @property
    def active(self) -> bool:
        return bool(self._stack) and os.getpid() == self.pid

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._request])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._stack.pop()

    def begin_request(self, request_id: int) -> int:
        self._request = request_id
        return self.open(REQUEST)

    def _wrap(self, name: str, fn: Callable, on_return: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------------

    def _count_disjuncts(self, result: Any) -> None:
        self.disjuncts += len(result.disjuncts)

    def _count_handle(self, handle: Any) -> None:
        self.handles += 1
        if handle.from_cache or handle.deduped:
            self.handle_hits += 1

    def _count_pool_job(self, _future: Any) -> None:
        self.pool_jobs += 1

    def install(self) -> None:
        """Wrap every entry point; call before the pool is spawned."""
        counters = {
            "repro.core.unfold:expand": self._count_disjuncts,
            "repro.serve.scheduler:SolverService.submit": self._count_handle,
            "repro.serve.pool:WorkerPool.submit": self._count_pool_job,
        }
        for layer, entries in ENTRY_POINTS.items():
            for entry in entries:
                module_name, attr = entry.split(":")
                name = f"{layer}/{attr.split('.')[-1]}"
                on_return = counters.get(entry)
                owner = importlib.import_module(module_name)
                if "." in attr:
                    class_name, method = attr.split(".")
                    cls = getattr(owner, class_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, self._wrap(name, original, on_return))
                else:
                    original = getattr(owner, attr)
                    _rebind(original, self._wrap(name, original, on_return))
        from repro.serve import pool

        pool._run_job = _timed_worker_job(pool._run_job, self)

    # -- results -----------------------------------------------------------------

    def worker_exec_s(self) -> float:
        """Worker execution time the forked pool workers wrote out."""
        total = 0.0
        for entry in os.listdir(self.worker_dir):
            if entry.startswith("worker-"):
                with open(os.path.join(self.worker_dir, entry)) as handle:
                    total += sum(float(line) for line in handle if line.strip())
        return total

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: total duration, self time and layer-entry calls."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        out: dict[str, dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            name = span[_NAME]
            row = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0, "calls": 0})
            duration = span[_END] - span[_START]
            row["total_s"] += duration
            row["self_s"] += duration - child_time[index]
            parent = span[_PARENT]
            layer = name.split("/")[0]
            if parent < 0 or self.spans[parent][_NAME].split("/")[0] != layer:
                row["calls"] += 1
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span[_NAME],
                            "start": span[_START],
                            "end": span[_END],
                            "parent": span[_PARENT],
                            "request": span[_REQ],
                        }
                    )
                    + "\n"
                )


def _rebind(original: Callable, wrapper: Callable) -> None:
    """Replace ``original`` by ``wrapper`` wherever ``repro`` holds it.

    Covers module attributes and module-level dict values, such as the
    serve registry's name → procedure table.
    """
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
            elif isinstance(value, dict):
                for item_key, item in list(value.items()):
                    if item is original:
                        value[item_key] = wrapper


def _timed_worker_job(run_job: Callable, tracer: Tracer) -> Callable:
    """The pool's job body, timing its execution inside the worker.

    Pickled by reference (``functools.wraps`` keeps the module and
    qualified name), so forked workers resolve this wrapper.  The
    parent never calls it.
    """

    @functools.wraps(run_job)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        try:
            return run_job(*args, **kwargs)
        finally:
            path = os.path.join(tracer.worker_dir, f"worker-{os.getpid()}")
            with open(path, "a") as handle:
                handle.write(f"{time.perf_counter() - start}\n")

    return wrapper
