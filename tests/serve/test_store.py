"""Store semantics: schema, pragmas, artifacts, and multi-process safety."""

from __future__ import annotations

import multiprocessing
import sqlite3

import pytest

from repro.analysis.verdict import Answer
from repro.serve import JobSpec, SolverService
from repro.serve.store import (
    STORE_SCHEMA_VERSION,
    Store,
    StoreArtifactProvider,
    StoreError,
)
from repro.workloads.scaling import pl_counter_sws


def test_answer_roundtrip(tmp_path):
    store = Store(str(tmp_path / "s.sqlite3"))
    assert store.put_answer(
        "k", Answer.yes(witness=("a", "b"), detail="d"), procedure="p"
    )
    hit = store.get_answer("k")
    assert hit is not None and hit.is_yes and hit.witness == ("a", "b")
    assert store.has_answer("k") and not store.has_answer("absent")
    assert store.answer_count() == 1
    assert list(store.answer_keys()) == ["k"]
    assert store.get_answer("absent") is None
    store.close()


def test_reopen_sees_prior_writes(tmp_path):
    path = str(tmp_path / "s.sqlite3")
    with Store(path) as store:
        store.put_answer("k", Answer.no(detail="first"))
        store.put_answer("k", Answer.no(detail="second"))  # replace
    with Store(path) as store:
        assert store.answer_count() == 1
        assert store.get_answer("k").detail == "second"


def test_wal_mode_and_tuned_pragmas(tmp_path):
    with Store(str(tmp_path / "s.sqlite3")) as store:
        stats = store.stats()
    assert stats["schema_version"] == STORE_SCHEMA_VERSION
    assert stats["journal_mode"] == "wal"
    assert stats["page_size"] == 4096
    assert stats["busy_timeout_ms"] == 10_000
    assert stats["file_bytes"] > 0


def test_newer_schema_version_is_refused(tmp_path):
    path = str(tmp_path / "s.sqlite3")
    Store(path).close()
    with sqlite3.connect(path) as conn:
        conn.execute("UPDATE schema_version SET version = ?", (STORE_SCHEMA_VERSION + 1,))
    with pytest.raises(StoreError):
        Store(path)


def test_corrupt_payload_is_dropped_not_fatal(tmp_path):
    path = str(tmp_path / "s.sqlite3")
    store = Store(path)
    store.put_answer("good", Answer.yes())
    with sqlite3.connect(path) as conn:
        conn.execute(
            "UPDATE answers SET payload = ? WHERE fingerprint = 'good'",
            (b"not a pickle",),
        )
    assert store.get_answer("good") is None  # dropped, not raised
    assert not store.has_answer("good")  # the corrupt row was deleted
    store.close()


def test_artifact_roundtrip_and_counts(tmp_path):
    store = Store(str(tmp_path / "s.sqlite3"))
    assert store.put_artifact("kind.a", "k1", {"v": 1}, meta={"n": 1})
    assert store.put_artifact("kind.a", "k2", {"v": 2})
    assert store.put_artifact("kind.b", "k1", [1, 2, 3])
    assert store.get_artifact("kind.a", "k1") == {"v": 1}
    assert store.get_artifact("kind.b", "k1") == [1, 2, 3]
    assert store.get_artifact("kind.a", "absent") is None
    assert store.artifact_counts() == {"kind.a": 2, "kind.b": 1}
    # Same fingerprint under different kinds are distinct records.
    assert not store.put_artifact("kind.a", "k3", lambda: None)  # unpicklable
    store.close()


def test_meta_roundtrip_and_vacuum(tmp_path):
    store = Store(str(tmp_path / "s.sqlite3"))
    assert store.get_meta("marker") is None
    store.set_meta("marker", "v1")
    store.set_meta("marker", "v2")
    assert store.get_meta("marker") == "v2"
    store.vacuum()  # must not raise
    store.close()
    with pytest.raises(StoreError):
        store.put_answer("k", Answer.yes())


def test_artifact_provider_string_and_structural_keys(tmp_path):
    store = Store(str(tmp_path / "s.sqlite3"))
    provider = StoreArtifactProvider(store)
    # String keys are used verbatim (job-scoped slot keys).
    assert provider.store_artifact("kind", "job/slot/0", "value")
    assert provider.load_artifact("kind", "job/slot/0") == "value"
    # Structural keys are fingerprinted; equal structures alias.
    key_a = ("ucq", ("x", "y"), 3)
    key_b = ("ucq", ("x", "y"), 3)
    assert provider.store_artifact("kind", key_a, {"expanded": True})
    assert provider.load_artifact("kind", key_b) == {"expanded": True}
    # Unfingerprintable keys degrade to a miss, never an exception.
    assert provider.load_artifact("kind", object()) is None
    assert not provider.store_artifact("kind", object(), "value")
    store.close()


# -- multi-process safety ----------------------------------------------------------

_WRITES_PER_WORKER = 25


def _writer_process(path: str, worker_id: int) -> None:
    store = Store(path)
    for i in range(_WRITES_PER_WORKER):
        key = f"w{worker_id}-{i}"
        assert store.put_answer(
            key, Answer.yes(detail=key), procedure="concurrency-test"
        )
        assert store.put_artifact("test.kind", key, {"worker": worker_id, "i": i})
        # Every worker also hammers one shared key — contention must
        # serialize, never corrupt.
        assert store.put_answer("shared", Answer.yes(detail=f"worker-{worker_id}"))
    store.close()


def test_concurrent_writer_processes_lose_nothing(tmp_path):
    """The acceptance criterion: >=4 writer processes, zero lost records."""
    workers = 5
    path = str(tmp_path / "shared.sqlite3")
    Store(path).close()  # schema exists before the stampede
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context()
    processes = [
        ctx.Process(target=_writer_process, args=(path, w)) for w in range(workers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(timeout=120)
    assert all(process.exitcode == 0 for process in processes)

    store = Store(path)
    assert store.answer_count() == workers * _WRITES_PER_WORKER + 1
    for w in range(workers):
        for i in range(_WRITES_PER_WORKER):
            key = f"w{w}-{i}"
            answer = store.get_answer(key)
            assert answer is not None and answer.detail == key
            assert store.get_artifact("test.kind", key) == {"worker": w, "i": i}
    shared = store.get_answer("shared")
    assert shared is not None and shared.detail.startswith("worker-")
    store.close()


# -- warm start through the artifact hook ------------------------------------------


def test_artifacts_warm_start_cold_process(tmp_path):
    """A fresh process (simulated: cleared module caches) reuses stored
    AFA searcher artifacts instead of regenerating them."""
    import repro.automata.afa as afa_mod
    from repro._stats import STATS

    directory = str(tmp_path / "cache")
    sws = pl_counter_sws(6)
    # Searcher artifacts persist when compiled inside a job scope; start
    # from a genuinely cold compile cache so this process stores them.
    afa_mod._SEARCHER_CACHE.clear()
    afa_mod._DIFF_SEARCHER_CACHE.clear()
    with SolverService(cache_dir=directory) as service:
        first = service.run_batch([JobSpec("nonempty_pl", (sws,))])[0]
        counts = service.cache.store.artifact_counts()
        store_path = service.cache.store.path
    assert counts.get("afa.searchers", 0) >= 1
    assert counts.get("afa.quotient", 0) >= 1

    # Wipe the answers (to force re-execution) but keep the artifacts,
    # and clear the in-process compile caches — the cold-process state.
    with sqlite3.connect(store_path) as conn:
        conn.execute("DELETE FROM answers")
    afa_mod._SEARCHER_CACHE.clear()
    afa_mod._DIFF_SEARCHER_CACHE.clear()

    hits_before = STATS.artifact_hits
    with SolverService(cache_dir=directory) as service:
        second = service.run_batch([JobSpec("nonempty_pl", (sws,))])[0]
    assert second.verdict == first.verdict
    assert STATS.artifact_hits > hits_before


# -- dead-letter table -------------------------------------------------------------


def _dlq_record(fingerprint="fp-1", **overrides):
    from repro.serve import DLQRecord

    defaults = dict(
        fingerprint=fingerprint,
        procedure="nonempty_pl",
        label="job",
        reason="retries exhausted",
        attempts=3,
        trips=[{"limit": "steps", "site": "afa.search_witness"}],
        last_budget={"step_budget": 64},
        payload=DLQRecord.encode_job((1, "x"), {"k": 2}),
    )
    defaults.update(overrides)
    return DLQRecord(**defaults)


def test_dlq_roundtrip(tmp_path):
    with Store(str(tmp_path / "s.sqlite3")) as store:
        store.put_dlq(_dlq_record("fp-a"))
        store.put_dlq(_dlq_record("fp-b", payload=None, last_budget=None))
        assert store.dlq_count() == 2
        assert store.stats()["dlq"] == 2
        loaded = store.get_dlq("fp-a")
        assert loaded.procedure == "nonempty_pl"
        assert loaded.attempts == 3
        assert loaded.trips == [{"limit": "steps", "site": "afa.search_witness"}]
        assert loaded.last_budget == {"step_budget": 64}
        assert loaded.job() == ((1, "x"), {"k": 2})
        bare = store.get_dlq("fp-b")
        assert bare.payload is None and bare.last_budget is None
        assert store.get_dlq("absent") is None
        # Upsert: one record per fingerprint, updated in place.
        store.put_dlq(_dlq_record("fp-a", attempts=5))
        assert store.dlq_count() == 2
        assert store.get_dlq("fp-a").attempts == 5
        assert store.delete_dlq("fp-a") and not store.delete_dlq("fp-a")
        assert store.purge_dlq() == 1
        assert store.list_dlq() == []


def test_dlq_survives_reopen(tmp_path):
    path = str(tmp_path / "s.sqlite3")
    with Store(path) as store:
        store.put_dlq(_dlq_record("fp-a"))
    with Store(path) as store:
        assert [r.fingerprint for r in store.list_dlq()] == ["fp-a"]


# -- search-state snapshots (schema v3) --------------------------------------------


def test_search_state_roundtrip(tmp_path):
    with Store(str(tmp_path / "s.sqlite3")) as store:
        payload = {"frontier": (1, 2, 3), "answer": Answer.yes(witness=("a",))}
        assert store.put_search_state(
            "nonempty_pl", "fp-1", payload, meta={"pops": 3}
        )
        hit = store.get_search_state("nonempty_pl", "fp-1")
        assert hit == payload
        # Keyed by (procedure, fingerprint) — same fingerprint, other
        # procedure is a distinct row.
        assert store.get_search_state("validate_pl", "fp-1") is None
        assert store.search_state_count() == 1
        assert store.stats()["search_states"] == 1
        assert store.delete_search_state("nonempty_pl", "fp-1")
        assert not store.delete_search_state("nonempty_pl", "fp-1")
        assert store.search_state_count() == 0


def test_search_state_upsert_and_unpicklable(tmp_path):
    with Store(str(tmp_path / "s.sqlite3")) as store:
        store.put_search_state("p", "fp", {"version": 1})
        store.put_search_state("p", "fp", {"version": 2})
        assert store.get_search_state("p", "fp") == {"version": 2}
        assert store.search_state_count() == 1
        # Unpicklable snapshots stay memory-only; the store reports it.
        assert not store.put_search_state("p", "fp2", lambda: None)
        assert store.search_state_count() == 1


def test_search_state_corrupt_payload_is_dropped(tmp_path):
    path = str(tmp_path / "s.sqlite3")
    with Store(path) as store:
        store.put_search_state("p", "fp", {"ok": True})
    with sqlite3.connect(path) as conn:
        conn.execute(
            "UPDATE search_states SET payload = ?", (b"not a pickle",)
        )
    with Store(path) as store:
        assert store.get_search_state("p", "fp") is None
        assert store.search_state_count() == 0  # the bad row was deleted


@pytest.mark.parametrize("old_version", [1, STORE_SCHEMA_VERSION - 1])
def test_older_store_is_rebuilt_keeping_the_dlq(tmp_path, old_version):
    """An older store's cache tables are emptied; its DLQ rows survive.

    Rows written under an older fingerprint scheme would never be hit
    again, so the cache tables are dropped and recreated rather than
    upgraded; dead-letter records are operator data and stay as they are.
    """
    path = str(tmp_path / "s.sqlite3")
    with Store(path) as store:
        store.put_answer("old-key", Answer.yes(detail="old scheme"))
        store.put_artifact("afa.searchers", "old-key", {"src": "x"})
        store.put_search_state("nonempty_pl", "old-key", {"old": True})
        store.put_dlq(_dlq_record("fp-old"))
        kept = store.get_dlq("fp-old")
    with sqlite3.connect(path) as conn:
        conn.execute("UPDATE schema_version SET version = ?", (old_version,))
    with Store(path) as store:
        stats = store.stats()
        assert stats["schema_version"] == STORE_SCHEMA_VERSION == 4
        assert store.answer_count() == 0
        assert store.artifact_counts() == {}
        assert store.search_state_count() == 0
        assert store.list_dlq() == [kept]
        # The rebuilt tables take writes as usual.
        assert store.put_answer("new-key", Answer.no())
        assert store.put_search_state("p", "fp", {"fresh": True})
    with Store(path) as store:  # a current store is left as it is
        assert store.answer_count() == 1 and store.dlq_count() == 1


# -- decorrelated retry backoff ----------------------------------------------------


def test_retry_backoff_bounds():
    import random

    from repro.serve.store import (
        _RETRY_BASE_SLEEP_S,
        _RETRY_CAP_SLEEP_S,
        retry_backoff_s,
    )

    rng = random.Random(42)
    previous = None
    for _ in range(200):
        wait = retry_backoff_s(previous, rng)
        assert _RETRY_BASE_SLEEP_S <= wait <= _RETRY_CAP_SLEEP_S
        window = max(_RETRY_BASE_SLEEP_S, 3.0 * (previous or _RETRY_BASE_SLEEP_S))
        assert wait <= window + 1e-9
        previous = wait


def test_retry_backoff_is_not_lockstep():
    """The old ``base * 2**attempt`` schedule retried every writer in
    phase; decorrelated jitter must give distinct schedules to writers
    with distinct rngs."""
    import random

    from repro.serve.store import retry_backoff_s

    def schedule(seed):
        rng, previous, waits = random.Random(seed), None, []
        for _ in range(5):
            previous = retry_backoff_s(previous, rng)
            waits.append(previous)
        return waits

    assert schedule(1) != schedule(2)
    assert len(set(schedule(3))) > 1  # and is not constant within a writer


def test_injected_store_fault_recovers_via_retry(tmp_path):
    """A chaos-injected first-attempt lock error never loses the write."""
    from repro import metrics
    from repro.guard import inject

    metrics.configure(enabled=True)
    with Store(str(tmp_path / "s.sqlite3")) as store:
        with inject.chaos(inject.ChaosSpec(store_error_rate=1.0)):
            assert store.put_answer("k", Answer.yes(detail="landed"))
            assert store.get_answer("k").detail == "landed"
    counters = metrics.snapshot()["counters"]
    assert metrics.counter_total(counters, "serve.store.retries") >= 2


def test_five_concurrent_writers_under_injected_faults(tmp_path):
    """Five writer threads on one store file, every first attempt failing
    with a transient lock error: all writes land, none raise (the S2
    backoff-regression scenario)."""
    import threading

    from repro.guard import inject

    path = str(tmp_path / "s.sqlite3")
    writers, writes_each = 5, 10
    errors: list[Exception] = []

    def writer(w: int) -> None:
        try:
            with Store(path) as store:
                for i in range(writes_each):
                    store.put_answer(f"w{w}-{i}", Answer.no(detail=f"w{w}-{i}"))
        except Exception as error:  # noqa: BLE001 - the assertion below reports it
            errors.append(error)

    with inject.chaos(inject.ChaosSpec(store_error_rate=0.5, seed=5)):
        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    assert not errors, f"writer raised: {errors[0]!r}"
    with Store(path) as store:
        assert store.answer_count() == writers * writes_each
        for w in range(writers):
            for i in range(writes_each):
                assert store.get_answer(f"w{w}-{i}").detail == f"w{w}-{i}"
