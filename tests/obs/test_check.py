"""The baseline checker: bound evaluation, optional inputs, CLI exit codes."""

import json

import pytest

from repro.metrics import Registry
from repro.obs.check import evaluate, run_check
from repro.obs.report import aggregate


def _snapshot(latency_values=(0.01, 0.02), hits=3, misses=1):
    r = Registry()
    r.counter("serve.cache.hits", tier="memory").inc(hits)
    r.counter("serve.cache.misses").inc(misses)
    r.counter("serve.jobs.executed").inc(len(latency_values))
    r.gauge("serve.queue.depth").set(0)
    for value in latency_values:
        r.histogram("serve.job.latency_s", procedure="pl").observe(value)
    return r.snapshot()


def _span(name, elapsed, status="ok"):
    return {
        "event": "span",
        "span_id": 1,
        "parent_id": None,
        "name": name,
        "elapsed_s": elapsed,
        "status": status,
    }


class TestEvaluate:
    def test_passing_metrics_checks(self):
        baseline = {
            "checks": [
                {
                    "name": "p99",
                    "source": "metrics",
                    "select": "serve.job.latency_s{procedure=pl}",
                    "stat": "p99",
                    "max": 1.0,
                },
                {
                    "name": "samples",
                    "source": "metrics",
                    "select": "serve.job.latency_s{procedure=pl}",
                    "stat": "count",
                    "min": 2,
                },
                {
                    "name": "hit-rate",
                    "source": "metrics",
                    "stat": "cache_hit_rate",
                    "min": 0.5,
                },
                {
                    "name": "executed",
                    "source": "metrics",
                    "select": "serve.jobs.executed",
                    "stat": "value",
                    "min": 1,
                },
                {
                    "name": "queue-drained",
                    "source": "metrics",
                    "select": "serve.queue.depth",
                    "stat": "value",
                    "max": 0,
                },
            ]
        }
        results = evaluate(baseline, snap=_snapshot())
        assert all(r.ok for r in results), [r.line() for r in results]

    def test_degraded_snapshot_fails(self):
        baseline = {
            "checks": [
                {
                    "name": "p99",
                    "source": "metrics",
                    "select": "serve.job.latency_s{procedure=pl}",
                    "stat": "p99",
                    "max": 1.0,
                },
                {
                    "name": "hit-rate",
                    "source": "metrics",
                    "stat": "cache_hit_rate",
                    "min": 0.5,
                },
            ]
        }
        degraded = _snapshot(latency_values=(8.0, 9.0), hits=0, misses=10)
        results = {r.name: r.ok for r in evaluate(baseline, snap=degraded)}
        assert results == {"p99": False, "hit-rate": False}

    def test_counter_rollup_across_labels(self):
        baseline = {
            "checks": [
                {
                    "name": "total-hits",
                    "source": "metrics",
                    "select": "serve.cache.hits",
                    "stat": "value",
                    "min": 3,
                }
            ]
        }
        # hits live under serve.cache.hits{tier=memory}; the bare name
        # still resolves via the label rollup.
        assert evaluate(baseline, snap=_snapshot())[0].ok

    def test_trace_checks(self):
        aggs = aggregate(
            [_span("proc", 0.1), _span("proc", 0.3, status="error")]
        )
        baseline = {
            "checks": [
                {
                    "name": "errors",
                    "source": "trace",
                    "select": "proc",
                    "stat": "errors",
                    "max": 0,
                },
                {
                    "name": "mean",
                    "source": "trace",
                    "select": "proc",
                    "stat": "mean_s",
                    "max": 1.0,
                },
            ]
        }
        results = {r.name: r.ok for r in evaluate(baseline, trace_aggregates=aggs)}
        assert results == {"errors": False, "mean": True}

    def test_missing_input_fails_unless_optional(self):
        baseline = {
            "checks": [
                {"name": "required", "source": "metrics", "stat": "cache_hit_rate"},
                {
                    "name": "skippable",
                    "source": "metrics",
                    "stat": "cache_hit_rate",
                    "optional": True,
                },
            ]
        }
        results = {r.name: r.ok for r in evaluate(baseline)}
        assert results == {"required": False, "skippable": True}

    def test_missing_stat_fails_unless_optional(self):
        baseline = {
            "checks": [
                {
                    "name": "absent",
                    "source": "metrics",
                    "select": "no.such.histogram",
                    "stat": "p99",
                    "max": 1.0,
                }
            ]
        }
        assert not evaluate(baseline, snap=_snapshot())[0].ok
        baseline["checks"][0]["optional"] = True
        assert evaluate(baseline, snap=_snapshot())[0].ok

    def test_unknown_source_fails(self):
        baseline = {"checks": [{"name": "x", "source": "nope"}]}
        assert not evaluate(baseline)[0].ok


class TestRunCheck:
    def _write_baseline(self, tmp_path, checks):
        path = tmp_path / "baselines.json"
        path.write_text(json.dumps({"checks": checks}))
        return str(path)

    def _write_snapshot(self, tmp_path, snap):
        path = tmp_path / "metrics.jsonl"
        path.write_text(json.dumps(snap) + "\n")
        return str(path)

    def test_pass_is_exit_zero(self, tmp_path):
        baseline = self._write_baseline(
            tmp_path,
            [
                {
                    "name": "hit-rate",
                    "source": "metrics",
                    "stat": "cache_hit_rate",
                    "min": 0.5,
                }
            ],
        )
        metrics_path = self._write_snapshot(tmp_path, _snapshot())
        code, text = run_check(baseline, metrics_path=metrics_path)
        assert code == 0
        assert "1/1 checks passed" in text

    def test_violation_is_exit_one(self, tmp_path):
        baseline = self._write_baseline(
            tmp_path,
            [
                {
                    "name": "hit-rate",
                    "source": "metrics",
                    "stat": "cache_hit_rate",
                    "min": 0.99,
                }
            ],
        )
        metrics_path = self._write_snapshot(tmp_path, _snapshot())
        code, text = run_check(baseline, metrics_path=metrics_path)
        assert code == 1
        assert "FAIL" in text and "FAILED" in text

    def test_empty_metrics_file_is_an_error(self, tmp_path):
        baseline = self._write_baseline(tmp_path, [])
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, text = run_check(baseline, metrics_path=str(empty))
        assert code == 1
        assert "no metrics snapshot" in text

    def test_cli_subcommand(self, tmp_path, capsys):
        from repro.obs.report import main

        baseline = self._write_baseline(
            tmp_path,
            [
                {
                    "name": "hit-rate",
                    "source": "metrics",
                    "stat": "cache_hit_rate",
                    "min": 0.5,
                }
            ],
        )
        metrics_path = self._write_snapshot(tmp_path, _snapshot())
        code = main(["check", "--baseline", baseline, "--metrics", metrics_path])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_committed_baseline_passes_on_committed_traces(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[2]
        # Every committed trace artifact, as CI passes them.
        traces = sorted(str(p) for p in root.glob("BENCH_*.trace.jsonl"))
        assert len(traces) >= 4
        code, text = run_check(
            str(root / "benchmarks" / "baselines.json"), trace_paths=traces
        )
        assert code == 0, text

class TestUpdateBaseline:
    def _write(self, tmp_path, checks, meta=None):
        path = tmp_path / "baselines.json"
        data = {"checks": checks}
        if meta:
            data["_meta"] = meta
        path.write_text(json.dumps(data))
        return str(path)

    def _metrics_file(self, tmp_path, snap):
        path = tmp_path / "metrics.jsonl"
        path.write_text(json.dumps(snap) + "\n")
        return str(path)

    def test_rewrites_bounds_around_observed(self, tmp_path):
        from repro.obs.check import update_baseline

        baseline = self._write(
            tmp_path,
            [
                {
                    "name": "p99",
                    "source": "metrics",
                    "select": "serve.job.latency_s{procedure=pl}",
                    "stat": "p99",
                    "max": 123.0,
                },
                {
                    "name": "samples",
                    "source": "metrics",
                    "select": "serve.job.latency_s{procedure=pl}",
                    "stat": "count",
                    "min": 99,
                },
            ],
        )
        metrics_path = self._metrics_file(tmp_path, _snapshot())
        code, text = update_baseline(baseline, metrics_path=metrics_path)
        assert code == 0
        assert "2/2 checks re-baselined" in text
        data = json.loads(open(baseline).read())
        p99, samples = data["checks"]
        # Observed p99 = 0.02 -> max 0.2 at the default 10x headroom;
        # observed count = 2 -> min 0.2.
        assert p99["max"] == pytest.approx(0.2)
        assert samples["min"] == pytest.approx(0.2)
        assert "check --update" in data["_meta"]["updated_by"]
        # The regenerated file must pass its own check.
        from repro.obs.check import run_check

        assert run_check(baseline, metrics_path=metrics_path)[0] == 0

    def test_per_check_headroom_override(self, tmp_path):
        from repro.obs.check import update_baseline

        baseline = self._write(
            tmp_path,
            [
                {
                    "name": "tight",
                    "source": "metrics",
                    "select": "serve.job.latency_s{procedure=pl}",
                    "stat": "p99",
                    "max": 1.0,
                    "headroom": 2.0,
                }
            ],
        )
        metrics_path = self._metrics_file(tmp_path, _snapshot())
        code, _ = update_baseline(baseline, metrics_path=metrics_path)
        assert code == 0
        data = json.loads(open(baseline).read())
        assert data["checks"][0]["max"] == pytest.approx(0.04)
        # The override key itself survives the rewrite.
        assert data["checks"][0]["headroom"] == 2.0

    def test_missing_input_skips_and_exits_nonzero(self, tmp_path):
        from repro.obs.check import update_baseline

        baseline = self._write(
            tmp_path,
            [
                {
                    "name": "trace-only",
                    "source": "trace",
                    "select": "proc",
                    "stat": "mean_s",
                    "max": 1.0,
                }
            ],
        )
        before = open(baseline).read()
        code, text = update_baseline(baseline)
        assert code == 1
        assert "SKIP" in text and "nothing written" in text
        assert open(baseline).read() == before

    def test_rejects_sub_unit_headroom(self, tmp_path):
        from repro.obs.check import update_baseline

        baseline = self._write(tmp_path, [])
        with pytest.raises(ValueError):
            update_baseline(baseline, headroom=0.5)

    def test_cli_update_flag(self, tmp_path, capsys):
        from repro.obs.report import main

        baseline = self._write(
            tmp_path,
            [
                {
                    "name": "hit-rate",
                    "source": "metrics",
                    "stat": "cache_hit_rate",
                    "min": 0.01,
                }
            ],
        )
        metrics_path = self._metrics_file(tmp_path, _snapshot())
        code = main(
            ["check", "--update", "--baseline", baseline, "--metrics", metrics_path]
        )
        assert code == 0
        assert "re-baselined" in capsys.readouterr().out
        # hit rate observed 0.75 -> min 0.075 at default headroom
        data = json.loads(open(baseline).read())
        assert data["checks"][0]["min"] == pytest.approx(0.075)
