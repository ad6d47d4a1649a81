"""The bench emitters' shared IO: derived _meta and artifact paths."""

import importlib.util
import json
import os

import pytest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _load_bench_io():
    path = os.path.join(_REPO_ROOT, "benchmarks", "_bench_io.py")
    spec = importlib.util.spec_from_file_location("_bench_io_under_test", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_io = _load_bench_io()


class TestMergeSection:
    def test_meta_is_derived_from_arguments(self, tmp_path):
        path = str(tmp_path / "BENCH_something.json")
        bench_io.merge_section(
            path, "alpha", {"rows": [1, 2]}, regenerate="python run_alpha.py"
        )
        with open(path) as handle:
            data = json.load(handle)
        meta = data["_meta"]
        assert meta["file"] == "BENCH_something.json"
        assert meta["schema_version"] == bench_io.BENCH_SCHEMA_VERSION
        assert meta["regenerate"] == {"alpha": "python run_alpha.py"}
        assert data["alpha"] == {"rows": [1, 2]}

    def test_sections_merge_independently(self, tmp_path):
        path = str(tmp_path / "bench.json")
        bench_io.merge_section(path, "alpha", {"n": 1}, regenerate="cmd-a")
        bench_io.merge_section(path, "beta", {"n": 2}, regenerate="cmd-b")
        bench_io.merge_section(path, "alpha", {"n": 3}, regenerate="cmd-a2")
        with open(path) as handle:
            data = json.load(handle)
        assert data["alpha"] == {"n": 3}
        assert data["beta"] == {"n": 2}
        assert data["_meta"]["regenerate"] == {"alpha": "cmd-a2", "beta": "cmd-b"}

    def test_legacy_v1_meta_is_upgraded(self, tmp_path):
        path = str(tmp_path / "bench.json")
        with open(path, "w") as handle:
            json.dump(
                {
                    "old_section": {"kept": True},
                    "_meta": {
                        "file": "WRONG_NAME.json",
                        "before": "interpreted AST evaluation",
                        "after": "compiled bitmask evaluation",
                        "regenerate": ["python old_cmd.py"],
                    },
                },
                handle,
            )
        bench_io.merge_section(path, "new_section", {"n": 1}, regenerate="cmd")
        with open(path) as handle:
            data = json.load(handle)
        meta = data["_meta"]
        assert meta["file"] == "bench.json"
        assert meta["schema_version"] == bench_io.BENCH_SCHEMA_VERSION
        assert meta["regenerate"] == {"new_section": "cmd"}
        assert "before" not in meta and "after" not in meta
        assert data["old_section"] == {"kept": True}

    def test_regenerate_optional(self, tmp_path):
        path = str(tmp_path / "bench.json")
        bench_io.merge_section(path, "s", {"n": 1})
        with open(path) as handle:
            assert json.load(handle)["_meta"]["regenerate"] == {}


class TestTraceArtifactPath:
    def test_emitter_name_maps_to_artifact(self):
        got = bench_io.trace_artifact_path(
            "/anywhere/benchmarks/bench_table1_pl_recursive.py"
        )
        assert os.path.basename(got) == "BENCH_table1_pl_recursive.trace.jsonl"
        assert os.path.dirname(got) == os.path.dirname(bench_io.BENCH_TABLE1_PL)


class TestPairWithBaseline:
    def _baseline(self, tmp_path, rows):
        path = tmp_path / "BENCH_before.json"
        path.write_text(json.dumps({"sec": {"rows": rows}}))
        return str(path)

    def test_rows_gain_the_baseline_metric_and_speedup(self, tmp_path):
        baseline = self._baseline(
            tmp_path, [{"case": "b", "seconds": 0.3}, {"case": "a", "seconds": 0.2}]
        )
        rows = [{"case": "a", "seconds": 0.1}, {"case": "b", "seconds": 0.3}]
        note = bench_io.pair_with_baseline(rows, baseline, "sec", "case", "seconds")
        assert note.startswith("seconds of the same emitter")
        assert rows == [
            {"case": "a", "seconds": 0.1, "seconds_before": 0.2, "speedup": 2.0},
            {"case": "b", "seconds": 0.3, "seconds_before": 0.3, "speedup": 1.0},
        ]

    def test_a_differing_result_stops_the_pairing(self, tmp_path):
        baseline = self._baseline(tmp_path, [{"case": "a", "seconds": 1, "result": True}])
        rows = [{"case": "a", "seconds": 1, "result": False}]
        with pytest.raises(SystemExit, match="differs from the baseline"):
            bench_io.pair_with_baseline(
                rows, baseline, "sec", "case", "seconds", same=("result",)
            )
