"""Serving benchmark records and their BENCH_engine.json merge semantics."""

import importlib.util
import json
import pathlib

import pytest

from repro.perf import (merge_records, merge_records_into_file,
                        record_name, run_point, write_payload)
from repro.perf.load import SCENARIOS, SERVING_RECORD_KIND


REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def serving_record(name, rate=50.0):
    return {"name": name, "kind": SERVING_RECORD_KIND,
            "results": {"offered_rate_rps": rate}, "meta": {}}


class TestMerge:
    def test_replaces_by_name_and_appends_new(self):
        payload = {"records": [{"name": "mvm", "kind": "paired"},
                               serving_record("serving_poisson_r50", 50.0)]}
        fresh = [serving_record("serving_poisson_r50", 50.0),
                 serving_record("serving_poisson_r200", 200.0)]
        fresh[0]["results"]["throughput_rps"] = 42.0
        merge_records(payload, fresh)
        names = [r["name"] for r in payload["records"]]
        assert names == ["mvm", "serving_poisson_r50", "serving_poisson_r200"]
        assert payload["records"][1]["results"]["throughput_rps"] == 42.0

    def test_write_payload_preserves_serving_records(self, tmp_path):
        """run_perf_suite rewriting BENCH_engine.json must not drop the
        serving curve recorded by bench_load.py."""
        path = tmp_path / "bench.json"
        existing = {"records": [serving_record("serving_poisson_r50"),
                                {"name": "old_engine", "kind": "paired"}]}
        path.write_text(json.dumps(existing))
        write_payload(path, {"schema": "forms-perf-suite/v1",
                             "records": [{"name": "mvm", "kind": "paired"}]})
        merged = json.loads(path.read_text())
        names = [r["name"] for r in merged["records"]]
        assert names == ["mvm", "serving_poisson_r50"]

    def test_write_payload_new_name_wins_over_preserved(self, tmp_path):
        path = tmp_path / "bench.json"
        stale = serving_record("serving_poisson_r50")
        stale["results"]["throughput_rps"] = 1.0
        path.write_text(json.dumps({"records": [stale]}))
        fresh = serving_record("serving_poisson_r50")
        fresh["results"]["throughput_rps"] = 9.0
        write_payload(path, {"records": [fresh]})
        merged = json.loads(path.read_text())
        assert len(merged["records"]) == 1
        assert merged["records"][0]["results"]["throughput_rps"] == 9.0

    @pytest.mark.parametrize("write", [
        lambda path: write_payload(path, {"records": []}),
        lambda path: merge_records_into_file(path, [serving_record("x")]),
    ], ids=["write_payload", "merge_records_into_file"])
    def test_write_payload_refuses_corrupt_existing_file(self, tmp_path,
                                                         write):
        """A corrupt BENCH file may hold the only serving trajectory —
        refuse to overwrite rather than silently drop it."""
        path = tmp_path / "bench.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="refusing"):
            write(path)
        assert path.read_text() == "{not json"

    def test_record_names(self):
        names = {scenario: (record_name(prefix, 50.0),
                            record_name(prefix, 12.5))
                 for scenario, (prefix, _) in SCENARIOS.items()}
        assert names == {
            "poisson": ("serving_poisson_r50", "serving_poisson_r12p5"),
            "multitenant": ("serving_multitenant_r50",
                            "serving_multitenant_r12p5"),
            "http": ("serving_http_r50", "serving_http_r12p5"),
            "async": ("serving_async_r50", "serving_async_r12p5"),
            "chaos": ("chaos_mixed_r50", "chaos_mixed_r12p5"),
            "cluster": ("cluster_chaos_r50", "cluster_chaos_r12p5"),
            "obs": ("serving_obs_overhead_r50",
                    "serving_obs_overhead_r12p5"),
        }
        assert record_name("serving_multitenant", 400.0) == \
            "serving_multitenant_r400"
        assert record_name("serving_http", 200.0) == "serving_http_r200"

    def test_http_merge_clobbers_no_other_kind(self, tmp_path):
        """The acceptance clause: serving_http_r* records land next to
        engine, poisson and multitenant entries without replacing any,
        and survive an engine-suite rewrite."""
        payload = {"records": [{"name": "mvm", "kind": "paired"},
                               serving_record("serving_poisson_r200"),
                               serving_record("serving_multitenant_r400")]}
        fresh = [serving_record("serving_http_r200", 200.0),
                 serving_record("serving_http_r400", 400.0)]
        merge_records(payload, fresh)
        names = [r["name"] for r in payload["records"]]
        assert names == ["mvm", "serving_poisson_r200",
                         "serving_multitenant_r400",
                         "serving_http_r200", "serving_http_r400"]
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload))
        write_payload(path, {"schema": "forms-perf-suite/v1",
                             "records": [{"name": "mvm", "kind": "paired"}]})
        merged = json.loads(path.read_text())
        assert [r["name"] for r in merged["records"]] == names

    def test_multitenant_merge_clobbers_nothing(self, tmp_path):
        """The satellite guarantee: merging multitenant records must
        leave engine records and the single-tenant serving curve
        untouched, and write_payload must preserve both serving kinds."""
        payload = {"records": [{"name": "mvm", "kind": "paired"},
                               serving_record("serving_poisson_r50"),
                               serving_record("serving_multitenant_r400")]}
        fresh = [serving_record("serving_multitenant_r400", 400.0),
                 serving_record("serving_multitenant_r800", 800.0)]
        fresh[0]["results"]["requests_shed"] = 5
        merge_records(payload, fresh)
        names = [r["name"] for r in payload["records"]]
        assert names == ["mvm", "serving_poisson_r50",
                         "serving_multitenant_r400",
                         "serving_multitenant_r800"]
        assert payload["records"][2]["results"]["requests_shed"] == 5
        # the engine suite rewriting the file keeps both serving curves
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload))
        write_payload(path, {"schema": "forms-perf-suite/v1",
                             "records": [{"name": "mvm", "kind": "paired"}]})
        merged = json.loads(path.read_text())
        assert [r["name"] for r in merged["records"]] == names


class TestPoissonPoint:
    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            run_point("poisson", 0.0, 4)
        with pytest.raises(ValueError):
            run_point("poisson", -50.0, 4)
        with pytest.raises(ValueError):
            run_point("poisson", 100.0, 0)

    def test_point_record_shape(self):
        record = run_point("poisson", 400.0, 6, max_batch=4, workers=2,
                           seed=1)
        assert record["kind"] == SERVING_RECORD_KIND
        assert record["name"] == "serving_poisson_r400"
        results = record["results"]
        assert results["offered_rate_rps"] == 400.0
        assert results["throughput_rps"] > 0.0
        assert results["latency_p95_s"] >= results["latency_p50_s"] > 0.0
        assert results["batches_formed"] >= 2  # 6 requests, max_batch 4
        assert record["meta"]["requests"] == 6
        assert record["meta"]["workers"] == 2
        assert record["meta"]["bit_identical_to_serial"] is True


class TestMultitenantPoint:
    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            run_point("multitenant", 0.0, 4)
        with pytest.raises(ValueError):
            run_point("multitenant", 100.0, 0)
        with pytest.raises(ValueError):
            run_point("multitenant", 100.0, 4, interactive_fraction=1.5)

    def test_point_record_shape(self):
        record = run_point("multitenant", 400.0, 10, workers=2, seed=1)
        assert record["kind"] == SERVING_RECORD_KIND
        assert record["name"] == "serving_multitenant_r400"
        results = record["results"]
        assert results["offered_rate_rps"] == 400.0
        assert (results["requests_completed"]
                + results["requests_shed"]) == 10
        assert set(results["per_class"]) <= {"interactive", "bulk"}
        assert set(results["per_model"]) <= {"fast", "batch"}
        for group in results["per_class"].values():
            assert group["latency_p95_s"] >= group["latency_p50_s"] >= 0.0
        meta = record["meta"]
        assert meta["bit_identical_to_serial"] is True
        assert meta["models"] == ["batch", "fast"]
        assert meta["die_cache"]["misses"] > 0


class TestHttpPoint:
    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            run_point("http", 0.0, 4)
        with pytest.raises(ValueError):
            run_point("http", 100.0, 0)

    @pytest.mark.parametrize("binary", [False, True], ids=["json", "b64"])
    def test_point_record_shape(self, binary):
        record = run_point("http", 400.0, 6, max_batch=4, workers=2,
                           seed=1, binary=binary)
        assert record["kind"] == SERVING_RECORD_KIND
        assert record["name"] == "serving_http_r400"
        results = record["results"]
        assert results["offered_rate_rps"] == 400.0
        assert results["throughput_rps"] > 0.0
        # client round trips bound the server-side window from above
        assert results["rtt_p95_s"] >= results["rtt_p50_s"] > 0.0
        assert results["rtt_p50_s"] >= results["latency_p50_s"] > 0.0
        meta = record["meta"]
        assert meta["transport"] == "http"
        assert meta["encoding"] == ("npy_b64" if binary else "json")
        assert meta["requests"] == 6
        assert meta["workers"] == 2
        assert meta["bit_identical_to_serial"] is True


def committed_shapes():
    """``{name prefix: {(kind, result keys, meta keys)}}`` of the records
    committed in ``BENCH_engine.json``."""
    payload = json.loads((REPO_ROOT / "BENCH_engine.json").read_text())
    shapes = {}
    for record in payload["records"]:
        shapes.setdefault(record["name"].rsplit("_r", 1)[0], set()).add(
            (record["kind"], frozenset(record.get("results", {})),
             frozenset(record.get("meta", {}))))
    return shapes


def load_bench_script():
    spec = importlib.util.spec_from_file_location(
        "bench_load", REPO_ROOT / "benchmarks" / "bench_load.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScenarioRecords:
    """Every ``bench_load.py --scenario`` writes records whose name, kind
    and result/meta key sets match the committed records of that kind."""

    @pytest.mark.parametrize("scenario, requests", [
        ("poisson", 4), ("multitenant", 6), ("http", 4), ("async", 8),
        ("chaos", 6), ("cluster", 6), ("obs", 4),
    ])
    def test_record_shape(self, tmp_path, scenario, requests):
        output = tmp_path / "bench.json"
        status = load_bench_script().main(
            ["--scenario", scenario, "--smoke", "--requests", str(requests),
             "-o", str(output)])
        assert status == 0
        records = json.loads(output.read_text())["records"]
        prefix, kind = SCENARIOS[scenario]
        assert records and all(record["name"].startswith(prefix + "_r")
                               for record in records)
        committed = committed_shapes()[prefix]
        for record in records:
            assert record["name"] == record_name(
                prefix, record["results"]["offered_rate_rps"])
            assert record["kind"] == kind
            assert (record["kind"], frozenset(record["results"]),
                    frozenset(record["meta"])) in committed
