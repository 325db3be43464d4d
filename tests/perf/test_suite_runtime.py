"""Contract tests of the sparse/runtime perf-suite additions."""

from repro.perf.suite import (bench_insitu_network, bench_mvm_sparse,
                              default_suite)


class TestSparseBench:
    def test_record_contract_and_workload_shape(self):
        record = bench_mvm_sparse(repeats=1)
        assert record["name"] == "mvm_forms_16bit_128pos_sparse"
        assert record["kind"] == "paired"
        # The acceptance workload: at least half the (bit-plane, fragment)
        # jobs of the post-ReLU block are all-zero.
        assert record["meta"]["zero_plane_fraction"] >= 0.5
        assert record["meta"]["pair_skip_fraction"] > \
            record["meta"]["zero_plane_fraction"]
        # The scheduler must beat the dense kernel decisively (the
        # recorded acceptance floor is 2x; leave headroom for CI noise).
        assert record["speedup"] > 2.0
        stats = record["engine_stats_per_call"]
        assert stats["pairs_skipped"] > 0
        assert stats["pairs_scheduled"] > 0

    def test_in_smoke_plan(self):
        names = default_suite(smoke=True)
        assert "mvm_forms_16bit_128pos_sparse" in names
        assert "insitu_network_batch8_w1" in names
        assert "insitu_network_batch8_w4" in names
        # the IR-drop pair carries the smoke's analog bit-exactness checks
        assert "mvm_forms_16bit_128pos_irdrop" in names
        assert "mvm_forms_16bit_128pos_sparse_irdrop" in names
        full = default_suite(smoke=False)
        assert set(names) <= set(full)
        assert "mvm_forms_16bit_128pos_variation" in full
        assert "mvm_forms_16bit_128pos_variation" not in names


class TestNetworkBench:
    def test_record_contract(self):
        record = bench_insitu_network(2, repeats=1)
        assert record["name"] == "insitu_network_batch8_w2"
        assert record["meta"]["workers"] == 2
        assert record["meta"]["tile_size"] == 2
        assert record["meta"]["layers"] == 3
        assert record["speedup"] > 1.0
        assert record["engine_stats_per_call"]["conversions"] > 0

