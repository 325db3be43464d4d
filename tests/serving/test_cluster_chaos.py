"""Whole-replica chaos: SIGKILL subprocess replicas under live traffic.

The heavyweight end of the cluster suite (real ``python -m repro serve``
subprocesses behind a real router socket): a replica dies mid-request
and the caller never notices — every completed answer bit-identical to
the parent's serial forward, every failure a documented receipt, every
request resolved in bounded time, and the restarted replica rejoins.
Request counts are kept small; ``benchmarks/bench_load.py --scenario
cluster --smoke`` runs the same contract at load.
"""

import numpy as np

from repro.perf.load import (CLUSTER_UNAVAILABLE, FAST_MODEL, SHED,
                             build_demo_server, drive_kills)
from repro.serving.cluster import ClusterHarness


class TestSubprocessCluster:
    def test_boot_serve_kill_restart(self):
        """The harness lifecycle by hand: spawn, serve through the
        router, SIGKILL a replica, keep serving, restart, rejoin."""
        from repro.runtime import run_network_serial

        server, traffic = build_demo_server(2, workers=1, seed=0,
                                            deadline_ms=None)
        image = traffic["images"][0]
        serial = run_network_serial(server.registry.get(FAST_MODEL).network,
                                    image[None], tile_size=1)[0]
        server.shutdown()

        with ClusterHarness(2, seed=0, probe_interval_s=0.1) as harness:
            client = harness.client(timeout=60.0)
            before = client.infer(image, model=FAST_MODEL)
            np.testing.assert_array_equal(before.output, serial)

            victim = harness.directory.placement(FAST_MODEL)[0]
            harness.kill(victim)
            after = client.infer(image, model=FAST_MODEL)   # failover
            np.testing.assert_array_equal(after.output, serial)

            harness.restart(victim)
            assert harness.directory.probe_once()[victim] == "up"
            again = client.infer(image, model=FAST_MODEL)
            np.testing.assert_array_equal(again.output, serial)

    def test_drive_cluster_chaos_contract(self):
        """One driven point: the bit-identity / documented-receipts /
        zero-hung / rejoin contract is asserted inside the driver; here
        we check the artifacts it hands back."""
        driven = drive_kills(200.0, 8, replicas=2, seed=0)
        completed = sum(o["result"] is not None for o in driven["outcomes"])
        assert completed >= 1
        assert completed + sum(driven["codes"].values()) == 8
        assert set(driven["codes"]) <= {SHED, CLUSTER_UNAVAILABLE}
        actions = [entry["action"] for entry in driven["kill_log"]]
        assert actions == ["kill", "restart"]
        assert driven["cluster"]["router"]["attempts"] >= 8
        states = driven["cluster"]["directory"]["replicas"]
        assert all(info["state"] == "up" for info in states.values())
