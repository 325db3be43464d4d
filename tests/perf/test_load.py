"""The load driver's wire targets release their front end when a run fails.

A failure injected while a front end is up must propagate, stop every
``forms-*`` thread the run started, and leave its port refusing
connections — for both front ends, under both the driver and the demo.
"""

import socket
import threading

import pytest

from repro.perf import demo, load


def forms_threads():
    return {thread for thread in threading.enumerate()
            if thread.name.startswith("forms-")}


RUNS = {
    "drive-wire": lambda: load.drive(400.0, 4, target="wire", workers=1),
    "drive-crowd": lambda: load.drive(400.0, 4, target="crowd", workers=1),
    "demo-threaded": lambda: demo.run_http_demo(4, 400.0, workers=1,
                                                print_fn=None),
    "demo-async": lambda: demo.run_http_demo(4, 400.0, workers=1,
                                             use_async=True, print_fn=None),
}


@pytest.mark.parametrize("run", list(RUNS))
def test_failed_run_closes_front_end(monkeypatch, run):
    bound = []

    def fail_wire(client, plan, offsets):
        bound.append((client.host, client.port))
        raise ConnectionError("injected")

    async def fail_crowd(host, port, bodies, offsets, outcomes):
        bound.append((host, port))
        raise ConnectionError("injected")

    monkeypatch.setattr(load, "replay_wire", fail_wire)
    monkeypatch.setattr(demo, "replay_wire", fail_wire)
    monkeypatch.setattr(load, "_run_connections", fail_crowd)
    before = forms_threads()
    with pytest.raises(ConnectionError, match="injected"):
        RUNS[run]()
    leaked = sorted(thread.name for thread in forms_threads() - before
                    if thread.is_alive())
    assert leaked == []
    (host, port), = bound
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection((host, port), timeout=2.0).close()
