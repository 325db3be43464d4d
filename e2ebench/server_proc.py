"""Server process of the ``wire_mixed`` workload.

Serves the ideal-device demo network through ``HttpFrontend`` with a
two-class weighted-fair SLA policy, prints ``{"port": N}`` once it
listens, then obeys one command per line on standard input:

* ``trace on`` / ``trace off`` — install / remove the span wrappers in
  this process (acknowledged with ``{"ok": true}``);
* ``stop`` (or end of input) — drain, print one JSON report line (die
  cache counters, server stats and the recorded spans) and exit.
"""

from __future__ import annotations

import argparse
import json
import sys

import common
import tracer as tr


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args()
    common.pin_allocator()
    common.import_repro()
    from repro.serving import (SLA_MODE_WEIGHTED_FAIR, HttpFrontend,
                               PriorityClass, SlaPolicy)

    model, config = common.demo_model()
    policy = SlaPolicy((PriorityClass("interactive", max_batch=8,
                                      max_wait_s=0.001, weight=4.0),
                        PriorityClass("bulk", max_batch=8,
                                      max_wait_s=0.002, weight=1.0)),
                       mode=SLA_MODE_WEIGHTED_FAIR)
    server = common.build_server(model, config, args.workers, policy=policy)
    frontend = HttpFrontend(server, owns_server=True).start()
    tracer = tr.Tracer()
    try:
        _emit({"port": frontend.port})
        for line in sys.stdin:
            command = line.strip()
            if command == "stop":
                break
            if command == "trace on":
                tracer.install_engine()
                tracer.install_server()
                tracer.install_http()
            elif command == "trace off":
                tracer.uninstall()
            _emit({"ok": True})
    finally:
        tracer.uninstall()
        frontend.shutdown()
        spans = tracer.buffers()
    _emit({"die_cache_hits": server.die_cache.hits,
           "die_cache_misses": server.die_cache.misses,
           "mean_batch_size": server.server_stats()["mean_batch_size"],
           "spans": tr.dump(spans)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
