#!/usr/bin/env sh
# The standard check set: fast tier-1 signal + the engine perf gate.
#
#   sh scripts/checks.sh            # what CI runs (see .github/workflows)
#
# 1. `pytest -m "not slow"` — the fast tier-1 signal (the full tier-1
#    command is `pytest -x -q` without the marker filter; the 35 slow
#    training-driver tests are nightly material).
# 2. `run_perf_suite.py --smoke` — records BENCH-schema results to a
#    throwaway path and exits non-zero if the headline micro-benchmark
#    (mvm_forms_16bit_128pos) falls below its 5x speedup floor, so a perf
#    regression fails the check set exactly like a correctness regression.
#    The smoke plan includes the two IR-drop records, which assert
#    fused == matvec_int_reference and sparse == dense on a 128-position
#    block before timing, so every push checks the analog tier's
#    bit-exactness too.  Runs twice: once on the default thread backend, once with
#    `--backend process` — the multi-worker benches then fan tiles out to
#    spawn-context worker processes over shared-memory planes, so the
#    whole process tier (spawn, ship, merge, unlink) gets an end-to-end
#    smoke on every push.  (The un-`slow` half of
#    tests/runtime/test_backend_equivalence.py already ran the
#    serial/thread/process differential matrix at workers 1 and 2 in
#    step 1.)
# Steps 3, 4, 6, 7, 9 and 11 run `benchmarks/bench_load.py --smoke`, the
# one open-loop load driver, once per scenario, so a failure names its
# scenario.  Every point asserts its contract before it is recorded, and
# records merge without clobbering other kinds in the BENCH payload.
# 3. `--scenario poisson` — two open-loop Poisson arrival-rate points
#    through the batching inference server, each asserting bit-identity
#    of every served output against the serial single-image path (a
#    serving regression fails here before it ships).
# 4. `--scenario multitenant` — two mixed-traffic points: two tenants on
#    one shared pool under the two-class SLA policy, each point
#    asserting per-model bit-identity under mixed-class contention.
# 5. `python -m repro serve --http 0 --http-demo` — the HTTP wire smoke:
#    launch the two-tenant demo server on an ephemeral port, replay
#    concurrent mixed-class requests through real sockets, assert every
#    decoded response bit-identical to the in-process serial forward,
#    then drain and verify the port actually closed.  The demo also
#    scrapes the telemetry surface while the socket is up: `/metrics`
#    must survive the strict exposition parser, `/v1/usage` must bill
#    exactly the served/shed counts, and a served request's span tree
#    must come back from `/v1/trace/<id>`.
# 6. `--scenario http` — two open-loop Poisson rate points driven
#    as real `POST /v1/infer` traffic (client round-trip + server-side
#    latency recorded; bit-identity of decoded outputs asserted per
#    point).
# 7. `--scenario chaos` — two mixed-traffic points under scripted
#    die faults: stuck-at flips land on both tenants' live dies, each
#    point asserting checksum detection + online re-program recovery,
#    bit-identity of every completed request against the *pre-fault*
#    serial forward, and zero hung futures before recording.
# 8. `python -m repro serve --cluster 2 --http 0 --http-demo` — the
#    cluster failover smoke: boot two subprocess replicas behind the
#    router, SIGKILL one mid-traffic and restart it, assert every
#    completed response bit-identical to the serial forward, every
#    failure a documented receipt, zero hung requests, and that the
#    killed replica rejoined.
# 9. `--scenario obs` — the observability-overhead smoke: the
#    open-loop serving point driven with the telemetry bundle armed and
#    with Observability.disabled(), interleaved, asserting the two modes'
#    outputs byte-identical before recording (the full run additionally
#    gates overhead against the 5% mean-service-time budget).
# 10. `python -m repro serve --async --http 0 --http-demo` — the async
#    wire smoke: the step-5 replay through the asyncio front end under
#    weighted-fair arbitration, plus an SSE streaming leg
#    (`?stream=1`) whose per-event outputs and terminal `done` tally
#    are verified against the serial forward and the usage meter.
# 11. `--scenario async` — two open-loop rate points with a
#    barrier-synchronized crowd of concurrent connections held open on
#    the asyncio front end (peak asserted server-side); bit-identity of
#    every 200 and a documented shed receipt on every 503 asserted per
#    point.
# 12. `check_docs.py` — README.md and docs/architecture.md must exist and
#    mention every src/repro/* package, every docs/*.md page must be
#    linked from the README, every `python -m repro` subcommand and
#    `serve` flag must appear in the docs, every METRIC_CATALOG
#    name must appear in docs/observability.md, and every STREAM_EVENTS
#    type must appear in docs/serving.md (drift fails the check set).
set -e

cd "$(dirname "$0")/.."

echo "==> tier-1 (fast signal): pytest -m 'not slow'"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q -m "not slow"

echo "==> perf gate: run_perf_suite.py --smoke"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/run_perf_suite.py \
    --smoke -o "${PERF_GATE_OUTPUT:-/tmp/forms_perf_gate.json}"

echo "==> process-backend smoke: run_perf_suite.py --smoke --backend process"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/run_perf_suite.py \
    --smoke --backend process \
    -o "${PERF_GATE_PROCESS_OUTPUT:-/tmp/forms_perf_gate_process.json}"

echo "==> serving smoke: bench_load.py --smoke --scenario poisson"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/bench_load.py \
    --smoke --scenario poisson --requests 12 \
    -o "${SERVING_BENCH_OUTPUT:-/tmp/forms_serving_smoke.json}"

echo "==> multi-tenant smoke: bench_load.py --smoke --scenario multitenant"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/bench_load.py \
    --smoke --scenario multitenant --requests 12 \
    -o "${MULTITENANT_BENCH_OUTPUT:-/tmp/forms_multitenant_smoke.json}"

echo "==> http wire smoke: serve --http 0 --http-demo"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro serve \
    --http 0 --http-demo --models 2 --requests 12 --rate 400

echo "==> http bench smoke: bench_load.py --smoke --scenario http"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/bench_load.py \
    --smoke --scenario http --requests 12 \
    -o "${HTTP_BENCH_OUTPUT:-/tmp/forms_http_smoke.json}"

echo "==> chaos recovery smoke: bench_load.py --smoke --scenario chaos"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/bench_load.py \
    --smoke --scenario chaos --requests 12 \
    -o "${CHAOS_BENCH_OUTPUT:-/tmp/forms_chaos_smoke.json}"

echo "==> cluster failover smoke: serve --cluster 2 --http 0 --http-demo"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro serve \
    --cluster 2 --http 0 --http-demo --requests 12 --rate 400

echo "==> observability overhead smoke: bench_load.py --smoke --scenario obs"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/bench_load.py \
    --smoke --scenario obs --requests 12 \
    -o "${OBS_BENCH_OUTPUT:-/tmp/forms_obs_smoke.json}"

echo "==> async wire smoke: serve --async --http 0 --http-demo"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m repro serve \
    --async --http 0 --http-demo --models 2 --requests 12 --rate 400 \
    --sla-mode weighted_fair

echo "==> async bench smoke: bench_load.py --smoke --scenario async"
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python benchmarks/bench_load.py \
    --smoke --scenario async \
    -o "${ASYNC_BENCH_OUTPUT:-/tmp/forms_async_smoke.json}"

echo "==> docs check: check_docs.py"
python scripts/check_docs.py

echo "==> checks passed"
