"""Self-checking serving demos behind ``python -m repro serve``.

Each demo drives synthetic traffic through :mod:`repro.perf.load` — the
load driver asserts every served output bit-identical to a direct
serial single-image forward (per tenant) before anything is printed, so
the demos double as end-to-end smokes of the serving contract:

* :func:`run_demo` — one model, FIFO: per-request receipts plus the
  operational snapshot;
* :func:`run_multitenant_demo` — two tenants, two SLA classes, one
  pool: per-class latency/shed summaries, die-reuse stats, and a proof
  of cross-model die dedup (a replica tenant over identical weights
  programs no new die);
* :func:`run_chaos_demo` (``--chaos``) — scripted stuck-at faults on
  live dies, checksum detection, quarantine + online re-program,
  bounded batch retry: the injected scenario, recovery receipts and
  die-health summary;
* :func:`run_http_server` / :func:`run_http_demo` (``--http``) — the
  demo servers behind the threaded or asyncio front end: serve until
  interrupted (the curl walkthrough of ``docs/serving.md``), or replay
  self-checking requests over the wire, scrape the telemetry endpoints,
  stream over SSE (asyncio) and drain (``--http-demo``);
* :func:`run_cluster_server` / :func:`run_cluster_demo`
  (``--cluster N``) — the same protocol through a router over N
  subprocess replicas: serve until interrupted, or SIGKILL and restart
  a replica mid-traffic (``--http-demo``).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..obs import Observability, parse_prometheus_text
from ..reram import (ADCSpec, DeviceSpec, DieCache, ReRAMDevice,
                     paper_adc_bits)
from ..serving import (AsyncFrontend, ClusterHarness, HttpClient,
                       HttpFrontend, ModelRegistry, RoutingPolicy,
                       WireResult)
from .load import (ACTIVATION_BITS, BATCH_MODEL, FAST_MODEL, SHED,
                   build_demo_server, drive, drive_faults, drive_kills,
                   plan_traffic, replay_wire, serial_references,
                   tenant_models, verify)


def _printer(print_fn: Optional[Callable[[str], None]]
             ) -> Callable[[str], None]:
    return print_fn if print_fn is not None else (lambda line: None)


def run_demo(requests: int = 16, rate_rps: float = 200.0,
             max_batch: int = 4, max_wait_ms: float = 2.0,
             workers: Optional[int] = None, backend: Optional[str] = None,
             seed: int = 0,
             print_fn: Optional[Callable[[str], None]] = print) -> Dict:
    """Serve ``requests`` Poisson arrivals and return the stats snapshot."""
    say = _printer(print_fn)
    say(f"serving {requests} requests at ~{rate_rps:.0f} rps "
        f"(max_batch={max_batch}, max_wait={max_wait_ms:.1f} ms)")
    driven = drive(rate_rps, requests, max_batch=max_batch,
                   max_wait_ms=max_wait_ms, workers=workers,
                   backend=backend, seed=seed)
    results = [outcome["result"] for outcome in driven["outcomes"]]
    snapshot = driven["snapshot"]
    say("bit-identity vs serial single-image forward: OK")

    for served in results[: min(8, len(results))]:
        s = served.stats
        say(f"  request {s.request_id:3d}: batch {s.batch_id} "
            f"(size {s.batch_size}), queue {s.queue_wait_s * 1e3:6.2f} ms, "
            f"latency {s.latency_s * 1e3:6.2f} ms, "
            f"{s.engine_stats['conversions']} conversions")
    if len(results) > 8:
        say(f"  ... {len(results) - 8} more")
    say(f"batches formed: {snapshot['batches_formed']} "
        f"(mean size {snapshot['mean_batch_size']:.2f}), "
        f"p50 latency {snapshot['latency_p50_s'] * 1e3:.2f} ms, "
        f"p95 {snapshot['latency_p95_s'] * 1e3:.2f} ms, "
        f"occupancy {snapshot['occupancy']:.2f}, "
        f"throughput {snapshot['throughput_rps']:.1f} rps")
    return snapshot


def run_multitenant_demo(requests: int = 32, rate_rps: float = 400.0,
                         deadline_ms: Optional[float] = 50.0,
                         workers: Optional[int] = None,
                         backend: Optional[str] = None, seed: int = 0,
                         print_fn: Optional[Callable[[str], None]] = print
                         ) -> Dict:
    """Two tenants, two SLA classes, one pool — and prove the dedup.

    Returns the server stats snapshot.  Raises if any served output
    deviates from its tenant's serial single-image forward, or if the
    replica-tenant registration fails to hit the shared die cache.
    """
    say = _printer(print_fn)
    say(f"serving {requests} mixed-class requests at ~{rate_rps:.0f} rps "
        f"(interactive deadline "
        f"{'none' if deadline_ms is None else f'{deadline_ms:.0f} ms'}; "
        f"models '{FAST_MODEL}' + '{BATCH_MODEL}' on one pool)")
    driven = drive(rate_rps, requests, models=2, deadline_ms=deadline_ms,
                   workers=workers, backend=backend, seed=seed)
    say("bit-identity vs per-tenant serial forwards: OK")

    snapshot = driven["snapshot"]
    for name, group in sorted(snapshot["per_class"].items()):
        say(f"  class {name:12s} completed {group['completed']:3d}, "
            f"shed {group['shed']:3d}, "
            f"p50 {group['latency_p50_s'] * 1e3:7.2f} ms, "
            f"p95 {group['latency_p95_s'] * 1e3:7.2f} ms")
    receipts = [outcome["receipt"] for outcome in driven["outcomes"]
                if outcome["receipt"] is not None]
    for receipt in receipts[:4]:
        say(f"  shed request {receipt.request_id:3d}: {receipt.reason} "
            f"({receipt.priority_class}) after "
            f"{receipt.queue_wait_s * 1e3:.1f} ms")
    cache = driven["registry"]["die_cache"]
    say(f"die cache: {cache['hits']} hits / {cache['misses']} misses, "
        f"{cache['unique_dies']} unique dies for "
        f"{driven['registry']['engines_total']} engines")

    # cross-model dedup, proven: a replica tenant over identical weights
    # must program zero new dies
    models, config, _ = tenant_models(seed=seed)
    shared = DieCache()
    device = ReRAMDevice(DeviceSpec(), 0.0)
    adc = ADCSpec(bits=paper_adc_bits(config.fragment_size))
    with ModelRegistry(workers=1, die_cache=shared) as registry:
        registry.register(FAST_MODEL, models[FAST_MODEL], config, device,
                          adc=adc, activation_bits=ACTIVATION_BITS)
        misses_before = shared.misses
        registry.register(f"{FAST_MODEL}-replica", models[FAST_MODEL],
                          config, device, adc=adc,
                          activation_bits=ACTIVATION_BITS)
        stats = registry.stats()
    if shared.misses != misses_before or stats["die_cache"]["hits"] == 0:
        raise AssertionError("replica tenant re-programmed dies — "
                             "cross-model dedup broken")
    say(f"cross-model die dedup: replica tenant registered with "
        f"{stats['die_cache']['hits']} cache hits, 0 new dies — OK")
    return snapshot


def run_chaos_demo(requests: int = 24, rate_rps: float = 400.0,
                   workers: Optional[int] = None, seed: int = 0,
                   print_fn: Optional[Callable[[str], None]] = print
                   ) -> Dict:
    """Break dies under live traffic and prove the recovery, end to end.

    Returns the server stats snapshot.  The driver
    (:func:`repro.perf.load.drive_faults`) raises if any completed
    request deviates from its tenant's pre-fault serial forward, any
    future fails to resolve within the bounded wait, or any injected
    stuck-at fault goes undetected or unrecovered.
    """
    say = _printer(print_fn)
    say(f"chaos: serving {requests} mixed-class requests at "
        f"~{rate_rps:.0f} rps while scripted die faults land on "
        f"'{FAST_MODEL}' and '{BATCH_MODEL}'")
    driven = drive_faults(rate_rps, requests, workers=workers, seed=seed)

    for entry in driven["injected"]:
        if entry["kind"] == "stuck_at":
            say(f"  dispatch {entry['dispatch']:3d}: stuck-at fault on "
                f"die {entry['model']}/{entry['layer']} "
                f"({entry['stuck_cells_total']} cells flipped)")
        else:
            say(f"  dispatch {entry['dispatch']:3d}: {entry['kind']} event")
    snapshot = driven["snapshot"]
    say(f"detected {snapshot['faults_detected']} faults, recovered "
        f"{snapshot['fault_recoveries']} dies; "
        f"{snapshot['requests_recovered']} requests rode a recovered "
        f"batch to completion")
    served = [outcome["result"] for outcome in driven["outcomes"]
              if outcome["result"] is not None]
    for result in [r for r in served if r.stats.recovery is not None][:3]:
        rec = result.stats.recovery
        mitigation = next(iter(rec["mitigation"].values()), None)
        reduction = (f", planner impact reduction "
                     f"{mitigation['impact_reduction']:.0%}"
                     if mitigation else "")
        say(f"  receipt (request {result.stats.request_id:3d}): die "
            f"{rec['model']}/{rec['layer']} quarantined -> re-programmed "
            f"({'cache hit' if rec['reprogram']['via_die_cache'] else 'direct'}"
            f"), batch retried x{rec['retries']}{reduction}")
    counts = driven["health"]["counts"]
    say(f"die health: {counts['healthy']} healthy, "
        f"{counts['quarantined']} quarantined, "
        f"{counts['reprogramming']} re-programming "
        f"({driven['health']['recoveries']} lifetime recoveries)")
    say(f"bit-identity of all {len(served)} completed requests vs pre-fault "
        f"serial forwards: OK (zero hung futures)")
    return snapshot


def run_http_demo(requests: int = 16, rate_rps: float = 200.0,
                  models: int = 1, *, host: str = "127.0.0.1", port: int = 0,
                  deadline_ms: Optional[float] = 50.0,
                  max_batch: int = 4, max_wait_ms: float = 2.0,
                  workers: Optional[int] = None, seed: int = 0, obs=None,
                  use_async: bool = False, sla_mode: str = "strict",
                  print_fn: Optional[Callable[[str], None]] = print) -> Dict:
    """Drive the demo server *over the wire* and verify every bit.

    Replays ``requests`` open-loop Poisson arrivals through the driver's
    wire target (mixed classes when ``models=2``; JSON and base64
    payloads alternate), verifies them against the in-process serial
    forwards, prints the wire-side snapshot, then drains the front end
    and confirms the port actually closed.  Returns the ``/v1/stats``
    snapshot.  Raises on any numeric deviation or any failure other than
    an explicit shed receipt.

    Doubles as the observability wire smoke: before the drain it scrapes
    ``/metrics`` (through the strict Prometheus-text parser), fetches
    ``/v1/usage`` (the billed request/shed totals must match the wire
    outcomes) and replays one served request's span tree from
    ``/v1/trace/<id>`` — skipped for the parts an explicit ``obs``
    bundle disables.

    ``use_async=True`` serves through the
    :class:`~repro.serving.aio.AsyncFrontend` instead (same protocol)
    and adds one ``POST /v1/infer_batch?stream=1`` whose per-item
    ``result`` events must be bit-identical to the serial forwards and
    whose requests are billed into the ``/v1/usage`` cross-check.
    ``sla_mode`` selects the scheduler arbitration.
    """
    say = _printer(print_fn)
    server, traffic = build_demo_server(models, deadline_ms=deadline_ms,
                                        max_batch=max_batch,
                                        max_wait_ms=max_wait_ms,
                                        workers=workers, seed=seed, obs=obs,
                                        sla_mode=sla_mode)
    images = traffic["images"]
    stream_model, stream_priority, _ = traffic["cases"][0]
    frontend_cls = AsyncFrontend if use_async else HttpFrontend
    with server, frontend_cls(server, host=host, port=port,
                              owns_server=True) as frontend:
        plan, offsets = plan_traffic(traffic, rate_rps, requests, seed)
        for i, (_, kwargs, _) in enumerate(plan):
            kwargs["binary"] = bool(i % 2)   # exercise both encodings
        stream_idx = [key[1] for *_, key in plan[:3]]
        references = serial_references(
            server, images, [key[0] for *_, key in plan] + [stream_model])
        client = HttpClient.for_frontend(frontend)
        say(f"{'asyncio' if use_async else 'http'} front end on "
            f"{frontend.url} — replaying {requests} "
            f"requests at ~{rate_rps:.0f} rps over the wire "
            f"({models} model(s), sla_mode={sla_mode}, "
            f"health: {client.healthz()['status']})")
        outcomes, open_loop_s = replay_wire(client, plan, offsets)
        # the SSE exercise: its requests are billed into /v1/usage like
        # any other, so the totals cross-check below covers them too
        stream_events: List[Tuple[str, Dict]] = []
        if use_async:
            stream_kwargs = {name: value for name, value in (
                ("model", stream_model), ("priority", stream_priority))
                if value is not None}
            stream_events = list(client.infer_batch_stream(
                [images[i] for i in stream_idx], binary=True,
                **stream_kwargs))
        snapshot = client.stats()
        # observability wire smoke, while the socket is still up
        exposition = (parse_prometheus_text(client.metrics())
                      if server.obs.metrics.enabled else None)
        usage = client.usage()
        traced = None
        if server.obs.tracing:
            tid = next((outcome["result"].stats.get("trace_id")
                        for outcome in outcomes
                        if outcome["result"] is not None), None)
            if tid:
                traced = (tid, client.trace(tid))

    shed = verify(plan, outcomes, references, (SHED,)).get(SHED, 0)
    served = requests - shed
    say(f"bit-identity of all {served} served responses vs in-process "
        f"serial forwards: OK ({shed} shed with receipts)")
    if use_async:
        if not stream_events or stream_events[-1][0] != "done":
            raise AssertionError("SSE stream did not end with a 'done' "
                                 f"event: {[e for e, _ in stream_events]}")
        stream_served = stream_shed = 0
        for event, data in stream_events[:-1]:
            if event == "shed":
                stream_shed += 1
                continue
            if event != "result":
                raise AssertionError(f"unexpected SSE event {event!r}")
            stream_served += 1
            decoded = WireResult.from_body(data)
            ref = references[stream_model][stream_idx[data["index"]]]
            if not np.array_equal(decoded.output, ref):
                raise AssertionError(
                    f"SSE item {data['index']}: streamed output != "
                    "in-process serial forward")
        done = stream_events[-1][1]
        if (done["completed"], done["shed"]) != (stream_served, stream_shed):
            raise AssertionError(
                f"SSE 'done' claimed {done}; the stream carried "
                f"{stream_served} results / {stream_shed} sheds")
        say(f"SSE stream: {stream_served} result events bit-identical, "
            f"{stream_shed} shed, terminal 'done' consistent — OK")
        served += stream_served
        shed += stream_shed
    totals = usage["totals"]
    if (totals["requests"], totals["sheds"]) != (served, shed):
        raise AssertionError(
            f"/v1/usage billed {totals['requests']} requests / "
            f"{totals['sheds']} sheds; the wire saw {served} / {shed}")
    obs_bits = [f"/v1/usage billed {totals['requests']} requests, "
                f"{totals['macs']} macs"]
    if exposition is not None:
        obs_bits.insert(0, f"/metrics parsed clean "
                           f"({len(exposition)} families)")
    if traced is not None:
        tid, record = traced
        root = record["spans"][0]
        obs_bits.append(f"/v1/trace/{tid[:8]}… returned a "
                        f"{root['name']!r} span with "
                        f"{len(root.get('children', []))} children")
    say(f"observability: {'; '.join(obs_bits)} — OK")
    say(f"wire snapshot: p50 {snapshot['latency_p50_s'] * 1e3:.2f} ms, "
        f"p95 {snapshot['latency_p95_s'] * 1e3:.2f} ms, "
        f"mean batch {snapshot['mean_batch_size']:.2f}, "
        f"occupancy {snapshot['occupancy']:.2f}, "
        f"{requests / open_loop_s:.1f} rps over the wire")
    for name, group in sorted(snapshot.get("per_class", {}).items()):
        say(f"  class {name:12s} completed {group['completed']:3d}, "
            f"shed {group['shed']:3d}, "
            f"p95 {group['latency_p95_s'] * 1e3:7.2f} ms")
    # the drain proof: the socket must actually be gone
    try:
        client.healthz()
    except OSError:
        say("drain: port closed, all handlers finished — OK")
    else:
        raise AssertionError("front end still answering after shutdown")
    return snapshot


def run_http_server(models: int = 1, *, host: str = "127.0.0.1",
                    port: int = 8100,
                    deadline_ms: Optional[float] = 50.0,
                    max_batch: int = 4, max_wait_ms: float = 2.0,
                    workers: Optional[int] = None, seed: int = 0, obs=None,
                    use_async: bool = False, sla_mode: str = "strict",
                    print_fn: Optional[Callable[[str], None]] = print,
                    ready: Optional[Callable] = None,
                    stop: Optional[threading.Event] = None) -> Dict:
    """Serve the demo model(s) over HTTP until interrupted.

    The operator mode behind ``python -m repro serve --http PORT``: binds
    the front end (the threaded :class:`~repro.serving.HttpFrontend`, or
    the asyncio :class:`~repro.serving.aio.AsyncFrontend` with
    ``use_async=True`` — same wire protocol plus SSE streaming), prints
    the curl lines of the ``docs/serving.md`` walkthrough, and blocks
    until Ctrl-C (or ``stop`` is set — the test hook; ``ready`` receives
    the live frontend once bound).  Draining shutdown on the way out;
    returns the final stats snapshot.
    """
    say = _printer(print_fn)
    server, traffic = build_demo_server(models, deadline_ms=deadline_ms,
                                        max_batch=max_batch,
                                        max_wait_ms=max_wait_ms,
                                        workers=workers, seed=seed, obs=obs,
                                        sla_mode=sla_mode)
    stop = stop if stop is not None else threading.Event()
    frontend_cls = AsyncFrontend if use_async else HttpFrontend
    with server, frontend_cls(server, host=host, port=port,
                              owns_server=True, log=say) as frontend:
        shape = list(traffic["images"].shape[1:])
        say(f"serving {server.registry.names()} on {frontend.url} "
            f"({'asyncio' if use_async else 'threaded'} front end, "
            f"sla_mode={sla_mode}, request shape {shape}; "
            f"Ctrl-C drains and exits)")
        say("try:")
        say(f"  curl -s {frontend.url}/healthz")
        say(f"  curl -s {frontend.url}/v1/models")
        model, priority, deadline = traffic["cases"][0]
        envelope = "\\\"input\\\": [[...]]" if model is None else (
            f"\\\"model\\\": \\\"{model}\\\", \\\"priority\\\": "
            f"\\\"{priority}\\\", \\\"input\\\": [[...]]")
        say(f"  curl -s -X POST {frontend.url}/v1/infer "
            f"-H 'Content-Type: application/json' -d '{{{envelope}}}'")
        if use_async:
            say(f"  curl -sN -X POST "
                f"'{frontend.url}/v1/infer_batch?stream=1' "
                f"-H 'Content-Type: application/json' "
                f"-d '{{\"inputs\": [[[...]], [[...]]]}}'")
        say(f"  curl -s {frontend.url}/v1/stats")
        if server.obs.metrics.enabled:
            say(f"  curl -s {frontend.url}/metrics")
        say(f"  curl -s {frontend.url}/v1/usage")
        if ready is not None:
            ready(frontend)
        try:
            while not stop.wait(0.2):
                pass
        except KeyboardInterrupt:
            say("interrupt: draining")
        frontend.shutdown()
        # snapshot after the drain so requests served during it count
        snapshot = server.server_stats()
        say("drained; front end closed")
    return snapshot


def run_cluster_server(replicas: int = 2, *, host: str = "127.0.0.1",
                       port: int = 8100, workers: int = 1, seed: int = 0,
                       replication: int = 2,
                       hedge_delay_s: Optional[float] = None,
                       print_fn: Optional[Callable[[str], None]] = print,
                       ready: Optional[Callable] = None,
                       stop: Optional[threading.Event] = None) -> Dict:
    """Serve the demo models through a replica cluster until interrupted.

    The operator mode behind ``python -m repro serve --cluster N --http
    PORT``: boots ``replicas`` subprocess replicas of the identical demo
    build (bit-identical outputs — the property failover relies on),
    a health-probing directory and a
    :class:`~repro.serving.cluster.ClusterRouter` on ``port``, prints
    the cluster walkthrough curl lines, and blocks until Ctrl-C (or
    ``stop`` — the test hook; ``ready`` receives the live harness).
    Returns the final ``/v1/cluster`` snapshot.
    """
    say = _printer(print_fn)
    stop = stop if stop is not None else threading.Event()
    policy = RoutingPolicy(hedge_delay_s=hedge_delay_s)
    with ClusterHarness(replicas, seed=seed, workers=workers,
                        replication=replication, policy=policy,
                        router_port=port, host=host, log=None) as harness:
        router = harness.router
        backends = ", ".join(f"{name}:{proc.port}"
                             for name, proc in harness.replicas.items())
        say(f"cluster router on {router.url} over {replicas} replica(s) "
            f"({backends}; replication={replication}; Ctrl-C drains and "
            f"exits)")
        say("try:")
        say(f"  curl -s {router.url}/healthz")
        say(f"  curl -s {router.url}/v1/cluster")
        say(f"  curl -s -X POST {router.url}/v1/infer "
            f"-H 'Content-Type: application/json' "
            f"-d '{{\"model\": \"fast\", \"priority\": \"interactive\", "
            f"\"input\": [[...]]}}'")
        if ready is not None:
            ready(harness)
        try:
            while not stop.wait(0.2):
                pass
        except KeyboardInterrupt:
            say("interrupt: draining")
        client = HttpClient(router.host, router.port)
        _, snapshot = client.request("GET", "/v1/cluster")
    say("drained; router and replicas closed")
    return snapshot


def run_cluster_demo(requests: int = 16, rate_rps: float = 200.0,
                     replicas: int = 2, *, workers: int = 1, seed: int = 0,
                     replication: int = 2,
                     hedge_delay_s: Optional[float] = None,
                     print_fn: Optional[Callable[[str], None]] = print
                     ) -> Dict:
    """Kill a replica under live routed traffic and prove the failover.

    The self-checking cluster smoke behind ``--cluster N --http 0
    --http-demo``: drives :func:`repro.perf.load.drive_kills` — open-loop
    ``POST /v1/infer`` arrivals through the router while the interactive
    tenant's primary replica is SIGKILLed and restarted mid-run — and
    prints the failover accounting.  The driver raises if any completed
    response deviates from the parent's serial single-image forward, any
    request hangs, any failure is not a documented receipt, or the
    killed replica fails to rejoin.  Returns the final ``/v1/cluster``
    snapshot.
    """
    say = _printer(print_fn)
    say(f"cluster chaos: {requests} requests at ~{rate_rps:.0f} rps "
        f"through a router over {replicas} replica(s), SIGKILL + restart "
        f"mid-traffic")
    driven = drive_kills(rate_rps, requests, replicas=replicas,
                         replication=replication,
                         hedge_delay_s=hedge_delay_s,
                         workers=workers, seed=seed)
    for entry in driven["kill_log"]:
        say(f"  t={entry['at_s'] * 1e3:7.1f} ms: {entry['action']} "
            f"{entry['replica']}")
    router = driven["cluster"]["router"]
    counts = driven["cluster"]["directory"]["counts"]
    completed = requests - sum(driven["codes"].values())
    say(f"completed {completed}/{requests} "
        f"(receipts: {driven['codes'] or 'none'}); "
        f"{router['failovers']} failovers, "
        f"{router['hedges_fired']} hedges fired "
        f"({router['hedges_won']} won), "
        f"{router['unavailable']} unavailable receipts")
    say(f"replicas after restart: {counts['up']} up, "
        f"{counts['suspect']} suspect, {counts['down']} down")
    say(f"bit-identity of all {completed} completed responses "
        f"vs serial forwards: OK (zero hung requests; trace ids echoed)")
    return driven["cluster"]


def run_http_cli(args) -> int:
    """The ``--http`` dispatch of ``python -m repro serve``: resolves the
    deadline, coerces the model count, prints the FIFO-knobs note for
    the SLA shape, and runs either the self-checking wire demo
    (``--http-demo``) or the serve-until-interrupted server —
    single-process by default, the replica cluster with ``--cluster N``.
    """
    if args.cluster is not None:
        knobs = dict(replicas=args.cluster,
                     workers=(args.workers if args.workers is not None
                              else 1),
                     seed=args.seed,
                     replication=args.cluster_replication,
                     hedge_delay_s=(args.hedge_ms / 1e3
                                    if args.hedge_ms is not None else None))
        if args.http_demo:
            run_cluster_demo(requests=args.requests, rate_rps=args.rate,
                             **knobs)
        else:
            run_cluster_server(host=args.http_host, port=args.http, **knobs)
        return 0
    deadline = (args.deadline_ms if args.deadline_ms is not None
                and args.deadline_ms > 0 else None)
    classes = (args.priority_classes if args.priority_classes is not None
               else args.models)
    models = 2 if (args.models > 1 or classes > 1) else 1
    if models > 1 and (args.max_batch, args.max_wait_ms) != (4, 2.0):
        print("note: --max-batch/--max-wait-ms are FIFO knobs; the SLA "
              "demo's classes carry their own coalescing budgets "
              "(ignored here)")
    # --no-metrics / --trace-ring shape the single-process server's
    # Observability bundle (the cluster's subprocess replicas boot their
    # own defaults — the flags do not reach across the fork)
    obs = Observability(metrics=not args.no_metrics,
                        trace_ring=args.trace_ring)
    knobs = dict(models=models, host=args.http_host, port=args.http,
                 deadline_ms=deadline, max_batch=args.max_batch,
                 max_wait_ms=args.max_wait_ms, workers=args.workers,
                 seed=args.seed, obs=obs, use_async=args.use_async,
                 sla_mode=args.sla_mode)
    if args.http_demo:
        run_http_demo(requests=args.requests, rate_rps=args.rate, **knobs)
    else:
        run_http_server(**knobs)
    return 0
