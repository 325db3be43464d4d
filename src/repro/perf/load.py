"""The open-loop load driver behind every serving benchmark, smoke and demo.

Every serving measurement is the same six steps, each kept once here:

1. **validate** the offered rate, request count and class mix, then
2. **plan** (:func:`plan_traffic`): one seeded draw — image index, class
   mask (two-tenant traffic only), Poisson arrival offsets, in that
   order — fixes the arrival schedule and, per request, ``(image, submit
   kwargs, reference key)``;
3. **build** the demo server (:func:`build_demo_server`, the one
   construction site of every driven, demo and replica server);
4. **fire** the schedule open loop through one of three targets —
   in-process ``submit_async`` (:func:`submit_open_loop`), the wire
   client with one thread per request (:func:`replay_wire`), or a crowd
   of simultaneously open asyncio connections (:func:`replay_crowd`).
   Open loop: every request departs on schedule regardless of earlier
   completions, so a slow server shows up as queueing delay, not as a
   throttled offered rate.  Every target returns one outcome per request
   (``{"latency_s", "result", "error", "code", "receipt"}``) and bounds
   its wait by :data:`RESOLVE_TIMEOUT_S`, so a hang fails the run;
5. **verify** (:func:`verify`): every served output bit-identical to the
   serial single-image forward computed before any traffic, and every
   failure one of the documented receipt codes the traffic allows;
6. **record** (:func:`run_point`): one BENCH record per rate point of a
   ``benchmarks/bench_load.py --scenario`` (schemas in
   ``benchmarks/README.md``).

The traffic shapes are :func:`drive` (one FIFO tenant, or two tenants
with opposed SLAs on one pool), :func:`drive_faults` (scripted die
faults, post-traffic probes, detection/recovery liveness) and
:func:`drive_kills` (a SIGKILLed cluster replica, rejoin proof).  The
``obs`` record is the single-tenant in-process point repeated with the
telemetry bundle armed and disabled.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import wait as futures_wait
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import Observability
from ..reram import (ADCSpec, DeviceSpec, DieCache, ReRAMDevice,
                     paper_adc_bits)
from ..reram.faults import (EVENT_DELAY, EVENT_STUCK_AT, FaultEvent,
                            FaultInjector, InjectedDispatchError)
from ..runtime import run_network_serial
from ..serving import (DEFAULT_MODEL, AsyncFrontend, ClusterHarness,
                       HttpClient, HttpError, HttpFrontend, InferenceServer,
                       ModelRegistry, PriorityClass, RequestShed,
                       RoutingPolicy, SlaPolicy, WireResult)
from ..serving.http import encode_array
from .suite import _post_relu_network

SERVING_RECORD_KIND = "serving"
CHAOS_RECORD_KIND = "chaos"
CLUSTER_RECORD_KIND = "cluster"
OBS_RECORD_KIND = "obs"

#: ``bench_load.py --scenario`` -> (record-name prefix, record kind)
SCENARIOS = {
    "poisson": ("serving_poisson", SERVING_RECORD_KIND),
    "multitenant": ("serving_multitenant", SERVING_RECORD_KIND),
    "http": ("serving_http", SERVING_RECORD_KIND),
    "async": ("serving_async", SERVING_RECORD_KIND),
    "chaos": ("chaos_mixed", CHAOS_RECORD_KIND),
    "cluster": ("cluster_chaos", CLUSTER_RECORD_KIND),
    "obs": ("serving_obs_overhead", OBS_RECORD_KIND),
}

#: tenant and class names of the two-tenant traffic
INTERACTIVE = "interactive"
BULK = "bulk"
FAST_MODEL = "fast"
BATCH_MODEL = "batch"
#: share of two-tenant requests in the interactive class
INTERACTIVE_FRACTION = 0.4
#: the interactive class's per-request deadline in the demos and records
INTERACTIVE_DEADLINE_MS = 50.0
#: the bulk class's latency bound: a bulk request queued longer is shed
BULK_SHED_AFTER_MS = 150.0
#: activation precision of every driven network
ACTIVATION_BITS = 12

#: bounded wait proving "zero hung requests" — generous against CI
#: jitter and replica restarts, tiny against an actual hang
RESOLVE_TIMEOUT_S = 120.0

#: receipt codes an outcome may carry instead of a result
SHED = "shed"
CLUSTER_UNAVAILABLE = "cluster_unavailable"
INJECTED_CRASH = "injected_crash"

#: the obs record's budget: armed-vs-disabled mean service time (%)
OBS_OVERHEAD_BUDGET_PCT = 5.0

Plan = List[Tuple[np.ndarray, Dict, Tuple[Optional[str], int]]]


def record_name(prefix: str, rate_rps: float) -> str:
    """``<prefix>_r<rate>`` with the decimal point spelled ``p``."""
    return f"{prefix}_r{rate_rps:g}".replace(".", "p")


def poisson_arrival_offsets(rng: np.random.Generator, rate_rps: float,
                            requests: int) -> np.ndarray:
    """Absolute open-loop arrival schedule (first request at t=0).

    Anchoring on an absolute schedule — rather than sleeping per gap —
    keeps the realized rate from drifting below the offered rate.
    """
    gaps = rng.exponential(1.0 / rate_rps, size=max(requests - 1, 0))
    return np.concatenate([[0.0], np.cumsum(gaps)])


def tenant_models(seed: int = 0):
    """Two FORMS-shaped tenants with opposed serving profiles.

    ``fast`` is a one-conv CNN (the interactive tenant: cheap forward,
    latency is all that matters); ``batch`` is the perf suite's pruned
    two-conv network (the bulk tenant: heavier forward, throughput via
    coalescing).  Both are fragment-polarized on the same
    :class:`~repro.core.pipeline.FORMSConfig` and share one 16x16 input
    shape so one image pool drives both.
    """
    from ..core.pipeline import FORMSConfig
    from ..core.polarization import compute_signs, project_polarization
    from ..nn import (Conv2d, Flatten, Linear, ReLU, Sequential,
                      compressible_layers, set_init_seed)
    set_init_seed(seed)
    fast = Sequential(Conv2d(1, 4, 3, padding=1), ReLU(),
                      Flatten(), Linear(4 * 16 * 16, 10))
    set_init_seed(seed + 100)
    batch = Sequential(Conv2d(1, 8, 3, padding=1), ReLU(),
                       Conv2d(8, 8, 3, padding=1), ReLU(),
                       Flatten(), Linear(8 * 16 * 16, 10))
    rng = np.random.default_rng(seed + 7)
    for layer in (batch._modules["0"], batch._modules["2"]):
        dead = rng.permutation(layer.weight.data.shape[0])[5:]
        layer.weight.data[dead] = 0.0
        if layer.bias is not None:
            layer.bias.data[dead] = 0.0
    config = FORMSConfig(fragment_size=8)
    for model in (fast, batch):
        for _, layer in compressible_layers(model):
            geometry = config.geometry_for(layer)
            weight = layer.weight.data.astype(np.float64)
            layer.weight.data[...] = project_polarization(
                weight, geometry, compute_signs(weight, geometry))
    images = np.maximum(0.0, rng.normal(size=(8, 1, 16, 16)) - 0.8)
    return {FAST_MODEL: fast, BATCH_MODEL: batch}, config, images


def mixed_policy(*, bulk_shed_after_ms: Optional[float] = BULK_SHED_AFTER_MS,
                 mode: str = "strict") -> SlaPolicy:
    """The two-class policy of two-tenant traffic.

    Interactive: tiny batches, short wait, weight 4; bulk: large
    coalesced batches, shed past ``bulk_shed_after_ms`` (``None``: never),
    weight 1.  ``mode="weighted_fair"`` arbitrates by deficit round robin
    over the weights instead of strict precedence.
    """
    return SlaPolicy((
        PriorityClass(INTERACTIVE, max_batch=2, max_wait_s=0.0005,
                      weight=4.0),
        PriorityClass(BULK, max_batch=8, max_wait_s=0.004,
                      shed_after_s=(None if bulk_shed_after_ms is None
                                    else bulk_shed_after_ms / 1e3),
                      weight=1.0),
    ), mode=mode)


def build_demo_server(models: int = 1, *,
                      deadline_ms: Optional[float] = INTERACTIVE_DEADLINE_MS,
                      max_batch: int = 4, max_wait_ms: float = 2.0,
                      workers: Optional[int] = None,
                      backend: Optional[str] = None, seed: int = 0,
                      die_cache=None, obs=None, sla_mode: str = "strict",
                      fault_injector: Optional[FaultInjector] = None):
    """Stand up the demo :class:`~repro.serving.InferenceServer`, idle.

    ``models=1`` serves the perf suite's post-ReLU CNN under one FIFO
    class (``max_batch`` / ``max_wait_ms``); ``models=2`` the
    ``fast``/``batch`` tenant pair under :func:`mixed_policy`.
    ``sla_mode`` picks the cross-class arbitration — scheduling only,
    never the bits.  A ``fault_injector`` arms checksum guards on every
    die and lifts the bulk latency bound, so fault recovery is the only
    shed reason under faults.

    Returns ``(server, traffic)``: ``traffic["images"]`` is the image
    pool, ``traffic["cases"]`` one ``(model, priority, deadline_ms)``
    submit template per class, interactive first.  The caller owns the
    server (``shutdown`` closes its registry and pool).
    """
    if models == 1:
        model, config, images = _post_relu_network(seed=seed)
        tenants = {DEFAULT_MODEL: model}
        policy = SlaPolicy((PriorityClass(
            "default", max_batch=max_batch,
            max_wait_s=max_wait_ms / 1e3),), mode=sla_mode)
        cases = [(None, None, None)]
    elif models == 2:
        tenants, config, images = tenant_models(seed=seed)
        policy = mixed_policy(
            bulk_shed_after_ms=(None if fault_injector is not None
                                else BULK_SHED_AFTER_MS), mode=sla_mode)
        cases = [(FAST_MODEL, INTERACTIVE, deadline_ms),
                 (BATCH_MODEL, BULK, None)]
    else:
        raise ValueError("the demo serves 1 or 2 models")
    device = ReRAMDevice(DeviceSpec(), 0.0)
    adc = ADCSpec(bits=paper_adc_bits(config.fragment_size))
    registry = ModelRegistry(workers=workers, backend=backend,
                             die_cache=die_cache)
    try:
        for name, model in tenants.items():
            registry.register(name, model, config, device, adc=adc,
                              activation_bits=ACTIVATION_BITS)
        server = InferenceServer(registry=registry, policy=policy, obs=obs,
                                 detect_faults=fault_injector is not None,
                                 fault_injector=fault_injector)
    except BaseException:
        registry.close()
        raise
    server._owns_registry = True    # the demo's registry dies with the server
    return server, {"images": images, "cases": cases}


def default_chaos_events():
    """The scripted fault scenario: both tenants lose a die early.

    A stuck-at flip on the bulk tenant's most sensitive die at the first
    dispatch, a dispatch-path stall, and a stuck-at flip on the
    interactive tenant shortly after — recovery runs on both tenants
    while Poisson arrivals are still queueing.
    """
    return (
        FaultEvent(EVENT_STUCK_AT, at_dispatch=1, model=BATCH_MODEL,
                   sa0_rate=0.03, sa1_rate=0.01),
        FaultEvent(EVENT_DELAY, at_dispatch=2, delay_s=0.002),
        FaultEvent(EVENT_STUCK_AT, at_dispatch=4, model=FAST_MODEL,
                   sa0_rate=0.03, sa1_rate=0.01),
    )


def plan_traffic(traffic: Dict, rate_rps: float, requests: int,
                 seed: int = 0,
                 interactive_fraction: float = INTERACTIVE_FRACTION
                 ) -> Tuple[Plan, np.ndarray]:
    """Validate, then draw one open-loop schedule from ``seed``.

    Returns ``(plan, offsets)``: ``offsets[i]`` is request *i*'s arrival
    time after the start; ``plan[i]`` is ``(image, kwargs, key)`` where
    ``kwargs`` are the set fields of the request's class template
    (``model`` / ``priority`` / ``deadline_ms``) and ``key = (model,
    image index)`` addresses :func:`serial_references`.  The class mask
    is drawn only for two-class traffic.
    """
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if not 0.0 <= interactive_fraction <= 1.0:
        raise ValueError("interactive_fraction must be within [0, 1]")
    images, cases = traffic["images"], traffic["cases"]
    rng = np.random.default_rng(seed)
    image_idx = rng.integers(0, images.shape[0], size=requests)
    interactive = (rng.random(requests) < interactive_fraction
                   if len(cases) > 1 else np.ones(requests, dtype=bool))
    offsets = poisson_arrival_offsets(rng, rate_rps, requests)
    plan: Plan = []
    for img, hot in zip(image_idx, interactive):
        model, priority, deadline_ms = cases[0 if hot else -1]
        kwargs = {name: value for name, value in (
            ("model", model), ("priority", priority),
            ("deadline_ms", deadline_ms)) if value is not None}
        plan.append((images[img], kwargs, (model, int(img))))
    return plan, offsets


def serial_references(server, images: np.ndarray,
                      models: Sequence[Optional[str]]) -> Dict:
    """The bit-identity oracle: serial single-image forwards of
    ``images`` through each of ``models`` (``None``: the sole model)."""
    return {model: run_network_serial(server.registry.get(model).network,
                                      images, tile_size=1)
            for model in set(models)}


def _outcome(latency_s: Optional[float], result=None, error=None,
             code: Optional[str] = None) -> Dict:
    return {"latency_s": latency_s, "result": result, "error": error,
            "code": code if code is not None else getattr(error, "code",
                                                          None),
            "receipt": getattr(error, "receipt", None)}


def _sleep_until(deadline: float) -> None:
    delay = deadline - time.monotonic()
    if delay > 0:
        time.sleep(delay)


def submit_open_loop(server, plan: Plan, offsets: Sequence[float]
                     ) -> Tuple[List[Dict], float]:
    """The in-process target: ``server.submit_async`` on schedule.

    Returns ``(outcomes, open_loop_s)``.  ``latency_s`` is the server's
    enqueue-to-completion window (queue wait for a shed request); a shed
    carries code ``"shed"``, a scripted dispatch crash
    ``"injected_crash"``; any other error raises.  A future unresolved
    :data:`RESOLVE_TIMEOUT_S` after the last submit is a hang and raises.
    """
    futures = []
    start = time.monotonic()
    for (image, kwargs, _), offset in zip(plan, offsets):
        _sleep_until(start + offset)
        kwargs = dict(kwargs)
        if "deadline_ms" in kwargs:
            kwargs["deadline_s"] = kwargs.pop("deadline_ms") / 1e3
        futures.append(server.submit_async(image, **kwargs))
    _, hung = futures_wait(futures, timeout=RESOLVE_TIMEOUT_S)
    if hung:
        raise AssertionError(f"{len(hung)} futures hung: unresolved "
                             f"{RESOLVE_TIMEOUT_S:.0f}s after the last "
                             "submit")
    open_loop_s = time.monotonic() - start
    outcomes = []
    for future in futures:
        try:
            result = future.result()
        except RequestShed as exc:
            outcomes.append(_outcome(exc.receipt.queue_wait_s, error=exc,
                                     code=SHED))
        except InjectedDispatchError as exc:
            outcomes.append(_outcome(None, error=exc, code=INJECTED_CRASH))
        else:
            outcomes.append(_outcome(result.stats.latency_s, result=result))
    return outcomes, open_loop_s


def replay_wire(client: HttpClient, plan: Plan, offsets: Sequence[float]
                ) -> Tuple[List[Dict], float]:
    """The wire target: one ``POST /v1/infer`` thread per request.

    ``kwargs`` go to :meth:`~repro.serving.HttpClient.infer` (``binary``
    and ``trace_id`` included).  ``latency_s`` is the client round trip.
    A protocol error keeps its wire code (``"shed"`` carries the
    receipt); a transport error has no code, so :func:`verify` fails it.
    The join is bounded: a request neither answered nor failed
    :data:`RESOLVE_TIMEOUT_S` after the last arrival raises.
    """
    outcomes: List[Optional[Dict]] = [None] * len(plan)
    start = time.monotonic()

    def fire(index: int, image: np.ndarray, kwargs: Dict,
             offset: float) -> None:
        _sleep_until(start + offset)
        sent = time.monotonic()
        try:
            result = client.infer(image, **kwargs)
        except Exception as exc:   # noqa: BLE001 — verify() judges it
            outcomes[index] = _outcome(time.monotonic() - sent, error=exc)
        else:
            outcomes[index] = _outcome(time.monotonic() - sent,
                                       result=result)

    threads = [threading.Thread(target=fire, args=(i, image, kwargs, offset),
                                name=f"forms-load-{i}", daemon=True)
               for i, ((image, kwargs, _), offset)
               in enumerate(zip(plan, offsets))]
    for thread in threads:
        thread.start()
    deadline = start + float(offsets[-1]) + RESOLVE_TIMEOUT_S
    for i, thread in enumerate(threads):
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
        if thread.is_alive():
            raise AssertionError(
                f"request {i} hung: no response or error within "
                f"{RESOLVE_TIMEOUT_S:.0f}s of the last arrival")
    return outcomes, time.monotonic() - start


async def _roundtrip(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter,
                     body: bytes) -> Tuple[int, Dict]:
    """One keep-alive ``POST /v1/infer`` on an open connection."""
    writer.write(b"POST /v1/infer HTTP/1.1\r\nHost: bench\r\n"
                 b"Content-Type: application/json\r\n"
                 b"Content-Length: " + str(len(body)).encode("ascii") +
                 b"\r\n\r\n" + body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection mid-request")
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    payload = await reader.readexactly(length) if length else b"{}"
    return int(status_line.split()[1]), json.loads(payload.decode("utf-8"))


async def _run_connections(host: str, port: int, bodies: List[bytes],
                           offsets: Sequence[float],
                           outcomes: List[Optional[Dict]]) -> None:
    """One task per connection: connect, rendezvous, fire on schedule.

    The barrier is the point: every socket is open before any request
    departs, so the server's ``peak_connections`` must read the count.
    """
    barrier = asyncio.Barrier(len(bodies))

    async def one(index: int) -> None:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            async with barrier:
                start = time.monotonic()
            delay = start + offsets[index] - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.monotonic()
            status, body = await _roundtrip(reader, writer, bodies[index])
            latency = time.monotonic() - sent
            outcomes[index] = (
                _outcome(latency, result=WireResult.from_body(body))
                if status == 200 else
                _outcome(latency, error=HttpError(status, body)))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):   # pragma: no cover
                pass

    async with asyncio.timeout(RESOLVE_TIMEOUT_S):
        async with asyncio.TaskGroup() as group:
            for index in range(len(bodies)):
                group.create_task(one(index))


def replay_crowd(frontend: AsyncFrontend, plan: Plan,
                 offsets: Sequence[float]) -> Tuple[List[Dict], float]:
    """The connection-crowd target: every request on its own keep-alive
    socket, all of them open at once, one event loop driving the lot.

    A thread per request cannot hold hundreds of sockets; one client
    loop can.  ``kwargs["binary"]`` picks the payload encoding; outcomes
    as in :func:`replay_wire`.  Raises unless the front end saw every
    connection open simultaneously (``peak_connections``).
    """
    bodies = []
    for image, kwargs, _ in plan:
        envelope = dict(kwargs)
        if envelope.pop("binary", False):
            envelope["input_b64"] = encode_array(np.asarray(image))
        else:
            envelope["input"] = np.asarray(image).tolist()
        bodies.append(json.dumps(envelope).encode("utf-8"))
    outcomes: List[Optional[Dict]] = [None] * len(plan)
    start = time.monotonic()
    asyncio.run(_run_connections(frontend.host, frontend.port, bodies,
                                 offsets, outcomes))
    open_loop_s = time.monotonic() - start
    if frontend.peak_connections < len(plan):
        raise AssertionError(
            f"front end saw at most {frontend.peak_connections} "
            f"simultaneous connections of {len(plan)} — the rendezvous "
            "failed")
    return outcomes, open_loop_s


def verify(plan: Plan, outcomes: Sequence[Dict], references: Dict,
           allowed: Sequence[str] = ()) -> Dict[str, int]:
    """The contract of every driven run, asserted before anything is
    recorded: each served output equals the serial single-image forward
    of its tenant, and each failure carries a receipt code in
    ``allowed`` (a shed must carry its receipt).  Returns the failures'
    ``{code: count}``."""
    codes: Dict[str, int] = {}
    for i, ((_, _, (model, img)), outcome) in enumerate(zip(plan, outcomes)):
        if outcome["result"] is None:
            code = outcome["code"]
            if code not in allowed or (code == SHED
                                       and outcome["receipt"] is None):
                raise AssertionError(
                    f"request {i} failed outside the documented receipts "
                    f"{tuple(allowed)}: {outcome['error']!r}")
            codes[code] = codes.get(code, 0) + 1
        elif not np.array_equal(outcome["result"].output,
                                references[model][img]):
            raise AssertionError(
                f"request {i} ({model or 'default'}): served output != "
                "serial single-image forward — the stack leaked into the "
                "numerics")
    return codes


def _completed(outcomes: Sequence[Dict]) -> int:
    return sum(outcome["result"] is not None for outcome in outcomes)


def drive(rate_rps: float, requests: int, *, models: int = 1,
          target: str = "submit", binary: bool = False,
          interactive_fraction: float = INTERACTIVE_FRACTION,
          seed: int = 0, **build) -> Dict:
    """Serve one open-loop schedule on the demo server and verify it.

    ``models=1`` is one FIFO tenant, ``models=2`` two tenants with
    opposed SLAs on one pool.  ``target`` is ``"submit"``
    (:func:`submit_open_loop`), ``"wire"`` (:func:`replay_wire` through
    an :class:`~repro.serving.HttpFrontend`) or ``"crowd"``
    (:func:`replay_crowd` through an
    :class:`~repro.serving.AsyncFrontend`); ``binary`` picks the wire
    payload encoding.  ``build`` goes to :func:`build_demo_server`.
    Sheds are documented outcomes of two-class traffic and of the
    crowd's transport; the one-tenant FIFO server under ``submit`` or
    ``wire`` never sheds, so any failure there fails the run.

    Returns ``{"plan", "outcomes", "codes", "snapshot", "registry",
    "open_loop_s", "workers", "peak_connections"}``.
    """
    if target not in ("submit", "wire", "crowd"):
        raise ValueError(f"unknown target {target!r}")
    server, traffic = build_demo_server(models, seed=seed, **build)
    peak = None
    with server:
        plan, offsets = plan_traffic(traffic, rate_rps, requests, seed,
                                     interactive_fraction)
        references = serial_references(server, traffic["images"],
                                       [key[0] for *_, key in plan])
        if target == "submit":
            outcomes, open_loop_s = submit_open_loop(server, plan, offsets)
        else:
            for _, kwargs, _ in plan:
                kwargs["binary"] = binary
            frontend_cls = HttpFrontend if target == "wire" else AsyncFrontend
            with frontend_cls(server) as frontend:
                if target == "wire":
                    outcomes, open_loop_s = replay_wire(
                        HttpClient.for_frontend(frontend), plan, offsets)
                else:
                    outcomes, open_loop_s = replay_crowd(frontend, plan,
                                                         offsets)
                    peak = frontend.peak_connections
        snapshot = server.server_stats()
        registry = server.registry_stats()
        workers = server.pool.workers
    allowed = (SHED,) if models == 2 or target == "crowd" else ()
    codes = verify(plan, outcomes, references, allowed)
    return {"plan": plan, "outcomes": outcomes, "codes": codes,
            "snapshot": snapshot, "registry": registry,
            "open_loop_s": open_loop_s, "workers": workers,
            "peak_connections": peak}


def drive_faults(rate_rps: float, requests: int, *,
                 interactive_fraction: float = INTERACTIVE_FRACTION,
                 workers: Optional[int] = None, seed: int = 0) -> Dict:
    """Two-tenant in-process traffic while scripted die faults land.

    :func:`default_chaos_events` arm a seeded
    :class:`~repro.reram.faults.FaultInjector`; checksum guards detect
    each flipped die, the server quarantines, re-programs and retries.
    References come from *before* any fault, so bit-identity proves
    recovery restored the exact die.  After the arrivals, probe rounds
    (one request per tenant) run until every scripted event has applied,
    plus one clean round, so a die flipped at the last dispatch is still
    detected.  Asserts every flip detected and recovered and no event
    left pending.

    Returns ``{"plan", "outcomes", "codes", "snapshot", "health",
    "injected", "max_fault_retries", "open_loop_s", "workers"}``.
    """
    events = default_chaos_events()
    injector = FaultInjector(events, seed=seed)
    server, traffic = build_demo_server(2, deadline_ms=None, workers=workers,
                                        seed=seed, fault_injector=injector)
    with server:
        plan, offsets = plan_traffic(traffic, rate_rps, requests, seed,
                                     interactive_fraction)
        references = serial_references(server, traffic["images"],
                                       (FAST_MODEL, BATCH_MODEL))
        start = time.monotonic()
        outcomes, _ = submit_open_loop(server, plan, offsets)
        probes = [(traffic["images"][0], {"model": model,
                                          "priority": priority}, (model, 0))
                  for model, priority, _ in traffic["cases"]]
        for _ in range(2 + max(event.at_dispatch for event in events)):
            scenario_done = not injector.pending
            probed, _ = submit_open_loop(server, probes, [0.0] * len(probes))
            plan, outcomes = plan + probes, outcomes + probed
            if scenario_done:
                break
        open_loop_s = time.monotonic() - start
        snapshot = server.server_stats()
        health = server.die_health.snapshot()
        workers = server.pool.workers
        max_fault_retries = server.max_fault_retries
    codes = verify(plan, outcomes, references, (SHED, INJECTED_CRASH))
    flips = sum(entry.get("stuck_cells_total", 0) > 0
                for entry in injector.log())
    for counter in ("faults_detected", "fault_recoveries"):
        if snapshot[counter] < flips:
            raise AssertionError(
                f"{flips} dies flipped but {counter} is only "
                f"{snapshot[counter]} — a fault served silently")
    if injector.pending:
        raise AssertionError(
            f"{len(injector.pending)} scripted events never came due — "
            "the scenario needs more dispatches (raise `requests`)")
    return {"plan": plan, "outcomes": outcomes, "codes": codes,
            "snapshot": snapshot, "health": health,
            "injected": injector.log(),
            "max_fault_retries": max_fault_retries,
            "open_loop_s": open_loop_s, "workers": workers}


def drive_kills(rate_rps: float, requests: int, *, replicas: int = 2,
                replication: int = 2, hedge_delay_s: Optional[float] = None,
                interactive_fraction: float = INTERACTIVE_FRACTION,
                workers: int = 1, seed: int = 0) -> Dict:
    """Two-tenant wire traffic through the cluster router while the
    interactive tenant's primary replica is SIGKILLed and restarted.

    ``replicas`` subprocess replicas boot the same deterministic demo
    build; the parent forwards that build serially before any chaos for
    the references.  Requests alternate JSON and base64 payloads and
    carry trace ids.  Past :func:`verify` (receipts ``shed`` and
    ``cluster_unavailable`` allowed) it asserts every served receipt
    echoes its trace id, something completed, the kill/restart schedule
    ran, and every replica answers a probe round afterwards.

    Returns ``{"plan", "outcomes", "codes", "kill_log", "cluster",
    "open_loop_s"}`` (``cluster`` is the final ``/v1/cluster``).
    """
    server, traffic = build_demo_server(2, deadline_ms=None, workers=workers,
                                        seed=seed)
    with server:
        plan, offsets = plan_traffic(traffic, rate_rps, requests, seed,
                                     interactive_fraction)
        references = serial_references(server, traffic["images"],
                                       (FAST_MODEL, BATCH_MODEL))
    for i, (_, kwargs, _) in enumerate(plan):
        kwargs.update(binary=bool(i % 2), trace_id=f"cluster-{seed}-{i}")

    kill_log: List[Dict] = []
    with ClusterHarness(replicas, seed=seed, workers=workers,
                        replication=replication,
                        policy=RoutingPolicy(hedge_delay_s=hedge_delay_s)
                        ) as harness:
        # the failover we claim to survive is the serving replica's,
        # not a cold spare's; kill it while traffic is in flight
        victim = harness.directory.placement(FAST_MODEL)[0]
        kill_at = 0.4 * float(offsets[-1])

        def killer() -> None:
            _sleep_until(start + kill_at)
            for action in ("kill", "restart"):
                getattr(harness, action)(victim)
                kill_log.append({"replica": victim, "action": action,
                                 "at_s": time.monotonic() - start})

        start = time.monotonic()
        chaos = threading.Thread(target=killer, name="forms-cluster-killer",
                                 daemon=True)
        chaos.start()
        outcomes, open_loop_s = replay_wire(harness.client(), plan, offsets)
        chaos.join(timeout=RESOLVE_TIMEOUT_S)
        if chaos.is_alive():
            raise AssertionError("the kill/restart thread hung")
        missing = sorted(name for name, state
                         in harness.directory.probe_once().items()
                         if state != "up")
        if missing:
            raise AssertionError(
                f"replicas {missing} never rejoined after restart")
        status, cluster = harness.client().request("GET", "/v1/cluster")
        if status != 200:
            raise AssertionError(f"/v1/cluster answered {status}")

    codes = verify(plan, outcomes, references, (SHED, CLUSTER_UNAVAILABLE))
    for i, ((_, kwargs, _), outcome) in enumerate(zip(plan, outcomes)):
        result = outcome["result"]
        if (result is not None
                and result.stats.get("trace_id") != kwargs["trace_id"]):
            raise AssertionError(
                f"request {i}: receipt trace_id "
                f"{result.stats.get('trace_id')!r} does not echo the "
                "X-Request-Id sent through the router")
    if _completed(outcomes) == 0:
        raise AssertionError("no request completed — the cluster served "
                             "nothing worth recording")
    if len(kill_log) < 2:
        raise AssertionError("the kill/restart schedule did not complete")
    return {"plan": plan, "outcomes": outcomes, "codes": codes,
            "kill_log": kill_log, "cluster": cluster,
            "open_loop_s": open_loop_s}


# ---------------------------------------------------------------------------
# step 6: one BENCH record per rate point
def _pick(snapshot: Dict, *keys: str) -> Dict:
    return {key: snapshot[key] for key in keys}


def _rtt(outcomes: Sequence[Dict]) -> Dict:
    rtts = np.asarray([outcome["latency_s"] for outcome in outcomes])
    return {"rtt_p50_s": float(np.percentile(rtts, 50)),
            "rtt_p95_s": float(np.percentile(rtts, 95)),
            "rtt_max_s": float(rtts.max())}


def _stat(result, name: str):
    """A receipt field of an in-process (object) or wire (dict) result."""
    stats = result.stats
    return stats[name] if isinstance(stats, dict) else getattr(stats, name)


#: server-side snapshot fields shared by the one-tenant serving records
_QUEUE_FIELDS = ("latency_p50_s", "latency_p95_s", "queue_wait_p95_s",
                 "batches_formed", "mean_batch_size", "max_batch_size",
                 "occupancy")


def _fifo_record(scenario: str, rate_rps: float, requests: int,
                 options: Dict) -> Tuple[Dict, Dict]:
    """``poisson`` / ``http`` / ``async``: one FIFO tenant per target."""
    target = {"poisson": "submit", "http": "wire", "async": "crowd"}[scenario]
    driven = drive(rate_rps, requests, target=target,
                   binary=options["binary"], seed=options["seed"],
                   **_pick(options, "max_batch", "max_wait_ms", "workers",
                           "die_cache"))
    snapshot, outcomes = driven["snapshot"], driven["outcomes"]
    completed = _completed(outcomes)
    results = {"offered_rate_rps": rate_rps,
               "throughput_rps": completed / driven["open_loop_s"],
               **_pick(snapshot, *_QUEUE_FIELDS)}
    meta = {"max_batch": options["max_batch"],
            "max_wait_ms": options["max_wait_ms"],
            "workers": driven["workers"], "seed": options["seed"],
            "activation_bits": ACTIVATION_BITS,
            "bit_identical_to_serial": True}
    if target != "submit":
        results.update(_rtt(outcomes))
        meta.update(transport="http" if target == "wire" else "asyncio",
                    encoding="npy_b64" if options["binary"] else "json")
    if target == "crowd":
        results.update(peak_connections=driven["peak_connections"],
                       requests_completed=completed,
                       requests_shed=driven["codes"].get(SHED, 0))
        meta.update(connections=requests,
                    # the front end runs without transport caps
                    transport_caps={"max_connections": None,
                                    "max_inflight_bytes": None},
                    sheds_documented_receipts=True)
        return results, meta
    results.update(_pick(snapshot, "latency_max_s", "queue_wait_mean_s"))
    if target == "wire":
        results["transport_overhead_p50_s"] = (results["rtt_p50_s"]
                                               - snapshot["latency_p50_s"])
    meta.update(requests=requests, mean_request_batch_size=float(np.mean(
        [_stat(outcome["result"], "batch_size") for outcome in outcomes])))
    return results, meta


def _multitenant_record(rate_rps: float, requests: int,
                        options: Dict) -> Tuple[Dict, Dict]:
    driven = drive(rate_rps, requests, models=2,
                   **_pick(options, "interactive_fraction", "seed",
                           "workers", "die_cache"))
    snapshot, registry = driven["snapshot"], driven["registry"]
    completed = _completed(driven["outcomes"])
    results = {"offered_rate_rps": rate_rps,
               "throughput_rps": completed / driven["open_loop_s"],
               "requests_completed": completed,
               **_pick(snapshot, "requests_shed", "shed_by_reason",
                       "latency_p50_s", "latency_p95_s", "queue_wait_p95_s",
                       "mean_batch_size", "max_batch_size", "occupancy",
                       "per_class", "per_model")}
    meta = {"requests": requests,
            "interactive_fraction": options["interactive_fraction"],
            "deadline_ms": INTERACTIVE_DEADLINE_MS,
            "bulk_shed_after_ms": BULK_SHED_AFTER_MS,
            "max_queue_depth": None,    # no admission control
            "workers": driven["workers"], "seed": options["seed"],
            "activation_bits": ACTIVATION_BITS,
            "models": sorted(registry["models"]),
            "die_cache": registry["die_cache"],
            "bit_identical_to_serial": True}
    return results, meta


def _chaos_record(rate_rps: float, requests: int,
                  options: Dict) -> Tuple[Dict, Dict]:
    driven = drive_faults(rate_rps, requests,
                          **_pick(options, "interactive_fraction", "workers",
                                  "seed"))
    snapshot, health = driven["snapshot"], driven["health"]
    completed = _completed(driven["outcomes"])
    results = {"offered_rate_rps": rate_rps,
               "throughput_rps": completed / driven["open_loop_s"],
               "requests_completed": completed,
               "faults_injected": len(driven["injected"]),
               **_pick(snapshot, "requests_failed", "requests_shed",
                       "shed_by_reason", "faults_detected",
                       "fault_recoveries", "requests_recovered",
                       "latency_p50_s", "latency_p95_s")}
    meta = {"requests": requests,
            "interactive_fraction": options["interactive_fraction"],
            "max_fault_retries": driven["max_fault_retries"],
            "workers": driven["workers"], "seed": options["seed"],
            "activation_bits": ACTIVATION_BITS,
            "models": sorted({key[0] for *_, key in driven["plan"]}),
            "scenario": driven["injected"],
            "die_health": dict(health["counts"],
                               recoveries=health["recoveries"]),
            "bit_identical_to_serial": True, "zero_hung_futures": True}
    return results, meta


def _cluster_record(rate_rps: float, requests: int,
                    options: Dict) -> Tuple[Dict, Dict]:
    workers = 1 if options["workers"] is None else options["workers"]
    driven = drive_kills(rate_rps, requests, workers=workers,
                         **_pick(options, "hedge_delay_s",
                                 "interactive_fraction", "seed"))
    router = driven["cluster"]["router"]
    directory = driven["cluster"]["directory"]
    actions = [entry["action"] for entry in driven["kill_log"]]
    completed = _completed(driven["outcomes"])
    results = {"offered_rate_rps": rate_rps,
               "throughput_rps": completed / driven["open_loop_s"],
               "requests_completed": completed,
               "requests_shed": sum(driven["codes"].values()),
               "shed_by_code": driven["codes"],
               "kills": actions.count("kill"),
               "restarts": actions.count("restart"),
               "router_attempts": router["attempts"],
               "router_failovers": router["failovers"],
               "hedges_fired": router["hedges_fired"],
               "hedges_won": router["hedges_won"],
               "unavailable_receipts": router["unavailable"],
               **_rtt(driven["outcomes"])}
    meta = {"transport": "http-cluster", "requests": requests,
            "replicas": len(directory["replicas"]),
            "replication": directory["replication"],
            "hedge_delay_s": options["hedge_delay_s"],
            "interactive_fraction": options["interactive_fraction"],
            "workers": workers, "seed": options["seed"],
            "kill_log": driven["kill_log"],
            "replica_states": {name: info["state"] for name, info
                               in directory["replicas"].items()},
            "bit_identical_to_serial": True, "zero_hung_futures": True}
    return results, meta


def _obs_record(rate_rps: float, requests: int,
                options: Dict) -> Tuple[Dict, Dict]:
    """The ``poisson`` point armed vs :meth:`Observability.disabled`.

    ``reps`` interleaved repetitions (the leading mode alternates, so
    host drift hits both equally), each mode reduced by the minimum
    over reps.  The headline compares mean dispatch-path service time
    per request (``busy_s / completed``), not latency: the instruments
    live on the submit and dispatch paths, while open-loop latency is
    dominated by queue dynamics that swing tens of percent run to run.
    Raises if the two modes' outputs differ by a single byte.
    """
    reps = options["reps"]
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    die_cache = (options["die_cache"] if options["die_cache"] is not None
                 else DieCache())

    def one(obs) -> Dict:
        return drive(rate_rps, requests, seed=options["seed"], obs=obs,
                     die_cache=die_cache,
                     **_pick(options, "max_batch", "max_wait_ms", "workers"))

    # unrecorded warm-up: die programming and first-touch costs belong
    # to neither mode
    one(Observability.disabled())
    runs: Dict[str, List[Dict]] = {"on": [], "off": []}
    for rep in range(reps):
        for mode in (("on", "off") if rep % 2 == 0 else ("off", "on")):
            runs[mode].append(one(Observability() if mode == "on"
                                  else Observability.disabled()))
    for armed, bare in zip(runs["on"][0]["outcomes"],
                           runs["off"][0]["outcomes"]):
        if not np.array_equal(armed["result"].output, bare["result"].output):
            raise AssertionError(
                "armed vs disabled observability produced different "
                "outputs — instrumentation touched the numerics")

    def best(mode: str, key: str) -> float:
        return min(driven["snapshot"][key] for driven in runs[mode])

    service = {mode: min(snap["occupancy"] * snap["elapsed_s"]
                         / snap["requests_completed"]
                         for snap in (driven["snapshot"]
                                      for driven in runs[mode]))
               for mode in runs}
    overhead_pct = ((service["on"] - service["off"]) / service["off"] * 100.0
                    if service["off"] > 0 else 0.0)
    results = {"offered_rate_rps": rate_rps,
               "service_mean_on_s": service["on"],
               "service_mean_off_s": service["off"],
               "latency_p50_on_s": best("on", "latency_p50_s"),
               "latency_p50_off_s": best("off", "latency_p50_s"),
               "latency_p95_on_s": best("on", "latency_p95_s"),
               "latency_p95_off_s": best("off", "latency_p95_s"),
               "throughput_on_rps": max(requests / driven["open_loop_s"]
                                        for driven in runs["on"]),
               "throughput_off_rps": max(requests / driven["open_loop_s"]
                                         for driven in runs["off"]),
               "overhead_pct": overhead_pct}
    meta = {"requests": requests, "reps": reps,
            "max_batch": options["max_batch"],
            "max_wait_ms": options["max_wait_ms"],
            "workers": runs["on"][0]["workers"], "seed": options["seed"],
            "activation_bits": ACTIVATION_BITS,
            "estimator": "min-over-reps",
            "budget_pct": OBS_OVERHEAD_BUDGET_PCT,
            "within_budget": overhead_pct <= OBS_OVERHEAD_BUDGET_PCT,
            "bit_identical_on_vs_off": True}
    return results, meta


def run_point(scenario: str, rate_rps: float, requests: int, *,
              workers: Optional[int] = None, seed: int = 0,
              die_cache=None, max_batch: int = 8, max_wait_ms: float = 2.0,
              binary: bool = False,
              interactive_fraction: float = INTERACTIVE_FRACTION,
              hedge_delay_s: Optional[float] = None, reps: int = 3) -> Dict:
    """Measure one rate point of a ``bench_load.py`` scenario.

    ``scenario`` is a key of :data:`SCENARIOS`; ``requests`` is the
    connection count of ``async`` and the per-repetition count of
    ``obs``.  Parameters a scenario does not use are ignored: the FIFO
    scenarios (``poisson``/``http``/``async``/``obs``) take
    ``max_batch``/``max_wait_ms``/``die_cache``, the wire ones
    ``binary``, the two-tenant ones ``interactive_fraction``,
    ``cluster`` ``hedge_delay_s`` (and one worker per replica unless
    ``workers`` says otherwise), ``obs`` ``reps``.  The record exists
    only after its driver's contract held.
    """
    options = dict(workers=workers, seed=seed, die_cache=die_cache,
                   max_batch=max_batch, max_wait_ms=max_wait_ms,
                   binary=binary, interactive_fraction=interactive_fraction,
                   hedge_delay_s=hedge_delay_s, reps=reps)
    prefix, kind = SCENARIOS[scenario]
    if scenario in ("poisson", "http", "async"):
        results, meta = _fifo_record(scenario, rate_rps, requests, options)
    else:
        build = {"multitenant": _multitenant_record, "chaos": _chaos_record,
                 "cluster": _cluster_record, "obs": _obs_record}[scenario]
        results, meta = build(rate_rps, requests, options)
    return {"name": record_name(prefix, rate_rps), "kind": kind,
            "results": results, "meta": meta}
