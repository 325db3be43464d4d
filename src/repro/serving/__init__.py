"""Multi-tenant, SLA-scheduled request serving over the parallel runtime.

The "traffic" layer of the stack, grown from the PR-3 batch server into a
multiplexed one: several in-situ networks share one
:class:`~repro.runtime.WorkerPool` and one :class:`~repro.reram.DieCache`
(:class:`ModelRegistry` — FORMS's programmed dies are the scarce
resource, so identical weight codes across tenants program one die), and
an SLA scheduler replaces the FIFO batcher: requests carry a priority
class and an optional deadline, dispatch is strict class precedence with
earliest-deadline-first inside a class, overdue requests are **shed**
with an explicit receipt (:class:`RequestShed` / :class:`ShedReceipt` —
never a hang, never dispatched), and an :class:`AdmissionController`
throttles intake from the occupancy/queue-depth gauges.

Callers still submit **single images**; every batch dispatches as one
tile per request on the shared pool, so a served request stays
**bit-identical** to a standalone single-image call at any batch
composition, worker count, tenant mix and scheduling outcome (shedding
one class never perturbs survivors), read noise included.

Components
----------
* :class:`ModelRegistry` / :class:`RegisteredModel` — the tenant table:
  register/unregister/warm-up, per-model request shapes, die-reuse stats.
* :class:`SlaPolicy` / :class:`PriorityClass` / :class:`SlaQueue` — the
  scheduling policy and the multi-class queue behind the dispatch loop;
  :meth:`SlaPolicy.fifo` is the degenerate single-class policy the
  classic FIFO server runs on.
* :class:`AdmissionController` — intake throttle on the
  :class:`ServerStats` gauges.
* :class:`InferenceServer` — the facade: ``submit(image, model=...,
  priority=..., deadline_s=...)`` / ``submit_async`` / ``submit_many``,
  graceful draining ``shutdown``, and ``from_model(...)`` lowering a
  float model through :func:`repro.reram.build_insitu_network`.
* :class:`RequestQueue` / :class:`Batcher` — the FIFO queue (retained)
  and the dispatch loop shared by both queue shapes.
* :class:`HttpFrontend` / :class:`HttpClient` — the wire: a std-lib
  threaded HTTP front end exposing ``submit`` as ``POST /v1/infer``
  (plus ``/v1/infer_batch``, ``/v1/models``, ``/v1/stats``,
  ``/healthz``) with structured shed/admission errors and a draining
  shutdown — protocol reference in ``docs/serving.md``.
* :class:`AsyncFrontend` (:mod:`repro.serving.aio`) — the same wire
  protocol on one asyncio event loop: thousands of multiplexed
  connections bridged onto ``submit_async`` via ``run_in_executor``,
  server-sent-event streaming (``POST /v1/infer_batch?stream=1``,
  event types :data:`STREAM_EVENTS`), and connection-count /
  inflight-bytes backpressure through
  :meth:`AdmissionController.admit_transport` — transport refusals are
  :data:`TRANSPORT_SCOPE` shed receipts, accounted like queue sheds.
  The SLA policy's ``weighted_fair`` mode (deficit-round-robin with
  aging over the class ``weight``s) keeps bulk progressing under
  interactive saturation; ``strict`` keeps the historical precedence.
* :class:`ClusterRouter` / :class:`ReplicaDirectory` /
  :class:`ClusterHarness` (:mod:`repro.serving.cluster`) — the sharded
  cluster over N replica front ends: consistent-hash placement,
  health-checked failover and hedging, scatter/gather batches,
  ``cluster_unavailable`` receipts, and the subprocess kill/restart
  chaos harness behind ``python -m repro serve --cluster N``.
* :class:`ServerStats` / :class:`RequestStats` — the operational view
  (p50/p95 latency overall and per class / per model, shed counts by
  reason, queue depth, batch mix, occupancy, fault detections and
  recoveries) and the per-request receipt (queue wait, batch ridden,
  model, class, the exact per-request slice of the shared engines'
  merged ``EngineStats``, and — after a die recovery — the recovery
  receipt).
* :class:`~repro.obs.Observability` (re-exported from :mod:`repro.obs`)
  — the telemetry bundle every server and router carries by default:
  the ``/metrics`` Prometheus exposition, the ``/v1/trace/<id>`` span
  ring, the ``/v1/usage`` per-tenant meter and the opt-in engine
  profiler — all read-only w.r.t. numerics (``docs/observability.md``).
* :class:`DieHealthRegistry` — per-die health states
  (``healthy`` / ``quarantined`` / ``reprogramming``) behind the
  ``/healthz`` die-pool summary; driven by the dispatch path's online
  fault recovery (checksum detection via
  :class:`~repro.reram.faults.DieGuard`, quarantine, re-program through
  the shared die cache, bounded batch retry — ``detect_faults=True`` on
  the server; scripted chaos via
  :class:`~repro.reram.faults.FaultInjector`).  Retry-exhausted batches
  shed with :data:`SHED_FAULT_RECOVERY` receipts.

``benchmarks/bench_load.py`` drives this layer through the open-loop
load driver in :mod:`repro.perf.load` — single-tenant and multi-tenant
traffic, in process, over the wire and as a connection crowd, under die
faults and replica kills — and records the curves into
``BENCH_engine.json``; ``python -m repro serve`` runs self-checking
demos on the same driver (``--http`` puts them on a socket).
"""

from ..obs import Observability
from .aio import STREAM_EVENTS, TRANSPORT_SCOPE, AsyncFrontend
from .cluster import (ClusterHarness, ClusterRouter, ReplicaDirectory,
                      ReplicaProcess, RoutingPolicy)
from .health import (DIE_HEALTHY, DIE_QUARANTINED, DIE_REPROGRAMMING,
                     DieHealthRegistry)
from .http import (DEFAULT_RETRY_AFTER_S, ERROR_CODES, HttpClient, HttpError,
                   HttpFrontend, WireFormatError, WireResult, iter_sse_events,
                   new_trace_id)
from .queue import Batcher, PendingRequest, QueueClosed, RequestQueue
from .registry import ModelRegistry, RegisteredModel
from .scheduler import (SHED_ADMISSION, SHED_DEADLINE, SHED_FAULT_RECOVERY,
                        SHED_LATENCY_BOUND, SLA_MODE_STRICT,
                        SLA_MODE_WEIGHTED_FAIR, SLA_MODES,
                        AdmissionController, PriorityClass, RequestShed,
                        ShedReceipt, SlaPolicy, SlaQueue, SlaRequest)
from .server import DEFAULT_MODEL, InferenceServer
from .stats import RequestStats, ServedResult, ServerStats

__all__ = [
    "AdmissionController", "AsyncFrontend", "Batcher", "ClusterHarness",
    "ClusterRouter",
    "DEFAULT_MODEL", "DEFAULT_RETRY_AFTER_S",
    "DIE_HEALTHY", "DIE_QUARANTINED", "DIE_REPROGRAMMING",
    "DieHealthRegistry", "ERROR_CODES",
    "HttpClient", "HttpError", "HttpFrontend", "InferenceServer",
    "ModelRegistry", "Observability", "PendingRequest", "PriorityClass",
    "QueueClosed",
    "RegisteredModel", "ReplicaDirectory", "ReplicaProcess",
    "RequestQueue", "RequestShed", "RequestStats", "RoutingPolicy",
    "SHED_ADMISSION", "SHED_DEADLINE", "SHED_FAULT_RECOVERY",
    "SHED_LATENCY_BOUND",
    "SLA_MODES", "SLA_MODE_STRICT", "SLA_MODE_WEIGHTED_FAIR",
    "STREAM_EVENTS", "ServedResult",
    "ServerStats", "ShedReceipt", "SlaPolicy", "SlaQueue", "SlaRequest",
    "TRANSPORT_SCOPE", "WireFormatError", "WireResult", "iter_sse_events",
    "new_trace_id",
]
