"""Asyncio front end: the PR-5 wire protocol at thousands of connections.

The threaded :class:`~repro.serving.http.HttpFrontend` spends one OS
thread per connection — fine for tens of clients, hopeless for the
ROADMAP's "millions of users" shape where most connections are *idle*
(queued behind the SLA scheduler, or holding a stream open).  This
module serves the **same wire protocol** from a single std-lib
``asyncio`` event loop:

* every encode/decode path is imported from :mod:`repro.serving.http`
  (``encode_array`` / ``decode_input`` / ``result_body`` /
  ``error_body`` / ``shed_body`` / ``_submit_kwargs``), so the threaded
  and async front ends *cannot* drift — one codec, two schedulers;
* request handlers bridge onto the blocking
  :meth:`~repro.serving.server.InferenceServer.submit_async` via
  ``loop.run_in_executor`` (the submit takes the server's shutdown lock
  and touches the registry — off the loop), then ``asyncio.wrap_future``
  awaits the resulting :class:`concurrent.futures.Future` without
  blocking the loop: ten thousand pending requests cost ten thousand
  coroutines, not ten thousand threads;
* ``POST /v1/infer_batch?stream=1`` answers as a **server-sent event
  stream** (``Content-Type: text/event-stream``): one event per item *in
  resolution order* (each carries its request-order ``index``), a
  terminal ``done`` summary, then the connection closes.  The event
  types are :data:`STREAM_EVENTS` — documented in ``docs/serving.md``
  and enforced by ``scripts/check_docs.py``;
* **transport backpressure** rides the same
  :class:`~repro.serving.scheduler.AdmissionController` that throttles
  queue intake: ``max_connections`` refuses new sockets,
  ``max_inflight_bytes`` refuses a request body whose declared length
  would push the resident payload bytes past the cap.  Every refusal is a
  documented :class:`~repro.serving.scheduler.ShedReceipt` (reason
  ``admission``, model/class :data:`TRANSPORT_SCOPE`) routed through
  the server's single shed-record site, so ``/metrics``, ``/v1/stats``
  and ``/v1/usage`` account transport sheds exactly like queue sheds.

Bit-identity is untouched: the front end moves bytes and dict keys; a
decoded response is bit-identical to the in-process ``submit`` result
and the serial single-image forward at any worker count, noise on or
off, JSON or base64 (``tests/serving/test_aio.py``).

Lifecycle mirrors the threaded front end: the event loop runs on one
background thread, :meth:`AsyncFrontend.start` /
:meth:`AsyncFrontend.shutdown` (drain semantics: refuse new work,
resolve or shed everything accepted, close the port), context-manager
support, ``owns_server`` deciding whether shutdown drains the inference
server too.  ``benchmarks/bench_load.py --scenario async`` holds
hundreds of concurrent connections against it and records
``serving_async_r*`` curves.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from functools import partial
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from ..obs import PROMETHEUS_CONTENT_TYPE, instrument
from ..obs.trace import new_trace_id, span_dict
from ..reram.faults import DieFaultDetected
from .http import (DEFAULT_MAX_BODY_BYTES, DEFAULT_RETRY_AFTER_S,
                   _TRACE_ID_RE, WireFormatError, _submit_kwargs,
                   decode_array_b64, decode_array_json, decode_input,
                   error_body, result_body, shed_body)
from .queue import QueueClosed
from .scheduler import RequestShed, SHED_ADMISSION, ShedReceipt

#: the server-sent event types of the streaming path, in emission order
#: (``result`` / ``shed`` interleave in resolution order; exactly one
#: terminal ``done``).  check_docs.py fails the check set if any of
#: these is missing from docs/serving.md.
STREAM_EVENTS = ("result", "shed", "done")

#: model / priority-class label on transport-level shed receipts (a
#: connection or body refused before any model was named)
TRANSPORT_SCOPE = "transport"

_REASONS = {
    200: "OK", 207: "Multi-Status", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 411: "Length Required",
    413: "Payload Too Large", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: asyncio stream-reader buffer limit: bounds a single header *line*
#: (an unbounded request line would buffer arbitrarily); bodies are
#: read with ``readexactly`` and bounded by ``max_body_bytes`` instead
_READER_LIMIT = 1 << 16


class _Conn:
    """Per-connection state: the writer (for drain-time closes) and
    whether a request is currently being handled (idle connections are
    closed outright at drain; busy ones finish their response first)."""

    __slots__ = ("writer", "busy")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.busy = False


class _Request:
    """One parsed request envelope plus the reply bookkeeping."""

    __slots__ = ("method", "path", "query", "headers", "trace_id", "close")

    def __init__(self, method: str, path: str, headers: Dict[str, str]):
        split = urlsplit(path)
        self.method = method
        self.path = split.path
        self.query = parse_qs(split.query)
        self.headers = headers
        supplied = headers.get("x-request-id")
        if supplied is not None and _TRACE_ID_RE.match(supplied):
            self.trace_id = supplied
        else:
            self.trace_id = new_trace_id()
        self.close = False

    def flag(self, name: str) -> bool:
        return self.query.get(name, ["0"])[-1] in ("1", "true", "yes")


class AsyncFrontend:
    """The asyncio front end over one :class:`InferenceServer`.

    Same constructor surface as the threaded
    :class:`~repro.serving.http.HttpFrontend` (host/port,
    ``max_body_bytes``, ``retry_after_s``, ``owns_server``, ``log``)
    plus the transport backpressure knobs:

    ``max_connections`` / ``max_inflight_bytes``:
        When either is given, the front end builds a dedicated
        :class:`~repro.serving.scheduler.AdmissionController` carrying
        just the transport caps.  When neither is given, the *server's*
        admission controller is consulted (``admit_transport`` admits
        everything on an unconfigured controller) — so one controller
        can own both the queue-intake and the transport policy.

    The listening socket, all connection handlers and the SSE streams
    run on one event loop on one daemon thread; :meth:`start` /
    :meth:`shutdown` present the same synchronous lifecycle as the
    threaded front end, so demos, benchmarks and tests drive either
    interchangeably.
    """

    def __init__(self, server, host: str = "127.0.0.1", port: int = 0, *,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
                 retry_after_s: Optional[float] = DEFAULT_RETRY_AFTER_S,
                 owns_server: bool = False, log=None,
                 max_connections: Optional[int] = None,
                 max_inflight_bytes: Optional[int] = None):
        if max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        if retry_after_s is not None and retry_after_s < 0:
            raise ValueError("retry_after_s must be >= 0 (or None)")
        self.server = server
        self.max_body_bytes = max_body_bytes
        self.retry_after_s = retry_after_s
        self.owns_server = owns_server
        self.log = log
        if max_connections is not None or max_inflight_bytes is not None:
            from .scheduler import AdmissionController
            self.admission = AdmissionController(
                max_connections=max_connections,
                max_inflight_bytes=max_inflight_bytes)
        else:
            self.admission = getattr(server, "admission", None)
        self._requested = (host, port)
        self._draining = False
        self._shut_down = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._aio_server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._sockname: Tuple[str, int] = (host, port)
        # loop-thread-only gauges (read cross-thread by scrape hooks —
        # plain int reads are atomic under the GIL)
        self._conns: set = set()
        self._inflight_bytes = 0
        self.peak_connections = 0
        obs = server.obs
        self._m_conns = instrument(obs.metrics, "forms_async_connections")
        self._m_bytes = instrument(obs.metrics, "forms_async_inflight_bytes")
        self._m_streams = instrument(obs.metrics, "forms_streams_total")
        self._m_events = instrument(obs.metrics, "forms_stream_events_total")
        obs.add_scrape_hook(self._refresh_gauges)

    # -- address -----------------------------------------------------------
    @property
    def host(self) -> str:
        return self._sockname[0]

    @property
    def port(self) -> int:
        return self._sockname[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def connections(self) -> int:
        """Open sockets right now (a racy gauge, like queue depth)."""
        return len(self._conns)

    def _refresh_gauges(self) -> None:
        self._m_conns.set(len(self._conns))
        self._m_bytes.set(self._inflight_bytes)

    def _log(self, line: str) -> None:
        if self.log is not None:
            self.log(line)

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "AsyncFrontend":
        if self._thread is not None:
            raise RuntimeError("frontend already started")
        self._thread = threading.Thread(target=self._run_loop,
                                        name="forms-aio", daemon=True)
        self._thread.start()
        self._started.wait()
        if self._start_error is not None:
            error, self._start_error = self._start_error, None
            self._thread.join()
            raise error
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            host, port = self._requested
            self._aio_server = loop.run_until_complete(asyncio.start_server(
                self._handle_connection, host, port, limit=_READER_LIMIT))
            self._sockname = \
                self._aio_server.sockets[0].getsockname()[:2]
        except BaseException as exc:   # surface bind errors to start()
            self._start_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            # resolve any still-pending callbacks, then free the loop
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            loop.close()

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Drain and stop.  Idempotent; same order as the threaded end:
        (1) flip :attr:`draining` so new POSTs answer 503
        ``"shutting_down"``; (2) drain the owned inference server — every
        accepted request resolves (served or shed with a receipt), so
        handlers and streams blocked on futures finish with real bytes,
        never a wedged socket; (3) close the listener, close idle
        keep-alive connections, wait out busy handlers, stop the loop."""
        if self._shut_down:
            return
        self._shut_down = True
        self._draining = True
        if self.owns_server:
            self.server.shutdown(timeout)
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        bound = timeout if timeout is not None else 10.0
        if thread.is_alive():
            drain = asyncio.run_coroutine_threadsafe(
                self._drain_async(bound), loop)
            try:
                drain.result(bound + 1.0)
            except Exception:   # noqa: BLE001 — shutdown must not raise
                pass
            loop.call_soon_threadsafe(loop.stop)
        thread.join(bound)

    async def _drain_async(self, timeout: float) -> None:
        if self._aio_server is not None:
            self._aio_server.close()
            await self._aio_server.wait_closed()
        # idle keep-alive connections are parked in readline() waiting
        # for a request that will never come — close them outright;
        # busy ones flush their in-flight response first
        for conn in list(self._conns):
            if not conn.busy:
                conn.writer.close()
        deadline = time.monotonic() + timeout
        while self._conns and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        for conn in list(self._conns):   # stragglers: abort, never hang
            conn.writer.close()

    def __enter__(self) -> "AsyncFrontend":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- wire plumbing -------------------------------------------------------
    def _head(self, status: int, content_type: str,
              length: Optional[int], *, trace_id: Optional[str] = None,
              retry_after: Optional[float] = None,
              close: bool = False) -> bytes:
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
                 "Server: forms-serving-aio/1",
                 f"Content-Type: {content_type}"]
        if length is not None:
            lines.append(f"Content-Length: {length}")
        if trace_id is not None:
            lines.append(f"X-Request-Id: {trace_id}")
        if retry_after is not None:
            lines.append(f"Retry-After: {retry_after:g}")
        lines.append("Connection: close" if close else
                     "Connection: keep-alive")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _reply(self, writer: asyncio.StreamWriter, request: _Request,
                     status: int, body: Dict) -> None:
        retry_after = self.retry_after_s if status == 503 else None
        error = body.get("error")
        if isinstance(error, dict):
            if retry_after is not None:
                error.setdefault("retry_after_s", retry_after)
            error.setdefault("trace_id", request.trace_id)
        data = json.dumps(body).encode("utf-8")
        writer.write(self._head(status, "application/json", len(data),
                                trace_id=request.trace_id,
                                retry_after=retry_after,
                                close=request.close) + data)
        await writer.drain()

    async def _reply_error(self, writer, request, status: int, code: str,
                           message: str, **extra) -> None:
        await self._reply(writer, request, status,
                          error_body(code, message, **extra))

    async def _reply_text(self, writer, request, status: int, text: str,
                          content_type: str = PROMETHEUS_CONTENT_TYPE
                          ) -> None:
        data = text.encode("utf-8")
        writer.write(self._head(status, content_type, len(data),
                                trace_id=request.trace_id,
                                close=request.close) + data)
        await writer.drain()

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Tuple[List[str], Dict[str, str]]]:
        """Parse one request head; ``None`` means EOF / unparseable."""
        try:
            line = await reader.readline()
        except (ValueError, ConnectionError, asyncio.LimitOverrunError):
            return None
        if not line:
            return None
        parts = line.decode("latin-1").split()
        headers: Dict[str, str] = {}
        while True:
            try:
                hline = await reader.readline()
            except (ValueError, ConnectionError, asyncio.LimitOverrunError):
                return None
            if hline in (b"\r\n", b"\n", b""):
                break
            name, sep, value = hline.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        return parts, headers

    def _transport_shed(self, trace_id: str, detail: str) -> RequestShed:
        """Build + account one transport-level admission refusal.

        The receipt rides the server's single shed-record site, so the
        stats window, ``forms_requests_shed_total`` and the usage meter
        bill transport sheds under :data:`TRANSPORT_SCOPE` exactly like
        queue sheds — the acceptance criterion's "sheds only as
        documented receipts" includes backpressure.
        """
        receipt = ShedReceipt(
            request_id=-1, model=TRANSPORT_SCOPE,
            priority_class=TRANSPORT_SCOPE, reason=SHED_ADMISSION,
            queue_wait_s=0.0, trace_id=trace_id)
        record = getattr(self.server, "_record_shed", None)
        if record is not None:
            record(receipt)
        self._log(f"transport shed: {detail}")
        return RequestShed(receipt)

    # -- connection loop -----------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        if (self.admission is not None
                and not self.admission.admit_transport(
                    len(self._conns), self._inflight_bytes)):
            # refused before reading a byte: answer 503 shed and close
            # (our client reads the early response instead of the pipe)
            request = _Request("", "/", {})
            request.close = True
            exc = self._transport_shed(request.trace_id,
                                       f"connection refused at "
                                       f"{len(self._conns)} open")
            try:
                await self._reply(writer, request, 503, shed_body(exc))
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        conn = _Conn(writer)
        self._conns.add(conn)
        self.peak_connections = max(self.peak_connections, len(self._conns))
        try:
            while True:
                head = await self._read_request(reader)
                if head is None:
                    break
                conn.busy = True
                try:
                    keep = await self._dispatch(reader, writer, head)
                finally:
                    conn.busy = False
                if not keep or self._draining:
                    break
        except (ConnectionError, OSError):
            pass   # client went away; accepted work still resolves
        finally:
            self._conns.discard(conn)
            writer.close()

    async def _dispatch(self, reader, writer, head) -> bool:
        """Serve one request; returns whether to keep the connection."""
        parts, headers = head
        if len(parts) != 3:
            request = _Request("", "/", headers)
            request.close = True
            await self._reply_error(writer, request, 400, "invalid_request",
                                    "unparseable request line")
            return False
        request = _Request(parts[0], parts[1], headers)
        if headers.get("connection", "").lower() == "close":
            request.close = True
        try:
            if request.method == "GET":
                await self._handle_get(writer, request)
            elif request.method == "POST":
                await self._handle_post(reader, writer, request)
            else:
                request.close = True
                await self._reply_error(
                    writer, request, 405, "method_not_allowed",
                    f"method {request.method!r} is not part of the protocol")
        except (ConnectionError, OSError):
            return False
        self._log(f"{request.method} {request.path}")
        return not request.close

    # -- GET endpoints -------------------------------------------------------
    async def _handle_get(self, writer, request: _Request) -> None:
        server = self.server
        loop = asyncio.get_running_loop()
        path = request.path
        if path == "/healthz":
            await self._handle_healthz(writer, request)
        elif path == "/v1/stats":
            body = await loop.run_in_executor(None, server.server_stats)
            await self._reply(writer, request, 200, body)
        elif path == "/v1/models":
            body = await loop.run_in_executor(None, server.registry_stats)
            await self._reply(writer, request, 200, body)
        elif path == "/metrics":
            text = await loop.run_in_executor(None, server.metrics_text)
            await self._reply_text(writer, request, 200, text)
        elif path == "/v1/usage":
            body = await loop.run_in_executor(None, server.usage_snapshot)
            await self._reply(writer, request, 200, body)
        elif path.startswith("/v1/trace/"):
            record = server.trace(path[len("/v1/trace/"):])
            if record is None:
                await self._reply_error(
                    writer, request, 404, "not_found",
                    "no stored trace for that id (never seen, evicted "
                    "from the ring, or tracing is disabled)")
            else:
                await self._reply(writer, request, 200, record)
        elif path in ("/v1/infer", "/v1/infer_batch"):
            await self._reply_error(writer, request, 405,
                                    "method_not_allowed",
                                    f"{path} requires POST")
        else:
            await self._reply_error(writer, request, 404, "not_found",
                                    f"unknown path {path!r}")

    async def _handle_healthz(self, writer, request: _Request) -> None:
        draining = self.draining
        body = {
            "status": "draining" if draining else "ok",
            "draining": draining,
            "models": self.server.registry.names(),
        }
        health = getattr(self.server, "die_health", None)
        if health is not None:
            body["dies"] = health.counts()
            if not draining and health.degraded:
                body["status"] = "degraded"
        await self._reply(writer, request, 503 if draining else 200, body)

    # -- POST endpoints ------------------------------------------------------
    async def _read_body(self, reader, writer,
                         request: _Request) -> Optional[bytes]:
        """Bounded body read mirroring the threaded ``_read_body``."""
        length_header = request.headers.get("content-length")
        if length_header is None:
            request.close = True
            await self._reply_error(writer, request, 411, "length_required",
                                    "POST requires a Content-Length header")
            return None
        try:
            length = int(length_header)
            if length < 0:
                raise ValueError
        except ValueError:
            request.close = True
            await self._reply_error(
                writer, request, 400, "invalid_request",
                "Content-Length is not a non-negative integer")
            return None
        if length > self.max_body_bytes:
            request.close = True
            await self._reply_error(
                writer, request, 413, "body_too_large",
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte bound",
                max_body_bytes=self.max_body_bytes)
            return None
        try:
            return await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            request.close = True
            await self._reply_error(writer, request, 400, "invalid_request",
                                    "truncated request body")
            return None

    async def _handle_post(self, reader, writer, request: _Request) -> None:
        if request.path not in ("/v1/infer", "/v1/infer_batch"):
            request.close = True
            if request.path in ("/healthz", "/v1/stats", "/v1/models",
                                "/metrics", "/v1/usage") \
                    or request.path.startswith("/v1/trace/"):
                await self._reply_error(writer, request, 405,
                                        "method_not_allowed",
                                        f"{request.path} requires GET")
            else:
                await self._reply_error(writer, request, 404, "not_found",
                                        f"unknown path {request.path!r}")
            return
        try:
            declared = max(0, int(request.headers.get("content-length", 0)))
        except ValueError:
            declared = 0   # _read_body rejects the bad header with a 400
        if (self.admission is not None
                and not self.admission.admit_transport(
                    len(self._conns), self._inflight_bytes + declared)):
            # refuse before buffering the body — the whole point of the
            # inflight-bytes bound: the check charges the *declared*
            # length, so a body that would push residency past the cap
            # never gets read.  Unread body ⇒ the connection cannot be
            # reused.
            request.close = True
            exc = self._transport_shed(
                request.trace_id,
                f"body of {declared} bytes refused at "
                f"{self._inflight_bytes} bytes in flight")
            await self._reply(writer, request, 503, shed_body(exc))
            return
        body = await self._read_body(reader, writer, request)
        if body is None:
            return
        if self.draining:
            await self._reply_error(writer, request, 503, "shutting_down",
                                    "the server is draining; request refused")
            return
        self._inflight_bytes += len(body)
        try:
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                await self._reply_error(
                    writer, request, 400, "malformed_json",
                    f"request body is not valid JSON: {exc}")
                return
            if not isinstance(payload, dict):
                await self._reply_error(writer, request, 400,
                                        "malformed_json",
                                        "request body must be a JSON object")
                return
            try:
                if request.path == "/v1/infer":
                    await self._handle_infer(writer, request, payload)
                else:
                    await self._handle_infer_batch(writer, request, payload)
            except WireFormatError as exc:
                await self._reply_error(writer, request, exc.status,
                                        exc.code, str(exc))
            except RequestShed as exc:
                await self._reply(writer, request, 503, shed_body(exc))
            except QueueClosed as exc:
                await self._reply_error(writer, request, 503,
                                        "shutting_down", str(exc))
            except DieFaultDetected as exc:
                await self._reply_error(writer, request, 503, "die_fault",
                                        str(exc))
            except RuntimeError as exc:
                if "shut down" in str(exc):
                    await self._reply_error(writer, request, 503,
                                            "shutting_down", str(exc))
                else:
                    await self._reply_error(writer, request, 500,
                                            "internal", str(exc))
            except (ConnectionError, OSError):
                raise
            except Exception as exc:   # noqa: BLE001 — the wire must answer
                await self._reply_error(writer, request, 500, "internal",
                                        f"{type(exc).__name__}: {exc}")
        finally:
            self._inflight_bytes -= len(body)

    async def _submit(self, image, kwargs) -> asyncio.Future:
        """The executor bridge: enqueue off-loop, await without blocking."""
        loop = asyncio.get_running_loop()
        try:
            future = await loop.run_in_executor(
                None, partial(self.server.submit_async, image, **kwargs))
        except ValueError as exc:
            raise WireFormatError(400, "invalid_input", str(exc))
        return asyncio.wrap_future(future, loop=loop)

    async def _handle_infer(self, writer, request: _Request,
                            payload: Dict) -> None:
        image, binary = decode_input(payload)
        kwargs = _submit_kwargs(self.server, payload)
        kwargs["trace_id"] = request.trace_id
        result = await (await self._submit(image, kwargs))
        await self._reply(writer, request, 200, result_body(result, binary))

    async def _handle_infer_batch(self, writer, request: _Request,
                                  payload: Dict) -> None:
        has_json = "inputs" in payload
        has_b64 = "inputs_b64" in payload
        raw = payload.get("inputs_b64" if has_b64 else "inputs")
        if has_json == has_b64 or not isinstance(raw, list) or not raw:
            raise WireFormatError(
                400, "invalid_request",
                "pass exactly one non-empty list: 'inputs' (nested JSON "
                "arrays) or 'inputs_b64' (base64 .npy strings)")
        binary = has_b64
        images = [decode_array_b64(item) if binary
                  else decode_array_json(item) for item in raw]
        kwargs = _submit_kwargs(self.server, payload)
        kwargs["trace_id"] = request.trace_id
        loop = asyncio.get_running_loop()
        futures: List[asyncio.Future] = []
        submit_error = None
        for index, image in enumerate(images):
            try:
                raw_future = await loop.run_in_executor(
                    None,
                    partial(self.server.submit_async, image, **kwargs))
            except (ValueError, RuntimeError) as exc:
                submit_error = (index, exc)
                break
            futures.append(asyncio.wrap_future(raw_future, loop=loop))
        if submit_error is not None:
            # never strand what was already enqueued
            for future in futures:
                try:
                    await future
                except RequestShed:
                    pass
            index, exc = submit_error
            if isinstance(exc, RuntimeError) and "shut down" in str(exc):
                code, status = "shutting_down", 503
            else:
                code, status = "invalid_input", 400
            await self._reply_error(writer, request, status, code,
                                    f"inputs[{index}]: {exc}", index=index)
            return
        if request.flag("stream"):
            await self._stream_results(writer, request, futures, binary)
            return
        items: List[Dict] = []
        served = shed = 0
        for future in futures:
            try:
                result = await future
                items.append(result_body(result, binary))
                served += 1
            except RequestShed as exc:
                items.append(shed_body(exc))
                shed += 1
        status = 200 if shed == 0 else (503 if served == 0 else 207)
        await self._reply(writer, request, status,
                          {"results": items, "completed": served,
                           "shed": shed})

    # -- the SSE streaming path ----------------------------------------------
    async def _write_event(self, writer, event: str, body: Dict) -> None:
        assert event in STREAM_EVENTS, f"undocumented event type {event!r}"
        data = json.dumps(body)
        writer.write(f"event: {event}\ndata: {data}\n\n".encode("utf-8"))
        await writer.drain()
        self._m_events.labels(event).inc()

    async def _stream_results(self, writer, request: _Request,
                              futures: List[asyncio.Future],
                              binary: bool) -> None:
        """Emit one SSE event per item *as it resolves* plus a ``done``.

        Events carry the request-order ``index`` so an out-of-order
        resolution is still attributable; a shed item is an event, not a
        dropped stream.  A client that disconnects mid-stream aborts the
        emission only — the enqueued work still resolves server-side
        (receipts and all), so a torn stream never strands a future.
        """
        start = time.perf_counter()
        request.close = True   # SSE has no Content-Length: close delimits
        writer.write(self._head(200, "text/event-stream", None,
                                trace_id=request.trace_id, close=True)
                     .replace(b"\r\n\r\n",
                              b"\r\nCache-Control: no-store\r\n\r\n"))
        await writer.drain()

        async def resolve(index: int, future: asyncio.Future):
            try:
                return index, await future, None
            except RequestShed as exc:
                return index, None, exc

        tasks = [asyncio.ensure_future(resolve(index, future))
                 for index, future in enumerate(futures)]
        served = shed = 0
        outcome = "completed"
        try:
            for task in asyncio.as_completed(tasks):
                index, result, exc = await task
                if exc is None:
                    body = result_body(result, binary)
                    body["index"] = index
                    await self._write_event(writer, "result", body)
                    served += 1
                else:
                    body = shed_body(exc)
                    body["index"] = index
                    error = body["error"]
                    if self.retry_after_s is not None:
                        error.setdefault("retry_after_s", self.retry_after_s)
                    error.setdefault("trace_id", request.trace_id)
                    await self._write_event(writer, "shed", body)
                    shed += 1
            await self._write_event(writer, "done",
                                    {"completed": served, "shed": shed})
        except (ConnectionError, OSError):
            outcome = "aborted"
            for task in tasks:   # drain: the futures resolve regardless
                try:
                    await task
                except Exception:   # noqa: BLE001 — already accounted
                    pass
            raise
        finally:
            self._m_streams.labels(outcome).inc()
            obs = self.server.obs
            if obs.tracing:
                obs.traces.put({
                    "trace_id": f"{request.trace_id}.stream",
                    "stream": {"outcome": outcome, "completed": served,
                               "shed": shed, "items": len(futures)},
                    "spans": [span_dict(
                        "stream", time.perf_counter() - start,
                        start_s=0.0, outcome=outcome, items=len(futures),
                        completed=served, shed=shed)],
                })
