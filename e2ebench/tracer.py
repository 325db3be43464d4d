"""In-memory span tracing around the public entry points of each layer.

The benchmark wraps calls into the program from outside: installing a
:class:`Tracer` replaces a function or method with a wrapper that records
one span ``(name, start, end, parent, value)`` per call on the calling
thread, and uninstalling restores the original object.  Spans stay in
per-thread lists until the run ends; parents are the enclosing traced
call on the same thread, which is what self times are computed from.
Timestamps are ``time.monotonic()`` (system-wide on Linux), so spans from
the server process line up with the client's.
"""

from __future__ import annotations

import bisect
import functools
import statistics
import threading
from time import monotonic
from typing import Callable, Dict, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, VALUE = range(5)

#: spans that are one network layer's forward (the runtime-overhead base)
LAYER_SPANS = ("layer.forward", "nn.relu", "nn.flatten")


class Tracer:
    """Span recorder with install/uninstall of entry-point wrappers."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: List[List] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _spans(self) -> List:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = []
            self._local.stack = []
            with self._lock:
                self._buffers.append(spans)
        return spans

    def wrap(self, owner, attr: str, name: str,
             label: Optional[Callable] = None,
             value: Optional[Callable] = None) -> None:
        """Trace calls to ``owner.attr`` as spans called ``name``.

        ``label(args)`` (if given) names the span instead — evaluated
        before the clock starts, so classification never lands inside the
        timed bracket; ``value(args)`` attaches one number to the span.
        """
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            spans = tracer._spans()
            stack = tracer._local.stack
            span_name = name if label is None else label(args)
            span_value = None if value is None else value(args)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = monotonic()
            try:
                return original(*args, **kwargs)
            finally:
                end = monotonic()
                stack.pop()
                spans[index] = (span_name, start, end, parent, span_value)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def buffers(self) -> List[List]:
        """Spans, one list per thread; a still-open span reads as an empty
        ``"open"`` span, so parent indices stay valid."""
        with self._lock:
            return [[span if span is not None else ("open", 0.0, 0.0, -1, None)
                     for span in spans] for spans in self._buffers]

    # -- entry points --------------------------------------------------------
    def install_engine(self) -> None:
        """Runtime, network-layer, lowering and engine entry points."""
        import repro.runtime.network as runtime_network
        import repro.serving.server as serving_server
        from repro.nn import Flatten, ReLU
        from repro.nn import functional
        from repro.reram import (ADCSpec, InSituConv2d, InSituLayerEngine,
                                 InSituLinear)
        from repro.reram import nonideal_engine

        def images(args):
            return len(args[1])

        # infer_tiled resolves infer_tiles in the runtime module; the
        # server imported its own binding
        self.wrap(runtime_network, "infer_tiles", "runtime.infer_tiles",
                  value=images)
        self.wrap(serving_server, "infer_tiles", "runtime.infer_tiles",
                  value=images)
        self.wrap(InSituConv2d, "forward", "layer.forward")
        self.wrap(InSituLinear, "forward", "layer.forward")
        self.wrap(ReLU, "forward", "nn.relu")
        self.wrap(Flatten, "forward", "nn.flatten")
        self.wrap(functional, "im2col", "nn.im2col")
        self.wrap(InSituLayerEngine, "matvec_int", "mvm",
                  label=lambda args: "mvm." + args[0].dispatch_tier())
        self.wrap(nonideal_engine, "first_order_currents",
                  "irdrop.first_order")
        self.wrap(ADCSpec, "digitize", "adc.digitize")

    def install_server(self) -> None:
        from repro.serving import InferenceServer
        self.wrap(InferenceServer, "submit_async", "server.submit")

    def install_http(self) -> None:
        """Server-side wire entry points (run inside the server process)."""
        import http.server
        import repro.serving.http as wire
        for attr in ("decode_input", "decode_array_json", "decode_array_b64"):
            self.wrap(wire, attr, "http.decode")
        self.wrap(wire, "result_body", "http.encode")
        self.wrap(http.server.BaseHTTPRequestHandler, "handle_one_request",
                  "http.handle")


# ---------------------------------------------------------------------------
# reductions over finished spans
def iter_spans(buffers: Sequence[List]):
    for spans in buffers:
        yield from spans


def top_level(buffers: Sequence[List], name: str) -> List[Tuple]:
    """Spans called ``name`` not nested in another span of that name."""
    found = []
    for spans in buffers:
        for span in spans:
            if span[NAME] != name:
                continue
            parent = span[PARENT]
            while parent >= 0 and spans[parent][NAME] != name:
                parent = spans[parent][PARENT]
            if parent < 0:
                found.append(span)
    return found


def durations(spans: Sequence[Tuple]) -> List[float]:
    return [span[END] - span[START] for span in spans]


def total_by_prefix(buffers: Sequence[List], prefix: str) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for span in iter_spans(buffers):
        if span[NAME].startswith(prefix):
            totals[span[NAME]] = (totals.get(span[NAME], 0.0)
                                  + span[END] - span[START])
    return totals


def count_by_prefix(buffers: Sequence[List], prefix: str) -> int:
    return sum(1 for span in iter_spans(buffers)
               if span[NAME].startswith(prefix))


def self_time(buffers: Sequence[List], name: str) -> float:
    """Summed duration of ``name`` spans minus their traced children."""
    total = 0.0
    for spans in buffers:
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        for index, span in enumerate(spans):
            if span[NAME] == name:
                total += span[END] - span[START] - child_time[index]
    return total


def _union(intervals: List[Tuple[float, float]]) -> List[List[float]]:
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def covered_time(windows: Sequence[Tuple[float, float]],
                 parts: Sequence[Tuple[float, float]]) -> float:
    """Total time inside ``windows`` covered by at least one of ``parts``
    (across threads: overlapping parts count once)."""
    merged = _union(list(parts))
    starts = [interval[0] for interval in merged]
    total = 0.0
    for lo, hi in windows:
        index = max(0, bisect.bisect_right(starts, lo) - 1)
        while index < len(merged) and merged[index][0] < hi:
            overlap = min(hi, merged[index][1]) - max(lo, merged[index][0])
            if overlap > 0:
                total += overlap
            index += 1
    return total


def engine_layer_metrics(buffers: Sequence[List]) -> Dict[str, float]:
    """Per-layer metrics of the runtime, ``nn`` and ``reram`` layers.

    Per-image figures divide by the images that went through traced
    ``infer_tiles`` calls.
    """
    tiles = [span for span in iter_spans(buffers)
             if span[NAME] == "runtime.infer_tiles"]
    images = sum(span[VALUE] for span in tiles) or 1
    tile_time = sum(durations(tiles))
    layer_parts = [(span[START], span[END]) for span in iter_spans(buffers)
                   if span[NAME] in LAYER_SPANS]
    layer_cover = covered_time([(s[START], s[END]) for s in tiles],
                               layer_parts)
    mvm = total_by_prefix(buffers, "mvm.")
    per_img = 1e3 / images
    metrics = {
        "runtime.infer_tiles_ms_p50": (
            statistics.median(durations(tiles)) * 1e3 if tiles else 0.0),
        "runtime.overhead_frac": (1.0 - layer_cover / tile_time
                                  if tile_time else 0.0),
        "nn.im2col_ms_per_img": sum(durations(
            top_level(buffers, "nn.im2col"))) * per_img,
        "nn.relu_ms_per_img": sum(durations(
            top_level(buffers, "nn.relu"))) * per_img,
        "layer.requant_ms_per_img": self_time(buffers,
                                              "layer.forward") * per_img,
        "mvm.ms_per_img": sum(mvm.values()) * per_img,
        "mvm.calls_per_img": count_by_prefix(buffers, "mvm.") / images,
    }
    for tier in ("exact", "integer", "analog"):
        metrics[f"mvm.{tier}_ms_per_img"] = mvm.get(f"mvm.{tier}",
                                                    0.0) * per_img
    metrics["irdrop.first_order_ms_per_img"] = sum(durations(
        top_level(buffers, "irdrop.first_order"))) * per_img
    metrics["adc.digitize_ms_per_img"] = sum(durations(
        top_level(buffers, "adc.digitize"))) * per_img
    return metrics


def dump(buffers: Sequence[List]) -> List[List]:
    """JSON-ready copy of the spans (tuples become lists)."""
    return [[list(span) for span in spans] for spans in buffers]
