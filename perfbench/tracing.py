"""Spans recorded around the public functions each layer exposes.

The program under test carries no instrumentation of its own, so the
traced runs install these wrappers from outside: each listed attribute
is replaced by a wrapper that records one :class:`Span` per call and
restored afterwards.  A span's *self time* is its duration minus the
durations of its direct children; children never overlap within one
thread, so the self times of every span under a root add up to the
root's duration exactly.

Spans live in memory (``Tracer.spans``) and are written out when the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

#: Batch-path layers: (module, attribute, layer name).  The attributes
#: are the names the calling module looks up at call time, so wrapping
#: them catches every call the session makes and nothing else.
BATCH_LAYERS = (
    ("repro.nn.session", "conv_feature_map", "nn.synthetic"),
    ("repro.nn.session", "gemm_activations", "nn.synthetic"),
    ("repro.nn.session", "pad_feature_map", "core.im2col"),
    ("repro.nn.session", "lower_windows", "core.im2col"),
    ("repro.nn.session", "device_stats_from_operands", "core.operands"),
    ("repro.core.engine_blocked", "device_stats_from_operands", "core.operands"),
    ("repro.core.engine_blocked", "blocked_numeric_product", "core.engine_blocked"),
    ("repro.nn.session", "vectorized_numeric_product", "core.engine"),
    ("repro.nn.session", "device_spgemm", "core.spgemm_device"),
)

#: Root span of every batch: one session run.
SESSION = "nn.session"
#: Server-side spans: the batch execution and the per-image digests.
EXEC = "serving.exec"
DIGEST = "serving.digest"


@dataclass
class Span:
    """One timed call: ``start``/``end`` in ``time.perf_counter`` seconds.

    ``parent`` is the id of the enclosing span on the same thread;
    ``context`` is the batch or request id the caller set (see
    :meth:`Tracer.set_context`); ``meta`` holds call details such as
    the model, image ids or DNN layer.
    """

    id: int
    name: str
    start: float
    end: float
    parent: "int | None"
    context: object
    thread: int
    meta: "dict | None"

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def set_context(self, context) -> None:
        """Tag the spans this thread records from now on."""
        self._local.context = context

    def wrap(self, owner, attr: str, name: str, meta=None, new_context=False):
        """Replace ``owner.attr`` by a span-recording wrapper.

        Args:
            meta: optional ``f(*args, **kwargs) -> dict`` stored on the span.
            new_context: the span's own id becomes this thread's context,
                so later spans (such as the digests of a batch) can name
                the batch they belong to.
        """
        original = getattr(owner, attr)
        local = self._local

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            info = meta(*args, **kwargs) if meta is not None else None
            if new_context:
                local.context = span_id
            context = getattr(local, "context", None)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(
                    span_id, name, start, end, parent, context,
                    threading.get_ident(), info,
                ))

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self) -> list[dict]:
        """The spans as JSON-ready dicts."""
        return [asdict(span) for span in self.spans]


def _session_meta(session, batch, *args, **kwargs) -> dict:
    return {"model": session.name, "images": [int(i) for i in batch]}


def _synthetic_meta(model, spec, *args, **kwargs) -> dict:
    return {"layer": spec.name}


def install_batch_layers(tracer: Tracer) -> None:
    """Wrap every batch-path layer of the table above plus the session run."""
    from repro.nn.session import CompiledModel

    for module, attr, name in BATCH_LAYERS:
        meta = _synthetic_meta if name == "nn.synthetic" else None
        tracer.wrap(importlib.import_module(module), attr, name, meta=meta)
    tracer.wrap(CompiledModel, "run", SESSION, meta=_session_meta)


def install_server_layers(tracer: Tracer) -> None:
    """Wrap the server's batch execution and its per-image digests."""
    import repro.serving.server as server
    from repro.nn.session import CompiledModel

    tracer.wrap(CompiledModel, "run", EXEC, meta=_session_meta, new_context=True)
    tracer.wrap(server, "functional_run_digest", DIGEST)


def self_times(spans) -> dict[int, float]:
    """Self time of every span: its duration minus its direct children's."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent in own:
            own[span.parent] -= span.duration
    return own


def layer_self_times(spans) -> dict[str, float]:
    """Summed self time per layer name."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.id]
    return dict(totals)


def dnn_layer_times(spans) -> dict[tuple[str, str], float]:
    """Wall time per (model, DNN layer) inside the session runs.

    The session serves a batch layer by layer and starts each layer by
    synthesizing its operands, so a DNN layer's interval runs from its
    first synthesis span to the next layer's (or to the end of the run).
    """
    children = defaultdict(list)
    for span in spans:
        children[span.parent].append(span)
    totals: dict[tuple[str, str], float] = defaultdict(float)
    for run in spans:
        if run.name != SESSION:
            continue
        starts: list[tuple[float, str]] = []
        for child in sorted(children[run.id], key=lambda s: s.start):
            layer = (child.meta or {}).get("layer")
            if layer is not None and (not starts or starts[-1][1] != layer):
                starts.append((child.start, layer))
        bounds = [start for start, _ in starts[1:]] + [run.end]
        for (start, layer), end in zip(starts, bounds):
            totals[(run.meta["model"], layer)] += end - start
    return dict(totals)
