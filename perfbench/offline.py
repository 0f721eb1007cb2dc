"""Offline batch workloads: closed-loop session batches on fresh images.

Each step of the closed loop serves one batch of every model of the
workload (``CompiledModel.run``), and the next step starts when it ends.
The *busy* regime serves full batches and gives ``images_per_s``; the
*light* regime serves batches of one image, the latency a lone request
sees.  The two interleave; latency samples are step wall times.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from common import (
    MODEL_SEED,
    SETUP_REPEATS,
    ImageIds,
    median,
    peak_rss_mb,
    percentile,
    sim_counts,
    sim_metrics,
    tail_note,
)
from tracing import (
    SESSION,
    Tracer,
    dnn_layer_times,
    install_batch_layers,
    layer_self_times,
)


@dataclass(frozen=True)
class BatchWorkload:
    """Models as ``(registry name, data scale)`` plus the busy batch size."""

    models: tuple[tuple[str, float], ...]
    batch: int


WORKLOADS = {
    # Full resolution: every GEMM is at least AUTO_BLOCKED_MIN_WORK, so
    # every layer takes the BLAS K-panel engine.  ResNet-18 covers the
    # conv/im2col path, BERT the transposed-GEMM path.
    "blas-b8": BatchWorkload(
        models=(("ResNet-18", 1.0), ("BERT-base Encoder", 1.0)), batch=8
    ),
    # Quarter resolution: every layer falls below AUTO_BLOCKED_MIN_WORK,
    # so the per-k vectorized engine does the products.  Batch 4 is the
    # server's default batch cap.
    "vec-q-b4": BatchWorkload(models=(("ResNet-18", 0.25),), batch=4),
}

#: Share of the measured seconds spent in light (one-image) steps.
LIGHT_SHARE = 0.2
#: Images per model checked against the per-image oracle.
ORACLE_IMAGES = 2
#: Short names of the per-model throughput metrics.
MODEL_KEYS = {"ResNet-18": "resnet18", "BERT-base Encoder": "bert"}
#: Rounds of floor matmuls; the fastest counts.
FLOOR_REPEATS = 5

#: Per-layer metric name -> traced layer (self time per image served).
LAYER_METRICS = {
    "nn.synthetic.s": "nn.synthetic",
    "core.im2col.s": "core.im2col",
    "core.operands.stats_s": "core.operands",
    "core.engine_blocked.s": "core.engine_blocked",
    "core.engine.s": "core.engine",
    "core.spgemm_device.self_s": "core.spgemm_device",
    "nn.session.self_s": SESSION,
}


@dataclass
class Phase:
    """One regime of the closed loop."""

    steps: list[float] = field(default_factory=list)
    images: int = 0
    model_images: dict = field(default_factory=lambda: defaultdict(int))
    model_seconds: dict = field(default_factory=lambda: defaultdict(float))
    first_runs: list = field(default_factory=list)


def _setup(workload: BatchWorkload, images: ImageIds, tracer):
    """Compile every model from scratch and warm it with one image."""
    from repro.nn.session import compile_model
    from repro.nn.synthetic import clear_operand_memo

    clear_operand_memo()
    if tracer is not None:
        tracer.set_context(("setup", 0))
    start = time.perf_counter()
    sessions = []
    for name, scale in workload.models:
        session = compile_model(name, scale=scale, seed=MODEL_SEED)
        session.run(images.take(1))
        sessions.append(session)
    return time.perf_counter() - start, sessions


def _step(phase: Phase, label, sessions, batch, images, tracer) -> None:
    """Serve one batch of ``batch`` fresh images per model."""
    if tracer is not None:
        tracer.set_context((label, len(phase.steps)))
    step_start = time.perf_counter()
    for session in sessions:
        ids = images.take(batch)
        t0 = time.perf_counter()
        run = session.run(ids)
        elapsed = time.perf_counter() - t0
        phase.model_images[session.name] += len(ids)
        phase.model_seconds[session.name] += elapsed
        phase.images += len(ids)
        if not phase.steps:
            phase.first_runs.append(run)
    phase.steps.append(time.perf_counter() - step_start)


def _run_loop(sessions, batch, seconds, images, tracer) -> tuple[Phase, Phase]:
    """Interleave busy and light steps for ``seconds``.

    The next step is light while light steps have taken less than
    :data:`LIGHT_SHARE` of the time so far, so both regimes sample the
    host over the whole run instead of one stretch each.
    """
    busy, light = Phase(), Phase()
    stop = time.perf_counter() + seconds
    while not (busy.steps and light.steps) or time.perf_counter() < stop:
        busy_s, light_s = sum(busy.steps), sum(light.steps)
        if busy.steps and light_s < LIGHT_SHARE * (busy_s + light_s):
            _step(light, "light", sessions, 1, images, tracer)
        else:
            _step(busy, "busy", sessions, batch, images, tracer)
    return busy, light


@dataclass
class Pass:
    """One measured pass: set-up, busy and light regimes."""

    setup_times: list[float]
    sessions: list
    busy: Phase
    light: Phase
    batch: int
    rss_mb: float

    @property
    def attempted(self) -> int:
        return self.busy.images + self.light.images

    def end_to_end(self, failed: int) -> dict:
        return {
            "setup_s": median(self.setup_times),
            # Images per step over the median step: robust to a burst
            # of host noise hitting one step.
            "images_per_s": self.busy.images
            / len(self.busy.steps)
            / median(self.busy.steps),
            "peak_rss_mb": self.rss_mb,
            "ok_share": 1.0 - failed / self.attempted,
            "light.p50_ms": percentile(self.light.steps, 50) * 1e3,
            "light.p99_ms": percentile(self.light.steps, 99) * 1e3,
            "busy.p50_ms": percentile(self.busy.steps, 50) * 1e3,
            "busy.p99_ms": percentile(self.busy.steps, 99) * 1e3,
        }

    def notes(self) -> dict:
        return {
            "light": f"step = one 1-image batch per model, {tail_note(len(self.light.steps))}",
            "busy": f"step = one {self.batch}-image batch per model, {tail_note(len(self.busy.steps))}",
        }


def _measure(workload, images, seconds, tracer=None) -> Pass:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        elapsed, sessions = _setup(workload, images, tracer)
        setup_times.append(elapsed)
    # One untimed full batch per model, so the allocator has grown to
    # full-batch buffers before the timed loop starts.
    _step(Phase(), "warm", sessions, workload.batch, images, tracer)
    busy, light = _run_loop(sessions, workload.batch, seconds, images, tracer)
    return Pass(setup_times, sessions, busy, light, workload.batch, peak_rss_mb())


def _same_run(got, want) -> bool:
    """Per-image outputs bit-identical and every DeviceStats field equal."""
    if len(got.layers) != len(want.layers):
        return False
    for mine, ref in zip(got.layers, want.layers):
        if (
            mine.layer != ref.layer
            or mine.output.dtype != ref.output.dtype
            or not np.array_equal(mine.output, ref.output)
            or mine.stats != ref.stats
        ):
            return False
    return True


def _check_oracle(measured: Pass, rng):
    """Compare a seeded sample of the first busy step against the oracle.

    Returns the mismatch count, the oracle runs' modelled counts and the
    checked (session, image) pairs.
    """
    from repro.nn.functional import run_model_functional

    mismatched = 0
    counts = []
    checked = []
    for session, run in zip(measured.sessions, measured.busy.first_runs):
        picks = rng.choice(len(run.images), size=ORACLE_IMAGES, replace=False)
        for index in sorted(int(p) for p in picks):
            image = run.images[index]
            want = run_model_functional(
                session.model,
                scale=session.scale,
                seed=session.seed,
                image=image,
                keep_outputs=True,
            )
            if not _same_run(run.per_image[index], want):
                mismatched += 1
            counts.extend(sim_counts(layer.stats) for layer in want.layers)
            checked.append((session, image))
    return mismatched, counts, checked


def _floor_per_layer(session, image: int) -> dict[str, float]:
    """One plain float64 matmul per layer over the image's operands.

    Each layer's floor is the fastest of :data:`FLOOR_REPEATS` rounds
    over all layers: a floor is a lower bound, and spreading the repeats
    over time keeps a stall of the BLAS threads out of it.
    """
    from repro.core.im2col_engine import lower_windows, pad_feature_map
    from repro.nn.synthetic import conv_feature_map, gemm_activations

    operands = {}
    for layer in session.layers:
        spec = layer.spec
        weights = np.array(layer.weight_operand.dense, dtype=np.float64)
        if layer.kind == "conv":
            feature_map = conv_feature_map(
                session.name, spec, session.seed, image=image, scale=session.scale
            )
            lowered = lower_windows(
                pad_feature_map(feature_map, spec.padding),
                spec.kernel, spec.stride, layer.out_h, layer.out_w,
            )
            operands[spec.name] = (
                np.ascontiguousarray(lowered, dtype=np.float64), weights
            )
        else:
            activations = gemm_activations(
                session.name, spec, session.seed, image=image, scale=session.scale
            )
            operands[spec.name] = (
                weights, np.ascontiguousarray(activations.T, dtype=np.float64)
            )
    floors = dict.fromkeys(operands, float("inf"))
    for _ in range(FLOOR_REPEATS):
        for name, (a, b) in operands.items():
            start = time.perf_counter()
            np.matmul(a, b)
            floors[name] = min(floors[name], time.perf_counter() - start)
    return floors


def _layer_metrics(traced: Pass, tracer: Tracer, checked) -> tuple[dict, dict, list]:
    """Per-layer self times per image, floor ratio and product calls."""
    spans = [
        span for span in tracer.spans
        if isinstance(span.context, tuple) and span.context[0] == "busy"
    ]
    images = traced.busy.images
    own = layer_self_times(spans)
    session_s = sum(span.duration for span in spans if span.name == SESSION)
    metrics = {"nn.session.s": session_s / images}
    for metric, layer in LAYER_METRICS.items():
        metrics[metric] = own.get(layer, 0.0) / images
    batches = len(traced.busy.steps) * len(traced.sessions)
    products = sum(
        1 for span in spans if span.name in ("core.engine", "core.engine_blocked")
    )
    metrics["core.product_calls"] = products / batches

    floors = {}
    for session, image in checked:
        if session.name not in floors:
            floors[session.name] = _floor_per_layer(session, image)
    floor_s = sum(
        traced.busy.model_images[name] * sum(layers.values())
        for name, layers in floors.items()
    )
    metrics["nn.session.floor_s"] = floor_s / images
    metrics["nn.session.floor_ratio"] = session_s / floor_s

    self_sum = sum(own.values())
    checks = {
        "layer_self_sum_s": self_sum,
        "session_s": session_s,
        "self_times_add_up": abs(self_sum - session_s) <= 1e-9 * max(1, len(spans)),
    }
    breakdown = []
    for (model, layer), seconds in sorted(dnn_layer_times(spans).items()):
        per_image = seconds / traced.busy.model_images[model]
        floor = floors[model][layer]
        breakdown.append({
            "model": model, "layer": layer,
            "session_ms_per_image": per_image * 1e3,
            "floor_ms_per_image": floor * 1e3,
            "floor_ratio": per_image / floor,
        })
    return metrics, checks, breakdown


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one batch workload; see ``run.py`` for the result shape."""
    workload = WORKLOADS[name]
    rng = np.random.default_rng(seed)
    if not trace:
        measured = _measure(workload, ImageIds(seed), seconds)
        failed, _, _ = _check_oracle(measured, rng)
        return {
            "attempted": measured.attempted,
            "failed": failed,
            "correct": failed == 0,
            "metrics": measured.end_to_end(failed),
            "notes": measured.notes(),
        }

    # Traced run: an untraced pass, then the same pass traced; the
    # difference of their end-to-end metrics is the tracing overhead.
    plain = _measure(workload, ImageIds(seed, lane=0), seconds / 2)
    plain_failed, _, _ = _check_oracle(plain, rng)
    plain_e2e = plain.end_to_end(plain_failed)
    plain.sessions.clear()
    plain.busy.first_runs.clear()
    tracer = Tracer()
    install_batch_layers(tracer)
    try:
        traced = _measure(workload, ImageIds(seed, lane=1), seconds / 2, tracer)
    finally:
        tracer.uninstall()
    traced_failed, counts, checked = _check_oracle(traced, rng)
    failed = plain_failed + traced_failed
    metrics, checks, breakdown = _layer_metrics(traced, tracer, checked)
    for model, key in MODEL_KEYS.items():
        count = plain.busy.model_images.get(model, 0)
        metrics[f"{key}.images_per_s"] = (
            count / plain.busy.model_seconds[model] if count else 0.0
        )
    metrics.update(sim_metrics(counts))
    traced_e2e = traced.end_to_end(traced_failed)
    for key, value in traced_e2e.items():
        metrics[f"trace_overhead.{key}"] = value - plain_e2e[key]
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "correct": failed == 0 and checks["self_times_add_up"],
        "metrics": metrics,
        "notes": {"untraced": plain_e2e, "traced": traced_e2e, **checks},
        "spans": tracer.dump(),
        "dnn_layers": breakdown,
    }
