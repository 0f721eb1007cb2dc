"""Compiled inference sessions: encode weights once, serve batches.

:func:`repro.nn.functional.run_model_functional` is a one-shot API: every
call re-materialises the pruned weights of every layer, re-derives every
weight-side encoding and reduction inside the engines, and serves exactly
one image.  A serving deployment does the opposite — the weights are
static for the session lifetime and requests arrive in batches — which is
precisely the amortisation the paper's bitmap encoding is designed for
(Section IV: encode once, execute many).

:func:`compile_model` builds a :class:`CompiledModel`:

* every layer's pruned weights are materialised once (memoized across
  compiles via :mod:`repro.nn.synthetic`) and encoded once as a
  persistent :class:`~repro.core.operands.EncodedOperand` — the
  closed-form statistics summary and the per-k non-zero counts are
  cached at compile time; the CSR encoding (on the first exact-engine
  multiply that encodes the weight side) or the float64 copy and
  condensed K-panels (on the first blocked multiply) attach later and
  persist for the session lifetime;
* :meth:`CompiledModel.run` serves a whole batch: per layer, the B
  per-image operands are stacked along the fused GEMM's batch axis (the
  lowered-row M dimension for conv layers, the transposed-activation N
  dimension for GEMM layers) and pushed through the engine in one pass,
  then split back into per-image outputs.

Bit-identity contract
---------------------

``session.run(batch).per_image[i]`` equals
``run_model_functional(model, ..., image=i, keep_outputs=True)`` exactly:
same numeric outputs bit for bit, same value in every
:class:`~repro.core.spgemm_device.DeviceStats` field.  Three properties
make this hold (asserted in ``tests/nn/test_session.py``):

* the engine backend is resolved from the *per-image* GEMM shape, never
  the fused one, so a batch never changes which engine semantics apply;
* the vectorized engine's CSR x dense product is fold-safe — every
  output element is summed from its own row of A and column of B in
  ascending ``k``, independently of all other rows and columns, and
  which side gets encoded never changes the result — so vectorized
  layers genuinely execute as one fused SpGEMM over the stacked operand;
* BLAS matmuls are *not* fold-safe (thread splits and kernel selection
  change with the operand shape), so blocked layers keep per-image panel
  products inside the batched call; the fused work they share is the
  session-cached weight side (condensed K-panels, float64 view, per-k
  counts, statistics summary).

Per-image statistics are composed from the cached weight-side summary
and the image's own operand summary; the fused run's statistics are, by
definition, their sum (:meth:`SessionRun.layer_stats`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.engine import vectorized_numeric_product
from repro.core.im2col_engine import lower_windows, pad_feature_map
from repro.core.operands import EncodedOperand, device_stats_from_operands
from repro.core.reference import conv_output_shape
from repro.core.spconv import CompiledConvWeights
from repro.core.spgemm_device import (
    BACKENDS,
    DeviceStats,
    device_spgemm,
    resolve_backend,
)
from repro.core.spgemm_warp import WarpTileConfig
from repro.errors import ConfigError
from repro.kernels.layer_spec import ConvLayerSpec, GemmLayerSpec
from repro.nn.functional import FunctionalLayerRun, FunctionalModelRun
from repro.nn.models import ModelDefinition, get_model
from repro.nn.synthetic import (
    conv_feature_map,
    conv_layer_weights,
    gemm_activations,
    gemm_layer_weights,
    scaled_conv_hw,
    scaled_gemm_rows,
)
from repro.sparsity.statistics import sparsity as sparsity_of


@dataclass(frozen=True)
class CompiledLayer:
    """One layer with its weights materialised and encoded for reuse.

    Attributes:
        spec: the layer spec from the model database.
        kind: ``"conv"`` or ``"gemm"``.
        weight_operand: the encoded static GEMM operand — the flattened
            (K*K*C, N) weights on side B for conv layers, the transposed
            (N, K) weights on side A for GEMM layers.
        weight_sparsity: measured zero fraction of the pruned weights.
        out_h / out_w: scaled spatial output shape (conv layers only).
        m_rows: scaled batch-row count (GEMM layers only).
    """

    spec: "ConvLayerSpec | GemmLayerSpec"
    kind: str
    weight_operand: EncodedOperand
    weight_sparsity: float
    out_h: int = 0
    out_w: int = 0
    m_rows: int = 0


@dataclass(frozen=True)
class SessionRun:
    """One served batch: per-image runs plus fused accounting.

    Attributes:
        model: model name.
        images: the served image ids, in batch order.
        per_image: one :class:`FunctionalModelRun` per image (outputs
            kept), each bit-identical to the corresponding
            ``run_model_functional(..., image=i, keep_outputs=True)``.
    """

    model: str
    images: tuple[int, ...]
    per_image: tuple[FunctionalModelRun, ...]

    @property
    def batch(self) -> int:
        """Number of images served by this run."""
        return len(self.images)

    @property
    def ohmma_issued(self) -> int:
        """OHMMA instructions issued across the whole batch."""
        return sum(run.ohmma_issued for run in self.per_image)

    @property
    def ohmma_dense(self) -> int:
        """OHMMA instructions a dense execution of the batch would issue."""
        return sum(run.ohmma_dense for run in self.per_image)

    @property
    def instruction_speedup(self) -> float:
        """Batch-wide dense / sparse OHMMA ratio."""
        issued = self.ohmma_issued
        if issued == 0:
            return float(self.ohmma_dense) if self.ohmma_dense else 1.0
        return self.ohmma_dense / issued

    def layer_stats(self) -> tuple[DeviceStats, ...]:
        """Fused per-layer statistics: the sum over the batch's images."""
        return tuple(
            DeviceStats.summed(run.layers[index].stats for run in self.per_image)
            for index in range(len(self.per_image[0].layers))
        )

    def total_stats(self) -> DeviceStats:
        """Fused whole-batch statistics (sum over images and layers)."""
        return DeviceStats.summed(
            layer.stats for run in self.per_image for layer in run.layers
        )


@dataclass(frozen=True)
class CompiledModel:
    """A model compiled for serving: weights encoded once, run many times.

    Build with :func:`compile_model`; serve with :meth:`run`.
    """

    model: ModelDefinition
    scale: float
    seed: int
    tile_config: WarpTileConfig
    backend: str
    element_bytes: int
    memo: bool
    layers: tuple[CompiledLayer, ...]
    pruning: "str | None" = None

    @property
    def name(self) -> str:
        """Model name from the registry."""
        return self.model.name

    def weight_bytes_dense(self) -> int:
        """Dense size of all compiled weight operands, in bytes."""
        return sum(
            layer.weight_operand.summary(
                self.tile_config, self.element_bytes
            ).dense_bytes
            for layer in self.layers
        )

    def weight_bytes_encoded(self) -> int:
        """Two-level-bitmap size of all compiled weight operands, in bytes."""
        return sum(
            layer.weight_operand.summary(
                self.tile_config, self.element_bytes
            ).footprint_bytes
            for layer in self.layers
        )

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def run(self, batch) -> SessionRun:
        """Serve one batch of images through every layer.

        Args:
            batch: either an image count (serves images ``0..batch-1``)
                or an explicit sequence of image ids.

        Returns:
            The per-image runs (outputs kept) plus fused accounting.
        """
        if isinstance(batch, (int, np.integer)):
            if batch < 1:
                raise ConfigError(f"batch must be >= 1, got {batch}")
            images = tuple(range(int(batch)))
        else:
            images = tuple(int(i) for i in batch)
            if not images:
                raise ConfigError("batch must contain at least one image")
        per_layer: list[list[FunctionalLayerRun]] = []
        for layer in self.layers:
            if layer.kind == "conv":
                per_layer.append(self._run_conv_layer(layer, images))
            else:
                per_layer.append(self._run_gemm_layer(layer, images))
        per_image = tuple(
            FunctionalModelRun(
                model=self.name,
                layers=tuple(runs[index] for runs in per_layer),
            )
            for index in range(len(images))
        )
        return SessionRun(model=self.name, images=images, per_image=per_image)

    def run_image(self, image: int = 0) -> FunctionalModelRun:
        """Serve a single image (a batch of one)."""
        return self.run([image]).per_image[0]

    # ------------------------------------------------------------------ #
    # Layer execution
    # ------------------------------------------------------------------ #
    def _run_conv_layer(
        self, layer: CompiledLayer, images: tuple[int, ...]
    ) -> list[FunctionalLayerRun]:
        """Batch-fold one conv layer along the lowered-row M dimension."""
        spec = layer.spec
        w_op = layer.weight_operand
        feature_maps = [
            conv_feature_map(
                self.name, spec, self.seed, image=i, scale=self.scale,
                memo=self.memo,
            )
            for i in images
        ]
        # The strided-window gather produces the lowered matrix
        # bit-identically to the bitmap im2col simulation (the engines
        # assert so), without re-simulating the register-level path per
        # served request.
        lowered = [
            lower_windows(
                pad_feature_map(fm, spec.padding),
                spec.kernel,
                spec.stride,
                layer.out_h,
                layer.out_w,
            )
            for fm in feature_maps
        ]
        m_img, k_dim = lowered[0].shape
        n_dim = spec.out_channels
        resolved = resolve_backend(self.backend, m_img, k_dim, n_dim)

        if resolved == "vectorized":
            stats = [
                device_stats_from_operands(
                    EncodedOperand(low, "a", persistent=False),
                    w_op,
                    self.tile_config,
                    self.element_bytes,
                )
                for low in lowered
            ]
            fused = lowered[0] if len(lowered) == 1 else np.concatenate(lowered)
            out = vectorized_numeric_product(fused, w_op)
            outputs = [
                out[index * m_img : (index + 1) * m_img]
                for index in range(len(images))
            ]
        else:
            results = [
                device_spgemm(
                    low,
                    w_op,
                    config=self.tile_config,
                    element_bytes=self.element_bytes,
                    backend=resolved,
                )
                for low in lowered
            ]
            stats = [result.stats for result in results]
            outputs = [result.output for result in results]

        runs = []
        for index, fm in enumerate(feature_maps):
            output = (
                outputs[index]
                .reshape(layer.out_h, layer.out_w, n_dim)
                .transpose(2, 0, 1)
            )
            runs.append(
                FunctionalLayerRun(
                    layer=spec.name,
                    kind="conv",
                    gemm_shape=(m_img, k_dim, n_dim),
                    weight_sparsity=layer.weight_sparsity,
                    activation_sparsity=sparsity_of(
                        fm.reshape(spec.in_channels, -1)
                    ),
                    stats=stats[index],
                    output=output,
                )
            )
        return runs

    def _run_gemm_layer(
        self, layer: CompiledLayer, images: tuple[int, ...]
    ) -> list[FunctionalLayerRun]:
        """Batch-fold one GEMM layer along the transposed-activation N axis."""
        spec = layer.spec
        w_op = layer.weight_operand
        activations = [
            gemm_activations(
                self.name, spec, self.seed, image=i, scale=self.scale,
                memo=self.memo,
            )
            for i in images
        ]
        m_rows = layer.m_rows
        resolved = resolve_backend(self.backend, spec.n, spec.k, m_rows)

        if resolved == "vectorized":
            stats = [
                device_stats_from_operands(
                    w_op,
                    EncodedOperand(act.T, "b", persistent=False),
                    self.tile_config,
                    self.element_bytes,
                )
                for act in activations
            ]
            fused = (
                activations[0] if len(activations) == 1 else np.vstack(activations)
            ).T
            out = vectorized_numeric_product(w_op, fused)
            outputs = [
                out[:, index * m_rows : (index + 1) * m_rows]
                for index in range(len(images))
            ]
        else:
            results = [
                device_spgemm(
                    w_op,
                    act.T,
                    config=self.tile_config,
                    element_bytes=self.element_bytes,
                    backend=resolved,
                )
                for act in activations
            ]
            stats = [result.stats for result in results]
            outputs = [result.output for result in results]

        return [
            FunctionalLayerRun(
                layer=spec.name,
                kind="gemm",
                gemm_shape=(spec.n, spec.k, m_rows),
                weight_sparsity=layer.weight_sparsity,
                activation_sparsity=sparsity_of(act),
                stats=stats[index],
                output=outputs[index],
            )
            for index, act in enumerate(activations)
        ]


def compile_model(
    model: "ModelDefinition | str",
    scale: float = 1.0,
    seed: int = 2021,
    tile_config: WarpTileConfig | None = None,
    backend: str = "auto",
    element_bytes: int = 2,
    memo: bool = True,
    pruning: "str | None" = None,
) -> CompiledModel:
    """Compile a model into a serving session.

    Materialises and encodes every layer's pruned weights once: the
    statistics summaries and per-k counts are warmed eagerly; the exact
    engine's CSR encoding or the blocked engine's float64 copy and
    condensed K-panels attach on the first batch and persist for the
    session lifetime.

    Args:
        model: a :class:`ModelDefinition` or registry name.
        scale: data-dimension shrink factor (see
            :func:`~repro.nn.functional.run_model_functional`).
        seed: RNG seed shared with the per-image oracle.
        tile_config: warp-tile geometry shared by all layers.
        backend: SpGEMM backend, resolved per *per-image* GEMM shape.
        element_bytes: operand element width for traffic accounting.
        memo: reuse memoized synthetic operands across compiles and runs
            (see :mod:`repro.nn.synthetic`); disable for timing studies
            that must regenerate inputs every run.
        pruning: named pruning method from
            :data:`repro.pruning.methods.PRUNING_METHODS` applied to the
            synthetic weights instead of the model's native pattern.
            The pruned weights are encoded once like any other static
            weights, and the per-image oracle is
            ``run_model_functional(..., pruning=pruning)``.
    """
    if isinstance(model, str):
        model = get_model(model)
    if not 0.0 < scale <= 1.0:
        raise ConfigError(f"scale must be in (0, 1], got {scale}")
    if backend not in BACKENDS:
        raise ConfigError(
            f"unknown backend {backend!r}; available: {list(BACKENDS)}"
        )
    tile_config = tile_config or WarpTileConfig()
    layers: list[CompiledLayer] = []
    if model.kind == "cnn":
        for spec in model.conv_layers:
            weights = conv_layer_weights(
                model.name, spec, seed, memo=memo, pruning=pruning
            )
            compiled = CompiledConvWeights.from_dense(weights)
            height, width = scaled_conv_hw(spec, scale)
            out_h, out_w = conv_output_shape(
                height, width, spec.kernel, spec.stride, spec.padding
            )
            layers.append(
                CompiledLayer(
                    spec=spec,
                    kind="conv",
                    weight_operand=compiled.operand.warm(
                        tile_config, element_bytes
                    ),
                    weight_sparsity=compiled.weight_sparsity,
                    out_h=out_h,
                    out_w=out_w,
                )
            )
    else:
        for spec in model.gemm_layers:
            weights = gemm_layer_weights(
                model.name, spec, seed, model.weight_pattern, memo=memo,
                pruning=pruning,
            )
            operand = EncodedOperand.for_a(weights.T).warm(
                tile_config, element_bytes
            )
            layers.append(
                CompiledLayer(
                    spec=spec,
                    kind="gemm",
                    weight_operand=operand,
                    weight_sparsity=operand.sparsity,
                    m_rows=scaled_gemm_rows(spec, scale),
                )
            )
    return CompiledModel(
        model=model,
        scale=scale,
        seed=seed,
        tile_config=tile_config,
        backend=backend,
        element_bytes=element_bytes,
        memo=memo,
        layers=tuple(layers),
        pruning=pruning,
    )
