"""Vectorized functional execution engine for the device-level SpGEMM.

:func:`repro.core.spgemm_device.device_spgemm` historically walked every
(warp-tile pair, reduction step) in Python, which capped the functional
path at a few thousand elements per side.  This module is the exact fast
replacement: the numeric product is one compiled CSR x dense product
over the sparser operand (bit-identical to the reference loop), while
the full :class:`~repro.core.spgemm_device.DeviceStats` is derived in
closed form from the same per-segment non-zero reductions that power
:func:`~repro.core.spgemm_device.count_device_instructions`.

The closed-form reductions live in :mod:`repro.core.operands`: every
cross-operand statistic factors into dot products of per-side per-``k``
vectors, which an :class:`~repro.core.operands.EncodedOperand` caches
for the lifetime of a serving session, together with the CSR encoding
of a static operand.  Operands may therefore arrive either dense or
pre-encoded; the engine computes identical results (and statistics) in
both cases.

For Figure 21/22-sized shapes the K-panel blocked engine
(:mod:`repro.core.engine_blocked`) replaces the sparse product with BLAS
matmuls; it reuses this module's closed-form statistics unchanged.

The engine is cross-checked against the reference loop (kept behind
``backend="reference"``) in ``tests/core/test_engine.py``: numeric output
and every statistics field — instruction counts, merge traffic, tile
skips, compressed footprints — match exactly, including on
non-tile-aligned shapes and empty matrices.

Why the numerics are bit-identical
----------------------------------

The reference path sums, for every output element ``(i, j)``, the
partial products ``a[i, k] * b[k, j]`` of the condensed non-zeros,
starting from ``+0.0`` and taking ``k`` in ascending order (k-tiles are
visited in order and each warp tile iterates its steps in order).

The engine encodes one operand as a float64 CSR — the rows of A, or the
columns of B — with ``k`` ascending within each row, and multiplies it
by the other operand held dense (SciPy's ``csr_matvecs`` kernel).  The
kernel walks each encoded row's stored entries ``v`` in ascending ``k``
and adds ``v * x`` to the output row, ``x`` the matching dense row:

* where the dense side is zero the product is ``v * 0 = +-0.0``, with
  ``v`` finite, because a non-finite side is never encoded.  Adding it
  changes nothing in round-to-nearest: ``y +- 0 == y`` for ``y != 0``,
  and ``+0 + +-0 == +0``;
* a non-finite value on the dense side is only ever multiplied by a
  non-zero, and the reference forms that same product.

So outputs match the reference bit for bit, signs of zero included.
When both operands hold non-finite values, both are encoded and SciPy's
CSR x CSR product (SMMP) multiplies them: it too forms products only
between non-zeros and accumulates each output element from ``+0.0`` in
ascending ``k``.

The encoded side is the one with fewer multiply-adds, ``nnz(A) * N``
against ``nnz(B) * M`` — the sparser side, so the rule needs no tuned
constant.  Every output element depends only on its own row of A and
column of B, so the engine is *fold-safe*: rows (or columns) of a
batch-stacked operand produce bit-identical results to separate
per-slice runs (the inference sessions of :mod:`repro.nn.session` rely
on this).
"""

from __future__ import annotations

import numpy as np

from repro.core.operands import as_gemm_operand, device_stats_from_operands
from repro.core.spgemm_warp import WarpTileConfig
from repro.errors import ShapeError


def vectorized_numeric_product(a, b) -> np.ndarray:
    """``a @ b`` in float64 with reference-identical rounding.

    Either operand may be a dense ndarray or any pre-encoded type
    accepted by :func:`repro.core.operands.as_gemm_operand`; a
    persistent :class:`~repro.core.operands.EncodedOperand` keeps its
    CSR encoding for later calls.  The side with fewer multiply-adds is
    encoded unless it holds a non-finite value; two non-finite sides
    take the CSR x CSR product.  The module docstring shows why every
    path is exact.
    """
    a_op = as_gemm_operand(a, "a", "a")
    b_op = as_gemm_operand(b, "b", "b")
    (m_dim, k_dim), n_dim = a_op.shape, b_op.shape[1]
    if k_dim != b_op.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a_op.shape} @ {b_op.shape}")
    encoded = a_op if a_op.nnz * n_dim <= b_op.nnz * m_dim else b_op
    if not encoded.all_finite:
        encoded = b_op if encoded is a_op else a_op
        if not encoded.all_finite:
            return (a_op.csr() @ b_op.csr().T).toarray()
    if encoded.side == "a":
        return a_op.csr() @ np.asarray(b_op.dense, dtype=np.float64)
    return (b_op.csr() @ np.asarray(a_op.dense.T, dtype=np.float64)).T


def vectorized_device_stats(
    a: np.ndarray,
    b: np.ndarray,
    config: WarpTileConfig,
    element_bytes: int = 2,
) -> "DeviceStats":
    """Closed-form :class:`DeviceStats` of the tiled dual-side SpGEMM.

    Every field matches what the reference loop would accumulate while
    visiting each (warp-tile pair, set) — including the actual (clipped)
    reduction extents of edge tiles, which the padded formulas of
    :func:`~repro.core.spgemm_device.count_device_instructions`
    approximate with full tiles.  Thin wrapper over the per-operand
    summaries of :mod:`repro.core.operands`.
    """
    return device_stats_from_operands(
        as_gemm_operand(a, "a"),
        as_gemm_operand(b, "b"),
        config,
        element_bytes=element_bytes,
    )


def vectorized_device_spgemm(
    a,
    b,
    config: WarpTileConfig | None = None,
    element_bytes: int = 2,
) -> "DeviceSpGemmResult":
    """Vectorized functional device-level SpGEMM.

    Drop-in replacement for the reference loop of
    :func:`repro.core.spgemm_device.device_spgemm`: same numeric output
    (bit-identical) and the same :class:`DeviceStats`, computed orders of
    magnitude faster.  Either operand may be a dense ndarray or any
    pre-encoded type accepted by
    :func:`repro.core.operands.as_gemm_operand`.  ``collect_positions``
    is not supported here — the per-step accumulation-buffer replay is
    inherently sequential, so the dispatcher routes that case to the
    reference loop.
    """
    from repro.core.spgemm_device import DeviceSpGemmResult

    config = config or WarpTileConfig()
    a_op = as_gemm_operand(a, "a", "a")
    b_op = as_gemm_operand(b, "b", "b")
    if a_op.shape[1] != b_op.shape[0]:
        raise ShapeError(
            f"inner dimensions differ: {a_op.shape} @ {b_op.shape}"
        )
    stats = device_stats_from_operands(
        a_op, b_op, config, element_bytes=element_bytes
    )
    output = vectorized_numeric_product(a_op, b_op)
    return DeviceSpGemmResult(output=output, stats=stats)
