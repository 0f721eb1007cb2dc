"""K-panel blocked functional SpGEMM engine — the large-shape fast path.

The vectorized engine (:mod:`repro.core.engine`) is exact: one CSR x
dense product over the sparser operand, summing each output element in
ascending ``k`` like the reference loop.  Its cost is one scalar
multiply-add per stored non-zero and dense column, so on Figure
21/22-sized numeric SpGEMMs at moderate sparsity the dense BLAS kernels
win by a wide margin.

This module applies the panel blocking the paper's thread-block tiling
(Figures 8-9) already describes.  When every reduction step survives
(see below) the whole product is one BLAS matmul over the full K: in
float32 when both operands are small integers (see the guarantees
below), in float64 otherwise.  When some step is dead, the reduction
dimension is partitioned into K-panels of ``panel_tiles`` warp k-tiles
(``WarpTileConfig.tk`` steps each).  For every panel:

1. the *surviving* reduction steps are selected — a step survives when
   its A column and its B row both hold at least one non-zero, the same
   per-k occupancy the warp-bitmap counts expose; a panel whose
   column/row nnz is all-zero is skipped without touching the operands,
2. the surviving columns of A and rows of B are gathered into dense
   panel operands (a contiguous slice when the whole panel survives), and
3. one BLAS-backed :func:`np.matmul` accumulates the panel's
   contribution, panels visited in ascending-k order.

Either operand may be a plain ndarray or a pre-encoded
:class:`~repro.core.operands.EncodedOperand`.  A persistent encoded
operand caches its per-k non-zero counts, its float64 view and — most
importantly — its *condensed K-panels*
(:meth:`~repro.core.operands.EncodedOperand.panels`): the candidate
steps and gathered panel blocks of the static side, built once per
session.  At multiply time the survivors of a panel are always a subset
of its candidates, so the static side of every panel matmul is either
the cached block or a gather from it.  The gathered values (and their
ascending-k order) are identical either way, so cached and uncached
runs stay bit-identical (asserted in
``tests/core/test_encoded_operands.py``).

Statistics are *not* re-derived: :func:`blocked_device_spgemm` composes
the same per-operand summaries
(:func:`repro.core.operands.device_stats_from_operands`) the vectorized
engine uses, so every :class:`DeviceStats` / ``WarpStats`` field stays
bit-identical to the reference backend by construction.

Accumulation-order guarantees
-----------------------------

Panels accumulate in ascending-k order, but *within* a panel (or the
single whole-K matmul) the multiply-add order is whatever the BLAS
kernel picks.  Consequently:

* on integer-valued data (all products and partial sums exactly
  representable in float64) the output is exactly equal to the reference
  loop — addition of exactly-representable values is associative,
* the whole-K matmul runs in float32 only when ``K * max|a| * max|b|``
  is at most ``2**24`` on integer-valued operands: every product and
  every partial sum is then an integer float32 holds exactly, whatever
  order BLAS sums in, so the result equals the float64 one exactly,
* on general float data the result may differ from the reference loop in
  the last bits; both are correct float64 evaluations of the same sum
  and agree to well within 2 float32 ulps (asserted by the Hypothesis
  parity suite in ``tests/core/test_engine_blocked.py``),
* non-finite operands (inf/NaN) always fall back to the exact engine,
  because a dense panel product would form ``0 * inf = NaN`` partials
  the condensed hardware never evaluates.  The fallback is
  bit-identical to the reference loop, so non-finite parity stays
  exact.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.operands import (
    EncodedOperand,
    as_gemm_operand,
    device_stats_from_operands,
)
from repro.core.spgemm_warp import WarpTileConfig
from repro.errors import ShapeError

#: Integers up to this magnitude are exact in float32 (24-bit significand).
FLOAT32_EXACT_INT = 1 << 24

#: Warp k-tiles folded into one matmul panel.  With the paper's
#: ``tk = 16`` this makes 256-step panels: wide enough that BLAS
#: dominates the gather cost, narrow enough that all-empty panels are
#: still skipped on highly sparse operands.
DEFAULT_PANEL_TILES = 16


def _panel_operand(
    op: EncodedOperand,
    panels,
    index: int,
    survivors: np.ndarray,
    k0: int,
    k1: int,
) -> np.ndarray:
    """The float64 panel block of one operand for the surviving steps.

    With condensed panels cached, the survivors are mapped into the
    stored candidate block; otherwise the block is a contiguous slice
    (whole panel alive) or a direct gather from the dense operand.  The
    values and their ascending-k order are identical on every path.
    """
    if panels is not None:
        cand = panels.candidates[index]
        block = panels.blocks[index]
        if survivors.size == cand.size:
            return block
        local = np.searchsorted(cand, survivors)
        return block[:, local] if op.side == "a" else block[local, :]
    dense64 = op.dense64
    if survivors.size == k1 - k0:
        return dense64[:, k0:k1] if op.side == "a" else dense64[k0:k1, :]
    return dense64[:, survivors] if op.side == "a" else dense64[survivors, :]


def _float32_exact(a_op: EncodedOperand, b_op: EncodedOperand) -> bool:
    """Whether both operands are integer-valued (hence finite) and
    ``K * max|a| * max|b| <= 2**24``, so that a float32 matmul is exact
    (see the module docstring)."""
    a_peak = a_op.integer_peak
    return (
        a_peak < math.inf
        and a_op.shape[1] * a_peak * b_op.integer_peak <= FLOAT32_EXACT_INT
    )


def blocked_numeric_product(
    a,
    b,
    config: WarpTileConfig | None = None,
    panel_tiles: int = DEFAULT_PANEL_TILES,
) -> np.ndarray:
    """``a @ b`` in float64 via K-panel blocked dense accumulation.

    See the module docstring for the panel-gather algorithm and the
    accumulation-order guarantees.  Non-finite operands delegate to
    :func:`repro.core.engine.vectorized_numeric_product`, which never
    forms ``0 * inf``.  Operands may be ndarrays or pre-encoded
    :class:`~repro.core.operands.EncodedOperand` objects.
    """
    from repro.core.engine import vectorized_numeric_product

    config = config or WarpTileConfig()
    if panel_tiles < 1:
        raise ShapeError(f"panel_tiles must be >= 1, got {panel_tiles}")
    a_op = as_gemm_operand(a, "a", "a")
    b_op = as_gemm_operand(b, "b", "b")
    m_dim, k_dim = a_op.shape
    n_dim = b_op.shape[1]
    output = np.zeros((m_dim, n_dim), dtype=np.float64)
    alive = a_op.k_activity & b_op.k_activity
    if not alive.any():
        return output
    if alive.all() and _float32_exact(a_op, b_op):
        # Every step survives, so panels would only split one matmul into
        # several passes over the output; small integers make it exact
        # in float32, at half the float64 cost.
        product = np.matmul(
            a_op.dense.astype(np.float32, copy=False),
            b_op.dense.astype(np.float32, copy=False),
        )
        return product.astype(np.float64)
    if not (a_op.all_finite and b_op.all_finite):
        # A dense panel matmul would evaluate 0 * inf = NaN partials the
        # condensed reference never forms; the exact engine never does.
        return vectorized_numeric_product(a_op, b_op)
    if alive.all():
        return np.matmul(a_op.dense64, b_op.dense64)

    panel = config.tk * panel_tiles
    a_panels = a_op.panels(panel)
    b_panels = b_op.panels(panel)
    scratch = None  # allocated only if a second live panel accumulates
    first = True
    for index, k0 in enumerate(range(0, k_dim, panel)):
        k1 = min(k0 + panel, k_dim)
        survivors = np.flatnonzero(alive[k0:k1])
        if survivors.size == 0:
            # All-empty panel: the warp-bitmap already proves every step
            # in it is skippable, so the operands are never gathered.
            continue
        survivors += k0
        a_panel = _panel_operand(a_op, a_panels, index, survivors, k0, k1)
        b_panel = _panel_operand(b_op, b_panels, index, survivors, k0, k1)
        if first:
            # The first live panel writes the output directly: adding its
            # product to the zero initialisation is a redundant full
            # M x N pass (0.0 + x == x).
            np.matmul(a_panel, b_panel, out=output)
            first = False
        else:
            if scratch is None:
                scratch = np.empty((m_dim, n_dim), dtype=np.float64)
            np.matmul(a_panel, b_panel, out=scratch)
            output += scratch
    return output


def blocked_device_spgemm(
    a,
    b,
    config: WarpTileConfig | None = None,
    element_bytes: int = 2,
    panel_tiles: int = DEFAULT_PANEL_TILES,
) -> "DeviceSpGemmResult":
    """K-panel blocked functional device-level SpGEMM.

    Drop-in replacement for the vectorized engine on large shapes: the
    numeric product comes from :func:`blocked_numeric_product`, every
    statistics field from the shared closed-form operand summaries
    (:func:`repro.core.operands.device_stats_from_operands`) —
    bit-identical to both existing backends.  Either operand may be
    dense or pre-encoded.
    """
    from repro.core.spgemm_device import DeviceSpGemmResult

    config = config or WarpTileConfig()
    a_op = as_gemm_operand(a, "a", "a")
    b_op = as_gemm_operand(b, "b", "b")
    if a_op.shape[1] != b_op.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a_op.shape} @ {b_op.shape}")
    stats = device_stats_from_operands(
        a_op, b_op, config, element_bytes=element_bytes
    )
    output = blocked_numeric_product(
        a_op, b_op, config=config, panel_tiles=panel_tiles
    )
    return DeviceSpGemmResult(output=output, stats=stats)
