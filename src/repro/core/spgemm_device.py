"""Device-level tiled SpGEMM using the two-level bitmap (Figures 8 and 9).

The full SpGEMM is partitioned into thread-block / warp tiles.  Every
output tile of size ``TM x TN`` accumulates contributions from pairs of
input tiles along the reduction dimension, each pair processed by the
warp-level SpGEMM of :mod:`repro.core.spgemm_warp`.  The two-level bitmap
adds a warp-bit per input tile so a pair in which either tile is entirely
empty is skipped without issuing a single instruction.

Four execution paths are provided:

* :func:`device_spgemm` with ``backend="auto"`` (the default) — picks
  the best functional engine for the shape: the K-panel blocked engine
  (:mod:`repro.core.engine_blocked`, BLAS matmuls over the surviving
  reduction steps) for large workloads, the exact vectorized engine
  otherwise.
* :func:`device_spgemm` with ``backend="vectorized"`` — the engine of
  :mod:`repro.core.engine`: one CSR x dense product over the sparser
  operand, numeric output and statistics bit-identical to the
  reference loop.
* :func:`device_spgemm` with ``backend="reference"`` — the original
  per-warp-tile Python loop, kept as the oracle the engines are
  cross-checked against (``tests/core/test_engine.py``,
  ``tests/core/test_engine_blocked.py``) and as the only path able to
  replay accumulation-buffer access positions.
* :func:`count_device_instructions` — the exact *counting* path.  It
  computes instruction counts with vectorised NumPy reductions without
  materialising the product at all, so it stays the cheapest option when
  only counts are needed.  Cross-checked in
  ``tests/core/test_spgemm_device.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.operands import as_gemm_operand
from repro.core.spgemm_warp import WarpStats, WarpTileConfig, warp_spgemm
from repro.errors import ConfigError, ShapeError
from repro.formats.bitmap import BitmapMatrix
from repro.formats.hierarchical import TwoLevelBitmapMatrix
from repro.utils.tiling import ceil_div, num_tiles, tile_ranges
from repro.utils.validation import check_2d


@dataclass
class DeviceStats:
    """Aggregate statistics of a device-level SpGEMM.

    Attributes:
        warp: aggregated warp-level instruction counts.
        warp_tile_pairs_total: number of (A tile, B tile) pairs visited.
        warp_tile_pairs_skipped: pairs skipped thanks to the warp-bitmap
            (either input tile entirely empty).
        a_bytes_dense / b_bytes_dense: dense operand sizes in bytes.
        a_bytes_compressed / b_bytes_compressed: bitmap-encoded operand
            sizes in bytes (what the sparse kernel actually loads).
        output_bytes: size of the written output matrix in bytes.
    """

    warp: WarpStats = field(default_factory=WarpStats)
    warp_tile_pairs_total: int = 0
    warp_tile_pairs_skipped: int = 0
    a_bytes_dense: int = 0
    b_bytes_dense: int = 0
    a_bytes_compressed: int = 0
    b_bytes_compressed: int = 0
    output_bytes: int = 0

    @property
    def instruction_speedup(self) -> float:
        """Dense / sparse ratio of issued OHMMA instructions."""
        return self.warp.instruction_speedup

    @property
    def tile_skip_fraction(self) -> float:
        """Fraction of warp-tile pairs skipped by the warp-bitmap."""
        if self.warp_tile_pairs_total == 0:
            return 0.0
        return self.warp_tile_pairs_skipped / self.warp_tile_pairs_total

    def merge_with(self, other: "DeviceStats") -> None:
        """Fold another device-level stats object into this one.

        Used by the batch-folding session runtime: the fused run's
        statistics are by definition the sum of the per-image statistics
        it serves (:mod:`repro.nn.session`).
        """
        self.warp.merge_with(other.warp)
        self.warp_tile_pairs_total += other.warp_tile_pairs_total
        self.warp_tile_pairs_skipped += other.warp_tile_pairs_skipped
        self.a_bytes_dense += other.a_bytes_dense
        self.b_bytes_dense += other.b_bytes_dense
        self.a_bytes_compressed += other.a_bytes_compressed
        self.b_bytes_compressed += other.b_bytes_compressed
        self.output_bytes += other.output_bytes

    @classmethod
    def summed(cls, stats_list) -> "DeviceStats":
        """A fresh stats object equal to the sum of ``stats_list``."""
        total = cls()
        for stats in stats_list:
            total.merge_with(stats)
        return total


@dataclass(frozen=True)
class DeviceSpGemmResult:
    """Numeric result + statistics of a device-level SpGEMM."""

    output: np.ndarray
    stats: DeviceStats


#: Valid ``backend=`` values of :func:`device_spgemm`.
BACKENDS = ("auto", "blocked", "vectorized", "reference")

#: Work size (M * K * N) at and above which ``backend="auto"`` routes to
#: the K-panel blocked engine instead of the exact vectorized engine.
#: Below the threshold the vectorized engine is kept for its bit-exact
#: reference parity; above it the blocked engine's BLAS matmuls win
#: (4.3-8.6x over the exact CSR x dense engine at this size, 50-90%
#: sparse float operands, 2 vCPUs with OpenBLAS 0.3.31) and stay exact
#: on integer-valued data (within 2 float32 ulps otherwise — see
#: :mod:`repro.core.engine_blocked`).
AUTO_BLOCKED_MIN_WORK = 1 << 25


def resolve_backend(
    backend: str,
    m_dim: int,
    k_dim: int,
    n_dim: int,
    collect_positions: bool = False,
) -> str:
    """Map a ``backend=`` argument to the concrete engine to run.

    ``"auto"`` picks the blocked engine for large shapes (work size at
    least :data:`AUTO_BLOCKED_MIN_WORK`) and the vectorized engine
    otherwise.  ``collect_positions`` always forces the reference loop —
    the per-step accumulation-buffer replay is inherently sequential.

    Raises:
        ConfigError: the name is not in :data:`BACKENDS`.
    """
    if backend not in BACKENDS:
        raise ConfigError(
            f"unknown backend {backend!r}; available: {list(BACKENDS)}"
        )
    if collect_positions:
        return "reference"
    if backend == "auto":
        if m_dim * k_dim * n_dim >= AUTO_BLOCKED_MIN_WORK:
            return "blocked"
        return "vectorized"
    return backend


def device_spgemm(
    a,
    b,
    config: WarpTileConfig | None = None,
    element_bytes: int = 2,
    collect_positions: bool = False,
    backend: str = "auto",
) -> DeviceSpGemmResult:
    """Functional device-level SpGEMM.

    Args:
        a: (M x K) left operand — a dense ndarray (zeros included), or a
            pre-encoded operand that skips the per-call encoding work: an
            :class:`~repro.core.operands.EncodedOperand` (side ``"a"``),
            a :class:`~repro.formats.hierarchical.TwoLevelBitmapMatrix`
            or a :class:`~repro.core.api.SparseMatrix`.
        b: (K x N) right operand, same accepted types (side ``"b"``).
        config: warp tile geometry (defaults to the paper's 32x32x16).
        element_bytes: operand element width used for traffic accounting.
        collect_positions: record accumulation-buffer access positions
            (slow; only for small, hardware-replayed cases — forces the
            ``"reference"`` backend).
        backend: ``"auto"`` (default) picks the K-panel blocked engine
            (:mod:`repro.core.engine_blocked`) for large shapes and the
            exact vectorized engine (:mod:`repro.core.engine`)
            otherwise; the names ``"blocked"`` / ``"vectorized"`` /
            ``"reference"`` select one path explicitly.  All backends
            return identical statistics; numerics are bit-identical
            between ``"vectorized"`` and ``"reference"``, and exact on
            integer-valued data (within 2 float32 ulps otherwise) for
            ``"blocked"``.  Pre-encoded operands never change the result
            — only how much per-call work is skipped.

    Returns:
        The product ``a @ b`` plus the statistics needed by the cost
        models.
    """
    config = config or WarpTileConfig()
    a_op = as_gemm_operand(a, "a", "a")
    b_op = as_gemm_operand(b, "b", "b")
    if a_op.shape[1] != b_op.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a_op.shape} @ {b_op.shape}")
    m_dim, k_dim = a_op.shape
    n_dim = b_op.shape[1]
    resolved = resolve_backend(backend, m_dim, k_dim, n_dim, collect_positions)
    if resolved == "blocked":
        from repro.core.engine_blocked import blocked_device_spgemm

        return blocked_device_spgemm(
            a_op, b_op, config=config, element_bytes=element_bytes
        )
    if resolved == "vectorized":
        from repro.core.engine import vectorized_device_spgemm

        return vectorized_device_spgemm(
            a_op, b_op, config=config, element_bytes=element_bytes
        )

    a = a_op.dense
    b = b_op.dense
    a_encoded = a_op.two_level(config, element_bytes)
    b_encoded = b_op.two_level(config, element_bytes)

    stats = DeviceStats()
    stats.a_bytes_dense = a.size * element_bytes
    stats.b_bytes_dense = b.size * element_bytes
    stats.a_bytes_compressed = a_encoded.footprint_bytes()
    stats.b_bytes_compressed = b_encoded.footprint_bytes()
    stats.output_bytes = m_dim * n_dim * 4  # FP32 accumulators written back

    output = np.zeros((m_dim, n_dim), dtype=np.float64)
    row_tiles = list(tile_ranges(m_dim, config.tm))
    col_tiles = list(tile_ranges(n_dim, config.tn))
    k_tiles = list(tile_ranges(k_dim, config.tk))

    for ti, (r0, r1) in enumerate(row_tiles):
        for tj, (c0, c1) in enumerate(col_tiles):
            accumulator = output[r0:r1, c0:c1]
            for tk, (k0, k1) in enumerate(k_tiles):
                stats.warp_tile_pairs_total += 1
                if a_encoded.tile_is_empty(ti, tk) or b_encoded.tile_is_empty(tk, tj):
                    stats.warp_tile_pairs_skipped += 1
                    # Dense execution would still have paid for this pair.
                    dense_cost = len(range(k0, k1)) * config.ohmma_per_set
                    stats.warp.ohmma_dense += dense_cost
                    stats.warp.ohmma_skipped += dense_cost
                    stats.warp.sets_total += k1 - k0
                    stats.warp.sets_skipped += k1 - k0
                    continue
                _, warp_stats = warp_spgemm(
                    a[r0:r1, k0:k1],
                    b[k0:k1, c0:c1],
                    config=config,
                    accumulator=accumulator,
                    collect_positions=collect_positions,
                )
                stats.warp.merge_with(warp_stats)
    return DeviceSpGemmResult(output=output, stats=stats)


# --------------------------------------------------------------------- #
# Exact vectorised instruction counting (for large matrices)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class InstructionCounts:
    """Exact instruction counts of a device-level SpGEMM execution.

    Produced by :func:`count_device_instructions` without running the
    numeric multiplication.  All counts match what :func:`device_spgemm`
    would report for the same inputs.
    """

    ohmma_issued: int
    ohmma_dense: int
    ohmma_skipped: int
    bohmma_issued: int
    popc_issued: int
    sets_total: int
    sets_skipped: int
    warp_tile_pairs_total: int
    warp_tile_pairs_skipped: int
    multiply_macs: int
    merge_accesses: int
    a_bytes_compressed: int
    b_bytes_compressed: int
    a_bytes_dense: int
    b_bytes_dense: int
    output_bytes: int

    @property
    def instruction_speedup(self) -> float:
        """Dense / sparse ratio of issued OHMMA instructions."""
        if self.ohmma_issued == 0:
            return float(self.ohmma_dense) if self.ohmma_dense else 1.0
        return self.ohmma_dense / self.ohmma_issued


def count_device_instructions(
    a: np.ndarray,
    b: np.ndarray,
    config: WarpTileConfig | None = None,
    element_bytes: int = 2,
) -> InstructionCounts:
    """Count instructions of the tiled SpGEMM with vectorised reductions.

    The OHMMA count factorises over the reduction dimension: for a fixed
    k, the number of OHMMA instructions issued across all output tiles is
    ``(sum over row tiles of ceil(nnz_A_tilecol / 8)) x (sum over column
    tiles of ceil(nnz_B_tilerow / 16))``, so the total is a single sum
    over k of a product of per-k reductions — no loop over output tiles
    is needed.  The per-segment reductions are shared with the vectorized
    execution engine (:mod:`repro.core.engine`); this path additionally
    pads edge k-tiles to full size, matching the hardware's padded
    execution.
    """
    from repro.core.operands import segment_nnz as _segment_nnz

    config = config or WarpTileConfig()
    a = check_2d(a, "a")
    b = check_2d(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    m_dim, k_dim = a.shape
    n_dim = b.shape[1]

    # nnz of each (row tile, k) column segment of A: shape (row_tiles, K),
    # and of each (k, col tile) row segment of B: shape (K, col_tiles).
    a_seg_nnz = _segment_nnz(a != 0, config.tm, axis=0)
    b_seg_nnz = _segment_nnz(b != 0, config.tn, axis=1)
    n_row_tiles = a_seg_nnz.shape[0]
    n_col_tiles = b_seg_nnz.shape[1]
    n_k_tiles = ceil_div(k_dim, config.tk)
    padded_k = n_k_tiles * config.tk

    # Quantised OHMMA group counts per segment (zero nnz -> zero groups).
    a_groups = (a_seg_nnz + config.ohmma_m - 1) // config.ohmma_m
    b_groups = (b_seg_nnz + config.ohmma_n - 1) // config.ohmma_n

    # OHMMA issued = sum_k (sum_i a_groups[i,k]) * (sum_j b_groups[k,j]).
    ohmma_issued = int(np.sum(a_groups.sum(axis=0) * b_groups.sum(axis=1)))

    # BOHMMA / non-skipped sets: one per (i, k, j) where both segments
    # hold at least one non-zero.
    a_nonempty = (a_seg_nnz > 0).sum(axis=0)
    b_nonempty = (b_seg_nnz > 0).sum(axis=1)
    active_sets = int(np.sum(a_nonempty * b_nonempty))

    # Warp-tile occupancy for the two-level bitmap skip.
    a_tile_occupied = _segment_nnz(a_seg_nnz, config.tk, axis=1) > 0
    b_tile_occupied = _segment_nnz(b_seg_nnz, config.tk, axis=0) > 0
    pairs_total = n_row_tiles * n_col_tiles * n_k_tiles
    # For each k tile, every occupied A row tile pairs with every occupied
    # B column tile; all other pairs are skipped by the warp-bitmap.
    pairs_active = int(
        np.sum(a_tile_occupied.sum(axis=0) * b_tile_occupied.sum(axis=1))
    )
    pairs_skipped = pairs_total - pairs_active

    sets_total = n_row_tiles * n_col_tiles * padded_k
    sets_skipped = sets_total - active_sets
    ohmma_dense = sets_total * config.ohmma_per_set

    # POPC: two per set, only issued for pairs that are not skipped at the
    # warp-bitmap level (a skipped pair issues nothing at all).
    popc_issued = 2 * pairs_active * config.tk

    # Useful MACs and merge accesses: every non-zero partial product is
    # one MAC and one gather+accumulate+scatter.
    macs = int(np.sum(a_seg_nnz.sum(axis=0) * b_seg_nnz.sum(axis=1)))

    a_nnz = int(np.count_nonzero(a))
    b_nnz = int(np.count_nonzero(b))
    a_bitmap_bits = m_dim * k_dim + n_row_tiles * n_k_tiles
    b_bitmap_bits = k_dim * n_dim + n_k_tiles * n_col_tiles
    return InstructionCounts(
        ohmma_issued=ohmma_issued,
        ohmma_dense=ohmma_dense,
        ohmma_skipped=ohmma_dense - ohmma_issued,
        bohmma_issued=active_sets,
        popc_issued=popc_issued,
        sets_total=sets_total,
        sets_skipped=sets_skipped,
        warp_tile_pairs_total=pairs_total,
        warp_tile_pairs_skipped=pairs_skipped,
        multiply_macs=macs,
        merge_accesses=macs,
        a_bytes_compressed=a_nnz * element_bytes + (a_bitmap_bits + 7) // 8,
        b_bytes_compressed=b_nnz * element_bytes + (b_bitmap_bits + 7) // 8,
        a_bytes_dense=m_dim * k_dim * element_bytes,
        b_bytes_dense=k_dim * n_dim * element_bytes,
        output_bytes=m_dim * n_dim * 4,
    )
