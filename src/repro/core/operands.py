"""Pre-encoded GEMM operands: encode once, multiply many times.

The paper's premise (Section IV) is that the bitmap encoding of a matrix
is produced *once* and amortised across execution — pruned weights are
static for the lifetime of a model, yet the functional pipeline
historically re-derived every per-operand quantity (non-zero masks,
per-segment reductions, two-level encodings, float64 views, K-panel
gathers) inside every ``device_spgemm`` call.

:class:`EncodedOperand` is the session-lifetime carrier of all of that
per-side state.  Each cached quantity is exactly the reduction the
engines would have computed from the dense operand, so results stay
bit-identical whether an operand arrives dense or pre-encoded
(``tests/core/test_encoded_operands.py`` locks this down):

* :meth:`EncodedOperand.summary` — the per-side closed-form reductions
  behind :class:`~repro.core.spgemm_device.DeviceStats`.  Every
  cross-operand statistic is a dot product of per-``k`` vectors, so the
  summaries compose in O(K) via :func:`device_stats_from_operands`.
* :meth:`EncodedOperand.two_level` — the hierarchical bitmap the
  reference backend walks (skipping its per-call ``from_dense``).
* :meth:`EncodedOperand.panels` — condensed K-panel blocks for the
  blocked engine (the static side of every panel matmul, gathered once).
* :meth:`EncodedOperand.csr` — the float64 CSR the exact engine
  multiplies when this is the sparser side (one row per free index,
  ``k`` ascending within each row).
* :attr:`EncodedOperand.dense64` / :attr:`EncodedOperand.k_nnz` /
  :attr:`EncodedOperand.all_finite` / :attr:`EncodedOperand.integer_peak`
  — the numeric-path ingredients.

``device_spgemm`` (and therefore ``spgemm`` / ``sparse_conv2d``) accepts
an :class:`EncodedOperand`, a :class:`~repro.formats.hierarchical.TwoLevelBitmapMatrix`,
a :class:`~repro.core.api.SparseMatrix` or a plain ndarray for either
side; :func:`as_gemm_operand` normalises them.  Operands wrapped from a
persistent encoding object keep their caches attached to that object, so
repeated calls with the same encoding pay the reductions only once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.spgemm_warp import WarpTileConfig
from repro.errors import ConfigError
from repro.utils.tiling import num_tiles
from repro.utils.validation import check_2d

#: Valid operand sides: ``"a"`` (left, reduction along columns) and
#: ``"b"`` (right, reduction along rows).
SIDES = ("a", "b")


def segment_nnz(mask: np.ndarray, tile: int, axis: int) -> np.ndarray:
    """Per-segment non-zero counts along ``axis`` in blocks of ``tile``.

    For ``axis=0`` the (rows, cols) mask is zero-padded to a row-count
    multiple of ``tile`` and reduced to shape ``(rows/tile, cols)``; for
    ``axis=1`` the reduction runs over column blocks instead.
    """
    rows, cols = mask.shape
    if axis == 0:
        n_seg = num_tiles(rows, tile)
        pad = n_seg * tile - rows
        if pad:
            mask = np.pad(mask, ((0, pad), (0, 0)))
        return mask.reshape(n_seg, tile, cols).sum(axis=1, dtype=np.int64)
    n_seg = num_tiles(cols, tile)
    pad = n_seg * tile - cols
    if pad:
        mask = np.pad(mask, ((0, 0), (0, pad)))
    return mask.reshape(rows, n_seg, tile).sum(axis=2, dtype=np.int64)


def tile_extents(dim: int, tile: int) -> np.ndarray:
    """Actual (edge-clipped) extent of each tile covering ``[0, dim)``."""
    n = num_tiles(dim, tile)
    extents = np.full(n, tile, dtype=np.int64)
    if n and dim % tile:
        extents[-1] = dim % tile
    return extents


def two_level_footprint_bytes(
    tile_nnz: np.ndarray,
    row_extents: np.ndarray,
    col_extents: np.ndarray,
    nnz: int,
    element_bytes: int,
) -> int:
    """Compressed size matching ``TwoLevelBitmapMatrix.footprint_bytes``.

    The element-bitmap bits are only stored for occupied tiles, and edge
    tiles store bitmaps of their clipped (not padded) shape — both
    properties of the encoder the reference path instantiates.
    """
    occupied = tile_nnz > 0
    areas = np.outer(row_extents, col_extents)
    element_bits = int(areas[occupied].sum())
    warp_bits = int(tile_nnz.size)
    return nnz * element_bytes + (warp_bits + element_bits + 7) // 8


#: Elements per chunk of the integer scan: small enough that its
#: temporaries stay in cache, large enough that the loop is cheap.
_SCAN_CHUNK = 1 << 16


def _integer_peak(dense: np.ndarray) -> float:
    """Largest ``|value|`` of an integer-valued float array, else ``inf``.

    The scan runs in row chunks and stops at the first chunk holding a
    non-integer (or NaN), so general float data costs about one chunk.
    Non-float dtypes report ``inf``.
    """
    if dense.dtype.kind != "f":
        return math.inf
    if dense.size == 0:
        return 0.0
    peak = 0.0
    step = max(1, _SCAN_CHUNK // dense.shape[1])
    for r0 in range(0, dense.shape[0], step):
        chunk = dense[r0 : r0 + step]
        if not np.array_equal(np.rint(chunk), chunk):
            return math.inf
        peak = max(peak, float(np.abs(chunk).max()))
    return peak


@dataclass(frozen=True)
class OperandSummary:
    """Cached per-side closed-form reductions of one GEMM operand.

    All cross-operand :class:`~repro.core.spgemm_device.DeviceStats`
    fields factor into dot products of these per-``k`` vectors (see
    :func:`device_stats_from_operands`).

    Attributes:
        side: ``"a"`` or ``"b"``.
        shape: dense (rows, cols) of the operand.
        n_segments: output tiles along the non-reduction dimension
            (row tiles of A / column tiles of B).
        groups_per_k: quantised OHMMA operand groups summed over
            segments, per reduction step.
        nonempty_per_k: segments holding at least one non-zero, per step.
        nnz_per_k: non-zeros per reduction step (= per-column counts of
            A / per-row counts of B).
        occupied_tiles_per_ktile: warp tiles holding at least one
            non-zero, per k-tile (drives the two-level-bitmap skips).
        nnz: total non-zero count.
        footprint_bytes: compressed two-level-bitmap size in bytes.
        dense_bytes: dense operand size in bytes.
    """

    side: str
    shape: tuple[int, int]
    n_segments: int
    groups_per_k: np.ndarray
    nonempty_per_k: np.ndarray
    nnz_per_k: np.ndarray
    occupied_tiles_per_ktile: np.ndarray
    nnz: int
    footprint_bytes: int
    dense_bytes: int


def _build_summary(
    dense: np.ndarray, side: str, config: WarpTileConfig, element_bytes: int
) -> OperandSummary:
    """One pass of the per-side reductions the engines' stats factor over."""
    mask = dense != 0
    rows, cols = dense.shape
    if side == "a":
        tile, quantum = config.tm, config.ohmma_m
        seg = segment_nnz(mask, tile, axis=0)  # (segments, K)
        groups = (seg + quantum - 1) // quantum
        groups_per_k = groups.sum(axis=0)
        nonempty_per_k = (seg > 0).sum(axis=0)
        nnz_per_k = seg.sum(axis=0)
        tile_nnz = segment_nnz(seg, config.tk, axis=1)  # (segments, k_tiles)
        occupied = (tile_nnz > 0).sum(axis=0)
        row_ext = tile_extents(rows, tile)
        col_ext = tile_extents(cols, config.tk)
    else:
        tile, quantum = config.tn, config.ohmma_n
        seg = segment_nnz(mask, tile, axis=1)  # (K, segments)
        groups = (seg + quantum - 1) // quantum
        groups_per_k = groups.sum(axis=1)
        nonempty_per_k = (seg > 0).sum(axis=1)
        nnz_per_k = seg.sum(axis=1)
        tile_nnz = segment_nnz(seg, config.tk, axis=0)  # (k_tiles, segments)
        occupied = (tile_nnz > 0).sum(axis=1)
        row_ext = tile_extents(rows, config.tk)
        col_ext = tile_extents(cols, tile)
    nnz = int(nnz_per_k.sum())
    return OperandSummary(
        side=side,
        shape=(rows, cols),
        n_segments=seg.shape[0] if side == "a" else seg.shape[1],
        groups_per_k=groups_per_k,
        nonempty_per_k=nonempty_per_k,
        nnz_per_k=nnz_per_k,
        occupied_tiles_per_ktile=occupied,
        nnz=nnz,
        footprint_bytes=two_level_footprint_bytes(
            tile_nnz, row_ext, col_ext, nnz, element_bytes
        ),
        dense_bytes=rows * cols * element_bytes,
    )


@dataclass(frozen=True)
class CondensedPanels:
    """Condensed K-panel blocks of one (typically static) operand.

    For every K-panel of the blocked engine this stores the *candidate*
    reduction steps — those where this operand holds at least one
    non-zero — and the float64 gather of the corresponding columns (side
    A) or rows (side B).  At multiply time the surviving steps of a
    panel are always a subset of its candidates, so the panel operand is
    either the stored block itself or a gather from it, never a fresh
    walk over the full dense matrix.
    """

    panel: int
    candidates: tuple[np.ndarray, ...]
    blocks: tuple[np.ndarray, ...]


class EncodedOperand:
    """One GEMM operand plus every cached per-side derivation.

    Args:
        dense: the dense 2-D operand (zeros included).  The array is
            referenced, not copied — mutating it after encoding
            invalidates the caches silently.
        side: ``"a"`` (left operand, K along columns) or ``"b"`` (right
            operand, K along rows).
        persistent: whether the operand outlives a single call.  The
            engines only cache K-panels and the CSR encoding on
            persistent operands; throwaway wrappers of plain ndarrays
            rebuild what a call needs instead.
    """

    __slots__ = (
        "dense",
        "side",
        "persistent",
        "_dense64",
        "_k_nnz",
        "_finite",
        "_integer_peak",
        "_summaries",
        "_two_levels",
        "_panels",
        "_csr",
        "_source_encoding",
    )

    def __init__(
        self, dense: np.ndarray, side: str, persistent: bool = True
    ) -> None:
        if side not in SIDES:
            raise ConfigError(f"unknown operand side {side!r}; expected 'a' or 'b'")
        self.dense = check_2d(dense, f"operand {side}")
        self.side = side
        self.persistent = persistent
        self._dense64: "np.ndarray | None" = None
        self._k_nnz: "np.ndarray | None" = None
        self._finite: "bool | None" = None
        self._integer_peak: "float | None" = None
        self._summaries: dict = {}
        self._two_levels: dict = {}
        self._panels: dict = {}
        self._csr: "sparse.csr_array | None" = None
        self._source_encoding = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def for_a(cls, dense: np.ndarray) -> "EncodedOperand":
        """Encode a left (M x K) operand."""
        return cls(dense, "a")

    @classmethod
    def for_b(cls, dense: np.ndarray) -> "EncodedOperand":
        """Encode a right (K x N) operand."""
        return cls(dense, "b")

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols) of the dense operand."""
        return self.dense.shape

    # ------------------------------------------------------------------ #
    # Numeric-path caches
    # ------------------------------------------------------------------ #
    @property
    def dense64(self) -> np.ndarray:
        """Float64 view/copy of the operand (what the engines multiply)."""
        if self._dense64 is None:
            self._dense64 = self.dense.astype(np.float64, copy=False)
        return self._dense64

    @property
    def k_nnz(self) -> np.ndarray:
        """Non-zeros per reduction step (A columns / B rows), int64.

        Reuses a cached :class:`OperandSummary`'s ``nnz_per_k`` when one
        exists — the per-step counts are tile-geometry independent.
        """
        if self._k_nnz is None:
            for summary in self._summaries.values():
                self._k_nnz = summary.nnz_per_k
                break
            else:
                axis = 0 if self.side == "a" else 1
                self._k_nnz = np.count_nonzero(self.dense, axis=axis).astype(
                    np.int64, copy=False
                )
        return self._k_nnz

    @property
    def k_activity(self) -> np.ndarray:
        """Boolean mask of reduction steps this operand contributes to."""
        return self.k_nnz > 0

    @property
    def nnz(self) -> int:
        """Total non-zero count (from the cached per-k counts)."""
        return int(self.k_nnz.sum())

    @property
    def sparsity(self) -> float:
        """Zero fraction of the operand — bit-identical to
        :func:`repro.sparsity.statistics.sparsity` on the dense array,
        but served from the cached per-k counts."""
        rows, cols = self.shape
        size = rows * cols
        return 1.0 - float(self.nnz) / size if size else 0.0

    @property
    def all_finite(self) -> bool:
        """Whether every element is finite.  A non-finite operand is
        never the exact engine's CSR side and keeps the blocked engine
        off its dense panels.  Checked on the original array — float64
        promotion preserves finiteness — so narrow operands scan half
        the bytes."""
        if self._finite is None:
            self._finite = bool(np.isfinite(self.dense).all())
        return self._finite

    @property
    def integer_peak(self) -> float:
        """Largest ``|value|`` of a float operand whose every element is
        an integer, else ``inf``.  Lets the blocked engine prove a
        float32 matmul exact."""
        if self._integer_peak is None:
            self._integer_peak = _integer_peak(self.dense)
        return self._integer_peak

    # ------------------------------------------------------------------ #
    # Statistics / encodings
    # ------------------------------------------------------------------ #
    def summary(
        self, config: WarpTileConfig, element_bytes: int = 2
    ) -> OperandSummary:
        """Per-side closed-form reductions for the given tile geometry."""
        if self.side == "a":
            key = (config.tm, config.tk, config.ohmma_m, element_bytes)
        else:
            key = (config.tn, config.tk, config.ohmma_n, element_bytes)
        summary = self._summaries.get(key)
        if summary is None:
            summary = _build_summary(self.dense, self.side, config, element_bytes)
            self._summaries[key] = summary
        return summary

    def two_level(self, config: WarpTileConfig, element_bytes: int = 2):
        """The hierarchical two-level bitmap of this operand (cached).

        Side A encodes (tm, tk) tiles with column-major values, side B
        (tk, tn) tiles row-major — the layouts the reference device loop
        expects.  A matching encoding provided at wrap time (see
        :func:`as_gemm_operand`) is reused instead of re-encoded.
        """
        from repro.formats.hierarchical import TwoLevelBitmapMatrix

        if self.side == "a":
            tile_shape, order = (config.tm, config.tk), "col"
        else:
            tile_shape, order = (config.tk, config.tn), "row"
        key = (tile_shape, order, element_bytes)
        encoded = self._two_levels.get(key)
        if encoded is None:
            source = self._source_encoding
            if (
                source is not None
                and source.tile_shape == tile_shape
                and source.order == order
                and source.element_bytes == element_bytes
            ):
                encoded = source
            else:
                encoded = TwoLevelBitmapMatrix.from_dense(
                    self.dense,
                    tile_shape=tile_shape,
                    order=order,
                    element_bytes=element_bytes,
                )
            self._two_levels[key] = encoded
        return encoded

    def panels(self, panel: int) -> "CondensedPanels | None":
        """Condensed K-panel blocks for the blocked engine.

        Built (and cached) only on persistent operands — for a
        throwaway wrapper the one-shot gather inside the engine is
        exactly as cheap.  ``panel`` is the number of reduction steps
        per K-panel.  A panel whose candidates cover every step stores a
        contiguous *view* of the float64 operand, not a copy — exactly
        the operand the uncached engine path would hand to BLAS, so
        cached and uncached runs feed byte-identical panel arrays to the
        matmul (and fully-dense operands cost no extra memory).
        """
        if not self.persistent:
            return None
        cached = self._panels.get(panel)
        if cached is None:
            k_dim = self.shape[1] if self.side == "a" else self.shape[0]
            activity = self.k_activity
            dense64 = self.dense64
            candidates = []
            blocks = []
            for k0 in range(0, k_dim, panel):
                k1 = min(k0 + panel, k_dim)
                cand = k0 + np.flatnonzero(activity[k0:k1])
                candidates.append(cand)
                if cand.size == k1 - k0:
                    block = (
                        dense64[:, k0:k1]
                        if self.side == "a"
                        else dense64[k0:k1, :]
                    )
                elif self.side == "a":
                    block = dense64[:, cand]
                else:
                    block = dense64[cand, :]
                blocks.append(block)
            cached = CondensedPanels(
                panel=panel, candidates=tuple(candidates), blocks=tuple(blocks)
            )
            self._panels[panel] = cached
        return cached

    def csr(self) -> "sparse.csr_array":
        """Float64 CSR with one row per free index, ``k`` ascending.

        The rows are the rows of A (side ``"a"``) or the columns of B
        (side ``"b"``); each stores its non-zero steps in ascending
        ``k``, which is the order the exact engine accumulates them in.
        ``-0.0`` counts as zero, as in every other reduction here.
        Cached only on persistent operands.  The encoding is built
        completely before it is attached, so threads sharing an operand
        only ever see a finished one.
        """
        cached = self._csr
        if cached is not None:
            return cached
        rows_major = self.dense if self.side == "a" else self.dense.T
        # Built from the C-order non-zeros, so k ascends within each row.
        encoded = sparse.csr_array(rows_major, dtype=np.float64)
        if self.persistent:
            self._csr = encoded
        return encoded

    def warm(
        self,
        config: WarpTileConfig,
        element_bytes: int = 2,
        panel: "int | None" = None,
    ) -> "EncodedOperand":
        """Eagerly populate the per-side reductions a session will hit.

        The float64 copy and the CSR encoding are left to the first
        multiply: only the engine that runs knows which one it needs.
        """
        self.summary(config, element_bytes)
        _ = self.k_nnz, self.all_finite
        if panel is not None:
            self.panels(panel)
        return self


def as_gemm_operand(operand, side: str, name: str = "operand") -> EncodedOperand:
    """Normalise any accepted operand type to an :class:`EncodedOperand`.

    Accepted types:

    * :class:`EncodedOperand` — returned as-is (side must match),
    * :class:`~repro.formats.hierarchical.TwoLevelBitmapMatrix` — the
      wrapper is built once and attached to the encoding object, so
      repeated calls reuse every cache; the provided encoding itself
      serves the reference backend when its geometry matches,
    * :class:`~repro.core.api.SparseMatrix` (any object with ``dense``
      and ``encoding`` attributes) — wrapped and attached likewise,
    * a plain 2-D ndarray — wrapped fresh (non-persistent).

    Attached wrappers live as long as the encoding object does and keep
    whatever caches their use populated (float64 view, summaries, CSR
    encoding, partial-panel gathers) — that *is* the encode-once
    amortisation, but it means a retained encoding can hold a few times
    its matrix bytes; drop the encoding object to release everything.
    """
    if isinstance(operand, EncodedOperand):
        if operand.side != side:
            raise ConfigError(
                f"{name} was encoded for side {operand.side!r} but is used "
                f"as side {side!r}; encode it with EncodedOperand.for_{side}"
            )
        return operand
    if isinstance(operand, np.ndarray):
        return EncodedOperand(operand, side, persistent=False)

    attr = f"_gemm_operand_{side}"
    cached = getattr(operand, attr, None)
    if cached is not None:
        return cached

    from repro.formats.hierarchical import TwoLevelBitmapMatrix

    if isinstance(operand, TwoLevelBitmapMatrix):
        wrapped = EncodedOperand(operand.dense_view(), side)
        wrapped._source_encoding = operand
        object.__setattr__(operand, attr, wrapped)
        return wrapped
    if hasattr(operand, "dense") and hasattr(operand, "encoding"):
        wrapped = EncodedOperand(operand.dense, side)
        object.__setattr__(operand, attr, wrapped)
        return wrapped
    # Anything array-like falls through to the ndarray wrapper.
    return EncodedOperand(np.asarray(operand), side, persistent=False)


def device_stats_from_operands(
    a_op: EncodedOperand,
    b_op: EncodedOperand,
    config: WarpTileConfig,
    element_bytes: int = 2,
) -> "DeviceStats":
    """Compose the full :class:`DeviceStats` from two operand summaries.

    Produces exactly the closed form of
    :func:`repro.core.engine.vectorized_device_stats` — every field is a
    dot product of the cached per-``k`` vectors plus pure geometry, so a
    session that caches the static side pays only the O(K) composition
    per call.
    """
    from repro.core.merge import MergeStats
    from repro.core.spgemm_device import DeviceStats
    from repro.core.spgemm_warp import WarpStats

    sa = a_op.summary(config, element_bytes)
    sb = b_op.summary(config, element_bytes)
    m_dim, k_dim = sa.shape
    n_dim = sb.shape[1]

    ohmma_issued = int(np.sum(sa.groups_per_k * sb.groups_per_k))
    active_sets = int(np.sum(sa.nonempty_per_k * sb.nonempty_per_k))
    macs = int(np.sum(sa.nnz_per_k * sb.nnz_per_k))

    n_row_tiles, n_col_tiles = sa.n_segments, sb.n_segments
    n_k_tiles = num_tiles(k_dim, config.tk)
    pairs_active_per_k = sa.occupied_tiles_per_ktile * sb.occupied_tiles_per_ktile
    pairs_total = n_row_tiles * n_col_tiles * n_k_tiles
    pairs_skipped = pairs_total - int(pairs_active_per_k.sum())

    k_extents = tile_extents(k_dim, config.tk)
    sets_total = n_row_tiles * n_col_tiles * k_dim
    sets_skipped = sets_total - active_sets
    ohmma_dense = sets_total * config.ohmma_per_set
    popc_issued = 2 * int(np.sum(pairs_active_per_k * k_extents))

    warp = WarpStats(
        sets_total=sets_total,
        sets_skipped=sets_skipped,
        bohmma_issued=active_sets,
        popc_issued=popc_issued,
        ohmma_issued=ohmma_issued,
        ohmma_skipped=ohmma_dense - ohmma_issued,
        ohmma_dense=ohmma_dense,
        multiply_macs=macs,
        merge=MergeStats(gathers=macs, accumulations=macs, scatters=macs),
    )
    return DeviceStats(
        warp=warp,
        warp_tile_pairs_total=pairs_total,
        warp_tile_pairs_skipped=pairs_skipped,
        a_bytes_dense=sa.dense_bytes,
        b_bytes_dense=sb.dense_bytes,
        a_bytes_compressed=sa.footprint_bytes,
        b_bytes_compressed=sb.footprint_bytes,
        output_bytes=m_dim * n_dim * 4,
    )
