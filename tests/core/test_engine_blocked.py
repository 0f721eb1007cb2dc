"""Blocked vs vectorized vs reference parity for the K-panel engine.

Hypothesis drives randomized (shape, sparsity, panel geometry) draws
through all three functional backends and asserts:

* every ``DeviceStats`` / ``WarpStats`` field is *bit-identical* across
  the three backends (the blocked engine reuses the closed-form stats,
  so this locks the wiring down),
* the numeric output is exactly equal on integer-valued float data
  (panel-order association is exact when every partial sum is
  representable), and
* on general float data the blocked output stays within 2 float32 ulps
  of the reference, with the vectorized path still bit-identical.

Adversarial cases get dedicated tests: all-empty panels, K not a
multiple of the panel size, single-row/column operands, and non-finite
values (which must fall back to the bit-exact condensed path).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine_blocked import (
    DEFAULT_PANEL_TILES,
    blocked_device_spgemm,
    blocked_numeric_product,
)
from repro.core.operands import EncodedOperand
from repro.core.spgemm_device import (
    AUTO_BLOCKED_MIN_WORK,
    device_spgemm,
    resolve_backend,
)
from repro.core.spgemm_warp import WarpTileConfig
from repro.errors import ShapeError
from repro.sparsity.generators import random_sparse_matrix

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

#: Shapes stressing single-row/column operands and K values on both
#: sides of the tk=16 tile (so edge panels and clipped k-tiles occur).
dims = st.sampled_from([1, 2, 7, 15, 16, 17, 31, 33, 48, 64, 70])
densities = st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0])


def _draw_operands(draw, integer_valued):
    m, k, n = draw(dims), draw(dims), draw(dims)
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    density_a, density_b = draw(densities), draw(densities)
    if integer_valued:
        a = np.where(
            rng.random((m, k)) < density_a, rng.integers(-8, 9, (m, k)), 0
        ).astype(np.float64)
        b = np.where(
            rng.random((k, n)) < density_b, rng.integers(-8, 9, (k, n)), 0
        ).astype(np.float64)
    else:
        a = random_sparse_matrix((m, k), density_a, rng)
        b = random_sparse_matrix((k, n), density_b, rng)
    return a, b


@st.composite
def integer_operand_pairs(draw):
    return _draw_operands(draw, integer_valued=True)


@st.composite
def float_operand_pairs(draw):
    return _draw_operands(draw, integer_valued=False)


def assert_within_float32_ulps(actual, expected, ulps=2):
    """Outputs must agree to ``ulps`` float32 ulps once rounded."""
    actual32 = actual.astype(np.float32)
    expected32 = expected.astype(np.float32)
    spacing = np.spacing(np.abs(expected32))
    assert np.all(np.abs(actual32 - expected32) <= ulps * spacing), (
        "blocked output drifted beyond the 2-ulp float32 budget: max "
        f"diff {np.abs(actual32 - expected32).max()}"
    )


class TestHypothesisParity:
    @SETTINGS
    @given(integer_operand_pairs())
    def test_integer_valued_data_is_exact(self, operands):
        a, b = operands
        reference = device_spgemm(a, b, backend="reference")
        vectorized = device_spgemm(a, b, backend="vectorized")
        blocked = device_spgemm(a, b, backend="blocked")
        assert np.array_equal(reference.output, blocked.output)
        assert np.array_equal(reference.output, vectorized.output)
        assert reference.stats == blocked.stats == vectorized.stats

    @SETTINGS
    @given(float_operand_pairs())
    def test_float_data_within_two_ulps_stats_bit_identical(self, operands):
        a, b = operands
        reference = device_spgemm(a, b, backend="reference")
        blocked = device_spgemm(a, b, backend="blocked")
        assert reference.stats == blocked.stats
        assert_within_float32_ulps(blocked.output, reference.output)

    @SETTINGS
    @given(float_operand_pairs(), st.sampled_from([1, 2, 3, 16]))
    def test_panel_size_never_changes_stats_or_exceeds_tolerance(
        self, operands, panel_tiles
    ):
        a, b = operands
        reference = device_spgemm(a, b, backend="reference")
        blocked = blocked_device_spgemm(a, b, panel_tiles=panel_tiles)
        assert reference.stats == blocked.stats
        assert_within_float32_ulps(blocked.output, reference.output)


class TestAdversarialCases:
    def test_all_empty_panels_skipped(self):
        # A and B only populate k < 16: with tk=16 and one-tile panels,
        # every panel past the first is all-empty and must be skipped.
        a = np.zeros((8, 64))
        b = np.zeros((64, 8))
        a[:, :12] = 1.0
        b[:12, :] = 2.0
        config = WarpTileConfig()
        out = blocked_numeric_product(a, b, config=config, panel_tiles=1)
        assert np.array_equal(out, a @ b)
        reference = device_spgemm(a, b, backend="reference")
        blocked = device_spgemm(a, b, backend="blocked")
        assert np.array_equal(reference.output, blocked.output)
        assert reference.stats == blocked.stats

    def test_disjoint_k_support_is_all_zero(self):
        # A's columns and B's rows never overlap on any k: every step is
        # dead, every panel is skipped, the output is exactly zero.
        rng = np.random.default_rng(7)
        a = np.zeros((20, 40))
        b = np.zeros((40, 20))
        a[:, ::2] = rng.uniform(0.5, 1.5, (20, 20))
        b[1::2, :] = rng.uniform(0.5, 1.5, (20, 20))
        blocked = device_spgemm(a, b, backend="blocked")
        assert np.array_equal(blocked.output, np.zeros((20, 20)))
        reference = device_spgemm(a, b, backend="reference")
        assert reference.stats == blocked.stats

    @pytest.mark.parametrize("k_dim", [1, 15, 17, 255, 257])
    def test_k_not_multiple_of_panel(self, k_dim):
        rng = np.random.default_rng(k_dim)
        a = np.where(
            rng.random((16, k_dim)) < 0.4, rng.integers(-4, 5, (16, k_dim)), 0
        ).astype(np.float64)
        b = np.where(
            rng.random((k_dim, 16)) < 0.4, rng.integers(-4, 5, (k_dim, 16)), 0
        ).astype(np.float64)
        reference = device_spgemm(a, b, backend="reference")
        blocked = device_spgemm(a, b, backend="blocked")
        assert np.array_equal(reference.output, blocked.output)
        assert reference.stats == blocked.stats

    @pytest.mark.parametrize("shape_a,shape_b", [((1, 300), (300, 1)), ((1, 1), (1, 1)), ((40, 1), (1, 40))])
    def test_single_row_column_operands(self, shape_a, shape_b):
        rng = np.random.default_rng(3)
        a = random_sparse_matrix(shape_a, 0.6, rng)
        b = random_sparse_matrix(shape_b, 0.6, rng)
        reference = device_spgemm(a, b, backend="reference")
        blocked = device_spgemm(a, b, backend="blocked")
        assert reference.stats == blocked.stats
        assert_within_float32_ulps(blocked.output, reference.output)

    def test_non_finite_values_fall_back_bit_identical(self):
        # 0.0 * inf = NaN must never be formed; the blocked engine must
        # delegate to the condensed per-step path, which is bit-exact.
        a = np.zeros((40, 300))
        b = np.zeros((300, 40))
        rng = np.random.default_rng(11)
        a[rng.random(a.shape) < 0.3] = 1.5
        b[rng.random(b.shape) < 0.3] = 0.5
        a[0, 0], b[1, 1], a[2, 7], b[7, 3] = np.inf, -np.inf, np.nan, np.inf
        reference = device_spgemm(a, b, backend="reference")
        blocked = device_spgemm(a, b, backend="blocked")
        assert np.array_equal(reference.output, blocked.output, equal_nan=True)
        assert reference.stats == blocked.stats

    def test_empty_matrices(self):
        reference = device_spgemm(np.zeros((64, 32)), np.zeros((32, 64)), backend="reference")
        blocked = device_spgemm(np.zeros((64, 32)), np.zeros((32, 64)), backend="blocked")
        assert np.array_equal(reference.output, blocked.output)
        assert reference.stats == blocked.stats

    def test_invalid_panel_tiles_rejected(self):
        with pytest.raises(ShapeError):
            blocked_numeric_product(np.ones((4, 4)), np.ones((4, 4)), panel_tiles=0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            blocked_device_spgemm(np.zeros((8, 4)), np.zeros((8, 4)))


class TestWholeKMatmul:
    """Every step alive: one matmul over the whole K; else K-panels."""

    @staticmethod
    def _matmuls(monkeypatch, a, b):
        """Output of a 16-step-panel blocked product plus the
        (reduction depth, operand dtype) of every matmul it made."""
        calls = []
        matmul = np.matmul

        def spy(x, y, *args, **kwargs):
            calls.append((x.shape[1], x.dtype))
            return matmul(x, y, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        return blocked_numeric_product(a, b, panel_tiles=1), calls

    @classmethod
    def _matmul_depths(cls, monkeypatch, a, b):
        out, calls = cls._matmuls(monkeypatch, a, b)
        return out, [depth for depth, _ in calls]

    @staticmethod
    def _integer_operands(seed):
        rng = np.random.default_rng(seed)
        a = np.where(rng.random((23, 70)) < 0.5, rng.integers(-8, 9, (23, 70)), 0)
        b = np.where(rng.random((70, 19)) < 0.5, rng.integers(-8, 9, (70, 19)), 0)
        a[0], b[:, 0] = 3, -5  # every step alive on both sides
        return a.astype(np.float64), b.astype(np.float64)

    def test_all_steps_alive_is_one_whole_k_matmul(self, monkeypatch):
        a, b = self._integer_operands(1)
        reference = device_spgemm(a, b, backend="reference").output
        out, depths = self._matmul_depths(monkeypatch, a, b)
        assert depths == [70]
        assert np.array_equal(reference, out)

    def test_some_dead_steps_still_take_panels(self, monkeypatch):
        a, b = self._integer_operands(2)
        a[:, 20] = 0.0
        b[50, :] = 0.0
        reference = device_spgemm(a, b, backend="reference").output
        out, depths = self._matmul_depths(monkeypatch, a, b)
        assert len(depths) == 5 and max(depths) <= 16 and sum(depths) == 68
        assert np.array_equal(reference, out)

    def test_small_integers_take_one_float32_matmul(self, monkeypatch):
        a, b = self._integer_operands(3)
        reference = device_spgemm(a, b, backend="reference").output
        out, calls = self._matmuls(monkeypatch, a, b)
        assert calls == [(70, np.float32)]
        assert out.dtype == np.float64
        assert np.array_equal(reference, out)

    def test_float32_bound_is_inclusive(self, monkeypatch):
        # K * max|a| * max|b| == 2**24 exactly: every output is 2**24.
        a = np.full((3, 16), 2.0**10)
        b = np.full((16, 4), -(2.0**10))
        out, calls = self._matmuls(monkeypatch, a, b)
        assert calls == [(16, np.float32)]
        assert np.array_equal(out, np.full((3, 4), -(2.0**24)))

    @pytest.mark.parametrize(
        "a, b",
        [
            # Past the float32 bound: 17 * 2**10 * 2**10 > 2**24.
            (np.full((3, 17), 2.0**10), np.full((17, 4), 2.0**10)),
            # Past it with a sum float32 cannot hold: 1 + 17 * 2**20.
            (np.array([[1.0, 2.0**20]] * 3), np.array([[1.0], [2.0**4 + 1]])),
            # Not integer-valued.
            (np.full((3, 16), 0.5), np.full((16, 4), 3.0)),
        ],
    )
    def test_other_operands_take_float64(self, monkeypatch, a, b):
        reference = device_spgemm(a, b, backend="reference").output
        out, calls = self._matmuls(monkeypatch, a, b)
        assert [dtype for _, dtype in calls] == [np.float64]
        assert np.array_equal(reference, out)

    def test_non_finite_integer_operand_falls_back_exactly(self):
        a, b = self._integer_operands(4)
        a[2, 5] = np.inf
        b[7, 3] = -np.inf
        reference = device_spgemm(a, b, backend="reference").output
        out = blocked_numeric_product(a, b)
        assert np.array_equal(reference, out, equal_nan=True)
        assert np.array_equal(np.signbit(reference), np.signbit(out))


class TestIntegerPeak:
    """``EncodedOperand.integer_peak``: max |value| of integer data."""

    @pytest.mark.parametrize(
        "values, peak",
        [
            (np.array([[0.0, -3.0], [2.0, -0.0]]), 3.0),
            (np.array([[1.0, 2.5]]), np.inf),
            (np.array([[1.0, np.nan]]), np.inf),
            (np.array([[1.0, -np.inf]]), np.inf),
            (np.array([[-8, 5]], dtype=np.int8), np.inf),
            (np.array([[True, False]]), np.inf),
            (np.zeros((0, 4)), 0.0),
            (np.zeros((4, 0), dtype=np.float32), 0.0),
        ],
    )
    def test_small_cases(self, values, peak):
        assert EncodedOperand(values, "a").integer_peak == peak

    def test_scan_covers_every_chunk(self):
        # Several scan chunks; the largest value and the one fraction
        # sit in the last rows.
        values = np.ones((300, 1000), dtype=np.float32)
        values[-1, -1] = -4096.0
        assert EncodedOperand(values, "b").integer_peak == 4096.0
        values[-1, 0] = 0.25
        assert EncodedOperand(values, "b").integer_peak == np.inf

    def test_cached_on_the_operand(self):
        op = EncodedOperand(np.full((2, 2), 3.0), "a")
        assert op.integer_peak == 3.0
        op.dense[0, 0] = 0.5  # mutation after encoding is not re-scanned
        assert op.integer_peak == 3.0


class TestAutoDispatch:
    def test_auto_picks_vectorized_below_threshold(self):
        assert resolve_backend("auto", 32, 32, 32) == "vectorized"

    def test_auto_picks_blocked_at_threshold(self):
        size = round(AUTO_BLOCKED_MIN_WORK ** (1 / 3)) + 1
        assert resolve_backend("auto", size, size, size) == "blocked"

    def test_collect_positions_forces_reference(self):
        assert resolve_backend("auto", 4096, 4096, 4096, True) == "reference"
        assert resolve_backend("blocked", 4096, 4096, 4096, True) == "reference"

    def test_default_backend_is_auto(self, rng):
        a = random_sparse_matrix((48, 32), 0.4, rng)
        b = random_sparse_matrix((32, 48), 0.4, rng)
        default = device_spgemm(a, b)
        vectorized = device_spgemm(a, b, backend="vectorized")
        assert np.array_equal(default.output, vectorized.output)
        assert default.stats == vectorized.stats
