"""Vectorized engine vs. reference loop: exact numeric + stats equality."""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import spgemm, spgemm_batched
from repro.core.engine import (
    vectorized_device_spgemm,
    vectorized_device_stats,
    vectorized_numeric_product,
)
from repro.core.operands import EncodedOperand
from repro.core.spconv import sparse_conv2d
from repro.core.spgemm_device import device_spgemm
from repro.core.spgemm_warp import WarpTileConfig
from repro.errors import ConfigError, ShapeError
from repro.sparsity.generators import random_sparse_matrix


def assert_identical(a, b, config=None):
    """Both backends must agree bit-for-bit on output and statistics."""
    reference = device_spgemm(a, b, config=config, backend="reference")
    vectorized = device_spgemm(a, b, config=config, backend="vectorized")
    assert np.array_equal(reference.output, vectorized.output)
    assert reference.stats == vectorized.stats


class TestVectorizedMatchesReference:
    @pytest.mark.parametrize("sparsity", [0.0, 0.5, 0.9, 1.0])
    def test_sparsity_sweep(self, rng, sparsity):
        a = random_sparse_matrix((96, 64), 1.0 - sparsity, rng)
        b = random_sparse_matrix((64, 96), 1.0 - sparsity, rng)
        assert_identical(a, b)

    @pytest.mark.parametrize("sparsity_a,sparsity_b", [(0.0, 0.9), (0.9, 0.0)])
    def test_asymmetric_sparsity(self, rng, sparsity_a, sparsity_b):
        a = random_sparse_matrix((64, 48), 1.0 - sparsity_a, rng)
        b = random_sparse_matrix((48, 64), 1.0 - sparsity_b, rng)
        assert_identical(a, b)

    @pytest.mark.parametrize(
        "shape_a,shape_b",
        [((70, 45), (45, 50)), ((33, 17), (17, 31)), ((1, 1), (1, 3)), ((31, 16), (16, 100))],
    )
    def test_non_tile_aligned_shapes(self, rng, shape_a, shape_b):
        a = random_sparse_matrix(shape_a, 0.4, rng)
        b = random_sparse_matrix(shape_b, 0.4, rng)
        assert_identical(a, b)

    def test_empty_matrices(self):
        assert_identical(np.zeros((64, 32)), np.zeros((32, 64)))

    def test_empty_times_dense(self, rng):
        a = np.zeros((64, 32))
        b = rng.uniform(size=(32, 64))
        assert_identical(a, b)

    def test_blocked_pattern(self, rng):
        a = random_sparse_matrix((128, 64), 0.3, rng, pattern="blocked")
        b = random_sparse_matrix((64, 128), 0.5, rng, pattern="blocked")
        assert_identical(a, b)

    def test_custom_tile_config(self, rng):
        config = WarpTileConfig(tm=16, tn=16, tk=8)
        a = random_sparse_matrix((40, 20), 0.4, rng)
        b = random_sparse_matrix((20, 40), 0.4, rng)
        assert_identical(a, b, config=config)

    def test_non_finite_operands(self):
        # 0.0 * inf = NaN must never be formed: the reference condenses
        # non-zeros first, so the engine has to as well.
        a = np.zeros((8, 4))
        a[:, 0] = 1.0
        a[2, 0] = 0.0
        b = np.zeros((4, 8))
        b[0, :] = 1.0
        b[0, 3] = np.inf
        assert_identical(a, b)
        assert not np.isnan(
            device_spgemm(a, b, backend="vectorized").output
        ).any()

    def test_element_bytes_forwarded(self, rng):
        a = random_sparse_matrix((64, 32), 0.3, rng)
        b = random_sparse_matrix((32, 64), 0.3, rng)
        reference = device_spgemm(a, b, element_bytes=4, backend="reference")
        vectorized = device_spgemm(a, b, element_bytes=4, backend="vectorized")
        assert reference.stats == vectorized.stats


class TestEngineUnits:
    def test_numeric_product_matches_matmul(self, rng):
        a = rng.uniform(size=(50, 30)).astype(np.float32)
        b = rng.uniform(size=(30, 40)).astype(np.float32)
        product = vectorized_numeric_product(a, b)
        assert product.dtype == np.float64
        assert np.allclose(product, a.astype(np.float64) @ b.astype(np.float64))

    def test_stats_match_reference_fields(self, rng):
        a = random_sparse_matrix((64, 48), 0.25, rng)
        b = random_sparse_matrix((48, 64), 0.25, rng)
        stats = vectorized_device_stats(a, b, WarpTileConfig())
        reference = device_spgemm(a, b, backend="reference").stats
        assert stats.warp.popc_issued == reference.warp.popc_issued
        assert stats.a_bytes_compressed == reference.a_bytes_compressed
        assert stats.b_bytes_compressed == reference.b_bytes_compressed
        assert stats.warp.merge.gathers == reference.warp.merge.gathers

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            vectorized_device_spgemm(np.zeros((8, 4)), np.zeros((8, 4)))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            device_spgemm(np.zeros((8, 4)), np.zeros((4, 8)), backend="cuda")

    def test_collect_positions_falls_back_to_reference(self, rng):
        a = random_sparse_matrix((32, 16), 0.5, rng)
        b = random_sparse_matrix((16, 32), 0.5, rng)
        result = device_spgemm(a, b, collect_positions=True)
        assert result.stats.warp.merge.access_positions


class TestRandomizedParity:
    """Seeded fuzz sweep: the vectorized engine must match the reference
    loop bit-for-bit on arbitrary shapes (including edge tiles clipped by
    non-multiple-of-32 dimensions) and with non-finite operand values."""

    @pytest.mark.parametrize("draw_seed", range(20))
    def test_random_draw_matches_reference(self, draw_seed):
        rng = np.random.default_rng(515000 + draw_seed)
        # Shapes intentionally off the 32x32x16 tile grid most of the time.
        m = int(rng.integers(1, 97))
        k = int(rng.integers(1, 49))
        n = int(rng.integers(1, 97))
        a = random_sparse_matrix((m, k), float(rng.uniform(0.05, 1.0)), rng)
        b = random_sparse_matrix((k, n), float(rng.uniform(0.05, 1.0)), rng)
        if draw_seed % 2:
            # Sprinkle non-finite values over existing non-zeros: the
            # condense step must keep them out of skipped products.
            for matrix in (a, b):
                nz_rows, nz_cols = np.nonzero(matrix)
                if nz_rows.size:
                    picks = rng.integers(0, nz_rows.size, size=min(3, nz_rows.size))
                    specials = rng.choice([np.inf, -np.inf, np.nan], size=picks.size)
                    matrix[nz_rows[picks], nz_cols[picks]] = specials
        reference = device_spgemm(a, b, backend="reference")
        vectorized = device_spgemm(a, b, backend="vectorized")
        assert np.array_equal(reference.output, vectorized.output, equal_nan=True)
        assert reference.stats == vectorized.stats

    @pytest.mark.parametrize("draw_seed", range(5))
    def test_random_clipped_edge_tiles_with_custom_config(self, draw_seed):
        rng = np.random.default_rng(616000 + draw_seed)
        config = WarpTileConfig(tm=16, tn=16, tk=8)
        # One dimension exactly one past a tile boundary, one well inside.
        m = 16 * int(rng.integers(1, 4)) + 1
        k = 8 * int(rng.integers(1, 4)) + int(rng.integers(1, 8))
        n = 16 * int(rng.integers(1, 4)) + 15
        a = random_sparse_matrix((m, k), 0.3, rng)
        b = random_sparse_matrix((k, n), 0.3, rng)
        assert_identical(a, b, config=config)

    def test_all_nonfinite_operands(self):
        a = np.full((40, 24), np.inf)
        b = np.full((24, 40), -np.inf)
        reference = device_spgemm(a, b, backend="reference")
        vectorized = device_spgemm(a, b, backend="vectorized")
        assert np.array_equal(reference.output, vectorized.output, equal_nan=True)
        assert reference.stats == vectorized.stats


class TestBackendThroughApi:
    def test_spgemm_backends_agree(self, rng):
        a = random_sparse_matrix((64, 48), 0.3, rng)
        b = random_sparse_matrix((48, 64), 0.3, rng)
        vec = spgemm(a, b, backend="vectorized")
        ref = spgemm(a, b, backend="reference")
        assert np.array_equal(vec.dense, ref.dense)
        assert vec.stats == ref.stats

    def test_spconv_backends_agree(self, rng):
        feature_map = random_sparse_matrix((4 * 10, 10), 0.4, rng).reshape(4, 10, 10)
        weights = random_sparse_matrix((8, 4 * 9), 0.3, rng).reshape(8, 4, 3, 3)
        vec = sparse_conv2d(feature_map, weights, padding=1, backend="vectorized")
        ref = sparse_conv2d(feature_map, weights, padding=1, backend="reference")
        assert np.array_equal(vec.output, ref.output)
        assert vec.stats.gemm == ref.stats.gemm


class TestSpgemmBatched:
    def test_stacked_arrays(self, rng):
        a_batch = rng.uniform(size=(3, 32, 16)).astype(np.float32)
        b_batch = rng.uniform(size=(3, 16, 32)).astype(np.float32)
        results = spgemm_batched(a_batch, b_batch)
        assert len(results) == 3
        for i, result in enumerate(results):
            assert np.allclose(result.dense, a_batch[i] @ b_batch[i], atol=1e-5)

    def test_pair_sequence_with_mixed_shapes(self, rng):
        pairs = [
            (random_sparse_matrix((32, 16), 0.5, rng),
             random_sparse_matrix((16, 32), 0.5, rng)),
            (random_sparse_matrix((10, 7), 0.5, rng),
             random_sparse_matrix((7, 5), 0.5, rng)),
        ]
        results = spgemm_batched(pairs)
        assert [r.dense.shape for r in results] == [(32, 32), (10, 5)]
        for (a, b), result in zip(pairs, results):
            single = device_spgemm(a, b, backend="reference")
            assert np.array_equal(result.dense, single.output)
            assert result.stats == single.stats

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ShapeError):
            spgemm_batched([np.eye(4)], [np.eye(4), np.eye(4)])


class TestModelFunctionalRuns:
    def test_resnet_slice_runs_and_aggregates(self):
        from repro.nn.functional import run_model_functional
        from repro.nn.models import get_model
        from dataclasses import replace

        model = get_model("ResNet-18")
        small = replace(model, conv_layers=model.conv_layers[1:3])
        run = run_model_functional(small, scale=0.125, seed=7)
        assert len(run.layers) == 2
        assert run.ohmma_issued > 0
        assert run.instruction_speedup > 1.0
        for layer in run.layers:
            assert layer.kind == "conv"
            assert layer.stats.warp.ohmma_dense >= layer.stats.warp.ohmma_issued

    def test_gemm_model_backends_agree(self):
        from repro.nn.functional import run_model_functional
        from repro.nn.models import get_model
        from dataclasses import replace

        model = get_model("RNN")
        small = replace(model, gemm_layers=model.gemm_layers[:1])
        vec = run_model_functional(small, scale=0.02, seed=3, backend="vectorized")
        ref = run_model_functional(small, scale=0.02, seed=3, backend="reference")
        assert vec.layers[0].stats == ref.layers[0].stats

    def test_invalid_scale_rejected(self):
        from repro.nn.functional import run_model_functional

        with pytest.raises(ConfigError):
            run_model_functional("ResNet-18", scale=0.0)


SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def assert_bit_identical(expected, actual):
    """Same shape and dtype, same bits (NaN where NaN), same zero signs."""
    assert actual.dtype == np.float64
    assert actual.shape == expected.shape
    assert np.array_equal(expected, actual, equal_nan=True)
    assert np.array_equal(np.signbit(expected), np.signbit(actual))


def assert_exact(a, b):
    """The vectorized engine equals the reference loop bit for bit, with
    every statistics field equal — on ``a @ b`` and on ``b.T @ a.T``,
    which swaps the side the engine prefers to encode."""
    reference = device_spgemm(a, b, backend="reference")
    vectorized = device_spgemm(a, b, backend="vectorized")
    assert_bit_identical(reference.output, vectorized.output)
    assert reference.stats == vectorized.stats
    transposed = vectorized_numeric_product(np.asarray(b).T, np.asarray(a).T)
    assert_bit_identical(reference.output.T, transposed)


def encoded_sides(a, b):
    """Sides whose CSR the engine built, seen through persistent operands."""
    a_op, b_op = EncodedOperand.for_a(a), EncodedOperand.for_b(b)
    vectorized_numeric_product(a_op, b_op)
    return {op.side for op in (a_op, b_op) if op._csr is not None}


def general_float64(rng, shape, density):
    """Full-mantissa float64 values, which float32 cannot represent, so
    a fused multiply-add anywhere in the kernel changes some rounding."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)
    return np.where(rng.random(shape) < density, values, 0.0)


def sprinkle(rng, matrix, values, count=3):
    """Overwrite ``count`` random positions of ``matrix`` with ``values``."""
    if matrix.size:
        picks = rng.integers(0, matrix.size, size=count)
        matrix.flat[picks] = rng.choice(values, size=count)
    return matrix


sizes = st.integers(0, 24)
densities = st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0])
seeds = st.integers(0, 2**32 - 1)


@st.composite
def float64_pairs(draw, specials=False):
    m, k, n = draw(sizes), draw(sizes), draw(sizes)
    rng = np.random.default_rng(draw(seeds))
    a = general_float64(rng, (m, k), draw(densities))
    b = general_float64(rng, (k, n), draw(densities))
    if specials:
        for matrix in (a, b):
            if draw(st.booleans()):
                sprinkle(rng, matrix, [np.inf, -np.inf, np.nan, -0.0])
    return a, b


class TestExactProduct:
    """The CSR x dense engine against the reference loop, bit for bit."""

    @SETTINGS
    @given(float64_pairs())
    def test_general_float64_is_bit_identical(self, operands):
        assert_exact(*operands)

    @SETTINGS
    @given(float64_pairs(specials=True))
    def test_non_finite_and_negative_zero_are_bit_identical(self, operands):
        assert_exact(*operands)

    def test_fused_multiply_add_would_be_caught(self):
        # (1 + 2^-30)^2 rounds to 1 + 2^-29 and cancels the first product
        # exactly; a fused multiply-add keeps the 2^-60 and returns it.
        e = 2.0**-30
        a = np.array([[1.0, 1.0 + e]] * 3)
        b = np.array([[-(1.0 + 2 * e), 0.0], [1.0 + e, 0.0]])
        for lhs, rhs in ((a[:1], b[:, :1]), (a, b)):
            assert_exact(lhs, rhs)
            assert not vectorized_numeric_product(lhs, rhs).any()
        assert encoded_sides(a[:1], b[:, :1]) == {"a"}
        assert encoded_sides(a, b) == {"b"}

    @pytest.mark.parametrize(
        "non_finite,encoded", [("a", {"b"}), ("b", {"a"}), ("ab", {"a", "b"})]
    )
    @pytest.mark.parametrize("special", [np.inf, -np.inf, np.nan])
    def test_non_finite_sides(self, non_finite, encoded, special):
        rng = np.random.default_rng(7)
        a = general_float64(rng, (19, 23), 0.4)
        b = general_float64(rng, (23, 17), 0.4)
        if "a" in non_finite:
            a[3, 5] = special
        if "b" in non_finite:
            b[5, 2] = special
        assert_exact(a, b)
        assert encoded_sides(a, b) == encoded

    def test_non_finite_everywhere(self):
        a = np.full((9, 6), np.inf)
        a[::2, ::3] = np.nan
        b = np.full((6, 7), -np.inf)
        b[1] = 0.0
        assert_exact(a, b)

    def test_negative_zero_and_exact_cancellation_give_positive_zero(self):
        a = np.array([[-0.0, -2.0, 3.0, -3.0], [1.5, -0.0, 12.0, 0.0]])
        b = np.array([[-4.0, 0.0], [-0.0, 0.0], [0.5, -0.0], [0.5, 0.0]])
        assert_exact(a, b)
        product = vectorized_numeric_product(a, b)
        assert not product.any() and not np.signbit(product).any()

    @pytest.mark.parametrize(
        "dtype", [np.int8, np.int32, np.int64, np.uint8, np.bool_]
    )
    def test_integer_dtypes(self, dtype):
        rng = np.random.default_rng(3)
        a = np.where(rng.random((13, 9)) < 0.5, rng.integers(1, 100, (13, 9)), 0)
        b = np.where(rng.random((9, 11)) < 0.5, rng.integers(1, 100, (9, 11)), 0)
        assert_exact(a.astype(dtype), b.astype(dtype))

    def test_int64_beyond_float64_mantissa(self):
        a = np.array([[2**40 + 1, 0, 3], [1, -7, 0]], dtype=np.int64)
        b = np.array([[2**20 + 1, 1], [0, 5], [3, 2**45 + 3]], dtype=np.int64)
        assert_exact(a, b)

    @pytest.mark.parametrize(
        "shape_a,shape_b",
        [((0, 5), (5, 3)), ((4, 0), (0, 3)), ((4, 5), (5, 0)), ((0, 0), (0, 0))],
    )
    def test_zero_sized_dimensions(self, shape_a, shape_b):
        assert_exact(np.ones(shape_a), np.ones(shape_b))

    @pytest.mark.parametrize(
        "shape_a,shape_b",
        [((1, 97), (97, 2)), ((65, 1), (1, 70)), ((33, 49), (49, 1)), ((3, 130), (130, 47))],
    )
    def test_ragged_shapes(self, shape_a, shape_b):
        rng = np.random.default_rng(sum(shape_a + shape_b))
        assert_exact(
            general_float64(rng, shape_a, 0.3), general_float64(rng, shape_b, 0.6)
        )

    def test_both_orientations_are_encoded_and_exact(self):
        rng = np.random.default_rng(12)
        sparse_a = general_float64(rng, (40, 30), 0.1)
        dense_b = general_float64(rng, (30, 20), 0.9)
        assert encoded_sides(sparse_a, dense_b) == {"a"}
        assert_exact(sparse_a, dense_b)
        dense_a = general_float64(rng, (40, 30), 0.9)
        sparse_b = general_float64(rng, (30, 20), 0.1)
        assert encoded_sides(dense_a, sparse_b) == {"b"}
        assert_exact(dense_a, sparse_b)

    def test_inner_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            vectorized_numeric_product(np.ones((3, 4)), np.ones((5, 2)))


class TestFoldSafety:
    """Stacking rows of A or columns of B never changes any slice's bits,
    even where the fused call encodes a different side."""

    @SETTINGS
    @given(float64_pairs(specials=True), st.lists(sizes, min_size=1, max_size=4))
    def test_stacked_a_rows(self, operands, extra_rows):
        a, b = operands
        rng = np.random.default_rng(len(extra_rows))
        slices = [a] + [
            general_float64(rng, (rows, a.shape[1]), 0.5) for rows in extra_rows
        ]
        fused = vectorized_numeric_product(np.vstack(slices), b)
        start = 0
        for part in slices:
            stop = start + part.shape[0]
            assert_bit_identical(vectorized_numeric_product(part, b), fused[start:stop])
            start = stop

    @SETTINGS
    @given(float64_pairs(specials=True), st.lists(sizes, min_size=1, max_size=4))
    def test_stacked_b_columns(self, operands, extra_cols):
        a, b = operands
        rng = np.random.default_rng(len(extra_cols))
        slices = [b] + [
            general_float64(rng, (b.shape[0], cols), 0.5) for cols in extra_cols
        ]
        fused = vectorized_numeric_product(a, np.hstack(slices))
        start = 0
        for part in slices:
            stop = start + part.shape[1]
            assert_bit_identical(
                vectorized_numeric_product(a, part), fused[:, start:stop]
            )
            start = stop


class TestCsrCache:
    def test_persistent_operand_builds_its_csr_once(self, rng):
        weights = EncodedOperand.for_b(general_float64(rng, (30, 20), 0.1))
        x = general_float64(rng, (40, 30), 0.9)
        first = vectorized_numeric_product(x, weights)
        cached = weights._csr
        assert cached is not None
        again = vectorized_numeric_product(x, weights)
        assert weights._csr is cached and weights.csr() is cached
        assert_bit_identical(first, again)

    def test_non_persistent_operand_never_caches(self, rng):
        op = EncodedOperand(general_float64(rng, (30, 20), 0.1), "b", persistent=False)
        vectorized_numeric_product(general_float64(rng, (40, 30), 0.9), op)
        assert op._csr is None
        assert op.csr() is not op.csr()

    def test_csr_rows_hold_ascending_k_and_skip_zeros(self):
        b = np.array([[0.0, 2.0], [-0.0, 0.0], [5.0, -1.0]], dtype=np.float32)
        csr = EncodedOperand.for_b(b).csr()
        assert csr.shape == (2, 3) and csr.dtype == np.float64
        assert csr.indptr.tolist() == [0, 1, 3]
        assert csr.indices.tolist() == [2, 0, 2]
        assert csr.data.tolist() == [5.0, 2.0, -1.0]

    def test_warm_builds_neither_csr_nor_float64_copy(self, rng):
        op = EncodedOperand.for_a(general_float64(rng, (40, 30), 0.2).astype(np.float32))
        op.warm(WarpTileConfig())
        assert op._csr is None and op._dense64 is None
        assert op.k_nnz.sum() == np.count_nonzero(op.dense)

    def test_blocked_session_holds_no_csr(self):
        from repro.nn.models import get_model
        from repro.nn.session import compile_model

        model = get_model("ResNet-18")
        small = replace(model, conv_layers=model.conv_layers[:3])
        session = compile_model(small, scale=0.0625, seed=5, backend="blocked")
        session.run(2)
        assert all(layer.weight_operand._csr is None for layer in session.layers)

    def test_racing_first_multiplies_share_one_valid_encoding(self, rng):
        dense = general_float64(rng, (64, 48), 0.1)
        x = general_float64(rng, (48, 80), 0.9)
        expected = device_spgemm(dense, x, backend="reference").output
        fresh = EncodedOperand(dense, "a", persistent=False).csr()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                shared = EncodedOperand.for_a(dense)
                barrier = threading.Barrier(6, timeout=30)
                results = []

                def multiply():
                    barrier.wait()
                    results.append(vectorized_numeric_product(shared, x))

                threads = [threading.Thread(target=multiply) for _ in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert len(results) == 6
                for result in results:
                    assert_bit_identical(expected, result)
                cached = shared.csr()
                assert cached is shared._csr
                for field in ("indptr", "indices", "data"):
                    assert np.array_equal(
                        getattr(cached, field), getattr(fresh, field)
                    )
        finally:
            sys.setswitchinterval(interval)
