import math

import numpy as np
import pytest

from spheremark import (DEFAULT_DIM, DimensionError, DimensionMismatchError,
                        DomainError, UnitVector, cosine, sample_uniform,
                        unit)
from spheremark.streams import stream

# mean pairwise cosine at d=256: per-pair sd is 1/16, so over 1e4 pairs
# the mean has sd ~ 6.25e-4; 0.0019 is a 3-sigma band
PAIRWISE_PAIRS = 10_000
PAIRWISE_TOL = 0.0019


def test_default_dim():
    assert DEFAULT_DIM == 256


class TestUnitVector:
    def test_accepts_unit_vector(self):
        v = UnitVector(np.array([0.6, 0.8]))
        assert v.dim == 2
        assert v.components.dtype == np.float64

    def test_rejects_off_norm(self):
        with pytest.raises(DomainError):
            UnitVector(np.array([0.6, 0.9]))

    def test_rejects_norm_just_outside_tolerance(self):
        v = np.array([1.0 + 2e-9, 0.0])
        with pytest.raises(DomainError):
            UnitVector(v)

    def test_accepts_norm_within_tolerance(self):
        UnitVector(np.array([1.0 + 5e-10, 0.0]))

    def test_rejects_matrix_and_scalar(self):
        with pytest.raises(DimensionError):
            UnitVector(np.eye(2))
        with pytest.raises(DimensionError):
            UnitVector(np.array(1.0))

    def test_rejects_dim_below_two(self):
        with pytest.raises(DimensionError):
            UnitVector(np.array([1.0]))

    def test_rejects_nan_and_inf(self):
        with pytest.raises(DomainError):
            UnitVector(np.array([math.nan, 0.0]))
        with pytest.raises(DomainError):
            UnitVector(np.array([math.inf, 0.0]))

    def test_components_read_only(self):
        v = UnitVector(np.array([0.6, 0.8]))
        with pytest.raises(ValueError):
            v.components[0] = 1.0

    def test_copies_input(self):
        src = np.array([0.6, 0.8])
        v = UnitVector(src)
        src[0] = 99.0
        assert v.components[0] == 0.6


class TestSampling:
    def test_rejects_small_dim(self):
        rng = stream(0)
        for d in (0, 1):
            with pytest.raises(DimensionError):
                sample_uniform(d, rng)

    def test_norm_within_tolerance(self):
        rng = stream(1)
        for _ in range(100):
            v = sample_uniform(256, rng)
            assert abs(float(np.linalg.norm(v.components)) - 1.0) <= 1e-9

    def test_mean_pairwise_cosine_near_zero(self):
        rng = stream(2)
        total = 0.0
        for _ in range(PAIRWISE_PAIRS):
            total += cosine(sample_uniform(256, rng), sample_uniform(256, rng))
        assert abs(total / PAIRWISE_PAIRS) <= PAIRWISE_TOL

    def test_component_statistics(self):
        # each component of a uniform unit vector has mean 0, var 1/d
        rng = stream(3)
        n = 20_000
        first = np.empty(n)
        for i in range(n):
            first[i] = sample_uniform(64, rng).components[0]
        assert abs(first.mean()) <= 4.0 * (1.0 / math.sqrt(64)) / math.sqrt(n)
        assert abs(first.var() - 1.0 / 64) <= 0.1 * (1.0 / 64)


class TestCosine:
    def test_orthogonal_and_parallel(self):
        a = UnitVector(np.array([1.0, 0.0]))
        b = UnitVector(np.array([0.0, 1.0]))
        assert cosine(a, b) == 0.0
        assert cosine(a, a) == 1.0
        neg = UnitVector(np.array([-1.0, 0.0]))
        assert cosine(a, neg) == -1.0

    def test_symmetry_bitwise(self):
        rng = stream(4)
        for _ in range(100):
            a = sample_uniform(32, rng)
            b = sample_uniform(32, rng)
            assert cosine(a, b) == cosine(b, a)

    def test_clamped_to_valid_range(self):
        rng = stream(5)
        for _ in range(200):
            a = sample_uniform(8, rng)
            assert -1.0 <= cosine(a, a) <= 1.0
            assert -1.0 <= cosine(a, sample_uniform(8, rng)) <= 1.0

    def test_dim_mismatch(self):
        rng = stream(6)
        with pytest.raises(DimensionMismatchError):
            cosine(sample_uniform(8, rng), sample_uniform(16, rng))


class TestUnitHelper:
    def test_normalizes(self):
        v = unit(np.array([3.0, 4.0]))
        assert np.allclose(v.components, [0.6, 0.8])

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            unit(np.zeros(4))

    # the refusals a one-vector input gets, whichever path computes it
    @pytest.mark.parametrize("bad, error", [
        (5.0, DimensionError),
        ([1.0], DimensionError),
        (np.ones((2, 2, 2)), DimensionError),
        ([], DomainError),
        (np.zeros(3), DomainError),
        ([1.0, math.nan], DomainError),
        ([1.0, math.inf], DomainError),
    ])
    def test_refusals(self, bad, error):
        with pytest.raises(error):
            unit(bad)

    def test_cosine_refuses_vector_with_array(self):
        v = UnitVector(np.ones(4) / 2.0)
        for other in (np.ones(4) / 2.0, np.ones((1, 4)) / 2.0):
            with pytest.raises(DimensionMismatchError):
                cosine(v, other)
            with pytest.raises(DimensionMismatchError):
                cosine(other, v)


class TestBlocks:
    # a block must get unit's and cosine's bits row by row, so a block of
    # the sweep normalizes and scores each row as one vector would be
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_unit_block_bit_equal_to_unit(self, n):
        raw = stream(8, n).standard_normal((n, 256)) * 3.0
        got = unit(raw)
        assert isinstance(got, np.ndarray) and got.shape == (n, 256)
        for k in range(n):
            assert np.array_equal(got[k], unit(raw[k]).components)

    @pytest.mark.parametrize("n", [1, 3, 64])
    def test_cosine_block_bit_equal_to_cosine(self, n):
        rng = stream(9, n)
        a = np.stack([sample_uniform(256, rng).components for _ in range(n)])
        b = np.stack([sample_uniform(256, rng).components for _ in range(n)])
        want = [cosine(UnitVector(x), UnitVector(y)) for x, y in zip(a, b)]
        assert cosine(a, b).tolist() == want
        assert cosine(a, a).max() <= 1.0

    def test_unit_block_rejects_zero_row(self):
        raw = np.ones((3, 4))
        raw[1] = 0.0
        with pytest.raises(DomainError):
            unit(raw)

    def test_cosine_block_shape_mismatch(self):
        a = np.ones((2, 4)) / 2.0
        for b in (np.ones((2, 8)) / math.sqrt(8), np.ones((3, 4)) / 2.0,
                  UnitVector(np.ones(4) / 2.0)):
            with pytest.raises(DimensionMismatchError):
                cosine(a, b)
            with pytest.raises(DimensionMismatchError):
                cosine(b, a)


class TestSerialization:
    def test_binary_length_prefix(self):
        v = UnitVector(np.array([0.6, 0.8]))
        blob = v.to_bytes()
        assert blob[:4] == (2).to_bytes(4, "little")
        assert len(blob) == 4 + 2 * 8
        rng = stream(8)
        for v in [v] + [sample_uniform(64, rng) for _ in range(20)]:
            assert v.to_bytes()[4:] == v.components.astype("<f8").tobytes()
