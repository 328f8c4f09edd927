import json
import math

import numpy as np
import pytest

from spheremark import (DimensionError, DimensionMismatchError, KeyFileError,
                        RotationMatrix, SecretKey, load_key, rotate,
                        sample_rotation, sample_uniform, save_key, unrotate)
from spheremark import rotation
from spheremark.streams import stream
from conftest import raw_qr_rotation

# chi-square critical value, 15 degrees of freedom, significance 0.01
CHI2_CRIT_15_99 = 30.57791416689249
ANGLE_KEYS = 4000
ANGLE_BINS = 16

WRONG_KEY_BOUND = 5.0 / math.sqrt(256)  # 0.3125


def _angle_stat(n_keys: int, haar_fix: bool) -> float:
    angles = np.empty(n_keys)
    for s in range(n_keys):
        m = (sample_rotation(SecretKey(seed=s), 2).entries if haar_fix
             else raw_qr_rotation(s, 2))
        angles[s] = math.atan2(m[1, 0], m[0, 0]) % (2.0 * math.pi)
    counts, _ = np.histogram(angles, bins=ANGLE_BINS, range=(0.0, 2.0 * math.pi))
    expected = n_keys / ANGLE_BINS
    return float(((counts - expected) ** 2 / expected).sum())


class TestSecretKey:
    def test_valid_range(self):
        SecretKey(seed=0)
        SecretKey(seed=2**64 - 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(KeyFileError):
            SecretKey(seed=-1)
        with pytest.raises(KeyFileError):
            SecretKey(seed=2**64)

    def test_rejects_non_int(self):
        with pytest.raises(KeyFileError):
            SecretKey(seed=1.5)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "k.json"
        key = SecretKey(seed=1234, label="bench")
        save_key(key, path)
        assert load_key(path) == key

    @pytest.mark.parametrize("label", [5, True, b"bytes", ["x"]])
    def test_rejects_non_text_label(self, label):
        # load_key refuses such a label, so a key holding one could not
        # be read back from the file save_key writes
        with pytest.raises(KeyFileError, match="label"):
            SecretKey(seed=1, label=label)

    @pytest.mark.parametrize("label", ["", None])
    def test_text_or_no_label_roundtrips(self, tmp_path, label):
        path = tmp_path / "k.json"
        save_key(SecretKey(seed=7, label=label), path)
        assert load_key(path) == SecretKey(seed=7, label=label)

    def test_load_rejects_missing_seed(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"label": "x"}))
        with pytest.raises(KeyFileError):
            load_key(path)

    def test_load_rejects_non_integer_seed(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"seed": "abc"}))
        with pytest.raises(KeyFileError):
            load_key(path)

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text("{nope")
        with pytest.raises(KeyFileError):
            load_key(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(KeyFileError):
            load_key(tmp_path / "absent.json")


class TestConstruction:
    def test_so1_is_plus_one(self):
        for s in (0, 7, 2**63):
            m = sample_rotation(SecretKey(seed=s), 1)
            assert m.entries.shape == (1, 1)
            assert m.entries[0, 0] == 1.0

    def test_zero_dim_rejected(self):
        with pytest.raises(DimensionError):
            sample_rotation(SecretKey(seed=0), 0)

    def test_dim_above_limit_rejected(self, monkeypatch):
        assert rotation.MAX_DIM == 4096
        with pytest.raises(DimensionError, match="4096"):
            sample_rotation(SecretKey(seed=0), 60000)
        # the limit is inclusive: exactly MAX_DIM is sampled
        monkeypatch.setattr(rotation, "MAX_DIM", 5)
        assert sample_rotation(SecretKey(seed=0), 5).dim == 5
        with pytest.raises(DimensionError):
            sample_rotation(SecretKey(seed=0), 6)

    def test_orthogonal_and_special(self):
        for d in (2, 3, 8, 64):
            for s in range(20):
                m = sample_rotation(SecretKey(seed=s), d)
                eye_err = float(np.max(np.abs(m.entries.T @ m.entries - np.eye(d))))
                assert eye_err <= 1e-10
                assert abs(float(np.linalg.det(m.entries)) - 1.0) <= 1e-8

    def test_deterministic_in_seed_and_dim(self):
        a = sample_rotation(SecretKey(seed=42), 16)
        b = sample_rotation(SecretKey(seed=42), 16)
        assert np.array_equal(a.entries, b.entries)

    def test_label_does_not_enter_stream(self):
        a = sample_rotation(SecretKey(seed=42, label="x"), 16)
        b = sample_rotation(SecretKey(seed=42, label="y"), 16)
        assert np.array_equal(a.entries, b.entries)

    def test_dim_enters_stream(self):
        # same seed, different dim: not a leading submatrix of the other
        a = sample_rotation(SecretKey(seed=42), 8)
        b = sample_rotation(SecretKey(seed=42), 16)
        assert not np.allclose(a.entries, b.entries[:8, :8])

    def test_different_seeds_differ(self):
        a = sample_rotation(SecretKey(seed=1), 8)
        b = sample_rotation(SecretKey(seed=2), 8)
        assert not np.allclose(a.entries, b.entries)

    def test_angle_uniformity_d2(self):
        assert _angle_stat(ANGLE_KEYS, haar_fix=True) <= CHI2_CRIT_15_99

    def test_angle_bias_without_haar_fix(self):
        # raw Householder QR pins the R diagonal signs; half the angle
        # bins go empty and the statistic explodes
        assert _angle_stat(ANGLE_KEYS, haar_fix=False) > CHI2_CRIT_15_99

    def test_d3_rotated_component_unbiased(self):
        # first column entry O[0,0] is the first component of rotate(e1);
        # Haar-uniform image on S^2 has mean 0 per component
        n = 100_000
        total = 0.0
        for s in range(n):
            total += float(sample_rotation(SecretKey(seed=s), 3).entries[0, 0])
        assert abs(total / n) <= 0.01


class TestHeldRotations:
    @pytest.fixture
    def qr_calls(self, monkeypatch):
        # every draw factors one Gaussian matrix; count the factorizations
        rotation._draw_rotation.cache_clear()
        calls = []
        real_qr = np.linalg.qr

        def counting_qr(a, *args, **kwargs):
            calls.append(a.shape)
            return real_qr(a, *args, **kwargs)

        monkeypatch.setattr(rotation.np.linalg, "qr", counting_qr)
        yield calls
        rotation._draw_rotation.cache_clear()

    def test_held_equals_fresh_draw(self, qr_calls):
        for seed, dim in [(0, 2), (42, 16), (2**64 - 1, 256)]:
            held = sample_rotation(SecretKey(seed=seed), dim)
            assert sample_rotation(SecretKey(seed=seed), dim) is held
            fresh = rotation._draw_rotation.__wrapped__(seed, dim)
            assert held is not fresh
            assert held.entries.tobytes() == fresh.entries.tobytes()

    def test_alternating_two_keys_factors_each_once(self, qr_calls):
        right, wrong = SecretKey(seed=5), SecretKey(seed=6, label="other")
        first = [sample_rotation(k, 64) for k in (right, wrong)]
        for _ in range(5):
            assert [sample_rotation(k, 64) for k in (right, wrong)] == first
        assert qr_calls == [(64, 64)] * 2

    def test_label_shares_the_held_rotation(self, qr_calls):
        a = sample_rotation(SecretKey(seed=9, label="x"), 8)
        assert sample_rotation(SecretKey(seed=9, label="y"), 8) is a
        assert len(qr_calls) == 1

    def test_third_key_evicts_least_recent(self, qr_calls):
        a, b, c = (SecretKey(seed=s) for s in (1, 2, 3))
        for k in (a, b, c):
            sample_rotation(k, 8)
        assert len(qr_calls) == 3
        sample_rotation(b, 8)
        sample_rotation(c, 8)
        assert len(qr_calls) == 3
        sample_rotation(a, 8)
        assert len(qr_calls) == 4
        # a evicted b, the least recently used; c is still held
        sample_rotation(c, 8)
        assert len(qr_calls) == 4
        sample_rotation(b, 8)
        assert len(qr_calls) == 5

    def test_dim_is_part_of_the_memo_key(self, qr_calls):
        key = SecretKey(seed=4)
        assert sample_rotation(key, 8).dim == 8
        assert sample_rotation(key, 16).dim == 16
        assert len(qr_calls) == 2


class TestRotationMatrixType:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            RotationMatrix(np.zeros((2, 3)))

    def test_entries_read_only(self):
        m = sample_rotation(SecretKey(seed=0), 4)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 2.0


class TestRotateUnrotate:
    def test_roundtrip(self):
        rng = stream(10)
        for s in range(50):
            m = sample_rotation(SecretKey(seed=s), 256)
            for _ in range(20):
                v = sample_uniform(256, rng)
                back = unrotate(m, rotate(m, v))
                assert float(np.max(np.abs(back.components - v.components))) <= 1e-9

    def test_norm_preserved_before_renormalization(self):
        rng = stream(11)
        for s in range(10):
            m = sample_rotation(SecretKey(seed=s), 64)
            v = sample_uniform(64, rng)
            raw = m.entries @ v.components
            assert abs(float(np.linalg.norm(raw)) - 1.0) <= 1e-12

    def test_dim_mismatch(self):
        m = sample_rotation(SecretKey(seed=0), 8)
        v = sample_uniform(16, stream(12))
        with pytest.raises(DimensionMismatchError):
            rotate(m, v)
        with pytest.raises(DimensionMismatchError):
            unrotate(m, v)

    def test_wrong_key_decorrelates(self):
        # cosine(O_i v, O_j v) for i != j matches the null of two uniform
        # directions: |c| stays under 5/sqrt(d) essentially always
        v = sample_uniform(256, stream(3))
        rows = np.stack([
            rotate(sample_rotation(SecretKey(seed=s), 256), v).components
            for s in range(100)
        ])
        gram = rows @ rows.T
        off = gram[~np.eye(100, dtype=bool)]
        assert off.size == 9900
        assert float(np.abs(off).max()) <= WRONG_KEY_BOUND

    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_block_matches_per_vector(self, n):
        # a block of n rows may sum in another order than a block of one,
        # so its rows agree with rotate of each to rounding, not bit for bit
        m = sample_rotation(SecretKey(seed=4), 256)
        rng = stream(13, n)
        vs = [sample_uniform(256, rng) for _ in range(n)]
        rows = np.stack([v.components for v in vs])
        rotated, back = rotate(m, rows), unrotate(m, rows)
        assert rotated.shape == back.shape == (n, 256)
        for k, v in enumerate(vs):
            assert np.allclose(rotated[k], rotate(m, v).components, rtol=0, atol=1e-15)
            assert np.allclose(back[k], unrotate(m, v).components, rtol=0, atol=1e-15)
            # one vector is rotated as a block of one row, bit for bit
            assert np.array_equal(rotate(m, v).components, rotate(m, v.components[None])[0])
            assert np.array_equal(unrotate(m, v).components,
                                  unrotate(m, v.components[None])[0])
        assert np.allclose(unrotate(m, rotated), rows, rtol=0, atol=1e-14)

    def test_block_dim_mismatch(self):
        m = sample_rotation(SecretKey(seed=0), 8)
        for bad in (np.ones((2, 16)) / 4.0, np.ones(8) / math.sqrt(8)):
            with pytest.raises(DimensionMismatchError):
                rotate(m, bad)
            with pytest.raises(DimensionMismatchError):
                unrotate(m, bad)
