import numpy as np
import pytest

from spheremark.channel import _noise, _random_message
from spheremark.streams import label_entropy, rekey, stream, stream_keys

ROOTS = [0, 7, 2**32 - 1, 2**32, 2**63 - 1, 0x243F6A8885A308D3]
LABELS = [0, label_entropy("a"), label_entropy("identity_42db"),
          label_entropy("é" * 20)]  # 40 bytes of UTF-8: ten entropy words
INDICES = [0, 1, 63, 64, 65, 2**32 - 1]


def _seed_sequence_key(*entropy):
    return np.random.SeedSequence(list(entropy)).generate_state(2, np.uint64)


class TestStreamKeys:
    def test_labels_cover_one_to_ten_words(self):
        assert label_entropy("a") < 2**8
        assert 2**(32 * 9) <= label_entropy("é" * 20) < 2**(32 * 10)

    @pytest.mark.parametrize("root", ROOTS)
    @pytest.mark.parametrize("label", LABELS)
    def test_equal_seed_sequence_state(self, root, label):
        keys = stream_keys(root, label, indices=np.array(INDICES))
        assert keys.dtype == np.uint64 and keys.shape == (len(INDICES), 2)
        for i, got in zip(INDICES, keys):
            assert np.array_equal(got, _seed_sequence_key(root, label, i))

    @pytest.mark.parametrize("prefix", [(), (5,), (1, 2, 3), (1, 2, 3, 4, 5, 6),
                                        (2**64 - 1, 2**96 + 5)])
    def test_any_prefix_length(self, prefix):
        # the index word lands in the 4-word pool or after it
        indices = np.arange(70)
        keys = stream_keys(*prefix, indices=indices)
        for i in indices:
            assert np.array_equal(keys[i], _seed_sequence_key(*prefix, int(i)))

    def test_is_the_philox_key_of_stream(self):
        keys = stream_keys(11, 12, indices=np.arange(3))
        for i, key in enumerate(keys):
            assert np.array_equal(stream(11, 12, i).bit_generator.state["state"]["key"], key)

    def test_empty_block(self):
        assert stream_keys(1, 2, indices=np.arange(0)).shape == (0, 2)

    def test_refuses_two_word_index(self):
        with pytest.raises(ValueError, match="2\\*\\*32"):
            stream_keys(1, 2, indices=np.array([0, 2**32]))


class TestRekey:
    ROOT = 0x243F6A8885A308D3
    LABEL = label_entropy("reference_42db")

    def _used_generator(self):
        # one bounded uint32 draw leaves half a Philox word buffered
        rng = stream(99)
        rng.standard_normal(5)
        rng.integers(0, 1000, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        return rng

    @pytest.mark.parametrize("i", [0, 63, 2**32 - 1])
    def test_state_equals_fresh_stream(self, i):
        rng = self._used_generator()
        rekey(rng, stream_keys(self.ROOT, self.LABEL, indices=[i])[0])
        fresh = stream(self.ROOT, self.LABEL, i).bit_generator.state
        got = rng.bit_generator.state
        assert got["bit_generator"] == fresh["bit_generator"]
        for field in ("counter", "key"):
            assert np.array_equal(got["state"][field], fresh["state"][field])
        assert np.array_equal(got["buffer"], fresh["buffer"])
        for field in ("buffer_pos", "has_uint32", "uinteger"):
            assert got[field] == fresh[field]

    @pytest.mark.parametrize("i", [0, 64, 2**32 - 1])
    def test_draws_equal_fresh_stream(self, i):
        rng = self._used_generator()
        rekey(rng, stream_keys(self.ROOT, self.LABEL, indices=[i])[0])
        fresh = stream(self.ROOT, self.LABEL, i)
        assert _random_message(rng, 16) == _random_message(fresh, 16)
        assert np.array_equal(_noise(rng, 256, 0.18), _noise(fresh, 256, 0.18))
