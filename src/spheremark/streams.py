"""Pinned pseudorandom stream construction.

Every random draw in the package flows through the Philox4x64
counter-based bit generator.  A stream is addressed by a tuple of
non-negative integers (seed, purpose constants, shape parameters...)
hashed through numpy's SeedSequence, so the same tuple always yields
the same stream and distinct tuples yield independent streams.

stream() is the definition.  A Philox stream is fixed by its two
64-bit key words, SeedSequence(entropy).generate_state(2, uint64), and
starts at counter 0; stream_keys derives those keys for a block of
tuples that differ only in a last index word, by running SeedSequence's
hash over the index as uint64 arrays while the shared prefix words stay
Python ints, and rekey points an existing generator at such a key.
Together they give the same draws as stream(*prefix, i) without
building a SeedSequence, a Philox and a Generator per index.
"""
from __future__ import annotations

import numpy as np

# numpy's SeedSequence constants: a 4-word pool, 32-bit hash words
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

# a fresh Philox4x64's counter and output buffer
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)


def stream(*entropy: int) -> np.random.Generator:
    """Deterministic generator addressed by an integer tuple."""
    seq = np.random.SeedSequence([int(e) for e in entropy])
    return np.random.Generator(np.random.Philox(seq))


def label_entropy(label: str) -> int:
    """Stable integer for a short text label, for use in stream()."""
    return int.from_bytes(label.encode("utf-8"), "little")


def rekey(rng: np.random.Generator, key: np.ndarray) -> None:
    """Restart rng's Philox at counter 0 under ``key``, one row of
    stream_keys, with its buffered words dropped: rng then draws what a
    fresh stream with that key draws, whatever it drew before."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": key},
        "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _words(n: int) -> list[int]:
    """SeedSequence's little-endian 32-bit words of a non-negative int."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_consts(init: int, mult: int):
    """SeedSequence's running hash constant: each hash XORs the current
    value in, advances it by one multiply, then multiplies by it."""
    while True:
        advanced = init * mult & _MASK32
        yield init, advanced
        init = advanced


def _hashmix(value, consts):
    xor, mult = next(consts)
    value = ((value ^ xor) * mult) & _MASK32
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def stream_keys(*prefix: int, indices: np.ndarray) -> np.ndarray:
    """Philox keys of stream(*prefix, i) for each i of ``indices``.

    Returns an (n, 2) uint64 array, row j equal to
    SeedSequence([*prefix, indices[j]]).generate_state(2, np.uint64).
    Each index must fit one 32-bit entropy word.  Values are Python
    ints while they depend on the prefix alone and uint64 arrays, with
    products reduced mod 2^32, once the index enters them.
    """
    index = np.array(indices, dtype=np.uint64, ndmin=1)
    if index.size and int(index.max()) > _MASK32:
        raise ValueError("stream_keys indices must be below 2**32")
    entropy = [w for e in prefix for w in _words(int(e))] + [index]
    entropy += [0] * (_POOL_SIZE - len(entropy))
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hashmix(e, consts) for e in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for e in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(e, consts))
    # generate_state(2, uint64): four 32-bit words, low word first; the
    # index has reached every pool word, so each is an array by now
    consts = _hash_consts(_INIT_B, _MULT_B)
    state = [_hashmix(word, consts) for word in pool]
    keys = np.empty((index.size, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | (state[1] << np.uint64(32))
    keys[:, 1] = state[2] | (state[3] << np.uint64(32))
    return keys
