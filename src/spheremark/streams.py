"""Pinned pseudorandom stream construction.

Every random draw in the package flows through the Philox4x64
counter-based bit generator.  A stream is addressed by a tuple of
non-negative integers (seed, purpose constants, shape parameters...)
hashed through numpy's SeedSequence, so the same tuple always yields
the same stream and distinct tuples yield independent streams.

stream() is the definition: a Philox stream is fixed by its two 64-bit
key words, SeedSequence(entropy).generate_state(2, uint64), and starts
at counter 0.  Philox is addressed by (key, counter), so one key from
stream_key serves many counter blocks: rekey opens block b at counter
(0, b, 0, 0), owning the 2**64 steps before block b + 1, and a carrier
set opens each group at the counter where the serial stream reaches it.
"""
from __future__ import annotations

import numpy as np

# a fresh Philox4x64's output buffer
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)


def stream(*entropy: int) -> np.random.Generator:
    """Deterministic generator addressed by an integer tuple."""
    seq = np.random.SeedSequence([int(e) for e in entropy])
    return np.random.Generator(np.random.Philox(seq))


def stream_key(*entropy: int) -> np.ndarray:
    """The two uint64 Philox key words of stream(*entropy), derived as
    stream() derives them, without building its generator."""
    return np.random.SeedSequence([int(e) for e in entropy]).generate_state(2, np.uint64)


def label_entropy(label: str) -> int:
    """Stable integer for a short text label, for use in stream()."""
    return int.from_bytes(label.encode("utf-8"), "little")


def rekey(rng: np.random.Generator, key: np.ndarray, block: int) -> None:
    """Point rng's Philox at counter (0, block, 0, 0) under ``key``, with
    its buffered words dropped: rng then draws what a fresh
    Philox(key=key, counter=(0, block, 0, 0)) draws, whatever it drew
    before."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.array([0, block, 0, 0], dtype=np.uint64), "key": key},
        "buffer": _ZERO_WORDS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
