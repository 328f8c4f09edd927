"""Pinned pseudorandom stream construction.

Every random draw in the package flows through the Philox4x64
counter-based bit generator.  A stream is addressed by a tuple of
non-negative integers (seed, purpose constants, shape parameters...)
hashed through numpy's SeedSequence, so the same tuple always yields
the same stream and distinct tuples yield independent streams.
"""
from __future__ import annotations

import numpy as np


def stream(*entropy: int) -> np.random.Generator:
    """Deterministic generator addressed by an integer tuple."""
    seq = np.random.SeedSequence([int(e) for e in entropy])
    return np.random.Generator(np.random.Philox(seq))


def label_entropy(label: str) -> int:
    """Stable integer for a short text label, for use in stream()."""
    return int.from_bytes(label.encode("utf-8"), "little")
