"""Seeded benchmark inputs, made without the package under test.

Hosts are smooth low-frequency content plus mild texture, kept inside
[8, 247] so a 42 dB seal never clips.  Uniform-noise hosts are avoided
on purpose: their high-passed luma swamps the watermark and every
open comes out untrusted.
"""
from __future__ import annotations

import json
import math
import os

import numpy as np

# (height, width, colour) of each host, visited round robin.
HOST_LAYOUTS = {
    # one size, so carriers are generated once, in set-up
    "corpus-steady": [(512, 512, True)] * 8,
    # five sizes, more than the carrier cache holds (3), PGM and PPM mixed;
    # small enough that a 30 s run holds the 40 images a p75 needs, and
    # no smaller than 192 per side, below which 42 dB carries too little
    # signal for an exact decode
    "corpus-mixed": [(192, 192, False), (192, 256, True), (224, 224, False),
                     (256, 224, True), (288, 192, False)] * 2,
    "eval-sweep-roc": [],
}
WORKLOADS = tuple(HOST_LAYOUTS)

SCORE_SETS = 4
SCORE_SET_SIZE = 2000


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for one purpose, derived from the run seed."""
    return np.random.default_rng([seed, *path])


def host_pixels(rng: np.random.Generator, height: int, width: int,
                colour: bool) -> np.ndarray:
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    periods = rng.uniform([80.0, 50.0, 120.0], [115.0, 75.0, 170.0])
    phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
    base = (128.0
            + 40.0 * np.sin(2.0 * math.pi * yy / periods[0] + phases[0])
            + 35.0 * np.cos(2.0 * math.pi * xx / periods[1] + phases[1])
            + 20.0 * np.sin(2.0 * math.pi * (xx + yy) / periods[2] + phases[2]))
    if colour:
        px = base[:, :, None] + rng.uniform(-15.0, 15.0, size=3)[None, None, :]
    else:
        px = base[:, :, None]
    px = px + rng.normal(0.0, 4.0, size=px.shape)
    return np.clip(np.rint(px), 8, 247).astype(np.uint8)


def write_netpbm(path: str, pixels: np.ndarray) -> None:
    """Binary PGM (one channel) or PPM (three channels), maxval 255."""
    height, width, channels = pixels.shape
    magic = b"P6" if channels == 3 else b"P5"
    with open(path, "wb") as fh:
        fh.write(b"%s\n%d %d\n255\n" % (magic, width, height))
        fh.write(pixels.tobytes())


def write_hosts(workload: str, seed: int, directory: str) -> list[str]:
    paths = []
    for k, (height, width, colour) in enumerate(HOST_LAYOUTS[workload]):
        path = os.path.join(directory, f"host-{k:02d}.{'ppm' if colour else 'pgm'}")
        write_netpbm(path, host_pixels(rng_for(seed, 1, k), height, width, colour))
        paths.append(path)
    return paths


def key_seeds(seed: int) -> tuple[int, int]:
    """The embedding key and a distinct wrong key for receive-side tests."""
    right, wrong = (int(x) for x in rng_for(seed, 0).integers(0, 2**63, size=2))
    if wrong == right:
        wrong ^= 1
    return right, wrong


def write_key(path: str, seed: int, label: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "label": label}, fh)
        fh.write("\n")


def message(rng: np.random.Generator, length: int = 16) -> bytes:
    """Random payload whose last byte is not NUL (decode strips NULs)."""
    body = rng.integers(0, 256, size=length, dtype=np.uint8)
    body[-1] = rng.integers(1, 256)
    return body.tobytes()


def score_set(rng: np.random.Generator, n: int = SCORE_SET_SIZE) -> tuple[list[float], list[bool]]:
    """Half positives, half negatives; scores rounded to 0.001 so ties occur."""
    labels = np.arange(n) < n // 2
    rng.shuffle(labels)
    scores = np.where(labels, rng.normal(1.5, 1.0, n), rng.normal(0.0, 1.0, n))
    return np.round(scores, 3).tolist(), labels.tolist()
