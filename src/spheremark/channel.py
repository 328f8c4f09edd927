"""Calibrated isotropic-noise simulation of vector transmission.

A channel that degrades an embedded vector to a target mean cosine
c is modeled as v -> normalize(v + sigma*g) with Gaussian g.  For
unit v the mean cosine concentrates at 1/sqrt(1 + sigma^2) in high
dimension, so the noise scale that realizes a target is

    sigma = sqrt(1/c^2 - 1).

run_sweep pushes messages through a Watermark's rotations, with
perturb's noise in place of the image, assesses them and aggregates
per-profile statistics.  Cells run in blocks of _BLOCK_ROWS consecutive
cells of one profile, block k holding cells 64k ... 64k + 63 (the last
block may be shorter).  A profile has one Philox key, that of
stream(root, label), and each of a block's three fields draws from that
key at its own counter block (rekey): the message bytes at 3k, their
last bytes at 3k + 1 and the noise at 3k + 2.  numpy's samplers draw
row after row, so a cell's values depend only on (root, profile name,
cell index), not on the number of cells, on other profiles or on
evaluation order, and one generator, re-pointed per field, serves every
block.  Encode, rotate, noise and unrotate then run on the block's rows
at once.  A block never mixes profiles: a BLAS product row's bits can
depend on the rows beside it, so the products stay per profile block
and a profile's rows do not depend on its neighbours.  Scoring (decode,
re-encode, the cosines and the p-values) is exact row by row, so the
unrotated blocks queue across profiles and are scored together in
chunks of _SCORE_ROWS or more rows, each profile adding its cells to
its sums in cell order.  Memory stays bounded for any number of
messages.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ._fileio import atomic_write, read_json
from .codec import Codec, Message, _octets
from .confidence import ConfidenceReport, assess, check_ell_threshold
from .errors import DomainError
from .imagechannel import extract
from .netpbm import RasterImage
from .rotation import SecretKey, check_rotation_dim, rotate, sample_rotation, unrotate
from .sphere import UnitVector, _from_rows, _row_dots, cosine, unit
from .streams import label_entropy, rekey, stream_key


def calibrate(target_cosine: float, dim: int) -> float:
    """Noise scale sigma realizing a target mean cosine in dimension d.

    The formula is the d -> infinity concentration limit; the O(1/d)
    bias at d = 256 is under the calibration tolerance.
    """
    if not 0.0 < target_cosine <= 1.0:
        raise DomainError(f"target cosine {target_cosine} outside (0, 1]")
    if dim < 2:
        raise DomainError(f"dimension {dim} < 2")
    square = target_cosine * target_cosine
    sigma = math.sqrt(1.0 / square - 1.0) if square else math.inf
    if not math.isfinite(sigma):
        raise DomainError(f"target cosine {target_cosine} has no finite noise scale")
    return sigma


def _check_sigma(sigma: float) -> None:
    if sigma < 0.0 or not math.isfinite(sigma):
        raise DomainError(f"noise scale {sigma} must be finite and >= 0")


def _noise(rng: np.random.Generator, n: int, dim: int, sigma: float) -> np.ndarray:
    """An (n, dim) block of rows in uniform directions, each of length
    sigma."""
    rows = rng.standard_normal((n, dim))
    rows *= (sigma / np.sqrt(_row_dots(rows, rows)))[:, None]
    return rows


def perturb(v: UnitVector, sigma: float, rng: np.random.Generator) -> UnitVector:
    """Additive isotropic noise of norm ``sigma`` followed by renormalization.

    The noise direction is uniform on the sphere (a normalized Gaussian
    draw) and its length is exactly ``sigma`` relative to the unit input,
    so the mean output cosine is 1/sqrt(1 + sigma^2) up to O(1/dim)
    corrections.  That is the relation ``calibrate`` inverts; scaling raw
    per-component Gaussians by sigma instead would contract the cosine by
    sqrt(dim) and break the calibration targets.

    sigma = 0 returns the input unchanged, bit for bit.
    """
    _check_sigma(sigma)
    if sigma == 0.0:
        return v
    return unit(v.components + _noise(rng, 1, v.dim, sigma)[0])


@dataclass(frozen=True)
class ChannelProfile:
    """A named degradation level: target mean cosine and derived sigma."""

    name: str
    target_cosine: float
    sigma: float

    @classmethod
    def from_target(cls, name: str, target_cosine: float, dim: int) -> "ChannelProfile":
        return cls(name=name, target_cosine=target_cosine,
                   sigma=calibrate(target_cosine, dim))


# Default profile set: one target cosine per attack family/severity,
# kept in data/default_profiles.json and loaded lazily.  They were not
# measured on this package's image channel: they name attacks it does
# not implement (hue, perspective, Gaussian blur, 90-degree rotation)
# and give hflip 0.983, where this channel's mark reads at chance
# (ROADMAP item 17).
_DEFAULT_PROFILES_RESOURCE = "default_profiles.json"


def profiles_from_dicts(entries: list, dim: int) -> list[ChannelProfile]:
    """Build profiles from parsed JSON; errors carry the offending path."""
    if not isinstance(entries, list):
        raise DomainError("profile config must be a JSON array")
    if not entries:
        raise DomainError("profile config must list at least one profile")
    out = []
    for i, entry in enumerate(entries):
        where = f"profiles[{i}]"
        if not isinstance(entry, dict):
            raise DomainError(f"{where} is not an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise DomainError(f"{where}.name must be a non-empty string")
        if "\x00" in name:
            # label_entropy reads the name as a little-endian integer, so
            # trailing NULs would not change the profile's stream
            raise DomainError(f"{where}.name must not contain a NUL character")
        target = entry.get("target_cosine")
        if not isinstance(target, (int, float)) or isinstance(target, bool):
            raise DomainError(f"{where}.target_cosine must be a number")
        try:
            out.append(ChannelProfile.from_target(name, float(target), dim))
        except (DomainError, OverflowError) as exc:  # OverflowError: an int past float range
            raise DomainError(f"{where}.target_cosine: {exc}") from exc
    return out


def load_profiles(path: str, dim: int) -> list[ChannelProfile]:
    return profiles_from_dicts(read_json(path, DomainError, "profile config"), dim)


def default_profiles(dim: int) -> list[ChannelProfile]:
    text = resources.files("spheremark.data").joinpath(
        _DEFAULT_PROFILES_RESOURCE).read_text(encoding="utf-8")
    return profiles_from_dicts(json.loads(text), dim)


class Watermark:
    """The keyed chain every front end shares: sign encodes and rotates a
    message; open extracts, unrotates and assesses an image's vector.
    sign is the one-row form of sign_many."""

    def __init__(self, key: SecretKey, codec: Codec):
        check_rotation_dim(codec.dim)
        self.key = key
        self.codec = codec

    def sign(self, message: Message) -> UnitVector:
        if message.data.endswith(b"\x00"):
            raise DomainError("message ends in a NUL byte, which decode would strip")
        return _from_rows(self.sign_many(_octets(message))[1], one=True)

    def open(self, img: RasterImage, ell_threshold: float) -> ConfidenceReport:
        v = extract(img, self.key, self.codec.dim)  # before the QR, whose BLAS threads then spin
        return assess(self.codec, unrotate(sample_rotation(self.key, v.dim), v), ell_threshold)

    def sign_many(self, octets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """sign for an (n, L) uint8 block of zero-padded messages: the
        (n, d) encoded rows, and the same rows signed by one product with
        the rotation."""
        v = self.codec.encode(octets)
        return v, rotate(sample_rotation(self.key, self.codec.dim), v)


@dataclass(frozen=True)
class SweepRow:
    profile: str
    n: int
    mean_cosine: float
    exact_match: float
    mean_ell: float
    trusted_rate: float


SWEEP_CSV_HEADER = "profile,n,mean_cosine,exact_match,mean_ell,trusted_rate"

# Cells per block in run_sweep: enough rows that one matrix product
# replaces that many one-row products, few enough that a block's
# arrays stay near 128 KiB each at d = 256.  It is part of the sweep's
# stream layout: block k's fields start at counter blocks 3k, 3k + 1
# and 3k + 2, so changing it changes every sweep's draws.
_BLOCK_ROWS = 64

# Rows run_sweep queues, across profiles, before it scores them in one
# assess call.  Scoring is row by row exact, so it moves no output: it
# only trades numpy's fixed cost per call against a chunk's memory,
# under 0.7 MiB per (rows, d) array at d = 256.
_SCORE_ROWS = 256


def _draw_block(rng: np.random.Generator, profile_key: np.ndarray, k: int, n: int,
                message_len: int, dim: int, sigma: float
                ) -> tuple[np.ndarray, np.ndarray | None]:
    """The first n cells of block k of one profile: their (n, message_len)
    uint8 message bytes, and their (n, dim) noise rows of norm sigma
    (None at sigma 0).  Row j is the same for any n > j."""
    rekey(rng, profile_key, 3 * k)
    body = rng.integers(0, 256, size=(n, message_len), dtype=np.uint8)
    rekey(rng, profile_key, 3 * k + 1)
    body[:, -1] = rng.integers(1, 256, size=n)  # trailing NUL would break padding
    if sigma == 0.0:
        return body, None
    rekey(rng, profile_key, 3 * k + 2)
    return body, _noise(rng, n, dim, sigma)


def _score_chunk(codec: Codec, v: np.ndarray, v_hat: np.ndarray, payloads: np.ndarray,
                 owner: np.ndarray, q: int, totals: np.ndarray, ell_threshold: float) -> None:
    """Assess the first q queued rows in one pass, and add each row to
    its profile's column of the (4, profiles) [cosine, ell, match,
    trusted] totals, in row order.  payloads holds each row's message,
    zero-padded to the codec's capacity, and owner its profile's index."""
    scored = assess(codec, v_hat[:q], ell_threshold)
    match = (scored.decoded == payloads[:q]).all(axis=1)
    # add.at adds one element at a time, so a sum keeps the bits of a
    # cell-by-cell chain
    for total, column in zip(totals, (cosine(v[:q], v_hat[:q]), scored.ell,
                                      match, scored.trusted)):
        np.add.at(total, owner[:q], column)


def run_sweep(profiles: list[ChannelProfile], codec: Codec, key: SecretKey,
              n_messages: int, rng: np.random.Generator, *,
              message_len: int = 16, ell_threshold: float = 100.0,
              unrotate_key: SecretKey | None = None) -> list[SweepRow]:
    """Simulate each profile over fresh random messages.

    ``unrotate_key`` substitutes a different key on the receive side
    to measure wrong-key behavior; default is the embedding key.
    Cell (profile, i) sits in block k = i // _BLOCK_ROWS, and its
    fields draw from the key of stream(root, label_entropy(name)) at
    counters (0, 3k + f, 0, 0), f = 0, 1, 2, root being one draw from
    the caller's rng, so the table is reproducible and
    order-independent, and cell i does not depend on n_messages.
    n_messages stays below 2**32, the sweep's documented limit.

    The rotation products run per block of one profile: a BLAS product
    row's bits can depend on the rows beside it, so a profile's rows
    must not share a product with another's.  Scoring is row by row
    exact, so the unrotated blocks queue across profiles and are
    assessed _SCORE_ROWS or more rows at a time; on a sweep of few
    cells per profile that pays numpy's fixed cost once per chunk
    rather than once per profile.
    """
    if not profiles:
        raise DomainError("run_sweep needs at least one profile")
    if not 1 <= n_messages < 2**32:
        raise DomainError(f"n_messages {n_messages} outside [1, 2**32)")
    if not 1 <= message_len <= codec.capacity_bytes:
        raise DomainError(
            f"message_len {message_len} outside [1, {codec.capacity_bytes}]")
    # the stream label, not the name, decides a profile's draws:
    # "a" and "a\x00" have one label_entropy
    try:
        labels = [label_entropy(p.name) for p in profiles]
    except UnicodeEncodeError as exc:
        raise DomainError(f"profile name is not valid UTF-8: {exc}") from None
    if len(set(labels)) != len(labels):
        raise DomainError("profile names must be unique, also ignoring trailing NULs")
    check_ell_threshold(ell_threshold)
    for profile in profiles:
        _check_sigma(profile.sigma)
    sender = Watermark(key, codec)
    dim = codec.dim
    receive = sample_rotation(key if unrotate_key is None else unrotate_key, dim)
    # one root draw; each profile's key derives from (root, profile name)
    # so the table does not depend on profile order
    root = int(rng.integers(0, 2**63))
    # one generator, re-pointed at each field's counter block in turn
    block_rng = np.random.Generator(np.random.Philox(key=0))
    totals = np.zeros((4, len(profiles)))  # cosine and ell sums, match and trusted counts
    # the queue: encoded and unrotated rows, the padded messages, and the
    # index of each row's profile
    sent = np.empty((_SCORE_ROWS + _BLOCK_ROWS - 1, dim))
    unrotated = np.empty_like(sent)
    payloads = np.zeros((len(sent), codec.capacity_bytes), dtype=np.uint8)
    owner = np.empty(len(sent), dtype=np.intp)
    queued = 0
    for i, (profile, label) in enumerate(zip(profiles, labels)):
        profile_key = stream_key(root, label)
        for start in range(0, n_messages, _BLOCK_ROWS):
            n = min(_BLOCK_ROWS, n_messages - start)
            body, noise = _draw_block(block_rng, profile_key, start // _BLOCK_ROWS, n,
                                      message_len, dim, profile.sigma)
            v, received = sender.sign_many(body)
            if noise is not None:
                received = unit(received + noise)
            sent[queued:queued + n] = v
            unrotated[queued:queued + n] = unrotate(receive, received)
            payloads[queued:queued + n, :message_len] = body  # the rest stays zero
            owner[queued:queued + n] = i
            queued += n
            if queued >= _SCORE_ROWS:
                _score_chunk(codec, sent, unrotated, payloads, owner, queued, totals,
                             ell_threshold)
                queued = 0
    if queued:
        _score_chunk(codec, sent, unrotated, payloads, owner, queued, totals, ell_threshold)
    # the counts stay below 2**32, so their float64 sums are exact
    return [SweepRow(profile=profile.name, n=n_messages,
                     mean_cosine=cos_sum / n_messages, exact_match=match_count / n_messages,
                     mean_ell=ell_sum / n_messages, trusted_rate=trusted_count / n_messages)
            for profile, (cos_sum, ell_sum, match_count, trusted_count)
            in zip(profiles, totals.T.tolist())]


def write_sweep_csv(rows: list[SweepRow], path: str) -> None:
    with atomic_write(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(SWEEP_CSV_HEADER + "\n")
        # csv quotes a profile name holding a comma, quote or newline
        csv.writer(fh, lineterminator="\n").writerows(
            (r.profile, r.n, f"{r.mean_cosine:.6f}", f"{r.exact_match:.6f}",
             f"{r.mean_ell:.6f}", f"{r.trusted_rate:.6f}") for r in rows)
