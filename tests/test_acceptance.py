"""Release gate: ten numbered criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v`` (the verdict lines
bypass capture, so they appear even without -s).  Every criterion is
deterministic: fixed key seeds and pinned RNG streams.
"""
import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from spheremark.channel import ChannelProfile, calibrate, perturb, run_sweep
from spheremark.cli import main
from spheremark.codec import Message, get_codec
from spheremark.confidence import reg_inc_beta, spherical_p_value
from spheremark.imagechannel import attack, embed, extract
from spheremark.metrics import (NgramIndex, ScoredSample, bleu4, exact_match,
                                novelty_score, roc, threshold_at_fpr)
from spheremark.netpbm import RasterImage, psnr, write_image
from spheremark.rotation import SecretKey, rotate, sample_rotation
from spheremark.sphere import cosine, sample_uniform
from spheremark.streams import stream
from conftest import make_image, raw_qr_rotation

# chi2 inverse CDF at (df=15, 0.99); 16 bins, alpha = 0.01
CHI2_CRIT = 30.57791416689249

DIM = 256


@contextmanager
def criterion(capture, num, name):
    # works with capsys or capfd; both can suspend capture
    try:
        yield
    except Exception:
        with capture.disabled():
            print(f"[criterion {num:02d}] {name}: FAIL", flush=True)
        raise
    with capture.disabled():
        print(f"[criterion {num:02d}] {name}: PASS", flush=True)


def angle_chi2(n_keys, haar_fix):
    # 2-D rotations are a single angle; bin it over [-pi, pi)
    counts = np.zeros(16, dtype=np.int64)
    for seed in range(n_keys):
        m = (sample_rotation(SecretKey(seed=seed), 2).entries if haar_fix
             else raw_qr_rotation(seed, 2))
        theta = math.atan2(m[1, 0], m[0, 0])
        idx = int((theta + math.pi) * 16.0 / (2.0 * math.pi))
        counts[min(idx, 15)] += 1
    expected = n_keys / 16.0
    return float(((counts - expected) ** 2 / expected).sum())


def test_criterion_01_rotation_correctness(capfd):
    with criterion(capfd, 1, "rotation validity and angle uniformity"):
        for dim in (1, 2, 3, 8, 64, 256):
            eye = np.eye(dim)
            for seed in range(50):
                q = sample_rotation(SecretKey(seed=seed), dim).entries
                assert np.max(np.abs(q.T @ q - eye)) <= 1e-10
                assert abs(float(np.linalg.det(q)) - 1.0) <= 1e-8
        assert angle_chi2(10_000, haar_fix=True) < CHI2_CRIT


def test_criterion_02_haar_sign_fix_guard(capfd):
    with criterion(capfd, 2, "angle test fails without the sign fix"):
        assert angle_chi2(10_000, haar_fix=False) > CHI2_CRIT


def test_criterion_03_p_value_numeric_anchor(capfd):
    with criterion(capfd, 3, "p-value matches Monte Carlo tail"):
        rng = stream(314, DIM)
        targets = (0.1, 0.2, 0.3)
        hits = {c: 0 for c in targets}
        n = 1_000_000
        chunk = 50_000
        for _ in range(n // chunk):
            g = rng.standard_normal((chunk, DIM))
            cos = g[:, 0] / np.linalg.norm(g, axis=1)
            for c in targets:
                hits[c] += int((np.abs(cos) >= c).sum())
        for c in targets:
            p = spherical_p_value(c, DIM)
            se = math.sqrt(p * (1.0 - p) / n)
            assert abs(hits[c] / n - p) <= 3.0 * se, (c, hits[c] / n, p)
        for x in (0.0, 0.2, 0.5, 0.77, 1.0):
            assert abs(reg_inc_beta(x, 1.0, 1.0) - x) <= 1e-12
        assert abs(reg_inc_beta(0.5, 0.5, 0.5) - 0.5) <= 1e-12


def test_criterion_04_calibration_anchor(capfd):
    with criterion(capfd, 4, "calibrated sigma recovers the target cosine"):
        sigma = calibrate(0.984, DIM)
        rng = stream(98, 4)
        v = sample_uniform(DIM, rng)
        total = 0.0
        n = 100_000
        for _ in range(n):
            total += cosine(v, perturb(v, sigma, rng))
        assert abs(total / n - 0.984) <= 0.003


def test_criterion_05_simulated_channel_roundtrip(capfd):
    with criterion(capfd, 5, "identity channel exact match, wrong key zero"):
        codec = get_codec("sign", DIM)
        key = SecretKey(seed=1105)
        identity = [ChannelProfile.from_target("identity", 1.0, DIM)]
        rows = run_sweep(identity, codec, key, 2000, stream(5, 1),
                         message_len=16, ell_threshold=100.0)
        assert rows[0].exact_match == 1.0
        wrong = run_sweep(identity, codec, key, 2000, stream(5, 2),
                          message_len=16, ell_threshold=100.0,
                          unrotate_key=SecretKey(seed=2206))
        assert wrong[0].exact_match == 0.0


def test_criterion_06_image_channel(capfd):
    with criterion(capfd, 6, "42 dB embedding, extraction, brightness"):
        key = SecretKey(seed=1106)
        codec = get_codec("sign", DIM)
        rot = sample_rotation(key, DIM)
        v = rotate(rot, codec.encode(Message(b"image gate payload")))
        cosines = []
        deltas = []
        for seed in range(20):
            img = make_image(seed)
            marked = embed(img, v, key, 42.0)
            assert abs(psnr(img, marked) - 42.0) <= 0.5
            c_clean = cosine(v, extract(marked, key, DIM))
            cosines.append(c_clean)
            brightened = attack(marked, "brightness_add", 10.0)
            deltas.append(abs(cosine(v, extract(brightened, key, DIM)) - c_clean))
        assert sum(cosines) / len(cosines) >= 0.95
        assert max(deltas) <= 0.01
        flat = RasterImage(np.full((16, 16), 100, dtype=np.uint8))
        plus1 = RasterImage(np.full((16, 16), 101, dtype=np.uint8))
        plus2 = RasterImage(np.full((16, 16), 102, dtype=np.uint8))
        assert abs(psnr(flat, plus1) - 48.1308) <= 1e-3
        assert abs(psnr(flat, plus2) - 42.1102) <= 1e-3


def brute_force_auc(samples):
    pos = [s.score for s in samples if s.label]
    neg = [s.score for s in samples if not s.label]
    wins = sum(2 if p > n else (1 if p == n else 0) for p in pos for n in neg)
    return wins / (2.0 * len(pos) * len(neg))


def test_criterion_07_roc_thresholds(capfd):
    with criterion(capfd, 7, "exact AUC and feasible operating points"):
        rng = stream(7, 200)
        for _ in range(200):
            n = int(rng.integers(2, 51))
            # coarse grid forces score ties across the label split
            scores = np.round(rng.uniform(0.0, 5.0, size=n), 1)
            labels = rng.integers(0, 2, size=n)
            labels[0], labels[1] = 0, 1  # both classes present
            samples = [ScoredSample(score=float(s), label=bool(l))
                       for s, l in zip(scores, labels)]
            assert roc(samples).auc == brute_force_auc(samples)
            for target in (0.01, 0.1, 0.5, 1.0):
                point = threshold_at_fpr(samples, target)
                assert point.achieved_fpr <= target
        fixture = [ScoredSample(3.0, True), ScoredSample(2.0, True),
                   ScoredSample(1.0, True), ScoredSample(2.0, False),
                   ScoredSample(0.5, False), ScoredSample(0.1, False)]
        assert round(roc(fixture).auc, 4) == 0.8333


def test_criterion_08_text_metrics(capfd):
    with criterion(capfd, 8, "BLEU-4, novelty, and exact-match fixtures"):
        tokens = "a strictly identical candidate sentence".split()
        assert bleu4(tokens, list(tokens)) == 100.0
        got = bleu4("the cat sat on a mat".split(),
                    "the cat sat on the mat".split())
        assert round(got, 4) == 53.7285
        index = NgramIndex.from_lines(["a b c d e"])
        assert novelty_score("a b c d".split(), index) == 0.0
        assert novelty_score("w x y z".split(), index) == 1.0
        assert novelty_score("a b c d w".split(), index) == 0.5
        assert novelty_score("a b c".split(), index) is None
        assert exact_match([("x", "x"), ("y", "y")]) == 1.0
        assert exact_match([("x", "y")]) == 0.0
        assert exact_match([("a", "a"), ("b", "b"), ("c", "c"), ("d", "z")]) == 0.75


def _cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out.strip()
    return rc, json.loads(out.splitlines()[-1]) if out else None


def test_criterion_09_cli_determinism(capsys, tmp_path):
    with criterion(capsys, 9, "seeded seal and sweep are byte-identical"):
        keyfile = tmp_path / "key.json"
        rc, _ = _cli(capsys, "keygen", "9", "--out", str(keyfile))
        assert rc == 0
        host = tmp_path / "host.ppm"
        write_image(make_image(9), str(host))

        seals = []
        for name in ("s1.ppm", "s2.ppm"):
            out = tmp_path / name
            rc, receipt = _cli(capsys, "seal", "--in", str(host),
                               "--out", str(out), "--key", str(keyfile),
                               "--message", "determinism gate", "--seed", "77")
            assert rc == 0
            receipt.pop("out")
            seals.append((out.read_bytes(), receipt))
        assert seals[0] == seals[1]

        profiles = tmp_path / "profiles.json"
        profiles.write_text(json.dumps(
            [{"name": "clean", "target_cosine": 1.0},
             {"name": "noisy", "target_cosine": 0.9}]))
        sweeps = []
        for name in ("w1.csv", "w2.csv"):
            out = tmp_path / name
            rc, _ = _cli(capsys, "sweep", "--key", str(keyfile), "--n", "50",
                         "--profiles", str(profiles), "--out", str(out),
                         "--seed", "77")
            assert rc == 0
            sweeps.append(out.read_bytes())
        assert sweeps[0] == sweeps[1]


def test_criterion_10_rotation_cost(capsys):
    with criterion(capsys, 10, "256-d rotation sampling under 100 ms"):
        rc, payload = _cli(capsys, "bench", "--dims", "256", "--batches", "1",
                           "--repeats", "5")
        assert rc == 0
        assert payload["results"][0]["median_ms"] < 100.0
