"""The benchmark's tracer finds the functions and methods it wraps.

perfbench/tracing.py wraps spheremark's functions by module attribute
and SignCodec's encode and decode by name on the class.  A refactor that
moves a layer's work out from under those names leaves the benchmark's
per-layer metrics unmeasured; these tests fail first.
"""
import importlib
from pathlib import Path

import pytest

import spheremark
from spheremark.streams import stream
from conftest import make_image

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SWEEP_SPANS = {"codec.encode", "codec.decode", "rotation.rotate", "rotation.unrotate",
               "confidence.assess", "sphere.cosine"}
IMAGE_SPANS = {"imagechannel.generate", "imagechannel.embed", "imagechannel.extract"}
ROC_SPANS = {"metrics.roc", "metrics.threshold_at_fpr"}


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def _span_names(tracer) -> set:
    return {span[0] for span in tracer.spans}


def test_sweep_spans(tracer):
    codec, key = spheremark.SignCodec(256), spheremark.SecretKey(seed=5)
    profiles = [spheremark.ChannelProfile.from_target("p", 0.9, 256)]
    spheremark.run_sweep(profiles, codec, key, 3, stream(1),
                         unrotate_key=spheremark.SecretKey(seed=6))
    assert SWEEP_SPANS <= _span_names(tracer)


def test_image_spans(tracer, monkeypatch):
    # a set held from an earlier test would be a hit, and generate would not run
    monkeypatch.setattr(spheremark.imagechannel, "_held_carriers", {})
    key = spheremark.SecretKey(seed=5)
    wm = spheremark.Watermark(key, spheremark.SignCodec(256))
    sealed = spheremark.embed(make_image(2, 64, 64), wm.sign(spheremark.Message(b"hook")), key)
    wm.open(sealed, 100.0)
    assert IMAGE_SPANS <= _span_names(tracer)


def test_roc_spans(tracer):
    # the benchmark calls both on a ScoredSample list, as here
    samples = [spheremark.ScoredSample(score=k / 4, label=k % 3 == 0) for k in range(12)]
    spheremark.roc(samples)
    spheremark.threshold_at_fpr(samples, 0.1)
    assert ROC_SPANS <= _span_names(tracer)
