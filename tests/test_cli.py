import csv
import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from spheremark import (CapacityExceededError, DegenerateLabelsError,
                        DimensionError, DimensionMismatchError, DomainError,
                        ImageFormatError, ImageSizeError, KeyFileError,
                        RasterImage, UnknownTransformError, read_image,
                        write_image)
from spheremark import channel, cli, imagechannel, metrics
from spheremark.cli import (EXIT_IMAGE_IO, EXIT_KEY, EXIT_OK, EXIT_UNTRUSTED,
                            EXIT_USAGE, _emit, main)
from conftest import make_image
from test_imagechannel import PARAMETERISED


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    payload = None
    if captured.out.strip():
        payload = json.loads(captured.out.strip().splitlines()[-1])
    return rc, payload, captured.err


@pytest.fixture
def keyfile(tmp_path, capsys):
    path = tmp_path / "key.json"
    rc, _, _ = run_cli(capsys, "keygen", "7", "--out", str(path))
    assert rc == EXIT_OK
    return str(path)


@pytest.fixture
def host_image(tmp_path):
    path = tmp_path / "host.ppm"
    write_image(make_image(0), str(path))
    return str(path)


class TestKeygen:
    def test_fixed_seed_reproducible(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        rc1, out1, _ = run_cli(capsys, "keygen", "42", "--out", str(a))
        rc2, out2, _ = run_cli(capsys, "keygen", "42", "--out", str(b))
        assert rc1 == rc2 == EXIT_OK
        assert out1["seed"] == out2["seed"] == 42
        assert a.read_bytes() == b.read_bytes()

    def test_os_entropy_when_no_seed(self, tmp_path, capsys):
        rc, out, _ = run_cli(capsys, "keygen", "--out", str(tmp_path / "k.json"))
        assert rc == EXIT_OK
        assert 0 <= out["seed"] < 2**64

    def test_label_stored(self, tmp_path, capsys):
        path = tmp_path / "k.json"
        rc, out, _ = run_cli(capsys, "keygen", "5", "--label", "site-a",
                             "--out", str(path))
        assert rc == EXIT_OK
        assert json.loads(path.read_text())["label"] == "site-a"

    def test_unwritable_path(self, tmp_path, capsys):
        rc, _, err = run_cli(capsys, "keygen", "5", "--out",
                             str(tmp_path / "missing" / "k.json"))
        assert rc == EXIT_IMAGE_IO
        assert "error" in err


class TestSealOpen:
    def test_roundtrip_trusted(self, tmp_path, capsys, keyfile, host_image):
        sealed = tmp_path / "sealed.ppm"
        rc, receipt, _ = run_cli(
            capsys, "seal", "--in", host_image, "--out", str(sealed),
            "--key", keyfile, "--message", "attested payload", "--seed", "11")
        assert rc == EXIT_OK
        assert abs(receipt["achieved_psnr_db"] - 42.0) <= 0.5
        assert receipt["message_bytes"] == 16
        assert len(receipt["vector_sha256"]) == 64

        rc, verdict, _ = run_cli(capsys, "open", "--in", str(sealed),
                                 "--key", keyfile)
        assert rc == EXIT_OK
        assert verdict["verdict"] == "trusted"
        assert verdict["message_text"] == "attested payload"
        # uint8 quantization keeps the cosine just under 1, so ell is
        # large but not at the underflow cap
        assert verdict["ell"] > 150.0
        assert verdict["idempotent"] is True

    def test_seal_deterministic(self, tmp_path, capsys, keyfile, host_image):
        out1, out2 = tmp_path / "s1.ppm", tmp_path / "s2.ppm"
        rc1, r1, _ = run_cli(capsys, "seal", "--in", host_image, "--out",
                             str(out1), "--key", keyfile, "--message", "m",
                             "--seed", "3")
        rc2, r2, _ = run_cli(capsys, "seal", "--in", host_image, "--out",
                             str(out2), "--key", keyfile, "--message", "m",
                             "--seed", "3")
        assert rc1 == rc2 == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        r1.pop("out"), r2.pop("out")
        assert r1 == r2

    def test_open_unmarked_is_untrusted(self, capsys, keyfile, host_image):
        rc, verdict, _ = run_cli(capsys, "open", "--in", host_image,
                                 "--key", keyfile)
        assert rc == EXIT_UNTRUSTED
        assert verdict["verdict"] == "untrusted"
        assert verdict["ell"] < 100.0

    def test_open_wrong_key_untrusted(self, tmp_path, capsys, keyfile,
                                      host_image):
        sealed = tmp_path / "sealed.ppm"
        run_cli(capsys, "seal", "--in", host_image, "--out", str(sealed),
                "--key", keyfile, "--message", "attested payload")
        other = tmp_path / "other.json"
        run_cli(capsys, "keygen", "8", "--out", str(other))
        rc, verdict, _ = run_cli(capsys, "open", "--in", str(sealed),
                                 "--key", str(other))
        assert rc == EXIT_UNTRUSTED
        assert verdict["message_text"] != "attested payload"

    def test_hex_message(self, tmp_path, capsys, keyfile, host_image):
        sealed = tmp_path / "sealed.ppm"
        rc, receipt, _ = run_cli(
            capsys, "seal", "--in", host_image, "--out", str(sealed),
            "--key", keyfile, "--message-hex", "00ff10")
        assert rc == EXIT_OK
        rc, verdict, _ = run_cli(capsys, "open", "--in", str(sealed),
                                 "--key", keyfile)
        assert verdict["message_hex"] == "00ff10"
        assert verdict["message_text"] is None

    def test_message_validation(self, tmp_path, capsys, keyfile, host_image):
        sealed = str(tmp_path / "s.ppm")
        base = ("seal", "--in", host_image, "--out", sealed, "--key", keyfile)
        rc, _, err = run_cli(capsys, *base, "--message", "x" * 33)
        assert rc == EXIT_USAGE and "capacity" in err
        rc, _, _ = run_cli(capsys, *base, "--message-hex", "ff00")
        assert rc == EXIT_USAGE
        rc, _, _ = run_cli(capsys, *base, "--message-hex", "zz")
        assert rc == EXIT_USAGE
        rc, _, _ = run_cli(capsys, *base, "--message", "a",
                           "--message-hex", "61")
        assert rc == EXIT_USAGE
        rc, _, _ = run_cli(capsys, *base)
        assert rc == EXIT_USAGE

    def test_missing_key_file(self, tmp_path, capsys, host_image):
        rc, _, err = run_cli(capsys, "seal", "--in", host_image,
                             "--out", str(tmp_path / "s.ppm"),
                             "--key", str(tmp_path / "nokey.json"),
                             "--message", "m")
        assert rc == EXIT_KEY

    def test_broken_key_file(self, tmp_path, capsys, host_image):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"label\": \"no seed\"}")
        rc, _, _ = run_cli(capsys, "open", "--in", host_image, "--key", str(bad))
        assert rc == EXIT_KEY

    def test_missing_image(self, tmp_path, capsys, keyfile):
        rc, _, _ = run_cli(capsys, "open", "--in", str(tmp_path / "no.ppm"),
                           "--key", keyfile)
        assert rc == EXIT_IMAGE_IO

    def test_non_image_file(self, tmp_path, capsys, keyfile):
        junk = tmp_path / "junk.ppm"
        junk.write_bytes(b"not an image at all")
        rc, _, _ = run_cli(capsys, "open", "--in", str(junk), "--key", keyfile)
        assert rc == EXIT_IMAGE_IO

    def test_oversized_image_refused_before_allocating(self, tmp_path, capsys,
                                                       keyfile):
        # 256 carriers over 2048x2048 would take 8 GiB of float64
        big = tmp_path / "big.pgm"
        write_image(RasterImage(np.zeros((2048, 2048), dtype=np.uint8)), str(big))
        tracemalloc.start()
        try:
            rc_seal, _, err_seal = run_cli(
                capsys, "seal", "--in", str(big), "--out",
                str(tmp_path / "out.pgm"), "--key", keyfile, "--message", "m",
                "--seed", "1")
            rc_open, _, err_open = run_cli(capsys, "open", "--in", str(big),
                                           "--key", keyfile)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc_seal == rc_open == EXIT_IMAGE_IO
        assert "Traceback" not in err_seal + err_open
        assert "limit" in err_seal and "limit" in err_open
        assert peak < 64 * 2**20
        assert not (tmp_path / "out.pgm").exists()


class TestAttack:
    def test_non_decimal_header_is_image_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n1_0 4\n2_55\n" + bytes(40))
        rc, payload, err = run_cli(capsys, "attack", "--in", str(bad),
                                   "--transform", "identity",
                                   "--out", str(tmp_path / "o.pgm"))
        assert rc == EXIT_IMAGE_IO
        assert payload is None
        assert "non-numeric header field" in err

    def test_identity_psnr_inf(self, tmp_path, capsys, host_image):
        out = tmp_path / "same.ppm"
        rc, payload, _ = run_cli(capsys, "attack", "--in", host_image,
                                 "--out", str(out), "--transform", "identity")
        assert rc == EXIT_OK
        assert payload["psnr_db"] == "inf"
        assert np.array_equal(read_image(str(out)).pixels,
                              read_image(host_image).pixels)

    def test_parameterized_transform(self, tmp_path, capsys, host_image):
        out = tmp_path / "j.ppm"
        rc, payload, _ = run_cli(capsys, "attack", "--in", host_image,
                                 "--out", str(out), "--transform", "jpeg_like:80")
        assert rc == EXIT_OK
        assert payload["psnr_db"] > 25.0

    def test_noise_deterministic_with_seed(self, tmp_path, capsys, host_image):
        a, b = tmp_path / "a.ppm", tmp_path / "b.ppm"
        run_cli(capsys, "attack", "--in", host_image, "--out", str(a),
                "--transform", "gaussian_noise:2", "--seed", "5")
        run_cli(capsys, "attack", "--in", host_image, "--out", str(b),
                "--transform", "gaussian_noise:2", "--seed", "5")
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_transform(self, tmp_path, capsys, host_image):
        rc, _, err = run_cli(capsys, "attack", "--in", host_image,
                             "--out", str(tmp_path / "x.ppm"),
                             "--transform", "sharpen")
        assert rc == EXIT_USAGE
        assert "jpeg_like" in err

    def test_bad_parameter(self, tmp_path, capsys, host_image):
        rc, _, _ = run_cli(capsys, "attack", "--in", host_image,
                           "--out", str(tmp_path / "x.ppm"),
                           "--transform", "rotate:fast")
        assert rc == EXIT_USAGE

    def test_image_above_attack_limit_is_image_error(self, tmp_path, capsys,
                                                     host_image, monkeypatch):
        # two float64 copies of the 256x256 colour host are 3 MiB
        monkeypatch.setattr(imagechannel, "MAX_ATTACK_BYTES", 16 * 256 * 256 * 3 - 1)
        out = tmp_path / "x.ppm"
        rc, payload, err = run_cli(capsys, "attack", "--in", host_image,
                                   "--out", str(out), "--transform", "rotate:5")
        assert rc == EXIT_IMAGE_IO
        assert payload is None
        assert err.startswith("error: ") and "Traceback" not in err
        assert "limit of 3145727" in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("name", PARAMETERISED)
    def test_non_finite_parameter(self, tmp_path, capsys, host_image, name, bad):
        out = tmp_path / "x.ppm"
        rc, payload, err = run_cli(capsys, "attack", "--in", host_image,
                                   "--out", str(out), "--transform", f"{name}:{bad}")
        assert rc == EXIT_USAGE
        assert payload is None
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()


class TestSweep:
    def _profiles(self, tmp_path):
        path = tmp_path / "profiles.json"
        path.write_text(json.dumps([
            {"name": "clean", "target_cosine": 1.0},
            {"name": "rough", "target_cosine": 0.9},
        ]))
        return str(path)

    def test_runs_and_reports(self, tmp_path, capsys, keyfile):
        out = tmp_path / "sweep.csv"
        rc, payload, _ = run_cli(
            capsys, "sweep", "--key", keyfile, "--n", "10",
            "--profiles", self._profiles(tmp_path), "--out", str(out),
            "--seed", "123")
        assert rc == EXIT_OK
        assert payload["profiles"] == 2
        lines = out.read_text().splitlines()
        assert lines[0].startswith("profile,")
        assert lines[1].startswith("clean,10,1.000000,1.000000")

    def test_deterministic(self, tmp_path, capsys, keyfile):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("sweep", "--key", keyfile, "--n", "15",
                "--profiles", self._profiles(tmp_path), "--seed", "123")
        run_cli(capsys, *args, "--out", str(a))
        run_cli(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_default_profiles(self, tmp_path, capsys, keyfile):
        out = tmp_path / "sweep.csv"
        rc, payload, _ = run_cli(capsys, "sweep", "--key", keyfile,
                                 "--n", "2", "--out", str(out), "--seed", "1")
        assert rc == EXIT_OK
        assert payload["profiles"] == 21

    def test_wrong_unrotate_key(self, tmp_path, capsys, keyfile):
        other = tmp_path / "other.json"
        run_cli(capsys, "keygen", "9", "--out", str(other))
        out = tmp_path / "sweep.csv"
        rc, _, _ = run_cli(
            capsys, "sweep", "--key", keyfile, "--n", "20",
            "--profiles", self._profiles(tmp_path), "--out", str(out),
            "--unrotate-key", str(other), "--seed", "2")
        assert rc == EXIT_OK
        for line in out.read_text().splitlines()[1:]:
            fields = line.split(",")
            assert fields[3] == "0.000000"  # exact_match
            assert fields[5] == "0.000000"  # trusted_rate

    def test_malformed_profiles(self, tmp_path, capsys, keyfile):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _, err = run_cli(capsys, "sweep", "--key", keyfile,
                             "--profiles", str(bad),
                             "--out", str(tmp_path / "s.csv"))
        assert rc == EXIT_USAGE

    def test_profile_field_errors_are_located(self, tmp_path, capsys, keyfile):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{"name": "a", "target_cosine": 2.0}]))
        rc, _, err = run_cli(capsys, "sweep", "--key", keyfile,
                             "--profiles", str(bad),
                             "--out", str(tmp_path / "s.csv"))
        assert rc == EXIT_USAGE
        assert "profiles[0]" in err

    @pytest.mark.parametrize("n", ["4294967296", "99999999999"])
    def test_refuses_n_needing_two_index_words(self, tmp_path, capsys, keyfile,
                                               monkeypatch, n):
        def no_work(*args, **kwargs):
            raise AssertionError("work started before --n was checked")

        monkeypatch.setattr(channel, "sample_rotation", no_work)
        out = tmp_path / "s.csv"
        rc, payload, err = run_cli(capsys, "sweep", "--key", keyfile, "--n", n,
                                   "--out", str(out))
        assert rc == EXIT_USAGE
        assert payload is None
        assert err.startswith("error: ") and "2**32" in err
        assert not out.exists()


class TestRoc:
    def _scores(self, tmp_path, rows):
        path = tmp_path / "scores.csv"
        path.write_text("score,label\n" + "\n".join(rows) + "\n")
        return str(path)

    def test_fixture_auc(self, tmp_path, capsys):
        scores = self._scores(tmp_path, ["3.0,1", "2.0,1", "1.0,1",
                                         "2.0,0", "0.5,0", "0.1,0"])
        out = tmp_path / "roc.csv"
        rc, payload, _ = run_cli(capsys, "roc", "--scores", scores,
                                 "--out", str(out))
        assert rc == EXIT_OK
        assert round(payload["auc"], 4) == 0.8333
        assert payload["n_pos"] == 3 and payload["n_neg"] == 3
        assert len(payload["operating_points"]) == 1
        assert payload["operating_points"][0]["target_fpr"] == 0.01
        assert out.read_text().startswith("threshold,fpr,tpr\n")

    def test_multiple_targets(self, tmp_path, capsys):
        scores = self._scores(tmp_path, ["5.0,1", "4.0,1", "1.0,0", "0.5,0"])
        rc, payload, _ = run_cli(capsys, "roc", "--scores", scores,
                                 "--out", str(tmp_path / "r.csv"),
                                 "--target-fpr", "0.5",
                                 "--target-fpr", "1.0")
        assert rc == EXIT_OK
        assert [p["target_fpr"] for p in payload["operating_points"]] == [0.5, 1.0]

    def test_single_class_rejected(self, tmp_path, capsys):
        scores = self._scores(tmp_path, ["1.0,1", "2.0,1"])
        rc, _, _ = run_cli(capsys, "roc", "--scores", scores,
                           "--out", str(tmp_path / "r.csv"))
        assert rc == EXIT_USAGE

    def test_bad_rows_rejected(self, tmp_path, capsys):
        for row in ("1.0", "x,1", "1.0,7"):
            scores = self._scores(tmp_path, ["1.0,1", "0.5,0", row])
            rc, _, _ = run_cli(capsys, "roc", "--scores", scores,
                               "--out", str(tmp_path / "r.csv"))
            assert rc == EXIT_USAGE, row

    def test_non_finite_scores_rejected(self, tmp_path, capsys):
        for row in ("nan,1", "inf,0", "-inf,1"):
            scores = self._scores(tmp_path, ["1.0,1", "0.5,0", row])
            rc, payload, err = run_cli(capsys, "roc", "--scores", scores,
                                       "--out", str(tmp_path / "r.csv"))
            assert rc == EXIT_USAGE, row
            assert payload is None
            assert "finite" in err

    # digests of the stdout JSON (without its "out" path) and of the CSV,
    # taken from the code that swept once for roc and once more for the
    # operating points
    TIED_JSON = "5efa86840092b994a00b4dfe0ad8d76b471532e10f4dd821f64262276a0a443a"
    TIED_CSV = "c4981b0dcbe4c213b548a6651b13633ec25330cdeef445f1678d5f6892dc3d3f"

    def test_one_sweep_serves_curve_and_points(self, tmp_path, capsys, monkeypatch):
        sweep = metrics._sweep
        calls = []

        def counted(samples):
            calls.append(len(samples))
            return sweep(samples)

        monkeypatch.setattr(metrics, "_sweep", counted)
        rows = [f"{round(3 * math.sin(1.3 * i), 1) + (i % 3 != 0)},{int(i % 3 != 0)}"
                for i in range(300)]
        out = tmp_path / "roc.csv"
        rc, payload, _ = run_cli(capsys, "roc", "--scores", self._scores(tmp_path, rows),
                                 "--out", str(out), "--target-fpr", "0.001",
                                 "--target-fpr", "0.05", "--target-fpr", "0.3")
        assert rc == EXIT_OK
        assert calls == [300]
        del payload["out"]
        assert _sha256(json.dumps(payload, sort_keys=True)) == self.TIED_JSON
        assert _sha256(out.read_bytes()) == self.TIED_CSV

    @pytest.mark.parametrize("rows, targets, message", [
        (["1.0,1", "2.0,1"], ["0"], "need both classes"),   # classes before targets
        (["1.0,1", "0.5,0"], ["0.5", "2"], "target fpr 2.0 outside"),
    ])
    def test_error_order(self, tmp_path, capsys, rows, targets, message):
        out = tmp_path / "roc.csv"
        argv = ["roc", "--scores", self._scores(tmp_path, rows), "--out", str(out)]
        for t in targets:
            argv += ["--target-fpr", t]
        rc, payload, err = run_cli(capsys, *argv)
        assert rc == EXIT_USAGE and payload is None
        assert message in err
        assert not out.exists()

    def test_emit_refuses_non_strict_json(self, capsys):
        with pytest.raises(ValueError):
            _emit({"threshold": float("nan")})
        assert capsys.readouterr().out == ""


class TestBenchCalibrate:
    def test_bench_json(self, capsys):
        rc, payload, _ = run_cli(capsys, "bench", "--dims", "2,8",
                                 "--batches", "1", "--repeats", "3")
        assert rc == EXIT_OK
        assert [r["dim"] for r in payload["results"]] == [2, 8]
        assert all(r["median_ms"] > 0 for r in payload["results"])

    @pytest.mark.parametrize("flags", [
        ("--dims", "abc"), ("--dims", "8,x"), ("--batches", "x"),
        ("--dims", "0"), ("--batches", "0"), ("--batches", "-1"),
        ("--repeats", "0"),
    ])
    def test_bench_refuses_bad_input(self, capsys, flags):
        rc, payload, err = run_cli(capsys, "bench", "--dims", "2",
                                   "--repeats", "1", *flags)
        assert rc == EXIT_USAGE
        assert payload is None
        assert err.startswith("error: ") and "Traceback" not in err

    def test_bench_warms_up_then_times_distinct_keys(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "sample_rotation",
                            lambda key, dim: calls.append((key.seed, dim)))
        rc, payload, _ = run_cli(capsys, "bench", "--dims", "4",
                                 "--batches", "3", "--repeats", "2")
        assert rc == EXIT_OK
        assert [r["batch"] for r in payload["results"]] == [3]
        # 2 * batch warm-up seeds, then repeat r uses seeds (r + 2) * batch + j,
        # none of them a warm-up seed that sample_rotation may still hold
        assert calls == [(s, 4) for s in [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]]

    def test_calibrate(self, capsys):
        rc, payload, _ = run_cli(capsys, "calibrate",
                                 "--target-cosine", "0.984")
        assert rc == EXIT_OK
        assert payload["sigma"] == pytest.approx(0.18106550773430982, abs=1e-12)

    @pytest.mark.parametrize("target, note", [
        ("7.5e-155", "sigma=1.33333e+154 for target cosine 7.5e-155"),
        ("0.99999999999999", "sigma=1.41365e-07 for target cosine 0.99999999999999"),
    ])
    def test_calibrate_note_readable_at_both_ends(self, capsys, target, note):
        # six significant digits at any magnitude, not a fixed number of decimals
        rc, _, err = run_cli(capsys, "calibrate", "--target-cosine", target)
        assert rc == EXIT_OK
        assert err.strip() == note

    def test_calibrate_rejects_bad_target(self, capsys):
        rc, _, _ = run_cli(capsys, "calibrate", "--target-cosine", "1.5")
        assert rc == EXIT_USAGE


class TestMetricsCmd:
    def test_bleu4(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        ref = tmp_path / "ref.txt"
        cand.write_text("the cat sat on a mat\n")
        ref.write_text("the cat sat on the mat\n")
        rc, payload, _ = run_cli(capsys, "metrics", "--mode", "bleu4",
                                 "--candidates", str(cand),
                                 "--references", str(ref))
        assert rc == EXIT_OK
        assert round(payload["mean_bleu4"], 4) == 53.7285

    def test_em(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        ref = tmp_path / "ref.txt"
        cand.write_text("alpha\nbeta\n")
        ref.write_text("alpha\ngamma\n")
        rc, payload, _ = run_cli(capsys, "metrics", "--mode", "em",
                                 "--candidates", str(cand),
                                 "--references", str(ref))
        assert rc == EXIT_OK
        assert payload["exact_match"] == 0.5

    def test_line_count_mismatch(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        ref = tmp_path / "ref.txt"
        cand.write_text("one\n")
        ref.write_text("one\ntwo\n")
        rc, _, _ = run_cli(capsys, "metrics", "--mode", "em",
                           "--candidates", str(cand), "--references", str(ref))
        assert rc == EXIT_USAGE

    def test_novelty(self, tmp_path, capsys):
        cand = tmp_path / "cand.txt"
        train = tmp_path / "train.txt"
        cand.write_text("a b c d\nw x y z\nshort one\n")
        train.write_text("a b c d e\n")
        rc, payload, _ = run_cli(capsys, "metrics", "--mode", "novelty",
                                 "--candidates", str(cand),
                                 "--train", str(train))
        assert rc == EXIT_OK
        assert payload["n_scored"] == 2
        assert payload["n_skipped"] == 1
        assert payload["mean_novelty"] == 0.5

    def test_missing_inputs(self, capsys):
        rc, _, _ = run_cli(capsys, "metrics", "--mode", "bleu4")
        assert rc == EXIT_USAGE


class TestCorpus:
    def test_batch_seal_open(self, tmp_path, capsys, keyfile):
        imgdir = tmp_path / "imgs"
        imgdir.mkdir()
        write_image(make_image(1), str(imgdir / "a.ppm"))
        write_image(make_image(2, color=False), str(imgdir / "b.pgm"))
        write_image(make_image(3), str(imgdir / "c.ppm"))
        (imgdir / "notes.txt").write_text("ignored")
        out = tmp_path / "corpus.csv"
        rc, payload, _ = run_cli(
            capsys, "corpus", "--dir", str(imgdir), "--key", keyfile,
            "--message", "batch payload", "--out", str(out), "--seed", "4")
        assert rc == EXIT_OK
        assert payload["images"] == 3
        lines = out.read_text().splitlines()
        assert lines[0] == "file,psnr_db,cosine,ell,verdict,exact_match"
        assert len(lines) == 4
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[4] == "trusted"
            assert fields[5] == "1"

    def test_with_attack_column(self, tmp_path, capsys, keyfile):
        imgdir = tmp_path / "imgs"
        imgdir.mkdir()
        write_image(make_image(5), str(imgdir / "a.ppm"))
        out = tmp_path / "corpus.csv"
        rc, _, _ = run_cli(
            capsys, "corpus", "--dir", str(imgdir), "--key", keyfile,
            "--message", "m", "--transform", "gaussian_noise:2",
            "--out", str(out), "--seed", "4")
        assert rc == EXIT_OK
        line = out.read_text().splitlines()[1]
        assert line.split(",")[4] == "trusted"

    def test_odd_file_names_quoted(self, tmp_path, capsys, keyfile):
        imgdir = tmp_path / "imgs"
        imgdir.mkdir()
        names = sorted(["a,b.ppm", 'say "hi".ppm', "two\nlines.ppm"])
        for i, name in enumerate(names):
            write_image(make_image(20 + i, 64, 64), str(imgdir / name))
        out = tmp_path / "corpus.csv"
        rc, _, _ = run_cli(capsys, "corpus", "--dir", str(imgdir), "--key", keyfile,
                           "--message", "m", "--out", str(out), "--seed", "4")
        assert rc == EXIT_OK
        with open(out, newline="", encoding="utf-8") as fh:
            table = list(csv.reader(fh))
        assert all(len(row) == 6 for row in table)
        assert [row[0] for row in table[1:]] == names

    @pytest.mark.parametrize("transform", ["nosuch", "identity:3", "rotate:nan",
                                           "jpeg_like:inf"])
    def test_failed_run_keeps_previous_csv(self, tmp_path, capsys, keyfile,
                                           transform):
        imgdir = tmp_path / "imgs"
        imgdir.mkdir()
        write_image(make_image(5), str(imgdir / "a.ppm"))
        out = tmp_path / "corpus.csv"
        argv = ("corpus", "--dir", str(imgdir), "--key", keyfile,
                "--message", "m", "--out", str(out), "--seed", "4")
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        good = out.read_bytes()
        assert len(good.splitlines()) == 2
        rc, payload, _ = run_cli(capsys, *argv, "--transform", transform)
        assert rc == EXIT_USAGE
        assert payload is None
        assert out.read_bytes() == good
        assert sorted(os.listdir(tmp_path)) == ["corpus.csv", "imgs", "key.json"]

    def test_empty_dir(self, tmp_path, capsys, keyfile):
        imgdir = tmp_path / "imgs"
        imgdir.mkdir()
        rc, _, _ = run_cli(capsys, "corpus", "--dir", str(imgdir),
                           "--key", keyfile, "--message", "m",
                           "--out", str(tmp_path / "c.csv"))
        assert rc == EXIT_IMAGE_IO


class TestParser:
    def test_no_command_is_usage(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command_is_usage(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


def _sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


class TestPinnedOutputs:
    # digests of the outputs of the hand-wired chain that Watermark
    # replaced; equal digests show that the refactor changed no byte.
    # The "right key" and "unmarked" open digests were retaken when
    # extract moved from a dense GEMV to the packed-bit correlation:
    # its sums run in another order, so cosine, ell and p_value moved
    # in their last digits (cosine by one ulp); the sealed bytes and
    # the CSV digests did not move.  The "right key" and "wrong key"
    # open digests were retaken again when each carrier's hi and lo
    # came from the closed form of its popcount instead of float mean
    # and norm passes: both moved by an ulp or two, which moves
    # cosine, ell and p_value in their last digits; the carrier bits,
    # the sealed bytes and every verdict did not move.  The SWEEP
    # digests were retaken when sweep cells moved from one SeedSequence
    # stream per cell to one Philox key per profile, cell i at counter
    # block i: the messages and noise are new draws from the same
    # distributions.  They were retaken again when each 64-cell block's
    # message bytes, last bytes and noise moved to one draw per field,
    # block k's fields at counter blocks 3k, 3k + 1 and 3k + 2: new draws
    # from the same distributions once more.
    OPEN = {
        "right key": "aacff7740c92cbc9fa46485eebb8e1308f8ecd39b885f45cea7327980d84f4e0",
        "unmarked": "93432a50fac4f9d735ec4b413cd46a01396f1bd69da4935a1f46822f6493e92b",
        "wrong key": "5232a9e2163ce31758a7dc094fff427610f344d0b36e24efc5296494224aba37",
    }
    CORPUS = {
        None: "71da8bfb764670e6b507065b75d0af949058775902cf30319f0f39e3b367dcfb",
        "jpeg_like:50": "2ad27a9f99a3d3e15d0bc01e2dd6ad004e0b45a9e59afda8cb9ad01d79ce9fa9",
        "gaussian_noise:4":
            "95179709dbebdcb1aa22afaa614d4cbd61da1b1db648fd6f2bf41942c73e5858",
    }
    SWEEP = {
        "right key": "99af16e7fbb436e392d99785856943a54e1a7f9086d5d0dd8f59cddef3653538",
        "wrong key": "885c77be6fe1f99da96163e9f1af32e3dccd91a662e1d8a79760587b88d1b26e",
    }

    @pytest.fixture
    def other_key(self, tmp_path, capsys):
        path = tmp_path / "other.json"
        assert run_cli(capsys, "keygen", "8", "--out", str(path))[0] == EXIT_OK
        return str(path)

    @pytest.mark.parametrize("case", sorted(OPEN))
    def test_open_stdout(self, tmp_path, capsys, keyfile, other_key, host_image,
                         case):
        sealed = tmp_path / "sealed.ppm"
        assert run_cli(capsys, "seal", "--in", host_image, "--out", str(sealed),
                       "--key", keyfile, "--message", "attested payload",
                       "--seed", "11")[0] == EXIT_OK
        infile, key = {"right key": (sealed, keyfile),
                       "wrong key": (sealed, other_key),
                       "unmarked": (host_image, keyfile)}[case]
        rc = main(["open", "--in", str(infile), "--key", key])
        out = capsys.readouterr().out
        assert rc == (EXIT_OK if case == "right key" else EXIT_UNTRUSTED)
        assert _sha256(out) == self.OPEN[case], _sha256(out)

    @pytest.mark.parametrize("transform", list(CORPUS))
    def test_corpus_csv(self, tmp_path, capsys, keyfile, transform):
        imgdir = tmp_path / "imgs"
        imgdir.mkdir()
        write_image(make_image(1), str(imgdir / "a.ppm"))
        write_image(make_image(2, 64, 96, color=False), str(imgdir / "b.pgm"))
        out = tmp_path / "corpus.csv"
        argv = ["corpus", "--dir", str(imgdir), "--key", keyfile,
                "--message", "batch payload", "--out", str(out), "--seed", "4"]
        if transform is not None:
            argv += ["--transform", transform]
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        got = _sha256(out.read_bytes())
        assert got == self.CORPUS[transform], got

    @pytest.mark.parametrize("case", sorted(SWEEP))
    def test_sweep_csv(self, tmp_path, capsys, keyfile, other_key, case):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--key", keyfile, "--n", "5", "--out", str(out),
                "--seed", "123"]
        if case == "wrong key":
            argv += ["--unrotate-key", other_key]
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        got = _sha256(out.read_bytes())
        assert got == self.SWEEP[case], got


def _calibrate_raises(monkeypatch, exc):
    def failing(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_calibrate", failing)


class TestExitCodes:
    # every class in cli.EXIT_CODES, with the code the README documents
    @pytest.mark.parametrize("exc, code", [
        (CapacityExceededError("too long"), 2),
        (DomainError("bad value"), 2),
        (DimensionError("bad dim"), 2),
        (DimensionMismatchError("dims differ"), 2),
        (UnknownTransformError("no such transform"), 2),
        (DegenerateLabelsError("one class"), 2),
        (ImageFormatError("bad header"), 3),
        (ImageSizeError("too small"), 3),
        (OSError("disk full"), 3),
        (FileNotFoundError("gone"), 3),
        (KeyFileError("no seed"), 4),
    ])
    def test_error_class_lands_on_its_code(self, capsys, monkeypatch, exc, code):
        _calibrate_raises(monkeypatch, exc)
        rc, payload, err = run_cli(capsys, "calibrate", "--target-cosine", "0.5")
        assert rc == code
        assert payload is None
        assert err == f"error: {exc}\n"

    def test_documented_codes(self):
        assert (EXIT_OK, EXIT_USAGE, EXIT_IMAGE_IO, EXIT_KEY,
                EXIT_UNTRUSTED) == (0, 2, 3, 4, 10)

    @pytest.mark.parametrize("code", [0, 10])
    def test_command_return_code_passes_through(self, capsys, monkeypatch, code):
        monkeypatch.setattr(cli, "cmd_calibrate", lambda args: code)
        assert main(["calibrate", "--target-cosine", "0.5"]) == code

    @pytest.mark.parametrize("exc", [ValueError("bare"), ArithmeticError("math"),
                                     KeyError("missing")])
    def test_other_exceptions_propagate(self, capsys, monkeypatch, exc):
        _calibrate_raises(monkeypatch, exc)
        with pytest.raises(type(exc)) as info:
            main(["calibrate", "--target-cosine", "0.5"])
        assert info.value is exc
        assert capsys.readouterr().err == ""


class TestDimensionLimit:
    def test_bench_refused_before_allocating(self, capsys):
        tracemalloc.start()
        try:
            rc, payload, err = run_cli(capsys, "bench", "--dims", "60000", "--repeats", "1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == EXIT_USAGE
        assert payload is None
        assert err.startswith("error: ") and "Traceback" not in err
        assert "4096" in err
        assert peak < 64 * 2**20


def _assert_flag_refused(capsys, monkeypatch, tmp_path, keyfile, host_image,
                         command, flag):
    """A valid argv for command, plus flag, exits 2 at the parser with
    nothing read or written."""
    out = tmp_path / "out"
    scores = tmp_path / "scores.csv"
    scores.write_text("0.9,1\n0.1,0\n")
    argv = {
        "seal": ["seal", "--in", host_image, "--out", str(out), "--key", keyfile,
                 "--message", "m"],
        "open": ["open", "--in", host_image, "--key", keyfile],
        "corpus": ["corpus", "--dir", os.path.dirname(host_image), "--key", keyfile,
                   "--message", "m", "--out", str(out)],
        "sweep": ["sweep", "--key", keyfile, "--n", "1", "--out", str(out)],
        "attack": ["attack", "--in", host_image, "--transform", "identity",
                   "--out", str(out)],
        "keygen": ["keygen", "7", "--out", str(out)],
        "roc": ["roc", "--scores", str(scores), "--out", str(out)],
        "metrics": ["metrics", "--mode", "em", "--candidates", str(scores),
                    "--references", str(scores)],
        "bench": ["bench", "--dims", "4", "--repeats", "1"],
        "calibrate": ["calibrate", "--target-cosine", "0.5"],
    }[command]

    def no_read(*args, **kwargs):
        raise AssertionError("an image was read before the refusal")

    monkeypatch.setattr(cli, "read_image", no_read)
    rc, payload, err = run_cli(capsys, *argv, *flag)
    assert rc == EXIT_USAGE
    assert payload is None
    assert f"unrecognized arguments: {' '.join(flag)}" in err
    assert not out.exists()


class TestNoPayloadSchemeFlags:
    # the payload is always d = 256 under the sign codec, so a flag that
    # would pick another scheme is refused, not silently obeyed
    @pytest.mark.parametrize("flag", [["--dim", "128"], ["--codec", "sign"]])
    @pytest.mark.parametrize("command", ["seal", "open", "corpus", "sweep", "attack",
                                         "keygen", "roc", "metrics"])
    def test_refused_by_the_parser(self, tmp_path, capsys, monkeypatch, keyfile,
                                   host_image, command, flag):
        _assert_flag_refused(capsys, monkeypatch, tmp_path, keyfile, host_image,
                             command, flag)


COMMANDS = ["keygen", "seal", "open", "attack", "sweep", "roc", "bench", "calibrate",
            "metrics", "corpus"]
SEEDED = ["seal", "attack", "sweep", "corpus"]


class TestOnlyOptionsACommandReads:
    # --seed only where a root seed is drawn from (seal keeps it for its
    # per-seal nonce), and --out alone places output files, so keygen
    # --seed 5 is refused rather than writing an OS-entropy key.
    # calibrate's sigma is the same at any dimension, and bench prints
    # its rows as JSON, so neither takes --dim or --out.
    @pytest.mark.parametrize("command, flag", [
        *[(c, ["--seed", "1"]) for c in COMMANDS if c not in SEEDED],
        *[(c, ["--out-dir", "x"]) for c in COMMANDS],
        ("calibrate", ["--dim", "128"]), ("bench", ["--out", "x"])],
        ids=lambda v: v if isinstance(v, str) else "_".join(v))
    def test_refused_by_the_parser(self, tmp_path, capsys, monkeypatch, keyfile,
                                   host_image, command, flag):
        _assert_flag_refused(capsys, monkeypatch, tmp_path, keyfile, host_image,
                             command, flag)

    @pytest.mark.parametrize("command", ["keygen", "sweep"])
    def test_relative_out_is_taken_from_the_cwd(self, tmp_path, capsys, monkeypatch,
                                                keyfile, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        rel = os.path.join("sub", "out.file")
        argv = {"keygen": ["keygen", "7"],
                "sweep": ["sweep", "--key", keyfile, "--n", "2", "--seed", "1"]}[command]
        rc, payload, err = run_cli(capsys, *argv, "--out", rel)
        assert rc == EXIT_OK
        assert payload["out"] == rel
        assert err.rstrip().endswith(f" {rel}")
        assert (tmp_path / "sub" / "out.file").is_file()


class TestNonFiniteThreshold:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["open", "corpus", "sweep"])
    def test_refused(self, tmp_path, capsys, monkeypatch, keyfile, host_image,
                     command, bad):
        imgdir = tmp_path / "imgs"
        imgdir.mkdir()
        write_image(make_image(5, 64, 64), str(imgdir / "a.ppm"))
        out = tmp_path / "out.csv"
        argv = {
            "open": ["open", "--in", host_image, "--key", keyfile],
            "corpus": ["corpus", "--dir", str(imgdir), "--key", keyfile,
                       "--message", "m", "--out", str(out)],
            "sweep": ["sweep", "--key", keyfile, "--n", "2", "--out", str(out)],
        }[command]

        def no_work(*args, **kwargs):
            raise AssertionError("work started before the threshold was checked")

        # refused before the rotation or any carriers are made
        monkeypatch.setattr(channel, "sample_rotation", no_work)
        monkeypatch.setattr(imagechannel.CarrierSet, "generate", no_work)
        rc, payload, err = run_cli(capsys, *argv, f"--ell-threshold={bad}")
        assert rc == EXIT_USAGE
        assert payload is None
        assert err.startswith("error: ") and "finite" in err
        assert "Traceback" not in err
        assert not out.exists()


KEY_JSON = b'{"seed": 7}'
NOT_UTF8 = b"\xff\n"
HOST, EMPTY_DIR = "host", "dir"  # stand-ins for a valid PPM and a directory

# (id, files under tmp_path, argv with "@name" for tmp_path / name, exit
# code, a fragment of the error line)
REFUSALS = [
    ("seal-empty-message", {"key.json": KEY_JSON},
     ["seal", "--in", "@host.ppm", "--out", "@out.ppm", "--key", "@key.json",
      "--message", ""], EXIT_USAGE, "empty message"),
    ("seal-message-trailing-nul", {"key.json": KEY_JSON},
     ["seal", "--in", "@host.ppm", "--out", "@out.ppm", "--key", "@key.json",
      "--message-hex", "6100"], EXIT_USAGE, "NUL byte"),
    ("seal-message-not-utf8", {"key.json": KEY_JSON},
     ["seal", "--in", "@host.ppm", "--out", "@out.ppm", "--key", "@key.json",
      "--message", "\udcff"], EXIT_USAGE, "--message-hex"),
    ("corpus-message-trailing-nul", {"key.json": KEY_JSON},
     ["corpus", "--dir", "@images", "--key", "@key.json", "--message-hex", "6100",
      "--out", "@out.csv"], EXIT_USAGE, "NUL byte"),
    ("corpus-message-not-utf8", {"key.json": KEY_JSON, "images/a.ppm": HOST},
     ["corpus", "--dir", "@images", "--key", "@key.json", "--message", "\udcff",
      "--out", "@out.csv"], EXIT_USAGE, "--message-hex"),
    ("profiles-not-array", {"key.json": KEY_JSON, "p.json": b"{}"},
     ["sweep", "--key", "@key.json", "--profiles", "@p.json", "--out", "@out.csv"],
     EXIT_USAGE, "must be a JSON array"),
    ("profiles-empty", {"key.json": KEY_JSON, "p.json": b"[]"},
     ["sweep", "--key", "@key.json", "--profiles", "@p.json", "--out", "@out.csv"],
     EXIT_USAGE, "profile config must list at least one profile"),
    ("profiles-entry-not-object", {"key.json": KEY_JSON, "p.json": b"[1]"},
     ["sweep", "--key", "@key.json", "--profiles", "@p.json", "--out", "@out.csv"],
     EXIT_USAGE, "profiles[0] is not an object"),
    ("profiles-target-not-number",
     {"key.json": KEY_JSON, "p.json": b'[{"name": "a", "target_cosine": "0.9"}]'},
     ["sweep", "--key", "@key.json", "--profiles", "@p.json", "--out", "@out.csv"],
     EXIT_USAGE, "target_cosine must be a number"),
    ("profiles-missing", {"key.json": KEY_JSON},
     ["sweep", "--key", "@key.json", "--profiles", "@p.json", "--out", "@out.csv"],
     EXIT_USAGE, "cannot read profile config"),
    ("profiles-directory", {"key.json": KEY_JSON, "p.json": EMPTY_DIR},
     ["sweep", "--key", "@key.json", "--profiles", "@p.json", "--out", "@out.csv"],
     EXIT_USAGE, "cannot read profile config"),
    ("profiles-not-utf8", {"key.json": KEY_JSON, "p.json": NOT_UTF8},
     ["sweep", "--key", "@key.json", "--profiles", "@p.json", "--out", "@out.csv"],
     EXIT_USAGE, "cannot read profile config"),
    ("profiles-name-nul",
     {"key.json": KEY_JSON,
      "p.json": b'[{"name": "a", "target_cosine": 0.9},'
                b' {"name": "a\\u0000", "target_cosine": 0.9}]'},
     ["sweep", "--key", "@key.json", "--profiles", "@p.json", "--out", "@out.csv"],
     EXIT_USAGE, "profiles[1].name"),
    ("scores-missing", {}, ["roc", "--scores", "@s.csv", "--out", "@out.csv"],
     EXIT_USAGE, "cannot read"),
    ("scores-blank", {"s.csv": b"\n  \n"}, ["roc", "--scores", "@s.csv", "--out", "@out.csv"],
     EXIT_USAGE, "is empty"),
    ("scores-not-utf8", {"s.csv": NOT_UTF8}, ["roc", "--scores", "@s.csv", "--out", "@out.csv"],
     EXIT_USAGE, "cannot read"),
    ("bleu4-empty", {"c.txt": b"", "r.txt": b""},
     ["metrics", "--mode", "bleu4", "--candidates", "@c.txt", "--references", "@r.txt"],
     EXIT_USAGE, "empty input files"),
    ("novelty-without-train", {"c.txt": b"a b\n"},
     ["metrics", "--mode", "novelty", "--candidates", "@c.txt"],
     EXIT_USAGE, "needs --candidates and --train"),
    ("candidates-missing", {"r.txt": b"a b\n"},
     ["metrics", "--mode", "em", "--candidates", "@c.txt", "--references", "@r.txt"],
     EXIT_USAGE, "cannot read"),
    ("candidates-not-utf8", {"c.txt": NOT_UTF8, "r.txt": b"a b\n"},
     ["metrics", "--mode", "em", "--candidates", "@c.txt", "--references", "@r.txt"],
     EXIT_USAGE, "cannot read"),
    ("references-not-utf8", {"c.txt": b"a b\n", "r.txt": NOT_UTF8},
     ["metrics", "--mode", "bleu4", "--candidates", "@c.txt", "--references", "@r.txt"],
     EXIT_USAGE, "cannot read"),
    ("train-not-utf8", {"c.txt": b"a b\n", "t.txt": NOT_UTF8},
     ["metrics", "--mode", "novelty", "--candidates", "@c.txt", "--train", "@t.txt"],
     EXIT_USAGE, "cannot read"),
    # the file an option names would be read only after the refusal
    ("novelty-with-references", {"c.txt": NOT_UTF8, "r.txt": NOT_UTF8},
     ["metrics", "--mode", "novelty", "--candidates", "@c.txt", "--references", "@r.txt"],
     EXIT_USAGE, "mode novelty does not read --references"),
    ("bleu4-with-train", {"c.txt": NOT_UTF8, "r.txt": NOT_UTF8, "t.txt": NOT_UTF8},
     ["metrics", "--mode", "bleu4", "--candidates", "@c.txt", "--references", "@r.txt",
      "--train", "@t.txt"], EXIT_USAGE, "mode bleu4 does not read --train"),
    ("bench-dims-empty", {}, ["bench", "--dims", ",", "--repeats", "1"],
     EXIT_USAGE, "--dims lists no integer"),
    ("bench-batches-empty", {}, ["bench", "--batches", "", "--repeats", "1"],
     EXIT_USAGE, "--batches lists no integer"),
    ("corpus-transform-unknown", {"key.json": KEY_JSON, "images/a.ppm": b"P6\n"},
     ["corpus", "--dir", "@images", "--key", "@key.json", "--message", "m",
      "--transform", "nope", "--out", "@out.csv"], EXIT_USAGE, "unknown transform 'nope'"),
    ("corpus-transform-before-key", {"images/a.ppm": HOST},
     ["corpus", "--dir", "@images", "--key", "@key.json", "--message", "m",
      "--transform", "jpeg_like:0", "--out", "@out.csv"], EXIT_USAGE,
     "quality an integer in [1, 100]"),
    ("attack-crop-above-one", {},
     ["attack", "--in", "@missing.ppm", "--transform", "crop:2", "--out", "@out.ppm"],
     EXIT_USAGE, "ratio in (0, 1]"),
    ("corpus-dir-missing", {"key.json": KEY_JSON},
     ["corpus", "--dir", "@images", "--key", "@key.json", "--message", "m",
      "--out", "@out.csv"], EXIT_IMAGE_IO, "cannot list"),
    ("corpus-name-not-utf8", {"key.json": KEY_JSON, b"images/\xff.ppm": HOST},
     ["corpus", "--dir", "@images", "--key", "@key.json", "--message", "m",
      "--out", "@out.csv"], EXIT_IMAGE_IO, r"'\udcff.ppm'"),
    ("key-label-not-text", {"k.json": b'{"seed": 7, "label": 5}'},
     ["open", "--in", "@host.ppm", "--key", "@k.json"], EXIT_KEY, "non-text label"),
    ("key-not-utf8", {"k.json": NOT_UTF8},
     ["open", "--in", "@host.ppm", "--key", "@k.json"], EXIT_KEY, "cannot read key file"),
    ("calibrate-underflow", {}, ["calibrate", "--target-cosine", "1e-170"],
     EXIT_USAGE, "no finite noise scale"),
    ("calibrate-overflow", {}, ["calibrate", "--target-cosine", "1e-155"],
     EXIT_USAGE, "no finite noise scale"),
    ("profiles-target-underflow",
     {"key.json": KEY_JSON, "p.json": b'[{"name": "a", "target_cosine": 1e-170}]'},
     ["sweep", "--key", "@key.json", "--profiles", "@p.json", "--out", "@out.csv"],
     EXIT_USAGE, "profiles[0].target_cosine"),
    ("attack-negative-seed", {"host.ppm": HOST},
     ["attack", "--in", "@host.ppm", "--transform", "identity", "--out", "@out.ppm",
      "--seed", "-1"], EXIT_USAGE, "--seed must be a non-negative integer"),
    ("sweep-negative-seed", {"key.json": KEY_JSON},
     ["sweep", "--key", "@key.json", "--n", "1", "--out", "@out.csv", "--seed", "-1"],
     EXIT_USAGE, "--seed must be a non-negative integer"),
    ("corpus-negative-seed", {"key.json": KEY_JSON, "images/a.ppm": HOST},
     ["corpus", "--dir", "@images", "--key", "@key.json", "--message", "m",
      "--out", "@out.csv", "--seed", "-1"], EXIT_USAGE,
     "--seed must be a non-negative integer"),
    # past the interpreter's 4300-digit limit json.load raises ValueError,
    # and past its nesting depth RecursionError
    ("key-seed-too-many-digits", {"k.json": b'{"seed": 1' + b"0" * 5000 + b"}"},
     ["open", "--in", "@host.ppm", "--key", "@k.json"], EXIT_KEY, "is not valid JSON"),
    ("key-nested-too-deep", {"k.json": b'{"seed": ' + b"[" * 100000 + b"]" * 100000 + b"}"},
     ["open", "--in", "@host.ppm", "--key", "@k.json"], EXIT_KEY, "is not valid JSON"),
    ("profiles-too-many-digits",
     {"key.json": KEY_JSON,
      "p.json": b'[{"name": "a", "target_cosine": 1' + b"0" * 5000 + b"}]"},
     ["sweep", "--key", "@key.json", "--profiles", "@p.json", "--out", "@out.csv"],
     EXIT_USAGE, "profile config"),
    ("profiles-nested-too-deep",
     {"key.json": KEY_JSON, "p.json": b"[" * 100000 + b"]" * 100000},
     ["sweep", "--key", "@key.json", "--profiles", "@p.json", "--out", "@out.csv"],
     EXIT_USAGE, "profile config"),
    ("profiles-target-past-float-range",
     {"key.json": KEY_JSON,
      "p.json": b'[{"name": "a", "target_cosine": 1' + b"0" * 400 + b"}]"},
     ["sweep", "--key", "@key.json", "--profiles", "@p.json", "--out", "@out.csv"],
     EXIT_USAGE, "profiles[0].target_cosine"),
]


class TestRefusals:
    @pytest.mark.parametrize("files, argv, code, fragment",
                             [case[1:] for case in REFUSALS],
                             ids=[case[0] for case in REFUSALS])
    def test_refused_with_code_and_message(self, tmp_path, capsys, monkeypatch,
                                           files, argv, code, fragment):
        root = os.fsencode(tmp_path)
        for name, content in files.items():
            path = os.path.join(root, os.fsencode(name))
            if content == EMPTY_DIR:
                os.makedirs(path)
                continue
            os.makedirs(os.path.dirname(path), exist_ok=True)
            if content == HOST:
                write_image(make_image(0, 64, 64), os.fsdecode(path))
            else:
                with open(path, "wb") as fh:
                    fh.write(content)

        def no_read(*args, **kwargs):
            raise AssertionError("an image was read before the refusal")

        monkeypatch.setattr(cli, "read_image", no_read)
        argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
        rc, payload, err = run_cli(capsys, *argv)
        assert rc == code
        assert payload is None
        assert err.startswith("error: ") and fragment in err
        assert "Traceback" not in err
        assert not [p for p in os.listdir(root) if b"out" in p]
