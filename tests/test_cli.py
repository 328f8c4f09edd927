import json
import tracemalloc

import numpy as np
import pytest

from spheremark import RasterImage, read_image, write_image
from spheremark.cli import (EXIT_IMAGE_IO, EXIT_KEY, EXIT_OK, EXIT_UNTRUSTED,
                            EXIT_USAGE, _emit, main)
from conftest import make_image


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

    def test_emit_refuses_non_strict_json(self, capsys):
        with pytest.raises(ValueError):
            _emit({"threshold": float("nan")})
        assert capsys.readouterr().out == ""


class TestBenchCalibrate:
    def test_bench_json_and_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc, payload, _ = run_cli(capsys, "bench", "--dims", "2,8",
                                 "--batches", "1", "--repeats", "3",
                                 "--out", str(out))
        assert rc == EXIT_OK
        assert [r["dim"] for r in payload["results"]] == [2, 8]
        assert all(r["median_ms"] > 0 for r in payload["results"])
        lines = out.read_text().splitlines()
        assert lines[0] == "dim,batch,median_ms"
        assert len(lines) == 3

    def test_calibrate(self, capsys):
        rc, payload, _ = run_cli(capsys, "calibrate",
                                 "--target-cosine", "0.984")
        assert rc == EXIT_OK
        assert payload["sigma"] == pytest.approx(0.18106550773430982, abs=1e-12)

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
