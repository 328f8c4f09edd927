"""Command-line front end.

Machine-readable JSON goes to stdout, one-line human summaries to
stderr.  Exit codes: 0 success (and trusted verdicts), 2 usage or
configuration problems (including capacity), 3 image I/O, 4 key
errors, 10 for an untrusted verdict from ``open``.

All randomness of attack, sweep and corpus funnels through one root
seed (--seed, or OS entropy when absent) with a labeled substream per
command stage, so a fixed seed reproduces outputs byte for byte.  seal
takes --seed too, for a per-seal nonce to come; the others refuse it.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import secrets
import statistics
import sys
import time

from ._fileio import atomic_write
from .channel import (Watermark, default_profiles, load_profiles, run_sweep,
                      write_sweep_csv)
from .channel import calibrate as channel_calibrate
from .codec import Message, SignCodec
from .confidence import VERDICT_TRUSTED, check_ell_threshold
from .errors import (CapacityExceededError, DegenerateLabelsError,
                     DimensionError, DimensionMismatchError, DomainError,
                     ImageFormatError, ImageSizeError, KeyFileError,
                     UnknownTransformError)
from .imagechannel import attack as apply_attack
from .imagechannel import check_transform, embed, transform_names
from .metrics import (NgramIndex, ScoredSample, bleu4, exact_match,
                      novelty_score, roc_with_operating_points, write_roc_csv)
from .netpbm import psnr, read_image, write_image
from .rotation import SecretKey, load_key, sample_rotation, save_key
from .sphere import DEFAULT_DIM
from .streams import label_entropy, stream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IMAGE_IO = 3
EXIT_KEY = 4
EXIT_UNTRUSTED = 10

# Error classes a command may raise and their exit codes; the first
# matching row wins, and any other exception keeps its traceback.
EXIT_CODES = (
    ((CapacityExceededError, DomainError, DimensionError, DimensionMismatchError,
      UnknownTransformError, DegenerateLabelsError), EXIT_USAGE),
    ((ImageFormatError, ImageSizeError, OSError), EXIT_IMAGE_IO),
    ((KeyFileError,), EXIT_KEY),
)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, allow_nan=False))


def _note(text: str) -> None:
    print(text, file=sys.stderr)


def _json_float(x: float):
    # strict JSON has no Infinity literal
    return "inf" if math.isinf(x) else x


def _stage_rng(args, stage: str):
    # the root seed is resolved once in main(), so every stage of one
    # invocation derives from the same root
    return stream(args.seed, label_entropy(stage))


def _parse_message(args) -> Message:
    if (args.message is None) == (args.message_hex is None):
        raise DomainError("provide exactly one of --message or --message-hex")
    if args.message is not None:
        try:
            data = args.message.encode("utf-8")
        except UnicodeEncodeError:  # a non-UTF-8 argv byte arrives as a lone surrogate
            raise DomainError(
                "--message is not valid UTF-8 text; pass raw bytes with --message-hex") from None
    else:
        try:
            data = bytes.fromhex(args.message_hex)
        except ValueError as exc:
            raise DomainError(f"--message-hex is not valid hex: {exc}") from exc
    if not data:
        raise DomainError("empty message")
    return Message(data)


def _parse_transform(spec: str) -> tuple[str, float | None]:
    name, sep, raw = spec.partition(":")
    return name, check_transform(name, raw if sep else None)


def cmd_keygen(args) -> int:
    seed = args.key_seed if args.key_seed is not None else secrets.randbits(64)
    key = SecretKey(seed=seed, label=args.label)
    save_key(key, args.out)
    _emit({"out": args.out, "seed": seed, "label": args.label})
    _note(f"wrote key file {args.out}")
    return EXIT_OK


def cmd_seal(args) -> int:
    key = load_key(args.key)
    message = _parse_message(args)
    carrier_vec = Watermark(key, SignCodec()).sign(message)
    img = read_image(args.infile)
    marked = embed(img, carrier_vec, key, args.psnr)
    write_image(marked, args.out)
    achieved = psnr(img, marked)
    _emit({
        "out": args.out,
        "achieved_psnr_db": _json_float(achieved),
        "vector_sha256": hashlib.sha256(carrier_vec.to_bytes()).hexdigest(),
        "dim": DEFAULT_DIM,
        "codec": "sign",
        "message_bytes": len(message.data),
    })
    _note(f"sealed {args.infile} -> {args.out} at {achieved:.2f} dB")
    return EXIT_OK


def cmd_open(args) -> int:
    key = load_key(args.key)
    img = read_image(args.infile)
    report = Watermark(key, SignCodec()).open(img, args.ell_threshold)
    _emit({"message_text": report.message.text,
           "message_hex": report.message.data.hex(), **report.to_json_dict()})
    _note(f"verdict: {report.verdict} (ell={report.ell:.2f}, "
          f"threshold={args.ell_threshold:g})")
    return EXIT_OK if report.verdict == VERDICT_TRUSTED else EXIT_UNTRUSTED


def cmd_attack(args) -> int:
    name, value = _parse_transform(args.transform)
    img = read_image(args.infile)
    out_img = apply_attack(img, name, value, rng=_stage_rng(args, "attack"))
    write_image(out_img, args.out)
    _emit({"out": args.out, "transform": args.transform,
           "psnr_db": _json_float(psnr(img, out_img))})
    _note(f"applied {args.transform} -> {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    key = load_key(args.key)
    profiles = (load_profiles(args.profiles, DEFAULT_DIM) if args.profiles
                else default_profiles(DEFAULT_DIM))
    unrotate_key = load_key(args.unrotate_key) if args.unrotate_key else None
    rows = run_sweep(profiles, SignCodec(), key, args.n, _stage_rng(args, "sweep"),
                     message_len=args.message_len,
                     ell_threshold=args.ell_threshold,
                     unrotate_key=unrotate_key)
    write_sweep_csv(rows, args.out)
    _emit({"out": args.out, "profiles": len(rows), "n": args.n})
    _note(f"swept {len(rows)} profiles x {args.n} messages -> {args.out}")
    return EXIT_OK


def _read_scores(path: str) -> list[ScoredSample]:
    samples = []
    lines = [ln.strip() for ln in _read_lines(path) if ln.strip()]
    if not lines:
        raise DomainError(f"scores file {path} is empty")
    start = 1 if lines[0].lower().replace(" ", "") == "score,label" else 0
    for ln in lines[start:]:
        parts = ln.split(",")
        if len(parts) != 2:
            raise DomainError(f"bad scores row {ln!r}, want score,label")
        try:
            score = float(parts[0])
            label = int(parts[1])
        except ValueError as exc:
            raise DomainError(f"bad scores row {ln!r}: {exc}") from exc
        if label not in (0, 1):
            raise DomainError(f"label must be 0 or 1, got {label}")
        samples.append(ScoredSample(score=score, label=bool(label)))
    return samples


def cmd_roc(args) -> int:
    samples = _read_scores(args.scores)
    result, points = roc_with_operating_points(samples, args.target_fpr or [0.01])
    write_roc_csv(result, args.out)
    n_pos = sum(s.label for s in samples)
    _emit({"auc": result.auc, "n_pos": n_pos, "n_neg": len(samples) - n_pos,
           "operating_points": [op.to_json_dict() for op in points], "out": args.out})
    _note(f"auc={result.auc:.4f} over {len(samples)} samples -> {args.out}")
    return EXIT_OK


def _int_list(flag: str, text: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise DomainError(f"{flag} wants comma-separated integers, got {text!r}") from exc
    if not values:
        raise DomainError(f"{flag} lists no integer, got {text!r}")
    if any(v < 1 for v in values):
        raise DomainError(f"{flag} values must be >= 1, got {text!r}")
    return values


def _median_rotation_ms(dim: int, batch: int, repeats: int) -> float:
    """Median per-matrix ms of sample_rotation over ``repeats`` timed
    batches of ``batch`` distinct keys, after 2 * batch untimed calls.
    No timed key repeats a warm-up key, so none is a held rotation."""
    for i in range(2 * batch):
        sample_rotation(SecretKey(seed=i), dim)
    per_run = []
    for r in range(repeats):
        keys = [SecretKey(seed=(r + 2) * batch + j) for j in range(batch)]
        t0 = time.perf_counter()
        for k in keys:
            sample_rotation(k, dim)
        per_run.append((time.perf_counter() - t0) * 1000.0 / batch)
    return float(statistics.median(per_run))


def cmd_bench(args) -> int:
    dims = _int_list("--dims", args.dims)
    batches = _int_list("--batches", args.batches)
    if args.repeats < 1:
        raise DomainError(f"--repeats must be >= 1, got {args.repeats}")
    rows = [{"dim": dim, "batch": batch,
             "median_ms": _median_rotation_ms(dim, batch, args.repeats)}
            for dim in dims for batch in batches]
    _emit({"results": rows})
    _note(f"benchmarked {len(rows)} (dim, batch) points")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    sigma = channel_calibrate(args.target_cosine, DEFAULT_DIM)
    _emit({"target_cosine": args.target_cosine, "sigma": sigma, "dim": DEFAULT_DIM})
    _note(f"sigma={sigma:.6g} for target cosine {args.target_cosine}")
    return EXIT_OK


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [ln.rstrip("\n") for ln in fh]
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc


def cmd_metrics(args) -> int:
    if args.mode in ("bleu4", "em"):
        if args.train is not None:
            raise DomainError(f"mode {args.mode} does not read --train")
        if not args.candidates or not args.references:
            raise DomainError(f"mode {args.mode} needs --candidates and --references")
        cand = _read_lines(args.candidates)
        ref = _read_lines(args.references)
        if len(cand) != len(ref):
            raise DomainError(
                f"line count mismatch: {len(cand)} candidates vs {len(ref)} references")
        if not cand:
            raise DomainError("empty input files")
        if args.mode == "bleu4":
            scores = [bleu4(c.split(), r.split()) for c, r in zip(cand, ref)]
            _emit({"mode": "bleu4", "mean_bleu4": sum(scores) / len(scores),
                   "n": len(scores)})
        else:
            _emit({"mode": "em", "exact_match": exact_match(list(zip(cand, ref))),
                   "n": len(cand)})
    elif args.mode == "novelty":
        if args.references is not None:
            raise DomainError("mode novelty does not read --references")
        if not args.candidates or not args.train:
            raise DomainError("mode novelty needs --candidates and --train")
        index = NgramIndex.from_lines(_read_lines(args.train))
        scores = [novelty_score(ln.split(), index) for ln in _read_lines(args.candidates)]
        applicable = [s for s in scores if s is not None]
        payload = {"mode": "novelty", "n_scored": len(applicable),
                   "n_skipped": len(scores) - len(applicable)}
        payload["mean_novelty"] = (sum(applicable) / len(applicable)
                                   if applicable else None)
        _emit(payload)
    return EXIT_OK


def cmd_corpus(args) -> int:
    transform = _parse_transform(args.transform) if args.transform else None
    key = load_key(args.key)
    message = _parse_message(args)
    watermark = Watermark(key, SignCodec())
    carrier_vec = watermark.sign(message)
    try:
        names = sorted(n for n in os.listdir(args.dir)
                       if n.endswith((".pgm", ".ppm")))
    except OSError as exc:
        raise ImageFormatError(f"cannot list {args.dir}: {exc}") from exc
    if not names:
        raise ImageFormatError(f"no .pgm/.ppm images under {args.dir}")
    for name in names:
        try:
            name.encode("utf-8")  # the CSV row names the file in UTF-8
        except UnicodeEncodeError:
            raise ImageFormatError(
                f"file name {ascii(name)} under {args.dir} is not valid UTF-8") from None
    rng = _stage_rng(args, "corpus")
    with atomic_write(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("file,psnr_db,cosine,ell,verdict,exact_match\n")
        table = csv.writer(fh, lineterminator="\n")  # quotes odd file names
        for name in names:
            img = read_image(os.path.join(args.dir, name))
            marked = embed(img, carrier_vec, key, args.psnr)
            attacked = marked
            if transform is not None:
                attacked = apply_attack(marked, transform[0], transform[1], rng=rng)
            report = watermark.open(attacked, args.ell_threshold)
            match = report.message.data == message.data
            db = psnr(img, marked)
            db_txt = "inf" if math.isinf(db) else f"{db:.4f}"
            table.writerow((name, db_txt, f"{report.cosine:.6f}", f"{report.ell:.4f}",
                            report.verdict, int(match)))
    _emit({"out": args.out, "images": len(names)})
    _note(f"processed {len(names)} images -> {args.out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None,
                        help="non-negative root seed for all randomness (default: OS entropy)")
    keyed = argparse.ArgumentParser(add_help=False)
    keyed.add_argument("--key", required=True)
    payload = argparse.ArgumentParser(add_help=False)
    payload.add_argument("--message", default=None)
    payload.add_argument("--message-hex", default=None)
    payload.add_argument("--psnr", type=float, default=42.0)
    judged = argparse.ArgumentParser(add_help=False)
    judged.add_argument("--ell-threshold", type=float, default=100.0)
    written = argparse.ArgumentParser(add_help=False)
    written.add_argument("--out", required=True)
    parser = argparse.ArgumentParser(
        prog="spheremark",
        description="Keyed watermark channel on the unit hypersphere.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("keygen", parents=[written], help="create a key file")
    p.add_argument("key_seed", nargs="?", type=int, default=None,
                   help="64-bit seed (default: OS entropy)")
    p.add_argument("--label", default=None)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("seal", parents=[seeded, keyed, payload, written],
                       help="embed a message into an image")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_seal)

    p = sub.add_parser("open", parents=[keyed, judged],
                       help="extract and judge a message")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_open)

    p = sub.add_parser("attack", parents=[seeded, written], help="apply a pixel transform")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--transform", required=True,
                   help="name or name:value, e.g. jpeg_like:50 "
                        f"(names: {', '.join(transform_names())})")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("sweep", parents=[seeded, keyed, judged, written],
                       help="simulate channel profiles")
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--profiles", default=None, help="profile JSON (default built in)")
    p.add_argument("--message-len", type=int, default=16)
    p.add_argument("--unrotate-key", default=None,
                   help="different key for the receive side (wrong-key runs)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("roc", help="ROC curve and operating points")
    p.add_argument("--scores", required=True, help="CSV of score,label rows")
    p.add_argument("--out", required=True, help="ROC curve CSV output")
    p.add_argument("--target-fpr", type=float, action="append", default=None)
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("bench", help="time rotation sampling")
    p.add_argument("--dims", default=str(DEFAULT_DIM))
    p.add_argument("--batches", default="1")
    p.add_argument("--repeats", type=int, default=10)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("calibrate", help="noise sigma for a target cosine")
    p.add_argument("--target-cosine", type=float, required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("metrics", help="text metrics over files")
    p.add_argument("--mode", required=True, choices=["bleu4", "em", "novelty"])
    p.add_argument("--candidates", default=None)
    p.add_argument("--references", default=None)
    p.add_argument("--train", default=None)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("corpus", parents=[seeded, keyed, payload, judged, written],
                       help="seal/attack/open every image in a directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--transform", default=None)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    if "seed" in args and args.seed is None:
        args.seed = secrets.randbits(63)
    try:
        # refused before any key, image or carrier work
        check_ell_threshold(getattr(args, "ell_threshold", 0.0))
        if getattr(args, "seed", 0) < 0:
            raise DomainError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except tuple(cls for classes, _ in EXIT_CODES for cls in classes) as exc:
        _note(f"error: {exc}")
        return next(code for classes, code in EXIT_CODES if isinstance(exc, classes))


def run() -> None:
    sys.exit(main())
