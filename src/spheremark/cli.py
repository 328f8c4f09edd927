"""Command-line front end.

Machine-readable JSON goes to stdout, one-line human summaries to
stderr.  Exit codes: 0 success (and trusted verdicts), 2 usage or
configuration problems (including capacity), 3 image I/O, 4 key
errors, 10 for an untrusted verdict from ``open``.

All randomness funnels through one root seed (--seed, or OS entropy
when absent) with a labeled substream per command stage, so a fixed
seed reproduces outputs byte for byte.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import secrets
import sys

from .channel import (default_profiles, load_profiles, run_sweep,
                      write_sweep_csv)
from .channel import calibrate as channel_calibrate
from .codec import Message, get_codec
from .confidence import VERDICT_TRUSTED, assess
from .errors import (CapacityExceededError, DegenerateLabelsError,
                     DimensionError, DimensionMismatchError, DomainError,
                     ImageFormatError, ImageSizeError, KeyFileError,
                     UnknownTransformError)
from .imagechannel import attack as apply_attack
from .imagechannel import embed, extract, transform_names
from .metrics import (NgramIndex, ScoredSample, bleu4, novelty_score, roc,
                      threshold_at_fpr, write_roc_csv)
from .netpbm import psnr, read_image, write_image
from .rotation import (SecretKey, benchmark_generation, load_key, rotate,
                       sample_rotation, save_key, unrotate)
from .streams import label_entropy, stream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IMAGE_IO = 3
EXIT_KEY = 4
EXIT_UNTRUSTED = 10


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


def _resolve_out(args, path: str) -> str:
    if os.path.isabs(path):
        return path
    return os.path.join(args.out_dir, path)


def _parse_message(args) -> Message:
    if (args.message is None) == (args.message_hex is None):
        raise DomainError("provide exactly one of --message or --message-hex")
    if args.message is not None:
        data = args.message.encode("utf-8")
    else:
        try:
            data = bytes.fromhex(args.message_hex)
        except ValueError as exc:
            raise DomainError(f"--message-hex is not valid hex: {exc}") from exc
    if data.endswith(b"\x00"):
        raise DomainError(
            "message ends in a NUL byte, which the zero-padding convention "
            "cannot represent")
    if not data:
        raise DomainError("empty message")
    return Message(data)


def _parse_transform(spec: str) -> tuple[str, float | None]:
    name, sep, raw = spec.partition(":")
    if not sep:
        return name, None
    try:
        return name, float(raw)
    except ValueError as exc:
        raise DomainError(f"transform parameter {raw!r} is not a number") from exc


def cmd_keygen(args) -> int:
    seed = args.key_seed if args.key_seed is not None else secrets.randbits(64)
    key = SecretKey(seed=seed, label=args.label)
    out = _resolve_out(args, args.out)
    save_key(key, out)
    _emit({"out": out, "seed": seed, "label": args.label})
    _note(f"wrote key file {out}")
    return EXIT_OK


def _seal_pipeline(args, key, codec, message, img):
    rot = sample_rotation(key, args.dim)
    carrier_vec = rotate(rot, codec.encode(message))
    marked = embed(img, carrier_vec, key, args.psnr)
    return carrier_vec, marked


def cmd_seal(args) -> int:
    key = load_key(args.key)
    codec = get_codec(args.codec, args.dim)
    message = _parse_message(args)
    img = read_image(args.infile)
    carrier_vec, marked = _seal_pipeline(args, key, codec, message, img)
    out = _resolve_out(args, args.out)
    write_image(marked, out)
    achieved = psnr(img, marked)
    _emit({
        "out": out,
        "achieved_psnr_db": _json_float(achieved),
        "vector_sha256": hashlib.sha256(carrier_vec.to_bytes()).hexdigest(),
        "dim": args.dim,
        "codec": args.codec,
        "message_bytes": len(message.data),
    })
    _note(f"sealed {args.infile} -> {out} at {achieved:.2f} dB")
    return EXIT_OK


def cmd_open(args) -> int:
    key = load_key(args.key)
    codec = get_codec(args.codec, args.dim)
    img = read_image(args.infile)
    rot = sample_rotation(key, args.dim)
    v_hat = unrotate(rot, extract(img, key, args.dim))
    report = assess(codec, v_hat, args.ell_threshold)
    message = codec.decode(v_hat)
    payload = {"message_text": message.text, "message_hex": message.data.hex()}
    payload.update(report.to_json_dict())
    _emit(payload)
    _note(f"verdict: {report.verdict} (ell={report.ell:.2f}, "
          f"threshold={args.ell_threshold:g})")
    return EXIT_OK if report.verdict == VERDICT_TRUSTED else EXIT_UNTRUSTED


def cmd_attack(args) -> int:
    img = read_image(args.infile)
    name, value = _parse_transform(args.transform)
    out_img = apply_attack(img, name, value, rng=_stage_rng(args, "attack"))
    out = _resolve_out(args, args.out)
    write_image(out_img, out)
    _emit({"out": out, "transform": args.transform,
           "psnr_db": _json_float(psnr(img, out_img))})
    _note(f"applied {args.transform} -> {out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    key = load_key(args.key)
    codec = get_codec(args.codec, args.dim)
    if args.profiles:
        try:
            profiles = load_profiles(args.profiles, args.dim)
        except json.JSONDecodeError as exc:
            raise DomainError(f"profile config {args.profiles}: {exc}") from exc
        except OSError as exc:
            raise DomainError(f"cannot read profile config: {exc}") from exc
    else:
        profiles = default_profiles(args.dim)
    unrotate_key = load_key(args.unrotate_key) if args.unrotate_key else None
    rows = run_sweep(profiles, codec, key, args.n, _stage_rng(args, "sweep"),
                     message_len=args.message_len,
                     ell_threshold=args.ell_threshold,
                     unrotate_key=unrotate_key)
    out = _resolve_out(args, args.out)
    write_sweep_csv(rows, out)
    _emit({"out": out, "profiles": len(rows), "n": args.n})
    _note(f"swept {len(rows)} profiles x {args.n} messages -> {out}")
    return EXIT_OK


def _read_scores(path: str) -> list[ScoredSample]:
    samples = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise DomainError(f"cannot read scores: {exc}") from exc
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
        if not math.isfinite(score):
            raise DomainError(f"score must be finite, got {parts[0]!r}")
        if label not in (0, 1):
            raise DomainError(f"label must be 0 or 1, got {label}")
        samples.append(ScoredSample(score=score, label=bool(label)))
    return samples


def cmd_roc(args) -> int:
    samples = _read_scores(args.scores)
    result = roc(samples)
    points = [threshold_at_fpr(samples, f).to_json_dict() for f in args.target_fpr]
    out = _resolve_out(args, args.out)
    write_roc_csv(result, out)
    n_pos = sum(s.label for s in samples)
    _emit({"auc": result.auc, "n_pos": n_pos, "n_neg": len(samples) - n_pos,
           "operating_points": points, "out": out})
    _note(f"auc={result.auc:.4f} over {len(samples)} samples -> {out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    dims = [int(d) for d in args.dims.split(",") if d]
    batches = [int(b) for b in args.batches.split(",") if b]
    rows = []
    for dim in dims:
        for batch in batches:
            timing = benchmark_generation(dim, batch, repeats=args.repeats)
            rows.append({"dim": dim, "batch": batch,
                         "median_ms": timing.median_ms})
    if args.out:
        out = _resolve_out(args, args.out)
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("dim,batch,median_ms\n")
            for r in rows:
                fh.write(f"{r['dim']},{r['batch']},{r['median_ms']:.4f}\n")
    _emit({"results": rows})
    _note(f"benchmarked {len(rows)} (dim, batch) points")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    sigma = channel_calibrate(args.target_cosine, args.dim)
    _emit({"target_cosine": args.target_cosine, "sigma": sigma, "dim": args.dim})
    _note(f"sigma={sigma:.6f} for target cosine {args.target_cosine}")
    return EXIT_OK


def _read_lines(path: str) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc


def cmd_metrics(args) -> int:
    if args.mode in ("bleu4", "em"):
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
            matches = sum(c == r for c, r in zip(cand, ref))
            _emit({"mode": "em", "exact_match": matches / len(cand), "n": len(cand)})
    elif args.mode == "novelty":
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
    else:
        raise DomainError(f"unknown metrics mode {args.mode!r}")
    return EXIT_OK


def cmd_corpus(args) -> int:
    key = load_key(args.key)
    codec = get_codec(args.codec, args.dim)
    message = _parse_message(args)
    try:
        names = sorted(n for n in os.listdir(args.dir)
                       if n.endswith((".pgm", ".ppm")))
    except OSError as exc:
        raise ImageFormatError(f"cannot list {args.dir}: {exc}") from exc
    if not names:
        raise ImageFormatError(f"no .pgm/.ppm images under {args.dir}")
    transform = _parse_transform(args.transform) if args.transform else None
    rng = _stage_rng(args, "corpus")
    rot = sample_rotation(key, args.dim)
    carrier_vec = rotate(rot, codec.encode(message))
    out = _resolve_out(args, args.out)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("file,psnr_db,cosine,ell,verdict,exact_match\n")
        for name in names:
            img = read_image(os.path.join(args.dir, name))
            marked = embed(img, carrier_vec, key, args.psnr)
            attacked = marked
            if transform is not None:
                attacked = apply_attack(marked, transform[0], transform[1], rng=rng)
            v_hat = unrotate(rot, extract(attacked, key, args.dim))
            report = assess(codec, v_hat, args.ell_threshold)
            match = codec.decode(v_hat).data == message.data
            db = psnr(img, marked)
            db_txt = "inf" if math.isinf(db) else f"{db:.4f}"
            fh.write(f"{name},{db_txt},{report.cosine:.6f},{report.ell:.4f},"
                     f"{report.verdict},{int(match)}\n")
    _emit({"out": out, "images": len(names)})
    _note(f"processed {len(names)} images -> {out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="root seed for all randomness (default: OS entropy)")
    common.add_argument("--dim", type=int, default=256,
                        help="payload dimension (default 256)")
    common.add_argument("--codec", default="sign",
                        help="codec name (default sign)")
    common.add_argument("--out-dir", default=".",
                        help="directory for relative output paths")
    parser = argparse.ArgumentParser(
        prog="spheremark",
        description="Keyed watermark channel on the unit hypersphere.")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("keygen", parents=[common], help="create a key file")
    p.add_argument("key_seed", nargs="?", type=int, default=None,
                   help="64-bit seed (default: OS entropy)")
    p.add_argument("--label", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("seal", parents=[common], help="embed a message into an image")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--message", default=None)
    p.add_argument("--message-hex", default=None)
    p.add_argument("--psnr", type=float, default=42.0)
    p.set_defaults(func=cmd_seal)

    p = sub.add_parser("open", parents=[common], help="extract and judge a message")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--ell-threshold", type=float, default=100.0)
    p.set_defaults(func=cmd_open)

    p = sub.add_parser("attack", parents=[common], help="apply a pixel transform")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--transform", required=True,
                   help="name or name:value, e.g. jpeg_like:50 "
                        f"(names: {', '.join(transform_names())})")
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("sweep", parents=[common], help="simulate channel profiles")
    p.add_argument("--key", required=True)
    p.add_argument("--n", type=int, default=200)
    p.add_argument("--out", required=True)
    p.add_argument("--profiles", default=None, help="profile JSON (default built in)")
    p.add_argument("--message-len", type=int, default=16)
    p.add_argument("--ell-threshold", type=float, default=100.0)
    p.add_argument("--unrotate-key", default=None,
                   help="different key for the receive side (wrong-key runs)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("roc", parents=[common], help="ROC curve and operating points")
    p.add_argument("--scores", required=True, help="CSV of score,label rows")
    p.add_argument("--out", required=True, help="ROC curve CSV output")
    p.add_argument("--target-fpr", type=float, action="append", default=None)
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("bench", parents=[common], help="time rotation sampling")
    p.add_argument("--dims", default="256")
    p.add_argument("--batches", default="1")
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("calibrate", parents=[common],
                       help="noise sigma for a target cosine")
    p.add_argument("--target-cosine", type=float, required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("metrics", parents=[common], help="text metrics over files")
    p.add_argument("--mode", required=True, choices=["bleu4", "em", "novelty"])
    p.add_argument("--candidates", default=None)
    p.add_argument("--references", default=None)
    p.add_argument("--train", default=None)
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("corpus", parents=[common],
                       help="seal/attack/open every image in a directory")
    p.add_argument("--dir", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--message", default=None)
    p.add_argument("--message-hex", default=None)
    p.add_argument("--psnr", type=float, default=42.0)
    p.add_argument("--transform", default=None)
    p.add_argument("--ell-threshold", type=float, default=100.0)
    p.add_argument("--out", required=True)
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
    if getattr(args, "seed", None) is None:
        args.seed = secrets.randbits(63)
    if args.command == "roc" and args.target_fpr is None:
        args.target_fpr = [0.01]
    try:
        return args.func(args)
    except CapacityExceededError as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE
    except KeyFileError as exc:
        _note(f"error: {exc}")
        return EXIT_KEY
    except (ImageFormatError, ImageSizeError) as exc:
        _note(f"error: {exc}")
        return EXIT_IMAGE_IO
    except (DomainError, DimensionError, DimensionMismatchError,
            UnknownTransformError, DegenerateLabelsError) as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE
    except OSError as exc:
        _note(f"error: {exc}")
        return EXIT_IMAGE_IO


def run() -> None:
    sys.exit(main())
