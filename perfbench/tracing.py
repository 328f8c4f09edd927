"""Spans and counts around spheremark's public functions.

The wrappers are installed from outside the package: each traced
function is replaced, in every ``spheremark`` module namespace that
holds it, by a wrapper that records a span (name, start, end, parent
span, operation id, error).  Methods are wrapped on their class.  Spans
stay in memory and are written out as JSON lines when the run ends.

A layer's self time is its span's duration minus the time covered by
its direct child spans.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

# span record fields
NAME, START, END, PARENT, OP, ERROR, NOTE = range(7)

# Modules that own at least one traced function; each gets a self-time
# share and an error count.
MODULES = ("imagechannel", "netpbm", "rotation", "codec", "confidence",
           "sphere", "channel", "metrics")


def _carrier_bytes(args) -> int:
    # CarrierSet.generate(cls, key, dim, height, width): float64 patterns
    return 8 * args[2] * args[3] * args[4]


def _extract_bytes(args) -> int:
    # extract(img, key, dim) reads the whole (dim, H, W) carrier stack once
    img = args[0]
    return 8 * args[2] * img.height * img.width


def _transform_name(args) -> str:
    return args[1]


# (module, attribute, note) for module-level functions
FUNCTIONS = (
    ("netpbm", "read_image", None),
    ("netpbm", "write_image", None),
    ("netpbm", "psnr", None),
    ("imagechannel", "embed", None),
    ("imagechannel", "extract", _extract_bytes),
    ("imagechannel", "attack", _transform_name),
    ("rotation", "load_key", None),
    ("rotation", "sample_rotation", None),
    ("rotation", "rotate", None),
    ("rotation", "unrotate", None),
    ("confidence", "assess", None),
    ("channel", "default_profiles", None),
    ("channel", "run_sweep", None),
    ("channel", "perturb", None),
    ("sphere", "unit", None),
    ("sphere", "cosine", None),
    ("metrics", "roc", None),
    ("metrics", "threshold_at_fpr", None),
)

# (module, class, method, note) for methods, wrapped on the class
METHODS = (
    ("imagechannel", "CarrierSet", "generate", _carrier_bytes),
    ("codec", "SignCodec", "encode", None),
    ("codec", "SignCodec", "decode", None),
)


class Tracer:
    """Records spans and counts; ``op`` tags spans with the current operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1  # -1 marks set-up
        self._stack: list[int] = []
        self._last_error = None
        self._patches: list[tuple] = []

    def timed(self, name: str, fn, note=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, None,
                   note(args) if note is not None else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                # the innermost traced span that sees an exception owns it
                rec[ERROR] = "propagated" if exc is self._last_error else type(exc).__name__
                self._last_error = exc
                raise
            finally:
                rec[END] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace_everywhere(self, package: str, original, replacement) -> None:
        """Rebind every module global of the package that is ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patches.append((mod, attr, original))

    def install(self, package: str = "spheremark") -> None:
        """Wrap the traced functions and methods of an imported package."""
        for mod_name, attr, note in FUNCTIONS:
            original = getattr(sys.modules[f"{package}.{mod_name}"], attr)
            self._replace_everywhere(
                package, original, self.timed(f"{mod_name}.{attr}", original, note))
        for mod_name, cls_name, meth, note in METHODS:
            cls = getattr(sys.modules[f"{package}.{mod_name}"], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(self.timed(f"{mod_name}.{meth}", raw.__func__, note))
            else:
                new = self.timed(f"{mod_name}.{meth}", raw, note)
            setattr(cls, meth, new)
            self._patches.append((cls, meth, raw))
        streams = sys.modules[f"{package}.streams"]
        self._replace_everywhere(package, streams.stream,
                                 self.counted("streams.stream", streams.stream))
        unit_vector = sys.modules[f"{package}.sphere"].UnitVector
        raw = unit_vector.__dict__["__post_init__"]
        unit_vector.__post_init__ = self.counted("sphere.UnitVector", raw)
        self._patches.append((unit_vector, "__post_init__", raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_jsonl(self, path: str) -> None:
        """A header line naming the fields, then one JSON array per span;
        span ids are line numbers counted from 0 after the header."""
        t0 = self.spans[0][START] if self.spans else 0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start_ns", "end_ns", "parent", "op",
                                 "error", "note"]) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s[NAME], s[START] - t0, s[END] - t0, s[PARENT],
                                     s[OP], s[ERROR], s[NOTE]]) + "\n")


def _noop():
    return None


def wrapper_cost_ns(repeats: int = 20000) -> tuple[float, float]:
    """Added cost of one span and of one count, in ns per call."""
    probe = Tracer()
    spanned = probe.timed("probe", _noop)
    counted = probe.counted("probe", _noop)
    clock = time.perf_counter_ns
    costs = []
    for fn in (_noop, spanned, counted):
        best = None
        for _ in range(3):
            t0 = clock()
            for _ in range(repeats):
                fn()
            elapsed = (clock() - t0) / repeats
            best = elapsed if best is None else min(best, elapsed)
        costs.append(best)
        probe.spans.clear()
    return costs[1] - costs[0], costs[2] - costs[0]


def _p50(values, scale):
    return statistics.median(values) / scale if values else None


def summarize(tracer: Tracer, loop_s: float, messages: int, images: int) -> dict:
    """Per-layer metrics from the spans and counts of one traced run.

    Timings cover the timed loop (operation id >= 0), except carrier
    generation and rotation sampling, which also count their set-up
    calls: on a steady corpus those happen only in set-up.
    """
    spans = tracer.spans
    covered = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    loop = defaultdict(list)
    every = defaultdict(list)
    loop_self = defaultdict(list)
    loop_notes = defaultdict(list)
    module_self = dict.fromkeys(MODULES, 0)
    errors = dict.fromkeys(MODULES, 0)
    program_ns = 0
    for i, s in enumerate(spans):
        duration = s[END] - s[START]
        every[s[NAME]].append(duration)
        module = s[NAME].split(".", 1)[0]
        if s[ERROR] not in (None, "propagated"):
            errors[module] += 1
        if s[OP] < 0:
            continue
        name = s[NAME] if s[NAME] != "imagechannel.attack" else f"{s[NAME]}.{s[NOTE]}"
        loop[name].append(duration)
        loop_self[name].append(duration - covered[i])
        loop_notes[name].append(s[NOTE])
        module_self[module] += duration - covered[i]
        if s[PARENT] < 0:
            program_ns += duration

    gens = len(loop["imagechannel.generate"])
    carrier_calls = len(loop["imagechannel.embed"]) + len(loop["imagechannel.extract"])
    extract_ns = sum(loop["imagechannel.extract"])
    ms, us = 1e6, 1e3
    out = {
        "imagechannel.carrier_gen_ms_p50": _p50(every["imagechannel.generate"], ms),
        "imagechannel.carrier_gen_count": gens,
        "imagechannel.carrier_gen_per_message": gens / messages,
        "imagechannel.carrier_hit_ratio": (1.0 - gens / carrier_calls) if carrier_calls else None,
        "imagechannel.carrier_bytes_computed": sum(loop_notes["imagechannel.generate"]),
        "imagechannel.embed_ms_p50": _p50(loop["imagechannel.embed"], ms),
        "imagechannel.extract_ms_p50": _p50(loop["imagechannel.extract"], ms),
        "imagechannel.extract_gb_per_s_computed": (
            sum(loop_notes["imagechannel.extract"]) / extract_ns if extract_ns else None),
        "netpbm.read_ms_p50": _p50(loop["netpbm.read_image"], ms),
        "netpbm.write_ms_p50": _p50(loop["netpbm.write_image"], ms),
        "netpbm.psnr_ms_p50": _p50(loop["netpbm.psnr"], ms),
        "rotation.sample_ms_p50": _p50(every["rotation.sample_rotation"], ms),
        "rotation.rotate_us_p50": _p50(loop["rotation.rotate"], us),
        "rotation.unrotate_us_p50": _p50(loop["rotation.unrotate"], us),
        "codec.encode_us_p50": _p50(loop["codec.encode"], us),
        "codec.decode_us_p50": _p50(loop["codec.decode"], us),
        "confidence.assess_us_p50": _p50(loop["confidence.assess"], us),
        "channel.perturb_us_p50": _p50(loop["channel.perturb"], us),
        "channel.run_sweep_self_ms": _p50(loop_self["channel.run_sweep"], ms),
        "sphere.cosine_us_p50": _p50(loop["sphere.cosine"], us),
        "sphere.unitvector_count": tracer.counts["sphere.UnitVector"],
        "sphere.unitvector_per_message": tracer.counts["sphere.UnitVector"] / messages,
        "streams.stream_count": tracer.counts["streams.stream"],
        "streams.stream_per_message": tracer.counts["streams.stream"] / messages,
        "metrics.roc_ms_p50": _p50(loop["metrics.roc"], ms),
        "metrics.threshold_at_fpr_ms_p50": _p50(loop["metrics.threshold_at_fpr"], ms),
        "imagechannel.carrier_bytes_per_message":
            sum(loop_notes["imagechannel.generate"]) / messages,
    }
    for name in sorted(loop):
        if name.startswith("imagechannel.attack."):
            out["imagechannel.attack_ms_p50." + name.rsplit(".", 1)[1]] = _p50(loop[name], ms)
    for module in MODULES:
        out[f"{module}.self_pct"] = 100.0 * module_self[module] / program_ns if program_ns else 0.0
        out[f"{module}.errors"] = errors[module]

    span_ns, count_ns = wrapper_cost_ns()
    n_loop_spans = sum(len(v) for v in loop.values())
    n_counts = tracer.counts["sphere.UnitVector"] + tracer.counts["streams.stream"]
    out["trace.spans_per_message"] = n_loop_spans / messages
    out["trace.overhead_pct"] = 100.0 * (n_loop_spans * span_ns + n_counts * count_ns) / (loop_s * 1e9)
    out["trace.span_cost_ns"] = span_ns
    if images:
        out["imagechannel.carrier_gen_self_ms_per_image"] = (
            sum(loop_self["imagechannel.generate"]) / images / ms)
    return out
