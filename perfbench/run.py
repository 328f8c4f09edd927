"""spheremark benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-steady --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each run writes seeded inputs under .perfbench/, measures set-up in
several fresh interpreters, then runs one closed loop with one client
in the last of them.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The line before it holds every measured
figure, the environment and output digests.
"""
from __future__ import annotations

import argparse
import compileall
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import inputs

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
# Fresh interpreters per run whose set-up is timed; the last runs the loop.
SETUPS = 5
SETUP_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    pass


def run_child(cmd: list[str], timeout_s: float) -> tuple[float, dict]:
    """Run one worker; return seconds from launch to its ready event, and its events."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    ready_s = None
    events = {}
    try:
        for line in proc.stdout:
            try:
                event = json.loads(line)
            except ValueError:
                event = None
            if not isinstance(event, dict) or "event" not in event:
                sys.stderr.write(line)
                continue
            if event["event"] == "ready":
                ready_s = time.perf_counter() - t0
            events[event["event"]] = event
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready_s is None:
        raise BenchError(f"worker {' '.join(cmd[1:])} exited with {code}")
    return ready_s, events


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, when numpy bundles it."""
    import numpy
    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spheremark").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            src.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mib": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
    }


def run_workload(spec: dict, workload: str, seed: int, seconds: float,
                 trace: int) -> tuple[dict, dict]:
    """Return (contract line, detail) for one run of one workload."""
    base = ROOT / ".perfbench"
    work = base / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "hosts").mkdir(parents=True)
    try:
        inputs.write_hosts(workload, seed, str(work / "hosts"))
        right, wrong = inputs.key_seeds(seed)
        inputs.write_key(str(work / "key.json"), right, "bench")
        inputs.write_key(str(work / "wrong-key.json"), wrong, "bench-wrong")
        cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--work", str(work),
               "--trace-out", str(base / f"trace-{workload}.jsonl")]
        setup_s, first_ms = [], []
        for role in ["probe"] * (SETUPS - 1) + ["loop"]:
            timeout = SETUP_TIMEOUT_S + (seconds if role == "loop" else 0.0)
            ready_s, events = run_child(cmd + ["--role", role], timeout)
            setup_s.append(ready_s)
            first_ms.append(events["ready"]["first_sample_ms"])
        if "result" not in events:
            raise BenchError("loop worker printed no result")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = events["result"]
    measured = {"setup_s": statistics.median(setup_s),
                "peak_rss_mib": result["peak_rss_mib"], **result["contract"]}
    section = spec["end_to_end"]
    if trace:
        measured = {**result["layers"],
                    "rotation.first_sample_ms": statistics.median(first_ms),
                    "rotation.first_sample_ms_max": max(first_ms)}
        section = spec["per_layer"]
    metrics = {}
    for m in section:
        value = measured.get(m["name"])
        if value is None:
            raise BenchError(f"metric {m['name']} was not measured on {workload}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    line = {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "end_to_end": {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s", "n": len(setup_s)},
            **result["detail"],
            "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB", "n": 1},
        },
        "setup_s_per_process": setup_s,
        "rotation.first_sample_ms_per_process": first_ms,
        "per_layer": result["layers"],
        "failure_notes": result["failure_notes"],
        "digests": result["digests"],
        "env": environment(),
    }
    return line, detail


def print_table(detail: dict) -> None:
    print(f"== {detail['workload']} (seed {detail['seed']}, {detail['seconds']} s)")
    for name, m in detail["end_to_end"].items():
        value = "n/a (too few samples)" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:<20} {value:>24} {m['unit']:<7} n={m['n']}")
    for note in detail["failure_notes"]:
        print(f"  FAILED {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spheremark" / "__init__.py").is_file():
        print(f"error: {ROOT} has no src/spheremark; run from a spheremark checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # byte-compile once, so no timed set-up pays for it
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    try:
        if args.workload == "all":
            lines = {}
            for workload in inputs.WORKLOADS:
                line, detail = run_workload(spec, workload, args.seed, args.seconds, args.trace)
                print_table(detail)
                lines[workload] = line
            print(json.dumps(lines))
            return 0
        line, detail = run_workload(spec, args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
