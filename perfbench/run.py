"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload packet-des --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs the job untraced and then traced, and reports the
per-layer metrics plus the tracing overhead.  Metric names and units
come from ``BENCHMARK.json``.  A report with the run manifest, the
failed points and (traced) every span is written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
#: Fresh-process set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Cold executions of the job per untraced run: at least MIN_REPS, and
#: more while ``--seconds`` allows.
MIN_REPS = 3
#: Untraced warm replays in the traced pass last at least this long.
REPLAY_SECONDS = 0.8


def _load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _metric_block(kind: str, values: Dict[str, float],
                  spec: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """``values`` in BENCHMARK.json's order and units; names must match exactly."""
    declared = spec[kind]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"{kind} metrics {sorted(values)} do not match "
                           f"BENCHMARK.json {sorted(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def _blas_threads() -> Optional[int]:
    """OpenBLAS thread count of the loaded numpy, read through ctypes."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted(set(re.findall(r"\S*openblas\S*\.so\S*", maps))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def manifest(args: argparse.Namespace) -> Dict[str, Any]:
    import numpy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                "MKL_NUM_THREADS") if k in os.environ},
        "platform": platform.platform(),
    }


def setup_probe(workload, seed: int) -> float:
    """Seconds from spawning a fresh process until it has imported the
    job's modules and generated the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
           "--seed", str(seed), "--probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
    if proc.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def measure(workload, seed: int, work: Path, seconds: float) -> Dict[str, Any]:
    """End-to-end pass: the cold job repeated into fresh caches for
    ``seconds`` (at least ``MIN_REPS`` times); no span is recorded while
    the clock runs (the DES workload only keeps a small record of each
    transfer, for the checks)."""
    from perfbench.workloads import replay_failures

    inputs = workload.inputs(seed)
    walls: List[float] = []
    problems: Dict[str, str] = {}
    cold = None
    t_start = time.perf_counter()
    while True:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        job = workload.run(inputs, work / f"cold{len(walls)}")
        wall = time.perf_counter() - t0
        if cold is None:
            cold, cpu = job, time.process_time() - cpu0
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            for label, problem in replay_failures(cold, job, "repeated",
                                                  workload.result).items():
                problems.setdefault(label, problem)
        walls.append(wall)
        elapsed = time.perf_counter() - t_start
        if len(walls) >= MIN_REPS and elapsed + wall > seconds:
            break
    replay = workload.replay(inputs, work / "cold0")
    problems.update(replay_failures(cold, replay, "replayed"))
    setups = [setup_probe(workload, seed) for _ in range(SETUP_PROBES)]
    return {
        "attempted": workload.attempted(inputs),
        "failures": workload.check(seed, inputs, cold, problems),
        "metrics": {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
                    "peak_rss_mb": peak_rss_mb},
        "diagnostics": {"cpu_s": cpu, "job_samples_s": walls, "setup_samples_s": setups},
    }


def traced(workload, seed: int, work: Path) -> Dict[str, Any]:
    """Per-layer pass: the cold job and its warm replays untraced, then the
    cold job and one replay traced."""
    from perfbench.spans import SpanRecorder
    from perfbench.workloads import layer_metrics, replay_failures

    inputs = workload.inputs(seed)
    t0 = time.perf_counter()
    workload.run(inputs, work / "untraced")
    untraced_wall = time.perf_counter() - t0
    replays: List[float] = []
    r0 = time.perf_counter()
    while workload.replay(inputs, work / "untraced") is not None:
        replays.append(time.perf_counter() - r0)
        if len(replays) >= 5 and sum(replays) >= REPLAY_SECONDS:
            break
        r0 = time.perf_counter()

    recorder = SpanRecorder()
    run_fn = workload.traced_run_fn(recorder)
    with workload.traced(recorder):
        t0 = time.perf_counter()
        cold = workload.run(inputs, work / "traced", run_fn)
        traced_wall = time.perf_counter() - t0
        replay = workload.replay(inputs, work / "traced", run_fn)
    metrics = layer_metrics(workload, inputs, cold, replay, recorder)
    metrics["campaign.replay_s"] = statistics.median(replays) if replays else 0.0
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return {
        "attempted": workload.attempted(inputs),
        "failures": workload.check(seed, inputs, cold, replay_failures(cold, replay)),
        "metrics": metrics,
        "diagnostics": {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
                        "replay_samples_s": replays},
        "spans": recorder.to_json(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="untraced runs repeat the cold job while this budget "
                             f"allows (at least {MIN_REPS} times); traced runs ignore it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads: the fluid engine's BLAS calls
    # otherwise spread over the cores, and on a shared machine that makes
    # wall time vary from run to run. The manifest records the count.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.probe:
        workload.inputs(args.seed)
        print("ready", flush=True)
        return 0

    spec = _load_spec()
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        if args.trace:
            result = traced(workload, args.seed, work)
        else:
            result = measure(workload, args.seed, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(result["failures"])
    kind = "per_layer" if args.trace else "end_to_end"
    line = {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": _metric_block(kind, result["metrics"], spec),
    }
    report = {"manifest": manifest(args), "failed_frac": failed / result["attempted"],
              **result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")
    for label, problem in result["failures"].items():
        print(f"perfbench: FAILED {label}: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
