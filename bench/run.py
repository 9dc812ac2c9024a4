"""magnonkit benchmark: one workload per process, end to end or traced.

Usage, from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``)::

    python3 bench/run.py --workload solve-3d --seed 1 --seconds 15 --trace 0

Workloads are defined in ``workloads.py``.  With ``--trace 0`` the run
reports the end-to-end metrics: ``wall_s`` (median wall time of one pass),
``setup_s`` and ``peak_rss_mb`` (medians over separate set-up processes of
their wall time and ``ru_maxrss``; each starts the interpreter, imports
magnonkit, generates inputs and runs one untimed pass, as one CLI user's
process would) and the failed/attempted operations.  With ``--trace 1`` it
alternates traced and untraced passes and reports the per-layer metrics
recorded by ``spans.py``.  Every metric is printed with its unit and sample
count; the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Run metadata, every metric's
quartiles and (traced) the spans go to ``.bench_out/results/``.
"""

from __future__ import annotations

import os
import sys
import time

# BLAS gets a fixed thread count, set before numpy loads; set-up probes inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import gc
import json
import platform
import shutil
import statistics
import subprocess
import threading
from pathlib import Path

from spans import Instruments, MB, Recorder, pass_times
from workloads import WORKLOADS, Ops

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = {0: 3, 1: 1}  # a traced run needs only probe 0, the reproducibility reference
PROBE_TIMEOUT_S = 60
MIN_PASSES = {0: 3, 1: 4}  # a traced run needs at least two traced and two untraced passes

# name -> (unit, better); mirrored by BENCHMARK.json "end_to_end", which holds the bounds.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_ALL = "all three workloads"
# name -> (unit, better, kind, target: the end-to-end metric and workload it should move).
# Kinds: "timing" is the median over traced passes of the per-pass inclusive span
# time; "count" is taken at call boundaries in the first traced pass; "computed"
# is derived from array sizes or inputs and must repeat exactly; "alloc" is a
# tracemalloc peak taken on the rerun of pass 0; "trace" describes the tracing.
PER_LAYER = {
    "lattice.gap_grid_s": ("s", "lower", "timing", "wall_s on solve-3d"),
    "lattice.validate_s": ("s", "lower", "timing", "wall_s on solve-3d"),
    "lattice.coupling_matrix_s": ("s", "lower", "timing", "wall_s on oracle-ladder"),
    "lattice.grid_points": ("count", "higher", "computed", "names the property gap compression needs; all workloads"),
    "lattice.unique_gap_frac": ("ratio", "lower", "computed", "names the property gap compression needs; all workloads"),
    "spinwave.solve_s": ("s", "lower", "timing", "wall_s on solve-3d"),
    "spinwave.solves": ("count", "higher", "count", "wall_s on solve-3d"),
    "spinwave.roots": ("count", "higher", "count", "wall_s on solve-3d"),
    "spinwave.solve_alloc_peak_mb": ("MB", "lower", "alloc", "peak_rss_mb on solve-3d"),
    "spinwave.occupation_s": ("s", "lower", "timing", "nothing, on oracle-ladder"),
    "sectors.decomposition_s": ("s", "lower", "timing", "nothing measurable on oracle-ladder; kept so a regression shows"),
    "oracle.build_s": ("s", "lower", "timing", "wall_s and peak_rss_mb on oracle-ladder"),
    "oracle.builds": ("count", "higher", "count", "wall_s and peak_rss_mb on oracle-ladder"),
    "oracle.blocks": ("count", "lower", "count", "wall_s and peak_rss_mb on oracle-ladder"),
    "oracle.max_block_dim": ("count", "lower", "count", "wall_s and peak_rss_mb on oracle-ladder"),
    "oracle.eigh_flops": ("count", "lower", "computed", "wall_s and peak_rss_mb on oracle-ladder"),
    "oracle.rotated_mb": ("MB", "lower", "computed", "wall_s and peak_rss_mb on oracle-ladder"),
    "oracle.build_alloc_peak_mb": ("MB", "lower", "alloc", "wall_s and peak_rss_mb on oracle-ladder"),
    "oracle.convergence_s": ("s", "lower", "timing", "wall_s on oracle-ladder"),
    "oracle.sigma3_s": ("s", "lower", "timing", "wall_s on oracle-ladder"),
    "oracle.two_point_s": ("s", "lower", "timing", "wall_s on oracle-ladder"),
    "oracle.wick_s": ("s", "lower", "timing", "wall_s on oracle-ladder"),
    "oracle.energy_entropy_s": ("s", "lower", "timing", "wall_s on oracle-ladder"),
    "oracle.commutator_s": ("s", "lower", "timing", "wall_s on oracle-ladder"),
    "dynamics.evolve_s": ("s", "lower", "timing", "wall_s on dynamics-packet"),
    "dynamics.to_mode_s": ("s", "lower", "timing", "wall_s on dynamics-packet"),
    "dynamics.to_site_s": ("s", "lower", "timing", "wall_s on dynamics-packet"),
    "dynamics.basis_changes": ("count", "lower", "count", "wall_s on dynamics-packet"),
    "dynamics.spectrum_s": ("s", "lower", "timing", "wall_s on dynamics-packet"),
    "dynamics.spectrum_calls": ("count", "lower", "count", "wall_s on dynamics-packet"),
    "dynamics.energy_s": ("s", "lower", "timing", "wall_s on dynamics-packet"),
    "dynamics.density_s": ("s", "lower", "timing", "wall_s on dynamics-packet"),
    "dynamics.samples": ("count", "higher", "count", "wall_s on dynamics-packet"),
    "dynamics.packet_s": ("s", "lower", "timing", "wall_s on dynamics-packet"),
    "artifacts.write_json_s": ("s", "lower", "timing", "wall_s on dynamics-packet, then solve-3d"),
    "artifacts.write_csv_s": ("s", "lower", "timing", "wall_s on dynamics-packet, then solve-3d"),
    "artifacts.bytes": ("count", "lower", "count", "wall_s on dynamics-packet, then solve-3d"),
    "cli.main_s": ("s", "lower", "timing", "wall_s on " + _ALL),
    "cli.config_s": ("s", "lower", "timing", "wall_s on " + _ALL),
    "cli.self_s": ("s", "lower", "timing", "wall_s on " + _ALL + " (cli.main minus its child spans)"),
    "trace.wall_s": ("s", "lower", "trace", "traced wall_s of one pass"),
    "trace.overhead_s": ("s", "lower", "trace", "traced minus untraced wall_s, same process"),
    "trace.coverage": ("ratio", "higher", "trace", "share of traced wall_s inside named spans"),
}
# The span whose tracemalloc peak each "alloc" metric reports.
ALLOC_SPANS = {"spinwave.solve_alloc_peak_mb": "spinwave.solve", "oracle.build_alloc_peak_mb": "oracle.build"}


def load_package():
    """Import magnonkit from this checkout's src/, or exit 2 without a result."""
    if not (SRC / "magnonkit" / "__init__.py").is_file():
        print(f"error: no magnonkit sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import magnonkit
    import magnonkit.cli

    if Path(magnonkit.__file__).resolve().parent != SRC / "magnonkit":
        print(f"error: imported magnonkit from {magnonkit.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return magnonkit


def stats(values) -> dict:
    values = list(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def metadata(args, mk) -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except Exception:  # older numpy has no dict form; the name stays unknown
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, env=env, timeout=10,
            )
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "magnonkit": mk.__version__,
        "commit": commit,
    }


def probe_setup(args, ops: Ops) -> tuple[list[float], list[float], dict]:
    """Wall time and peak RSS of fresh processes that import, generate inputs
    and run one untimed pass, as a CLI user's process would.

    Probe i runs pass -(i + 1); probe 0 thus repeats the inputs of the
    measuring process's warm-up, and the artifact hashes it prints are the
    reference for the byte-reproducibility check.
    """
    times, peaks, reference = [], [], {}
    for i in range(SETUP_PROBES[args.trace]):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-probe", str(i)]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        times.append(time.perf_counter() - start)
        peaks.append(usage.ru_maxrss * 1024 / MB)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = proc.stdout.read()
        proc.stdout.close()
        ops.record(proc.returncode == 0, f"set-up probe {i}: exit {proc.returncode}")
        if i == 0 and proc.returncode == 0:
            reference = json.loads(out)
    return times, peaks, reference


def measure(args, mk, inputs: Path, workdir: Path):
    ops = Ops()
    setup_times, peaks, reference = probe_setup(args, ops)
    workload = WORKLOADS[args.workload](mk, args.seed, inputs)
    recorder = Recorder()
    instruments = Instruments(mk, recorder)

    # Warm-up; traced runs take the tracemalloc peaks here, away from the timed spans.
    warmup = workload.job(-1, workdir / "warmup")
    if args.trace:
        instruments.install()
        recorder.measure_alloc = True
    result = workload.run(warmup)
    if args.trace:
        recorder.measure_alloc = False
        instruments.uninstall()
    workload.check(warmup, result, ops)
    hashes = warmup.artifacts()
    ops.record(bool(hashes) and hashes == reference, "warm-up artifacts differ from set-up probe 0's")
    shutil.rmtree(warmup.dir)
    workload.finish(warmup, ops)

    walls, traced = [], {}
    start = time.perf_counter()
    index = 0
    while True:
        job = workload.job(index, workdir / f"pass{index}")
        tracing = bool(args.trace) and index % 2 == 0
        gc.collect()
        if tracing:
            instruments.install()
            recorder.begin_pass(index)
        t0 = time.perf_counter()
        result = workload.run(job)
        wall = time.perf_counter() - t0
        if tracing:
            recorder.end_pass()
            instruments.uninstall()
            traced[index] = wall
        else:
            walls.append(wall)
        workload.check(job, result, ops)
        shutil.rmtree(job.dir)
        index += 1
        if time.perf_counter() - start >= args.seconds and index >= MIN_PASSES[args.trace]:
            break

    if not args.trace:
        metrics = {"wall_s": stats(walls), "setup_s": stats(setup_times), "peak_rss_mb": stats(peaks)}
        return metrics, {}, ops, walls, []
    metrics, self_times = traced_metrics(workload, recorder, traced, walls)
    return metrics, self_times, ops, walls, recorder.spans


def traced_metrics(workload, recorder: Recorder, traced: dict, walls: list) -> tuple[dict, dict]:
    """Per-layer metrics, and the median self time of every span name."""
    inclusive, self_times, coverage = {}, {}, []
    names = {span[0] for span in recorder.spans}
    for index, wall in traced.items():
        incl, self_time, top = pass_times(recorder.spans, index)
        for name in names:
            inclusive.setdefault(name, []).append(incl.get(name, 0.0))
            self_times.setdefault(name, []).append(self_time.get(name, 0.0))
        coverage.append(top / wall)
    first = recorder.counts[min(traced)]
    metrics = {}
    for name, (unit, better, kind, target) in PER_LAYER.items():
        if kind == "timing":
            span = name[: -len("_s")]
            samples = self_times.get("cli.main") if span == "cli.self" else inclusive.get(span)
            metrics[name] = stats(samples or [0.0] * len(traced))
        elif kind == "count":
            metrics[name] = stats([first.get(name, 0)])
        elif kind == "computed":
            metrics[name] = stats([workload.computed.get(name, first.get(name, 0))])
        elif kind == "alloc":
            metrics[name] = stats([recorder.alloc_peaks_mb.get(ALLOC_SPANS[name], 0.0)])
    traced_wall = stats(traced.values())
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = stats([traced_wall["median"] - statistics.median(walls)])
    metrics["trace.coverage"] = stats(coverage)
    return metrics, {name: statistics.median(v) for name, v in sorted(self_times.items())}


def report(args, meta, metrics, self_times, ops, walls, spans, start) -> dict:
    spec = PER_LAYER if args.trace else END_TO_END
    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for name, s in metrics.items():
        unit = spec[name][0]
        kind = spec[name][2] if args.trace else "measured"
        spread = f" q1={s['q1']:.6g} q3={s['q3']:.6g}" if s["n"] > 1 else ""
        target = f"  -> {spec[name][3]}" if args.trace else ""
        print(f"  {name:<30} {s['median']:>14.6g} {unit:<5} n={s['n']}{spread} [{kind}]{target}")
    frac = ops.failed / ops.attempted
    print(f"  {'fail_frac':<30} {frac:>14.6g} ratio n={ops.attempted} "
          f"({ops.failed} failed of {ops.attempted} operations)")
    for error in ops.errors:
        print(f"  FAILED: {error}", file=sys.stderr)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    doc = {
        "meta": meta,
        "untraced_pass_walls": walls,
        "metrics": {n: s | {"unit": spec[n][0]} for n, s in metrics.items()},
        "self_s": self_times,
        "fail_frac": {"failed": ops.failed, "attempted": ops.attempted, "errors": ops.errors},
        "spans": [
            {"name": n, "start": t0 - start, "end": t1 - start, "parent": p, "pass": i}
            for n, t0, t1, p, i in spans
        ],
    }
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {n: {"value": s["median"], "unit": spec[n][0]} for n, s in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    mk = load_package()
    inputs = OUT / "work" / f"{args.workload}-seed{args.seed}"
    workdir = inputs / f"pid{os.getpid()}"
    try:
        if args.setup_probe is not None:
            workload = WORKLOADS[args.workload](mk, args.seed, inputs)
            job = workload.job(-1 - args.setup_probe, workdir / "warmup")
            workload.run(job)
            print(json.dumps(job.artifacts()))
            return 0
        start = time.perf_counter()
        metrics, self_times, ops, walls, spans = measure(args, mk, inputs, workdir)
        line = report(args, metadata(args, mk), metrics, self_times, ops, walls, spans, start)
    finally:
        shutil.rmtree(inputs if args.setup_probe is None else workdir, ignore_errors=True)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
