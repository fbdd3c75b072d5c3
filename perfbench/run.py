"""physedit benchmark: one seeded workload per call, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out-dir DIR]

Runs from the root of a source checkout and imports physedit from its
``src/``.  The workload's inputs are generated from the seed (set-up),
then the timed operation is repeated for about S seconds, with a fresh
set-up before each repetition (at least SETUP_REPS in all), and every
repetition's outputs are checked.  End-to-end times are scaled to a
reference host speed by a probe timed around each operation
(hostspeed.py); the measured times are kept in the record.

--trace 0   end-to-end metrics of BENCHMARK.json's "end_to_end" list
--trace 1   per-layer metrics ("per_layer"): untraced and traced
            repetitions alternate, so trace.overhead_s compares the two

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A fuller record (provenance, every sample, failed checks) goes to
DIR/<workload>-seed<N>-trace<T>.json, and the traced run's spans to
DIR/<workload>-seed<N>-spans.json; DIR defaults to .bench_out.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPS = 9


def bootstrap():
    """Put the checkout's ``src`` on the path; cap BLAS threads at nproc.

    Returns False when the checkout holds no physedit sources.
    """
    if not (ROOT / "src" / "physedit" / "__init__.py").is_file():
        return False
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, nproc)
    sys.path.insert(0, str(ROOT / "src"))
    return True


def declared_metrics():
    """(end_to_end, per_layer) as {name: unit} from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class Gate:
    """Counts checked operations and failures; keeps the largest drift."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.failures = []
        self.max_drift = 0.0

    def check(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def drift(self, metres):
        self.max_drift = max(self.max_drift, metres)


def provenance(seed):
    def git(*argv):
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *argv],
                                  capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "seed": seed,
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
    }


def summary(values):
    """Median, quartiles and sample count of one metric's samples."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def measure(name, seed, seconds, traced, work, reference):
    """Set up, run and check one workload.

    ``reference`` is the workload's entry of reference.json, or None to
    skip the comparisons with it.  Returns (metrics, gate, record, spans).

    The untraced timed operation is split into the workload's units (the
    scenes of ``scenes``; the whole operation elsewhere), run in turn.  A
    fresh set-up precedes every run, so set-ups are spread over the whole
    measurement too.  Untraced, every set-up and run is timed with
    host-speed probes sampled during it and scaled by them (hostspeed.py):
    ``wall_s`` is the sum over units of the median scaled time, ``setup_s``
    the median scaled set-up time, and the measured times are kept in the
    record.  Traced runs sample nothing, so no probe lands in a span.
    """
    import numpy as np

    import hostspeed
    import tracing as tr
    import workloads

    workload = workloads.WORKLOADS[name]()
    gate = Gate()
    tracer = tr.Tracer()
    spans = tracer.spans
    scaled_timer = hostspeed.ScaledTimer()

    def timer(fn, *args):
        """(result, measured seconds, scaled seconds); traced: unscaled."""
        if not traced:
            return scaled_timer(fn, *args)
        t0 = time.perf_counter()
        result = fn(*args)
        measured = time.perf_counter() - t0
        return result, measured, measured

    setup_s, setup_measured, setup_layers = [], [], []

    def set_up():
        where = work / f"setup{len(setup_s)}"
        start = len(spans)
        if traced:
            def traced_setup():
                with tracer, tracer.span("bench.setup"):
                    return workload.setup(seed, where)
            inputs, measured, scaled = timer(traced_setup)
            setup_layers.append(tr.setup_metrics(spans[start:], start))
        else:
            inputs, measured, scaled = timer(workload.setup, seed, where)
        setup_s.append(scaled)
        setup_measured.append(measured)
        if len(setup_s) > 1:
            shutil.rmtree(work / f"setup{len(setup_s) - 2}")
        return inputs

    def traced_run(inputs, out):
        with tracer, tracer.span("bench.unit"):
            return workload.run(inputs, out)

    inputs = set_up()
    # untraced: one unit at a time; traced: whole operations, untraced and
    # traced in turn, so trace.overhead_s compares like with like
    units = [None] if traced else workload.units(inputs)
    walls = {unit: [] for unit in units}
    walls_measured = {unit: [] for unit in units}
    frames = dict.fromkeys(units, 0)
    traced_walls, rep_layers = [], []
    first_traced = len(spans)
    began, k = time.perf_counter(), 0
    while True:
        unit = units[k % len(units)]
        for with_trace in ((False, True) if traced else (False,)):
            if k:
                inputs = set_up()
            out = work / f"rep{k}"
            start = len(spans)
            if with_trace:
                result, _, scaled = timer(traced_run, inputs, out)
                rep_layers.append(tr.rep_metrics(spans[start:], start))
                traced_walls.append(scaled)
            else:
                result, measured, scaled = timer(workload.run, inputs, out, unit)
                walls[unit].append(scaled)
                walls_measured[unit].append(measured)
            workload.check(inputs, out, result, gate, reference)
            frames[unit] = workload.frames(inputs, out, unit)
            shutil.rmtree(out)
            k += 1
        elapsed = time.perf_counter() - began
        if all(walls.values()) and elapsed + elapsed / k > seconds:
            break
    while len(setup_s) < SETUP_REPS:
        set_up()

    wall = sum(statistics.median(v) for v in walls.values())
    record = {
        "wall_s": {str(u): summary(v) for u, v in walls.items()},
        "wall_measured_s": {str(u): v for u, v in walls_measured.items()},
        "setup_s": summary(setup_s), "setup_measured_s": setup_measured,
        "probes": {"reference_s": hostspeed.REFERENCE_S,
                   "interval_s": hostspeed.INTERVAL_S,
                   "per_call_count_and_mean_s": scaled_timer.probes},
        "frames_per_rep": sum(frames.values())}
    if not traced:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_s),
            "frames_per_s": sum(frames.values()) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
        return metrics, gate, record, None

    loop_spans = spans[first_traced:]
    dts = tr.step_dts(loop_spans)
    frame_ms = tr.frame_ms(loop_spans)
    metrics = {**tr.median_of(rep_layers), **tr.median_of(setup_layers)}
    metrics.update({
        "engine.dt_min_s": min(dts, default=0.0),
        "engine.dt_median_s": float(np.median(dts)) if dts else 0.0,
        "engine.drift_m": gate.max_drift,
        "raster.frames": len(frame_ms),
        "raster.frame_ms_p50": tr.percentile(frame_ms, 50),
        "raster.frame_ms_p90": tr.percentile(frame_ms, 90),
        "trace.overhead_s": statistics.median(traced_walls) - wall,
        "gate.failed_frac": gate.failed / gate.attempted,
    })
    record["traced_wall_s"] = summary(traced_walls)
    return metrics, gate, record, spans


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", type=Path, default=ROOT / ".bench_out")
    args = parser.parse_args(argv)

    if not bootstrap():
        print(f"perfbench: no physedit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"have {sorted(workloads.WORKLOADS)}")

    end_to_end, per_layer = declared_metrics()
    units = per_layer if args.trace else end_to_end
    reference = json.loads((BENCH_DIR / "reference.json").read_text())
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        metrics, gate, record, spans = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), work,
            reference[args.workload])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: computed metrics differ from "
                         f"BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    args.out_dir.mkdir(parents=True, exist_ok=True)
    record.update({
        "workload": args.workload, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(args.seed),
        "attempted": gate.attempted, "failed": gate.failed,
        "failed_frac": gate.failed / gate.attempted,
        "failures": gate.failures,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    })
    (args.out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (args.out_dir / f"{args.workload}-seed{args.seed}-spans.json"
         ).write_text(json.dumps([s.as_dict() for s in spans]))

    for what in gate.failures:
        print(f"FAILED: {what}")
    print(f"{args.workload}: {gate.attempted - gate.failed}/{gate.attempted} "
          f"checks passed (failed_frac {gate.failed / gate.attempted:g}), "
          f"{sum(v['n'] for v in record['wall_s'].values())} timed runs")
    for key in sorted(metrics):
        print(f"  {key} = {metrics[key]:.6g} {units[key]}")
    print(json.dumps({
        "correct": gate.failed == 0, "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
