"""sinecast benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload attn-train --seed 0 --seconds 30 --trace 0

Run from the repository root (or any checkout of it); the package is
imported from ``src/`` next to this directory and nowhere else. The workload
runs in this single process with one client: set-up, then the workload's
unit of work in a closed loop until ``--seconds`` have passed (at least
once). ``setup_s`` is the median import time of numpy and sinecast in
fresh interpreters, one started after each unit (at least five), plus a
median set-up: of three checkpoint writes on ``infer``, and of each training
unit's stretch before its first optimizer step, which ``run_experiment``
spends building segments, windows and models.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs traced
units for ``--seconds``, then one untraced unit as the reference for the
tracing overhead, then, on training workloads, one more unit that measures
the first step of every cell with tracemalloc, and reports the per-layer
metrics. The output gate then checks every result. Artifacts, spans and the
full result go to ``.bench_out/<size>-<workload>-trace<n>/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every check passed.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("attn-train", "shallow-train", "infer")
# Import is part of set-up but happens once per process, so it is timed in
# fresh interpreters, one after each unit of the timed loop (topped up to this
# many after it), and the median taken. Spread over the run, the probes meet
# both the fast and the slow spells of a shared host; five in a row met one.
IMPORT_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy, sinecast.experiment; "
                "print(time.perf_counter() - t)")
# Set before numpy is imported. One BLAS thread: the loop is single-client,
# and on a small shared machine a second BLAS thread made step times both
# slower and more variable. No huge-page advice from numpy: whether the kernel
# grants huge pages depends on the state of the machine's memory, and with the
# advice on, identical runs of attn-train peaked 25 MB apart.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "NUMPY_MADVISE_HUGEPAGE": "0"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs for the benchmark's own tests")
    return p.parse_args(argv)


def environment() -> dict:
    """What produced the numbers: interpreter, numpy, BLAS, threads and CPU."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "pinned_env": {v: os.environ.get(v) for v in PINNED_ENV},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "loadavg_start": list(os.getloadavg()),
    }


def import_seconds(src: Path) -> float:
    """Seconds to import numpy and sinecast in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    return float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                                text=True, check=True, timeout=120).stdout)


def run_units(wl, seconds: float, clock, tracer=None, after_unit=None) -> tuple[list[float], list]:
    """Repeat the workload's unit until `seconds` have passed, at least once;
    `after_unit` runs, untimed, after each unit."""
    walls, outputs = [], []
    started = time.perf_counter()
    while not walls or time.perf_counter() - started < seconds:
        if tracer is not None:
            tracer.unit, tracer.enabled = f"unit{len(walls)}", True
        t0 = time.perf_counter()
        clock.unit_starts.append(t0)
        outputs.append(wl.run_unit())
        walls.append(time.perf_counter() - t0)
        clock.unit_rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer is not None:
            tracer.enabled = False
        if after_unit is not None:
            after_unit()
    return walls, outputs


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "sinecast" / "__init__.py").is_file():
        print(f"perfbench: no sinecast package under {src}", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(src))
    import sinecast
    if Path(sinecast.__file__).resolve().parent != (src / "sinecast").resolve():
        print(f"perfbench: imported sinecast from {sinecast.__file__}, not {src}", file=sys.stderr)
        return 2
    import checks
    import metrics
    import probes
    import workloads

    env = environment()
    out = root / ".bench_out" / f"{args.size}-{args.workload}-trace{args.trace}"
    wl = workloads.make(args.workload, args.size, args.seed, out)
    tracer = probe = None
    if args.trace:
        tracer, probe = probes.Tracer(), probes.StepProbe()
        tracer.install()
        probe.install()
    clock = probes.Clock()
    clock.install()

    setup_times = []
    for r in range(wl.setup_repeats):
        if tracer is not None:
            tracer.unit, tracer.enabled = f"setup{r}", True
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.enabled = False

    if not args.trace:
        import_times = []
        walls, outputs = run_units(wl, args.seconds, clock,
                                   after_unit=lambda: import_times.append(import_seconds(src)))
        import_times += [import_seconds(src) for _ in range(IMPORT_REPEATS - len(import_times))]
        values = metrics.end_to_end(import_times, setup_times, walls, clock, wl.step)
        catalog = [(name, unit) for name, unit, _, _ in metrics.END_TO_END]
        samples = {key: getattr(clock, key) for key in ("unit_starts", "unit_rss_mb", "train_steps", "eval_batches", "eval_calls")}
        summary = {
            "step_samples": len(metrics.steps(clock, wl.step)[0]),
            "eval_calls": len(clock.eval_calls),
            "step_ms_p50_by_cell": metrics.step_p50_by_cell(clock, wl.step),
        }
    else:
        walls, traced = run_units(wl, args.seconds, clock, tracer)
        traced_clock = copy.copy(clock)
        clock.reset()
        # the untraced reference unit runs once the process is warm, after the traced ones
        ref_walls, outputs = run_units(wl, 0, clock)
        if wl.step == "train":
            clock.probe, probe.armed = probe, True
            outputs += run_units(wl, 0, clock)[1]
        table = metrics.SpanTable(tracer.spans, len(walls), wl.setup_repeats)
        overhead_s = statistics.median(walls) - ref_walls[0]
        values = metrics.per_layer(args.size, table, traced_clock, probe, wl, traced, overhead_s)
        catalog = metrics.per_layer_catalog(args.size)
        import_times, samples = [], {}
        summary = {"step_shares": metrics.step_shares(values)}
        outputs = traced + outputs

    check = checks.check_grid if wl.step == "train" else checks.check_scoring
    gate = check(wl, outputs, checks.reference_maes(args.workload, args.size, args.seed))
    env["loadavg_end"] = list(os.getloadavg())

    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in catalog},
    }
    details = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "seconds": args.seconds, "units": len(walls), "unit_walls_s": walls,
        "setup_runs_s": setup_times, "import_runs_s": import_times,
        "failed_ratio": gate.failed / gate.attempted, "failures": gate.failures,
        "mae": checks.unit_maes(outputs[0]),
        "environment": env,
        **summary,
        "samples": samples,
    }
    if args.trace:
        with open(out / "spans.jsonl", "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    (out / "result.json").write_text(json.dumps({**details, "result": result}, indent=2) + "\n", encoding="utf-8")

    for name, unit in catalog:
        print(f"{name:<44} {values[name]:>16.6f} {unit}")
    for key, value in {"units": len(walls), **summary}.items():
        print(f"{key}: {json.dumps(value)}")
    print(f"failed_ratio: {gate.failed}/{gate.attempted} = {details['failed_ratio']:.6f}")
    for failure in gate.failures:
        print(f"FAILED: {failure}")
    print(f"environment: {json.dumps(env)}")
    print(json.dumps(result))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
