"""aggdiff benchmark: time to a verified result on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``; rationale in ``BENCHMARK.json``):
``dichotomy-256``, ``critical-4096`` and ``ratio-search``. Only
``ratio-search`` draws from the seed; the other two record it.

Untraced run (``--trace 0``), end-to-end metrics:

- ``setup_s``: median over several set-ups of importing aggdiff and building
  the workload's main-grid kernel (import only for ``dichotomy-256``, whose
  CLI builds its own kernel). All but the last sample run in fresh
  interpreters, because an import can only be timed once per process.
- ``solve_s``: median wall time of one main phase including its output
  checks; the main phase repeats until ``--seconds`` have passed (at least
  once).
- ``peak_rss_mib``: ``ru_maxrss`` of this process.
- ``passed_share``: output checks passed / attempted. The JSON's
  ``attempted``/``failed`` are the same counts, so failed share is
  ``failed / attempted``.

Traced run (``--trace 1``): set-up and one main phase with spans, one main
phase without (for the tracing overhead), then the layer sweep; the metrics
are those of ``layers.py``. Spans, the environment record and the CLI's
outputs go to ``.perfbench_out/<workload>/`` in the checkout.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. The metric names and units are checked against ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import setup_probe  # noqa: E402 - imports nothing heavy

ROOT = setup_probe.ROOT


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("dichotomy-256", "critical-4096", "ratio-search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def _declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _setup_sample_in_child(n_cells: int, r_max: float) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(n_cells), repr(r_max)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "seed": seed,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": None,
        "l3_cache": None,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "git_sha": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name")), None)
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                env["l3_cache"] = (index / "size").read_text().strip()
        except OSError:
            pass
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        env["git_sha"] = proc.stdout.strip() or None
    return env


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def main(argv=None) -> int:
    args = _parse_args(argv)
    setup_probe.pin_blas_threads()
    import workloads  # imports no numpy, so the aggdiff import below is timed whole

    workload = workloads.WORKLOADS[args.workload]
    try:
        # child set-up samples first, so that no two kernels are alive at once
        samples = [] if args.trace else [
            _setup_sample_in_child(workload.n_cells if workload.kernel_in_setup else 0,
                                   workload.r_max)
            for _ in range(workload.setup_samples - 1)]
        ad, import_s = _timed(setup_probe.import_aggdiff)
    except (ImportError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or ""
        print(f"error: set-up failed: {exc}\n{detail}", file=sys.stderr)
        return 2

    import layers
    from tracing import Tracer

    outdir = ROOT / ".perfbench_out" / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    env = _environment(args.seed)
    (outdir / "env.json").write_text(json.dumps(env, indent=2) + "\n")
    print("env " + json.dumps(env))

    tracer = Tracer()
    if args.trace:
        tracer.install(layers.targets(ad))
    ws, build_s = _timed(setup_probe.build_workspace, ad, workload.n_cells,
                         workload.r_max, workload.kernel_in_setup)
    samples.append(import_s + build_s)
    tracer.remove()

    checks = workloads.Checks()
    if args.trace:
        _, untraced_s = _timed(workload.main, ws, args.seed, 0, outdir, checks)
        tracer.install(layers.targets(ad))
        try:
            _, traced_s = _timed(workload.main, ws, args.seed, 0, outdir, checks)
        finally:
            tracer.remove()
        tracer.write(outdir / "spans.csv")
        metrics = layers.span_metrics(tracer, ws["grid"])
        metrics["trace.solve_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
        params, consts = ws["params"], ws["consts"]
        ws = None  # drop the main kernel before the sweep builds its own
        metrics.update(layers.layer_sweep(ad, params, consts))
    else:
        durations = []
        deadline = time.perf_counter() + args.seconds
        rep = 0
        while rep == 0 or time.perf_counter() < deadline:
            _, elapsed = _timed(workload.main, ws, args.seed, rep, outdir, checks)
            durations.append(elapsed)
            rep += 1
        attempted = len(checks.gated)
        metrics = {
            "setup_s": (statistics.median(samples), "s"),
            "solve_s": (statistics.median(durations), "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "passed_share": ((attempted - checks.failed) / attempted, "ratio"),
        }
        print(f"setup samples (s): {samples}")
        print(f"main-phase repetitions (s): {durations}")

    for name, passed, value in checks.gated:
        print(f"check {name}: {'PASS' if passed else 'FAIL'} ({value})")
    for name, value in checks.notes:
        print(f"value {name}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")

    declared = _declared_metrics(bool(args.trace))
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        print(f"error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(produced.items()) ^ set(declared.items()))}", file=sys.stderr)
        return 3
    result = {
        "correct": checks.failed == 0,
        "attempted": len(checks.gated),
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
