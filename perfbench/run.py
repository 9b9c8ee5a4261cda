"""cbrap benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload dense-n2000 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory and from nowhere else.  With ``--trace 0`` the last line
of standard output holds the end-to-end metrics, with ``--trace 1`` the
per-layer split of a traced run.  The line before it holds the machine
context and workload figures that are reported but not gated.  Spans of a
traced run are written under ``.perfbench/traces``.  See README.md.
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
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5
# One caller waits for each call, so one BLAS thread; more would only add
# contention noise on a small shared machine.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("dense-n2000", "sparse-n4000", "theory-validation")

END_TO_END_UNITS = {
    "setup_s": "s",
    "cycle_wall_s": "s",
    "cbrap_rounds_per_s": "rounds/s",
    "uniform_rounds_per_s": "rounds/s",
    "regret_ratio": "1",
    "peak_rss_mb": "MiB",
    "ok_frac": "1",
}


def load_average() -> float | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def machine_context() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def setup_seconds(workload: str, seed: int, tiny: bool) -> tuple[float, float]:
    """Median wall time of fresh processes that start the interpreter, import
    cbrap and build the workload's first environment and projection: scaled
    to the reference machine speed, and raw."""
    from calibration import calibrate, scale
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")),
           workload, str(seed)] + (["--tiny"] if tiny else [])
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        before = calibrate()
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=60, cwd=ROOT)
        raw.append(time.perf_counter() - t0)
        scaled.append(scale(raw[-1], (before + calibrate()) / 2))
    return statistics.median(scaled), statistics.median(raw)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny problem sizes, for the benchmark's self-test")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cbrap" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'cbrap'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import cbrap
    if Path(cbrap.__file__).resolve().parent != SRC / "cbrap":
        print(f"perfbench: imported cbrap from {cbrap.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    load_start = load_average()
    w = workloads.WORKLOADS[args.workload]
    sizes = w.sizes(args.tiny)
    setup_s, raw_setup_s = (None, None) if args.trace \
        else setup_seconds(w.name, args.seed, args.tiny)
    workloads.build_first(w, sizes, args.seed)  # the same set-up, untimed, in-process
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    try:
        if args.trace:
            metrics, ops, info = traced_run(w, sizes, args, tmp, tracing, workloads)
        else:
            ops = workloads.run_cycles(w, sizes, args.seed, tmp, args.seconds)
            metrics = {"setup_s": setup_s, **workloads.end_to_end(w, sizes, ops)}
            info = {"raw_setup_s": raw_setup_s, **workloads.details(w, sizes, ops)}
        checked = workloads.check(w, sizes, ops, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = len(checked.failures)
    for failure in checked.failures:
        print(f"perfbench: FAILED: {failure}", file=sys.stderr)
    if not args.trace:
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["ok_frac"] = (checked.attempted - failed) / checked.attempted
    info["failed_frac"] = failed / checked.attempted
    info["reference_mismatches"] = checked.reference_mismatches
    context = machine_context()
    context.update(loadavg_1m_start=load_start, loadavg_1m_end=load_average())
    print(json.dumps({"context": context, "workload": w.name, "detail": info}))
    units = tracing.per_layer_units() if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checked.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def traced_run(w, sizes, args, tmp, tracing, workloads):
    """Each core cycle once untraced and once traced, so that both see the
    same machine; per-layer metrics of the traced ops."""
    tracer = tracing.Tracer()
    untraced, ops = [], []

    def before_op(index: int) -> None:
        tracer.run_id = index
    for cycle in range(sizes.core_cycles):
        # alternate which pass goes first, so that neither gains from the other
        for traced in sorted((False, True), reverse=cycle % 2 == 1):
            if not traced:
                workloads.run_cycle(w, sizes, cycle, args.seed, os.path.join(tmp, "u"),
                                    untraced)
                continue
            tracer.install()
            try:
                workloads.run_cycle(w, sizes, cycle, args.seed, os.path.join(tmp, "t"),
                                    ops, before_op)
            finally:
                tracer.uninstall()
    traces = OUT / "traces"
    traces.mkdir(exist_ok=True)
    tracer.write(str(traces / f"{w.name}-seed{args.seed}.csv.gz"))
    traced_s = sum(op.seconds for op in ops)
    metrics = tracer.per_layer(traced_s)
    untraced_scaled = sum(map(workloads.scaled_seconds, untraced))
    metrics["trace.overhead_frac"] = (sum(map(workloads.scaled_seconds, ops))
                                      - untraced_scaled) / untraced_scaled
    for target in tracer.unmeasured:
        print(f"perfbench: unmeasured (no longer in the package): {target}",
              file=sys.stderr)
    info = {"unmeasured": tracer.unmeasured, "traced_core_s": traced_s,
            "untraced_core_s": sum(op.seconds for op in untraced),
            **workloads.details(w, sizes, untraced)}
    return metrics, untraced + ops, info


if __name__ == "__main__":
    sys.exit(main())
