"""weakdelay benchmark: one workload per run, untraced or traced.

    python3 wdbench/run.py --workload analyse --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  One caller runs operations in a closed loop on one
thread (BLAS pinned to one thread).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics and writes the spans
to ``.wdbench/``.  The last line of standard output is the result as JSON.
See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

# Before NumPy is first imported, here and in every set-up child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".wdbench"

#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 120


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["analyse", "montecarlo", "profile"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-child", metavar="DIR",
                   help="prepare the workload in DIR and report the time (internal)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


class Tally:
    """Attempted and failed operations and per-record latencies of a loop.

    ``busy_s`` is raw wall time; ``scaled_s`` and ``latency_ms`` are scaled
    to nominal machine speed by the calibration kernel around each
    operation.
    """

    def __init__(self):
        self.attempted = self.failed = 0
        self.records = 0
        self.busy_s = self.scaled_s = 0.0
        self.latency_ms: list[float] = []
        self.unexpected: list[str] = []
        self.known: set[str] = set()

    def add(self, wl, i, rnd, dt, scale, output, error):
        problems = [error] if error else wl.verdict(i, rnd, output)
        self.attempted += 1
        self.records += wl.records_per_op
        self.busy_s += dt
        self.scaled_s += dt * scale
        self.latency_ms.append(dt * scale * 1e3 / wl.records_per_op)
        if problems:
            self.failed += 1
            spec = wl.specs[i]
            line = f"{wl.name} op {i} ({getattr(spec, 'label', spec)}): {'; '.join(problems)}"
            (self.known.add if i in wl.known_faults else self.unexpected.append)(line)

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.unexpected += other.unexpected
        self.known |= other.known


def run_rounds(wl, budget_s, rnd, span, tally, calib):
    """Whole rounds until the operations have taken budget_s; next round index."""
    before = calib.seconds()
    while True:
        for i in wl.op_ids():
            with span("op"):
                t0 = time.perf_counter()
                try:
                    output, error = wl.run_op(i, rnd), None
                except Exception as exc:  # a raising operation is a failed one
                    output, error = None, f"{type(exc).__name__}: {exc}"
                dt = time.perf_counter() - t0
            after = calib.seconds()
            tally.add(wl, i, rnd, dt, calib.scale(before, after), output, error)
            before = after
        rnd += 1
        if tally.busy_s >= budget_s:
            return rnd


def time_setups(args, calib):
    """Scaled wall times and import times of fresh interpreters preparing the workload."""
    walls, imports = [], []
    for k in range(SETUP_REPEATS):
        workdir = OUT / f"setup-{os.getpid()}-{k}"
        workdir.mkdir(parents=True)
        try:
            before = calib.seconds()
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                 "--seed", str(args.seed), "--setup-child", str(workdir)],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
            wall = time.perf_counter() - t0
            walls.append(wall * calib.scale(before, calib.seconds()))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
    return walls, imports


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "weakdelay" / "__init__.py").is_file():
        print(f"error: no weakdelay package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import weakdelay  # noqa: F401  (timed: the package import)
    import_s = time.perf_counter() - t0
    warnings.simplefilter("ignore")  # regime warnings of the estimators

    import numpy as np
    from calibration import Calibration
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, null_span, probe

    if args.setup_child:
        wl = WORKLOADS[args.workload](args.seed, Path(args.setup_child))
        t0 = time.perf_counter()
        wl.prepare()
        print(json.dumps({"import_s": import_s, "prepare_s": time.perf_counter() - t0}))
        return 0

    calib = Calibration()
    walls, imports = time_setups(args, calib)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        tally = Tally()
        if not args.trace:
            wl.prepare()
            wl.reference()
            run_rounds(wl, args.seconds, 0, null_span, tally, calib)
            p50, p90 = np.percentile(tally.latency_ms, [50, 90])
            samples = len(tally.latency_ms)
            metrics = {
                "setup_s": (statistics.median(walls), "s", f"median of {len(walls)} set-ups"),
                "records_per_s": (tally.records / tally.scaled_s, "1/s",
                                  f"{tally.records} records in {tally.scaled_s:.2f} s scaled, "
                                  f"{tally.busy_s:.2f} s raw"),
                "record_ms_p50": (float(p50), "ms", f"{samples} samples"),
                "record_ms_p90": (float(p90), "ms",
                                  f"{samples} samples, {int(samples * 0.1)} beyond"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "MB", "this process"),
            }
        else:
            tracer = Tracer()
            tracer.install()
            wl.span = tracer.span
            with tracer.span("setup"):
                wl.prepare()
            tracer.uninstall()
            wl.span = null_span
            wl.reference()
            rnd = run_rounds(wl, args.seconds / 2, 0, null_span, tally, calib)
            traced = Tally()
            tracer.install()
            wl.span = tracer.span
            with tracer.span("loop"):
                run_rounds(wl, args.seconds / 2, rnd, tracer.span, traced, calib)
            with tracer.span("probe"):
                probe(workdir, tracer.span)
            tracer.uninstall()
            overhead = ((traced.scaled_s / traced.records) / (tally.scaled_s / tally.records)
                        - 1.0) * 100.0
            tally.merge(traced)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json.gz"
            tracer.write(trace_path)
            print(f"# spans: {len(tracer.names)} written to {trace_path.relative_to(ROOT)}")
            metrics = layer_metrics(tracer, statistics.median(imports), overhead)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in sorted(tally.known):
        print(f"# known fault: {line}")
    for line in tally.unexpected:
        print(f"# FAILED: {line}", file=sys.stderr)
    for name, (value, unit, note) in metrics.items():
        print(f"# {name} = {value:.6g} {unit} ({note})")
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
