"""biopt benchmark: time to a certified solve, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see README.md) in this process with BLAS pinned to one
thread.  Set-up (imports, instance building, one warm-up op) is repeated
and its median reported.  The timed loop then runs whole passes over the
workload's panel for about S seconds, checks every op, and prints one line
per op, the environment, and every metric by name; the last line is the
JSON result.  --trace 1 records spans around biopt's layers and reports
per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

WORKLOAD_NAMES = ("superfast-logbar", "exact-quad", "composite-cli",
                  "reference-1d")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_REPEATS = 3
STARTUP_REPEATS = 5   # fresh-interpreter imports: short and noisy
MAX_LOOP_S = 150.0    # never start a pass that would end past this
# The reference machine (a 2-core VM shared with other tenants) runs the
# same code 25-50% slower in some minutes than in others.  Each time is
# therefore reported in calibrated seconds: wall time x CAL_REF_S / the
# median time of a fixed calibration kernel run between the ops of the
# same pass.  CAL_REF_S is the kernel's typical time on that machine, so
# calibrated seconds read as its wall seconds.  Raw wall times are
# printed too, as *.raw.
CAL_REF_S = 3.5e-3


def environment(np) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "click": metadata.version("click"),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}}


def startup_s(src: Path) -> list[float]:
    """Wall times of fresh interpreters importing biopt and click."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    times = []
    for _ in range(STARTUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import biopt.cli"], env=env,
                       check=True)
        times.append(time.perf_counter() - t0)
    return times


def calibration(np):
    """Returns a function that times one run of the calibration kernel: a
    fixed damped-Newton loop on small dense arrays plus dict work, the same
    mix of numpy calls and interpreter work as biopt's inner loops, and
    independent of biopt."""
    solve = np.linalg.solve   # bound now, so tracing never counts it
    rng = np.random.default_rng(0)
    G = rng.standard_normal((10, 10))
    A = G.T @ G / 10 + 1.5 * np.eye(10)
    c = rng.standard_normal(10)

    def kernel() -> float:
        t0 = time.perf_counter()
        x = np.zeros(10)
        for i in range(150):
            h = solve(A + (1e-3 * i) * np.eye(10), A @ x - c)
            x = np.clip(x - 0.5 * h, -5.0, 5.0)
            x[0] += 1e-12 * sum({j: j * 0.5 for j in range(20)}.values())
        return time.perf_counter() - t0
    kernel()
    return kernel


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench_dir = Path(__file__).resolve().parent
    src = bench_dir.parent / "src"
    if not (src / "biopt" / "__init__.py").is_file():
        print(f"perfbench: no biopt sources in {src}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:   # before numpy loads its BLAS
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import numpy as np
    import biopt
    import biopt.cli  # noqa: F401  (imports click)
    if not Path(biopt.__file__).resolve().is_relative_to(src):
        print(f"perfbench: biopt imported from {biopt.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    kernel = calibration(np)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=bench_dir) as work:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        ctx = workloads.Context(work)
        setup, warm, cal = [], [], [kernel()]
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.build()
            ops = wl.build_pass(0)
            t1 = time.perf_counter()
            wl.prepare(ops)               # reference optima: not set-up
            t2 = time.perf_counter()
            warm.append(ops[0](ctx))
            setup.append(time.perf_counter() - t2 + (t1 - t0))
            cal.append(kernel())
        starts = startup_s(src)
        cal.append(kernel())
        setup_f = CAL_REF_S / statistics.median(cal)
        setup_raw = statistics.median(starts) + statistics.median(setup)

        tracer = Tracer() if args.trace else None
        ctx.tracer = tracer
        results, scale, passes = [], [], 0
        loop_start = time.perf_counter()
        if tracer:
            tracer.install()
        try:
            while True:
                if passes:
                    if tracer:   # input generation is not an op
                        tracer.op_id = -1
                    ops = wl.build_pass(passes)
                    wl.prepare(ops)
                cal = [kernel()]
                for op in ops:
                    if tracer:
                        tracer.op_id = len(results)
                    results.append(op(ctx))
                    cal.append(kernel())
                scale += [CAL_REF_S / statistics.median(cal)] * len(ops)
                passes += 1
                elapsed = time.perf_counter() - loop_start
                per_pass = elapsed / passes
                if elapsed + per_pass / 2 >= args.seconds or \
                        elapsed + per_pass > MAX_LOOP_S:
                    break
            if tracer:
                tracer.op_id = -1
            probe = wl.probe(ctx)
        finally:
            if tracer:
                tracer.restore()

    # -- report --------------------------------------------------------------
    problems = []
    if len({r.fingerprint for r in warm}) != 1 or \
            any(r.error for r in warm):
        problems.append("warm-up op not deterministic across set-ups: "
                        + " | ".join(r.error or r.fingerprint for r in warm))
    for i, r in enumerate(results):
        mark = "ok" if r.error is None else f"FAIL {r.error}"
        print(f"op {i} {r.label} solve_s.raw={r.solve_s:.6f} "
              f"verify_s.raw={r.verify_s:.6f} cal={scale[i]:.4f} "
              f"{r.fingerprint} {mark}")
    for label, outcome in probe:
        print(f"known-failure probe {label}: {outcome}")
    n_pass0 = len(results) // passes
    fp = hashlib.sha256("\n".join(
        r.fingerprint for r in results[:n_pass0]).encode()).hexdigest()
    print(f"fingerprint pass0 {fp}")
    print("env " + json.dumps(environment(np), sort_keys=True))

    ok = [r.error is None for r in results]
    failed = ok.count(False)
    sample = [i for i in range(len(results)) if ok[i]] or range(len(results))
    gaps = [r.cert_gap for r, good in zip(results, ok)
            if good and r.cert_gap is not None]

    def timings(f, setup_f):
        busy = sum((r.solve_s + r.verify_s) * f[i] for i, r in enumerate(results))
        return {
            "setup_s": (setup_raw * setup_f, "s"),
            "solve_s.p50": (statistics.median(results[i].solve_s * f[i]
                                              for i in sample), "s"),
            "solves_per_s": ((len(results) - failed) / busy, "1/s"),
            "verify_s.p50": (statistics.median(results[i].verify_s * f[i]
                                               for i in sample), "s"),
        }
    e2e = {**timings(scale, setup_f),
           "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024.0, "MB")}
    extra = {
        **{f"{k}.raw": v for k, v in timings([1.0] * len(results), 1.0).items()},
        "machine_speed": (statistics.median(scale), "ratio"),
        "samples": (len(results), "count"),
        "passes": (passes, "count"),
        "fail_ratio": (failed / len(results), "ratio"),
        "cert_gap.p50": (statistics.median(gaps) if gaps else None, "F"),
        "solve_s.max": (max(r.solve_s for r in results), "s"),
    }
    if tracer:
        layers = tracer.layer_metrics(len(results), np.array(scale))
        counted = tracer.lower_counts()
        for i, r in enumerate(results):
            if ok[i] and counted.get(i, (0, 0)) != (r.lower_iters, r.bisections):
                problems.append(
                    f"op {i}: counted (acceptance iters, bisections) "
                    f"{counted.get(i, (0, 0))} != trace sums "
                    f"{(r.lower_iters, r.bisections)}")
        layers["driver.trace_bytes"] = sum(r.trace_bytes for r in results) \
            / len(results)
        layers["bench.traced_solves_per_s"] = e2e["solves_per_s"][0]
        out_dir = bench_dir / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"spans-{args.workload}-seed{args.seed}.npz"))
        units = {"per_s": "1/s", "_s": "s", "ratio": "ratio",
                 "_bytes": "bytes"}
        metrics = {}
        for name, value in layers.items():
            unit = next((u for suffix, u in units.items()
                         if name.endswith(suffix)), "count")
            metrics[name] = (value, unit)
    else:
        metrics = e2e

    for name, (value, unit) in {**extra, **metrics}.items():
        print(f"metric {name} {value} {unit}")
    for p in problems:
        print(f"CHECK FAILED {p}")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
