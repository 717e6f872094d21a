"""One round of a workload in a fresh process; prints one JSON line.

Usage (from ``run.py``)::

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

The process imports pstsim from ``src/`` of the checkout it sits in,
builds the workload's fixtures, notes the moment it is ready, then runs
every job of one round between speed probes (taken in a separate
probe process, ``probe.py``), checks each job's output, and prints its
timings, failures and (with ``--trace``) per-layer metrics as the last
line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def import_pstsim():
    """pstsim from this checkout's src/, never from an installed copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import pstsim
    import pstsim.cli  # noqa: F401  (the package does not import its CLI)

    if not os.path.abspath(pstsim.__file__).startswith(src + os.sep):
        raise ImportError(f"pstsim imported from {pstsim.__file__}, not {src}")
    return pstsim


def environment() -> dict:
    """What the timings depend on, recorded with every result."""
    import numpy as np
    import scipy

    def blas(mod):
        try:
            return mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_openblas": blas(np),
            "scipy_openblas": blas(scipy),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "pinned_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "machine": platform.machine()}


def dir_usage(path: str):
    files = nbytes = 0
    for base, _, names in os.walk(path):
        for name in names:
            files += 1
            nbytes += os.path.getsize(os.path.join(base, name))
    return files, nbytes


def setup(workload: str):
    """Import the program and build the round's fixtures; note when ready."""
    pstsim = import_pstsim()
    import workloads

    fx = workloads.fixtures(workload, os.path.join(OUT, f"tmp-{os.getpid()}"))
    return pstsim, fx, time.monotonic()


def run_round(workload: str, seed: int, traced: bool, spans_path: str | None) -> dict:
    pstsim, fx, ready = setup(workload)
    import workloads

    from probe import Probe

    prober = None
    try:
        refs = workloads.load_refs()
        jobs = workloads.round_jobs(workload, fx, seed, refs)
        prober = Probe()
        tracer = None
        if traced:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install(pstsim)
        span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
        results, files, nbytes, converged = [], 0, 0, []
        try:
            start = time.perf_counter()
            for i, job in enumerate(jobs):
                if tracer:
                    tracer.job = i
                with span("harness.probe"):
                    probe = prober.measure()
                first_dir, out = fx["out"].count + 1, None
                with span("harness.job"):
                    t0 = time.perf_counter()
                    try:
                        raw, error = job.run(), None
                    except Exception as exc:   # a failed job is reported, not fatal
                        raw, error = None, f"{type(exc).__name__}: {exc}"
                    seconds = time.perf_counter() - t0
                with span("harness.check"):
                    if error is None:
                        try:
                            out = job.parse(raw)
                            problems = job.verify(out)
                        except Exception as exc:
                            problems = [f"check raised {type(exc).__name__}: {exc}"]
                    else:
                        problems = [error]
                    if job.kind == "calibrate" and out is not None:
                        converged.append(out["best_objective"] < 0.02)
                    for k in range(first_dir, fx["out"].count + 1):
                        f, b = dir_usage(os.path.join(fx["out"].root, f"job{k:04d}"))
                        files, nbytes = files + f, nbytes + b
                results.append({"kind": job.kind, "label": job.label,
                                "seconds": seconds, "probe_s": probe,
                                "problems": problems})
            with span("harness.probe"):
                probe_end = prober.measure()
            elapsed = time.perf_counter() - start
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        if prober:
            prober.close()
        fx["out"].close()
    result = {"ready": ready, "elapsed_s": elapsed, "jobs": results,
              "probe_end_s": probe_end,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "traced": traced, "env": environment()}
    if tracer:
        from metrics import layer_metrics
        from tracing import summarize, write_spans

        result["layers"] = layer_metrics(summarize(tracer), elapsed, files, nbytes,
                                         converged)
        if spans_path:
            os.makedirs(os.path.dirname(spans_path), exist_ok=True)
            write_spans(tracer, spans_path)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="CSV file for the spans")
    args = parser.parse_args(argv)
    if args.setup_only:
        _, fx, ready = setup(args.workload)
        fx["out"].close()
        print(json.dumps({"ready": ready}))
        return 0
    result = run_round(args.workload, args.seed, args.trace, args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
