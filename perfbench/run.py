"""pstsim benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload calibration --seed 1 --seconds 30 --trace 0

Workloads: ``calibration``, ``chain_transfer``, ``ghz_tomography`` (see
``workloads.py`` and ``NOTES.md``).  Each round of jobs runs in a fresh
worker process with the BLAS thread count pinned to one, and this
process and all it starts are pinned to one CPU.  Job and set-up times
are reported at a reference machine speed, measured by probes around
every job in a separate process (see ``NOTES.md``, "Noise"), so they
are times at that speed, not wall-clock times.  Rounds repeat
while at least half of the next one fits in ``--seconds``, at least two
of them.  With ``--trace 1`` every second round is traced and the
per-layer metrics of the traced rounds are reported; the untraced
rounds give the time that ``trace.overhead_s`` is measured against.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result,
with the recorded environment, is also written to
``perfbench/out/results/``; spans of traced rounds go to
``perfbench/out/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER, SLOT_KINDS  # noqa: E402
from probe import Probe  # noqa: E402
from workloads import KINDS  # noqa: E402

MIN_ROUNDS = 2
MIN_SETUPS = 7          # setup_s is the median of at least this many processes
DEADLINE_S = 150.0      # no round starts that would likely end after this
WORKER_TIMEOUT_S = 170.0
# Geometric mean of the probes around the jobs of the baseline runs
# (NOTES.md), so that at the baseline the reported times are close to the
# timed ones.
PROBE_REF_S = 4.6e-3

# How strongly each kind of work follows the probe: across runs taken in
# different machine states its time scales as probe**alpha.  Measured at
# the baseline with sensitivity.py; interpreter-bound work follows the
# probe (alpha near 1), a dense 1024x1024 expm much less (NOTES.md, "Noise").
SENSITIVITY = {
    "setup": 0.72,
    "device_scan": 0.85, "device_chain": 0.83, "chevron_fit": 1.13, "calibrate": 1.02,
    "full_space_traj": 0.48, "parity_table": 0.76, "krylov_traj": 0.65,
    "cli_small": 0.84,
    "ghz_tomo": 0.83, "ghz_n5": 0.94, "ghz_n4": 0.85, "ghz_small": 0.82,
}


# One BLAS thread: on a shared two-CPU machine a second BLAS thread makes
# every job's time depend on the other CPU's load (see NOTES.md).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker_env() -> dict:
    """The caller's environment with the BLAS thread count pinned."""
    env = dict(os.environ, **BLAS_ENV)
    env.pop("PYTHONPATH", None)
    return env


def pin_to_one_cpu() -> None:
    """Pin this process, and so every worker and probe process, to one CPU.

    The CPUs of a shared machine can run at different speeds at the same
    time, so a job must not migrate between them, and a probe must
    measure the CPU the job runs on (NOTES.md, "Noise").
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def spawn(args, env, timeout, prober):
    """Run one worker; return (spawn time, probe before it, parsed last line)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    probe = prober.measure()
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker {' '.join(args)} timed out after {timeout:.0f} s")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}: "
                           f"{stderr.strip()[-2000:]}")
    return t0, probe, json.loads(lines[-1])


def check_declaration() -> None:
    """BENCHMARK.json must declare exactly the metrics this harness reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = {k: [(m["name"], m["unit"], m["better"]) for m in bench[k]]
                for k in ("end_to_end", "per_layer")}
    if declared["end_to_end"] != END_TO_END or declared["per_layer"] != PER_LAYER:
        raise SystemExit("BENCHMARK.json metrics differ from perfbench/metrics.py")
    if [w["name"] for w in bench["workloads"]] != list(KINDS):
        raise SystemExit("BENCHMARK.json workloads differ from perfbench/workloads.py")


def median(values):
    return statistics.median(values) if values else float("nan")


def at_reference(seconds: float, kind: str, probe_before: float,
                 probe_after: float) -> float:
    """A time taken between two probes, at the reference speed.

    It is multiplied by (PROBE_REF_S / p) ** SENSITIVITY[kind], with p the
    mean of the probes just before and just after it.
    """
    p = 0.5 * (probe_before + probe_after)
    return seconds * (PROBE_REF_S / p) ** SENSITIVITY[kind]


def job_times(rnd, scaled: bool = True):
    """(kind, seconds) of each job, at the reference speed if ``scaled``."""
    jobs = rnd["jobs"]
    after = [j["probe_s"] for j in jobs[1:]] + [rnd["probe_end_s"]]
    for job, p_after in zip(jobs, after):
        yield job["kind"], (at_reference(job["seconds"], job["kind"], job["probe_s"],
                                         p_after) if scaled else job["seconds"])


def round_wall(rnd) -> float:
    """Sum of the round's job times at the reference speed."""
    return sum(s for _, s in job_times(rnd))


def kind_medians(rounds, workload: str, scaled: bool = True) -> dict:
    """Median job time per kind over the rounds."""
    return {k: median([s for r in rounds for kind, s in job_times(r, scaled)
                       if kind == k]) for k in KINDS[workload]}


def collect(args, env, prober):
    """Run the rounds and extra set-ups of one run; return (rounds, setups, errors).

    A set-up sample is (seconds, probe before, probe after).
    """
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    rounds, setups, errors = [], [], []
    start = time.monotonic()
    last = 0.0
    while True:
        elapsed = time.monotonic() - start
        # a round starts only if at least half of it fits in --seconds
        if len(rounds) + len(errors) >= MIN_ROUNDS and elapsed + last / 2 >= args.seconds:
            break
        if rounds and elapsed + last > DEADLINE_S:
            break
        traced = bool(args.trace) and len(rounds) % 2 == 1
        extra = ["--trace", "--spans", os.path.join(
            OUT, "spans", f"{args.workload}-seed{args.seed}-round{len(rounds)}.csv")
                 ] if traced else []
        t_round = time.monotonic()
        try:
            t0, p0, res = spawn(base + extra, env, WORKER_TIMEOUT_S - elapsed, prober)
        except RuntimeError as exc:
            errors.append(str(exc))
            if time.monotonic() - start > DEADLINE_S:
                break
            continue
        last = time.monotonic() - t_round
        setups.append((res["ready"] - t0, p0, res["jobs"][0]["probe_s"]))
        rounds.append(res)
    while rounds and len(setups) < MIN_SETUPS and time.monotonic() - start < DEADLINE_S:
        try:
            t0, p0, res = spawn(base + ["--setup-only"], env,
                                WORKER_TIMEOUT_S - (time.monotonic() - start), prober)
        except RuntimeError as exc:
            errors.append(str(exc))
            break
        setups.append((res["ready"] - t0, p0, prober.measure()))
    return rounds, setups, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(KINDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pstsim", "__init__.py")):
        print(f"no pstsim sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    check_declaration()
    nproc = len(os.sched_getaffinity(0))
    pin_to_one_cpu()
    env = worker_env()
    stamp = time.strftime("%Y%m%dT%H%M%S")
    prober = Probe(env)
    try:
        rounds, setups, errors = collect(args, env, prober)
    finally:
        prober.close()
    if not rounds or (args.trace and not any(r["traced"] for r in rounds)):
        print("no complete round" + (" with tracing" if rounds else "") + ":\n"
              + "\n".join(errors), file=sys.stderr)
        return 1

    jobs = [j for r in rounds for j in r["jobs"]]
    failed = [j for j in jobs if j["problems"]] + [{"label": e, "problems": [e]}
                                                  for e in errors]
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    kind_s = kind_medians(plain, args.workload)
    kind_raw = kind_medians(plain, args.workload, scaled=False)
    e2e = {
        "setup_s": median([at_reference(s, "setup", p0, p1) for s, p0, p1 in setups]),
        "wall_s": median([round_wall(r) for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
        **{slot: kind_s[kind] for slot, kind in SLOT_KINDS[args.workload].items()},
    }
    units = dict((n, u) for n, u, _ in END_TO_END + PER_LAYER)
    if args.trace:
        metrics = {name: median([r["layers"][name] for r in traced])
                   for name, _, _ in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (median([round_wall(r) for r in traced])
                                       - e2e["wall_s"])
    else:
        metrics = e2e

    env_record = dict(rounds[0]["env"], nproc=nproc)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "traced_rounds": len(traced),
        "setup_detail": setups, "env": env_record,
        "end_to_end": e2e, "job_kind_s": kind_s, "job_kind_raw_s": kind_raw,

        "rounds_detail": [{"traced": r["traced"], "elapsed_s": r["elapsed_s"],
                           "probe_end_s": r["probe_end_s"],
                           "jobs": [[j["kind"], j["seconds"], j["probe_s"]]
                                    for j in r["jobs"]]}
                          for r in rounds],
        "metrics": metrics, "attempted": len(jobs) + len(errors),
        "failed": [{"label": j["label"], "problems": j["problems"]} for j in failed],
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-"
                        f"trace{args.trace}-{stamp}-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds "
          f"({len(traced)} traced), {len(setups)} set-ups; BLAS threads "
          f"{env_record['blas_threads']} of nproc {env_record['nproc']}; "
          f"numpy {env_record['numpy']}, scipy {env_record['scipy']}, "
          f"OpenBLAS {env_record['numpy_openblas']}; {env_record['cpu_model']}")
    for slot, kind in SLOT_KINDS[args.workload].items():
        print(f"  {slot} = {kind}_s: {kind_s[kind]:.6g} s at reference speed "
              f"({kind_raw[kind]:.6g} s as timed)")
    print(f"  failed_frac: {len(failed)}/{len(jobs) + len(errors)}")
    for j in failed[:20]:
        print(f"  FAILED {j['label']}: {'; '.join(j['problems'])[:300]}")
    for name, value in metrics.items():
        print(f"  {name}: {value:.6g} {units[name]}")
    print(f"  result file: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": not failed, "attempted": len(jobs) + len(errors),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
