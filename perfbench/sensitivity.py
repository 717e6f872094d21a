"""Measure how strongly each kind of work follows the speed probe.

Usage::

    python3 perfbench/sensitivity.py perfbench/out/results/*-trace0-*.json

Give it the result files of many untraced runs (ten or more per
workload), taken at different times.  For every job kind, and for
set-up (``setup``), it takes each run's median time and the median of
the probes around those samples, and fits alpha as the least-squares
slope of log(time) on log(probe) across the runs.  ``run.py`` scales a
time by (PROBE_REF_S / p) ** alpha; its ``SENSITIVITY`` table holds the
values measured at the baseline.  It also prints the geometric mean of
the probes around the jobs, the value ``PROBE_REF_S`` holds.
"""

from __future__ import annotations

import json
import math
import statistics
import sys


def run_samples(res) -> dict:
    """kind -> [(seconds, mean of the probes around it)] of one result."""
    out = {}
    for rnd in res["rounds_detail"]:
        if rnd["traced"]:
            continue
        jobs = rnd["jobs"]
        after = [j[2] for j in jobs[1:]] + [rnd["probe_end_s"]]
        for (kind, seconds, before), p_after in zip(jobs, after):
            out.setdefault(kind, []).append((seconds, 0.5 * (before + p_after)))
    setups = [(s, 0.5 * (a + b)) for s, a, b in res.get("setup_detail", [])]
    if setups:
        out["setup"] = setups
    return out


def slope(xs, ys) -> float:
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    per_run = {}            # kind -> [(log median time, log median probe)]
    probes = []
    for path in paths:
        with open(path) as fh:
            res = json.load(fh)
        for kind, rows in run_samples(res).items():
            t = statistics.median(s for s, _ in rows)
            p = statistics.median(p for _, p in rows)
            per_run.setdefault(kind, []).append((math.log(t), math.log(p)))
            if kind != "setup":
                probes.extend(p for _, p in rows)
    geomean = math.exp(statistics.fmean(math.log(p) for p in probes))
    print(f"geometric mean probe {geomean:.6g} s over {len(paths)} runs")
    for kind, rows in per_run.items():
        if len(rows) < 5:
            print(f"{kind:16s} too few runs ({len(rows)})")
            continue
        ys, xs = zip(*rows)
        print(f"{kind:16s} alpha {slope(xs, ys):.2f}  ({len(rows)} runs, probe medians "
              f"{math.exp(min(xs)) * 1e3:.2f}-{math.exp(max(xs)) * 1e3:.2f} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
