"""Compare benchmark result files of two commits, metric by metric.

Usage::

    python3 perfbench/compare.py --before perfbench/out/results/A*.json \\
                                 --after  perfbench/out/results/B*.json

Every file is a full result that ``run.py`` wrote.  The comparison is
refused when the files were taken under different settings: another
workload, run length or trace mode, or another recorded environment
(Python, numpy, scipy, OpenBLAS, BLAS threads, nproc, CPU model).
For each metric it prints both medians, their quartiles and the
after/before ratio.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

SETTINGS = ("workload", "seconds", "trace")


def load(paths):
    results = []
    for path in paths:
        with open(path) as fh:
            results.append(json.load(fh))
    return results


def settings(result) -> dict:
    return {**{k: result[k] for k in SETTINGS}, **result["env"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", nargs="+", required=True)
    parser.add_argument("--after", nargs="+", required=True)
    args = parser.parse_args(argv)
    before, after = load(args.before), load(args.after)
    reference = settings(before[0])
    for path, result in zip(args.before + args.after, before + after):
        diff = {k: (reference.get(k), v) for k, v in settings(result).items()
                if reference.get(k) != v}
        if diff:
            print(f"refused: {path} was taken under other settings: {diff}",
                  file=sys.stderr)
            return 2
    print(f"{'metric':44s} {'before':>12s} {'after':>12s} {'after/before':>12s}")
    for name in before[0]["metrics"]:
        b = [r["metrics"][name] for r in before]
        a = [r["metrics"][name] for r in after if name in r["metrics"]]
        if not a:
            continue
        mb, ma = statistics.median(b), statistics.median(a)
        ratio = ma / mb if mb else float("nan")
        lb, hb = quartiles(b)
        la, ha = quartiles(a)
        print(f"{name:44s} {mb:12.6g} {ma:12.6g} {ratio:12.4f}"
              f"   before q1-q3 {lb:.6g}-{hb:.6g}, after q1-q3 {la:.6g}-{ha:.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
