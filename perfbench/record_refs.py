"""Record the reference outputs the benchmark checks against.

Run from the root of a checkout whose program is the reference::

    python3 perfbench/record_refs.py

It re-runs itself in the worker environment of ``run.py`` (BLAS thread
count pinned) and always writes all four of
``perfbench/refs/{device,calibrate,ghz,cli_small}.json`` from the
program in ``src/``, so the references come from one commit: device
populations, the best objective of ``pstsim calibrate --budget 500
--seed s`` and the GHZ fidelities for every pool seed s, and the
numbers of every file the small-command batch writes.  It also reports how many pool seeds pass the chevron-fit check
and how many ``calibrate`` runs end below 0.02.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import worker_env  # noqa: E402
from worker import OUT, import_pstsim  # noqa: E402


def write(name: str, payload) -> None:
    path = os.path.join(HERE, "refs", f"{name}.json")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}", flush=True)


def main() -> int:
    env = worker_env()
    if dict(os.environ) != env:
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)], env)
    import_pstsim()
    import workloads as w
    from pstsim import calibration

    out = w.OutDirs(os.path.join(OUT, f"refs-{os.getpid()}"))
    try:
        backend = calibration.DeviceBackend()
        scan = calibration.chevron_scan(backend, *w.device_scan_inputs(backend))
        chain = backend.run_chain(*w.device_chain_inputs(backend))
        write("device", {"scan": scan.populations.tolist(), "chain": chain.tolist()})

        config = calibration.default_effective_config(noise=0.01)
        pair, amp, injected, freqs, times = w.chevron_inputs(config)
        bad = []
        for s in range(w.POOL):
            eff = calibration.EffectiveBackend(config, seed=s)
            fit = calibration.fit_chevron(
                calibration.chevron_scan(eff, pair, [amp], freqs, times))
            if abs(fit.coupling - injected) / injected >= 0.02:
                bad.append(s)
        print(f"chevron fit: {w.POOL - len(bad)}/{w.POOL} pool seeds within 2 %"
              f"{' (failing: %s)' % bad if bad else ''}", flush=True)

        best = {}
        for s in range(w.POOL):
            d = out.new()
            code = w.run_cli(["calibrate", "--budget", "500", "--seed", str(s),
                              "--out-dir", d])
            if code:
                raise RuntimeError(f"calibrate --seed {s} exited {code}")
            best[str(s)] = w.parse_calibrate(d)["best_objective"]
        below = sum(v < 0.02 for v in best.values())
        print(f"calibrate: {below}/{w.POOL} pool seeds end below 0.02", flush=True)
        write("calibrate", best)

        ghz = {}
        for kind in w.KINDS["ghz_tomography"]:
            ghz[kind] = {}
            for s in range(w.POOL):
                d = out.new()
                o = w.parse_ghz((w.run_cli([*w.ghz_argv(kind, s), "--out-dir", d]), d))
                if o["code"]:
                    raise RuntimeError(f"{w.ghz_argv(kind, s)} exited {o['code']}")
                ghz[kind][str(s)] = [o["fidelity"], o["fidelity_opt"]]
            print(f"ghz: {kind} done", flush=True)
        write("ghz", ghz)

        parsed = w.parse_cli_small(w.run_cli_small(out))
        for name, o in parsed.items():
            if o["code"]:
                raise RuntimeError(f"batch command {name} exited {o['code']}")
        write("cli_small", parsed)
    finally:
        out.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
