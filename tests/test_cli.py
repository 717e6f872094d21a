"""End-to-end tests for the command line: files, exit codes, determinism."""

import json
import math
import os
import shlex
import time
import tracemalloc

import numpy as np
import pytest

from pstsim import cli, evolution, protocols
from pstsim.models import chains

_COUPLINGS_HZ_N6 = [
    873464.0537108553,
    1104854.3456039806,
    1171875.0,
    1104854.3456039806,
    873464.0537108553,
]


def _run(tmp_path, *args):
    return cli.main([*(str(a) for a in args), "--out-dir", str(tmp_path)])


def _load(tmp_path, name):
    return json.loads((tmp_path / name).read_text())


def _csv_rows(tmp_path, name):
    lines = (tmp_path / name).read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


# ----------------------------------------------------------------- couplings


def test_couplings_json_frozen(tmp_path):
    assert _run(tmp_path, "couplings", "--n", 6, "--tau", "640ns") == 0
    data = _load(tmp_path, "couplings.json")
    np.testing.assert_allclose(data["couplings_hz"], _COUPLINGS_HZ_N6, rtol=1e-12)
    assert data["tau_s"] == pytest.approx(640e-9)
    manifest = _load(tmp_path, "couplings_manifest.json")
    assert manifest["command"] == "couplings"
    assert "couplings.json" in manifest["outputs"]


def test_couplings_csv_format(tmp_path):
    assert _run(tmp_path, "couplings", "--n", 4, "--tau", "1us",
                "--format", "csv") == 0
    header, rows = _csv_rows(tmp_path, "couplings.csv")
    assert header == ["kind", "index", "value_hz"]
    assert [r[0] for r in rows] == ["coupling"] * 3
    assert float(rows[0][2]) == pytest.approx(float(rows[2][2]), rel=1e-12)


def test_couplings_fractional_angle(tmp_path):
    assert _run(tmp_path, "couplings", "--n", 3, "--tau", "640ns",
                "--theta", "0.6pi") == 0
    data = _load(tmp_path, "couplings.json")
    assert data["transfer_fraction"] == pytest.approx(0.6545084971874737, abs=1e-9)
    assert len(data["detunings_hz"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("couplings", "--n", "1", "--tau", "640ns"),
        ("couplings", "--n", "4", "--tau", "-2ns"),
        ("couplings", "--n", "4", "--tau", "640ns", "--theta", "1.2pi"),
        ("couplings", "--n", "4", "--tau=-2ns"),
        # pst and fst share the chain-flag checks of couplings
        ("pst", "--n", "4", "--tau", "0ns"),
        ("fst", "--n", "4", "--tau=-2ns", "--theta", "0.6pi"),
        # 1e400 parses as inf
        ("couplings", "--n", "4", "--tau", "1e400s"),
    ],
)
def test_couplings_usage_errors(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, *argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("tau", ["1e-320s", "5e-309s"])
@pytest.mark.parametrize("command", [
    ("couplings", "--n", "4"),
    ("couplings", "--n", "4", "--theta", "0.5pi"),
    ("pst", "--n", "4"),
    ("fst", "--n", "4", "--theta", "0.5pi"),
    ("lattice", "--nx", "2", "--ny", "2"),
])
def test_tau_whose_couplings_overflow_is_a_usage_error(tmp_path, capsys, command, tau):
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, *command, "--tau", tau)
    assert exc.value.code == 2
    assert "couplings overflow" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("couplings", "--n", "4", "--tau", "abc"),
    ("pst", "--n", "4", "--tau", "abc"),
    ("fst", "--n", "4", "--tau", "abc", "--theta", "0.5pi"),
    ("lattice", "--nx", "2", "--ny", "2", "--tau", "abc"),
    ("couplings", "--n", "4", "--tau", "640ns", "--theta", "abc"),
    ("fst", "--n", "4", "--tau", "640ns", "--theta", "abc"),
])
def test_unparsable_tau_or_theta_is_a_usage_error(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, *argv)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


# -------------------------------------------------------------- trajectories


def test_pst_trajectory_refocuses(tmp_path):
    assert _run(tmp_path, "pst", "--n", 4, "--tau", "640ns",
                "--times", "0:2tau:9") == 0
    header, rows = _csv_rows(tmp_path, "pst_trajectory.csv")
    assert header == ["time_s", "pop_site_1", "pop_site_2", "pop_site_3",
                      "pop_site_4", "norm"]
    assert len(rows) == 9
    mid = rows[4]  # t = tau
    assert float(mid[4]) == pytest.approx(1.0, abs=1e-9)
    assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-9)


def test_pst_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for target in (a, b):
        assert _run(target, "pst", "--n", 5, "--tau", "640ns",
                    "--times", "0:1tau:33") == 0
    for name in ("pst_trajectory.csv", "pst_manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_fst_splits_population(tmp_path):
    assert _run(tmp_path, "fst", "--n", 3, "--tau", "640ns", "--theta", "0.6pi",
                "--times", "0:1tau:3") == 0
    header, rows = _csv_rows(tmp_path, "fst_trajectory.csv")
    end = rows[-1]
    assert float(end[3]) == pytest.approx(0.6545084971874737, abs=1e-8)
    assert float(end[1]) == pytest.approx(1.0 - 0.6545084971874737, abs=1e-8)


def test_evolve_uses_chain_config(tmp_path):
    assert _run(tmp_path, "evolve", "--config", "configs/chain_n6.json",
                "--initial", "site1", "--times", "0:1tau:9") == 0
    header, rows = _csv_rows(tmp_path, "evolve_trajectory.csv")
    assert len(header) == 8
    assert float(rows[-1][6]) == pytest.approx(1.0, abs=1e-9)
    manifest = _load(tmp_path, "evolve_manifest.json")
    assert manifest["config"]["config"] == "chain_n6.json"


def test_evolve_with_relaxation(tmp_path):
    assert _run(tmp_path, "evolve", "--config", "configs/chain_n6.json",
                "--initial", "site1", "--times", "0:2tau:41",
                "--noise", "configs/noise_t1.json") == 0
    _, rows = _csv_rows(tmp_path, "evolve_trajectory.csv")
    norms = [float(r[-1]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 0.999


@pytest.mark.parametrize("zz_hz, noise, model", [
    (None, None, "ideal"),
    (None, "configs/noise_t1.json", "relax"),
    (-1e5, None, "zz"),
    (-1e5, "configs/noise_t1.json", "zz+relax"),
])
def test_trajectory_manifest_model(tmp_path, zz_hz, noise, model):
    if zz_hz is None:
        argv = ["pst", "--n", 6, "--tau", "640ns"]
    else:
        with open("configs/chain_n6.json") as fh:
            chain = json.load(fh)
        chain["zz_hz"] = [zz_hz] * 5
        config = tmp_path / "chain_zz.json"
        config.write_text(json.dumps(chain))
        argv = ["evolve", "--config", config]
    if noise:
        argv = [*argv, "--noise", noise]
    assert _run(tmp_path, *argv, "--times", "0:1tau:3") == 0
    assert _load(tmp_path, f"{argv[0]}_manifest.json")["config"]["model"] == model


@pytest.mark.parametrize("argv", [
    ["pst", "--n", 6, "--tau", "640ns"],
    ["fst", "--n", 6, "--tau", "640ns", "--theta", "0.6pi"],
    ["evolve", "--config", "configs/chain_n6.json"],
], ids=["pst", "fst", "evolve"])
def test_trajectory_manifest_noise_is_a_basename(tmp_path, argv):
    # the same run from another working directory writes the same manifest
    manifests = []
    for i, noise in enumerate(["configs/noise_t1.json", os.path.abspath("configs/noise_t1.json")]):
        assert _run(tmp_path / str(i), *argv, "--times", "0:1tau:3", "--noise", noise) == 0
        manifests.append((tmp_path / str(i) / f"{argv[0]}_manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
    assert json.loads(manifests[0])["config"]["noise"] == "noise_t1.json"


@pytest.mark.parametrize("times", ["0:nantau:3", "0:inftau:3", "nantau:1tau:3"])
def test_non_finite_times_are_usage_errors(tmp_path, capsys, times):
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "pst", "--n", 4, "--tau", "640ns", "--times", times)
    assert exc.value.code == 2
    assert "is not finite" in capsys.readouterr().err
    assert not (tmp_path / "pst_trajectory.csv").exists()


@pytest.mark.parametrize("times", ["0:1tau:1", "1tau:0:3", "0:1tau:x", "0:abc:3",
                                   "0:1tau"])
def test_malformed_times_are_usage_errors(tmp_path, times):
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "pst", "--n", 4, "--tau", "640ns", "--times", times)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_oversized_time_grid_is_usage_error(tmp_path, capsys):
    # one point above the output guard fails before the grid or the output
    # directory exists; 10^8 points (about 5 GB of states) is the CI case
    points = evolution.OUTPUT_GUARD + 1
    for num in (points, 10**8):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            cli.main(["pst", "--n", "3", "--tau", "640ns", "--times", f"0:1tau:{num}",
                      "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert time.perf_counter() - start < 1.0
        assert f"asks for {num} points, above the output guard" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tau", ["NaN", "Infinity", "-Infinity"])
def test_evolve_non_finite_config_exits_2(tmp_path, capsys, tau):
    # json reads these non-standard literals as floats
    bad = tmp_path / "bad.json"
    bad.write_text(f'{{"schema_version": 1, "couplings_hz": [1e6], "tau_s": {tau}}}\n')
    assert _run(tmp_path, "evolve", "--config", bad, "--times", "0:1us:3") == 2
    assert "/tau_s: must be finite" in capsys.readouterr().err
    assert not (tmp_path / "evolve_trajectory.csv").exists()


@pytest.mark.parametrize("command, field, pointer", [
    ("evolve", {"couplings_hz": [1e308, 1e6]}, "/couplings_hz/0"),
    ("evolve", {"couplings_hz": [1e6, 1e6], "detunings_hz": [0.0, 1e308, 0.0]},
     "/detunings_hz/1"),
    ("evolve", {"couplings_hz": [1e6, 1e6], "zz_hz": [0.0, 1e308]}, "/zz_hz/1"),
    ("ghz", {"kind": "ghz", "n": 3, "t1_s": [1e-5] * 3, "zeta_hz": [1e308, 1e308]},
     "/zeta_hz/0"),
])
def test_overflowing_config_frequency_exits_2(tmp_path, capsys, command, field, pointer):
    # 2 pi times 1e308 Hz is inf: refused at its pointer, before any file
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"schema_version": 1, "tau_s": 640e-9, **field}))
    flag = "--config" if command == "evolve" else "--noise"
    assert _run(tmp_path / "out", command, flag, config) == 2
    assert f"config error: {pointer}: too large" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_evolve_bad_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1, "couplings_hz": 3, "tau_s": 1e-6}\n')
    assert _run(tmp_path, "evolve", "--config", bad) == 2


# -------------------------------------------------------------------- parity


def test_parity_scenario_table(tmp_path):
    assert _run(tmp_path, "parity", "--config",
                "configs/scenario_parity_zz.json") == 0
    data = _load(tmp_path, "parity.json")
    assert len(data["rows"]) == 64
    fit = data["fit"]
    assert fit["slope_rad"] == pytest.approx(0.129011, abs=1e-4)
    assert fit["r_squared"] > 0.999
    header, rows = _csv_rows(tmp_path, "parity.csv")
    assert header == ["inner", "input_state", "parity", "phase_rad",
                      "deviation_rad"]
    assert len(rows) == 64


@pytest.mark.parametrize("argv", [
    ("--config", "configs/scenario_parity_zz.json"),
    ("--n", 5, "--inputs", "+y,-x"),
    ("--n", 4, "--inner", "01", "--inputs=-y"),
])
def test_parity_csv_bytes_equal_a_per_row_writer(tmp_path, argv):
    assert _run(tmp_path, "parity", *argv) == 0
    # the per-row writer the CSV had before, fed from the JSON rows (floats
    # round-trip through JSON exactly)
    want = "inner,input_state,parity,phase_rad,deviation_rad\n"
    for r in _load(tmp_path, "parity.json")["rows"]:
        want += (f"{r['inner']},{r['input_state']},{r['parity']},"
                 f"{r['phase_rad']:.12e},{r['deviation_rad']:.12e}\n")
    assert (tmp_path / "parity.csv").read_bytes() == want.encode("ascii")


def test_parity_single_inner(tmp_path):
    assert _run(tmp_path, "parity", "--n", 4, "--inner", "10",
                "--inputs", "+x") == 0
    data = _load(tmp_path, "parity.json")
    (row,) = data["rows"]
    assert row["parity"] == -1
    assert row["phase_rad"] == pytest.approx(math.pi / 2, abs=1e-9)


def test_parity_on_forty_sites(tmp_path, capsys):
    # the table's 4 x 2^38 rows are above the row guard; one ideal inner
    # state maps its two input branches only
    start = time.perf_counter()
    assert _run(tmp_path, "parity", "--n", 40) == 1
    assert time.perf_counter() - start < 1.0
    assert "above the row guard" in capsys.readouterr().err
    assert _run(tmp_path, "parity", "--n", 40, "--inner", "0" * 38, "--inputs", "+x") == 0
    (row,) = _load(tmp_path, "parity.json")["rows"]
    assert (row["parity"], row["deviation_rad"]) == (1, 0.0)


ZZ_N40 = "tests/data/scenario_parity_zz_n40.json"


def test_zz_parity_on_forty_sites(tmp_path):
    # each branch of one inner state runs on its own block: the empty chain
    # (1 state) and one excitation on site 1 (40 states), which ZZ leaves alone
    assert _run(tmp_path, "parity", "--config", ZZ_N40, "--inner", "0" * 38) == 0
    data = _load(tmp_path, "parity.json")
    assert (data["n"], data["model"]) == (40, "zz")
    assert len(data["rows"]) == 4
    for row in data["rows"]:
        assert row["parity"] == 1 and abs(row["deviation_rad"]) < 1e-9


def test_zz_parity_branches_above_the_dense_guard_fail_fast(tmp_path, capsys):
    # C(40, 19) and C(40, 20) states: the dense guard stops the first branch
    # before any of its states is enumerated
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert _run(tmp_path, "parity", "--config", ZZ_N40,
                    "--inner", "1" * 19 + "0" * 19) == 1
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 10 * 2**20
    assert "block dimension 131282408400 above dense guard" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["relax", "zz+relax"])
def test_parity_relax_scenario(tmp_path, model):
    config = tmp_path / "scenario.json"
    zeta = {"zeta_hz": [-100e3] * 3} if "zz" in model else {}
    config.write_text(json.dumps({
        "schema_version": 1, "kind": "parity", "n": 4, "tau_s": 640e-9,
        "model": model, **zeta, "t1_s": [20e-6, 30e-6, 10e-6, 40e-6]}))
    assert _run(tmp_path, "parity", "--config", config) == 0
    data = _load(tmp_path, "parity.json")
    assert data["model"] == model
    assert len(data["rows"]) == 16
    if model == "relax":
        # relaxation damps amplitudes but leaves the transfer phase alone
        for row in data["rows"]:
            assert row["deviation_rad"] == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize(
    "argv",
    [
        ("parity", "--n", "2"),
        ("parity", "--n", "6", "--inner", "101"),
        ("parity",),
        ("parity", "--n", "4", "--inputs", "up"),
        ("parity", "--n", "4", "--inner", "1x"),
        ("parity", "--config", "configs/scenario_parity_zz.json", "--inner", "01"),
        ("parity", "--n", "5", "--config", "configs/scenario_parity_zz.json"),
    ],
)
def test_parity_usage_errors(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, *argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("model, fields", [
    ("zz", {}),
    ("relax", {"zeta_hz": [-100e3] * 3, "t1_s": [20e-6] * 4}),
])
def test_parity_model_contradicting_inputs_exits_2(tmp_path, capsys, model, fields):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"schema_version": 1, "kind": "parity", "n": 4,
                                  "tau_s": 640e-9, "model": model, **fields}))
    assert _run(tmp_path, "parity", "--config", config) == 2
    assert "config error: /model: " in capsys.readouterr().err


def test_parity_scenario_below_three_sites_exits_2(tmp_path, capsys):
    # the error names the file's field, not a --n flag that was never given
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"schema_version": 1, "kind": "parity", "n": 2,
                                  "tau_s": 640e-9}))
    assert _run(tmp_path, "parity", "--config", config) == 2
    err = capsys.readouterr().err
    assert "config error: /n: " in err
    assert "--n" not in err


# ----------------------------------------------------------------------- ghz


def test_ghz_ideal_state(tmp_path):
    assert _run(tmp_path, "ghz", "--n", 3) == 0
    data = _load(tmp_path, "ghz.json")
    assert data["state_fidelity"]["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert data["state_fidelity"]["rho_source"] == "statevector"
    rho = _load(tmp_path, "ghz_rho.json")["rho"]
    assert len(rho) == 8 and len(rho[0]) == 8
    assert rho[0][0] == pytest.approx([0.5, 0.0], abs=1e-12)


def test_ghz_published_scenario(tmp_path):
    assert _run(tmp_path, "ghz", "--noise", "paper") == 0
    data = _load(tmp_path, "ghz.json")
    report = data["report"]
    assert report["fidelity"] == pytest.approx(0.895497616382366, abs=1e-9)
    assert report["fidelity_opt"] == pytest.approx(0.9272091070746482, abs=1e-9)
    # conditional (renormalized) state scores higher than the raw overlap
    assert data["state_fidelity"]["fidelity"] == pytest.approx(0.9652, abs=1e-3)


def test_ghz_tomography_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for target in (a, b):
        assert _run(target, "ghz", "--noise", "paper", "--shots", 2000,
                    "--seed", 7) == 0
    assert (a / "ghz.json").read_bytes() == (b / "ghz.json").read_bytes()
    assert (a / "ghz_rho.json").read_bytes() == (b / "ghz_rho.json").read_bytes()
    data = _load(a, "ghz.json")
    assert data["state_fidelity"]["rho_source"] == "tomography"
    assert data["state_fidelity"]["fidelity"] > 0.9


def test_ghz_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "ghz", "--noise", "paper", "--n", 4)
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "ghz")
    assert exc.value.code == 2


def test_ghz_negative_seed_is_usage_error(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        _run(out, "ghz", "--n", 3, "--seed", -1)
    assert exc.value.code == 2
    assert not out.exists()


def test_ghz_shots_beyond_int64_is_usage_error(tmp_path, monkeypatch):
    def no_tomography(*args):
        raise AssertionError("sampled a shot count that does not fit in int64")

    monkeypatch.setattr(cli.tomography, "reconstruct", no_tomography)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        _run(out, "ghz", "--n", 3, "--shots", 2**63)
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("source", ["scenario", "flag"])
def test_ghz_above_8_sites_is_refused_before_simulating(tmp_path, monkeypatch, source):
    def no_simulation(*args):
        raise AssertionError("simulated a GHZ scenario that tomography refuses")

    monkeypatch.setattr(cli.protocols, "run_ghz", no_simulation)
    monkeypatch.setattr(cli.protocols, "ghz_state", no_simulation)
    if source == "scenario":
        path = tmp_path / "ghz9.json"
        path.write_text(json.dumps({"schema_version": 1, "kind": "ghz", "n": 9,
                                    "tau_s": 640e-9, "t1_s": [20e-6] * 9}))
        args = ("ghz", "--noise", path)
    else:
        args = ("ghz", "--n", 40)              # a 2^40 state would not fit
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, *args)
    assert exc.value.code == 2


def test_ghz_without_shots_names_the_density_matrix_limit(tmp_path, capsys):
    # no tomography is asked for: the limit is the 2^n x 2^n rho ghz writes
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "ghz", "--n", 9)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "2^n x 2^n density matrix" in err
    assert "tomography" not in err


# ------------------------------------------------------------------ calibrate


def test_calibrate_converges(tmp_path):
    assert _run(tmp_path, "calibrate", "--seed", 42) == 0
    data = _load(tmp_path, "calibration.json")
    assert data["best_objective"] == pytest.approx(0.013842, abs=1e-4)
    assert data["best_objective"] < 0.02
    assert data["evaluations"] == 500
    assert data["budget_exhausted"] is True
    header, rows = _csv_rows(tmp_path, "convergence.csv")
    assert header[:3] == ["evaluation", "objective", "running_min"]
    assert len(rows) == 500
    running = [float(r[2]) for r in rows]
    assert all(b <= a for a, b in zip(running, running[1:]))


def test_calibrate_single_evaluation(tmp_path):
    assert _run(tmp_path, "calibrate", "--seed", 3, "--budget", 1) == 0
    data = _load(tmp_path, "calibration.json")
    assert data["evaluations"] == 1
    assert data["budget_exhausted"] is True


def test_calibrate_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "calibrate", "--budget", 0)
    assert exc.value.code == 2


def test_calibrate_negative_seed_is_usage_error(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        _run(out, "calibrate", "--seed", -1)
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--noise", "nan"), ("--perturb", "nan"),
                                         ("--perturb", "-0.5"), ("--perturb", "2")])
def test_calibrate_rejects_bad_noise_and_perturb(tmp_path, capsys, flag, value):
    assert _run(tmp_path, "calibrate", "--budget", 5, flag, value) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "calibration.json").exists()
    assert not (tmp_path / "convergence.csv").exists()


def test_calibrate_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for target in (a, b):
        assert _run(target, "calibrate", "--seed", 5, "--budget", 40) == 0
    for name in ("calibration.json", "convergence.csv", "calibrate_manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# -------------------------------------------------------------------- lattice


def test_lattice_refocus(tmp_path):
    assert _run(tmp_path, "lattice", "--nx", 3, "--ny", 3, "--start", "2,2",
                "--snapshots", "0,0.5,1") == 0
    data = _load(tmp_path, "lattice.json")
    assert len(data["frames"]) == 3
    final = np.array(data["frames"][-1]["populations"])
    assert final[1, 1] == pytest.approx(1.0, abs=1e-9)
    header, rows = _csv_rows(tmp_path, "lattice.csv")
    assert header == ["fraction", "t_s", "x", "y", "population"]
    assert len(rows) == 27


@pytest.mark.parametrize("argv", [
    ("--nx", 3, "--ny", 4, "--start", "2,3"),
    # fractions that ':g' prints in exponent form
    ("--nx", 2, "--ny", 5, "--snapshots", "0,0.00001,1e-7,0.5,123456789"),
    ("--nx", 2, "--ny", 1, "--tau", "0.5us", "--snapshots", "0.3"),
])
def test_lattice_csv_bytes_equal_a_per_cell_writer(tmp_path, argv):
    assert _run(tmp_path, "lattice", *argv) == 0
    data = _load(tmp_path, "lattice.json")
    # the per-cell writer the CSV had before, fed from the JSON frames
    want = "fraction,t_s,x,y,population\n"
    for frame in data["frames"]:
        grid = np.array(frame["populations"])
        for ix in range(data["nx"]):
            for iy in range(data["ny"]):
                want += (f"{frame['fraction']:g},{frame['t_s']:.12e},{ix + 1},{iy + 1},"
                         f"{grid[ix, iy]:.12e}\n")
    text = (tmp_path / "lattice.csv").read_text(encoding="ascii")
    assert text == want
    if "0.00001" in argv:
        assert "\n1e-05," in text and "\n1.23457e+08," in text


@pytest.mark.parametrize("flags", [("--tau", "1e400s"), ("--snapshots", "nan"),
                                   ("--snapshots", "inf"), ("--snapshots", "0,0.5,inf")])
def test_lattice_non_finite_flags_are_usage_errors(tmp_path, flags):
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "lattice", "--nx", 2, "--ny", 2, *flags)
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_lattice_usage_errors(tmp_path):
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "lattice", "--nx", 3, "--ny", 3, "--start", "5,1")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "lattice", "--nx", 0, "--ny", 3)
    assert exc.value.code == 2


# ------------------------------------------------------------------- general


@pytest.mark.parametrize("argv", [("pst", "--n", 100000, "--tau", "1us"),
                                  ("lattice", "--nx", 4097, "--ny", 2)])
def test_large_problem_fails_fast(tmp_path, capsys, argv):
    # a chain, or a lattice's longer axis chain, above the dense guard trips
    # it before any n x n matrix exists
    start = time.perf_counter()
    assert _run(tmp_path, *argv) == 1
    assert time.perf_counter() - start < 2.0
    assert "above dense guard 4096" in capsys.readouterr().err


def test_lattice_above_the_output_guard_fails_fast(tmp_path, capsys):
    # 7 snapshots of 4096 x 4096 sites are 7 * 2^24 amplitudes; no axis runs
    start = time.perf_counter()
    assert _run(tmp_path, "lattice", "--nx", 4096, "--ny", 4096) == 1
    assert time.perf_counter() - start < 2.0
    assert "above the output guard" in capsys.readouterr().err


def test_full_space_start_above_the_guards_fails_before_it_allocates(tmp_path, capsys):
    # 2^40 amplitudes would be 16 TiB; the guards are checked on the bitstring
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert _run(tmp_path, "pst", "--n", 40, "--tau", "640ns",
                    "--initial", "1" * 20 + "0" * 20) == 1
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 10 * 2**20
    err = capsys.readouterr().err
    assert "block dimension 137846528820 above dense guard 4096" in err
    assert not (tmp_path / "pst_trajectory.csv").exists()


@pytest.mark.parametrize("initial, message", [
    ("site0", "start site 0 outside 1..4"), ("site5", "start site 5 outside 1..4"),
    ("010", "'010' is neither a site nor 4 occupations"),
    ("01x0", "'01x0' is neither a site nor 4 occupations"),
])
def test_bad_initial_state_exits_1(tmp_path, capsys, initial, message):
    assert _run(tmp_path, "pst", "--n", 4, "--tau", "640ns", "--initial", initial) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "pst_trajectory.csv").exists()


def test_block_output_above_the_guard_fails_before_it_runs(tmp_path, capsys):
    # 10 000 times x C(13, 6) = 1716 block states is above 4096^2 amplitudes
    assert _run(tmp_path, "pst", "--n", 13, "--tau", "640ns", "--initial",
                "1111110000000", "--times", "0:1tau:10000") == 1
    assert "10000 times x 1716 states above the output guard" in capsys.readouterr().err
    assert not (tmp_path / "pst_trajectory.csv").exists()


def test_one_excitation_on_a_wide_register_costs_its_block(tmp_path):
    # 40 states, not 2^40 amplitudes; at 20 sites the block run reads the
    # same populations as a site start
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert _run(tmp_path / "40", "pst", "--n", 40, "--tau", "640ns",
                    "--initial", "1" + "0" * 39) == 0
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 10 * 2**20
    header, rows = _csv_rows(tmp_path / "40", "pst_trajectory.csv")
    assert len(header) == 42 and len(rows) == 241
    for initial, name in (("1" + "0" * 19, "bits"), ("site1", "site")):
        assert _run(tmp_path / name, "pst", "--n", 20, "--tau", "640ns",
                    "--initial", initial, "--times", "0:1tau:2") == 0
    assert ((tmp_path / "bits" / "pst_trajectory.csv").read_bytes()
            == (tmp_path / "site" / "pst_trajectory.csv").read_bytes())


def test_bitstring_guard_agrees_with_evolve(monkeypatch):
    # a zero coupling splits the chain in two runs; each keeps its excitations,
    # so the block run_pst counts is smaller than C(n, excitations), and is
    # the component of the start that evolve finds in the full H
    monkeypatch.setattr(evolution, "DENSE_GUARD", 8)
    spec = chains.ChainSpec(couplings=(1e6, 2e6, 0.0, 2e6, 1e6), tau=640e-9,
                            zz=(0.0, 3e5, 0.0, 3e5, 0.0))
    times = np.linspace(0.0, 640e-9, 3)
    sizes = []
    for bits in ("111000", "110100", "100000", "111100", "010110", "000111"):
        assert cli.initial_state(bits) == bits
        _, labels, (label,) = evolution._components(chains.chain_hamiltonian(spec),
                                                    np.eye(64)[int(bits, 2)])
        sizes.append(int(np.sum(labels == label)))
        if sizes[-1] > 8:
            with pytest.raises(evolution.ResourceError) as exc:
                protocols.run_pst(spec, bits, times)
            assert str(exc.value) == f"block dimension {sizes[-1]} above dense guard 8"
        else:
            assert protocols.run_pst(spec, bits, times).states.shape == (3, sizes[-1])
    # C(6, k) is above 8 for all but 100000
    assert sizes == [1, 9, 3, 3, 9, 1]


def test_main_reuses_one_parser(tmp_path, monkeypatch, capsys):
    assert cli.build_parser() is cli.build_parser()
    # a flag of one call leaves no trace in the next
    assert _run(tmp_path / "a", "pst", "--n", 3, "--tau", "640ns", "--times", "0:1tau:3",
                "--svg") == 0
    assert _run(tmp_path / "b", "pst", "--n", 3, "--tau", "640ns", "--times", "0:1tau:3") == 0
    assert (tmp_path / "a" / "pst_trajectory.svg").exists()
    assert sorted(os.listdir(tmp_path / "b")) == ["pst_manifest.json", "pst_trajectory.csv"]
    # usage errors after a successful call still exit 2
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path / "c", "pst", "--n", 3)
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path / "c", "pst", "--n", 1, "--tau", "640ns")
    assert exc.value.code == 2
    assert "--n must be at least 2" in capsys.readouterr().err
    # the output directory default is read on each call
    for name in ("d", "e"):
        monkeypatch.setenv("PSTSIM_OUT", str(tmp_path / name))
        assert cli.main(["couplings", "--n", "2", "--tau", "1us"]) == 0
        assert (tmp_path / name / "couplings.json").exists()


def test_out_dir_environment_default(tmp_path, monkeypatch):
    monkeypatch.setenv("PSTSIM_OUT", str(tmp_path))
    assert cli.main(["couplings", "--n", "2", "--tau", "1us"]) == 0
    assert (tmp_path / "couplings.json").exists()
    data = _load(tmp_path, "couplings.json")
    assert data["couplings_hz"][0] == pytest.approx(250e3, rel=1e-12)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_svg_outputs(tmp_path):
    assert _run(tmp_path, "pst", "--n", 3, "--tau", "640ns",
                "--times", "0:1tau:9", "--svg") == 0
    svgs = list(tmp_path.glob("*.svg"))
    assert svgs, "expected an SVG heatmap"
    text = svgs[0].read_text()
    assert text.startswith("<?xml") or text.startswith("<svg")


def test_committed_configs_run_as_the_readme_shows(tmp_path):
    # every README command that reads a configs/ file, at a small shot count
    with open("README.md") as fh:
        lines = fh.read().replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines
                if line.startswith("pstsim ") and "configs/" in line]
    read = set()
    for i, argv in enumerate(commands):
        if "--shots" in argv:
            argv[argv.index("--shots") + 1] = "200"
        out = tmp_path / str(i)
        assert _run(out, *argv) == 0, argv
        manifest = _load(out, f"{argv[0]}_manifest.json")
        assert all((out / name).stat().st_size > 0 for name in manifest["outputs"])
        read.update(os.path.basename(a) for a in argv if a.startswith("configs/"))
    assert [c[0] for c in commands] == ["evolve", "parity", "ghz"]
    assert read == set(os.listdir("configs"))
