"""Tests for JSON payloads, config parsing, and run manifests."""

import json
import os
from math import pi

import numpy as np
import pytest

from pstsim import cli, protocols, serialize
from pstsim.models import chains


# ------------------------------------------------------------- JSON emitter


def canonical(value):
    """Reference: restrict a payload tree to JSON types; complex becomes [re, im].

    An array becomes its ``tolist()``, a record array the list of its rows,
    each a dict of its fields.
    """
    if isinstance(value, np.ndarray) and value.dtype.names is not None:
        return canonical(value[()] if value.ndim == 0 else list(value))
    if isinstance(value, np.void) and value.dtype.names is not None:
        return {k: canonical(value[k]) for k in value.dtype.names}
    if isinstance(value, np.ndarray):
        if value.dtype.kind not in "biufcU":
            raise TypeError(f"cannot serialize an array of dtype {value.dtype}")
        return canonical(value.tolist())
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (complex, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _reference_json(payload) -> str:
    return json.dumps(canonical(payload), sort_keys=True, indent=2) + "\n"


def test_canonical_types():
    tree = {
        "a": np.float64(1.5),
        "b": np.int64(3),
        "c": np.bool_(True),
        "d": 1.0 + 2.0j,
        "f": (1, 2),
        "g": None,
        "h": "text",
    }
    text = serialize.dump_json(tree)
    assert text == _reference_json(tree)
    assert json.loads(text) == {
        "a": 1.5,
        "b": 3,
        "c": True,
        "d": [1.0, 2.0],
        "f": [1, 2],
        "g": None,
        "h": "text",
    }
    assert '"b": 3,' in text
    assert '"c": true,' in text


def test_canonical_rejects_unknown():
    # an array of Python objects is not formatted by its dtype, whatever it holds
    for payload in (object(), {"a": [1.0, object()]}, np.zeros(2, dtype=object),
                    [1j, np.array([1.0], dtype=object)], {1, 2}, np.array([b"x"]),
                    np.zeros(2, dtype=[("a", object)])):
        with pytest.raises(TypeError):
            serialize.dump_json(payload)


def test_dict_keys_of_one_text_raise():
    # json.dumps(sort_keys=True) raises on these dicts too; neither value
    # may be dropped without an error
    for payload in ({1: "a", "1": "b"}, {"x": [{None: 1, "None": 2}]}):
        with pytest.raises(TypeError, match="same text"):
            serialize.dump_json(payload)
        with pytest.raises(TypeError):
            json.dumps(payload, sort_keys=True)
    # keys of distinct texts are written as their text, sorted as text
    assert serialize.dump_json({10: "a", "2": "b"}) == json.dumps(
        {"10": "a", "2": "b"}, sort_keys=True, indent=2) + "\n"


def test_dump_json_deterministic():
    a = serialize.dump_json({"z": 1, "a": [1.0, 2.0j]})
    b = serialize.dump_json({"a": [1.0, 2.0j], "z": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [1.0, [0.0, 2.0]], "z": 1}


_RECORDS = np.rec.fromarrays(
    [np.arange(4), np.linspace(0.0, 1.0, 8).reshape(4, 2), np.array(["a", "%s", "\u00e9", ""]),
     np.array([0.5, np.nan, np.inf, -np.inf]), np.array([1 + 2j, -0.0j, complex(np.nan, 1), 0j]),
     np.array([True, False, True, False])],
    dtype=[("n", int), ("pair", float, (2,)), ("s", "U2"), ("x", float), ("z", complex),
           ("b", bool)])

_EDGE_PAYLOADS = {
    "non-finite floats": [float("nan"), float("inf"), float("-inf"), 1.0, np.float64("nan")],
    "non-finite scalars": {"a": float("nan"), "b": float("inf"), "c": -float("inf")},
    "non-finite complex": [complex(float("nan"), 1.0), complex(0.0, float("-inf"))],
    "negative zero": {"x": -0.0, "row": [-0.0, 0.0], "z": [complex(-0.0, -0.0)]},
    "empty containers": {"list": [], "dict": {}, "tuple": (), "nested": [[], {}, [[]]]},
    "empty top level list": [],
    "empty top level dict": {},
    "tuples": ((1, 2.5), (3.0, 4.0), ("a", None)),
    "int dict keys": {3: "c", 1: "a", 10: "b", np.int64(2): [1, 2]},
    "numpy scalars": [np.int32(-7), np.int64(2**62), np.uint8(255), np.bool_(False),
                      np.float32(0.1), np.float16(1.5), np.complex64(1.5 - 0.25j),
                      np.complex128(0.1 + 0.2j)],
    "numpy float32 list": [np.float32(0.1), np.float32(1e-8), np.float64(0.1)],
    "complex rows": [[1 + 2j, 0.5j, -3.0 + 0j], [np.complex128(1e-300 + 1e300j)] * 2],
    "complex mixed with floats": [1j, 2.0],
    "mixed int and float list": [1, 2.0, 3, 4.5],
    "True inside a float list": [1.0, True, 2.0],
    "bools": [True, False, np.bool_(True)],
    "non-ASCII string": {"name": "\u03c1 \u00e9t\u00e9 \U0001f600", "\u00fc": "\"q\"\\\n\t"},
    "big and small ints": [0, -1, 10**30, -(10**30)],
    "float reprs": [1e16, 1e-7, 123456789.0, 5e-324, 1.7976931348623157e308, 0.1 + 0.2],
    "top level null": None,
    "top level string": "s",
    "top level int": 3,
    "top level float": 2.5,
    "top level complex": np.complex64(1j),
    "deep nesting": {"a": {"b": {"c": [{"d": [1.0, 2.0]}, [1j, 2j]]}}},
    # lists of dicts, walked item by item like any list
    "records": {"rows": [{"evaluation": k, "objective": 0.1 * k, "label": f"r{k}",
                          "amplitudes": [0.01 * k, -0.0, 5e-324], "frequencies": [1e9, 2e9]}
                         for k in range(1, 6)]},
    "records with % and non-ASCII keys": [
        {"a%d": 1, "b%%s": 2.5, "%": "x%s\u00e9", "\u03c1": [1.0, 2.0], "\U0001f600": -3}] * 3,
    "records in any key order": [{"a": 1, "b": 2.0}, {"b": 3.0, "a": -(10**30)}],
    "records of one row": [{"a": 1, "b": 2.5, "c": "\"q\"\\\n", "d": [1.0]}],
    "records with a bool column": [{"a": True, "b": 1.0}, {"a": False, "b": 2.0}],
    "records of numpy scalars": [{"a": np.float64(0.1), "b": np.int64(3), "c": [np.float64(1.0)]},
                                 {"a": np.float64(0.2), "b": np.int64(4), "c": [np.float64(2.0)]}],
    "records mixing numpy and float": [{"a": np.float64(0.1)}, {"a": 0.2}],
    "records with non-finite cells": [{"a": 1.0, "b": [0.5]}, {"a": float("nan"), "b": [1.0]},
                                      {"a": -float("inf"), "b": [float("inf")]}],
    "records with ragged float lists": [{"a": [1.0, 2.0]}, {"a": [3.0]}],
    "records with empty float lists": [{"a": [], "b": 1}, {"a": [], "b": 2}],
    "records of int lists": [{"a": [1, 2]}, {"a": [3, 4]}],
    "records mixing int and float": [{"a": 1}, {"a": 2.0}],
    "records with a null": [{"a": None}, {"a": 1}],
    "records with different keys": [{"a": 1}, {"b": 2}],
    "records with extra keys": [{"a": 1}, {"a": 2, "b": 3}],
    "records of empty dicts": [{}, {}],
    "records after an empty dict": [{}, {"a": 1}],
    "records of empty dicts then a key": [{}, {}, {"b": 2.0}],
    "records with int keys": [{1: 2, 3: 4.0}, {1: 5, 3: 6.0}],
    "records of nested dicts": [{"a": {"b": 1.0}}, {"a": {"b": 2.0}}],
    "records after a dict": [{"a": 1}, [{"a": 2}], {"rows": []}],
    # numpy arrays and scalars, each formatted by its dtype: json writes an
    # array's tolist(), and a record array's rows as dicts
    "float array": np.array([0.1, -0.0, 1e16, 5e-324, 1.7976931348623157e308]),
    "float32 array": np.array([0.1, 1e-8], dtype=np.float32),
    "non-finite floats array": np.array([np.nan, np.inf, -np.inf, 1.0]),
    "complex array": np.array([1 + 2j, 0.5j, complex(np.nan, -np.inf), -0.0 - 0.0j]),
    "complex64 array": np.array([1.5 - 0.25j], dtype=np.complex64),
    "int array": np.array([-7, 0, 2**62]),
    "uint8 array": np.array([0, 255], dtype=np.uint8),
    "bool array": np.array([True, False]),
    "str array": np.array(["a", "%s", "\u03c1 \u00e9t\u00e9", "\"q\"\\\n"]),
    "0-d float array": np.array(2.5),
    "0-d complex array": np.array(1j),
    "0-d str array": np.array("nan"),
    "empty array": np.zeros(0),
    "empty 2-D array": np.zeros((0, 3)),
    "2-D array of empty rows": np.zeros((2, 0), dtype=complex),
    "2-D float array": np.arange(6.0).reshape(2, 3),
    "2-D complex array": (np.arange(4.0) + 1j).reshape(2, 2),
    "3-D int array": np.arange(12).reshape(2, 3, 2),
    "record array": _RECORDS,
    "record array of no rows": _RECORDS[:0],
    "0-d record array": _RECORDS[1:2].reshape(()),
    "2-D record array": _RECORDS.reshape(2, 2),
    "record array with % and non-ASCII names": np.rec.fromarrays(
        [np.arange(3), np.ones((3, 2)), np.array(["x", "y", "z"])],
        dtype=[("a%d", int), ("\u03c1", float, (2,)), ("%", "U1")]),
    "record array with 2-D and empty subarrays": np.zeros(
        2, dtype=[("m", float, (2, 3)), ("e", float, (0,)), ("c", complex, (2,))]),
    "nested record array": np.zeros(
        2, dtype=[("a", [("b", int), ("c", float, (2,))]), ("d", "U3")]),
    "arrays in a tree": {"rho": np.eye(2, dtype=complex), "frames": [
        {"grid": np.ones((2, 2)), "t": np.float64(0.5)}, {"grid": np.zeros((2, 2)), "t": 1.0}]},
    "numpy scalars as arrays": [np.float64(np.nan), np.int64(3), np.bool_(True), np.str_("s"),
                                np.complex128(np.inf), _RECORDS[0]],
}


@pytest.mark.parametrize("name", sorted(_EDGE_PAYLOADS))
def test_dump_json_equals_json_dumps_on_edge_payloads(name):
    payload = _EDGE_PAYLOADS[name]
    assert serialize.dump_json(payload) == _reference_json(payload)


def test_dump_json_equals_json_dumps_on_record_tables():
    # a 500-evaluation calibrate history and a parity table with the fields
    # the CLI writes, each passed as its record array
    from pstsim import calibration

    config = calibration.default_effective_config()
    result = calibration.optimize_simultaneous_drives(
        calibration.EffectiveBackend(config, seed=3),
        calibration.perturb_drives(calibration.ideal_drive_settings(config), 1003),
        calibration.OptimizerConfig(budget=500, seed=3))
    table = protocols.parity_phase_table(6, ("+x", "-y"), zeta=(1e5,) * 5)
    rows = np.rec.fromarrays([table.inner, table.input_state, table.parity, table.phase,
                              table.deviation],
                             names=["inner", "input_state", "parity", "phase_rad",
                                    "deviation_rad"])
    assert isinstance(result.as_dict()["history"], np.recarray)
    for payload in (result.as_dict(), {"rows": rows}):
        assert serialize.dump_json(payload) == _reference_json(payload)


def test_dump_json_equals_json_dumps_on_cli_payloads(tmp_path, monkeypatch):
    # every JSON file each command writes, captured on its way to write_json
    payloads = []
    write = serialize.write_json

    def capture(path, payload):
        payloads.append((os.path.basename(path), payload))
        write(path, payload)

    monkeypatch.setattr(serialize, "write_json", capture)
    commands = [
        ["couplings", "--n", "6", "--tau", "640ns"],
        ["couplings", "--n", "3", "--tau", "640ns", "--theta", "0.6pi", "--format", "csv"],
        ["pst", "--n", "4", "--tau", "640ns", "--times", "0:2tau:21"],
        ["fst", "--n", "3", "--tau", "640ns", "--theta", "0.6pi", "--times", "0:1tau:11"],
        ["evolve", "--config", "configs/chain_n6.json", "--initial", "site1",
         "--times", "0:2tau:11", "--noise", "configs/noise_t1.json"],
        ["parity", "--config", "configs/scenario_parity_zz.json"],
        ["parity", "--n", "4", "--inner", "10", "--inputs", "+x"],
        ["ghz", "--n", "3"],
        ["ghz", "--n", "4", "--shots", "200", "--seed", "3"],
        ["ghz", "--noise", "configs/scenario_ghz_paper.json", "--shots", "200", "--seed", "7"],
        ["calibrate", "--seed", "5", "--budget", "12"],
        ["lattice", "--nx", "3", "--ny", "2", "--start", "1,1"],
    ]
    for i, argv in enumerate(commands):
        assert cli.main([*argv, "--out-dir", str(tmp_path / str(i))]) == 0, argv
    names = {name for name, _ in payloads}
    assert {"couplings.json", "parity.json", "ghz.json", "ghz_rho.json", "calibration.json",
            "lattice.json", "pst_manifest.json", "calibrate_manifest.json"} <= names
    for name, payload in payloads:
        assert serialize.dump_json(payload) == _reference_json(payload), name


# ------------------------------------------------------------- config files


def test_chain_round_trip():
    # the committed file holds the 6-site PST profile in Hz
    spec = serialize.load_chain("configs/chain_n6.json")
    ref = chains.ChainSpec.pst(6, 640e-9)
    np.testing.assert_allclose(spec.couplings, ref.couplings, rtol=1e-15)
    assert spec.detunings == (0.0,) * 6
    assert spec.zz == (0.0,) * 5
    assert spec.tau == 640e-9
    assert spec.label == "pst-6-640ns"
    # Hz fields come back as exactly 2 pi times the file's numbers
    data = {
        "schema_version": 1,
        "tau_s": 640e-9,
        "couplings_hz": [1e6, 2e6],
        "detunings_hz": [0.0, 1e3, -2e3],
        "zz_hz": [-100e3, -100e3],
        "label": "demo",
    }
    spec = serialize.parse_chain(data)
    assert spec.couplings == (2 * pi * 1e6, 2 * pi * 2e6)
    assert spec.detunings == (0.0, 2 * pi * 1e3, -2 * pi * 2e3)
    assert spec.zz == (-2 * pi * 100e3,) * 2
    assert (spec.tau, spec.label) == (640e-9, "demo")


def test_noise_round_trip():
    noise = serialize.load_noise("configs/noise_t1.json")
    assert noise.t1 == (12.1e-6, 53.2e-6, 26.2e-6, 46e-6, 63.4e-6, 72e-6)
    assert noise.decay_convention == "t1"
    back = serialize.parse_noise({"schema_version": 1, "t1_s": [12.1e-6, 53],
                                  "decay_convention": "rate-2pi"})
    assert back.t1 == (12.1e-6, 53.0)
    assert back.decay_convention == "rate-2pi"


def test_ghz_scenario_round_trip():
    parsed = serialize.load_scenario("configs/scenario_ghz_paper.json")
    assert parsed["kind"] == "ghz"
    back = parsed["scenario"]
    scenario = protocols.paper_ghz_scenario()
    assert back.n == scenario.n
    assert back.tau == scenario.tau
    np.testing.assert_allclose(back.t1, scenario.t1, rtol=1e-15)
    np.testing.assert_allclose(back.zeta, scenario.zeta, rtol=1e-15)
    assert back.decay_convention == scenario.decay_convention
    assert back.zz_application == scenario.zz_application


def test_parity_scenario_parse():
    data = {
        "schema_version": 1,
        "kind": "parity",
        "n": 6,
        "tau_s": 640e-9,
        "zeta_hz": [-100e3] * 5,
        "model": "zz",
        "label": "demo",
    }
    parsed = serialize.parse_scenario(data)
    assert parsed["kind"] == "parity"
    assert parsed["n"] == 6
    np.testing.assert_allclose(parsed["zeta"], [-2 * pi * 100e3] * 5, rtol=1e-15)
    assert parsed["noise"] is None
    # the model label is optional: zeta_hz and t1_s decide what acts
    del data["model"]
    assert serialize.parse_scenario(data) == parsed
    relax = dict(data, model="zz+relax", t1_s=[20e-6] * 6, decay_convention="rate-2pi")
    noise = serialize.parse_scenario(relax)["noise"]
    assert noise.t1 == (20e-6,) * 6
    assert noise.decay_convention == "rate-2pi"
    with pytest.raises(serialize.ConfigError, match="/t1_s"):
        serialize.parse_scenario(dict(relax, t1_s=[20e-6] * 5))


@pytest.mark.parametrize("model, fields", [
    ("zz", {}),
    ("zz", {"zeta_hz": [0.0] * 3}),
    ("ideal", {"zeta_hz": [-100e3] * 3}),
    ("relax", {"zeta_hz": [-100e3] * 3, "t1_s": [20e-6] * 4}),
    ("zz+relax", {"zeta_hz": [-100e3] * 3}),
    ("relax", {}),
    ("bogus", {}),
])
def test_parity_scenario_model_must_match_inputs(model, fields):
    data = {"schema_version": 1, "kind": "parity", "n": 4, "tau_s": 640e-9,
            "model": model, **fields}
    with pytest.raises(serialize.ConfigError, match="^/model: "):
        serialize.parse_scenario(data)


# -------------------------------------------------------------------- errors


def test_error_pointers():
    with pytest.raises(serialize.ConfigError, match="/couplings_hz"):
        serialize.parse_chain({"schema_version": 1, "couplings_hz": 3, "tau_s": 1e-6})
    with pytest.raises(serialize.ConfigError, match="/tau_s"):
        serialize.parse_chain(
            {"schema_version": 1, "couplings_hz": [1.0], "tau_s": -1.0}
        )
    with pytest.raises(serialize.ConfigError, match="^/t1_s/1: must be positive$"):
        serialize.parse_noise({"schema_version": 1, "t1_s": [1e-6, -1e-6]})
    with pytest.raises(serialize.ConfigError, match="/kind"):
        serialize.parse_scenario(
            {"schema_version": 1, "kind": "bogus", "n": 3, "tau_s": 1e-6}
        )
    # two sites make a GHZ scenario but no parity table
    with pytest.raises(serialize.ConfigError, match="^/n: "):
        serialize.parse_scenario(
            {"schema_version": 1, "kind": "parity", "n": 2, "tau_s": 1e-6}
        )


@pytest.mark.parametrize("key, value, pointer", [
    ("tau_s", float("nan"), "/tau_s"),
    ("tau_s", float("inf"), "/tau_s"),
    ("couplings_hz", [1e6, float("nan")], "/couplings_hz/1"),
    ("couplings_hz", [10**400], "/couplings_hz/0"),
    ("zz_hz", [0.0, float("-inf")], "/zz_hz/1"),
])
def test_config_numbers_must_be_finite(key, value, pointer):
    data = {"schema_version": 1, "tau_s": 1e-6, "couplings_hz": [1e6, 2e6], key: value}
    with pytest.raises(serialize.ConfigError, match=f"^{pointer}: must be finite$"):
        serialize.parse_chain(data)


@pytest.mark.parametrize("tau", [1e-320, 5e-309])
@pytest.mark.parametrize("parse, data", [
    (serialize.parse_chain, {"couplings_hz": [1e6, 2e6]}),
    (serialize.parse_scenario, {"kind": "ghz", "n": 3, "t1_s": [1e-5] * 3}),
    (serialize.parse_scenario, {"kind": "parity", "n": 4}),
])
def test_tau_whose_couplings_overflow_fails_at_its_pointer(parse, data, tau):
    with pytest.raises(serialize.ConfigError, match="^/tau_s: .*couplings overflow"):
        parse({"schema_version": 1, "tau_s": tau, **data})


def test_schema_version_mismatch():
    with pytest.raises(serialize.ConfigError, match="/schema_version"):
        serialize.parse_chain(
            {"schema_version": 2, "couplings_hz": [1.0], "tau_s": 1e-6}
        )


def test_config_error_string():
    err = serialize.ConfigError("/x/y", "must be positive")
    assert str(err) == "/x/y: must be positive"


# ------------------------------------------------------------------ manifest


def test_manifest_payload_excludes_duration(tmp_path):
    manifest = serialize.RunManifest(
        command="pst",
        config={"n": 6},
        seed=3,
        version="1.0",
        outputs=["b.csv", "a.json"],
    )
    d = manifest.as_dict()
    assert set(d) == {"schema_version", "command", "config", "seed", "version", "outputs"}
    assert d["outputs"] == ["a.json", "b.csv"]
    path = tmp_path / "manifest.json"
    manifest.write(path)
    text = path.read_text()
    assert text == _reference_json(d)
    assert json.loads(text) == canonical(d)


def test_manifest_bytes_stable(tmp_path):
    kwargs = dict(command="x", config={"k": 1.0}, seed=None, version="1.0")
    a = serialize.RunManifest(outputs=["f.csv", "a.json"], **kwargs)
    b = serialize.RunManifest(outputs=["a.json", "f.csv"], **kwargs)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    a.write(pa)
    b.write(pb)
    assert pa.read_bytes() == pb.read_bytes()


@pytest.mark.parametrize("block", [1, 2, 3, 4096])
def test_write_csv_bytes_across_line_blocks(tmp_path, monkeypatch, block):
    # five rows of mixed cells, from a list and from an array, equal a
    # per-row writer for blocks that split the rows every way
    monkeypatch.setattr(serialize, "_CSV_BLOCK", block)
    rows = [("coupling", k, 1e6 * k + 0.25) for k in range(1, 6)]
    serialize.write_csv(tmp_path / "list.csv", ["kind", "index", "value_hz"], "%s,%d,%.12e\n",
                        [x for row in rows for x in row])
    want = "kind,index,value_hz\n" + "".join(f"{a},{b},{c:.12e}\n" for a, b, c in rows)
    assert (tmp_path / "list.csv").read_bytes() == want.encode("ascii")
    table = np.array([[k, k / 7] for k in range(5)])
    serialize.write_csv(tmp_path / "array.csv", ["a", "b"], "%d,%.12g\n", table.ravel())
    want = "a,b\n" + "".join("%d,%.12g\n" % (a, b) for a, b in table.tolist())
    assert (tmp_path / "array.csv").read_bytes() == want.encode("ascii")
