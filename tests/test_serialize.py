"""Tests for JSON payloads, config parsing, and run manifests."""

import json
from math import pi

import numpy as np
import pytest

from pstsim import protocols, serialize
from pstsim.models import chains


# ----------------------------------------------------------------- canonical


def test_canonical_types():
    tree = {
        "a": np.float64(1.5),
        "b": np.int64(3),
        "c": np.bool_(True),
        "d": 1.0 + 2.0j,
        "e": np.array([1.0, 2.0]),
        "f": (1, 2),
        "g": None,
        "h": "text",
    }
    out = serialize.canonical(tree)
    assert out == {
        "a": 1.5,
        "b": 3,
        "c": True,
        "d": [1.0, 2.0],
        "e": [1.0, 2.0],
        "f": [1, 2],
        "g": None,
        "h": "text",
    }
    assert type(out["b"]) is int
    assert type(out["c"]) is bool


def test_canonical_rejects_unknown():
    with pytest.raises(TypeError):
        serialize.canonical(object())


def test_dump_json_deterministic():
    a = serialize.dump_json({"z": 1, "a": [1.0, 2.0j]})
    b = serialize.dump_json({"a": [1.0, 2.0j], "z": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [1.0, [0.0, 2.0]], "z": 1}


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
    assert json.loads(path.read_text()) == serialize.canonical(d)


def test_manifest_bytes_stable(tmp_path):
    kwargs = dict(command="x", config={"k": 1.0}, seed=None, version="1.0")
    a = serialize.RunManifest(outputs=["f.csv", "a.json"], **kwargs)
    b = serialize.RunManifest(outputs=["a.json", "f.csv"], **kwargs)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    a.write(pa)
    b.write(pb)
    assert pa.read_bytes() == pb.read_bytes()
