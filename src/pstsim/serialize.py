"""Config files and deterministic JSON emission.

File schemas quote ordinary frequencies (Hz) and times in seconds; the
loaders convert to the angular units the models use internally.  Every
schema violation raises ConfigError carrying a JSON-pointer-style
location, which the CLI prints verbatim.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import protocols
from .models import chains

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A config file does not match its schema; pointer says where."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


def canonical(value):
    """Restrict a payload tree to JSON types; complex becomes [re, im]."""
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, np.ndarray):
        return [canonical(v) for v in value.tolist()]
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


def dump_json(payload) -> str:
    return json.dumps(canonical(payload), sort_keys=True, indent=2) + "\n"


def write_json(path, payload) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dump_json(payload))


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError("", "top level must be an object")
    return data


def _get(data: dict, key: str, kind, pointer: str, required: bool = True,
         default=None):
    if key not in data:
        if required:
            raise ConfigError(f"{pointer}/{key}", "missing required field")
        return default
    value = data[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{pointer}/{key}", f"expected {kind.__name__}")
    return value


def _number_list(data: dict, key: str, pointer: str, required: bool = True):
    if key not in data:
        if required:
            raise ConfigError(f"{pointer}/{key}", "missing required field")
        return None
    raw = data[key]
    if not isinstance(raw, list):
        raise ConfigError(f"{pointer}/{key}", "expected list")
    out = []
    for i, v in enumerate(raw):
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            out.append(float(v))
        else:
            raise ConfigError(f"{pointer}/{key}/{i}", "expected number")
    return out


def _check_version(data: dict, pointer: str = "") -> None:
    version = _get(data, "schema_version", int, pointer)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"{pointer}/schema_version",
                          f"unsupported version {version}, expected {SCHEMA_VERSION}")


# ---------------------------------------------------------------------------
# chain configs

def parse_chain(data: dict) -> chains.ChainSpec:
    _check_version(data)
    tau = _get(data, "tau_s", float, "")
    if tau <= 0:
        raise ConfigError("/tau_s", "must be positive")
    couplings = _number_list(data, "couplings_hz", "")
    if not couplings:
        raise ConfigError("/couplings_hz", "must not be empty")
    detunings = _number_list(data, "detunings_hz", "", required=False) or ()
    zz = _number_list(data, "zz_hz", "", required=False) or ()
    n = len(couplings) + 1
    if detunings and len(detunings) != n:
        raise ConfigError("/detunings_hz", f"expected {n} entries, got {len(detunings)}")
    if zz and len(zz) != n - 1:
        raise ConfigError("/zz_hz", f"expected {n - 1} entries, got {len(zz)}")
    try:
        return chains.ChainSpec(
            couplings=tuple(math.tau * j for j in couplings),
            tau=tau,
            detunings=tuple(math.tau * d for d in detunings),
            zz=tuple(math.tau * z for z in zz),
            label=_get(data, "label", str, "", required=False, default=""),
        )
    except ValueError as exc:
        raise ConfigError("", str(exc)) from exc


def load_chain(path) -> chains.ChainSpec:
    return parse_chain(load_json(path))


# ---------------------------------------------------------------------------
# noise / interaction scenarios

def parse_scenario(data: dict) -> dict:
    """Validated scenario: {"kind": "ghz"|"parity", ...normalized fields}."""
    _check_version(data)
    kind = _get(data, "kind", str, "")
    n = _get(data, "n", int, "")
    if n < 2:
        raise ConfigError("/n", "need at least two sites")
    tau = _get(data, "tau_s", float, "")
    if tau <= 0:
        raise ConfigError("/tau_s", "must be positive")
    zeta_hz = _number_list(data, "zeta_hz", "", required=False) or []
    if zeta_hz and len(zeta_hz) != n - 1:
        raise ConfigError("/zeta_hz", f"expected {n - 1} entries, got {len(zeta_hz)}")
    zeta = tuple(math.tau * z for z in zeta_hz)
    label = _get(data, "label", str, "", required=False, default="")
    if kind == "ghz":
        t1 = _number_list(data, "t1_s", "")
        if len(t1) != n:
            raise ConfigError("/t1_s", f"expected {n} entries, got {len(t1)}")
        if any(t <= 0 for t in t1):
            raise ConfigError("/t1_s", "entries must be positive")
        try:
            scenario = protocols.GHZScenario(
                n=n, tau=tau, t1=tuple(t1), zeta=zeta,
                decay_convention=_get(data, "decay_convention", str, "",
                                      required=False, default="t1"),
                zz_application=_get(data, "zz_application", str, "",
                                    required=False, default="end"),
                label=label,
            )
        except ValueError as exc:
            raise ConfigError("", str(exc)) from exc
        return {"kind": "ghz", "scenario": scenario}
    if kind == "parity":
        noise = parse_noise(data) if "t1_s" in data else None
        if noise is not None and len(noise.t1) != n:
            raise ConfigError("/t1_s", f"expected {n} entries, got {len(noise.t1)}")
        # "model" only labels the file; zeta_hz and t1_s decide what acts
        model = protocols.noise_label(zeta, noise)
        given = _get(data, "model", str, "", required=False, default=model)
        if given != model:
            raise ConfigError("/model", f"{given!r} contradicts zeta_hz and t1_s, "
                                        f"which give {model!r}")
        return {"kind": "parity", "n": n, "tau": tau, "zeta": zeta,
                "label": label, "noise": noise}
    raise ConfigError("/kind", f"unknown scenario kind {kind!r}")


def load_scenario(path) -> dict:
    return parse_scenario(load_json(path))


def parse_noise(data: dict):
    """Parse a relaxation-time table into a ``NoiseSpec``."""
    from . import evolution

    _check_version(data)
    t1 = _number_list(data, "t1_s", "")
    for i, t in enumerate(t1):
        if t <= 0:
            raise ConfigError(f"/t1_s/{i}", "must be positive")
    convention = _get(data, "decay_convention", str, "", required=False,
                      default="t1")
    if convention not in ("t1", "rate-2pi"):
        raise ConfigError("/decay_convention", "must be 't1' or 'rate-2pi'")
    return evolution.NoiseSpec(t1=tuple(t1), decay_convention=convention)


def load_noise(path):
    return parse_noise(load_json(path))


# ---------------------------------------------------------------------------
# run manifests

@dataclass
class RunManifest:
    """What a command ran and what it wrote.

    No wall-clock time is recorded, so identical runs emit
    byte-identical manifests.
    """

    command: str
    config: dict
    seed: int | None
    version: str
    outputs: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config": self.config,
            "seed": self.seed,
            "version": self.version,
            "outputs": sorted(self.outputs),
        }

    def write(self, path) -> None:
        write_json(path, self.as_dict())
