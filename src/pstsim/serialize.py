"""Config files and deterministic JSON and CSV emission.

File schemas quote ordinary frequencies (Hz) and times in seconds; the
loaders convert to the angular units the models use internally.  Every
schema violation raises ConfigError carrying a JSON-pointer-style
location, which the CLI prints verbatim.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import evolution, protocols
from .models import chains

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A config file does not match its schema; pointer says where."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


def dump_json(payload) -> str:
    """Deterministic JSON text of a payload tree, ending in a newline.

    The text is exactly ``json.dumps(x, sort_keys=True, indent=2) + "\\n"``
    of the tree ``x`` restricted to JSON types: a tuple becomes a list, a
    dict key ``str(key)``, a complex number ``[re, im]``, a numpy array
    its ``tolist()`` and a record array the list of its rows, each a dict
    of its fields.  NaN and the infinities are written as ``json`` writes
    them.  Lists, tuples and dicts are walked item by item.  A numpy
    array is formatted by its dtype, the whole array through one ``%``
    template (see ``template``), and so is a numpy scalar, a bool, a float
    and a complex number, each as a 0-d array.  An array of bools, ints,
    floats, complex numbers or strs, or a record array of such fields
    (subarrays included), is written; any other array or type raises
    TypeError.
    """
    encode = json.encoder.encode_basestring_ascii
    # the json text of each item of a bool, int or str array's tolist()
    forms = {"b": ("false", "true").__getitem__, "i": int.__repr__, "u": int.__repr__,
             "U": encode}

    def joined(items: list, indent: str, brackets: str = "[]") -> str:
        """Formatted items, each on its own line one level in, as json lays them out."""
        if not items:
            return brackets
        inner = indent + "  "
        return (brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n" + indent
                + brackets[1])

    def template(dtype: np.dtype, shape: tuple, indent: str) -> str:
        """The text of an array of ``shape`` and ``dtype`` with a ``%s`` for each cell.

        A record is a dict of its fields, a complex number ``[re, im]``.
        """
        inner = indent + "  "
        if shape:
            return joined([template(dtype, shape[1:], inner)] * shape[0], indent)
        if dtype.names is not None:
            return joined([encode(k).replace("%", "%%") + ": "
                           + template(dtype[k].base, dtype[k].shape, inner)
                           for k in sorted(dtype.names)], indent, "{}")
        return template(np.dtype(float), (2,), indent) if dtype.kind == "c" else "%s"

    def cells(value: np.ndarray) -> list:
        """The formatted cells of ``value`` in the order its ``template`` takes them."""
        if value.dtype.names is not None:
            # the fields' cells interleaved row by row; a table of no rows has none
            rows = value.reshape(-1)
            columns = [cells(rows[k]) for k in sorted(value.dtype.names)]
            out, start = [None] * sum(map(len, columns)), 0
            stride = len(out) // max(len(rows), 1)
            for column in columns:
                width = len(column) // max(len(rows), 1)
                for k in range(width):
                    out[start + k::stride] = column[k::width]
                start += width
            return out
        kind = value.dtype.kind
        if kind in "fc":
            # re, im of each complex; %s of a float is its repr, json's
            # spelling of a finite float, and json spells the others
            flat = value.astype(complex if kind == "c" else float).reshape(-1).view(float)
            out, odd = flat.astype(object), ~np.isfinite(flat)
            out[odd] = list(map(json.dumps, flat[odd].tolist()))
            return out.tolist()
        if kind not in forms:
            raise TypeError(f"cannot serialize an array of dtype {value.dtype}")
        return list(map(forms[kind], value.reshape(-1).tolist()))

    def emit(value, indent: str) -> str:
        if isinstance(value, (np.ndarray, np.generic, bool, float, complex)):
            value = np.asarray(value)
            return template(value.dtype, value.shape, indent) % tuple(cells(value))
        inner = indent + "  "
        if isinstance(value, dict):
            keyed = {str(k): v for k, v in value.items()}
            return joined([encode(k) + ": " + emit(keyed[k], inner) for k in sorted(keyed)],
                          indent, "{}")
        if isinstance(value, (list, tuple)):
            return joined([emit(v, inner) for v in value], indent)
        if isinstance(value, int):
            return int.__repr__(int(value))
        if value is None:
            return "null"
        if isinstance(value, str):
            return encode(value)
        raise TypeError(f"cannot serialize {type(value).__name__}")

    return emit(payload, "") + "\n"


def write_json(path, payload) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dump_json(payload))


# lines of a CSV formatted at once
_CSV_BLOCK = 4096


def write_csv(path, columns, line: str, cells) -> None:
    """A header of ``columns``, then one ``line`` per row filled from the flat ``cells``.

    ``line`` is one row's ``%`` template, one conversion per column and no
    literal ``%``; ``cells`` is a list or a numpy array.  One ``%`` formats
    each block of ``_CSV_BLOCK`` lines, so a long table never holds its
    whole text, nor an array all its cells as Python numbers, at once.
    """
    width = line.count("%")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, len(cells), _CSV_BLOCK * width):
            block = cells[start:start + _CSV_BLOCK * width]
            block = block.tolist() if isinstance(block, np.ndarray) else block
            fh.write(line * (len(block) // width) % tuple(block))


def write_trajectory_csv(path, traj: evolution.Trajectory) -> None:
    """Header, then one line per time: time_s, pop_site_1..n and norm as %.12e."""
    cols = ["time_s"] + [f"pop_site_{s + 1}" for s in range(traj.n_sites)] + ["norm"]
    table = np.column_stack([traj.times, traj.populations, traj.norm])
    write_csv(path, cols, ",".join(["%.12e"] * len(cols)) + "\n", table.ravel())


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError("", "top level must be an object")
    return data


def _get(data: dict, key, kind, pointer: str, required: bool = True,
         default=None):
    if key not in data:
        if required:
            raise ConfigError(f"{pointer}/{key}", "missing required field")
        return default
    value = data[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        # an integer beyond the float range reads as infinite
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"{pointer}/{key}", f"expected {kind.__name__}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{pointer}/{key}", "must be finite")
    return value


def _number_list(data: dict, key: str, pointer: str, required: bool = True):
    raw = _get(data, key, list, pointer, required)
    if raw is None:
        return None
    return [_get(dict(enumerate(raw)), i, float, f"{pointer}/{key}") for i in range(len(raw))]


def _angular_list(data: dict, key: str, required: bool = True) -> tuple:
    """2 pi times the Hz values of the list at /key, () if left out; overflow fails there."""
    out = tuple(math.tau * f for f in _number_list(data, key, "", required) or ())
    for i, w in enumerate(out):
        if not math.isfinite(w):
            raise ConfigError(f"/{key}/{i}", "too large: its angular frequency overflows")
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
    couplings = _angular_list(data, "couplings_hz")
    if not couplings:
        raise ConfigError("/couplings_hz", "must not be empty")
    detunings = _angular_list(data, "detunings_hz", required=False)
    zz = _angular_list(data, "zz_hz", required=False)
    n = len(couplings) + 1
    _check_transfer_time(n, tau)
    if detunings and len(detunings) != n:
        raise ConfigError("/detunings_hz", f"expected {n} entries, got {len(detunings)}")
    if zz and len(zz) != n - 1:
        raise ConfigError("/zz_hz", f"expected {n - 1} entries, got {len(zz)}")
    try:
        return chains.ChainSpec(
            couplings=couplings, tau=tau, detunings=detunings, zz=zz,
            label=_get(data, "label", str, "", required=False, default=""),
        )
    except ValueError as exc:
        raise ConfigError("", str(exc)) from exc


def _check_transfer_time(n: int, tau: float) -> None:
    """A tau_s too short for the transfer couplings of n sites fails at /tau_s."""
    try:
        chains.pst_couplings(n, tau)
    except ValueError as exc:
        raise ConfigError("/tau_s", str(exc)) from None


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
    _check_transfer_time(n, tau)
    zeta = _angular_list(data, "zeta_hz", required=False)
    if zeta and len(zeta) != n - 1:
        raise ConfigError("/zeta_hz", f"expected {n - 1} entries, got {len(zeta)}")
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
        if n < 3:
            raise ConfigError("/n", "a parity scenario needs at least three sites")
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
