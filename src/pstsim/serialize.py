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

from . import protocols
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
    of the tree ``x`` restricted to JSON types: a complex number becomes
    ``[re, im]``, a tuple a list, a numpy scalar the Python number (bool,
    int or float) it holds, and a dict key ``str(key)``; any other type
    raises TypeError.  NaN and the infinities are written as ``json``
    writes them.  The tree is walked once; a list of only floats, or of
    only complex numbers, is formatted in bulk, and so is a table of
    records (see ``records``).
    """
    floatstr = float.__repr__
    encode = json.encoder.encode_basestring_ascii

    def records(rows: list, indent: str) -> str | None:
        """A list of dicts as one row template filled by one ``%``, or None.

        Applies when every row has the same non-empty set of str keys and
        each column holds only ints (not bools), only finite floats, only
        strs, or only non-empty lists of finite floats of one length;
        ``%r`` of an exact int or float is its ``json`` spelling.
        """
        keys = rows[0].keys()
        # with a missing key read as None below, rows of one length share
        # one key set; the caller passes no rows whose first one is empty,
        # so the loop below always runs and checks this
        same = all(len(r) == len(keys) for r in rows)
        inner, deeper = indent + "  ", indent + "    "
        fields, columns = [], []
        for key in sorted(keys, key=str):
            column = [r.get(key) for r in rows]
            kind = set(map(type, column))
            width, field = 1, "%r"
            if kind == {list}:
                width = len(column[0])
                column = [x for v in column if len(v) == width for x in v]
                kind = {list, *map(type, column)}
                field = "[\n" + deeper + (",\n" + deeper).join(["%r"] * width) + "\n" + inner + "]"
            if kind == {str}:
                column, field = list(map(encode, column)), "%s"
            if not (same and type(key) is str and kind in ({int}, {float}, {str}, {list, float})
                    and width and len(column) == width * len(rows)
                    and (float not in kind or all(map(math.isfinite, column)))):
                return None
            fields.append(encode(key).replace("%", "%%") + ": " + field)
            columns.append((width, column))
        stride = sum(width for width, _ in columns)
        cells = [None] * (stride * len(rows))
        start = 0
        for width, column in columns:
            for k in range(width):
                cells[start + k::stride] = column[k::width]
            start += width
        row = "{\n" + inner + (",\n" + inner).join(fields) + "\n" + indent + "}"
        return (",\n" + indent).join([row] * len(rows)) % tuple(cells)

    def spelled(floats: str) -> str:
        # float reprs hold no letters but those of nan and inf, which json
        # spells NaN and Infinity
        return floats.replace("nan", "NaN").replace("inf", "Infinity")

    def emit(value, indent: str) -> str:
        is_complex = isinstance(value, (complex, np.complexfloating))
        if is_complex or isinstance(value, (dict, list, tuple)):
            items = [value.real, value.imag] if is_complex else value
            if not items:
                return "{}" if isinstance(items, dict) else "[]"
            inner = indent + "  "
            sep = ",\n" + inner
            if isinstance(items, dict):
                keyed = {str(k): v for k, v in items.items()}
                body = sep.join(encode(k) + ": " + emit(keyed[k], inner) for k in sorted(keyed))
                return "{\n" + inner + body + "\n" + indent + "}"
            kinds = set(map(type, items))
            if all(issubclass(k, (complex, np.complexfloating)) for k in kinds):
                # re0, im0, re1, im1, ... each pair an [re, im] list one level in
                flat = map(floatstr, np.array(items, dtype=complex).view(float).tolist())
                deeper = "\n  " + inner
                pairs = map(("," + deeper).join, zip(flat, flat))
                body = spelled("[" + deeper + ("\n" + inner + "]" + sep + "[" + deeper).join(pairs)
                               + "\n" + inner + "]")
            elif all(issubclass(k, (float, np.floating)) for k in kinds):
                body = spelled(sep.join(map(floatstr, map(float, items))))
            else:
                body = kinds == {dict} and items[0] and records(items, inner) or sep.join(
                    emit(v, inner) for v in items)
            return "[\n" + inner + body + "\n" + indent + "]"
        if isinstance(value, (bool, np.bool_)):
            return "true" if value else "false"
        if isinstance(value, (int, np.integer)):
            return int.__repr__(int(value))
        if isinstance(value, (float, np.floating)):
            return spelled(floatstr(float(value)))
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
    _check_transfer_time(n, tau)
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
