"""Outside-in tracing of pstsim for the traced benchmark runs.

``Tracer.install`` replaces, from outside the package, every function
and method defined in pstsim's source files by a wrapper, in every
pstsim module namespace that holds it, so calls between modules and
calls inside one module both pass through the wrappers.  The numerical
kernels the modules call (``scipy.linalg.expm``, ``numpy.linalg.eigh``,
``scipy.optimize.least_squares``) are wrapped the same way.
``uninstall`` puts every original back.

Most wrappers record a span (name, start, end, parent span, job).  The
hot leaves in ``COUNTED_LEAVES`` are called up to a million times per
job; they are only counted, and their time stays in the caller's self
time.  Spans are kept in memory and written out by the caller.
"""

from __future__ import annotations

import collections
import functools
import os
import time
import types
import zlib

import numpy as np

# Counted, not spanned: per-basis-state and per-RK4-stage helpers, the
# recursive JSON canonicaliser and per-cell SVG formatters.
COUNTED_LEAVES = {
    "statespace.occupations",
    "statespace.excitation_number",
    "device.coupler_frequency",
    "device.DeviceSubsetModel.flux",
    "tomography._signs",
    "serialize.canonical",
    "svg._num",
    "svg._color",
    "svg._label",
    "svg._text",
}

_clock = time.perf_counter


def layer_of(module_name: str) -> str:
    """'pstsim.models.device' -> 'device', 'pstsim.cli' -> 'cli'."""
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Collects spans, counts and health figures while installed."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, job]
        self.counts = collections.Counter()
        self.maxima = collections.defaultdict(float)
        self.expm_keys = set()
        self.job = -1
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.job])
        self._stack.append(sid)
        return sid

    def _exit(self, sid: int) -> None:
        self.spans[sid][2] = _clock()
        self._stack.pop()

    def span(self, name: str):
        """Context manager for spans the harness opens itself."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.sid = tracer._enter(name)

            def __exit__(self, *exc):
                tracer._exit(self.sid)
                return False

        return _Span()

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, fn, name: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(sid)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, name: str):
        if name in COUNTED_LEAVES:
            return self._counted(fn, name)
        return self._spanned(fn, name, _AFTER.get(name))

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, package) -> None:
        """Wrap every pstsim function, method and kernel reference."""
        import numpy.linalg
        import scipy.linalg
        import scipy.optimize

        src_dir = os.path.dirname(os.path.abspath(package.__file__))
        modules = [m for name, m in sorted(_submodules(package).items())]
        kernels = {}             # id(original) -> span name
        done = {}

        def wrapped(fn, name):
            if id(fn) not in done:
                done[id(fn)] = self._wrap(fn, name)
            return done[id(fn)]

        for owner, attr, name in ((scipy.linalg, "expm", "kernel.expm"),
                                  (numpy.linalg, "eigh", "kernel.eigh"),
                                  (scipy.optimize, "least_squares",
                                   "kernel.least_squares")):
            fn = getattr(owner, attr)
            kernels[id(fn)] = name
            self._patch(owner, attr, wrapped(fn, name))

        def ours(fn) -> bool:
            return (isinstance(fn, types.FunctionType)
                    and fn.__code__.co_filename.startswith(src_dir))

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in kernels:
                    self._patch(mod, attr, wrapped(obj, kernels[id(obj)]))
                elif ours(obj):
                    name = f"{layer_of(obj.__module__)}.{obj.__qualname__}"
                    self._patch(mod, attr, wrapped(obj, name))
                elif (isinstance(obj, type) and obj.__module__ == mod.__name__
                      and not getattr(obj, "_is_protocol", False)):
                    self._install_class(obj, ours, wrapped)

    def _install_class(self, cls, ours, wrapped) -> None:
        layer = layer_of(cls.__module__)
        for attr, obj in list(cls.__dict__.items()):
            if attr.startswith("__"):
                continue
            kind = None
            if isinstance(obj, (classmethod, staticmethod)):
                kind, fn = type(obj), obj.__func__
            else:
                fn = obj
            if not ours(fn):
                continue
            new = wrapped(fn, f"{layer}.{fn.__qualname__}")
            self._patch(cls, attr, kind(new) if kind else new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _submodules(package) -> dict:
    import sys

    prefix = package.__name__ + "."
    return {name: mod for name, mod in sys.modules.items()
            if name.startswith(prefix) and mod is not None
            and not name.endswith("__main__")}


# -- result hooks: health figures and work counts from return values -------

def _after_expm(tracer, args, kwargs, result):
    a = np.ascontiguousarray(args[0] if args else kwargs["A"])
    tracer.counts["kernel.expm.n3_sum"] += a.shape[-1] ** 3
    tracer.expm_keys.add((a.shape, a.dtype.str, zlib.crc32(a.view(np.uint8).ravel()),
                          zlib.adler32(a.view(np.uint8).ravel())))


def _after_least_squares(tracer, args, kwargs, result):
    tracer.counts["calibration.least_squares.nfev"] += int(result.nfev)


def _after_fit(tracer, args, kwargs, result):
    m = tracer.maxima
    m["calibration.fit_residual_max"] = max(m["calibration.fit_residual_max"],
                                            float(result.residual))


def _after_evolve_columns(tracer, args, kwargs, result):
    err = float(np.max(np.abs(result.sum(axis=1) - 1.0)))
    m = tracer.maxima
    m["device.norm_error_max"] = max(m["device.norm_error_max"], err)


def _after_evolve(tracer, args, kwargs, result):
    H = args[0] if args else kwargs["H"]
    if callable(H):
        return
    if hasattr(H, "toarray"):
        hermitian = abs(H - H.conj().T).max() == 0
    else:
        hermitian = np.array_equal(H, np.conj(H).T)
    if hermitian:
        err = float(np.max(np.abs(result.norm - 1.0)))
        m = tracer.maxima
        m["evolution.norm_error_max"] = max(m["evolution.norm_error_max"], err)


_AFTER = {
    "kernel.expm": _after_expm,
    "kernel.least_squares": _after_least_squares,
    "calibration.fit_chevron": _after_fit,
    "device.DeviceSubsetModel.evolve_columns": _after_evolve_columns,
    "evolution.evolve": _after_evolve,
}


# -- reduction to metrics -----------------------------------------------------

def summarize(tracer: Tracer) -> dict:
    """Per-name and per-layer self time, span calls and counts."""
    n = len(tracer.spans)
    dur = np.empty(n)
    child = np.zeros(n)
    for i, (name, t0, t1, parent, job) in enumerate(tracer.spans):
        dur[i] = t1 - t0
        if parent >= 0:
            child[parent] += t1 - t0
    self_s = dur - child
    by_name = collections.defaultdict(lambda: [0.0, 0.0, 0])  # self, total, calls
    by_layer = collections.defaultdict(float)
    for i, span in enumerate(tracer.spans):
        rec = by_name[span[0]]
        rec[0] += self_s[i]
        rec[1] += dur[i]
        rec[2] += 1
        by_layer[span[0].split(".", 1)[0]] += self_s[i]
    return {"by_name": dict(by_name), "by_layer": dict(by_layer),
            "counts": dict(tracer.counts), "maxima": dict(tracer.maxima),
            "expm_unique": len(tracer.expm_keys)}


def write_spans(tracer: Tracer, path: str) -> None:
    """One CSV line per span: id, name, start, end, parent, job."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("id,name,start_s,end_s,parent,job\n")
        for i, (name, t0, t1, parent, job) in enumerate(tracer.spans):
            fh.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent},{job}\n")
