"""Line audit: which lines of ``src/pstsim`` do the program's callers never reach?

Run from the root of a checkout::

    python3 tests/audit_callers.py

It traces, with the standard library's ``sys.settrace`` (no coverage
package needed), every line of ``src/pstsim`` that the callers outside
the unit tests execute, all in this one process:

- the acceptance suite, ``tests/test_acceptance.py``;
- every ``pstsim`` command of README.md;
- the ``pstsim`` commands and reproduction scripts of the CI workflow;
- ``perfbench/check_demo.py``, which runs one job of each benchmark kind;
- the benchmark's Krylov job, ``workloads.krylov_run``.

Then it lists each line of a function body that no caller reached.  Two
kinds of line are left out: error paths (a ``raise`` statement, or an
``except`` clause whose body only raises), which unit tests own, and the
statements of ``KEEP``, each with the reason it stays.  A ``KEEP`` entry
that matches no statement, or whose lines are all reached, is listed
too, so the list cannot go stale.  Exits 1 when anything is listed.
pytest does not collect this file (its name does not start with
``test_``).
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import os
import re
import runpy
import shlex
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "pstsim")

# (file under src/pstsim, function, start of a statement's first line, reason):
# every line of the first statement in that function whose first line starts
# so is kept though no caller reaches it; "" keeps the whole function.
KEEP = [
    # flags and config values the callers leave at their defaults
    ("cli.py", "parse_angle", "return float(t)",
     "--theta in radians, a documented form next to multiples of pi"),
    ("calibration.py", "EffectiveBackend._noise", "return 0.0",
     "noiseless pair scans: noise 0 is the default configuration"),
    ("calibration.py", "fit_chevron", "e_span = 1e-9",
     "a scan of one frequency: its resonance is held at that frequency"),
    ("calibration.py", "fit_chevron", "best = min(",
     "the restart when the first start misses the residual threshold"),
    ("protocols.py", "run_ghz", "spec = spec.with_zz(scenario.zeta)",
     'zz_application "transfer", a config value of GHZ scenarios'),
    ("serialize.py", "_get", "value = float(value)",
     "integer numbers in config files (the committed files write floats)"),
    # degenerate plot data
    ("svg.py", "_axis_ticks", "hi = lo + 1.0", "a flat colour scale"),
    ("svg.py", "line_chart", "yhi = ylo + 1.0", "a flat series"),
    ("svg.py", "line_chart", "xhi = xlo + 1.0", "a single x value"),
    ("svg.py", "line_chart", "continue", "non-positive values on a log axis"),
    ("svg.py", "bar_chart", "hi = lo + 1.0", "all bars at the axis floor"),
    # error reporting; unit tests own the errors
    ("cli.py", "main", "except serialize.ConfigError", "config errors exit 2"),
    ("serialize.py", "ConfigError.__init__", "", "built only to be raised"),
    # numerical safety
    ("evolution.py", "_block_states", "for i in near:",
     "the expm fallback for the blocks of a stack whose eigenvectors are ill-conditioned, "
     "near an exceptional point"),
    ("evolution.py", "_blocks", "if not A.has_canonical_format:",
     "a non-canonical CSR input: sum duplicates on a copy, never on the caller's matrix"),
    # interfaces and references
    ("models/device.py", "DeviceSubsetModel.hamiltonian", "",
     "reference that the device tests and tests/record_device_reference.py compare against"),
    ("tomography.py", "_frequencies", "return probs",
     "exact frequencies (shots = 0), the noiseless reference of the reconstruction tests"),
]


# ---------------------------------------------------------------------------
# tracing

class _LineTracer:
    """Records (file, line) of every line executed in a file under SRC."""

    def __init__(self):
        self.hits = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def __call__(self, frame, event, arg):
        return self._local if frame.f_code.co_filename.startswith(SRC + os.sep) else None

    @contextlib.contextmanager
    def active(self):
        sys.settrace(self)
        try:
            yield
        finally:
            sys.settrace(None)


# ---------------------------------------------------------------------------
# the callers

def _shell_commands(path: str, program: str):
    """argv lists of the lines of a file that run ``program``.

    Backslash continuations are joined; a ``timeout N`` prefix and a
    trailing ``|| ...`` are dropped.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read().replace("\\\n", " ")
    pattern = re.compile(rf"^\s*(?:timeout \d+ )?({re.escape(program)} .*?)\s*(?:\|\|.*)?$")
    for line in text.splitlines():
        m = pattern.match(line)
        if m:
            yield shlex.split(m.group(1), comments=True)


def _with_out_dir(argv, tmp: str):
    """Shell variables of an output path point into ``tmp``; add one if none is given."""
    argv = [re.sub(r'\$\{?(RUNNER_TEMP|out)\}?', tmp, a) for a in argv]
    return argv if "--out-dir" in argv else [*argv, "--out-dir", tmp]


def _cli(argv) -> str:
    from pstsim import cli

    try:
        code = cli.main(argv)
    except SystemExit as exc:         # argparse: --version, usage errors
        code = exc.code
    return f"exit {code}"


def _script(path: str, argv) -> str:
    saved = sys.argv
    sys.argv = [path, *argv]
    try:
        runpy.run_path(path, run_name="__main__")
    except SystemExit as exc:
        return f"exit {exc.code}"
    finally:
        sys.argv = saved
    return "exit 0"


def _pytest(path: str) -> str:
    import pytest

    return f"exit {pytest.main(['-q', '-p', 'no:cacheprovider', path])}"


def _krylov_job() -> str:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    workloads.krylov_run()
    return "done"


def _callers(tmp: str):
    """(label, thunk) of every caller, in the order they run."""
    yield "tests/test_acceptance.py", lambda: _pytest(
        os.path.join(ROOT, "tests", "test_acceptance.py"))
    for i, argv in enumerate(_shell_commands(os.path.join(ROOT, "README.md"), "pstsim")):
        yield "README: " + shlex.join(argv), lambda argv=argv, i=i: _cli(
            _with_out_dir(argv[1:], os.path.join(tmp, f"readme{i}")))
    workflow = os.path.join(ROOT, ".github", "workflows", "tests.yml")
    for i, argv in enumerate(_shell_commands(workflow, "pstsim")):
        yield "CI: " + shlex.join(argv), lambda argv=argv, i=i: _cli(
            _with_out_dir(argv[1:], os.path.join(tmp, f"ci{i}")))
    for argv in _shell_commands(workflow, "python"):
        if argv[1].startswith("scripts/"):
            yield "CI: " + shlex.join(argv), lambda argv=argv: _script(
                os.path.join(ROOT, argv[1]), _with_out_dir(argv[2:], os.path.join(tmp, "scripts")))
    yield "perfbench/check_demo.py", lambda: _script(
        os.path.join(ROOT, "perfbench", "check_demo.py"), [])
    yield "perfbench workloads.krylov_run", _krylov_job


# ---------------------------------------------------------------------------
# the report

def _function_lines(code) -> set:
    """Lines with bytecode in the functions (not class or module bodies) of ``code``."""
    lines = set()
    for const in code.co_consts:
        if inspect.iscode(const):
            lines |= _function_lines(const)
    if code.co_flags & inspect.CO_NEWLOCALS:
        lines |= {line for _, _, line in code.co_lines()
                  if line is not None and line != code.co_firstlineno}
    return lines


def _functions(tree):
    """Qualified name ("Class.method") -> node of every def in a module."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if isinstance(child, ast.FunctionDef):
                    out[prefix + child.name] = child
                visit(child, f"{prefix}{child.name}.")

    visit(tree, "")
    return out


def _statements(tree):
    """Every statement node, and each except clause, under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.stmt, ast.ExceptHandler)):
            yield node


def _span(node) -> set:
    return set(range(node.lineno, node.end_lineno + 1))


def audit(hits) -> list:
    """Unreached lines outside error paths and KEEP, and stale KEEP entries."""
    problems = []
    for base, _, names in sorted(os.walk(SRC)):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(base, name)
            rel = os.path.relpath(path, SRC)
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            lines = source.splitlines()
            tree = ast.parse(source)
            unreached = {ln for ln in _function_lines(compile(source, path, "exec"))
                         if (path, ln) not in hits}
            for node in _statements(tree):
                # a raise statement, or an except clause whose body only raises
                if isinstance(node, ast.Raise) or (isinstance(node, ast.ExceptHandler) and all(
                        isinstance(s, ast.Raise) for s in node.body)):
                    unreached -= _span(node)
            functions = _functions(tree)
            for file, function, start, reason in KEEP:
                if file != rel:
                    continue
                fn = functions.get(function)
                nodes = [s for s in _statements(fn)
                         if lines[s.lineno - 1].strip().startswith(start)] if fn else []
                if not nodes:
                    problems.append(f"{rel}: KEEP {function} {start!r} matches no statement")
                    continue
                kept = _span(min(nodes, key=lambda s: s.lineno))
                if not kept & unreached:
                    problems.append(f"{rel}: KEEP {function} {start!r} is reached; drop it")
                unreached -= kept
            problems += [f"{rel}:{ln}: {lines[ln - 1].strip()}" for ln in sorted(unreached)]
    return problems


def main() -> int:
    sys.path.insert(0, os.path.dirname(SRC))
    os.chdir(ROOT)
    tracer = _LineTracer()
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for label, run in _callers(tmp):
            with contextlib.redirect_stdout(io.StringIO()), tracer.active():
                status = run()
            print(f"{label}: {status}", file=sys.stderr)
    print(f"callers traced in {time.perf_counter() - start:.1f} s", file=sys.stderr)
    problems = audit(tracer.hits)
    for p in problems:
        print(p)
    print(f"{len(problems)} unreached line(s) outside error paths and KEEP")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
