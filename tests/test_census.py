"""Statement census: every statement of src/fourieradd/*.py runs under the commands below, refusals aside.

A fresh child process traces, with sys.settrace, the lines of the package that a fixed list of
commands runs: every subcommand, malformed state files, the tolerance override, one sweep under
each of two adder faults of test_faults.py, and the package run as a module through runpy. The
child is fresh so that no cache built by another test (the transforms, the worker pool) hides a
function body. Inside it the process may use 2 CPUs and a batch holds 2**6 amplitudes, so the
worker pool, the dense steps above the block and the phase steps across and above the block run
at 12 qubits on any machine.

A statement that no command runs fails the census unless it is a refusal: a raise, a statement
in an except handler, or a statement in a block that ends in a raise or a parser.error(...)
call. A statement counts as run when any line of its own span runs, its header for a compound
statement: Python reports a multi-line header such as `if (` on one of its later lines.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "fourieradd"
BLOCK_QUBITS = 6


def _refuses(block: list) -> bool:
    """Whether the block ends in a raise or a parser.error(...) call."""
    last = block[-1]
    call = last.value if isinstance(last, ast.Expr) else None
    return isinstance(last, ast.Raise) or (isinstance(call, ast.Call) and ast.unparse(call.func) == "parser.error")


def _statements(block: list, excused: bool):
    """(statement, excused) for each statement of the block and of the blocks inside it, in source order."""
    excused = excused or _refuses(block)
    for statement in block:
        yield statement, excused or isinstance(statement, ast.Raise)
        for field in ("body", "orelse", "finalbody"):
            inner = getattr(statement, field, None)
            if isinstance(inner, list) and inner:
                yield from _statements(inner, excused)
        for handler in getattr(statement, "handlers", ()):
            yield from _statements(handler.body, True)


def _span(statement: ast.stmt) -> range:
    """The lines of the statement's own span: all of a simple statement, the header of a compound one."""
    first = min([statement.lineno, *(decorator.lineno for decorator in getattr(statement, "decorator_list", ()))])
    body = getattr(statement, "body", None)
    last = body[0].lineno - 1 if isinstance(body, list) else statement.end_lineno
    return range(first, max(first, last) + 1)


def unrun_statements(source: str, executed: set) -> list:
    """(line, text) of each statement of the source none of whose own lines is in executed, refusals aside.

    A bare constant, such as a docstring, and a nonlocal or global declaration compile to no line
    of their own, so they are not statements here.
    """
    lines = source.splitlines()
    unrun = []
    for statement, excused in _statements(ast.parse(source).body, False):
        silent = isinstance(statement, (ast.Nonlocal, ast.Global)) or (
            isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant)
        )
        if not (excused or silent) and executed.isdisjoint(_span(statement)):
            unrun.append((statement.lineno, lines[statement.lineno - 1].strip()))
    return unrun


def _state_files(folder: Path) -> dict:
    """Write a valid 12-qubit state file and the malformed ones; return their paths by name."""
    rng = np.random.default_rng(12)
    amplitudes = rng.standard_normal(1 << 12) + 1j * rng.standard_normal(1 << 12)
    amplitudes /= np.linalg.norm(amplitudes)
    pair = "[1.0, 0.0], [0.0, 0.0]"
    texts = {
        "state": json.dumps({"n": 12, "amplitudes": [[z.real, z.imag] for z in amplitudes.tolist()]}),
        "not-json": "{",
        "not-an-object": "[]",
        "extra-field": '{"n": 1, "amplitudes": [%s], "m": 0}' % pair,
        "bad-width": '{"n": true, "amplitudes": [%s]}' % pair,
        "wrong-count": '{"n": 1, "amplitudes": [[1.0, 0.0]]}',
        "malformed-entry": '{"n": 1, "amplitudes": [[1.0, 0.0], [0.0]]}',
        "not-finite": '{"n": 1, "amplitudes": [[NaN, 0.0], [0.0, 0.0]]}',
        "past-float-range": '{"n": 1, "amplitudes": [[1%s, 0], [0, 0]]}' % ("0" * 400),
        "not-normalized": '{"n": 1, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}',
        "other-width": '{"n": 2, "amplitudes": [%s, %s]}' % (pair, pair),
    }
    paths = {"missing": str(folder / "missing.json")}
    for name, text in texts.items():
        path = folder / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def _commands(files: dict) -> list:
    """(argv, FOURIER_ADDER_TOL or None, fault name or None, expected exit code) for each command."""
    add = ["add", "--n", "12", "--const", "-37", "--input"]
    commands = [
        (add + ["123"], None, None, 0),
        (add + ["123", "--json"], None, None, 0),
        (add + [files["state"]], None, None, 0),
        (add + [files["state"], "--json"], None, None, 0),
        (["add-reg", "--n", "5", "--a", "19", "--b", "30"], None, None, 0),
        (["verify", "--suite", "all", "--n-max", "4"], None, None, 0),
        (["counts", "--n-max", "6"], None, None, 0),
        (["counts", "--n-max", "6", "--format", "json"], None, None, 0),
        (["qft-dump", "--n", "3"], None, None, 0),
        (["qft-dump", "--n", "3", "--matrix"], None, None, 0),
        (["verify", "--suite", "const", "--n-max", "2"], "1e-9", None, 0),
        (["verify", "--suite", "const", "--n-max", "2"], "0", None, 1),
        (["verify", "--suite", "const", "--n-max", "2"], "nan", None, 1),
        (["verify", "--suite", "const", "--n-max", "2"], "abc", None, 1),
        (["verify", "--suite", "const", "--n-max", "3"], None, "trailing-phase", 1),
        (["verify", "--suite", "draper", "--n-max", "2"], None, "transform", 1),
    ]
    for name, path in files.items():
        if name != "state":
            commands.append((["add", "--n", "1", "--const", "1", "--input", path], None, None, 1))
    return commands


def _run(argv: list) -> int:
    from fourieradd.cli import main

    try:
        return main(argv)
    except SystemExit as exc:  # argparse exits on a usage error
        return exc.code


def trace_commands(folder: str) -> None:
    """In a fresh process: run every command under a line tracer, and print the census as JSON.

    The census holds the lines run, per file, and a line for each command that
    exited with another code than expected. The tracer is set before the
    package is imported, so that its module-level statements count too: this
    module imports the package nowhere else.
    """
    import importlib.util
    import runpy
    import threading

    package = os.path.dirname(importlib.util.find_spec("fourieradd").origin)
    executed: dict = {}

    def watch(frame, event, arg):
        path = frame.f_code.co_filename
        if os.path.dirname(path) != package:
            return None
        lines = executed.setdefault(path, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    threading.settrace(watch)
    sys.settrace(watch)
    import fourieradd.circuits
    import fourieradd.statevector
    from test_faults import FAULTS

    os.sched_getaffinity = lambda pid: {0, 1}  # what circuits._workers() reads
    for module in (fourieradd.circuits, fourieradd.statevector):
        module.BATCH_AMPLITUDES = 1 << BLOCK_QUBITS
    wrong = []
    for argv, tolerance, fault, expected in _commands(_state_files(Path(folder))):
        os.environ.pop("FOURIER_ADDER_TOL", None)
        if tolerance is not None:
            os.environ["FOURIER_ADDER_TOL"] = tolerance
        with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(io.StringIO()):
            with contextlib.redirect_stderr(io.StringIO()):
                if fault is not None:
                    FAULTS[fault](patch)
                code = _run(argv)
        if code != expected:
            wrong.append(f"{' '.join(argv)} (tolerance {tolerance}, fault {fault}): exit {code}, expected {expected}")
    os.environ.pop("FOURIER_ADDER_TOL", None)
    sys.argv = ["fourieradd", "counts", "--n-max", "2"]
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("fourieradd", run_name="__main__")
        except SystemExit as exc:
            if exc.code != 0:
                wrong.append(f"python -m fourieradd counts --n-max 2: exit {exc.code}")
    sys.settrace(None)
    threading.settrace(None)
    print(json.dumps({"wrong": wrong, "executed": {path: sorted(lines) for path, lines in executed.items()}}))


def test_every_statement_runs_under_the_commands_unless_it_refuses(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])}
    script = f"import test_census; test_census.trace_commands({str(tmp_path)!r})"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    census = json.loads(result.stdout)
    assert census["wrong"] == []
    unrun = []
    for path in sorted(PACKAGE.glob("*.py")):
        executed = set(census["executed"].get(str(path), ()))
        unrun += [f"{path.name}:{line}: {text}" for line, text in unrun_statements(path.read_text(), executed)]
    assert not unrun, "statements that no command runs:\n" + "\n".join(unrun)


SAMPLE = '''\
def checked(x, parser):
    """A docstring."""
    if x < 0:
        raise ValueError("negative")
    if x > 9:
        note = "big"
        raise ValueError(note)
    if x == 5:
        parser.error("five")
    if (
        x == 7
    ):
        x = 8
    try:
        y = 1 / x
    except ZeroDivisionError:
        y = 0
    z = y + 1
    return z


def never():
    return 2
'''


class TestClassifier:
    # a run of checked(7): the multi-line if's header is reported on line 11, and no refusal,
    # except body, line 18 or function body of never() ran
    RAN = {1, 3, 5, 8, 11, 13, 14, 15, 19, 22}

    def test_flags_an_unrun_statement_and_an_unrun_function_body(self):
        assert unrun_statements(SAMPLE, self.RAN) == [(18, "z = y + 1"), (23, "return 2")]

    def test_accepts_unrun_refusals_and_except_bodies(self):
        # lines 4, 6, 7, 9 and 17 never ran, and only the two statements above are flagged
        assert unrun_statements(SAMPLE, self.RAN | {18, 23}) == []

    def test_a_statement_runs_when_any_line_of_its_own_span_runs(self):
        # line 13, of its body, is not one of the header's own lines 10..12
        assert (10, "if (") in unrun_statements(SAMPLE, self.RAN - {11})
        assert (10, "if (") not in unrun_statements(SAMPLE, self.RAN - {11} | {12})

    def test_a_function_that_never_ran_is_flagged_statement_by_statement(self):
        unrun = unrun_statements(SAMPLE, {22, 23})
        assert [line for line, _ in unrun] == [1, 3, 5, 8, 10, 13, 14, 15, 18, 19]
