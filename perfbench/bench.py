"""Runs workload task lists through `fourieradd.cli.main` and turns the timings into metrics."""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import LAYERS, Tracer, layer_metrics

# A coarse grid: the 75th needs 40 tasks and the 95th 200, so the percentile
# changes only when a run's task count crosses one of a few steps.
TAIL_PERCENTILES = (50, 75, 95, 99)
MIN_TASKS_BEYOND_TAIL = 10

# One set-up as a user pays it: a fresh interpreter imports the package and runs one task.
_SETUP_PROBE = """
import contextlib, io, sys
sys.path.insert(0, "src")
from fourieradd.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
sys.exit(code)
"""


def load_program(root: Path):
    """Import fourieradd from root/src and from nowhere else."""
    src = (root / "src").resolve()
    if not (src / "fourieradd" / "__init__.py").is_file():
        raise FileNotFoundError(f"no fourieradd package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("fourieradd")
    if Path(package.__file__).resolve().parent != src / "fourieradd":
        raise ImportError(f"fourieradd was imported from {package.__file__}, not from {src}")
    for name in LAYERS:  # the package itself does not import cli
        importlib.import_module(f"fourieradd.{name}")
    return package


@dataclass
class Round:
    """Outcome of one pass over a workload's task list."""

    seconds: list[float] = field(default_factory=list)
    failures: list[str | None] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.seconds)


def run_task(program, task, tracer: Tracer | None = None, task_id: int = 0) -> tuple[float, str | None]:
    """Run one command in-process with stdout captured, then check its output.

    Returns the seconds `main` took and the reason the task failed, or None.
    Garbage is collected before the clock starts, so every run of a command
    starts its collector from the same state, as a fresh process would.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    if tracer is not None:
        tracer.install(task_id)
    code = None
    failure = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = program.cli.main(list(task.argv()))
    except SystemExit as exc:  # argparse refuses the command line
        code = exc.code
    except Exception as exc:  # a crash in the program is a failed task, not a failed benchmark
        failure = f"raised {exc!r}"
    seconds = perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if failure is None:
        try:
            failure = task.check(code, out.getvalue(), program)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            failure = f"unreadable output: {exc!r}"
    if failure is not None:
        failure = f"{' '.join(task.argv())}: {failure} {err.getvalue().strip()}".strip()
    return seconds, failure


def run_rounds(program, tasks, seconds: float, tracer: Tracer | None = None, after_round=None) -> list[Round]:
    """Repeat the task list for about `seconds`; always at least one round.

    A new round starts only if, at the last round's pace, it would end less
    than half a round past the deadline, so a run ends within about half a
    round of `seconds` rather than up to a whole round after it. The optional
    `after_round` is called after every round, inside that round's time.
    """
    rounds: list[Round] = []
    start = perf_counter()
    last = 0.0
    while not rounds or perf_counter() - start + last / 2 < seconds:
        begun = perf_counter()
        current = Round()
        for task in tasks:
            task_id = len(rounds) * len(tasks) + len(current.seconds)
            elapsed, failure = run_task(program, task, tracer, task_id)
            current.seconds.append(elapsed)
            current.failures.append(failure)
        rounds.append(current)
        if after_round is not None:
            after_round()
        last = perf_counter() - begun
    return rounds


def tail_percentile(count: int) -> float:
    """The highest listed percentile with at least ten tasks beyond it (50 if none has)."""
    eligible = [p for p in TAIL_PERCENTILES if count * (100 - p) >= 100 * MIN_TASKS_BEYOND_TAIL]
    return max(eligible, default=TAIL_PERCENTILES[0])


def measure_setup(root: Path, warmup) -> float:
    """Wall time of a fresh interpreter that imports the package and runs the warm-up task."""
    start = perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_PROBE, *warmup.argv()],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=120,
    )
    seconds = perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
    return seconds


def end_to_end(rounds: list[Round], work_per_round: int, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run, and the figures the record holds beside them.

    Other tenants of a shared machine only ever add time, and they slow whole
    stretches of a run, so each command's time is its best over the run's
    rounds, as timeit takes the best of its repeats. `wall_s` is the task list
    at those times. The percentiles over every command the run timed go to the
    record.
    """
    best = np.min([r.seconds for r in rounds], axis=0)
    times = np.array([s for r in rounds for s in r.seconds])
    tail = tail_percentile(len(times))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (float(best.sum()), "s"),
        "task_p50_ms": (1e3 * float(np.median(best)), "ms"),
        "gate_amps_per_s": (work_per_round / float(best.sum()), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "task_p50_all_ms": (1e3 * float(np.percentile(times, 50)), "ms"),
        "task_tail_ms": (1e3 * float(np.percentile(times, tail)), "ms"),
        "task_tail_percentile": tail,
        "task_count": len(times),
        "rounds": len(rounds),
        "round_walls_s": [r.wall for r in rounds],
    }
    return metrics, notes


def traced(program, tasks, seconds: float) -> tuple[dict, Tracer, list[Round], list[Round]]:
    """Untraced and traced rounds in turn for about `seconds`.

    Taking them in turn puts both kinds of round into the same stretches of a
    shared machine, so the tracing overhead does not depend on where a slow
    stretch fell. Each traced round has its own tracer, and each per-layer
    metric is the median over the traced rounds. The last round's tracer is
    returned, so memory holds the spans of one round at a time.
    """
    plain: list[Round] = []
    spanned: list[Round] = []
    per_round: list[dict] = []
    start = perf_counter()
    last = 0.0
    while not spanned or perf_counter() - start + last / 2 < seconds:
        begun = perf_counter()
        plain += run_rounds(program, tasks, 0)
        tracer = Tracer(program)
        spanned += run_rounds(program, tasks, 0, tracer)
        per_round.append(layer_metrics(tracer.arrays()))
        last = perf_counter() - begun
    metrics = {
        name: (statistics.median(m[name][0] for m in per_round), unit)
        for name, (_, unit) in per_round[0].items()
    }
    overhead = statistics.median(r.wall for r in spanned) / statistics.median(r.wall for r in plain) - 1
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    return metrics, tracer, plain, spanned


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def machine_record(thread_vars: dict[str, str]) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "threads": thread_vars,
    }
