"""Self-tests of the benchmark: its output check must catch a broken kernel.

Run from the repository root with `python3 -m pytest perfbench`. Every
instance here is tiny (at most 6 qubits), so nothing large is allocated.
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench
import spans
from workloads import WORKLOADS, make_task, qft_gates

# The task kinds of each workload's round at small widths, by task family;
# each family has its own output checks, so each must catch a fault on its own.
TINY_FAMILIES = {
    "sweeps": [("const", 3), ("draper", 2)],
    "dense": [("modularity", 3), ("equivalence", 4)],
    "wide": [("add", 6), ("add-reg", 3)],
    "json": [("json", 4), ("table", 5)],
}
TINY_ROUNDS = {
    "verify": TINY_FAMILIES["sweeps"] + TINY_FAMILIES["dense"],
    "add": TINY_FAMILIES["wide"] + TINY_FAMILIES["json"],
}


def tiny_tasks(kinds, workdir: Path, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [make_task(rng, kind, n, workdir, i) for i, (kind, n) in enumerate(kinds)]


def failed_frac(program, tasks) -> float:
    failures = [f for r in bench.run_rounds(program, tasks, 0) for f in r.failures]
    return sum(f is not None for f in failures) / len(failures)


def nan_hadamard(program, monkeypatch):
    """A Hadamard kernel that leaves every amplitude NaN."""
    original = program.circuits.apply_hadamard

    def apply_hadamard(state, target):
        original(state, target)
        state.amplitudes[:] = np.nan

    monkeypatch.setattr(program.circuits, "apply_hadamard", apply_hadamard)


def phase_off_by_one(program, monkeypatch):
    """A phase kernel that adds the rotation of one more unit, so the adder computes a + c + 1."""
    original = program.circuits.apply_phase

    def apply_phase(state, target, theta):
        original(state, target, theta + math.pi / (1 << (state.n_qubits - target)))

    monkeypatch.setattr(program.circuits, "apply_phase", apply_phase)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_clean_program_fails_no_task(program, workload, tmp_path):
    assert failed_frac(program, tiny_tasks(TINY_ROUNDS[workload], tmp_path)) == 0


@pytest.mark.parametrize("fault", [nan_hadamard, phase_off_by_one])
@pytest.mark.parametrize("family", TINY_FAMILIES)
def test_faulty_kernel_fails_tasks(program, family, fault, monkeypatch, tmp_path):
    fault(program, monkeypatch)
    assert failed_frac(program, tiny_tasks(TINY_FAMILIES[family], tmp_path)) > 0


def test_nan_kernel_passes_the_programs_own_sweep(program, monkeypatch):
    """Why the check re-runs a sample: the program's sweep reports max_error=0.0 under NaN."""
    nan_hadamard(program, monkeypatch)
    reports = program.verify.run_suite("const", 3)
    assert all(report.passed and report.max_error == 0.0 for report in reports)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_closed_form_work_equals_amplitude_passes(program, workload, tmp_path):
    tasks = tiny_tasks(TINY_ROUNDS[workload], tmp_path)
    tracer = spans.Tracer(program)
    bench.run_rounds(program, tasks, 0, tracer)
    metrics = spans.layer_metrics(tracer.arrays())
    assert metrics["statevector.amp_passes"][0] == sum(task.gate_amps() for task in tasks)


def test_spans_split_the_adder_into_stages_and_self_times_add_up(program, tmp_path):
    n = 5
    tracer = spans.Tracer(program)
    seconds, failure = bench.run_task(program, make_task(np.random.default_rng(1), "add", n, tmp_path, 0), tracer)
    assert failure is None
    data = tracer.arrays()
    kernels = np.isin(data["names"][data["name"]], [f"statevector.{k}" for k in spans.KERNELS])
    stage_counts = [int(np.sum(kernels & (data["stage"] == s))) for s in range(len(spans.STAGES))]
    assert stage_counts == [qft_gates(n), n, qft_gates(n)]
    duration = data["end"] - data["start"]
    roots = data["parent"] < 0
    assert roots.sum() == 1 and data["names"][data["name"][roots][0]] == "cli.main"
    own = spans.self_times(data["parent"], duration)
    assert np.all(own >= 0)
    assert math.isclose(own.sum(), duration[roots].sum(), rel_tol=1e-9)
    assert duration[roots][0] <= seconds


@pytest.mark.parametrize("count, percentile", [(5, 50), (39, 50), (40, 75), (199, 75), (200, 95), (1000, 99)])
def test_tail_percentile_keeps_ten_tasks_beyond_it(count, percentile):
    assert bench.tail_percentile(count) == percentile


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "add", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
