"""Fault matrix: each verify suite must FAIL on every fault it claims to cover.

Each fault is injected by monkeypatching one seam of the program; each suite
runs at a small width. COVERS is the measured matrix of (fault, suite) pairs
that fail. Every other pair is a gap, listed in GAPS with its reason, so a
gap is a visible decision rather than a silent one. A gap that a later change
closes makes its pair fail here and moves to COVERS.
"""

import cmath
import itertools
import math

import numpy as np
import pytest

import fourieradd.arithmetic
import fourieradd.circuits
import fourieradd.dense
import fourieradd.verify
from fourieradd import (
    DEFAULT_TOL,
    Circuit,
    StateVector,
    apply_const_add,
    cphase,
    phase,
    run_suite,
    verify_modularity,
)

# const and modularity run 6 qubits: below that each transform fuses into dense steps, and only
# from 6 qubits up does the plan leave it phase-vector steps for apply_diagonal; the sweeps run
# each adder's stage on its own, as one phase vector over all of its qubits, at every width
WIDTHS = {"const": 6, "draper": 3, "equivalence": 4, "modularity": 6}


def nan_hadamard(monkeypatch):
    # a 2 x 2 apply_dense: every Hadamard of a matrix build, and a plan step over one position
    original = fourieradd.circuits.apply_dense

    def patched(state, matrix, *args):
        original(state, matrix, *args)
        if np.shape(matrix) == (2, 2):
            state.amplitudes[:] = np.nan

    monkeypatch.setattr(fourieradd.circuits, "apply_dense", patched)


def phase_off_by_one_unit(monkeypatch):
    # one unit of the angle grid at that qubit: the rotation for c + 1 instead of c, on every
    # one-qubit apply_diagonal without a control, which is how a lone single-qubit phase runs;
    # the sweeps run each stage as one phase vector over its N qubits, so only a 1-qubit stage meets it
    original = fourieradd.circuits.apply_diagonal

    def patched(state, factors, low, control=None):
        if control is None and len(factors) == 2:
            factors = factors * np.array([1.0, cmath.exp(1j * math.pi / 2 ** (state.n_qubits - low))])
        original(state, factors, low, control)

    monkeypatch.setattr(fourieradd.circuits, "apply_diagonal", patched)


def cphase_off(monkeypatch):
    # every one-qubit apply_diagonal under a control, which is how a controlled phase runs
    original = fourieradd.circuits.apply_diagonal

    def patched(state, factors, low, control=None):
        if control is not None and len(factors) == 2:
            factors = factors * np.array([1.0, cmath.exp(0.01j)])
        original(state, factors, low, control)

    monkeypatch.setattr(fourieradd.circuits, "apply_diagonal", patched)


def swap_dropped(monkeypatch):
    monkeypatch.setattr(fourieradd.circuits, "_put_back", lambda state, where: None)


def stage_for_next_constant(monkeypatch):
    original = fourieradd.arithmetic.phase_adder_circuit

    def patched(n, c):
        return original(n, c + 1)

    for module in (fourieradd.arithmetic, fourieradd.dense):
        monkeypatch.setattr(module, "phase_adder_circuit", patched)


def trailing_phase(monkeypatch):
    original = fourieradd.arithmetic.const_adder_circuit

    def patched(n, c):
        circuit = original(n, c)
        return Circuit(circuit.n_qubits, circuit.gates + (phase(1, 0.3),))

    for module in (fourieradd.arithmetic, fourieradd.verify):
        monkeypatch.setattr(module, "const_adder_circuit", patched)


def transform_cphase_off(monkeypatch):
    # only the adders' transform is wrong: verify's own shared transform stays correct,
    # so an adder that does not begin with it must run whole
    original = fourieradd.arithmetic.qft_circuit

    def patched(n_qubits):
        gates = list(original(n_qubits).gates)
        first = next((i for i, gate in enumerate(gates) if gate.kind == "cphase"), None)
        if first is not None:
            gate = gates[first]
            gates[first] = cphase(gate.control, gate.target, gate.angle + 0.01)
        return Circuit(n_qubits, tuple(gates))

    monkeypatch.setattr(fourieradd.arithmetic, "qft_circuit", patched)


def nan_diagonal(monkeypatch):
    original = fourieradd.circuits.apply_diagonal

    def patched(state, *args):
        original(state, *args)
        state.amplitudes[:] = np.nan

    monkeypatch.setattr(fourieradd.circuits, "apply_diagonal", patched)


def diagonal_dropped(monkeypatch):
    monkeypatch.setattr(fourieradd.circuits, "apply_diagonal", lambda state, *args: None)


def nan_dense(monkeypatch):
    original = fourieradd.circuits.apply_dense

    def patched(state, *args):
        original(state, *args)
        state.amplitudes[:] = np.nan

    monkeypatch.setattr(fourieradd.circuits, "apply_dense", patched)


def dense_dropped(monkeypatch):
    monkeypatch.setattr(fourieradd.circuits, "apply_dense", lambda state, *args: None)


def phase_vector_off(monkeypatch):
    # every phase vector the plan multiplies in, and the equivalence check's tensor product
    original = fourieradd.circuits._phase_vector

    def patched(rotations, first, out=None):
        return original(rotations, first * cmath.exp(0.01j), out)

    monkeypatch.setattr(fourieradd.circuits, "_phase_vector", patched)


FAULTS = {
    "nan": nan_hadamard,
    "phase": phase_off_by_one_unit,
    "cphase": cphase_off,
    "swap": swap_dropped,
    "c+1": stage_for_next_constant,
    "trailing-phase": trailing_phase,
    "transform": transform_cphase_off,
    "nan-diagonal": nan_diagonal,
    "diagonal-dropped": diagonal_dropped,
    "nan-dense": nan_dense,
    "dense-dropped": dense_dropped,
    "phase-vector": phase_vector_off,
}

PLAN_FAULTS = {"nan-diagonal", "diagonal-dropped", "nan-dense", "dense-dropped"}
COVERS = {
    "const": {"nan", "phase", "cphase", "swap", "c+1", "trailing-phase", "transform", "phase-vector", *PLAN_FAULTS},
    "draper": {"nan", "cphase", "swap", "transform", "phase-vector", *PLAN_FAULTS},
    "equivalence": {"c+1", "phase-vector"},
    "modularity": {"nan", "phase", "cphase", "swap", "c+1", "trailing-phase", "transform", "phase-vector", *PLAN_FAULTS},
}

NO_CONST_ADDER = (
    "draper has no single-qubit phase, so no uncontrolled one-qubit apply_diagonal, and builds no constant adder"
)
NO_KERNEL = "the equivalence check runs no plan: it calls neither kernel and puts no qubit back"
READS_THE_STAGE = "the equivalence check reads the phase stage, not the whole adder"

GAPS = {
    ("nan", "equivalence"): NO_KERNEL,
    ("phase", "draper"): NO_CONST_ADDER,
    ("phase", "equivalence"): NO_KERNEL,
    ("cphase", "equivalence"): NO_KERNEL,
    ("swap", "equivalence"): NO_KERNEL,
    ("c+1", "draper"): NO_CONST_ADDER,
    ("trailing-phase", "draper"): NO_CONST_ADDER,
    ("trailing-phase", "equivalence"): READS_THE_STAGE,
    ("transform", "equivalence"): READS_THE_STAGE,
    **{(fault, "equivalence"): NO_KERNEL for fault in PLAN_FAULTS},
}

PAIRS = list(itertools.product(FAULTS, WIDTHS))


def test_covers_and_gaps_partition_every_pair():
    covered = {(fault, suite) for suite, faults in COVERS.items() for fault in faults}
    assert covered.isdisjoint(GAPS)
    assert covered | set(GAPS) == set(PAIRS)
    assert len(PAIRS) == 48
    assert len(GAPS) == 13  # all structural: the suite builds no constant adder or calls no kernel


def test_every_suite_passes_on_the_clean_program():
    for suite, n_max in WIDTHS.items():
        assert all(report.passed for report in run_suite(suite, n_max))


@pytest.mark.parametrize("fault, suite", PAIRS, ids=[f"{fault}-{suite}" for fault, suite in PAIRS])
def test_fault_matrix(monkeypatch, fault, suite):
    FAULTS[fault](monkeypatch)
    passed = all(report.passed for report in run_suite(suite, WIDTHS[suite]))
    if fault in COVERS[suite]:
        assert not passed, f"{suite} passes with the {fault} fault it claims to cover"
    else:
        assert passed, f"{suite} now fails on {fault}: move the pair from GAPS to COVERS"


# The modularity suite's column rows run only the built inverse transform on closed-form
# columns, so they must fail under every fault that reaches that circuit's run; the suite's
# constant-shift rows catch the faults named here.
NO_ADDER_IN_COLUMNS = "the column rows build no constant adder"
COLUMN_GAPS = {
    "phase": "the inverse transform has no single-qubit phase gate",
    "c+1": NO_ADDER_IN_COLUMNS,
    "trailing-phase": NO_ADDER_IN_COLUMNS,
    "transform": "only the adders' transform is wrong, not the inverse transform the column rows run",
}


@pytest.mark.parametrize("fault", FAULTS)
def test_modularity_column_rows_run_the_kernels(monkeypatch, fault):
    FAULTS[fault](monkeypatch)
    rows = [report for report in verify_modularity(WIDTHS["modularity"]) if report.check == "modularity"]
    if fault in COLUMN_GAPS:
        assert all(report.passed for report in rows), f"the column rows now fail on {fault}: drop it from the gaps"
    else:
        assert not all(report.passed for report in rows), f"the column rows pass with the {fault} fault"


# Kernel faults on a state wider than BATCH_AMPLITUDES, which the plan runs
# block by block; every one must move the constant adder's output off np.roll
# of its input, except those named here.
WIDE_QUBITS = 17
KERNEL_FAULTS = {name: FAULTS[name] for name in ("nan", "phase", "cphase", "swap", *sorted(PLAN_FAULTS))}
WIDE_GAPS = {
    "swap": "the plan relabels swaps and the adder leaves every qubit in place, so the put-back moves none "
    "(test_circuits test_a_dropped_swap_breaks_a_left_permutation covers the put-back)",
}


@pytest.mark.parametrize("fault", KERNEL_FAULTS)
def test_kernel_faults_reach_a_wide_constant_adder(monkeypatch, fault):
    rng = np.random.default_rng(WIDE_QUBITS)
    before = rng.standard_normal(1 << WIDE_QUBITS) + 1j * rng.standard_normal(1 << WIDE_QUBITS)
    before /= np.linalg.norm(before)
    state = StateVector(WIDE_QUBITS, before.copy())
    KERNEL_FAULTS[fault](monkeypatch)
    apply_const_add(state, 6)
    error = float(np.max(np.abs(state.amplitudes - np.roll(before, 6))))
    if fault in WIDE_GAPS:
        assert error < DEFAULT_TOL
    else:
        assert not error < DEFAULT_TOL, f"the {fault} fault misses a {WIDE_QUBITS}-qubit run by only {error}"
