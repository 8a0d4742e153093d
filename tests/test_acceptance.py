"""End-to-end acceptance checks, one per shipped guarantee.

Every test prints a single status line of the form

    [acceptance] <name>: PASS|FAIL (details)

before asserting, so a plain ``pytest tests/test_acceptance.py -s`` reads as a
checklist. Tolerances are pinned here on purpose; loosening them is a
behaviour change, not a test tweak.
"""

import math
import sys
import time

import numpy as np

from fourieradd import (
    Circuit,
    StateVector,
    apply_const_add,
    basis_state,
    circuit_to_matrix,
    complexity_table,
    const_adder_circuit,
    count_gates,
    cphase,
    draper_adder_circuit,
    draper_inner_circuit,
    hadamard,
    phase,
    phase_adder_equivalence_errors,
    qft_circuit,
    run_circuit,
    swap,
    verify_const_adder,
    verify_draper,
    verify_modularity,
)
from oracles import (
    copy_state,
    dft_matrix,
    fidelity,
    permutation_add_matrix,
    phase_adder_matrix,
    superposition_state,
)

FIDELITY_TOL = 1e-10
MATRIX_TOL = 1e-10
EXACT_FORM_TOL = 1e-12
SWEEP_TIME_BUDGET_S = 60.0
COUNT_TIME_BUDGET_S = 1.0


def _report(name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {name}: {status} ({detail})")
    sys.stdout.flush()


def _random_circuit(n_qubits, rng, n_gates):
    gates = []
    for _ in range(n_gates):
        kind = int(rng.integers(0, 4))
        target = int(rng.integers(1, n_qubits + 1))
        angle = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        if kind == 0:
            gates.append(hadamard(target))
        elif kind == 1:
            gates.append(phase(target, angle))
        else:
            other = (target - 1 + int(rng.integers(1, n_qubits))) % n_qubits + 1
            if kind == 2:
                gates.append(cphase(other, target, angle))
            else:
                gates.append(swap(target, other))
    return Circuit(n_qubits, gates)


def test_exhaustive_constant_addition_up_to_eight_qubits():
    started = time.perf_counter()
    reports = verify_const_adder(8, tol=FIDELITY_TOL)
    elapsed = time.perf_counter() - started
    worst = max(report.max_error for report in reports)
    passed = all(report.passed for report in reports) and elapsed < SWEEP_TIME_BUDGET_S
    _report(
        "exhaustive constant addition, 1..8 qubits",
        passed,
        f"max_error={worst:.3e}, elapsed={elapsed:.1f}s, budget={SWEEP_TIME_BUDGET_S:.0f}s",
    )
    assert passed


def test_dense_operator_chain_realizes_the_addition_permutation():
    started = time.perf_counter()
    rng = np.random.default_rng(20260817)
    worst = 0.0
    for n in range(1, 7):
        transform = dft_matrix(n)
        for c in rng.integers(0, 4 << n, size=20):
            c = int(c)
            chain = transform.conj().T @ phase_adder_matrix(n, c) @ transform
            error = float(np.max(np.abs(chain - permutation_add_matrix(n, c))))
            worst = max(worst, error)
    elapsed = time.perf_counter() - started
    passed = worst < MATRIX_TOL and elapsed < 30.0
    _report(
        "transform / rotate / invert chain equals the addition permutation",
        passed,
        f"max_error={worst:.3e}, widths 1..6, 20 constants each, elapsed={elapsed:.1f}s",
    )
    assert passed


def test_rotation_stage_factors_into_a_tensor_product():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    all_passed = True
    for n in range(1, 9):
        for c in rng.integers(0, 4 << n, size=20):
            error = float(phase_adder_equivalence_errors(n, [int(c)])[0])
            worst = max(worst, error)
            all_passed = all_passed and error < MATRIX_TOL

    # closed small-register forms, checked against the realized diagonals
    quarter_turns = {0: 1.0, 1: 1.0j, 2: -1.0, 3: -1.0j}
    for c in range(8):
        one = np.diag([1.0, -1.0 if c % 2 else 1.0]).astype(np.complex128)
        two = np.diag([quarter_turns[(j * c) % 4] for j in range(4)])
        form_error = max(
            float(np.max(np.abs(phase_adder_matrix(1, c) - one))),
            float(np.max(np.abs(phase_adder_matrix(2, c) - two))),
        )
        worst = max(worst, form_error)
        all_passed = all_passed and form_error < EXACT_FORM_TOL

    elapsed = time.perf_counter() - started
    all_passed = all_passed and elapsed < 30.0
    _report(
        "rotation stage is a tensor product of single-qubit rotations",
        all_passed,
        f"max_error={worst:.3e}, widths 1..8 plus closed 1- and 2-qubit forms, "
        f"elapsed={elapsed:.1f}s",
    )
    assert all_passed


def test_addition_wraps_modulo_the_register_size():
    started = time.perf_counter()
    reports = verify_modularity(6)
    elapsed = time.perf_counter() - started
    worst = max(report.max_error for report in reports)
    passed = all(report.passed for report in reports) and elapsed < 10.0
    _report(
        "addition wraps modulo the register size",
        passed,
        f"max_error={worst:.3e}, widths 1..6, columns x < 2^N, constants c and c + 2^N, "
        f"elapsed={elapsed:.1f}s",
    )
    assert passed


def test_operation_counts_follow_the_closed_forms():
    started = time.perf_counter()
    passed = True
    for n in range(1, 17):
        adder = count_gates(const_adder_circuit(n, 1))
        inner = count_gates(draper_inner_circuit(n))
        passed = passed and adder.counted_total == n * n + 2 * n
        passed = passed and inner.controlled_phase == n * (n + 1) // 2
    rows = complexity_table(4)
    passed = passed and (rows[0].const_adder_ops, rows[0].register_adder_inner_ops) == (3, 1)
    passed = passed and (rows[3].const_adder_ops, rows[3].register_adder_inner_ops) == (24, 10)
    elapsed = time.perf_counter() - started
    passed = passed and elapsed < COUNT_TIME_BUDGET_S
    _report(
        "operation counts match N*N+2N and N(N+1)/2 closed forms",
        passed,
        f"widths 1..16, anchors T(1)=3 T(4)=24 inner(4)=10, elapsed={elapsed:.2f}s",
    )
    assert passed


def test_register_adder_handles_basis_and_entangled_inputs():
    started = time.perf_counter()
    reports = verify_draper(4, tol=FIDELITY_TOL)
    worst = max(report.max_error for report in reports)
    passed = all(report.passed for report in reports)

    # superposed operands: the sum register must entangle with the kept one
    n = 3
    dim = 1 << n
    alpha = {1: 0.6, 3: 0.64j, 6: -0.48}
    beta = {0: 0.8, 2: -0.36j, 7: 0.48}
    terms = [(a + dim * b, wa * wb) for a, wa in alpha.items() for b, wb in beta.items()]
    state = superposition_state(2 * n, terms)
    run_circuit(draper_adder_circuit(n), state)
    expected = np.zeros(dim * dim, dtype=np.complex128)
    for a, wa in alpha.items():
        for b, wb in beta.items():
            expected[a + dim * ((a + b) % dim)] += wa * wb
    superposition_error = float(np.max(np.abs(state.amplitudes - expected)))
    worst = max(worst, superposition_error)
    elapsed = time.perf_counter() - started
    passed = passed and superposition_error < MATRIX_TOL and elapsed < SWEEP_TIME_BUDGET_S

    _report(
        "register-by-register addition on basis and superposed operands",
        passed,
        f"max_error={worst:.3e}, exhaustive widths 1..4 plus 3x3-term superposition, "
        f"elapsed={elapsed:.1f}s",
    )
    assert passed


def test_long_random_circuits_stay_normalized_and_adders_compose():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_norm = 0.0
    for _ in range(1000):
        state = basis_state(10, int(rng.integers(0, 1 << 10)))
        run_circuit(_random_circuit(10, rng, 12), state)
        worst_norm = max(worst_norm, abs(state.norm_sq() - 1.0))
    norm_ok = worst_norm < FIDELITY_TOL

    worst_fidelity_gap = 0.0
    for n in range(1, 9):
        dim = 1 << n
        for _ in range(3):
            c1 = int(rng.integers(-2 * dim, 2 * dim))
            c2 = int(rng.integers(-2 * dim, 2 * dim))
            amplitudes = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            amplitudes /= np.linalg.norm(amplitudes)
            stepwise = StateVector(n, amplitudes)
            joint = copy_state(stepwise)
            apply_const_add(stepwise, c1)
            apply_const_add(stepwise, c2)
            apply_const_add(joint, c1 + c2)
            worst_fidelity_gap = max(worst_fidelity_gap, 1.0 - fidelity(stepwise, joint))
    compose_ok = worst_fidelity_gap < FIDELITY_TOL

    worst_transform = 0.0
    for n in range(1, 9):
        error = float(np.max(np.abs(circuit_to_matrix(qft_circuit(n)) - dft_matrix(n))))
        worst_transform = max(worst_transform, error)
    transform_ok = worst_transform < MATRIX_TOL

    elapsed = time.perf_counter() - started
    passed = norm_ok and compose_ok and transform_ok and elapsed < SWEEP_TIME_BUDGET_S
    _report(
        "long random circuits stay normalized, adders compose, transform is exact",
        passed,
        f"norm_drift={worst_norm:.3e}, compose_gap={worst_fidelity_gap:.3e}, "
        f"transform_error={worst_transform:.3e}, elapsed={elapsed:.1f}s",
    )
    assert passed


def test_every_reported_figure_is_reproducible_from_the_code():
    # nothing here is measured data: every published number is a gate tally
    # recomputed from freshly built circuits, so reproduction is exact
    passed = True
    for n in range(1, 17):
        adder = count_gates(const_adder_circuit(n, 1)).counted_total
        passed = passed and adder == 2 * count_gates(qft_circuit(n)).counted_total + n
    rows = complexity_table(16)
    for row in rows:
        n = row.n_qubits
        passed = passed and row.const_adder_ops == n * n + 2 * n
        passed = passed and row.register_adder_inner_ops == n * (n + 1) // 2
        passed = passed and row.swaps_per_transform == n // 2
    _report(
        "all reported figures are closed-form tallies, recomputed exactly",
        passed,
        "no empirical measurements to replay; identity T(N) = 2*transform(N) + N holds 1..16",
    )
    assert passed
