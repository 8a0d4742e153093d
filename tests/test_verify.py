"""The exhaustive sweeps run their inputs in batches; their reports must not change."""

import numpy as np
import pytest

import fourieradd.circuits
import fourieradd.verify
from fourieradd import (
    BATCH_AMPLITUDES,
    CheckReport,
    ConstAdderSpec,
    DraperAdderSpec,
    basis_state,
    const_adder_circuit,
    draper_adder_circuit,
    run_circuit,
    verify_const_adder,
    verify_draper,
    verify_equivalence,
    verify_modularity,
)
from fourieradd.cli import main


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse reports usage errors by exiting
        return exc.code


def basis_error(circuit, value, target):
    """Larger of the infidelity with |target> and the mass off it, from one run on |value>."""
    state = basis_state(circuit.n_qubits, value)
    run_circuit(circuit, state)
    amplitudes = state.amplitudes
    on_target = abs(amplitudes[target]) ** 2
    off_target = float(np.vdot(amplitudes, amplitudes).real) - on_target
    return max(1.0 - on_target, off_target)


def reference_const_reports(n_max, tol=1e-10):
    """One run per (a, c); a strictly greater error wins, so the first of equal errors is kept."""
    reports = []
    for n in range(1, n_max + 1):
        dim = 1 << n
        worst, worst_c = 0.0, 0
        for c in range(dim):
            circuit = const_adder_circuit(ConstAdderSpec(n, c))
            for a in range(dim):
                error = basis_error(circuit, a, (a + c) % dim)
                if error > worst:
                    worst, worst_c = error, c
        reports.append(CheckReport("const-adder-exhaustive", n, worst_c, worst, worst < tol))
    return reports


def reference_draper_reports(n_max, tol=1e-10):
    reports = []
    for n in range(1, n_max + 1):
        dim = 1 << n
        circuit = draper_adder_circuit(DraperAdderSpec(n))
        worst, worst_input = 0.0, 0
        for b in range(dim):
            for a in range(dim):
                error = basis_error(circuit, a + dim * b, a + dim * ((a + b) % dim))
                if error > worst:
                    worst, worst_input = error, a + dim * b
        reports.append(CheckReport("register-adder-exhaustive", n, worst_input, worst, worst < tol))
    return reports


def report_line(report):
    status = "pass" if report.passed else "FAIL"
    return f"{report.check}  n={report.n_qubits}  c={report.c}  max_error={report.max_error:.3e}  {status}"


@pytest.mark.parametrize(
    "sweep, reference, n_max",
    [(verify_const_adder, reference_const_reports, 6), (verify_draper, reference_draper_reports, 4)],
)
def test_batched_sweep_reports_equal_a_run_per_input(sweep, reference, n_max):
    expected = reference(n_max)
    reports = sweep(n_max)
    assert reports == expected
    assert [report_line(r) for r in reports] == [report_line(r) for r in expected]
    assert [r.max_error for r in reports] == [r.max_error for r in expected]  # bit for bit


def test_no_run_of_the_draper_sweep_exceeds_the_batch_cap(monkeypatch, capsys):
    widths = []
    original = fourieradd.circuits.run_circuit

    def recording_run_circuit(circuit, state):
        widths.append(state.n_qubits)
        original(circuit, state)

    monkeypatch.setattr(fourieradd.circuits, "run_circuit", recording_run_circuit)
    assert run_cli(["verify", "--suite", "draper", "--n-max", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all 5 checks passed"
    assert max(1 << n for n in widths) <= BATCH_AMPLITUDES
    # 4 + 16 + 64 + 256 + 1024 inputs take 23 runs: only widths 1 and 5 need more than one
    assert len(widths) == 4 + 1 + 1 + 1 + 16


def test_nan_kernel_fails_the_constant_shift_check(monkeypatch, capsys):
    original = fourieradd.circuits.apply_hadamard

    def nan_hadamard(state, target):
        original(state, target)
        state.amplitudes[:] = np.nan

    monkeypatch.setattr(fourieradd.circuits, "apply_hadamard", nan_hadamard)
    assert run_cli(["verify", "--suite", "modularity", "--n-max", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    shift_rows = [line for line in lines if line.startswith("modular-constant-shift")]
    assert len(shift_rows) == 3
    assert all(line.endswith("max_error=nan  FAIL") for line in shift_rows)
    assert lines[-1] == "3 of 6 checks FAILED"


def nan_on_call(check, bad_call):
    """Wrap a dense check so that its report on call number bad_call carries a NaN error."""
    calls = []

    def patched(n_qubits, swept, tol):
        calls.append(swept)
        report = check(n_qubits, swept, tol=tol)
        if len(calls) != bad_call:
            return report
        return CheckReport(report.check, n_qubits, swept, float("nan"), False)

    return patched, calls


def test_nan_modularity_report_is_the_worst(monkeypatch):
    # x = 3 is the fourth column checked at n = 1; every other column is near 0
    patched, _ = nan_on_call(fourieradd.verify.check_modularity, bad_call=4)
    monkeypatch.setattr(fourieradd.verify, "check_modularity", patched)
    report = verify_modularity(1)[0]
    assert (report.check, report.c, report.passed) == ("modularity", 3, False)
    assert np.isnan(report.max_error)


def test_nan_equivalence_report_is_the_worst(monkeypatch):
    patched, constants = nan_on_call(
        fourieradd.verify.check_phase_adder_equivalence, bad_call=2
    )
    monkeypatch.setattr(fourieradd.verify, "check_phase_adder_equivalence", patched)
    report = verify_equivalence(1)[0]
    assert (report.check, report.c, report.passed) == ("phase-adder-equivalence", constants[1], False)
    assert np.isnan(report.max_error)


def test_worst_report_is_the_first_of_equal_errors(monkeypatch):
    # every x gives the same error, so the report is the one for x = 0
    monkeypatch.setattr(
        fourieradd.verify,
        "check_modularity",
        lambda n_qubits, x, tol: CheckReport("modularity", n_qubits, x, 0.5, False),
    )
    assert verify_modularity(2)[0].c == 0


def transform_gates(n):
    """Gates of one unfused transform: n Hadamards, n(n-1)/2 controlled phases, n//2 swaps."""
    return n * (n + 1) // 2 + n // 2


QUBIT_ARGS = {"apply_hadamard": 1, "apply_phase": 1, "apply_controlled_phase": 2, "apply_swap": 2}


def record_batched_calls(monkeypatch):
    """Per kernel call of a sweep: its state width and how many index qubits sit below the circuit.

    The circuit width comes from the sweep's run_on_basis call; each call also records the
    lowest qubit the kernel addresses.
    """
    calls = []
    circuit_width = []
    run_on_basis = fourieradd.verify.run_on_basis

    def recorded_run_on_basis(circuit, inputs):
        circuit_width.append(circuit.n_qubits)
        return run_on_basis(circuit, inputs)

    monkeypatch.setattr(fourieradd.verify, "run_on_basis", recorded_run_on_basis)
    for name, count in QUBIT_ARGS.items():
        original = getattr(fourieradd.circuits, name)

        def recorded(state, *args, original=original, count=count):
            calls.append((state.n_qubits, state.n_qubits - circuit_width[-1], min(args[:count])))
            original(state, *args)

        monkeypatch.setattr(fourieradd.circuits, name, recorded)
    return calls


@pytest.mark.parametrize(
    "sweep, n_max, gates, shift",
    [
        # 2**n constants x 2**n inputs, each on 2**n amplitudes
        (verify_const_adder, 4, lambda n: 2 * transform_gates(n) + n, 3),
        # 4**n inputs, each on 4**n amplitudes
        (verify_draper, 3, lambda n: 2 * transform_gates(n) + n * (n + 1) // 2, 4),
    ],
    ids=["const", "draper"],
)
def test_batches_do_the_unbatched_work_above_their_index_qubits(monkeypatch, sweep, n_max, gates, shift):
    calls = record_batched_calls(monkeypatch)
    assert all(report.passed for report in sweep(n_max))
    assert sum(1 << width for width, _, _ in calls) == sum(gates(n) << (shift * n) for n in range(1, n_max + 1))
    batched = [(index_qubits, lowest) for _, index_qubits, lowest in calls if index_qubits >= 1]
    assert batched  # every width from BATCH_MIN_QUBITS up runs in batches
    assert all(lowest > index_qubits for index_qubits, lowest in batched)
