"""The exhaustive sweeps run their inputs in batches; their reports must not change."""

import math
import tracemalloc

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
    modularity_reports,
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
    # every block is filled into one work state, so runs are told apart by width alone
    widths = set()
    original = fourieradd.circuits.apply_hadamard

    def recording_hadamard(state, target):
        widths.add(state.n_qubits)
        original(state, target)

    monkeypatch.setattr(fourieradd.circuits, "apply_hadamard", recording_hadamard)
    assert run_cli(["verify", "--suite", "draper", "--n-max", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all 5 checks passed"
    assert max(1 << n for n in widths) == BATCH_AMPLITUDES  # width 5's 2**10 inputs fill the cap


def test_draper_sweep_peak_memory_stays_below_three_batches():
    # a batch is BATCH_AMPLITUDES amplitudes (1 MiB): the work state is one, and beside it run
    # either the Hadamard's two half-state temporaries or the block's output copy; a sweep that
    # kept each block's copy alive while the next ran peaked at 3.46 MB, and building all
    # 4**5 rows of 4**5 amplitudes at once would take 16 MiB
    verify_draper(5)
    tracemalloc.start()
    try:
        assert all(report.passed for report in verify_draper(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 16 * BATCH_AMPLITUDES


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


def nan_at(check, bad_index):
    """Wrap a batched dense check so that the report it returns at bad_index carries a NaN error."""
    swept = []

    def patched(n_qubits, values, tol):
        values = list(values)
        swept.extend(values)
        reports = check(n_qubits, values, tol=tol)
        if bad_index < len(reports):
            report = reports[bad_index]
            reports[bad_index] = CheckReport(report.check, n_qubits, report.c, float("nan"), False)
        return reports

    return patched, swept


def test_nan_modularity_report_is_the_worst(monkeypatch):
    # x = 1 is the second column checked at n = 1; every other column is near 0
    patched, _ = nan_at(fourieradd.verify.modularity_reports, bad_index=1)
    monkeypatch.setattr(fourieradd.verify, "modularity_reports", patched)
    report = verify_modularity(1)[0]
    assert (report.check, report.c, report.passed) == ("modularity", 1, False)
    assert np.isnan(report.max_error)


def reference_modularity_report(n):
    """The first worst of the columns x in [0, 4 * 2**N): a strictly greater error wins."""
    worst = None
    for x in range(4 << n):
        report = modularity_reports(n, [x])[0]
        if worst is None or report.max_error > worst.max_error:
            worst = report
    return worst


def test_modularity_reports_equal_the_four_fold_column_sweep():
    reports = [report for report in verify_modularity(6) if report.check == "modularity"]
    expected = [reference_modularity_report(n) for n in range(1, 7)]
    assert reports == expected
    assert [r.max_error.hex() for r in reports] == [r.max_error.hex() for r in expected]


def test_modularity_checks_each_column_below_two_to_the_n_once(monkeypatch):
    calls = []
    check = fourieradd.verify.modularity_reports

    def recording_check(n_qubits, xs, tol):
        calls.append((n_qubits, list(xs)))
        return check(n_qubits, xs, tol=tol)

    monkeypatch.setattr(fourieradd.verify, "modularity_reports", recording_check)
    verify_modularity(5)
    # one batched call per width, over every column below 2**N in order
    assert calls == [(n, list(range(1 << n))) for n in range(1, 6)]


def test_nan_equivalence_report_is_the_worst(monkeypatch):
    patched, constants = nan_at(fourieradd.verify.phase_adder_equivalence_reports, bad_index=1)
    monkeypatch.setattr(fourieradd.verify, "phase_adder_equivalence_reports", patched)
    report = verify_equivalence(1)[0]
    assert (report.check, report.c, report.passed) == ("phase-adder-equivalence", constants[1], False)
    assert np.isnan(report.max_error)


def test_worst_report_is_the_first_of_equal_errors(monkeypatch):
    # every x gives the same error, so the report is the one for x = 0
    monkeypatch.setattr(
        fourieradd.verify,
        "modularity_reports",
        lambda n_qubits, xs, tol: [CheckReport("modularity", n_qubits, x, 0.5, False) for x in xs],
    )
    assert verify_modularity(2)[0].c == 0


def test_the_const_sweep_builds_each_width_transform_once(monkeypatch, capsys):
    # with no transform built yet, each width's qft_circuit adds one Hadamard per qubit
    built = []
    original = fourieradd.circuits.hadamard

    def counted_hadamard(target):
        built.append(target)
        return original(target)

    monkeypatch.setattr(fourieradd.circuits, "_TRANSFORMS", {})
    monkeypatch.setattr(fourieradd.circuits, "hadamard", counted_hadamard)
    assert run_cli(["verify", "--suite", "const", "--n-max", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all 5 checks passed"
    assert sorted(built) == sorted(target for n in range(1, 6) for target in range(1, n + 1))


@pytest.mark.parametrize(
    "errors, expected",
    [
        ([0.1, 0.3, 0.2, 0.3], (0.3, 1)),  # the first of equal errors wins
        ([float("nan"), 0.2, float("nan")], (0.2, 1)),  # NaN is never picked
        ([float("nan"), float("nan")], (0.0, 0)),
        ([-1.0, 0.0, -0.0], (0.0, 0)),  # nothing above 0.0
        ([-0.5, 0.0, 1e-300], (1e-300, 2)),
    ],
)
def test_first_worst_selection_rule(errors, expected):
    worst, index = fourieradd.verify._first_worst(np.array(errors))
    assert (worst, index) == expected
    assert math.copysign(1.0, worst) == 1.0


def test_const_sweep_reports_the_constant_of_the_first_worst_entry(monkeypatch):
    # c-major errors at n = 2: equal errors at (c=1, a=3) and (c=2, a=0); c=1 comes first
    per_constant = {1: [0.0, 0.1, 0.0, 0.5], 2: [0.5, 0.0, float("nan"), 0.0]}

    def scored(blocks, targets):
        if len(targets) == 2:
            return np.zeros(2)
        return np.array(per_constant.get(int(targets[0]), [0.0] * 4))  # targets[0] = 0 + c

    monkeypatch.setattr(fourieradd.verify, "_errors", scored)
    report = verify_const_adder(2)[1]
    assert (report.c, report.max_error, report.passed) == (1, 0.5, False)


def transform_gates(n):
    """Gates of one unfused transform: n Hadamards, n(n-1)/2 controlled phases, n//2 swaps."""
    return n * (n + 1) // 2 + n // 2


QUBIT_ARGS = {"apply_hadamard": 1, "apply_phase": 1, "apply_controlled_phase": 2, "apply_swap": 2}


def record_batched_calls(monkeypatch):
    """Per kernel call of a sweep: its state width and how many index qubits sit below the circuit.

    The circuit width comes from the run_filled call that the sweep's run_on_basis,
    run_on_states or own fill goes through; each call also records the lowest qubit the
    kernel addresses.
    """
    calls = []
    circuit_width = []
    run_filled = fourieradd.circuits.run_filled

    def recorded_run_filled(circuit, count, fill):
        circuit_width.append(circuit.n_qubits)
        return run_filled(circuit, count, fill)

    for module in (fourieradd.circuits, fourieradd.verify):
        monkeypatch.setattr(module, "run_filled", recorded_run_filled)
    for name, count in QUBIT_ARGS.items():
        original = getattr(fourieradd.circuits, name)

        def recorded(state, *args, original=original, count=count):
            calls.append((state.n_qubits, state.n_qubits - circuit_width[-1], min(args[:count])))
            original(state, *args)

        monkeypatch.setattr(fourieradd.circuits, name, recorded)
    return calls


@pytest.mark.parametrize(
    "sweep, n_max, gates",
    [
        # the transform once on 2**n inputs of 2**n amplitudes, then for each of 2**n
        # constants the n rotations and the inverse on the same inputs
        (
            verify_const_adder,
            4,
            lambda n: (transform_gates(n) << 2 * n) + ((transform_gates(n) + n) << 3 * n),
        ),
        # the transform once on 2**n inputs of 2**n amplitudes, then the n(n+1)/2 controlled
        # rotations and the inverse on 4**n inputs of 4**n amplitudes
        (
            verify_draper,
            3,
            lambda n: (transform_gates(n) << 2 * n) + ((transform_gates(n) + n * (n + 1) // 2) << 4 * n),
        ),
    ],
    ids=["const", "draper"],
)
def test_batches_do_the_unbatched_work_above_their_index_qubits(monkeypatch, sweep, n_max, gates):
    calls = record_batched_calls(monkeypatch)
    assert all(report.passed for report in sweep(n_max))
    assert sum(1 << width for width, _, _ in calls) == sum(gates(n) for n in range(1, n_max + 1))
    batched = [(index_qubits, lowest) for _, index_qubits, lowest in calls if index_qubits >= 1]
    assert batched  # every width from BATCH_MIN_QUBITS up runs in batches
    assert all(lowest > index_qubits for index_qubits, lowest in batched)
