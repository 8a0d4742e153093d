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
    Circuit,
    ConstAdderSpec,
    DraperAdderSpec,
    basis_state,
    const_adder_circuit,
    draper_adder_circuit,
    modularity_errors,
    phase,
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
    """The distance ||out - e_target||_2 of one run on |value> from |target>."""
    state = basis_state(circuit.n_qubits, value)
    run_circuit(circuit, state)
    difference = state.amplitudes.copy()
    difference[target] -= 1.0
    parts = difference.view(np.float64)
    return float(np.sqrt(np.einsum("i,i->", parts, parts)))


def worse(error, worst):
    """The pick rule, one comparison at a time: a first NaN stays, else a NaN or a larger error wins."""
    return not math.isnan(worst) and (math.isnan(error) or error > worst)


def reference_const_reports(n_max, tol=1e-10):
    """One run per (a, c), the worst picked one error at a time."""
    reports = []
    for n in range(1, n_max + 1):
        dim = 1 << n
        worst, worst_c = -np.inf, 0
        for c in range(dim):
            circuit = const_adder_circuit(ConstAdderSpec(n, c))
            for a in range(dim):
                error = basis_error(circuit, a, (a + c) % dim)
                if worse(error, worst):
                    worst, worst_c = error, c
        reports.append(CheckReport("const-adder-exhaustive", n, worst_c, worst, worst < tol))
    return reports


def reference_draper_reports(n_max, tol=1e-10):
    reports = []
    for n in range(1, n_max + 1):
        dim = 1 << n
        circuit = draper_adder_circuit(DraperAdderSpec(n))
        worst, worst_input = -np.inf, 0
        for b in range(dim):
            for a in range(dim):
                error = basis_error(circuit, a + dim * b, a + dim * ((a + b) % dim))
                if worse(error, worst):
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
    """Wrap a batched dense check so that the error it returns at bad_index is NaN."""
    swept = []

    def patched(n_qubits, values):
        values = list(values)
        swept.extend(values)
        errors = check(n_qubits, values)
        if bad_index < len(errors):
            errors[bad_index] = np.nan
        return errors

    return patched, swept


def test_nan_modularity_report_is_the_worst(monkeypatch):
    # x = 1 is the second column checked at n = 1; every other column is near 0
    patched, _ = nan_at(fourieradd.verify.modularity_errors, bad_index=1)
    monkeypatch.setattr(fourieradd.verify, "modularity_errors", patched)
    report = verify_modularity(1)[0]
    assert (report.check, report.c, report.passed) == ("modularity", 1, False)
    assert np.isnan(report.max_error)


def reference_modularity_report(n):
    """The worst of the columns x in [0, 4 * 2**N), checked one at a time and picked one at a time."""
    worst, worst_x = -np.inf, 0
    for x in range(4 << n):
        error = float(modularity_errors(n, [x])[0])
        if worse(error, worst):
            worst, worst_x = error, x
    return CheckReport("modularity", n, worst_x, worst, worst < 1e-10)


def test_modularity_reports_equal_the_four_fold_column_sweep():
    reports = [report for report in verify_modularity(6) if report.check == "modularity"]
    expected = [reference_modularity_report(n) for n in range(1, 7)]
    assert reports == expected
    assert [r.max_error.hex() for r in reports] == [r.max_error.hex() for r in expected]


def test_modularity_checks_each_column_below_two_to_the_n_once(monkeypatch):
    calls = []
    check = fourieradd.verify.modularity_errors

    def recording_check(n_qubits, xs):
        calls.append((n_qubits, list(xs)))
        return check(n_qubits, xs)

    monkeypatch.setattr(fourieradd.verify, "modularity_errors", recording_check)
    verify_modularity(5)
    # one batched call per width, over every column below 2**N in order
    assert calls == [(n, list(range(1 << n))) for n in range(1, 6)]


def test_nan_equivalence_report_is_the_worst(monkeypatch):
    patched, constants = nan_at(fourieradd.verify.phase_adder_equivalence_errors, bad_index=1)
    monkeypatch.setattr(fourieradd.verify, "phase_adder_equivalence_errors", patched)
    report = verify_equivalence(1)[0]
    assert (report.check, report.c, report.passed) == ("phase-adder-equivalence", constants[1], False)
    assert np.isnan(report.max_error)


def test_worst_report_is_the_first_of_equal_errors(monkeypatch):
    # every x gives the same error, so the report is the one for x = 0
    monkeypatch.setattr(fourieradd.verify, "modularity_errors", lambda n_qubits, xs: np.full(len(xs), 0.5))
    assert verify_modularity(2)[0].c == 0


def test_constant_shift_scores_each_distinct_adder_once(monkeypatch):
    # the adders for c and c + 2**N build the same gate list, so only c's runs
    scored = []
    errors = fourieradd.verify._errors

    def recording_errors(blocks, targets):
        scored.append(targets[0])
        return errors(blocks, targets)

    monkeypatch.setattr(fourieradd.verify, "_errors", recording_errors)
    reports = verify_modularity(4)
    assert all(report.passed for report in reports)
    # targets[0] = 0 + c: at n = 1 the constants 0, 1, 1, 1 repeat, at n = 2 none does
    assert scored == [0, 1, 0, 1, 2, 3, 0, 1, 4, 7, 0, 1, 8, 15]


def test_constant_shift_runs_an_adder_whose_gates_differ(monkeypatch):
    # an adder for c + 2**N that does not repeat c's gates is run and scored on its own
    original = fourieradd.verify.const_adder_circuit

    def wrong_when_shifted(spec):
        circuit = original(spec)
        if spec.constant >= 1 << spec.n_qubits:
            return Circuit(circuit.n_qubits, circuit.gates + (phase(1, 0.3),))
        return circuit

    monkeypatch.setattr(fourieradd.verify, "const_adder_circuit", wrong_when_shifted)
    report = verify_modularity(3)[-1]
    assert (report.check, report.c, report.passed) == ("modular-constant-shift", 0, False)
    assert report.max_error > 0.1


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
        ([0.2, float("nan"), 0.5, float("nan")], (float("nan"), 1)),  # the first NaN wins
        ([float("nan"), float("nan")], (float("nan"), 0)),
        ([-1.0, -0.5, -0.5], (-0.5, 1)),  # no floor: a negative worst is reported as it is
        ([0.0, 0.0, 1e-300], (1e-300, 2)),
    ],
)
def test_first_worst_selection_rule(errors, expected):
    # each error is the value's own, so the report's c is the picked index
    report = fourieradd.verify._report("check", 1, range(len(errors)), np.array(errors), 1e-10)
    worst, index = expected
    assert report.c == index
    assert report.max_error == worst or math.isnan(report.max_error) and math.isnan(worst)
    assert report.passed == (worst < 1e-10)


def test_report_maps_an_error_to_the_value_that_owns_its_run():
    # two entries per value: entry 5 belongs to the third value
    errors = np.array([0.0, 0.1, 0.2, 0.0, 0.0, 0.4, 0.4, 0.0])
    assert fourieradd.verify._report("check", 1, [10, 20, 30, 40], errors, 1.0).c == 30


def test_const_sweep_reports_the_constant_of_the_first_worst_entry(monkeypatch):
    # c-major errors at n = 2: equal errors at (c=1, a=3) and (c=2, a=0), but a NaN at (c=2, a=2)
    per_constant = {1: [0.0, 0.1, 0.0, 0.5], 2: [0.5, 0.0, float("nan"), 0.0]}

    def scored(blocks, targets):
        if len(targets) == 2:
            return np.zeros(2)
        return np.array(per_constant.get(int(targets[0]), [0.0] * 4))  # targets[0] = 0 + c

    monkeypatch.setattr(fourieradd.verify, "_errors", scored)
    report = verify_const_adder(2)[1]
    assert (report.c, report.passed) == (2, False)
    assert math.isnan(report.max_error)
    per_constant[2][2] = 0.0  # without the NaN, c=1 comes first
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
