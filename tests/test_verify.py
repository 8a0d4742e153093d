"""The exhaustive sweeps run their inputs in batches; their reports must agree with a run per input."""

import math
import tracemalloc

import numpy as np
import pytest

import fourieradd.circuits
import fourieradd.verify
from fourieradd import (
    BATCH_AMPLITUDES,
    DEFAULT_TOL,
    CheckReport,
    Circuit,
    Gate,
    StateVector,
    basis_state,
    concat,
    const_adder_circuit,
    draper_adder_circuit,
    draper_inner_circuit,
    inverse_qft_circuit,
    phase,
    phase_adder_circuit,
    qft_circuit,
    shift_qubits,
    swap,
    verify_const_adder,
    verify_draper,
    verify_equivalence,
    verify_modularity,
)
from fourieradd.cli import SWEEP_CHARGES, main
from oracles import dft_matrix, fourier_column, run_gate_by_gate


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse reports usage errors by exiting
        return exc.code


def basis_error(circuit, value, target):
    """The distance ||out - e_target||_2 of one gate-by-gate run on |value> from |target>."""
    return run_error(circuit, basis_state(circuit.n_qubits, value), target)


def run_error(circuit, state, target):
    """The distance ||out - e_target||_2 of one gate-by-gate run on the state from |target>."""
    run_gate_by_gate(circuit, state)
    difference = state.amplitudes.copy()
    difference[target] -= 1.0
    parts = difference.view(np.float64)
    return float(np.sqrt(np.einsum("i,i->", parts, parts)))


def worse(error, worst):
    """The pick rule, one comparison at a time: a first NaN stays, else a NaN or a larger error wins."""
    return not math.isnan(worst) and (math.isnan(error) or error > worst)


def reference_const_reports(n_max, tol=1e-10):
    """One gate-by-gate run per (a, c), the worst picked one error at a time."""
    reports = []
    for n in range(1, n_max + 1):
        dim = 1 << n
        worst, worst_c = -np.inf, 0
        for c in range(dim):
            circuit = const_adder_circuit(n, c)
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
        circuit = draper_adder_circuit(n)
        worst, worst_input = -np.inf, 0
        for b in range(dim):
            for a in range(dim):
                error = basis_error(circuit, a + dim * b, a + dim * ((a + b) % dim))
                if worse(error, worst):
                    worst, worst_input = error, a + dim * b
        reports.append(CheckReport("register-adder-exhaustive", n, worst_input, worst, worst < tol))
    return reports


def reference_modularity_reports(n_max, fold=1, tol=1e-10):
    """The inverse transform run gate by gate on the closed-form Fourier column of each x in [0, fold * 2**N)."""
    reports = []
    for n in range(1, n_max + 1):
        dim = 1 << n
        worst, worst_x = -np.inf, 0
        for x in range(fold * dim):
            error = run_error(inverse_qft_circuit(n), StateVector(n, fourier_column(n, x)), x % dim)
            if worse(error, worst):
                worst, worst_x = error, x
        reports.append(CheckReport("modularity", n, worst_x, worst, worst < tol))
    return reports


def modularity_column_reports(n_max):
    return [report for report in verify_modularity(n_max) if report.check == "modularity"]


@pytest.mark.parametrize(
    "sweep, reference, n_max",
    [
        (verify_const_adder, reference_const_reports, 6),
        (verify_draper, reference_draper_reports, 4),
        (modularity_column_reports, reference_modularity_reports, 6),
    ],
)
def test_batched_sweep_reports_equal_a_run_per_input(sweep, reference, n_max):
    # the batches run the plan and the reference the gates one by one, so the errors are
    # rounding noise of each and the worst input may differ; the verdicts and the check may not
    expected = reference(n_max)
    reports = sweep(n_max)
    assert [(r.check, r.n_qubits, r.passed) for r in reports] == [
        (r.check, r.n_qubits, r.passed) for r in expected
    ]
    assert all(r.passed and 0.0 <= r.max_error < DEFAULT_TOL for r in reports)
    # both worst errors are about 1e-15, so a distance of 1e-13 is a real disagreement
    assert all(abs(r.max_error - e.max_error) < 1e-13 for r, e in zip(reports, expected))


def test_no_run_of_the_draper_sweep_exceeds_the_batch_cap(monkeypatch, capsys):
    # every block is filled into one work state, so runs are told apart by width alone
    widths = set()
    original = fourieradd.circuits.apply_dense

    def recording_dense(state, *args):
        widths.add(state.n_qubits)
        original(state, *args)

    monkeypatch.setattr(fourieradd.circuits, "apply_dense", recording_dense)
    assert run_cli(["verify", "--suite", "draper", "--n-max", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all 5 checks passed"
    assert max(1 << n for n in widths) == BATCH_AMPLITUDES  # width 5's 2**10 inputs fill the cap


def test_draper_sweep_peak_memory_stays_below_three_batches():
    # a batch is BATCH_AMPLITUDES amplitudes (1 MiB): the work state is one, and beside it run
    # either a dense step's block-sized scratch or the block's output copy; a sweep that
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


def test_const_sweep_peak_memory_stays_within_its_charge():
    # per entry of its 4**8 inputs the sweep holds the width's transform columns (16 bytes) and
    # its scores twice (8 bytes each), which the command line charges before it runs; beside
    # them run at most three batches, as in the draper sweep; it peaks at about 4.5 MiB
    tracemalloc.start()
    try:
        errors = fourieradd.verify._const_errors(8, range(256))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(errors < DEFAULT_TOL)
    assert peak <= (SWEEP_CHARGES["const"][0] << 16) + 3 * 16 * BATCH_AMPLITUDES


def test_modularity_peak_memory_stays_within_its_charge():
    # the constant-shift rows hold the width's transform columns and scores as the const sweep
    # does, charged at the same 32 bytes per entry of 4**N; at 9 qubits it peaks at about 6.9 MB
    tracemalloc.start()
    try:
        reports = verify_modularity(9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(report.passed for report in reports)
    assert peak <= (SWEEP_CHARGES["modularity"][0] << 18) + 3 * 16 * BATCH_AMPLITUDES


def test_equivalence_peak_memory_stays_within_its_charge():
    # 20 rows of 2**N entries, each with its phase vector, exponents, scaled exponents and
    # omega powers at the peak, charged at 1120 bytes per entry of 2**N; at 14 qubits it peaks
    # at about 18.4 MB
    constants = np.random.default_rng(14).integers(0, 4 << 14, size=20).tolist()
    tracemalloc.start()
    try:
        errors = fourieradd.verify.phase_adder_equivalence_errors(14, constants)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(errors < DEFAULT_TOL)
    bytes_per_entry, k = SWEEP_CHARGES["equivalence"]
    assert peak <= (bytes_per_entry << (k * 14)) + 3 * 16 * BATCH_AMPLITUDES


def test_nan_kernel_fails_the_constant_shift_check(monkeypatch, capsys):
    # NaN from every 2 x 2 apply_dense, which is how each Hadamard of a matrix build runs
    original = fourieradd.circuits.apply_dense

    def nan_hadamard(state, matrix, low, out=None):
        original(state, matrix, low, out)
        if matrix.shape == (2, 2):
            state.amplitudes[:] = np.nan

    monkeypatch.setattr(fourieradd.circuits, "apply_dense", nan_hadamard)
    assert run_cli(["verify", "--suite", "modularity", "--n-max", "3"]) == 1
    *rows, summary = capsys.readouterr().out.splitlines()
    # the column rows run the built inverse transform, so they fail as the shift rows do
    assert [row.split()[0] for row in rows] == ["modularity", "modular-constant-shift"] * 3
    assert all(row.endswith("max_error=nan  FAIL") for row in rows)
    assert summary == "6 of 6 checks FAILED"


def nan_at(check, bad_index):
    """Wrap a batched check so that the error it returns at bad_index is NaN; record the arguments of each call."""
    calls = []

    def patched(*args):
        calls.append(args)
        errors = check(*args)
        if bad_index < len(errors):
            errors[bad_index] = np.nan
        return errors

    return patched, calls


def test_nan_modularity_report_is_the_worst(monkeypatch):
    # x = 2 is the third column scored at n = 2; every other column is near 0, the largest at x = 1
    patched, _ = nan_at(fourieradd.verify._errors, bad_index=2)
    monkeypatch.setattr(fourieradd.verify, "_errors", patched)
    report = verify_modularity(2)[2]
    assert (report.check, report.c, report.passed) == ("modularity", 2, False)
    assert np.isnan(report.max_error)


def test_modularity_reports_equal_the_four_fold_column_sweep():
    # the columns of x and x + 2**N are the same column, so sweeping four turns of x finds
    # no other verdict; both runs are rounding noise apart, as in the batched-sweep test
    reports = modularity_column_reports(6)
    expected = reference_modularity_reports(6, fold=4)
    assert [(r.n_qubits, r.passed) for r in reports] == [(r.n_qubits, r.passed) for r in expected]
    assert all(r.passed and r.c < 1 << r.n_qubits for r in reports)
    assert all(abs(r.max_error - e.max_error) < 1e-13 for r, e in zip(reports, expected))


def test_modularity_checks_each_column_below_two_to_the_n_once(monkeypatch):
    runs = []
    run_filled = fourieradd.verify.run_filled

    def recording_run_filled(circuit, count, fill):
        columns = []
        runs.append((circuit, count, columns))

        def recording_fill(start, block):
            fill(start, block)
            columns.append(block.copy())

        return run_filled(circuit, count, recording_fill)

    monkeypatch.setattr(fourieradd.verify, "run_filled", recording_run_filled)
    verify_modularity(5)
    # the column runs: one per width, of the built inverse transform on every closed-form column
    # below 2**N in order; the constant-shift rows' run of the same circuit has at least 2 * 2**N inputs
    column_runs = [(circuit, count, columns) for circuit, count, columns in runs if count == 2**circuit.n_qubits]
    expected = [(inverse_qft_circuit(n), 1 << n) for n in range(1, 6)]
    assert [(circuit, count) for circuit, count, _ in column_runs] == expected
    for n, (_, _, columns) in enumerate(column_runs, start=1):
        np.testing.assert_allclose(np.concatenate(columns, axis=1), dft_matrix(n), rtol=0, atol=1e-15)


def test_nan_equivalence_report_is_the_worst(monkeypatch):
    patched, calls = nan_at(fourieradd.verify.phase_adder_equivalence_errors, bad_index=1)
    monkeypatch.setattr(fourieradd.verify, "phase_adder_equivalence_errors", patched)
    report = verify_equivalence(1)[0]
    [(_, constants)] = calls
    assert (report.check, report.c, report.passed) == ("phase-adder-equivalence", constants[1], False)
    assert np.isnan(report.max_error)


def test_worst_report_is_the_first_of_equal_errors(monkeypatch):
    # every x gives the same error, so the report is the one for x = 0
    monkeypatch.setattr(fourieradd.verify, "_errors", lambda blocks, count, target: np.full(count, 0.5))
    assert verify_modularity(2)[0].c == 0


def test_constant_shift_scores_each_distinct_adder_once(monkeypatch):
    # the adders for c and c + 2**N build the same gate list, so only c's inputs run
    scored = []
    errors = fourieradd.verify._errors

    def recording_errors(blocks, count, target):
        scored.append(target(np.arange(count)).tolist())
        return errors(blocks, count, target)

    monkeypatch.setattr(fourieradd.verify, "_errors", recording_errors)
    reports = verify_modularity(4)
    assert all(report.passed for report in reports)
    # each width first scores its columns (targets 0..2**N - 1), then, in one run, the inputs of
    # its distinct adders in order, a + c mod 2**N for each: at n = 1 the constants 0, 1, 1, 1
    # repeat, at n = 2 none does
    expected = []
    for n, constants in zip(range(1, 5), [(0, 1), (0, 1, 2, 3), (0, 1, 4, 7), (0, 1, 8, 15)]):
        dim = 1 << n
        expected += [list(range(dim)), [(a + c) % dim for c in constants for a in range(dim)]]
    assert scored == expected


def test_constant_shift_runs_an_adder_whose_gates_differ(monkeypatch):
    # an adder for c + 2**N that does not repeat c's gates is run and scored on its own
    original = fourieradd.verify.const_adder_circuit

    def wrong_when_shifted(n, c):
        circuit = original(n, c)
        if c >= 1 << n:
            return Circuit(circuit.n_qubits, circuit.gates + (phase(1, 0.3),))
        return circuit

    monkeypatch.setattr(fourieradd.verify, "const_adder_circuit", wrong_when_shifted)
    report = verify_modularity(3)[-1]
    assert (report.check, report.c, report.passed) == ("modular-constant-shift", 0, False)
    assert report.max_error > 0.1


def test_constant_shift_scores_a_diagonal_stage_whose_angles_differ_on_its_own(monkeypatch):
    # for c + 2**N, one rotation of the stage is 0.3 rad off: the adder keeps the shared shape and
    # c's residue, but not c's gates, so it joins the shared run as a stage of its own and fails
    original = fourieradd.verify.const_adder_circuit

    def off_when_shifted(n, c):
        if c < 1 << n:
            return original(n, c)
        first, *rest = phase_adder_circuit(n, c).gates
        stage = Circuit(n, (phase(1, first.angle + 0.3), *rest))
        return concat(qft_circuit(n), stage, inverse_qft_circuit(n))

    scored = []
    errors = fourieradd.verify._errors

    def recording_errors(blocks, count, target):
        scored.append(target(np.arange(count)).tolist())
        return errors(blocks, count, target)

    monkeypatch.setattr(fourieradd.verify, "const_adder_circuit", off_when_shifted)
    monkeypatch.setattr(fourieradd.verify, "_errors", recording_errors)
    reports = verify_modularity(3)
    assert [report.passed for report in reports] == [True, False] * 3
    expected = []
    for n in range(1, 4):
        dim = 1 << n
        constants = [c + turn for c in (0, 1, dim // 2, dim - 1) for turn in (0, dim)]
        # the distinct adders in order: c and c + 2**N apart, a repeat of either scored once
        distinct = list(dict.fromkeys((c % dim, c >= dim) for c in constants))
        expected += [list(range(dim)), [(a + c) % dim for c, _ in distinct for a in range(dim)]]
    assert scored == expected


def test_the_constant_sweeps_hash_no_gate(monkeypatch):
    # a repeated adder is found by its residue and a comparison of gate lists, never by a gate's hash
    calls = []
    original = Gate.__hash__

    def counting(gate):
        calls.append(gate)
        return original(gate)

    monkeypatch.setattr(Gate, "__hash__", counting)
    hash(phase(1, 0.5))
    assert len(calls) == 1
    calls.clear()
    assert all(report.passed for report in verify_const_adder(4) + verify_modularity(4))
    assert calls == []


def test_an_adder_whose_stage_is_not_diagonal_runs_whole(monkeypatch):
    # a swap ahead of the rotations leaves their run on a vector of ones as it was, so only a run
    # of the whole adder shows that it no longer adds c
    def swapped_stage(n, c):
        stage = phase_adder_circuit(n, c).gates
        if n > 1:
            stage = (swap(1, 2),) + stage
        return concat(qft_circuit(n), Circuit(n, stage), inverse_qft_circuit(n))

    monkeypatch.setattr(fourieradd.verify, "const_adder_circuit", swapped_stage)
    assert [report.passed for report in verify_const_adder(3)] == [True, False, False]


def test_the_const_sweep_builds_each_width_transform_once(capsys):
    # with no transform built yet, each width's gate list is built once: one cache miss per width
    transforms = (fourieradd.circuits.qft_circuit, fourieradd.circuits.inverse_qft_circuit)
    for transform in transforms:
        transform.cache_clear()
    assert run_cli(["verify", "--suite", "const", "--n-max", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all 5 checks passed"
    assert [transform.cache_info().misses for transform in transforms] == [5, 5]


def test_the_const_sweep_builds_as_many_matrices_as_one_constant_per_width(monkeypatch, capsys):
    # each width compiles the plans of its transform and of its inverse once, whatever the number of
    # constants: the adders differ only in their diagonal stages, whose plans build no matrix
    builds = []
    dense = fourieradd.circuits._dense

    def counted_dense(cluster, low, top):
        builds.append((low, top))
        return dense(cluster, low, top)

    monkeypatch.setattr(fourieradd.circuits, "_dense", counted_dense)
    assert run_cli(["verify", "--suite", "const", "--n-max", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "all 5 checks passed"
    sweep = len(builds)
    builds.clear()
    for n in range(1, 6):
        assert np.all(fourieradd.verify._const_errors(n, [3]) < DEFAULT_TOL)
    assert sweep == len(builds)


def test_blocks_narrower_than_one_adder_give_the_same_reports(monkeypatch):
    # with 2**6 amplitudes a batch, the inputs of one 4-qubit adder fill four blocks and those of
    # one 5-qubit adder sixteen, as every adder's do from 9 qubits up at the default batch size;
    # a narrower block can round another way, so an error may move by rounding noise alone
    def sweep():
        errors = [fourieradd.verify._const_errors(n, range(1 << n)) for n in range(1, 6)]
        return errors, verify_const_adder(5) + verify_modularity(5)

    expected_errors, expected = sweep()
    monkeypatch.setattr(fourieradd.circuits, "BATCH_AMPLITUDES", 1 << 6)
    errors, reports = sweep()
    assert all(np.max(np.abs(e - x)) < 1e-15 for e, x in zip(errors, expected_errors))
    assert [(r.check, r.n_qubits, r.passed) for r in reports] == [(r.check, r.n_qubits, r.passed) for r in expected]
    assert all(abs(r.max_error - e.max_error) < 1e-15 for r, e in zip(reports, expected))


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

    def scored(blocks, count, target):
        if count == 4:  # width 1: its two adders' inputs (c, a) target a + c
            return np.zeros(4)
        # width 2: one run of its four adders' inputs, c-major, entry 4 * c + a targeting a + c
        assert target(np.arange(16)).tolist() == [(a + c) % 4 for c in range(4) for a in range(4)]
        return np.array([per_constant.get(c, [0.0] * 4)[a] for c in range(4) for a in range(4)])

    monkeypatch.setattr(fourieradd.verify, "_errors", scored)
    report = verify_const_adder(2)[1]
    assert (report.c, report.passed) == (2, False)
    assert math.isnan(report.max_error)
    per_constant[2][2] = 0.0  # without the NaN, c=1 comes first
    report = verify_const_adder(2)[1]
    assert (report.c, report.max_error, report.passed) == (1, 0.5, False)


def record_batched_calls(monkeypatch):
    """Per plan-kernel call of a sweep: its state width, the index qubits below the circuit and
    the lowest qubit the call addresses; the (circuit, count) of every run_filled call; and the
    circuit of every plan that verify compiles and runs whole while a batch is being filled.

    The circuit width comes from that whole run, else from the run_filled call that the
    sweep's run_on_basis or own fill goes through. The kernel calls made while _dense builds a
    plan's matrices are not plan steps, and are left out.
    """
    calls, runs, wholes, building, filling = [], [], [], [], []
    run_filled, dense, plan = fourieradd.circuits.run_filled, fourieradd.circuits._dense, fourieradd.circuits._plan

    def recorded_run_filled(circuit, count, fill):
        runs.append((circuit, count))

        def recorded_fill(start, block):
            filling.append(True)
            try:
                fill(start, block)
            finally:
                filling.pop()

        return run_filled(circuit, count, recorded_fill)

    def recorded_plan(circuit, offset=0):
        if filling:
            wholes.append(circuit)
        return plan(circuit, offset)

    def recorded_dense(cluster, low, top):
        building.append(True)
        try:
            return dense(cluster, low, top)
        finally:
            building.pop()

    for module in (fourieradd.circuits, fourieradd.verify):
        monkeypatch.setattr(module, "run_filled", recorded_run_filled)
    monkeypatch.setattr(fourieradd.circuits, "_plan", recorded_plan)
    monkeypatch.setattr(fourieradd.circuits, "_dense", recorded_dense)
    for name in ("apply_dense", "apply_diagonal"):
        original = getattr(fourieradd.circuits, name)

        def recorded(state, values, low, extra=None, original=original, name=name):
            control = extra if name == "apply_diagonal" else None
            lowest = low if control is None else min(low, control)
            if not building:
                circuit = wholes[-1] if filling else runs[-1][0]
                calls.append((state.n_qubits, state.n_qubits - circuit.n_qubits, lowest))
            original(state, values, low, extra)

        monkeypatch.setattr(fourieradd.circuits, name, recorded)
    return calls, runs, wholes


def const_sweep_runs(n):
    # the transform once on the 2**n basis inputs, then the inverse once on the inputs of all
    # 2**n adders; each adder's rotations run whole, once, on a vector of ones, for its diagonal
    dim = 1 << n
    stages = [phase_adder_circuit(n, c) for c in range(dim)]
    return [(qft_circuit(n), dim), (inverse_qft_circuit(n), dim * dim)], stages


def draper_sweep_runs(n):
    # the transform of register b once on its 2**n basis inputs, then the controlled rotations
    # and the inverse on the 4**n joint inputs
    inverse_b = shift_qubits(inverse_qft_circuit(n), n, 2 * n)
    return [(qft_circuit(n), 1 << n), (concat(draper_inner_circuit(n), inverse_b), 1 << 2 * n)], []


@pytest.mark.parametrize(
    "sweep, n_max, expected_runs",
    [(verify_const_adder, 4, const_sweep_runs), (verify_draper, 3, draper_sweep_runs)],
    ids=["const", "draper"],
)
def test_batches_do_the_unbatched_work_above_their_index_qubits(monkeypatch, sweep, n_max, expected_runs):
    # each block runs each step of its plan once over the whole block, and each whole run each
    # step once over its state, so the amplitudes passed over are those of one pass per step and
    # input, and no step of a batch reaches an index qubit
    calls, runs, wholes = record_batched_calls(monkeypatch)
    assert all(report.passed for report in sweep(n_max))
    widths = [expected_runs(n) for n in range(1, n_max + 1)]
    expected = [run for batched, _ in widths for run in batched]
    expected_wholes = [circuit for _, whole in widths for circuit in whole]
    assert runs == expected
    assert wholes == expected_wholes
    steps = [len(fourieradd.circuits._plan(circuit)[0]) for circuit in expected_wholes]
    work = sum(len(fourieradd.circuits._plan(circuit)[0]) * count << circuit.n_qubits for circuit, count in expected)
    work += sum(count << circuit.n_qubits for circuit, count in zip(expected_wholes, steps))
    assert sum(1 << width for width, _, _ in calls) == work
    batched = [(index_qubits, lowest) for _, index_qubits, lowest in calls if index_qubits >= 1]
    # at these widths every batched run is one batch, and a whole run one block
    assert len(calls) - len(batched) == sum(steps)
    assert all(lowest > index_qubits for index_qubits, lowest in batched)
