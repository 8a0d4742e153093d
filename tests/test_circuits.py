import cmath
import dataclasses
import inspect
import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import fourieradd.circuits as circuits_module
import fourieradd.statevector as statevector_module
from fourieradd import (
    BATCH_AMPLITUDES,
    DEFAULT_TOL,
    Circuit,
    Gate,
    StateVector,
    apply_const_add,
    apply_dense,
    basis_state,
    circuit_to_dict,
    circuit_to_matrix,
    concat,
    const_adder_circuit,
    count_gates,
    cphase,
    draper_adder_circuit,
    hadamard,
    inverse,
    inverse_qft_circuit,
    phase,
    qft_circuit,
    run_circuit,
    run_on_basis,
    shift_qubits,
    swap,
)
from oracles import (
    circuit_from_document,
    copy_state,
    dft_matrix,
    fidelity,
    random_state,
    run_gate_by_gate,
    run_on_states,
)

SQRT1_2 = math.sqrt(0.5)

# hand-evaluated powers of i: row j, column k carries i**(j*k) / 2
QFT2_EXPECTED = 0.5 * np.array(
    [
        [1, 1, 1, 1],
        [1, 1j, -1, -1j],
        [1, -1, 1, -1],
        [1, -1j, -1, 1j],
    ],
    dtype=np.complex128,
)


class TestGateValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Gate("toffoli", 1)

    def test_control_forbidden_on_hadamard(self):
        with pytest.raises(ValueError):
            Gate("h", 1, control=2)

    def test_angle_required_for_phase(self):
        with pytest.raises(ValueError):
            Gate("phase", 1)

    def test_angle_forbidden_on_swap(self):
        with pytest.raises(ValueError):
            Gate("swap", 1, other=2, angle=0.5)

    def test_swap_with_itself(self):
        with pytest.raises(ValueError):
            swap(3, 3)

    def test_control_equals_target(self):
        with pytest.raises(ValueError):
            cphase(2, 2, 0.5)

    def test_non_finite_angle(self):
        with pytest.raises(ValueError):
            phase(1, math.nan)

    def test_other_in_place_of_control(self):
        with pytest.raises(ValueError):
            Gate("cphase", 1, other=2, angle=0.5)


class TestCircuitValidation:
    def test_gate_beyond_register(self):
        with pytest.raises(ValueError, match="register has 2"):
            Circuit(2, (hadamard(3),))

    def test_nonpositive_width(self):
        with pytest.raises(ValueError):
            Circuit(0, ())

    def test_gates_become_tuple(self):
        circuit = Circuit(2, [hadamard(1), swap(1, 2)])
        assert isinstance(circuit.gates, tuple)
        assert len(circuit.gates) == 2

    def test_circuits_are_frozen(self):
        # the transforms are shared between callers, so no circuit may change
        circuit = qft_circuit(2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            circuit.gates = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            circuit.n_qubits = 3
        assert circuit == qft_circuit(2) and len(circuit.gates) == 4


class TestQftConstruction:
    def test_single_qubit_is_one_hadamard(self):
        assert qft_circuit(1).gates == (hadamard(1),)

    def test_single_qubit_matrix(self):
        expected = SQRT1_2 * np.array([[1, 1], [1, -1]])
        np.testing.assert_allclose(circuit_to_matrix(qft_circuit(1)), expected, atol=1e-15)

    def test_two_qubit_matrix_matches_frozen_value(self):
        np.testing.assert_allclose(circuit_to_matrix(qft_circuit(2)), QFT2_EXPECTED, atol=1e-12)

    def test_three_qubit_tally(self):
        report = count_gates(qft_circuit(3))
        assert (report.hadamard, report.phase, report.controlled_phase, report.swap) == (3, 0, 3, 1)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_tally_closed_forms(self, n):
        report = count_gates(qft_circuit(n))
        assert report.hadamard == n
        assert report.controlled_phase == n * (n - 1) // 2
        assert report.swap == n // 2
        assert report.phase == 0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_dense_transform(self, n):
        error = np.max(np.abs(circuit_to_matrix(qft_circuit(n)) - dft_matrix(n)))
        assert error < 1e-10

    def test_controlled_phase_angles_are_inverse_powers_of_two(self):
        for gate in qft_circuit(5).gates:
            if gate.kind == "cphase":
                turns = 2.0 * math.pi / gate.angle
                assert abs(turns - round(turns)) < 1e-12
                assert round(turns) >= 4  # smallest is 2*pi/4

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            qft_circuit(0)
        with pytest.raises(ValueError):
            inverse_qft_circuit(0)

    def test_each_width_is_built_once(self):
        assert qft_circuit(4) is qft_circuit(4)
        assert inverse_qft_circuit(4) is inverse_qft_circuit(4)
        assert qft_circuit(4) is not qft_circuit(5)


class TestInverseQft:
    def test_single_qubit(self):
        assert inverse_qft_circuit(1).gates == (hadamard(1),)

    def test_equals_reversed_negated_construction(self):
        direct = inverse_qft_circuit(3)
        derived = inverse(qft_circuit(3))
        assert direct.gates == derived.gates
        error = np.max(np.abs(circuit_to_matrix(direct) - circuit_to_matrix(derived)))
        assert error == 0.0

    def test_undoes_fourier_column(self):
        # the transform of |1> on two qubits, written out by hand
        state = StateVector(2, 0.5 * np.array([1, 1j, -1, -1j]))
        run_circuit(inverse_qft_circuit(2), state)
        assert fidelity(state, basis_state(2, 1)) >= 1.0 - 1e-10

    @pytest.mark.parametrize("n", range(1, 11))
    def test_round_trip_identity(self, n):
        forward = qft_circuit(n)
        backward = inverse_qft_circuit(n)
        for seed in range(20):
            state = random_state(n, seed=seed)
            reference = copy_state(state)
            run_circuit(forward, state)
            run_circuit(backward, state)
            assert fidelity(state, reference) >= 1.0 - 1e-10


class TestRunCircuit:
    def test_empty_circuit_is_bitwise_identity(self):
        state = random_state(3, seed=1)
        before = state.amplitudes.copy()
        run_circuit(Circuit(3, ()), state)
        assert np.array_equal(state.amplitudes, before)

    def test_single_hadamard(self):
        state = basis_state(1, 0)
        run_circuit(Circuit(1, (hadamard(1),)), state)
        np.testing.assert_allclose(state.amplitudes, [SQRT1_2, SQRT1_2], atol=1e-15)

    def test_transform_of_zero_is_uniform(self):
        state = basis_state(2, 0)
        run_circuit(qft_circuit(2), state)
        np.testing.assert_allclose(state.amplitudes, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="qubit"):
            run_circuit(qft_circuit(2), basis_state(3, 0))

    @pytest.mark.parametrize("n", [3, 16, 17])
    def test_refuses_a_non_finite_amplitude_at_every_width(self, n):
        # 16 qubits is the widest state run gate by gate, 17 the narrowest run as a plan
        state = basis_state(n, 0)
        state.amplitudes[1] = np.nan
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            run_circuit(qft_circuit(n), state)
        assert state.amplitudes[0] == 1.0  # refused before any gate ran

    def test_gates_apply_left_to_right(self):
        # phase after hadamard differs from hadamard after phase on |0>
        order_a = Circuit(1, (hadamard(1), phase(1, math.pi / 2)))
        order_b = Circuit(1, (phase(1, math.pi / 2), hadamard(1)))
        state_a, state_b = basis_state(1, 0), basis_state(1, 0)
        run_circuit(order_a, state_a)
        run_circuit(order_b, state_b)
        np.testing.assert_allclose(state_a.amplitudes, [SQRT1_2, SQRT1_2 * 1j], atol=1e-15)
        np.testing.assert_allclose(state_b.amplitudes, [SQRT1_2, SQRT1_2], atol=1e-15)


def random_circuit(n_qubits, seed, n_gates=60):
    """Every gate kind at random places and angles; one-qubit circuits get no pair gates."""
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(n_gates):
        kind = int(rng.integers(0, 4 if n_qubits > 1 else 2))
        target = int(rng.integers(1, n_qubits + 1))
        angle = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        other = (target + int(rng.integers(0, max(n_qubits - 1, 1)))) % n_qubits + 1
        if kind == 0:
            gates.append(hadamard(target))
        elif kind == 1:
            gates.append(phase(target, angle))
        elif kind == 2:
            gates.append(cphase(other, target, angle))
        else:
            gates.append(swap(target, other))
    return Circuit(n_qubits, gates)


def run_each(circuit, inputs):
    """Reference for basis inputs: every gate on a state of its own per input, one output column each."""
    outputs = []
    for value in inputs:
        state = basis_state(circuit.n_qubits, int(value))
        run_gate_by_gate(circuit, state)
        outputs.append(state.amplitudes)
    return np.array(outputs).reshape(len(outputs), 1 << circuit.n_qubits).T


def distance(actual, expected):
    """Largest entry-wise distance between two output arrays."""
    return float(np.max(np.abs(actual - expected)))


def joined(blocks):
    """The (start, outputs) blocks joined in order as columns, after checking they are contiguous and capped.

    Each block is the runner's work buffer, refilled by the next one, so it is copied as it comes.
    """
    starts, copies = [], []
    for start, outputs in blocks:
        starts.append(start)
        copies.append(outputs.copy())
    sizes = [outputs.shape[1] for outputs in copies]
    assert starts == [sum(sizes[:i]) for i in range(len(copies))]
    assert all(outputs.size <= BATCH_AMPLITUDES for outputs in copies)
    return np.concatenate(copies, axis=1)


def one_hot(n_qubits, inputs):
    """Column i is the basis state |inputs[i]>: basis inputs in any count and order, as run_on_states columns."""
    columns = np.zeros((1 << n_qubits, len(inputs)), dtype=np.complex128)
    columns[inputs, np.arange(len(inputs))] = 1.0
    return columns


class TestRunOnBasis:
    """run_on_basis over the whole basis, and the block loop it shares on one-hot columns of any count."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_within_tolerance_of_a_run_per_input(self, n):
        # a batch runs the plan, which sums in another order than the gates one by one:
        # each column is within DEFAULT_TOL of its gate-by-gate run, not bitwise equal to it
        circuit = random_circuit(n, seed=n)
        assert distance(joined(run_on_basis(circuit)), run_each(circuit, range(1 << n))) < DEFAULT_TOL

    @pytest.mark.parametrize("n,count", [(3, 5), (4, 13), (7, 200), (9, 1000), (12, 7)])
    def test_counts_that_leave_the_last_block_partly_filled(self, n, count):
        # 9 qubits hold 128 inputs a block, so 1000 inputs end in blocks of 64, 32 and 8;
        # 12 qubits hold 16, so 7 inputs run as blocks of 4, 2 and 1
        circuit = random_circuit(n, seed=100 + n, n_gates=20)
        inputs = np.random.default_rng(n).integers(0, 1 << n, size=count)
        outputs = joined(run_on_states(circuit, one_hot(n, inputs)))
        assert distance(outputs, run_each(circuit, inputs)) < DEFAULT_TOL

    def test_blocks_hold_as_many_inputs_as_the_cap_allows(self):
        n = 9
        columns = one_hot(n, np.arange(1000) % 512)
        sizes = [outputs.shape[1] for _, outputs in run_on_states(Circuit(n, ()), columns)]
        assert sizes == [BATCH_AMPLITUDES >> n] * 7 + [64, 32, 8]

    @pytest.mark.parametrize(
        "circuit",
        [
            const_adder_circuit(2, 3),
            const_adder_circuit(6, 5),
            draper_adder_circuit(3),
        ],
        ids=["const-2", "const-6", "register-3"],
    )
    def test_builds_no_circuit(self, circuit, monkeypatch):
        # every block runs the plan of the circuit's own gates, moved up past its input qubits
        built = []
        original = Circuit.__post_init__

        def counted(self):
            built.append(self.n_qubits)
            original(self)

        monkeypatch.setattr(Circuit, "__post_init__", counted)
        assert sum(outputs.shape[1] for _, outputs in run_on_basis(circuit)) == 1 << circuit.n_qubits
        assert built == []

    def test_compiles_one_plan_per_block_width_and_call(self, monkeypatch):
        # 2**n + 1 inputs in blocks of 4 inputs and then one; the next call compiles anew
        n = 4
        monkeypatch.setattr(circuits_module, "BATCH_AMPLITUDES", 1 << (n + 2))
        compiled = []
        original = circuits_module._plan

        def counted(circuit, offset=0):
            compiled.append(offset)
            return original(circuit, offset)

        monkeypatch.setattr(circuits_module, "_plan", counted)
        circuit = const_adder_circuit(n, 5)
        columns = one_hot(n, np.arange((1 << n) + 1) % (1 << n))
        for _ in range(2):
            sizes = [outputs.shape[1] for _, outputs in run_on_states(circuit, columns)]
            assert sizes == [4] * (1 << (n - 2)) + [1]
        assert compiled == [2, 0, 2, 0]

    def test_no_inputs_yield_no_blocks(self):
        assert list(run_on_states(qft_circuit(3), np.zeros((8, 0)))) == []

    def test_a_block_kept_past_next_holds_the_next_blocks_outputs(self):
        # a block is the work buffer as the run left it, valid until the next block is filled:
        # 9 qubits run 128 inputs a block, and a block kept past next() reads as the next one
        n = 9
        circuit = random_circuit(n, seed=n)
        blocks = run_on_basis(circuit)
        _, kept = next(blocks)
        first = kept.copy()
        start, second = next(blocks)
        assert start == 128
        assert np.array_equal(kept, second)
        assert distance(first, run_each(circuit, range(128))) < DEFAULT_TOL
        assert distance(kept, run_each(circuit, range(128, 256))) < DEFAULT_TOL


def random_columns(n_qubits, count, seed):
    """count unnormalized complex columns of 2**n_qubits amplitudes; the runner takes them as given."""
    rng = np.random.default_rng(seed)
    shape = (count, 1 << n_qubits)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).T


def run_each_column(circuit, columns):
    """Reference for run_on_states: every gate on a state of its own per column, NaN columns included."""
    outputs = []
    for column in columns.T:
        state = StateVector(circuit.n_qubits, np.zeros(len(column), dtype=np.complex128))
        state.amplitudes[:] = column  # after construction, which refuses a NaN
        run_gate_by_gate(circuit, state)
        outputs.append(state.amplitudes)
    return np.array(outputs).T


class TestRunOnStates:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_one_hot_rows_give_the_run_on_basis_blocks_bitwise(self, n):
        # both runs advance together, so each pair of blocks is compared before either is refilled
        circuit = random_circuit(n, seed=200 + n)
        from_columns = run_on_states(circuit, one_hot(n, range(1 << n)))
        for (start, outputs), (expected_start, expected) in zip(from_columns, run_on_basis(circuit), strict=True):
            assert start == expected_start
            assert np.array_equal(outputs.view(np.float64), expected.view(np.float64))

    @pytest.mark.parametrize("n,count", [(1, 3), (2, 4), (4, 13), (6, 1000)])
    def test_rows_are_unchanged_and_each_output_is_a_run_of_its_own(self, n, count):
        # 3 columns of 1 qubit run as blocks of 2 and 1; 13 columns of 4 qubits as blocks of 8, 4 and 1
        circuit = random_circuit(n, seed=300 + n, n_gates=30)
        columns = random_columns(n, count, seed=n)
        before = columns.tobytes()
        outputs = joined(run_on_states(circuit, columns))
        assert columns.tobytes() == before
        # the columns are unnormalized, with norms up to about 2**((n + 1) / 2)
        assert distance(outputs, run_each_column(circuit, columns)) < DEFAULT_TOL

    @pytest.mark.parametrize("n", [2, 5])
    def test_a_row_holding_nan_runs_like_any_other(self, n):
        circuit = random_circuit(n, seed=400 + n, n_gates=30)
        columns = random_columns(n, 8, seed=n)
        columns[1, 3] = np.nan
        outputs = joined(run_on_states(circuit, columns))
        assert np.isnan(outputs[:, 3]).any()
        # no step mixes columns, so the NaN stays in its own column and the others run as usual
        others = np.arange(8) != 3
        assert distance(outputs[:, others], run_each_column(circuit, columns[:, others])) < DEFAULT_TOL

    def test_the_transform_rows_give_the_adders_outputs(self):
        # the const sweep's sharing: the transform once, then the rest of each adder on its
        # columns; both that and the whole adder land on the exact one-hot |a + c mod 2**n>
        n = 5
        transform = qft_circuit(n)
        transformed = joined(run_on_basis(transform))
        for c in (0, 7, 31):
            adder = const_adder_circuit(n, c)
            rest = Circuit(n, adder.gates[len(transform.gates) :])
            exact = np.roll(np.eye(1 << n), c, axis=0)  # column a is |a + c mod 2**n>
            assert distance(joined(run_on_states(rest, transformed)), exact) < DEFAULT_TOL
            assert distance(joined(run_on_basis(adder)), exact) < DEFAULT_TOL

    @pytest.mark.parametrize("shape", [(8,), (2, 8), (8, 2, 1)])
    def test_rejects_rows_of_another_shape(self, shape):
        # (2, 8) is two states laid out as rows
        with pytest.raises(ValueError, match=r"states must have shape \(2\*\*3, R\)"):
            list(run_on_states(qft_circuit(3), np.zeros(shape)))


BLOCK_QUBITS = 4  # the block width the tests below patch in, so that 5-9 qubits cross it
# the plan's two kernels for its own steps; h, phase and cphase for the kernel calls that build
# a dense step's matrix, by the gate they run; put-back for each put-back that moves a qubit
CALL_KINDS = ("apply_dense", "apply_diagonal", "h", "phase", "cphase", "put-back")
# the widths of the states that build a dense step's matrix: 2K qubits for K = 1..FUSE_QUBITS
MATRIX_WIDTHS = set(range(2, 2 * circuits_module.FUSE_QUBITS + 1, 2))


def gate_path_error(circuit, seed):
    """Largest distance between run_circuit's output and the gate-by-gate run's, on a random state."""
    expected = random_state(circuit.n_qubits, seed)
    actual = copy_state(expected)
    run_gate_by_gate(circuit, expected)
    run_circuit(circuit, actual)
    return float(np.max(np.abs(actual.amplitudes - expected.amplitudes)))


def roll_error(n, constant, seed):
    """Largest distance of the constant adder's output from np.roll of its random input."""
    before = random_state(n, seed)
    after = copy_state(before)
    apply_const_add(after, constant)
    return float(np.max(np.abs(after.amplitudes - np.roll(before.amplitudes, constant % (1 << n)))))


def record_kernel_widths(monkeypatch):
    """Wrap the kernels, _dense and _put_back where run_circuit looks them up; returns the
    widths of the states of each CALL_KINDS kind of call.

    A kernel call made while _dense runs builds a matrix and counts under the gate it runs:
    a Hadamard is an apply_dense, a phase an apply_diagonal without control, a controlled
    phase one with a control.
    """
    widths = {kind: [] for kind in CALL_KINDS}
    building = []
    dense, put_back = circuits_module._dense, circuits_module._put_back

    def recorded_dense(cluster, low, top):
        building.append(True)
        try:
            return dense(cluster, low, top)
        finally:
            building.pop()

    def recorded_put_back(state, where):
        if where != sorted(where):
            widths["put-back"].append(state.n_qubits)
        put_back(state, where)

    for name in ("apply_dense", "apply_diagonal"):
        original = getattr(circuits_module, name)

        def recorded(state, values, low, *rest, original=original, name=name):
            kind = name
            if building:
                kind = "h" if name == "apply_dense" else "phase" if not rest or rest[0] is None else "cphase"
            widths[kind].append(state.n_qubits)
            original(state, values, low, *rest)

        monkeypatch.setattr(circuits_module, name, recorded)
    monkeypatch.setattr(circuits_module, "_dense", recorded_dense)
    monkeypatch.setattr(circuits_module, "_put_back", recorded_put_back)
    return widths


def edge_crossing_circuit(n_qubits, seed, low_edges):
    """Runs of gates inside the low BLOCK_QUBITS qubits, of every kind, separated by single
    gates that reach above them; a swap across the edge is always among the latter.

    The runs have 1 to 6 gates, the third run exactly one. With low_edges the list starts
    and ends on such a run, otherwise on a gate above the edge.
    """
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 7, size=5)
    lengths[2] = 1
    gates = []
    for position, length in enumerate(lengths):
        gates.extend(random_circuit(BLOCK_QUBITS, seed=int(rng.integers(1 << 30)), n_gates=int(length)).gates)
        if position == len(lengths) - 1:
            break
        high = int(rng.integers(BLOCK_QUBITS + 1, n_qubits + 1))
        low = int(rng.integers(1, BLOCK_QUBITS + 1))
        angle = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
        choices = (hadamard(high), phase(high, angle), cphase(low, high, angle), swap(low, high))
        gates.append(swap(low, high) if position == 0 else choices[int(rng.integers(0, 4))])
    if not low_edges:
        gates = [hadamard(n_qubits)] + gates + [swap(1, n_qubits)]
    return Circuit(n_qubits, tuple(gates))


def leaves_a_permutation(circuit):
    """Whether the circuit's swaps, composed, move some qubit."""
    where = list(range(circuit.n_qubits + 1))
    for gate in circuit.gates:
        if gate.kind == "swap":
            where[gate.target], where[gate.other] = where[gate.other], where[gate.target]
    return where != sorted(where)


def has_an_unshared_diagonal_run(circuit):
    """Whether some run of diagonal gates between Hadamards has no qubit in common to all its gates."""
    runs, run = [], []
    for gate in circuit.gates + (hadamard(1),):
        if gate.kind == "h":
            runs.append(run)
            run = []
        elif gate.kind != "swap":
            run.append({gate.target, gate.control} - {None})
    return any(len(run) > 1 and not set.intersection(*run) for run in runs)


def run_peak(circuit, state):
    """Peak bytes that tracemalloc sees allocated while run_circuit runs on the state."""
    tracemalloc.start()
    try:
        run_circuit(circuit, state)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def dense_steps(circuit):
    return [step for step in circuits_module._plan(circuit)[0] if isinstance(step, circuits_module._Dense)]


class TestDenseKernel:
    @pytest.mark.parametrize("shared", [False, True], ids=["fresh-output", "scratch"])
    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_every_low_applies_the_circuit_matrix(self, n, shared):
        # the reference runs every gate on its own, so no part of it goes through apply_dense;
        # a shared scratch holds the previous call's product, a fresh output starts as NaN
        scratch = np.empty(1 << n, dtype=np.complex128)
        for k in range(1, circuits_module.FUSE_QUBITS + 1):
            circuit = random_circuit(k, seed=100 * n + k, n_gates=8 * k)
            matrix = run_each(circuit, range(1 << k))  # column j: the circuit run on |j>
            for low in range(1, n - k + 2):
                expected = random_state(n, seed=low)
                actual = copy_state(expected)
                run_gate_by_gate(shift_qubits(circuit, low - 1, n), expected)
                apply_dense(actual, matrix, low, scratch if shared else np.full(1 << n, np.nan, dtype=np.complex128))
                assert np.max(np.abs(actual.amplitudes - expected.amplitudes)) < 1e-14


class TestOneKernelFamily:
    def test_the_package_defines_two_kernels(self):
        kernels = {
            name
            for name, value in inspect.getmembers(statevector_module, inspect.isfunction)
            if name.startswith("apply_") and value.__module__ == statevector_module.__name__
        }
        assert kernels == {"apply_dense", "apply_diagonal"}

    def test_the_reference_shares_no_kernel_with_the_program(self, monkeypatch):
        circuit = concat(random_circuit(6, seed=6), const_adder_circuit(6, 13))
        assert {gate.kind for gate in circuit.gates} == {"h", "phase", "cphase", "swap"}
        expected = random_state(6, seed=6)
        run_gate_by_gate(circuit, expected)

        def nan_kernel(state, *args):
            state.amplitudes[:] = np.nan

        for name in ("apply_dense", "apply_diagonal"):
            monkeypatch.setattr(circuits_module, name, nan_kernel)
        actual = random_state(6, seed=6)
        run_gate_by_gate(circuit, actual)
        assert np.array_equal(actual.amplitudes, expected.amplitudes)
        # the patch reaches the program's own run
        state = random_state(6, seed=6)
        run_circuit(circuit, state)
        assert np.isnan(state.amplitudes).all()


class TestBlockedRun:
    @pytest.mark.parametrize("n", [17, 18, 20])
    def test_constant_adder_is_the_roll(self, n):
        assert roll_error(n, 3 * n + 1 - (1 << n), seed=n) < DEFAULT_TOL

    @pytest.mark.parametrize("m", [9, 10])
    def test_register_adder_is_the_gather(self, m):
        # y[a + 2**m * ((a + b) mod 2**m)] = x[a + 2**m * b]
        before = random_state(2 * m, seed=m)
        after = copy_state(before)
        run_circuit(draper_adder_circuit(m), after)
        a, b = np.indices((1 << m, 1 << m))
        expected = np.empty_like(before.amplitudes)
        expected[a + (b + a) % (1 << m) * (1 << m)] = before.amplitudes[a + b * (1 << m)]
        assert np.max(np.abs(after.amplitudes - expected)) < DEFAULT_TOL

    @pytest.mark.parametrize("low_edges", [True, False])
    @pytest.mark.parametrize("n", range(BLOCK_QUBITS + 1, 10))
    def test_random_circuits_across_the_block_edge(self, n, low_edges, monkeypatch):
        monkeypatch.setattr(circuits_module, "BATCH_AMPLITUDES", 1 << BLOCK_QUBITS)
        widths = record_kernel_widths(monkeypatch)
        circuits = [edge_crossing_circuit(n, 10 * n + seed, low_edges) for seed in range(4)]
        circuits += [random_circuit(n, seed=1000 * n + seed) for seed in range(2)]
        assert any(leaves_a_permutation(circuit) for circuit in circuits)
        assert any(has_an_unshared_diagonal_run(circuit) for circuit in circuits)
        for seed, circuit in enumerate(circuits):
            assert gate_path_error(circuit, seed) < DEFAULT_TOL
        assert set(widths["apply_diagonal"]) == {BLOCK_QUBITS}
        assert set(widths["apply_dense"]) == {BLOCK_QUBITS, n}
        assert set(widths["put-back"]) == {n}
        for kind in ("h", "phase", "cphase"):
            assert widths[kind] and set(widths[kind]) <= MATRIX_WIDTHS

    def test_states_up_to_the_block_match_the_gate_by_gate_run(self, monkeypatch):
        # a state of one block runs the plan too: one apply_dense or apply_diagonal call per
        # step over the whole state, within DEFAULT_TOL of the gate-by-gate run
        circuit = const_adder_circuit(16, 12345)
        steps = circuits_module._plan(circuit)[0]
        dense = len(dense_steps(circuit))
        expected = random_state(16, seed=16)
        actual = copy_state(expected)
        run_gate_by_gate(circuit, expected)
        widths = record_kernel_widths(monkeypatch)
        run_circuit(circuit, actual)
        assert np.max(np.abs(actual.amplitudes - expected.amplitudes)) < DEFAULT_TOL
        assert widths["apply_dense"] == [16] * dense
        assert widths["apply_diagonal"] == [16] * (len(steps) - dense)
        assert widths["put-back"] == []

    def test_states_up_to_the_block_run_whole(self, monkeypatch):
        # every step and the put-back run on the whole state; the matrices build on their own states
        widths = record_kernel_widths(monkeypatch)
        run_circuit(qft_circuit(16), basis_state(16, 5))
        assert set(widths["apply_dense"] + widths["apply_diagonal"] + widths["put-back"]) == {16}
        for kind in ("h", "cphase"):
            assert widths[kind] and set(widths[kind]) <= MATRIX_WIDTHS
        assert widths["phase"] == []  # the transform has no single-qubit phase

    @pytest.mark.parametrize(
        "circuit",
        [const_adder_circuit(18, 77), draper_adder_circuit(9)],
        ids=["const-18", "register-9"],
    )
    def test_hadamard_work_is_the_unfused_count_and_no_swap_runs(self, circuit, monkeypatch):
        # each Hadamard of the list runs once, on the state that builds its dense step's matrix
        widths = record_kernel_widths(monkeypatch)
        run_circuit(circuit, basis_state(circuit.n_qubits, 5))
        assert len(widths["h"]) == count_gates(circuit).hadamard
        assert set(widths["h"]) <= MATRIX_WIDTHS
        assert widths["put-back"] == []

    @pytest.mark.parametrize(
        "circuit",
        [const_adder_circuit(18, 77), draper_adder_circuit(9)],
        ids=["const-18", "register-9"],
    )
    def test_peak_memory_is_one_state_and_two_mebibytes(self, circuit, monkeypatch):
        # with one worker; each further worker adds a block scratch (see the next test)
        monkeypatch.setattr(circuits_module, "_workers", lambda: 1)
        state = basis_state(circuit.n_qubits, 5)
        assert run_peak(circuit, state) <= state.amplitudes.nbytes + (2 << 20)

    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize(
        "circuit",
        [const_adder_circuit(18, 77), draper_adder_circuit(9)],
        ids=["const-18", "register-9"],
    )
    def test_peak_memory_grows_by_one_block_per_worker(self, circuit, workers, monkeypatch):
        monkeypatch.setattr(circuits_module, "_workers", lambda: workers)
        state = basis_state(circuit.n_qubits, 5)
        run_circuit(circuit, copy_state(state))  # the pool's threads start outside the measured run
        block_bytes = 16 * BATCH_AMPLITUDES
        assert run_peak(circuit, state) <= state.amplitudes.nbytes + (1 + workers) * block_bytes

    def test_each_block_is_wrapped_once_per_run(self, monkeypatch):
        # as a view, not checked again: the state is checked for finiteness once, at entry, and
        # the only states built are the work states of 2K qubits that build the dense matrices
        circuit = const_adder_circuit(18, 77)
        state = basis_state(18, 5)
        matrix_widths = [2 * (step.top - step.low + 1) for step in dense_steps(circuit)]
        built, viewed, checked = [], [], []
        original, view, require_finite = StateVector.__post_init__, circuits_module._view, circuits_module.require_finite

        def counted(self):
            built.append(self.n_qubits)
            original(self)

        def counted_view(n_qubits, amplitudes):
            viewed.append(n_qubits)
            return view(n_qubits, amplitudes)

        def counted_check(amplitudes):
            checked.append(amplitudes.size)
            require_finite(amplitudes)

        monkeypatch.setattr(StateVector, "__post_init__", counted)
        monkeypatch.setattr(circuits_module, "_view", counted_view)
        monkeypatch.setattr(circuits_module, "require_finite", counted_check)
        run_circuit(circuit, state)
        block_qubits = BATCH_AMPLITUDES.bit_length() - 1
        assert built == matrix_widths
        assert viewed == [block_qubits] * (1 << (18 - block_qubits))
        assert checked == [1 << 18]

    def test_a_nan_kernel_reaches_every_block(self, monkeypatch):
        # NaN from every 2 x 2 apply_dense, which is how each Hadamard of a matrix build runs
        original = circuits_module.apply_dense

        def nan_hadamard(state, matrix, *args):
            original(state, matrix, *args)
            if matrix.shape == (2, 2):
                state.amplitudes[:] = np.nan

        monkeypatch.setattr(circuits_module, "apply_dense", nan_hadamard)
        state = basis_state(18, 12345)
        apply_const_add(state, 6)
        assert not np.isfinite(state.amplitudes).any()

    def test_a_diagonal_kernel_one_angle_unit_off_fails_the_roll(self, monkeypatch):
        n = 17
        assert roll_error(n, 6, seed=n) < DEFAULT_TOL
        original = circuits_module.apply_diagonal
        unit = cmath.exp(2j * math.pi / (1 << n))

        def apply_diagonal_off(state, factors, low, control=None):
            original(state, factors * unit, low, control)

        monkeypatch.setattr(circuits_module, "apply_diagonal", apply_diagonal_off)
        assert not roll_error(n, 6, seed=n) < DEFAULT_TOL

    def test_a_nan_dense_kernel_reaches_every_block(self, monkeypatch):
        n = 17
        original = circuits_module.apply_dense

        def apply_dense_nan(state, *args):
            original(state, *args)
            state.amplitudes[:] = np.nan

        monkeypatch.setattr(circuits_module, "apply_dense", apply_dense_nan)
        assert math.isnan(roll_error(n, 6, seed=n))
        state = basis_state(n, 12345)
        apply_const_add(state, 6)
        assert not np.isfinite(state.amplitudes).any()

    def test_a_dense_kernel_one_angle_unit_off_fails_the_roll(self, monkeypatch):
        n = 17
        assert roll_error(n, 6, seed=n) < DEFAULT_TOL
        original = circuits_module.apply_dense
        unit = cmath.exp(2j * math.pi / (1 << n))

        def apply_dense_off(state, matrix, *args):
            original(state, matrix * unit, *args)

        monkeypatch.setattr(circuits_module, "apply_dense", apply_dense_off)
        assert not roll_error(n, 6, seed=n) < DEFAULT_TOL

    @pytest.mark.parametrize(
        "circuit, dense, diagonal",
        [(const_adder_circuit(20, 77), 7, 6), (draper_adder_circuit(10), 4, 3)],
        ids=["const-20", "register-10"],
    )
    def test_step_counts_of_the_readme(self, circuit, dense, diagonal):
        # one diagonal step per run of diagonal gates, so no two diagonal steps are adjacent
        steps = circuits_module._plan(circuit)[0]
        assert len(dense_steps(circuit)) == dense
        assert len(steps) == dense + diagonal
        kinds = [isinstance(step, circuits_module._Diagonal) for step in steps]
        assert not any(kinds[i] and kinds[i + 1] for i in range(len(kinds) - 1))

    def test_a_diagonal_run_across_the_block_edge_matches_the_gate_by_gate_run(self, monkeypatch):
        # the run the plan places last holds pairs inside the block (a chain, so its polynomial
        # recurses), pairs from inside to above it (none on the block's lowest position) and pairs
        # above it, next to single phases on both sides
        monkeypatch.setattr(circuits_module, "BATCH_AMPLITUDES", 1 << BLOCK_QUBITS)
        widths = record_kernel_widths(monkeypatch)
        n = 9
        pairs = [(1, 2), (2, 3), (3, 4), (1, 3), (2, 7), (4, 6), (3, 5), (5, 8), (7, 9), (5, 9)]
        for seed in range(4):
            rng = np.random.default_rng(seed)
            angles = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=len(pairs) + 2)
            run = [cphase(c, t, a) for (c, t), a in zip(pairs, angles)] + [phase(2, angles[-2]), phase(5, angles[-1])]
            circuit = Circuit(n, tuple(hadamard(q) for q in range(1, n + 1)) + tuple(run))
            last = circuits_module._plan(circuit)[0][-1]
            assert isinstance(last, circuits_module._Diagonal)
            placed = {sum(q > BLOCK_QUBITS for q in positions) for positions, _ in last.terms if len(positions) == 2}
            assert placed == {0, 1, 2}
            widths["apply_diagonal"].clear()
            assert gate_path_error(circuit, seed) < DEFAULT_TOL
            # the step's one call per block, however its terms split at the block edge
            assert widths["apply_diagonal"] == [BLOCK_QUBITS] * (1 << n - BLOCK_QUBITS)

    @pytest.mark.parametrize("n", range(BLOCK_QUBITS + 2, 10))
    def test_a_diagonal_run_inside_the_block_multiplies_every_block_by_its_base(self, n, monkeypatch):
        # the run the plan places last holds only positions in the block, so every block's factors
        # are its base; a run with a pair reaching above the block gives some block other factors
        monkeypatch.setattr(circuits_module, "BATCH_AMPLITUDES", 1 << BLOCK_QUBITS)
        made = []
        multiply = circuits_module._multiply

        def recording(*args):
            made.append(multiply(*args))
            return made[-1]

        monkeypatch.setattr(circuits_module, "_multiply", recording)
        rng = np.random.default_rng(n)
        angles = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=5)
        inside = (cphase(1, 3, angles[0]), phase(2, angles[1]), cphase(4, 2, angles[2]), phase(4, angles[3]))
        scratch = np.empty(1 << BLOCK_QUBITS, dtype=np.complex128)
        for run, reaches in ((inside, False), (inside + (cphase(n, 3, angles[4]),), True)):
            circuit = Circuit(n, tuple(hadamard(q) for q in range(1, n + 1)) + run)
            assert isinstance(circuits_module._plan(circuit)[0][-1], circuits_module._Diagonal)
            made.clear()
            assert gate_path_error(circuit, n) < DEFAULT_TOL
            last = made[-1]
            bases = [last.factors(index, scratch) is last.base for index in range(1 << n - BLOCK_QUBITS)]
            assert not all(bases) if reaches else all(bases)

    @pytest.mark.parametrize("size", [1, 2, 4, 7, 12])
    def test_the_phase_polynomial_is_the_product_of_its_terms(self, size):
        # entry k: exp(i * angles[p, q]) for every p <= q whose bits of k are both set
        rng = np.random.default_rng(size)
        angles = np.triu(rng.uniform(-7, 7, size=(size, size)) * (rng.random((size, size)) < 0.4))
        angles[np.diag_indices(size)] = rng.uniform(-7, 7, size=size)
        bits = (np.arange(1 << size)[:, None] >> np.arange(size)) & 1
        expected = np.exp(1j * np.einsum("kp,pq,kq->k", bits, angles, bits))
        pairs = [(p, q, angles[p, q]) for p, q in zip(*np.nonzero(np.triu(angles, 1)))]
        out = np.empty(1 << size, dtype=np.complex128)
        actual = circuits_module._polynomial(np.diag(angles).copy(), pairs, out)
        assert actual is out and np.max(np.abs(actual - expected)) < 1e-12

    def test_windows_inside_across_and_above_the_block_match_the_gate_by_gate_run(self, monkeypatch):
        circuits = [
            const_adder_circuit(10, 345),
            draper_adder_circuit(5),
            random_circuit(10, seed=10, n_gates=150),
        ]
        placements = set()
        for block_qubits in (3, 5, 7):
            monkeypatch.setattr(circuits_module, "BATCH_AMPLITUDES", 1 << block_qubits)
            for seed, circuit in enumerate(circuits):
                for step in dense_steps(circuit):
                    if step.top <= block_qubits:
                        placements.add("inside")
                    else:
                        placements.add("across" if step.low <= block_qubits else "above")
                assert gate_path_error(circuit, seed) < DEFAULT_TOL
        assert placements == {"inside", "across", "above"}

    def test_a_dropped_swap_breaks_a_left_permutation(self, monkeypatch):
        # the transform alone leaves its closing swaps as a permutation; the FFT is its oracle
        n = 17
        before = random_state(n, seed=n)
        expected = np.fft.ifft(before.amplitudes) * math.sqrt(1 << n)
        after = copy_state(before)
        run_circuit(qft_circuit(n), after)
        assert np.max(np.abs(after.amplitudes - expected)) < DEFAULT_TOL
        monkeypatch.setattr(circuits_module, "_put_back", lambda state, where: None)
        after = copy_state(before)
        run_circuit(qft_circuit(n), after)
        assert not np.max(np.abs(after.amplitudes - expected)) < DEFAULT_TOL


def threads_of_kernel_calls(monkeypatch):
    """Wrap both kernels where the plan looks them up; returns the set of threads that call them."""
    threads = set()
    for name in ("apply_dense", "apply_diagonal"):
        original = getattr(circuits_module, name)

        def recorded(*args, original=original):
            threads.add(threading.get_ident())
            original(*args)

        monkeypatch.setattr(circuits_module, name, recorded)
    return threads


class BlockFault(Exception):
    pass


class TestWorkerPool:
    """The block runs and the ranges of wide dense steps that _run_parallel shares among workers."""

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize(
        "circuit",
        [const_adder_circuit(n, 3 * n + 1) for n in (17, 18, 20)]
        + [draper_adder_circuit(m) for m in (9, 10)],
        ids=["const-17", "const-18", "const-20", "register-9", "register-10"],
    )
    def test_outputs_are_bitwise_those_of_one_worker(self, circuit, workers, monkeypatch):
        # three workers cut a wide dense step's 2**12 or more values into unequal ranges
        outputs = {}
        for count in (1, workers):
            monkeypatch.setattr(circuits_module, "_workers", lambda: count)
            threads = threads_of_kernel_calls(monkeypatch)
            state = random_state(circuit.n_qubits, seed=circuit.n_qubits)
            run_circuit(circuit, state)
            outputs[count] = state.amplitudes
            monkeypatch.undo()
            assert len(threads) == 1 if count == 1 else len(threads) >= 2
        assert np.array_equal(outputs[workers], outputs[1])

    def test_batches_spanning_several_blocks_are_bitwise_those_of_one_worker(self, monkeypatch):
        # a 9-qubit input is wider than a block of 2**6 amplitudes, so each batch is one input in 8 blocks
        n = 9
        monkeypatch.setattr(circuits_module, "BATCH_AMPLITUDES", 1 << 6)
        circuit = concat(random_circuit(n, seed=9, n_gates=80), const_adder_circuit(n, 77))
        columns = random_columns(n, 5, seed=9)
        outputs = {}
        for count in (1, 3):
            monkeypatch.setattr(circuits_module, "_workers", lambda: count)
            blocks = [(start, block.copy()) for start, block in run_on_states(circuit, columns)]
            assert [block.shape[1] for _, block in blocks] == [1] * 5
            outputs[count] = joined(blocks)
        assert np.array_equal(outputs[3], outputs[1])
        assert distance(outputs[1], run_each_column(circuit, columns)) < DEFAULT_TOL

    @pytest.mark.parametrize("failing", [0, 3], ids=["calling-thread", "pool-thread"])
    def test_a_kernel_error_in_one_block_is_raised_after_every_run_has_ended(self, failing, monkeypatch):
        # 18 qubits are four blocks, run by two workers as blocks 0-1 and 2-3
        monkeypatch.setattr(circuits_module, "_workers", lambda: 2)
        state = random_state(18, seed=18)
        block_bytes = 16 * BATCH_AMPLITUDES
        target = state.amplitudes.ctypes.data + failing * block_bytes
        calls = []
        original = circuits_module.apply_diagonal

        def failing_diagonal(block, *args):
            calls.append(block.n_qubits)
            if block.amplitudes.ctypes.data == target:
                raise BlockFault(failing)
            original(block, *args)

        monkeypatch.setattr(circuits_module, "apply_diagonal", failing_diagonal)
        with pytest.raises(BlockFault):
            run_circuit(const_adder_circuit(18, 77), state)
        counted = len(calls)
        time.sleep(0.05)
        assert len(calls) == counted

    def test_more_workers_than_cpus_switching_every_microsecond_keep_the_bits(self, monkeypatch):
        # 18 qubits run as 4 block runs and 8 ranges per wide dense step; a run or a range
        # written twice, skipped or overlapped would change the output
        circuit = const_adder_circuit(18, 55)
        expected = random_state(18, seed=5)
        actual = copy_state(expected)
        monkeypatch.setattr(circuits_module, "_workers", lambda: 1)
        run_circuit(circuit, expected)
        monkeypatch.setattr(circuits_module, "_workers", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=run_circuit, args=(circuit, actual))
            runner.start()
            runner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert np.array_equal(actual.amplitudes, expected.amplitudes)

    def test_one_block_runs_in_the_calling_thread(self, monkeypatch):
        # every verify batch is one block
        monkeypatch.setattr(circuits_module, "_workers", lambda: 4)
        threads = threads_of_kernel_calls(monkeypatch)
        run_circuit(const_adder_circuit(16, 77), basis_state(16, 5))
        assert threads == {threading.get_ident()}

    def test_workers_are_the_usable_cpus_whatever_blas_is_pinned_to(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.setattr(circuits_module.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert circuits_module._workers() == 3
        monkeypatch.delattr(circuits_module.os, "sched_getaffinity")
        monkeypatch.setattr(circuits_module.os, "cpu_count", lambda: 7)
        assert circuits_module._workers() == 7

    @pytest.mark.parametrize(
        "count, unit, workers, expected",
        [
            (16, 1, 2, [(0, 8), (8, 16)]),
            (4, 1, 8, [(0, 1), (1, 2), (2, 3), (3, 4)]),
            (4096, 64, 3, [(0, 1344), (1344, 2688), (2688, 4096)]),
            (32, 64, 4, [(0, 32)]),
        ],
    )
    def test_split_cuts_ranges_at_multiples_of_the_unit(self, count, unit, workers, expected, monkeypatch):
        monkeypatch.setattr(circuits_module, "_workers", lambda: workers)
        assert [(part.start, part.stop) for part in circuits_module._split(count, unit)] == expected


class TestCombinators:
    def test_concat_with_empty_is_same(self):
        transform = qft_circuit(3)
        assert concat(Circuit(3, ()), transform) == transform
        assert concat(transform, Circuit(3, ())) == transform

    def test_concat_runs_first_then_second(self):
        first = Circuit(1, (hadamard(1),))
        second = Circuit(1, (phase(1, 0.3),))
        state_joined = basis_state(1, 0)
        run_circuit(concat(first, second), state_joined)
        state_stepwise = basis_state(1, 0)
        run_circuit(first, state_stepwise)
        run_circuit(second, state_stepwise)
        assert np.array_equal(state_joined.amplitudes, state_stepwise.amplitudes)

    def test_concat_size_mismatch(self):
        with pytest.raises(ValueError):
            concat(qft_circuit(2), qft_circuit(3))

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_concat_equals_the_circuit_of_the_joined_gates(self, n):
        for seed in range(4):
            first, second = random_circuit(n, seed=2 * seed), random_circuit(n, seed=2 * seed + 1, n_gates=30)
            joined = concat(first, second)
            assert joined == Circuit(n, first.gates + second.gates)
            assert type(joined.gates) is tuple
            with pytest.raises(dataclasses.FrozenInstanceError):
                joined.gates = ()
            with pytest.raises(ValueError, match="register sizes differ"):
                concat(joined, random_circuit(n + 1, seed=seed))

    def test_inverse_negates_phase(self):
        assert inverse(Circuit(2, (phase(1, 0.7),))).gates == (phase(1, -0.7),)

    def test_inverse_reverses_order(self):
        circuit = Circuit(2, (hadamard(1), cphase(1, 2, 0.4), swap(1, 2)))
        assert inverse(circuit).gates == (swap(1, 2), cphase(1, 2, -0.4), hadamard(1))

    def test_inverse_undoes_circuit(self):
        circuit = Circuit(3, (hadamard(2), cphase(1, 3, 1.1), swap(2, 3), phase(1, -2.2)))
        state = random_state(3, seed=8)
        reference = copy_state(state)
        run_circuit(circuit, state)
        run_circuit(inverse(circuit), state)
        assert np.max(np.abs(state.amplitudes - reference.amplitudes)) < 1e-12

    def test_shift_qubits(self):
        shifted = shift_qubits(Circuit(2, (hadamard(1), cphase(1, 2, 0.5))), 2, 4)
        assert shifted.n_qubits == 4
        assert shifted.gates == (hadamard(3), cphase(3, 4, 0.5))

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    @pytest.mark.parametrize("offset", [0, 1, 4])
    def test_shift_moves_every_gate_of_adders_and_transforms(self, n, offset):
        def moved(circuit):
            return tuple(
                Gate(
                    gate.kind,
                    gate.target + offset,
                    None if gate.control is None else gate.control + offset,
                    None if gate.other is None else gate.other + offset,
                    gate.angle,
                )
                for gate in circuit.gates
            )

        adder = const_adder_circuit(n, 5)
        transform, backward = qft_circuit(n), inverse_qft_circuit(n)
        middle = Circuit(n, (phase(1, 0.25), hadamard(n)))
        for circuit in (
            adder,
            transform,
            backward,
            concat(transform, middle),
            concat(middle, backward),
            concat(middle, transform, middle),
            concat(backward, transform),
        ):
            shifted = shift_qubits(circuit, offset, n + offset + 1)
            assert shifted.n_qubits == n + offset + 1
            assert shifted.gates == moved(circuit)

    def test_concat_joins_any_number_of_circuits(self):
        parts = [Circuit(2, (hadamard(1),)), Circuit(2, ()), Circuit(2, (swap(1, 2), phase(2, 0.5)))]
        assert concat(*parts).gates == (hadamard(1), swap(1, 2), phase(2, 0.5))
        assert concat(parts[0]) == parts[0]
        with pytest.raises(ValueError, match="register sizes differ: 2 vs 3"):
            concat(parts[0], parts[1], qft_circuit(3))

    def test_shift_rejects_negative_offset(self):
        with pytest.raises(ValueError):
            shift_qubits(qft_circuit(2), -1, 2)

    @pytest.mark.parametrize("offset, n_qubits_total", [(0, 1), (0, 2), (1, 3), (2, 4)])
    def test_shift_refuses_a_register_too_narrow_for_the_moved_circuit(self, offset, n_qubits_total):
        with pytest.raises(ValueError, match="cannot hold 3 qubit"):
            shift_qubits(Circuit(3, (hadamard(1),)), offset, n_qubits_total)


# one gate of every kind
ALL_KINDS = Circuit(3, (hadamard(1), phase(2, 0.3), cphase(1, 3, -1.25), swap(2, 3)))


class TestEveryKind:
    def test_inverse(self):
        assert inverse(ALL_KINDS).gates == (swap(2, 3), cphase(1, 3, 1.25), phase(2, -0.3), hadamard(1))

    def test_shift_qubits(self):
        shifted = shift_qubits(ALL_KINDS, 2, 5)
        assert shifted.n_qubits == 5
        assert shifted.gates == (hadamard(3), phase(4, 0.3), cphase(3, 5, -1.25), swap(4, 5))


class TestCircuitJson:
    # the package reads no circuit document; circuit_from_document rebuilds one, each entry as Gate's fields
    def test_round_trip(self):
        circuit = qft_circuit(3)
        back = circuit_from_document(json.loads(json.dumps(circuit_to_dict(circuit))))
        assert back == circuit

    def test_round_trip_of_every_kind(self):
        back = circuit_from_document(json.loads(json.dumps(circuit_to_dict(ALL_KINDS))))
        assert back == ALL_KINDS

    def test_key_order(self):
        # dict equality ignores order; the bytes of qft-dump do not
        assert json.dumps(circuit_to_dict(ALL_KINDS)) == (
            '{"n": 3, "gates": [{"kind": "h", "target": 1}, '
            '{"kind": "phase", "target": 2, "angle": 0.3}, '
            '{"kind": "cphase", "control": 1, "target": 3, "angle": -1.25}, '
            '{"kind": "swap", "target": 2, "other": 3}]}'
        )

    def test_integer_angle_is_read_as_float(self):
        # the gate builders take an integer angle as a float, so the document writes 1.0
        circuit = Circuit(1, (phase(1, 1),))
        assert json.dumps(circuit_to_dict(circuit)["gates"]) == '[{"kind": "phase", "target": 1, "angle": 1.0}]'

    def test_documented_shape(self):
        doc = circuit_to_dict(Circuit(2, (hadamard(1), cphase(2, 1, 0.5), swap(1, 2))))
        assert doc == {
            "n": 2,
            "gates": [
                {"kind": "h", "target": 1},
                {"kind": "cphase", "control": 2, "target": 1, "angle": 0.5},
                {"kind": "swap", "target": 1, "other": 2},
            ],
        }

    def test_angle_survives_json_exactly(self):
        circuit = Circuit(1, (phase(1, math.pi / 3),))
        back = circuit_from_document(json.loads(json.dumps(circuit_to_dict(circuit))))
        assert back.gates[0].angle == math.pi / 3
