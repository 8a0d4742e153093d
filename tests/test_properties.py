"""Property-based checks for the reference's gate kernels, the plan that runs every circuit and both adders."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import fourieradd.circuits
from fourieradd import (
    DEFAULT_TOL,
    Circuit,
    StateVector,
    apply_const_add,
    basis_state,
    cphase,
    circuit_to_matrix,
    concat,
    const_adder_circuit,
    hadamard,
    inverse_qft_circuit,
    phase,
    phase_adder_circuit,
    qft_circuit,
    run_circuit,
    swap,
)
from oracles import (
    apply_controlled_phase,
    apply_hadamard,
    apply_phase,
    copy_state,
    fidelity,
    random_state,
    run_gate_by_gate,
    run_on_states,
)

ANGLES = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False, allow_infinity=False)


@st.composite
def gate_sequences(draw, min_qubits=2, max_qubits=6, min_gates=0, max_gates=20):
    n = draw(st.integers(min_value=min_qubits, max_value=max_qubits))
    gates = []
    kinds = ("h", "phase", "cphase", "swap") if n > 1 else ("h", "phase")
    for _ in range(draw(st.integers(min_value=min_gates, max_value=max_gates))):
        kind = draw(st.sampled_from(kinds))
        target = draw(st.integers(min_value=1, max_value=n))
        if kind == "h":
            gates.append(hadamard(target))
        elif kind == "phase":
            gates.append(phase(target, draw(ANGLES)))
        else:
            # a nonzero cyclic offset always lands on a second, distinct wire
            offset = draw(st.integers(min_value=1, max_value=n - 1))
            other = (target - 1 + offset) % n + 1
            if kind == "cphase":
                gates.append(cphase(other, target, draw(ANGLES)))
            else:
                gates.append(swap(target, other))
    return Circuit(n, gates)


class TestKernelProperties:
    @given(gate_sequences(), st.integers(min_value=0, max_value=(1 << 6) - 1))
    @settings(max_examples=60, deadline=None)
    def test_norm_is_preserved(self, circuit, start):
        state = basis_state(circuit.n_qubits, start % (1 << circuit.n_qubits))
        run_circuit(circuit, state)
        assert np.all(np.isfinite(state.amplitudes.view(np.float64)))
        assert abs(state.norm_sq() - 1.0) < 1e-10

    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_hadamard_is_an_involution(self, n, seed):
        target = seed % n + 1
        state = random_state(n, seed)
        reference = state.amplitudes.copy()
        apply_hadamard(state, target)
        apply_hadamard(state, target)
        assert np.max(np.abs(state.amplitudes - reference)) < 1e-12

    @given(
        st.integers(min_value=2, max_value=7),
        st.integers(min_value=0, max_value=2**31),
        ANGLES,
    )
    @settings(max_examples=30, deadline=None)
    def test_controlled_phase_is_symmetric(self, n, seed, theta):
        a = seed % n + 1
        b = (a + seed // n) % n + 1
        if a == b:
            b = a % n + 1
        one = random_state(n, seed)
        two = copy_state(one)
        apply_controlled_phase(one, a, b, theta)
        apply_controlled_phase(two, b, a, theta)
        assert np.array_equal(one.amplitudes, two.amplitudes)

    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=2**31),
        ANGLES,
    )
    @settings(max_examples=30, deadline=None)
    def test_phase_touches_only_set_bit_amplitudes(self, n, seed, theta):
        target = seed % n + 1
        state = random_state(n, seed)
        reference = state.amplitudes.copy()
        apply_phase(state, target, theta)
        mask = 1 << (target - 1)
        for index in range(state.dim):
            if index & mask == 0:
                assert state.amplitudes[index] == reference[index]


def gate_by_gate_output(circuit, amplitudes):
    """run_gate_by_gate's output on a copy of the amplitudes, taken as given, unnormalized and unchecked."""
    state = StateVector(circuit.n_qubits, np.zeros(len(amplitudes), dtype=np.complex128))
    state.amplitudes[:] = amplitudes
    run_gate_by_gate(circuit, state)
    return state.amplitudes


def plan_settings(data, widest):
    """Patches of BATCH_AMPLITUDES (2 to 2**widest amplitudes a block) and FUSE_QUBITS (1 to 5)."""
    block_qubits = data.draw(st.integers(min_value=1, max_value=widest), label="block qubits")
    fuse_qubits = data.draw(st.integers(min_value=1, max_value=5), label="fuse qubits")
    return (
        mock.patch.object(fourieradd.circuits, "BATCH_AMPLITUDES", 1 << block_qubits),
        mock.patch.object(fourieradd.circuits, "FUSE_QUBITS", fuse_qubits),
    )


class TestPlanProperties:
    @given(
        gate_sequences(min_qubits=1, max_qubits=8, min_gates=1, max_gates=39),
        st.data(),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=150, deadline=None)
    def test_plan_matches_the_circuit_matrix(self, circuit, data, seed):
        # any circuit, block size and fusion window: run_circuit's plan gives the circuit
        # matrix's output, taken from the gates run one by one through their kernels and not
        # from circuit_to_matrix, which runs the plan too; the state is one block or many
        n = circuit.n_qubits
        state = random_state(n, seed)
        expected = gate_by_gate_output(circuit, state.amplitudes)
        block, fuse = plan_settings(data, n)
        with block, fuse:
            run_circuit(circuit, state)
        assert np.max(np.abs(state.amplitudes - expected)) < DEFAULT_TOL

    @given(
        gate_sequences(min_qubits=1, max_qubits=6, min_gates=1, max_gates=39),
        st.data(),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_batches_match_the_gate_by_gate_run_of_each_row(self, circuit, data, count, seed):
        # input states of any count in batches of any size: each output column is its own
        # gate-by-gate run; state j is row j of the draw, passed as column j
        n = circuit.n_qubits
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((count, 1 << n)) + 1j * rng.standard_normal((count, 1 << n))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        block, fuse = plan_settings(data, n + 6)
        with block, fuse:
            outputs = np.concatenate([outputs.copy() for _, outputs in run_on_states(circuit, rows.T)], axis=1)
        expected = np.array([gate_by_gate_output(circuit, row) for row in rows]).T
        assert np.max(np.abs(outputs - expected)) < DEFAULT_TOL


class TestAdderProperties:
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=-1024, max_value=1024),
        st.integers(min_value=-1024, max_value=1024),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_addition_composes(self, n, c1, c2, seed):
        split = random_state(n, seed)
        joint = copy_state(split)
        apply_const_add(split, c1)
        apply_const_add(split, c2)
        apply_const_add(joint, c1 + c2)
        assert fidelity(split, joint) > 1.0 - 1e-10

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=-1024, max_value=1024),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_subtracting_undoes_adding(self, n, c, seed):
        state = random_state(n, seed)
        reference = copy_state(state)
        apply_const_add(state, c)
        apply_const_add(state, -c)
        assert fidelity(state, reference) > 1.0 - 1e-10

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=-1024, max_value=1024),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_cyclic_shift_of_amplitudes(self, n, c, seed):
        state = random_state(n, seed)
        expected = np.roll(state.amplitudes, c % (1 << n))
        apply_const_add(state, c)
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-10

    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=-1024, max_value=1024),
    )
    @settings(max_examples=40, deadline=None)
    def test_shifting_the_constant_by_the_register_size_changes_nothing(self, n, c):
        lhs = phase_adder_circuit(n, c)
        rhs = phase_adder_circuit(n, c + (1 << n))
        # reduction happens before any angle is computed, so the circuits agree gate for gate
        assert lhs.gates == rhs.gates

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=-40, max_value=40))
    @settings(max_examples=25, deadline=None)
    def test_shifted_constant_builds_the_same_operator(self, n, c):
        lhs = circuit_to_matrix(const_adder_circuit(n, c))
        rhs = circuit_to_matrix(const_adder_circuit(n, c + (1 << n)))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestTransformProperties:
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=30, deadline=None)
    def test_inverse_transform_undoes_the_transform(self, n, seed):
        state = random_state(n, seed)
        reference = state.amplitudes.copy()
        run_circuit(concat(qft_circuit(n), inverse_qft_circuit(n)), state)
        assert np.max(np.abs(state.amplitudes - reference)) < 1e-10
