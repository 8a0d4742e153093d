import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest

import fourieradd.circuits
import fourieradd.dense
from fourieradd import (
    BATCH_AMPLITUDES,
    Circuit,
    StateVector,
    basis_state,
    circuit_to_matrix,
    const_adder_circuit,
    draper_adder_circuit,
    inverse_qft_circuit,
    phase,
    phase_adder_equivalence_errors,
    qft_circuit,
    run_circuit,
    verify_modularity,
)
from fourieradd.circuits import run_filled
from fourieradd.verify import _errors, _fourier_columns
from oracles import dft_matrix, fourier_column, permutation_add_matrix, phase_adder_matrix


def assert_unitary(matrix, tol=1e-10):
    dim = matrix.shape[0]
    assert np.max(np.abs(matrix @ matrix.conj().T - np.eye(dim))) < tol


class TestDftMatrix:
    def test_single_qubit(self):
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(dft_matrix(1), expected, atol=1e-15)

    def test_two_qubit_entry(self):
        assert abs(dft_matrix(2)[1, 1] - 0.5j) < 1e-15

    def test_two_qubit_column(self):
        np.testing.assert_allclose(
            dft_matrix(2)[:, 1], 0.5 * np.array([1, 1j, -1, -1j]), atol=1e-15
        )

    @pytest.mark.parametrize("n", range(1, 9))
    def test_unitary(self, n):
        assert_unitary(dft_matrix(n))

    def test_range_cap(self):
        with pytest.raises(ValueError, match="1..12"):
            dft_matrix(13)
        with pytest.raises(ValueError, match="1..12"):
            dft_matrix(0)


class TestPhaseAdderMatrix:
    def test_zero_constant_is_identity(self):
        assert np.array_equal(phase_adder_matrix(3, 0), np.eye(8, dtype=np.complex128))

    def test_single_qubit_odd_constant(self):
        np.testing.assert_allclose(phase_adder_matrix(1, 1), np.diag([1, -1]), atol=1e-15)

    def test_two_qubit_powers_of_i(self):
        np.testing.assert_allclose(
            phase_adder_matrix(2, 1), np.diag([1, 1j, -1, -1j]), atol=1e-15
        )

    def test_constant_wraps_exactly(self):
        assert np.array_equal(phase_adder_matrix(3, 2), phase_adder_matrix(3, 10))
        assert np.array_equal(phase_adder_matrix(3, 2), phase_adder_matrix(3, -6))

    def test_huge_constant(self):
        assert np.array_equal(phase_adder_matrix(2, 10**30 + 1), phase_adder_matrix(2, 1))

    @pytest.mark.parametrize("n,c", [(1, 1), (3, 5), (6, 41)])
    def test_unitary(self, n, c):
        assert_unitary(phase_adder_matrix(n, c))


class TestPermutationMatrix:
    def test_zero_shift_is_identity(self):
        assert np.array_equal(permutation_add_matrix(2, 0), np.eye(4, dtype=np.complex128))

    def test_single_qubit_flip(self):
        assert np.array_equal(
            permutation_add_matrix(1, 1), np.array([[0, 1], [1, 0]], dtype=np.complex128)
        )

    def test_negative_equals_complement(self):
        assert np.array_equal(permutation_add_matrix(2, 3), permutation_add_matrix(2, -1))

    def test_moves_columns(self):
        matrix = permutation_add_matrix(2, 1)
        # column k has its one at row k+1 mod 4
        for k in range(4):
            assert matrix[(k + 1) % 4, k] == 1.0

    @pytest.mark.parametrize("n,c", [(2, 1), (4, 7), (5, 31)])
    def test_unitary(self, n, c):
        assert_unitary(permutation_add_matrix(n, c))


class TestCircuitToMatrix:
    def test_empty_circuit_is_identity(self):
        assert np.array_equal(circuit_to_matrix(Circuit(2, ())), np.eye(4, dtype=np.complex128))

    def test_single_phase_gate(self):
        matrix = circuit_to_matrix(Circuit(1, (phase(1, math.pi),)))
        np.testing.assert_allclose(matrix, np.diag([1, -1]), atol=1e-15)

    def test_transform_circuit_matches_dense(self):
        error = np.max(np.abs(circuit_to_matrix(qft_circuit(2)) - dft_matrix(2)))
        assert error < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_transform_unitary(self, n):
        assert_unitary(circuit_to_matrix(qft_circuit(n)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_bitwise_equal_to_a_column_by_column_build(self, n):
        circuit = const_adder_circuit(n, 3 * n + 1)
        expected = np.empty((1 << n, 1 << n), dtype=np.complex128)
        for column in range(1 << n):
            state = basis_state(n, column)
            run_circuit(circuit, state)
            expected[:, column] = state.amplitudes
        assert np.array_equal(circuit_to_matrix(circuit), expected)

    def test_column_k_is_the_run_on_k(self):
        # the adder's permutation matrix is not symmetric, so a matrix built or returned transposed fails
        circuit = const_adder_circuit(3, 5)
        matrix = circuit_to_matrix(circuit)
        assert np.max(np.abs(matrix - matrix.T)) > 0.5
        for k in range(8):
            state = basis_state(3, k)
            run_circuit(circuit, state)
            assert np.array_equal(matrix[:, k], state.amplitudes)


class TestOracleChain:
    """The three dense matrices agree with each other and with the circuits."""

    def test_conjugated_diagonal_is_the_permutation(self):
        rng = np.random.default_rng(42)
        for n in range(1, 7):
            dim = 1 << n
            transform = dft_matrix(n)
            adjoint = transform.conj().T
            for c in rng.integers(0, 4 * dim, size=20):
                lhs = adjoint @ phase_adder_matrix(n, int(c)) @ transform
                error = np.max(np.abs(lhs - permutation_add_matrix(n, int(c))))
                assert error < 1e-10

    @pytest.mark.parametrize("n", range(1, 7))
    def test_adder_circuit_equals_permutation_for_every_constant(self, n):
        dim = 1 << n
        for c in range(dim):
            matrix = circuit_to_matrix(const_adder_circuit(n, c))
            error = np.max(np.abs(matrix - permutation_add_matrix(n, c)))
            assert error < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_register_adder_matrix_is_the_expected_permutation(self, n):
        dim = 1 << n
        total = 1 << (2 * n)
        expected = np.zeros((total, total), dtype=np.complex128)
        for a in range(dim):
            for b in range(dim):
                expected[a + dim * ((a + b) % dim), a + dim * b] = 1.0
        matrix = circuit_to_matrix(draper_adder_circuit(n))
        assert np.max(np.abs(matrix - expected)) < 1e-10


class TestEquivalenceCheck:
    @pytest.mark.parametrize("n,c", [(1, 0), (1, 1), (2, 3), (4, 9), (6, 41), (8, 200)])
    def test_passes_for_valid_inputs(self, n, c):
        errors = phase_adder_equivalence_errors(n, [c])
        assert errors.shape == (1,)
        assert errors[0] < 1e-10

    def test_constant_beyond_range_passes(self):
        assert phase_adder_equivalence_errors(3, [8 + 5])[0] < 1e-10

    def test_factor_order_matters(self):
        # building the product with the most significant factor on the wrong
        # side must not match the diagonal; guards the qubit-order convention
        c = 1
        low = np.array([[1, 0], [0, np.exp(1j * c * math.pi / 2)]])
        high = np.array([[1, 0], [0, np.exp(1j * c * math.pi)]])
        wrong = np.kron(low, high)
        assert np.max(np.abs(wrong - phase_adder_matrix(2, c))) > 0.5

    @staticmethod
    def dense_reference(n, c):
        """The check on 2**N by 2**N matrices, built with np.kron."""
        dim = 1 << n
        reduced = c % dim

        def rotation(theta):
            return np.array([[1.0, 0.0], [0.0, cmath.exp(1j * theta)]], dtype=np.complex128)

        def angle(t):
            # the program's synthesis: c * pi / 2**(N - t) less its whole turns, in integers
            return math.pi * (reduced % (2 << (n - t))) / (1 << (n - t))

        tensor = rotation(angle(1))
        for t in range(2, n + 1):
            tensor = np.kron(rotation(angle(t)), tensor)
        return float(np.max(np.abs(tensor - phase_adder_matrix(n, c))))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_within_1e_15_of_the_dense_matrix_check(self, n):
        # within 1e-15, not bitwise: the check multiplies the rotations in the plan's
        # phase-vector order, and from 4 qubits up the last bit differs from np.kron's
        for c in range(4 << n):
            assert abs(phase_adder_equivalence_errors(n, [c])[0] - self.dense_reference(n, c)) <= 1e-15

    @pytest.mark.parametrize("n", [1, 5, 9])
    def test_rotations_are_each_gates_rotation_multiplied_in_gate_order(self, n, monkeypatch):
        # the array call gives bitwise the rows that a loop of cmath.exp over the gates gives; a
        # second rotation on qubit 1 makes one entry of each row the product of two, in gate order
        built = fourieradd.dense.phase_adder_circuit

        def doubled(width, c):
            return Circuit(width, built(width, c).gates + (phase(1, 0.1 * c + 0.3),))

        seen = []
        vector = fourieradd.circuits._phase_vector

        def recording(rotations, first, out=None):
            seen.append(rotations.copy())
            return vector(rotations, first, out)

        monkeypatch.setattr(fourieradd.dense, "phase_adder_circuit", doubled)
        monkeypatch.setattr(fourieradd.circuits, "_phase_vector", recording)
        constants = list(range(min(4 << n, 200)))
        phase_adder_equivalence_errors(n, constants)
        expected = np.ones((len(constants), n), dtype=np.complex128)
        for row, c in enumerate(constants):
            for gate in doubled(n, c).gates:
                expected[row, gate.target - 1] *= cmath.exp(1j * gate.angle)
        assert len(seen) == 1 and np.array_equal(seen[0], expected)

    def test_peak_memory_holds_no_matrix(self):
        # one 4096 by 4096 complex matrix alone is 256 MiB; the diagonals are 64 KiB
        tracemalloc.start()
        try:
            error = phase_adder_equivalence_errors(12, [2**11 + 3])[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert error < 1e-10
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("n,c", [(1, 1), (3, 5), (6, 41), (12, 2**11 + 3)])
    def test_rotation_off_by_one_unit_fails(self, n, c, monkeypatch):
        # shift the angle of each qubit's rotation in turn by 2*pi/2**N
        build = fourieradd.dense.phase_adder_circuit
        for qubit in range(1, n + 1):

            def shifted(width, constant, qubit=qubit):
                gates = [
                    phase(gate.target, gate.angle + 2 * math.pi / (1 << n)) if gate.target == qubit else gate
                    for gate in build(width, constant).gates
                ]
                return Circuit(width, tuple(gates))

            monkeypatch.setattr(fourieradd.dense, "phase_adder_circuit", shifted)
            assert phase_adder_equivalence_errors(n, [c])[0] > 1e-4

    @pytest.mark.parametrize("n", [1, 3, 6, 12])
    def test_a_wrong_built_stage_fails(self, n, monkeypatch):
        # the check reads the program's phase stage; hand it the stage for c + 1
        build = fourieradd.dense.phase_adder_circuit
        monkeypatch.setattr(
            fourieradd.dense,
            "phase_adder_circuit",
            lambda width, constant: build(width, constant + 1),
        )
        for c in (0, 5, (1 << n) - 1, 3 << n):
            assert phase_adder_equivalence_errors(n, [c])[0] > 1e-4

    def test_nan_rotations_fail(self, monkeypatch):
        monkeypatch.setattr(
            fourieradd.circuits,
            "_phase_vector",
            lambda rotations, first: np.full(1 << rotations.shape[-1], complex("nan")),
        )
        assert math.isnan(phase_adder_equivalence_errors(4, [9])[0])

    def test_nan_closed_form_fails(self, monkeypatch):
        monkeypatch.setattr(
            fourieradd.dense,
            "_phase_adder_diagonal",
            lambda dim, reduced: np.full(dim, complex("nan")),
        )
        assert math.isnan(phase_adder_equivalence_errors(4, [9])[0])


def inverse_transform_column_errors(n):
    """The modularity rows' scores: the built inverse transform run on every Fourier column."""
    dim = 1 << n
    return _errors(run_filled(inverse_qft_circuit(n), dim, _fourier_columns(dim)), dim, lambda inputs: inputs)


class TestBatchedChecks:
    """A batch of constants gives bit for bit the errors of one-element calls; a batch of columns
    gives the errors of one-column runs up to the rounding of a wider run."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_equivalence_batch_equals_one_constant_calls(self, n):
        for seed in range(10):
            constants = np.random.default_rng(seed).integers(0, 4 << n, size=20).tolist()
            batched = phase_adder_equivalence_errors(n, constants)
            single = [phase_adder_equivalence_errors(n, [c])[0] for c in constants]
            assert [error.hex() for error in batched.tolist()] == [error.hex() for error in single]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_modularity_batch_equals_one_column_calls(self, n):
        dim = 1 << n
        fill = _fourier_columns(dim)
        single = [
            _errors(run_filled(inverse_qft_circuit(n), 1, lambda _, block: fill(x, block)), 1, lambda i: i + x)[0]
            for x in range(dim)
        ]
        assert np.max(np.abs(inverse_transform_column_errors(n) - single)) < 1e-15

    def test_column_errors_do_not_depend_on_the_batch_size(self, monkeypatch):
        # one column per block, then all 2**10 columns of width 10 in one block
        expected = inverse_transform_column_errors(10)
        for amplitudes in (1 << 10, 1 << 20):
            monkeypatch.setattr(fourieradd.circuits, "BATCH_AMPLITUDES", amplitudes)
            assert np.max(np.abs(inverse_transform_column_errors(10) - expected)) < 1e-15

    def test_empty_batches(self):
        assert phase_adder_equivalence_errors(4, []).shape == (0,)

    @pytest.mark.parametrize(
        "check, bound",
        [
            (lambda: phase_adder_equivalence_errors(12, range(7, 7 + 20 * 97, 97)), 8 * 2**20),
            (lambda: inverse_transform_column_errors(12), 3 * 16 * BATCH_AMPLITUDES + (8 << 12)),
        ],
        ids=["equivalence", "modularity"],
    )
    def test_peak_memory_at_twelve_qubits(self, check, bound):
        # equivalence's 20 constants, one row of phase vector and of closed form each; or the inverse
        # transform on all 4096 columns, filled block by block: beside the work batch run its output
        # copy or a dense step's scratch, and the scores
        tracemalloc.start()
        try:
            errors = check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(errors < 1e-10)
        assert peak <= bound


class TestModularityCheck:
    """The built inverse transform carries the Fourier column of any x >= 0 back to |x mod 2**N>."""

    @pytest.mark.parametrize(
        "n,x,target",
        [(2, 5, 1), (3, 8, 0), (2, 2, 2), (3, 29, 5), (1, 7, 1)],
    )
    def test_lands_on_wrapped_value(self, n, x, target):
        state = StateVector(n, fourier_column(n, x))
        run_circuit(inverse_qft_circuit(n), state)
        assert np.max(np.abs(state.amplitudes - np.eye(1 << n)[target])) < 1e-10
        assert x % (1 << n) == target

    def test_huge_column_index(self):
        self.test_lands_on_wrapped_value(4, 10**30 + 7, 7)

    @pytest.mark.parametrize("n", [1, 3, 6, 9])
    def test_agrees_with_the_full_inverse_transform(self, n):
        # the modularity rows run the built inverse transform on every column; apply the whole
        # closed-form inverse to the same columns here
        dim = 1 << n
        runs = run_filled(inverse_qft_circuit(n), dim, _fourier_columns(dim))
        outputs = np.concatenate([block.copy() for _, block in runs], axis=1)
        expected = dft_matrix(n).conj().T @ dft_matrix(n)
        assert np.max(np.abs(outputs - expected)) < 1e-14


class TestCheckReport:
    def test_json_shape(self):
        report = verify_modularity(2)[0]
        doc = json.loads(json.dumps(report.to_dict()))
        assert set(doc) == {"check", "n", "c", "max_error", "pass"}
        assert doc["check"] == "modularity"
        assert doc["n"] == 1
        assert doc["c"] in (0, 1)  # the column x with the larger rounding error
        assert doc["pass"] is True
