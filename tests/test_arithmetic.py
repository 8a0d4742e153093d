import math

import numpy as np
import pytest

from fourieradd import (
    StateVector,
    apply_const_add,
    basis_state,
    circuit_to_matrix,
    const_adder_circuit,
    count_gates,
    draper_adder_circuit,
    draper_inner_circuit,
    phase_adder_circuit,
    run_circuit,
)
from oracles import (
    copy_state,
    fidelity,
    permutation_add_matrix,
    phase_adder_matrix,
    random_state,
    superposition_state,
)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize(
    "build",
    [
        lambda n: phase_adder_circuit(n, 1),
        lambda n: const_adder_circuit(n, 1),
        draper_inner_circuit,
        draper_adder_circuit,
    ],
    ids=["phase_adder_circuit", "const_adder_circuit", "draper_inner_circuit", "draper_adder_circuit"],
)
def test_builders_refuse_a_width_below_one(build, n):
    with pytest.raises(ValueError, match=rf"got {n}$"):
        build(n)


class TestPhaseAdderStructure:
    def test_exactly_one_rotation_per_qubit(self):
        circuit = phase_adder_circuit(4, 5)
        assert len(circuit.gates) == 4
        assert [gate.target for gate in circuit.gates] == [1, 2, 3, 4]
        assert all(gate.kind == "phase" for gate in circuit.gates)

    def test_angles_follow_the_weight_ladder(self):
        # 5 * pi / 2**(4 - t) less its whole turns: 5 pi / 2 becomes pi / 2 and 5 pi becomes pi
        circuit = phase_adder_circuit(4, 5)
        expected = [5 * math.pi / 8, 5 * math.pi / 4, math.pi / 2, math.pi]
        assert [gate.angle for gate in circuit.gates] == expected

    def test_zero_constant_still_emits_all_rotations(self):
        circuit = phase_adder_circuit(5, 0)
        assert len(circuit.gates) == 5
        assert all(gate.angle == 0.0 for gate in circuit.gates)

    def test_constant_reduced_before_angles(self):
        wrapped = phase_adder_circuit(3, 5 + 8)
        plain = phase_adder_circuit(3, 5)
        assert wrapped.gates == plain.gates

    def test_constant_wraps(self):
        assert phase_adder_circuit(3, 8).gates == phase_adder_circuit(3, 0).gates
        assert phase_adder_circuit(3, 9).gates == phase_adder_circuit(3, 1).gates

    def test_negative_constant_wraps(self):
        assert phase_adder_circuit(3, -1).gates == phase_adder_circuit(3, 7).gates
        assert phase_adder_circuit(3, -9).gates == phase_adder_circuit(3, 7).gates


class TestPhaseAdderDiagonal:
    def test_single_qubit_form(self):
        # one qubit: diag(1, -1) for an odd constant, identity for an even one
        np.testing.assert_allclose(
            circuit_to_matrix(phase_adder_circuit(1, 1)),
            np.diag([1.0, -1.0]),
            atol=1e-12,
        )
        np.testing.assert_allclose(
            circuit_to_matrix(phase_adder_circuit(1, 2)),
            np.eye(2),
            atol=1e-12,
        )

    def test_two_qubit_form(self):
        # diag of successive powers of i for constant 1
        np.testing.assert_allclose(
            circuit_to_matrix(phase_adder_circuit(2, 1)),
            np.diag([1.0, 1j, -1.0, -1j]),
            atol=1e-12,
        )

    @pytest.mark.parametrize("c", [0, 1, 3, 5, 7, 12])
    def test_matches_dense_diagonal(self, c):
        error = np.max(
            np.abs(circuit_to_matrix(phase_adder_circuit(3, c)) - phase_adder_matrix(3, c))
        )
        assert error < 1e-12

    def test_is_diagonal(self):
        matrix = circuit_to_matrix(phase_adder_circuit(3, 5))
        assert np.max(np.abs(matrix - np.diag(np.diag(matrix)))) == 0.0


class TestConstAdder:
    def test_wraps_around(self):
        state = basis_state(2, 3)
        run_circuit(const_adder_circuit(2, 1), state)
        assert fidelity(state, basis_state(2, 0)) >= 1.0 - 1e-10

    def test_adding_zero_is_identity(self):
        state = random_state(3, seed=2)
        reference = copy_state(state)
        run_circuit(const_adder_circuit(3, 0), state)
        assert fidelity(state, reference) >= 1.0 - 1e-10

    def test_four_qubit_example(self):
        state = basis_state(4, 11)
        run_circuit(const_adder_circuit(4, 5), state)
        assert fidelity(state, basis_state(4, 0)) >= 1.0 - 1e-10

    def test_matches_permutation_oracle(self):
        for c in (0, 1, 6, 13):
            matrix = circuit_to_matrix(const_adder_circuit(4, c))
            error = np.max(np.abs(matrix - permutation_add_matrix(4, c)))
            assert error < 1e-10

    def test_gate_layout(self):
        report = count_gates(const_adder_circuit(4, 7))
        assert report.counted_total == 24
        assert report.phase == 4
        assert report.hadamard == 8
        assert report.swap == 4  # two transforms, two swaps each


class TestApplyConstAdd:
    def test_shifts_each_branch(self):
        state = superposition_state(2, [(1, math.sqrt(0.5)), (2, math.sqrt(0.5))])
        apply_const_add(state, 1)
        expected = superposition_state(2, [(2, math.sqrt(0.5)), (3, math.sqrt(0.5))])
        assert fidelity(state, expected) >= 1.0 - 1e-10

    def test_negative_constant_subtracts(self):
        state = basis_state(3, 5)
        apply_const_add(state, -2)
        assert fidelity(state, basis_state(3, 3)) >= 1.0 - 1e-10

    def test_uniform_superposition_is_invariant(self):
        n = 3
        amps = np.full(8, math.sqrt(1 / 8), dtype=np.complex128)
        state = StateVector(n, amps.copy())
        apply_const_add(state, 5)
        assert np.max(np.abs(state.amplitudes - amps)) < 1e-10

    @pytest.mark.parametrize("seed,c", [(0, 1), (1, 3), (2, 7), (3, -4)])
    def test_amplitudes_moved_with_phase_intact(self, seed, c):
        state = random_state(3, seed=seed)
        expected = np.roll(state.amplitudes, c)
        apply_const_add(state, c)
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-10

    def test_composition_matches_single_addition(self):
        state = random_state(4, seed=9)
        twice = copy_state(state)
        apply_const_add(twice, 3)
        apply_const_add(twice, 6)
        once = copy_state(state)
        apply_const_add(once, 9)
        assert fidelity(twice, once) >= 1.0 - 1e-10

    def test_add_then_subtract_is_identity(self):
        state = random_state(4, seed=10)
        reference = copy_state(state)
        apply_const_add(state, 11)
        apply_const_add(state, -11)
        assert fidelity(state, reference) >= 1.0 - 1e-10


class TestDraperInner:
    def test_gate_count(self):
        assert len(draper_inner_circuit(4).gates) == 10

    def test_controls_in_low_register_targets_in_high(self):
        n = 3
        for gate in draper_inner_circuit(n).gates:
            assert gate.kind == "cphase"
            assert 1 <= gate.control <= n
            assert n + 1 <= gate.target <= 2 * n

    def test_angles_for_three_qubits(self):
        gates = draper_inner_circuit(3).gates
        got = {(g.control, g.target): g.angle for g in gates}
        expected = {
            (1, 4): 2 * math.pi / 8,
            (1, 5): 2 * math.pi / 4,
            (1, 6): 2 * math.pi / 2,
            (2, 4): 2 * math.pi / 4,
            (2, 5): 2 * math.pi / 2,
            (3, 4): 2 * math.pi / 2,
        }
        # pairs that would rotate by a full turn are dropped at construction
        assert got == expected


class TestDraperAdder:
    def test_spans_both_registers(self):
        assert draper_adder_circuit(3).n_qubits == 6

    def test_two_qubit_examples(self):
        for (a, b), (expect_a, expect_b) in [((1, 2), (1, 3)), ((3, 3), (3, 2))]:
            state = basis_state(4, a + 4 * b)
            run_circuit(draper_adder_circuit(2), state)
            target = basis_state(4, expect_a + 4 * expect_b)
            assert fidelity(state, target) >= 1.0 - 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_small_widths(self, n):
        dim = 1 << n
        circuit = draper_adder_circuit(n)
        for a in range(dim):
            for b in range(dim):
                state = basis_state(2 * n, a + dim * b)
                run_circuit(circuit, state)
                on_target = abs(state.amplitudes[a + dim * ((a + b) % dim)]) ** 2
                assert on_target >= 1.0 - 1e-10

    def test_keeps_first_register_intact_in_superposition(self):
        # register b superposed, register a classical
        n = 2
        weight = math.sqrt(0.5)
        state = superposition_state(4, [(2 + 4 * 0, weight), (2 + 4 * 1, weight)])
        run_circuit(draper_adder_circuit(n), state)
        expected = superposition_state(4, [(2 + 4 * 2, weight), (2 + 4 * 3, weight)])
        assert fidelity(state, expected) >= 1.0 - 1e-10
