import pytest

from fourieradd import (
    Circuit,
    ComplexityRow,
    GateCountReport,
    complexity_table,
    const_adder_circuit,
    count_gates,
    draper_adder_circuit,
    draper_inner_circuit,
    phase_adder_circuit,
    qft_circuit,
)


class TestCountGates:
    def test_transform_tally(self):
        report = count_gates(qft_circuit(3))
        assert report == GateCountReport(3, 3, 0, 3, 1)

    def test_phase_stage_tally(self):
        report = count_gates(phase_adder_circuit(5, 7))
        assert (report.hadamard, report.phase, report.controlled_phase, report.swap) == (0, 5, 0, 0)

    def test_empty_circuit(self):
        report = count_gates(Circuit(4, ()))
        assert report == GateCountReport(4, 0, 0, 0, 0)
        assert report.counted_total == 0

    def test_totals(self):
        # the headline total leaves out the two bit-reversal swaps
        report = count_gates(qft_circuit(4))
        assert (report.counted_total, report.swap) == (4 + 6, 2)

    def test_rejects_negative_tally(self):
        with pytest.raises(ValueError):
            GateCountReport(2, -1, 0, 0, 0)


class TestClosedForms:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_const_adder_matches_formula(self, n):
        report = count_gates(const_adder_circuit(n, 3))
        assert report.counted_total == n * n + 2 * n

    @pytest.mark.parametrize("n", range(1, 17))
    def test_transform_matches_formula(self, n):
        report = count_gates(qft_circuit(n))
        assert report.counted_total == n * (n + 1) // 2

    @pytest.mark.parametrize("n", range(1, 17))
    def test_inner_stage_matches_formula(self, n):
        report = count_gates(draper_inner_circuit(n))
        assert report.controlled_phase == n * (n + 1) // 2

    @pytest.mark.parametrize("n", range(1, 17))
    def test_inner_stage_from_full_circuit(self, n):
        # the full register adder minus its two transforms leaves the inner rotations
        full = count_gates(draper_adder_circuit(n))
        transform = count_gates(qft_circuit(n))
        assert full.controlled_phase - 2 * transform.controlled_phase == n * (n + 1) // 2

    def test_headline_identity(self):
        # whole adder = two transforms plus one rotation per qubit
        for n in range(1, 17):
            adder = count_gates(const_adder_circuit(n, 1)).counted_total
            assert adder == 2 * count_gates(qft_circuit(n)).counted_total + n

    def test_small_values(self):
        assert count_gates(const_adder_circuit(1, 1)).counted_total == 3
        assert count_gates(const_adder_circuit(4, 1)).counted_total == 24
        assert count_gates(draper_inner_circuit(4)).counted_total == 10

    def test_zero_constant_rotations_are_not_elided(self):
        report = count_gates(const_adder_circuit(6, 0))
        assert report.phase == 6
        assert report.counted_total == 6 * 6 + 2 * 6


class TestComplexityTable:
    def test_first_four_rows(self):
        assert complexity_table(4) == [
            ComplexityRow(1, 3, 1, 0),
            ComplexityRow(2, 8, 3, 1),
            ComplexityRow(3, 15, 6, 1),
            ComplexityRow(4, 24, 10, 2),
        ]

    def test_row_growth_is_quadratic(self):
        rows = complexity_table(12)
        for row in rows:
            n = row.n_qubits
            assert row.const_adder_ops == n * n + 2 * n
            assert row.register_adder_inner_ops == n * (n + 1) // 2
            assert row.swaps_per_transform == n // 2

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            complexity_table(0)
