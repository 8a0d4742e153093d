import json
import math

import numpy as np
import pytest

import fourieradd.circuits as circuits_module
from fourieradd import (
    StateVector,
    apply_const_add,
    basis_state,
    circuit_from_dict,
    circuit_to_dict,
    dft_matrix,
    state_from_dict,
    state_to_dict,
)
from fourieradd.cli import PROB_DISPLAY_CUTOFF, _print_state_table, main


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse reports usage errors by exiting
        return exc.code


def table_rows(text):
    rows = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        index, re, im, prob = line.split()
        rows[int(index)] = (float(re), float(im), float(prob))
    return rows


class TestAdd:
    def test_basis_input(self, capsys):
        assert run_cli(["add", "--n", "3", "--const", "4", "--input", "3"]) == 0
        rows = table_rows(capsys.readouterr().out)
        assert set(rows) == {7}
        re, im, prob = rows[7]
        assert math.isclose(re, 1.0, abs_tol=1e-9)
        assert abs(im) < 1e-9
        assert math.isclose(prob, 1.0, abs_tol=1e-9)

    def test_wraps_at_register_size(self, capsys):
        assert run_cli(["add", "--n", "2", "--const", "3", "--input", "2"]) == 0
        assert set(table_rows(capsys.readouterr().out)) == {1}

    def test_negative_constant_subtracts(self, capsys):
        assert run_cli(["add", "--n", "3", "--const", "-1", "--input", "0"]) == 0
        assert set(table_rows(capsys.readouterr().out)) == {7}

    def test_json_output_is_a_valid_state(self, capsys):
        assert run_cli(["add", "--n", "2", "--const", "1", "--input", "0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"n", "amplitudes"}
        state = state_from_dict(payload)
        assert state.n_qubits == 2
        assert int(np.argmax(state.probabilities())) == 1

    def test_json_output_reserializes_identically(self, capsys):
        # parse -> rebuild -> serialize must be a fixed point of the format
        assert run_cli(["add", "--n", "3", "--const", "5", "--input", "6", "--json"]) == 0
        text = capsys.readouterr().out.strip()
        payload = json.loads(text)
        again = json.dumps(state_to_dict(state_from_dict(payload)))
        assert again == text

    def test_state_file_input(self, tmp_path, capsys):
        inv = 1.0 / math.sqrt(2.0)
        path = tmp_path / "state.json"
        path.write_text(
            json.dumps({"n": 2, "amplitudes": [[0.0, 0.0], [0.0, 0.0], [inv, 0.0], [inv, 0.0]]})
        )
        assert run_cli(["add", "--n", "2", "--const", "1", "--input", str(path)]) == 0
        rows = table_rows(capsys.readouterr().out)
        assert set(rows) == {0, 3}
        assert math.isclose(rows[0][2], 0.5, abs_tol=1e-9)
        assert math.isclose(rows[3][2], 0.5, abs_tol=1e-9)

    def test_input_value_out_of_range(self, capsys):
        assert run_cli(["add", "--n", "3", "--const", "1", "--input", "8"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_missing_state_file(self, capsys):
        assert run_cli(["add", "--n", "2", "--const", "1", "--input", "nosuch.json"]) == 1
        assert "cannot read state file" in capsys.readouterr().err

    def test_malformed_state_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(["add", "--n", "2", "--const", "1", "--input", str(path)]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_unnormalized_state_file(self, tmp_path, capsys):
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps({"n": 1, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}))
        assert run_cli(["add", "--n", "1", "--const", "1", "--input", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_integer_amplitude_past_the_float_range(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"n": 1, "amplitudes": [[10**400, 0], [0, 0]]}))
        assert run_cli(["add", "--n", "1", "--const", "1", "--input", str(path)]) == 1
        assert "amplitude 0 is not finite" in capsys.readouterr().err

    def test_state_file_width_mismatch(self, tmp_path, capsys):
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps({"n": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
        assert run_cli(["add", "--n", "2", "--const", "1", "--input", str(path)]) == 1
        assert "holds 1 qubit(s)" in capsys.readouterr().err

    def test_rejects_zero_width(self, capsys):
        assert run_cli(["add", "--n", "0", "--const", "1", "--input", "0"]) == 2
        capsys.readouterr()

    def test_json_and_table_are_exclusive(self, capsys):
        code = run_cli(["add", "--n", "2", "--const", "1", "--input", "0", "--json", "--table"])
        assert code == 2
        capsys.readouterr()


class TestAddReg:
    def test_basic_sum(self, capsys):
        assert run_cli(["add-reg", "--n", "2", "--a", "1", "--b", "2"]) == 0
        assert capsys.readouterr().out.strip() == "a=1 b=3"

    def test_wraps_modulo_register_size(self, capsys):
        assert run_cli(["add-reg", "--n", "2", "--a", "3", "--b", "3"]) == 0
        assert capsys.readouterr().out.strip() == "a=3 b=2"

    def test_zero_plus_zero(self, capsys):
        assert run_cli(["add-reg", "--n", "3", "--a", "0", "--b", "0"]) == 0
        assert capsys.readouterr().out.strip() == "a=0 b=0"

    def test_operand_out_of_range(self, capsys):
        assert run_cli(["add-reg", "--n", "2", "--a", "4", "--b", "0"]) == 2
        capsys.readouterr()
        assert run_cli(["add-reg", "--n", "2", "--a", "0", "--b", "7"]) == 2
        capsys.readouterr()

    def test_rejects_negative_operand(self, capsys):
        assert run_cli(["add-reg", "--n", "2", "--a", "-1", "--b", "0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("n", [3, 9])  # 9 makes 18 qubits, which run in blocks
    def test_nan_output_is_an_error(self, n, monkeypatch, capsys):
        original = circuits_module.apply_hadamard

        def apply_hadamard_nan(state, target):
            original(state, target)
            state.amplitudes[:] = np.nan

        monkeypatch.setattr(circuits_module, "apply_hadamard", apply_hadamard_nan)
        assert run_cli(["add-reg", "--n", str(n), "--a", "2", "--b", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("shortfall, code", [(2e-9, 1), (5e-10, 0)])
    def test_basis_output_threshold(self, shortfall, code, monkeypatch, capsys):
        # the run leaves |a, a+b> with probability 1 - shortfall and the rest on another state;
        # BASIS_OUTPUT_MIN_PROB = 1 - 1e-9 lies between the two shortfalls
        def run_circuit(circuit, state):
            state.amplitudes[:] = 0.0
            state.amplitudes[2 + 8 * 7] = math.sqrt(1.0 - shortfall)
            state.amplitudes[0] = math.sqrt(shortfall)

        monkeypatch.setattr("fourieradd.cli.run_circuit", run_circuit)
        assert run_cli(["add-reg", "--n", "3", "--a", "2", "--b", "5"]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.out == ""
            assert captured.err.startswith("error: ")
        else:
            assert captured.out == "a=2 b=7\n"


def reference_table(state):
    """The table printed one row at a time: every row whose probability is not below the cutoff."""
    probabilities = state.probabilities()
    lines = []
    for index in range(state.dim):
        probability = float(probabilities[index])
        if probability < PROB_DISPLAY_CUTOFF:
            continue
        amplitude = state.amplitudes[index]
        lines.append(f"{index}  {float(amplitude.real)!r}  {float(amplitude.imag)!r}  {probability!r}\n")
    return "".join(lines)


NEAR_CUTOFF_ROWS = range(1, 50, 2)


def near_cutoff_state():
    """Rows whose probabilities sit a few ulps either side of the display cutoff."""
    amplitudes = np.zeros(64, dtype=np.complex128)
    edge = math.sqrt(PROB_DISPLAY_CUTOFF)
    for step, row in enumerate(NEAR_CUTOFF_ROWS, start=-12):
        amplitudes[row] = edge * (1.0 + step * 2.0**-52) * (1j if row % 4 == 3 else 1.0)
    amplitudes[0] = math.sqrt(1.0 - np.vdot(amplitudes, amplitudes).real)
    return StateVector(6, amplitudes)


def dense_state(n_qubits, seed):
    rng = np.random.default_rng(seed)
    amplitudes = rng.standard_normal(1 << n_qubits) + 1j * rng.standard_normal(1 << n_qubits)
    return StateVector(n_qubits, amplitudes / np.linalg.norm(amplitudes))


def nan_state():
    amplitudes = np.zeros(8, dtype=np.complex128)
    amplitudes[[1, 6]] = math.sqrt(0.5)
    amplitudes[3] = complex(math.nan, 0.0)
    return StateVector(3, amplitudes)


class TestStateTable:
    @pytest.mark.parametrize(
        "state",
        [dense_state(12, seed=4), basis_state(5, 19), nan_state(), near_cutoff_state()],
        ids=["dense", "basis", "nan", "near-cutoff"],
    )
    def test_bytes_equal_a_row_by_row_table(self, state, capsys):
        _print_state_table(state)
        assert capsys.readouterr().out == reference_table(state)

    def test_near_cutoff_rows_fall_on_both_sides(self):
        probabilities = near_cutoff_state().probabilities()[NEAR_CUTOFF_ROWS]
        assert (probabilities < PROB_DISPLAY_CUTOFF).any() and (probabilities >= PROB_DISPLAY_CUTOFF).any()

    def test_nan_row_is_printed(self, capsys):
        _print_state_table(nan_state())
        assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == ["1", "3", "6"]

    def test_json_bytes_equal_a_per_entry_document(self, tmp_path, capsys):
        state = dense_state(7, seed=8)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(state_to_dict(state)))
        assert run_cli(["add", "--n", "7", "--const", "-29", "--input", str(path), "--json"]) == 0
        apply_const_add(state, -29)
        pairs = [[float(z.real), float(z.imag)] for z in state.amplitudes]
        assert capsys.readouterr().out == json.dumps({"n": 7, "amplitudes": pairs}) + "\n"


class TestVerify:
    def test_const_suite_passes(self, capsys):
        assert run_cli(["verify", "--suite", "const", "--n-max", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        for n, line in zip((1, 2, 3), lines):
            assert line.startswith(f"const-adder-exhaustive  n={n}  ")
            assert "max_error=" in line
            assert line.endswith("pass")
        assert lines[-1] == "all 3 checks passed"

    def test_all_suite_report_names(self, capsys):
        assert run_cli(["verify", "--suite", "all", "--n-max", "2"]) == 0
        out = capsys.readouterr().out
        for name in (
            "const-adder-exhaustive",
            "register-adder-exhaustive",
            "phase-adder-equivalence",
            "modularity",
            "modular-constant-shift",
        ):
            assert name in out
        assert "all 10 checks passed" in out

    def test_equivalence_suite_is_deterministic_per_seed(self, capsys):
        assert run_cli(["verify", "--suite", "equivalence", "--n-max", "4", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert run_cli(["verify", "--suite", "equivalence", "--n-max", "4", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first

    def test_rejects_unknown_suite(self, capsys):
        assert run_cli(["verify", "--suite", "everything"]) == 2
        capsys.readouterr()

    def test_rejects_zero_width_bound(self, capsys):
        assert run_cli(["verify", "--suite", "const", "--n-max", "0"]) == 2
        capsys.readouterr()

    def test_tolerance_override_tightened(self, monkeypatch, capsys):
        # the pass rule is a strict max_error < tol, so zero can never pass
        monkeypatch.setenv("FOURIER_ADDER_TOL", "0")
        assert run_cli(["verify", "--suite", "const", "--n-max", "2"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_tolerance_override_loosened(self, monkeypatch, capsys):
        monkeypatch.setenv("FOURIER_ADDER_TOL", "1.0")
        assert run_cli(["verify", "--suite", "const", "--n-max", "2"]) == 0
        capsys.readouterr()

    def test_malformed_tolerance_override(self, monkeypatch, capsys):
        monkeypatch.setenv("FOURIER_ADDER_TOL", "banana")
        assert run_cli(["verify", "--suite", "const", "--n-max", "1"]) == 1
        assert "is not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["inf", "nan", "-1e-3", "-inf"])
    def test_rejects_tolerance_override_that_is_not_finite_and_nonnegative(self, raw, monkeypatch, capsys):
        monkeypatch.setenv("FOURIER_ADDER_TOL", raw)
        assert run_cli(["verify", "--suite", "const", "--n-max", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: FOURIER_ADDER_TOL={raw!r} must be a finite number >= 0" in captured.err

    @pytest.mark.parametrize("suite", ["equivalence", "modularity", "all"])
    def test_refuses_dense_suites_past_the_dense_cap(self, suite, capsys):
        # refused before any work, so nothing of 13 qubits is allocated
        assert run_cli(["verify", "--suite", suite, "--n-max", "13"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "limited to 12 qubits" in captured.err


class TestCounts:
    def test_csv_table(self, capsys):
        assert run_cli(["counts", "--n-max", "4"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "N,T_const,T_draper_inner,swaps"
        assert lines[1] == "1,3,1,0"
        assert lines[4] == "4,24,10,2"
        assert len(lines) == 5

    def test_json_table(self, capsys):
        assert run_cli(["counts", "--n-max", "4", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 4
        assert payload[3] == {"n": 4, "t_const": 24, "t_draper_inner": 10, "swaps": 2}

    def test_default_depth_is_eight(self, capsys):
        assert run_cli(["counts"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 9
        assert lines[8] == "8,80,36,4"

    def test_rejects_unknown_format(self, capsys):
        assert run_cli(["counts", "--format", "yaml"]) == 2
        capsys.readouterr()

    def test_rejects_zero_bound(self, capsys):
        assert run_cli(["counts", "--n-max", "0"]) == 2
        capsys.readouterr()


class TestQftDump:
    def test_circuit_dump_round_trips(self, capsys):
        assert run_cli(["qft-dump", "--n", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        circuit = circuit_from_dict(payload)
        assert circuit.n_qubits == 3
        assert len(circuit) == 3 + 3 + 1
        assert circuit_to_dict(circuit) == payload

    def test_circuit_dump_starts_on_top_qubit(self, capsys):
        assert run_cli(["qft-dump", "--n", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        first = payload["gates"][0]
        assert first["kind"] == "h"
        assert first["target"] == 4

    def test_matrix_dump_matches_dense_transform(self, capsys):
        assert run_cli(["qft-dump", "--n", "3", "--matrix"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 3
        matrix = np.array(
            [[complex(re, im) for re, im in row] for row in payload["matrix"]]
        )
        assert matrix.shape == (8, 8)
        np.testing.assert_allclose(matrix, dft_matrix(3), atol=1e-10)

    def test_rejects_oversized_dump(self, capsys):
        assert run_cli(["qft-dump", "--n", "7"]) == 2
        assert "limited to 6 qubits" in capsys.readouterr().err


class TestTopLevel:
    def test_requires_a_subcommand(self, capsys):
        assert run_cli([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["multiply"]) == 2
        capsys.readouterr()
