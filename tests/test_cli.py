import ast
import contextlib
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fourieradd.circuits as circuits_module
import fourieradd.cli as cli_module
import fourieradd.statevector as statevector_module
from fourieradd import (
    BATCH_AMPLITUDES,
    DEFAULT_TOL,
    StateVector,
    apply_const_add,
    basis_state,
    circuit_to_dict,
    circuit_to_matrix,
    qft_circuit,
    state_from_dict,
    state_to_json,
)
from fourieradd.cli import PROB_DISPLAY_CUTOFF, _print_state_table, main
from oracles import circuit_from_document, dft_matrix, probabilities, random_state


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse reports usage errors by exiting
        return exc.code


def patch_nan_hadamard(monkeypatch):
    # NaN from every 2 x 2 apply_dense, which is how each Hadamard of a matrix build runs
    original = circuits_module.apply_dense

    def nan_hadamard(state, matrix, *args):
        original(state, matrix, *args)
        if matrix.shape == (2, 2):
            state.amplitudes[:] = np.nan

    monkeypatch.setattr(circuits_module, "apply_dense", nan_hadamard)


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
        assert int(np.argmax(probabilities(state))) == 1

    def test_json_output_reserializes_identically(self, capsys):
        # parse -> rebuild -> serialize must be a fixed point of the format
        assert run_cli(["add", "--n", "3", "--const", "5", "--input", "6", "--json"]) == 0
        text = capsys.readouterr().out.strip()
        payload = json.loads(text)
        again = "".join(state_to_json(state_from_dict(payload)))
        assert again == text

    @pytest.mark.parametrize("n", [3, 17])  # 17 qubits run in blocks
    def test_json_refuses_a_non_finite_output(self, n, monkeypatch, capsys):
        # JSON has no token for NaN, and `add --input` refuses the NaN and Infinity that json.dumps writes
        patch_nan_hadamard(monkeypatch)
        assert run_cli(["add", "--n", str(n), "--const", "5", "--input", "3", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: amplitude 0 is not finite\n"

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

    def test_state_file_of_a_huge_width(self, tmp_path, capsys):
        # 2**(10**6) has more digits than Python converts to text; the error must not need them
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 10**6, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}))
        assert run_cli(["add", "--n", "2", "--const", "1", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert '"amplitudes" must be a list of 2**1000000 entries' in err
        assert "digits" not in err

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

    def test_a_reader_that_closes_stdout_gets_exit_1_and_no_traceback(self):
        # as `| head -c 20` does, in a real process through __main__.py; the 14-qubit document
        # is far larger than a pipe's buffer, so the program is still writing when the pipe closes
        src = str(Path(cli_module.__file__).parents[1])
        argv = [sys.executable, "-m", "fourieradd", "add", "--n", "14", "--const", "1", "--input", "3", "--json"]
        env = {**os.environ, "PYTHONPATH": src}
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as child:
            assert child.stdout.read(20) == b'{"n": 14, "amplitude'
            child.stdout.close()
            _, error = child.communicate(timeout=60)
        assert child.returncode == 1
        assert error == b""


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
        patch_nan_hadamard(monkeypatch)
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
    squares = probabilities(state)
    lines = []
    for index in range(len(squares)):
        probability = float(squares[index])
        if probability < PROB_DISPLAY_CUTOFF:
            continue
        amplitude = state.amplitudes[index]
        lines.append(f"{index}  {float(amplitude.real)!r}  {float(amplitude.imag)!r}  {probability!r}\n")
    return "".join(lines)


def assert_same_table(actual, expected):
    """Fail on the first row that differs, naming it; pytest's diff of two 4,096-row texts takes minutes."""
    if actual != expected:
        got, want = actual.splitlines(keepends=True), expected.splitlines(keepends=True)
        row = next((i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1]), min(len(got), len(want)))
        pytest.fail(f"row {row} of {len(got)} printed, {len(want)} expected: {got[row:row + 1]} != {want[row:row + 1]}")


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
    state = StateVector(3, amplitudes)
    state.amplitudes[3] = complex(math.nan, 0.0)  # set after construction, which refuses NaN
    return state


class TestStateTable:
    @pytest.mark.parametrize(
        "state",
        [dense_state(12, seed=4), basis_state(5, 19), nan_state(), near_cutoff_state()],
        ids=["dense", "basis", "nan", "near-cutoff"],
    )
    def test_bytes_equal_a_row_by_row_table(self, state, capsys):
        _print_state_table(state)
        assert_same_table(capsys.readouterr().out, reference_table(state))

    def test_near_cutoff_rows_fall_on_both_sides(self):
        squares = probabilities(near_cutoff_state())[NEAR_CUTOFF_ROWS]
        assert (squares < PROB_DISPLAY_CUTOFF).any() and (squares >= PROB_DISPLAY_CUTOFF).any()

    def test_nan_row_is_printed(self, capsys):
        _print_state_table(nan_state())
        assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == ["1", "3", "6"]

    def test_json_bytes_equal_a_per_entry_document(self, tmp_path, capsys):
        state = dense_state(7, seed=8)
        path = tmp_path / "state.json"
        path.write_text("".join(state_to_json(state)))
        assert run_cli(["add", "--n", "7", "--const", "-29", "--input", str(path), "--json"]) == 0
        apply_const_add(state, -29)
        pairs = [[float(z.real), float(z.imag)] for z in state.amplitudes]
        assert capsys.readouterr().out == json.dumps({"n": 7, "amplitudes": pairs}) + "\n"

    @pytest.mark.parametrize(
        "state",
        [dense_state(6, seed=4), basis_state(5, 19), nan_state(), near_cutoff_state()],
        ids=["dense", "basis", "nan", "near-cutoff"],
    )
    def test_pieces_of_two_rows_give_the_same_table(self, state, monkeypatch, capsys):
        # a piece edge after every second amplitude; nan_state's amplitudes 4 and 5 make no row,
        # so their piece is skipped
        monkeypatch.setattr(statevector_module, "BATCH_AMPLITUDES", 2)
        _print_state_table(state)
        assert_same_table(capsys.readouterr().out, reference_table(state))

    def test_pieces_of_two_rows_give_the_same_json(self, monkeypatch, tmp_path, capsys):
        # the separator between pairs is written across every piece edge, and only there
        monkeypatch.setattr(statevector_module, "BATCH_AMPLITUDES", 2)
        state = dense_state(5, seed=8)
        path = tmp_path / "state.json"
        path.write_text("".join(state_to_json(state)))
        assert run_cli(["add", "--n", "5", "--const", "-9", "--input", str(path), "--json"]) == 0
        apply_const_add(state, -9)
        pairs = [[float(z.real), float(z.imag)] for z in state.amplitudes]
        assert capsys.readouterr().out == json.dumps({"n": 5, "amplitudes": pairs}) + "\n"

    def test_json_refuses_a_non_finite_amplitude_in_a_later_piece(self, monkeypatch, capsys):
        # every amplitude is checked before the first piece is written
        monkeypatch.setattr(statevector_module, "BATCH_AMPLITUDES", 4)
        add = cli_module.apply_const_add

        def add_then_spoil(state, const):
            add(state, const)
            state.amplitudes[9] = complex(math.nan, 0.0)

        monkeypatch.setattr(cli_module, "apply_const_add", add_then_spoil)
        assert run_cli(["add", "--n", "4", "--const", "1", "--input", "3", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: amplitude 9 is not finite\n"


class TestVerify:
    def test_a_fresh_run_never_imports_the_worker_pool(self):
        # every verify batch is one block, which runs in the calling thread
        script = (
            "import contextlib, io, sys\n"
            "from fourieradd.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['verify', '--suite', 'all', '--n-max', '4'])\n"
            "print(code, 'concurrent.futures' in sys.modules)\n"
        )
        src = str(Path(cli_module.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
        assert result.stdout == "0 False\n"

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

    def test_every_report_row_is_well_formed_finite_and_below_the_tolerance(self, capsys):
        # the documented row format; clean rows print their error, not a floor of 0
        row = re.compile(r"^(\S+)  n=(\d+)  c=(\d+)  max_error=(\S+)  pass$")
        assert run_cli(["verify", "--suite", "all", "--n-max", "5"]) == 0
        *rows, summary = capsys.readouterr().out.splitlines()
        assert summary == "all 25 checks passed"
        seen = []
        for line in rows:
            match = row.match(line)
            assert match is not None, line
            name, n, _, error = match.groups()
            seen.append((name, int(n)))
            assert math.isfinite(float(error)) and 0.0 <= float(error) < DEFAULT_TOL, line
        names = ("const-adder-exhaustive", "register-adder-exhaustive", "phase-adder-equivalence")
        expected = [(name, n) for name in names for n in range(1, 6)]
        expected += [(name, n) for n in range(1, 6) for name in ("modularity", "modular-constant-shift")]
        assert seen == expected

    def test_equivalence_suite_is_deterministic_per_seed(self, capsys):
        assert run_cli(["verify", "--suite", "equivalence", "--n-max", "4", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert run_cli(["verify", "--suite", "equivalence", "--n-max", "4", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first

    def test_rejects_unknown_suite(self, capsys):
        assert run_cli(["verify", "--suite", "everything"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("suite", ["const", "draper", "equivalence", "modularity", "all"])
    def test_rejects_negative_seed(self, suite, capsys):
        assert run_cli(["verify", "--suite", suite, "--n-max", "2", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected a non-negative integer, got -1" in captured.err

    def test_rejects_zero_width_bound(self, capsys):
        assert run_cli(["verify", "--suite", "const", "--n-max", "0"]) == 2
        capsys.readouterr()

    def test_tolerance_override_tightened(self, monkeypatch, capsys):
        # the pass rule is a strict max_error < tol, so zero can never pass
        monkeypatch.setenv("FOURIER_ADDER_TOL", "0")
        assert run_cli(["verify", "--suite", "const", "--n-max", "2"]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_tolerance_override_of_zero_fails_every_modularity_row(self, monkeypatch, capsys):
        # the constant-shift check has no bound of its own: the override applies to it as well
        monkeypatch.setenv("FOURIER_ADDER_TOL", "0")
        assert run_cli(["verify", "--suite", "modularity", "--n-max", "2"]) == 1
        *rows, summary = capsys.readouterr().out.splitlines()
        assert [row.split()[0] for row in rows] == ["modularity", "modular-constant-shift"] * 2
        assert all(row.endswith("  FAIL") for row in rows)
        assert summary == "4 of 4 checks FAILED"

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

    def test_equivalence_runs_past_twelve_qubits(self, capsys):
        # only physical memory limits the width: 20 rows of 2**16 entries are about 73 MB
        assert run_cli(["verify", "--suite", "equivalence", "--n-max", "16"]) == 0
        *rows, summary = capsys.readouterr().out.splitlines()
        assert [row.split("  ")[:2] for row in rows] == [
            ["phase-adder-equivalence", f"n={n}"] for n in range(1, 17)
        ]
        assert all(row.endswith("  pass") for row in rows)
        assert summary == "all 16 checks passed"


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
        circuit = circuit_from_document(payload)
        assert circuit == qft_circuit(3)
        assert len(circuit.gates) == 3 + 3 + 1
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

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matrix_dump_is_the_per_entry_document(self, n, capsys):
        assert run_cli(["qft-dump", "--n", str(n), "--matrix"]) == 0
        matrix = circuit_to_matrix(qft_circuit(n))
        expected = {"n": n, "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in matrix]}
        assert capsys.readouterr().out == json.dumps(expected) + "\n"

    def test_rejects_oversized_dump(self, capsys):
        assert run_cli(["qft-dump", "--n", "7"]) == 2
        assert "limited to 6 qubits" in capsys.readouterr().err


class TestWidthCap:
    """Widths past physical memory are usage errors, refused before anything is allocated."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["add", "--n", "40", "--const", "1", "--input", "0"],
            ["add", "--n", "40", "--const", "1", "--input", "no-such-file.json"],
            ["add-reg", "--n", "20", "--a", "0", "--b", "1"],
            ["verify", "--suite", "const", "--n-max", "40"],
            ["verify", "--suite", "draper", "--n-max", "20"],
            ["verify", "--suite", "equivalence", "--n-max", "40"],
            ["verify", "--suite", "modularity", "--n-max", "40"],
            ["verify", "--suite", "all", "--n-max", "40"],
            ["add", "--n", "2000", "--const", "1", "--input", "0"],
            ["verify", "--suite", "const", "--n-max", "700"],
            ["counts", "--n-max", "100000"],
            # `add`'s charge does not depend on its output form, nor on its input before the
            # file is read: 28 qubits, the narrowest past 8 GiB, are refused in every form
            ["add", "--n", "28", "--const", "1", "--input", "0", "--json"],
            ["add", "--n", "28", "--const", "1", "--input", "no-such-file.json", "--json"],
            ["add", "--n", "28", "--const", "1", "--input", "no-such-file.json"],
        ],
    )
    def test_refuses_a_width_past_physical_memory(self, argv, monkeypatch, capsys):
        def refuse_to_allocate(*args, **kwargs):
            raise AssertionError("allocated a state before the width check")

        # an 8 GiB box, where `add --n 27` still fits
        monkeypatch.setattr(cli_module, "_physical_memory", lambda: 8 << 30)
        monkeypatch.setattr(cli_module, "basis_state", refuse_to_allocate)
        monkeypatch.setattr(cli_module, "_load_state_file", refuse_to_allocate)
        monkeypatch.setattr(cli_module, "run_suite", refuse_to_allocate)
        monkeypatch.setattr(cli_module, "complexity_table", refuse_to_allocate)
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "of physical memory" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["add", "--n", str(10**9), "--const", "1", "--input", "0"],
            ["add-reg", "--n", str(10**9), "--a", "0", "--b", "1"],
            ["verify", "--suite", "const", "--n-max", str(10**9)],
            ["verify", "--suite", "draper", "--n-max", str(10**9)],
            ["verify", "--suite", "equivalence", "--n-max", str(10**9)],
            ["verify", "--suite", "modularity", "--n-max", str(10**9)],
            ["verify", "--suite", "all", "--n-max", str(10**9)],
            ["counts", "--n-max", str(10**9)],
        ],
    )
    def test_a_huge_width_is_refused_without_building_its_size(self, argv, capsys):
        # 32 << 10**9 alone would be a 125 MB integer
        tracemalloc.start()
        try:
            code = run_cli(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "of physical memory" in capsys.readouterr().err
        assert peak < 2**20

    @pytest.mark.parametrize(
        "argv, needed",
        [
            (["add", "--n", "10", "--const", "3", "--input", "5"], 32 << 10),
            (["add-reg", "--n", "5", "--a", "1", "--b", "2"], 32 << 10),
            (["verify", "--suite", "const", "--n-max", "5"], 32 << 10),
            (["verify", "--suite", "draper", "--n-max", "3"], 88 << 6),
            # 168 bytes for each of the 272 transform and inverse gates of widths 1..8
            (["counts", "--n-max", "8"], 168 * 272),
            (["verify", "--suite", "modularity", "--n-max", "5"], 32 << 10),
            (["verify", "--suite", "equivalence", "--n-max", "5"], 1120 << 5),
            # `all` is charged as each of its suites: equivalence is the largest at 3 qubits,
            # draper at 4
            (["verify", "--suite", "all", "--n-max", "3"], 1120 << 3),
            (["verify", "--suite", "all", "--n-max", "4"], 88 << 8),
            # the output form leaves `add`'s charge alone; STATE is a state file, charged
            # 208 bytes for each of its entries
            (["add", "--n", "10", "--const", "3", "--input", "5", "--json"], 32 << 10),
            (["add", "--n", "10", "--const", "3", "--input", "STATE", "--json"], 208 << 10),
            (["add", "--n", "10", "--const", "3", "--input", "STATE"], 208 << 10),
        ],
    )
    def test_the_estimate_is_the_limit(self, argv, needed, monkeypatch, capsys, tmp_path):
        # beside its arrays every run is charged two batches, the work batch and a stretch's
        # phase vectors, and a block scratch per worker, and `add` one piece of state text;
        # STATE names a 10-qubit state file
        path = tmp_path / "state.json"
        path.write_text("".join(state_to_json(random_state(10, seed=10))))
        argv = [str(path) if arg == "STATE" else arg for arg in argv]
        text = cli_module.TEXT_PIECE_BYTES if argv[0] == "add" else 0
        for workers in (1, 3):
            monkeypatch.setattr(circuits_module, "_workers", lambda: workers)
            limit = needed + text + (2 + workers) * 16 * BATCH_AMPLITUDES
            monkeypatch.setattr(cli_module, "_physical_memory", lambda: limit)
            assert run_cli(argv) == 0
            capsys.readouterr()
            monkeypatch.setattr(cli_module, "_physical_memory", lambda: limit - 1)
            assert run_cli(argv) == 2
            assert "of physical memory" in capsys.readouterr().err

    def test_a_state_file_is_charged_by_its_entries_before_it_is_parsed(self, monkeypatch, capsys, tmp_path):
        # a 12-qubit file under --n 4 is refused by its 4096 entries, not read as 16
        path = tmp_path / "state.json"
        path.write_text("".join(state_to_json(random_state(12, seed=12))))

        def refuse_to_parse(*args, **kwargs):
            raise AssertionError("parsed a state file past the memory limit")

        monkeypatch.setattr(cli_module.json, "load", refuse_to_parse)
        fixed = cli_module.TEXT_PIECE_BYTES + (2 + circuits_module._workers()) * 16 * BATCH_AMPLITUDES
        monkeypatch.setattr(cli_module, "_physical_memory", lambda: fixed + (208 << 12) - 1)
        assert run_cli(["add", "--n", "4", "--const", "1", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"state file {str(path)!r} of 4096 entries needs more than" in captured.err


@pytest.mark.parametrize("source", ["basis", "file"])
@pytest.mark.parametrize("style", ["table", "json"])
def test_add_peak_memory_stays_within_its_charge(source, style, tmp_path):
    # the whole command at 18 qubits, its state text included, within what the guard charges
    # whatever the output form; stdout goes to a file, as a shell would send it, so no
    # captured copy of the text counts
    n = 18
    argv = ["add", "--n", str(n), "--const", "12345", "--input", "777"]
    charge = cli_module.STATE_BYTES_PER_AMPLITUDE << n
    if source == "file":
        path = tmp_path / "state.json"
        path.write_text("".join(state_to_json(random_state(n, seed=n))))
        argv[-1] = str(path)
        charge = cli_module.PARSE_BYTES_PER_ENTRY << n
    if style == "json":
        argv.append("--json")
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            code = run_cli(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    batches = (2 + circuits_module._workers()) * 16 * BATCH_AMPLITUDES
    assert peak <= charge + cli_module.TEXT_PIECE_BYTES + batches


class TestTopLevel:
    @pytest.mark.parametrize("layer", ["cli", "verify", "dense", "arithmetic", "circuits", "statevector"])
    def test_the_benchmarked_layers_import(self, layer):
        # perfbench/bench.py's load_program imports these six modules by name before any
        # benchmark run, so folding one into another would stop every run of the benchmark
        importlib.import_module(f"fourieradd.{layer}")

    def test_every_re_export_is_imported_somewhere(self):
        # the package re-exports only what a test, the benchmark or the README imports
        root = Path(__file__).parents[1]
        package = ast.parse((root / "src" / "fourieradd" / "__init__.py").read_text(encoding="utf-8"))
        exported = {alias.name for node in package.body if isinstance(node, ast.ImportFrom) for alias in node.names}
        imported = set()
        for path in [*root.glob("tests/*.py"), *root.glob("perfbench/*.py"), root / "README.md"]:
            text = path.read_text(encoding="utf-8")
            imported |= set(re.findall(r"\bfourieradd\.(\w+)", text))
            for names in re.findall(r"from fourieradd import (?:\(([^)]*)\)|([^\n]*))", text):
                imported |= set(re.findall(r"\w+", "".join(names)))
        assert "StateVector" in exported
        assert sorted(exported - imported) == []

    def test_requires_a_subcommand(self, capsys):
        assert run_cli([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["multiply"]) == 2
        capsys.readouterr()
