"""Command-line front end: adders, verification sweeps, count tables, circuit dumps.

Exit codes: 0 on success, 1 on verification failure or bad input data,
2 on usage errors. The FOURIER_ADDER_TOL environment variable overrides
the default 1e-10 verification tolerance; it must be a finite number >= 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial
from itertools import chain

import numpy as np

from . import circuits
from .arithmetic import apply_const_add, complexity_table, draper_adder_circuit
from .circuits import BATCH_AMPLITUDES, circuit_to_dict, qft_circuit, run_circuit
from .dense import circuit_to_matrix
from .statevector import DEFAULT_TOL, StateVector, basis_state, state_from_dict, state_to_json, text_pieces
from .verify import SUITES, run_suite

PROB_DISPLAY_CUTOFF = 1e-12
# add-reg prints a=... b=... only when one basis state holds at least this probability
BASIS_OUTPUT_MIN_PROB = 1.0 - 1e-9
QFT_DUMP_MAX_QUBITS = 6
# Peak memory of a run, checked before anything is allocated. A state of 2**N
# 16-byte amplitudes runs beside the state-sized output of a wide dense step.
# `add` writes its state text piece by piece, so whatever the output form it is
# charged one piece beside the state: a piece's tracemalloc peak is 134 bytes a
# row as JSON and 240 as a table (CPython 3.11), and 288 leaves room for longer
# floats and indices. A state file is charged by its entries, counted before it
# is parsed: json.load holds 200-202 bytes per [re, im] entry.
# A verify suite is charged (bytes, k): bytes for each of 2**(k * N) entries.
# Per entry of its 4**N inputs, the const sweep holds the width's transform
# columns (16 bytes) and its 8-byte scores twice (its run's, and joined per
# constant): 32 bytes. The draper sweep holds five 8-byte arrays (inputs,
# operands, targets, scores) and the transform's matrix, and runs each input as
# a 4**N-amplitude state beside a wide dense step's state-sized output:
# 40 + 3 * 16 bytes. The equivalence check holds 20 rows of 2**N entries, and at
# its peak each row has its phase vector, exponents, scaled exponents and omega
# powers: 20 * (16 + 8 + 16 + 16) bytes. The modularity suite's constant-shift
# rows hold the same transform columns and scores as the const sweep: 32 bytes.
# `all` runs the four one after another, each freeing its arrays, so it is
# charged as each in turn. Beside these arrays, every run is charged two batches
# of BATCH_AMPLITUDES amplitudes, the work batch and the phase vectors of a
# stretch of the plan (at most one block), and a block scratch of that size per
# worker thread (circuits._workers()). A state wider than one block also has,
# per worker, a phase step's rotation vector of at most one block; no more
# workers run than the state has blocks, and no wide dense step's state-sized
# output is held meanwhile, so that output's charge covers them.
STATE_BYTES_PER_AMPLITUDE = 2 * 16
PARSE_BYTES_PER_ENTRY = 208
TEXT_PIECE_BYTES = 288 * BATCH_AMPLITUDES
SWEEP_CHARGES = {"const": (32, 2), "draper": (88, 2), "equivalence": (1120, 1), "modularity": (32, 2)}


def _integer(text: str, low: int = 1) -> int:
    """An integer argument of at least low, which is 1 (positive) or 0 (non-negative)."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc
    if value < low:
        raise argparse.ArgumentTypeError(f"expected a {('non-negative', 'positive')[low]} integer, got {value}")
    return value


def _dump_width(text: str) -> int:
    value = _integer(text)
    if value > QFT_DUMP_MAX_QUBITS:
        raise argparse.ArgumentTypeError(
            f"dumps are limited to {QFT_DUMP_MAX_QUBITS} qubits, got {value}"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fourier-adder",
        description="Quantum adders in the Fourier basis, simulated on a statevector.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_add = sub.add_parser("add", help="add a constant to a register state")
    p_add.add_argument("--n", type=_integer, required=True, help="register width in qubits")
    p_add.add_argument("--const", type=int, required=True, help="constant to add (any sign)")
    p_add.add_argument(
        "--input", required=True, help="basis value, or path to a state JSON file"
    )
    style = p_add.add_mutually_exclusive_group()
    style.add_argument("--json", action="store_true", help="emit the output state as JSON")
    style.add_argument(
        "--table", action="store_true", help="print nonzero amplitudes as a table (default)"
    )
    p_add.set_defaults(func=_cmd_add)

    p_reg = sub.add_parser("add-reg", help="add one register into another")
    p_reg.add_argument("--n", type=_integer, required=True, help="qubits per operand")
    p_reg.add_argument("--a", type=partial(_integer, low=0), required=True, help="value kept unchanged")
    p_reg.add_argument("--b", type=partial(_integer, low=0), required=True, help="value receiving the sum")
    p_reg.set_defaults(func=_cmd_add_reg)

    p_verify = sub.add_parser("verify", help="run verification sweeps")
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument("--n-max", type=_integer, default=4, help="largest width to sweep")
    p_verify.add_argument("--seed", type=partial(_integer, low=0), default=0, help="seed for randomized constants")
    p_verify.set_defaults(func=_cmd_verify)

    p_counts = sub.add_parser("counts", help="operation-count table for both adders")
    p_counts.add_argument("--n-max", type=_integer, default=8)
    p_counts.add_argument("--format", choices=("csv", "json"), default="csv")
    p_counts.set_defaults(func=_cmd_counts)

    p_dump = sub.add_parser(
        "qft-dump", help="emit the Fourier-transform circuit or matrix as JSON"
    )
    p_dump.add_argument(
        "--n", type=_dump_width, required=True, help=f"qubits, at most {QFT_DUMP_MAX_QUBITS}"
    )
    p_dump.add_argument(
        "--matrix", action="store_true", help="emit the dense matrix instead of the gate list"
    )
    p_dump.set_defaults(func=_cmd_qft_dump)

    return parser


def _physical_memory() -> int:
    """Bytes of physical memory, as the operating system reports them."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(
    parser: argparse.ArgumentParser, bytes_per_entry: int, entry_bits: int, request: str, text_bytes: int = 0
) -> None:
    """Refuse, as a usage error and before anything is allocated, a run that would not fit in memory.

    The run holds bytes_per_entry bytes for each of its 2**entry_bits entries,
    text_bytes of state text, and two batches plus one block scratch per
    worker, each of BATCH_AMPLITUDES 16-byte amplitudes. The bit lengths are
    compared first, so a huge width never builds that 2**entry_bits-sized
    integer.
    """
    physical = _physical_memory()
    available = physical - (2 + circuits._workers()) * 16 * BATCH_AMPLITUDES - text_bytes
    if entry_bits >= available.bit_length() or bytes_per_entry << entry_bits > available:
        parser.error(f"{request} needs more than the {physical / 2**30:.3g} GiB of physical memory")


def _load_state_file(path: str, n_qubits: int, parser: argparse.ArgumentParser) -> StateVector:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            # one "[" per [re, im] entry and one for their list, counted in 1 MiB reads
            entries = sum(chunk.count("[") for chunk in iter(partial(handle.read, 1 << 20), "")) - 1
            request = f"state file {path!r} of {entries} entries"
            _require_memory(parser, PARSE_BYTES_PER_ENTRY * entries, 0, request, TEXT_PIECE_BYTES)
            handle.seek(0)
            data = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read state file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"state file {path!r} is not valid JSON: {exc}") from exc
    state = state_from_dict(data)
    if state.n_qubits != n_qubits:
        raise ValueError(
            f"state file {path!r} holds {state.n_qubits} qubit(s), --n {n_qubits} was requested"
        )
    return state


def _print_state_table(state: StateVector) -> None:
    def fields(part: np.ndarray, start: int) -> tuple[int, tuple]:
        probabilities = np.abs(part) ** 2
        # written "not <" so that a NaN row is printed too
        rows = np.flatnonzero(~(probabilities < PROB_DISPLAY_CUTOFF))
        amplitudes = part[rows]
        columns = (rows + start, amplitudes.real, amplitudes.imag, probabilities[rows])
        return rows.size, tuple(chain.from_iterable(zip(*(column.tolist() for column in columns))))

    # writelines drops each piece before it takes the next
    sys.stdout.writelines(text_pieces(state.amplitudes, "%d  %r  %r  %r\n", "", fields))


def _cmd_add(args, parser: argparse.ArgumentParser) -> int:
    _require_memory(parser, STATE_BYTES_PER_AMPLITUDE, args.n, f"--n {args.n}", TEXT_PIECE_BYTES)
    dim = 1 << args.n
    try:
        value = int(args.input)
    except ValueError:
        value = None
    if value is None:
        state = _load_state_file(args.input, args.n, parser)
    else:
        if not 0 <= value < dim:
            parser.error(f"--input {value} out of range for --n {args.n}: expected 0 <= input < {dim}")
        state = basis_state(args.n, value)
    apply_const_add(state, args.const)
    if args.json:
        sys.stdout.writelines(state_to_json(state))
        print()
    else:
        _print_state_table(state)
    return 0


def _cmd_add_reg(args, parser: argparse.ArgumentParser) -> int:
    _require_memory(parser, STATE_BYTES_PER_AMPLITUDE, 2 * args.n, f"--n {args.n} ({2 * args.n} qubits)")
    dim = 1 << args.n
    if args.a >= dim:
        parser.error(f"--a {args.a} out of range: expected 0 <= a < {dim}")
    if args.b >= dim:
        parser.error(f"--b {args.b} out of range: expected 0 <= b < {dim}")
    state = basis_state(2 * args.n, args.a + dim * args.b)
    run_circuit(draper_adder_circuit(args.n), state)
    index = int(np.argmax(np.abs(state.amplitudes)))
    if not abs(state.amplitudes[index]) ** 2 >= BASIS_OUTPUT_MIN_PROB:  # a NaN output fails too
        raise ValueError("adder output is not a single basis state")
    print(f"a={index % dim} b={index // dim}")
    return 0


def _verification_tolerance() -> float:
    raw = os.environ.get("FOURIER_ADDER_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise ValueError(f"FOURIER_ADDER_TOL={raw!r} is not a number") from exc
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"FOURIER_ADDER_TOL={raw!r} must be a finite number >= 0")
    return tol


def _cmd_verify(args, parser: argparse.ArgumentParser) -> int:
    for suite in SWEEP_CHARGES if args.suite == "all" else (args.suite,):
        bytes_per_entry, k = SWEEP_CHARGES[suite]
        _require_memory(parser, bytes_per_entry, k * args.n_max, f"--suite {suite} --n-max {args.n_max}")
    reports = run_suite(args.suite, args.n_max, seed=args.seed, tol=_verification_tolerance())
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        print(
            f"{report.check}  n={report.n_qubits}  c={report.c}  "
            f"max_error={report.max_error:.3e}  {status}"
        )
    failures = sum(1 for report in reports if not report.passed)
    if failures:
        print(f"{failures} of {len(reports)} checks FAILED")
        return 1
    print(f"all {len(reports)} checks passed")
    return 0


def _cmd_counts(args, parser: argparse.ArgumentParser) -> int:
    # The table keeps every width's transform and inverse built, N(N+1)(N+2)/3 + 2 * floor(N**2 / 4)
    # gates after widths 1..N, at about 168 bytes each: the ru_maxrss growth of `counts --n-max`
    # 100, 150 and 200 over `--n-max 1` (CPython 3.11, x86-64) was 166-168 bytes per gate.
    n = args.n_max
    held_gates = n * (n + 1) * (n + 2) // 3 + 2 * (n * n // 4)
    _require_memory(parser, 168 * held_gates, 0, f"--n-max {n}")
    table = [
        (row.n_qubits, row.const_adder_ops, row.register_adder_inner_ops, row.swaps_per_transform)
        for row in complexity_table(n)
    ]
    if args.format == "csv":
        print("N,T_const,T_draper_inner,swaps")
        for values in table:
            print(",".join(map(str, values)))
    else:
        print(json.dumps([dict(zip(("n", "t_const", "t_draper_inner", "swaps"), values)) for values in table]))
    return 0


def _cmd_qft_dump(args, parser: argparse.ArgumentParser) -> int:
    circuit = qft_circuit(args.n)
    if args.matrix:
        matrix = circuit_to_matrix(circuit)
        payload = {"n": args.n, "matrix": np.stack((matrix.real, matrix.imag), axis=-1).tolist()}
        print(json.dumps(payload))
    else:
        print(json.dumps(circuit_to_dict(circuit)))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
