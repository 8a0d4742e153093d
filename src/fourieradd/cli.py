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
from itertools import chain

import numpy as np

from . import circuits
from .arithmetic import DraperAdderSpec, apply_const_add, draper_adder_circuit
from .circuits import BATCH_AMPLITUDES, circuit_to_dict, qft_circuit, run_circuit
from .counts import complexity_table
from .dense import circuit_to_matrix
from .statevector import DEFAULT_TOL, StateVector, basis_state, state_from_dict, state_to_json
from .verify import SUITES, run_suite

PROB_DISPLAY_CUTOFF = 1e-12
# add-reg prints a=... b=... only when one basis state holds at least this probability
BASIS_OUTPUT_MIN_PROB = 1.0 - 1e-9
QFT_DUMP_MAX_QUBITS = 6
# Peak memory of a run, checked before anything is allocated. A state of 2**N
# 16-byte amplitudes runs beside the state-sized output of a wide dense step.
# `add` is charged per amplitude by its input and output form, for the state
# text it reads and writes. Its whole-command tracemalloc peaks at 14-20 qubits
# (CPython 3.11): a basis input printed as a table 33 bytes at 20 qubits (about
# 1 MB more is fixed, within the batches below), as JSON 151-153; a state file
# printed as JSON 200-202, as a table 334-339 (the index digits grow).
# A verify suite is charged (bytes, k): bytes for each of 2**(k * N) entries.
# Per entry of its 4**N inputs, the const sweep holds the width's transform
# columns (16 bytes), joined from as many bytes of block copies, and its 8-byte
# scores twice (per constant and joined): 32 bytes. The draper sweep holds five
# 8-byte arrays (inputs, operands, targets, scores) and the transform's matrix,
# and runs each input as a 4**N-amplitude state beside a wide dense step's
# state-sized output: 40 + 3 * 16 bytes. The equivalence check holds 20 rows of
# 2**N entries, and at its peak each row has its phase vector, exponents,
# scaled exponents and omega powers: 20 * (16 + 8 + 16 + 16) bytes. The
# modularity suite's constant-shift rows hold the same transform columns and
# scores as the const sweep: 32 bytes. `all` runs the four one after another,
# each freeing its arrays, so it is charged as each in turn. Beside these
# arrays, every run is charged two batches of BATCH_AMPLITUDES amplitudes, the
# work batch and the phase vectors of a stretch of the plan (at most one
# block), and a block scratch of that size per worker thread
# (circuits._workers()).
STATE_BYTES_PER_AMPLITUDE = 2 * 16
ADD_CHARGES = {
    ("basis", "table"): STATE_BYTES_PER_AMPLITUDE,
    ("basis", "json"): 160,
    ("file", "json"): 208,
    ("file", "table"): 352,
}
SWEEP_CHARGES = {"const": (32, 2), "draper": (88, 2), "equivalence": (1120, 1), "modularity": (32, 2)}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return value


def _dump_width(text: str) -> int:
    value = _positive_int(text)
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
    p_add.add_argument("--n", type=_positive_int, required=True, help="register width in qubits")
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
    p_reg.add_argument("--n", type=_positive_int, required=True, help="qubits per operand")
    p_reg.add_argument("--a", type=_nonnegative_int, required=True, help="value kept unchanged")
    p_reg.add_argument("--b", type=_nonnegative_int, required=True, help="value receiving the sum")
    p_reg.set_defaults(func=_cmd_add_reg)

    p_verify = sub.add_parser("verify", help="run verification sweeps")
    p_verify.add_argument("--suite", choices=SUITES, required=True)
    p_verify.add_argument("--n-max", type=_positive_int, default=4, help="largest width to sweep")
    p_verify.add_argument("--seed", type=_nonnegative_int, default=0, help="seed for randomized constants")
    p_verify.set_defaults(func=_cmd_verify)

    p_counts = sub.add_parser("counts", help="operation-count table for both adders")
    p_counts.add_argument("--n-max", type=_positive_int, default=8)
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
    parser: argparse.ArgumentParser, bytes_per_entry: int, entry_bits: int, request: str
) -> None:
    """Refuse, as a usage error and before anything is allocated, a run that would not fit in memory.

    The run holds bytes_per_entry bytes for each of its 2**entry_bits entries,
    and two batches plus one block scratch per worker, each of
    BATCH_AMPLITUDES 16-byte amplitudes. The bit lengths are compared first,
    so a huge width never builds that 2**entry_bits-sized integer.
    """
    physical = _physical_memory()
    available = physical - (2 + circuits._workers()) * 16 * BATCH_AMPLITUDES
    if entry_bits >= available.bit_length() or bytes_per_entry << entry_bits > available:
        parser.error(f"{request} needs more than the {physical / 2**30:.3g} GiB of physical memory")


def _load_state_file(path: str, n_qubits: int) -> StateVector:
    try:
        with open(path, "r", encoding="utf-8") as handle:
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
    probabilities = state.probabilities()
    # written "not <" so that a NaN row is printed too
    rows = np.flatnonzero(~(probabilities < PROB_DISPLAY_CUTOFF))
    if not rows.size:
        return
    amplitudes = state.amplitudes[rows]
    columns = (rows.tolist(), amplitudes.real.tolist(), amplitudes.imag.tolist(), probabilities[rows].tolist())
    print(("%d  %r  %r  %r\n" * rows.size)[:-1] % tuple(chain.from_iterable(zip(*columns))))


def _cmd_add(args, parser: argparse.ArgumentParser) -> int:
    try:
        value = int(args.input)
    except ValueError:
        value = None
    charge = ADD_CHARGES["file" if value is None else "basis", "json" if args.json else "table"]
    _require_memory(parser, charge, args.n, f"--n {args.n}")
    dim = 1 << args.n
    if value is None:
        state = _load_state_file(args.input, args.n)
    else:
        if not 0 <= value < dim:
            parser.error(f"--input {value} out of range for --n {args.n}: expected 0 <= input < {dim}")
        state = basis_state(args.n, value)
    apply_const_add(state, args.const)
    if args.json:
        print(state_to_json(state))
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
    run_circuit(draper_adder_circuit(DraperAdderSpec(args.n)), state)
    probabilities = state.probabilities()
    index = int(np.argmax(probabilities))
    if not probabilities[index] >= BASIS_OUTPUT_MIN_PROB:  # a NaN output fails too
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
    rows = complexity_table(n)
    if args.format == "csv":
        print("N,T_const,T_draper_inner,swaps")
        for row in rows:
            print(
                f"{row.n_qubits},{row.const_adder_ops},"
                f"{row.register_adder_inner_ops},{row.swaps_per_transform}"
            )
    else:
        payload = [
            {
                "n": row.n_qubits,
                "t_const": row.const_adder_ops,
                "t_draper_inner": row.register_adder_inner_ops,
                "swaps": row.swaps_per_transform,
            }
            for row in rows
        ]
        print(json.dumps(payload))
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
