"""Verification sweeps shared by the command line and the test suite."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import circuits
from .arithmetic import const_adder_circuit, draper_adder_circuit
from .circuits import (
    CONTROLLED_PHASE,
    PHASE,
    Circuit,
    inverse_qft_circuit,
    qft_circuit,
    run_filled,
    run_on_basis,
    shift_qubits,
)
from .dense import _phase_adder_diagonal, circuit_to_matrix, phase_adder_equivalence_errors
from .statevector import DEFAULT_TOL

SUITES = ("const", "draper", "equivalence", "modularity", "all")


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one numeric check at one width.

    The c field holds whichever parameter was swept: the adder constant,
    the modularity column x, or the basis input where the worst
    error occurred.
    """

    check: str
    n_qubits: int
    c: int
    max_error: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "n": self.n_qubits,
            "c": self.c,
            "max_error": self.max_error,
            "pass": self.passed,
        }


def _report(check: str, n: int, values: Sequence[int], errors: np.ndarray, tol: float) -> CheckReport:
    """A width's report: its worst error, the value that has it, and whether it passes.

    errors holds an equal run of entries for each of the values, in their
    order. The worst is np.argmax's pick: the first NaN, else the first of
    the equal largest errors. A check passes only when that error is below
    tol, so a NaN fails it.
    """
    at = int(np.argmax(errors))
    error = float(errors[at])
    return CheckReport(check, n, values[at * len(values) // len(errors)], error, error < tol)


def _errors(blocks, count: int, target) -> np.ndarray:
    """Per input: the distance ||out - e_target||_2 of its output from the one-hot target state.

    blocks are the (start, outputs) blocks of a run over count inputs, in
    order, one output column per input; target maps a block's input indices
    to those of their target amplitudes. 1 is subtracted from the target
    amplitude in the block itself, which the run refills anyway, so each
    column becomes out - e_target and its norm is sqrt(|z - 1|**2 + the mass
    off target), summed without the cancellation of subtracting |z|**2 from
    the whole norm. A relative phase on z, norm drift and NaN all show in
    it. Each block is scored by array calls.
    """
    errors = np.empty(count)
    for start, outputs in blocks:
        columns = np.arange(outputs.shape[1])
        outputs[target(start + columns), columns] -= 1.0
        parts = outputs.view(np.float64)
        # real and imaginary squares summed apart, then added, as a SIMD sum over a row of
        # interleaved parts adds them: the sweeps still report the same worst inputs
        squares = np.einsum("ij,ij->j", parts, parts)
        errors[start : start + len(columns)] = np.sqrt(squares[0::2] + squares[1::2])
    return errors


def _between(circuit: Circuit, head: Circuit, tail: tuple = ()) -> Circuit | None:
    """The gates of circuit after head's and before the gates tail, or None unless it has both."""
    gates, stop = circuit.gates, len(circuit.gates) - len(tail)
    if stop < len(head.gates) or gates[: len(head.gates)] != head.gates or gates[stop:] != tail:
        return None
    return Circuit(circuit.n_qubits, gates[len(head.gates) : stop])


def _register_inputs(transformed: np.ndarray, a: np.ndarray, b: np.ndarray):
    """A run_filled fill whose input i is |a[i]> next to transformed[:, b[i]] on the register above it."""
    dim = len(transformed)

    def fill(start: int, block: np.ndarray) -> None:
        stop = start + block.shape[1]
        block[...] = 0.0
        # amplitude a[i] + 2**N * y of input i holds transformed[y, b[i]]
        block.reshape(dim, dim, -1)[:, a[start:stop], np.arange(stop - start)] = transformed[:, b[start:stop]]

    return fill


def _fourier_columns(dim: int):
    """A run_filled fill whose input x is the closed-form Fourier column omega**(j*x) / sqrt(2**N).

    Entry j is omega power j*x mod 2**N, looked up in one row, so a fill allocates only its exponents.
    """
    powers = _phase_adder_diagonal(dim, 1) / np.sqrt(dim)

    def fill(start: int, block: np.ndarray) -> None:
        exponents = np.outer(np.arange(dim), np.arange(start, start + block.shape[1]))
        exponents %= dim
        np.take(powers, exponents, out=block)

    return fill


def _const_errors(n: int, constants: Iterable[int]) -> np.ndarray:
    """c-major _errors of the built adders: entry i * 2**N + a scores |a> + constants[i].

    An adder that is the width's transform, then only diagonal gates (its
    stage), then the width's inverse transform shares both transforms with
    every other such adder. The transform's columns come once, from
    circuit_to_matrix, and one run_filled of the inverse runs the inputs of
    all those adders: input (i, a) is column a times the diagonal of the i-th
    stage. So a width compiles one plan of the inverse, whatever the number
    of constants. Any other adder runs whole.

    An adder that repeats an earlier one runs only once: the adders for c and
    c + 2**N build the same gate list. A repeat is looked for by the target
    residue c mod 2**N first, and gate lists are compared only among the
    adders of one residue, each known by (residue, ordinal), its place among
    them. So no gate list is hashed, and an adder whose gates differ from
    those of every earlier one of its residue runs and is scored on its own.
    """
    dim = 1 << n
    transform, inverse = qft_circuit(n), inverse_qft_circuit(n)
    built: dict[int, list[tuple]] = {}  # per residue, the gate list of each distinct adder in ordinal order
    keys, stages, wholes = [], {}, {}  # keyed by (residue, ordinal), in the order first built
    for c in constants:
        adder, residue = const_adder_circuit(n, c), c % dim
        distinct = built.setdefault(residue, [])
        # the transforms are the same objects in every adder, so a comparison mostly meets only the stages
        ordinal = next((i for i, gates in enumerate(distinct) if gates == adder.gates), len(distinct))
        key = (residue, ordinal)
        keys.append(key)
        if ordinal < len(distinct):
            continue
        distinct.append(adder.gates)
        stage = _between(adder, transform, inverse.gates)
        if stage is None or any(gate.kind not in (PHASE, CONTROLLED_PHASE) for gate in stage.gates):
            wholes[key] = _errors(run_on_basis(adder), dim, lambda a, c=c: (a + c) % dim)
        else:
            stages[key] = stage
    transformed, staged = circuit_to_matrix(transform), list(stages.values())

    @lru_cache(maxsize=1)  # the last stage's diagonal, its run through the plan on a vector of ones
    def diagonal(index: int) -> np.ndarray:
        ones = np.ones(dim, dtype=np.complex128)
        # looked up at call time, so a patched plan or kernel reaches every stage
        circuits._run(circuits._plan(staged[index]), circuits._view(n, ones))
        return ones[:, None]

    def fill(start: int, block: np.ndarray) -> None:
        # input i is column i mod 2**N times stage i >> N's diagonal; blocks are powers of two at
        # multiples of their size, so a block holds the inputs of whole stages or a part of one's
        width, a = min(block.shape[1], dim), start % dim
        columns = transformed[:, a : a + width]
        for first in range(0, block.shape[1], width):
            np.multiply(columns, diagonal((start + first) >> n), out=block[:, first : first + width])

    count, shifts = len(staged) << n, np.array([residue for residue, _ in stages], dtype=np.int64)
    shared = _errors(run_filled(inverse, count, fill), count, lambda i: (i + shifts[i >> n]) % dim)
    rows = {key: shared[index << n : (index + 1) << n] for index, key in enumerate(stages)} | wholes
    return np.concatenate([rows[key] for key in keys])


def verify_const_adder(n_max: int, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Exhaustive sweep of |a> + c for every a, c in [0, 2**N), one report per width.

    The c field of each report holds the constant where the worst error occurred.
    """
    return [
        _report("const-adder-exhaustive", n, range(1 << n), _const_errors(n, range(1 << n)), tol)
        for n in range(1, n_max + 1)
    ]


def verify_draper(n_max: int, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Exhaustive sweep of |a, b> to |a, a+b mod 2**N> over both registers.

    The transform of register b runs once on every basis input; when the
    built adder begins with it, each batch is filled with |a> next to the
    transformed |b> and runs only the rest of the adder. Any other adder runs
    whole. The c field of each report holds the packed joint input
    a + 2**N * b where the worst error occurred.
    """
    reports = []
    for n in range(1, n_max + 1):
        dim = 1 << n
        packed = np.arange(dim * dim)
        a, b = packed % dim, packed // dim
        circuit = draper_adder_circuit(n)
        transform = qft_circuit(n)
        rest = _between(circuit, shift_qubits(transform, n, 2 * n))
        if rest is None:
            blocks = run_on_basis(circuit)
        else:
            blocks = run_filled(rest, len(packed), _register_inputs(circuit_to_matrix(transform), a, b))
        errors = _errors(blocks, len(packed), (a + dim * ((a + b) % dim)).__getitem__)
        reports.append(_report("register-adder-exhaustive", n, range(dim * dim), errors, tol))
    return reports


def verify_equivalence(n_max: int, seed: int = 0, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Tensor-vs-diagonal equivalence for 20 random constants, one report per width.

    A width's constants are checked in one batched call.
    """
    rng = np.random.default_rng(seed)
    reports = []
    for n in range(1, n_max + 1):
        constants = rng.integers(0, 4 * (1 << n), size=20).tolist()
        errors = phase_adder_equivalence_errors(n, constants)
        reports.append(_report("phase-adder-equivalence", n, constants, errors, tol))
    return reports


def verify_modularity(n_max: int, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Wraparound behaviour: the column of each x in [0, 2**N), and constants shifted by 2**N.

    The built inverse transform runs on the closed-form Fourier column of
    each x, in one run_filled call per width, and each output is scored by its
    _errors distance from |x>.
    For c in (0, 1, 2**N / 2, 2**N - 1), the built adders for c and for c + 2**N must both
    add c mod 2**N on every basis input, scored as the const sweep scores them: in one
    _const_errors call per width, which runs its transform once and its inverse once.
    """
    reports = []
    for n in range(1, n_max + 1):
        dim = 1 << n
        columns = run_filled(inverse_qft_circuit(n), dim, _fourier_columns(dim))
        reports.append(_report("modularity", n, range(dim), _errors(columns, dim, lambda inputs: inputs), tol))
        shifted = (0, 1, dim // 2, dim - 1)
        errors = _const_errors(n, [c + turn for c in shifted for turn in (0, dim)])
        reports.append(_report("modular-constant-shift", n, shifted, errors, tol))
    return reports


def run_suite(suite: str, n_max: int, seed: int = 0, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Run one named suite (or all of them) and return every report."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES}")
    if n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max}")
    reports: list[CheckReport] = []
    if suite in ("const", "all"):
        reports.extend(verify_const_adder(n_max, tol=tol))
    if suite in ("draper", "all"):
        reports.extend(verify_draper(n_max, tol=tol))
    if suite in ("equivalence", "all"):
        reports.extend(verify_equivalence(n_max, seed=seed, tol=tol))
    if suite in ("modularity", "all"):
        reports.extend(verify_modularity(n_max, tol=tol))
    return reports
