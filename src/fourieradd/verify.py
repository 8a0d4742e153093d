"""Verification sweeps shared by the command line and the test suite."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .arithmetic import const_adder_circuit, draper_adder_circuit
from .circuits import Circuit, inverse_qft_circuit, qft_circuit, run_filled, run_on_basis, run_on_states, shift_qubits
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


def _errors(blocks, targets: np.ndarray) -> np.ndarray:
    """Per input: the distance ||out - e_target||_2 of its output from the one-hot target state.

    blocks are the (start, outputs) blocks of a run over the inputs, in
    order, one output column per input. 1 is subtracted from the target
    amplitude in the block itself, which the run refills anyway, so each
    column becomes out - e_target and its norm is sqrt(|z - 1|**2 + the mass
    off target), summed without the cancellation of subtracting |z|**2 from
    the whole norm. A relative phase on z, norm drift and NaN all show in
    it. Each block is scored by array calls.
    """
    errors = np.empty(len(targets))
    for start, outputs in blocks:
        count = outputs.shape[1]
        block = slice(start, start + count)
        outputs[targets[block], np.arange(count)] -= 1.0
        parts = outputs.view(np.float64)
        # real and imaginary squares summed apart, then added, as a SIMD sum over a row of
        # interleaved parts adds them: the sweeps still report the same worst inputs
        squares = np.einsum("ij,ij->j", parts, parts)
        errors[block] = np.sqrt(squares[0::2] + squares[1::2])
    return errors


def _after(circuit: Circuit, head: Circuit) -> Circuit | None:
    """The gates of circuit after head's, or None when circuit does not begin with head's gates."""
    count = len(head.gates)
    if circuit.gates[:count] != head.gates:
        return None
    return Circuit(circuit.n_qubits, circuit.gates[count:])


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

    The width's transform runs once on every basis input; an adder that
    begins with its gates runs only the rest, on those columns. Any other adder
    runs whole. An adder whose gates and target residue c mod 2**N repeat an
    earlier one's runs only once: the adders for c and c + 2**N build the
    same gate list, because the constant is reduced before its angles are.
    """
    dim = 1 << n
    inputs = np.arange(dim)
    transform = qft_circuit(n)
    # column b: the transform run on |b>. Joined from block copies rather than taken from
    # circuit_to_matrix, which holds the same bits: a fresh `verify --suite const --n-max 8`
    # then takes 30,000 minor page faults, against 177,000. Most likely glibc's malloc reuses
    # the freed copy's memory for each adder's batch instead of returning it to the system
    # and faulting it in again; an allocation order that looks equivalent can undo this.
    transformed = np.concatenate([outputs.copy() for _, outputs in run_on_basis(transform)], axis=1)
    scored = {}
    errors = []
    for c in constants:
        adder = const_adder_circuit(n, c)
        key = (adder.gates, c % dim)
        if key not in scored:
            rest = _after(adder, transform)
            blocks = run_on_basis(adder) if rest is None else run_on_states(rest, transformed)
            scored[key] = _errors(blocks, (inputs + c) % dim)
        errors.append(scored[key])
    return np.concatenate(errors)


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
        rest = _after(circuit, shift_qubits(transform, n, 2 * n))
        if rest is None:
            blocks = run_on_basis(circuit)
        else:
            blocks = run_filled(rest, len(packed), _register_inputs(circuit_to_matrix(transform), a, b))
        errors = _errors(blocks, a + dim * ((a + b) % dim))
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
    add c mod 2**N on every basis input, scored as the const sweep scores them.
    A width's eight adders are scored in one _const_errors call, so its transform runs once.
    """
    reports = []
    for n in range(1, n_max + 1):
        dim = 1 << n
        columns = run_filled(inverse_qft_circuit(n), dim, _fourier_columns(dim))
        reports.append(_report("modularity", n, range(dim), _errors(columns, np.arange(dim)), tol))
        shifted = (0, 1, dim // 2, dim - 1)
        errors = _const_errors(n, [c + turn for c in shifted for turn in (0, dim)])
        reports.append(_report("modular-constant-shift", n, shifted, errors, tol))
    return reports


def run_suite(
    suite: str, n_max: int, seed: int = 0, tol: float = DEFAULT_TOL
) -> list[CheckReport]:
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
