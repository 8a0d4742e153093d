"""Verification sweeps shared by the command line and the test suite."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from .arithmetic import (
    ConstAdderSpec,
    DraperAdderSpec,
    const_adder_circuit,
    draper_adder_circuit,
)
from .circuits import Circuit, qft_circuit, run_filled, run_on_basis, run_on_states, shift_qubits
from .dense import CheckReport, modularity_reports, phase_adder_equivalence_reports
from .statevector import DEFAULT_TOL

SUITES = ("const", "draper", "equivalence", "modularity", "all")
DENSE_SUITES = ("equivalence", "modularity", "all")  # held to DENSE_MAX_QUBITS; none builds a matrix


def _errors(blocks, targets: np.ndarray) -> np.ndarray:
    """Per input: the larger of its output's infidelity with |target> and its mass off target.

    blocks are the (start, outputs) blocks of a run over the inputs, in
    order. Taking the larger means norm drift cannot hide; np.fmax keeps the
    infidelity when the mass is NaN, as Python's max does. Each block is
    scored by array calls. On every output of the const sweep to 8 qubits and
    the draper sweep to 5 they give bit for bit the scalar abs(z) ** 2 and
    np.vdot scores of a run per input.
    """
    errors = np.empty(len(targets))
    for start, outputs in blocks:
        block = slice(start, start + len(outputs))
        on_target = np.abs(outputs[np.arange(len(outputs)), targets[block]]) ** 2
        parts = outputs.view(np.float64)
        off_target = np.einsum("ij,ij->i", parts, parts) - on_target
        errors[block] = np.fmax(1.0 - on_target, off_target)
        del outputs, parts  # let the next block run without this one's copy alive
    return errors


def _after(circuit: Circuit, head: Circuit) -> Circuit | None:
    """The gates of circuit after head's, or None when circuit does not begin with head's gates."""
    count = len(head.gates)
    if circuit.gates[:count] != head.gates:
        return None
    return Circuit(circuit.n_qubits, circuit.gates[count:])


def _transformed(transform: Circuit) -> np.ndarray:
    """Row b: the transform run on |b>, for every b in [0, 2**N)."""
    blocks = run_on_basis(transform, np.arange(1 << transform.n_qubits))
    return np.concatenate([outputs for _, outputs in blocks])


def _register_inputs(transformed: np.ndarray, a: np.ndarray, b: np.ndarray):
    """A run_filled fill whose input i is |a[i]> next to transformed[b[i]] on the register above it."""
    dim = transformed.shape[1]

    def fill(start: int, block: np.ndarray) -> None:
        stop = start + block.shape[1]
        block[...] = 0.0
        # amplitude a[i] + 2**N * y of input i holds transformed[b[i], y]
        block.reshape(dim, dim, -1)[:, a[start:stop], np.arange(stop - start)] = transformed[b[start:stop]].T

    return fill


def _first_worst(errors: np.ndarray) -> tuple[float, int]:
    """The largest error above 0.0 and the first index holding it, or (0.0, 0) when none is.

    NaN is never above 0.0, so it is never picked: the sweeps are NaN-blind.
    """
    above = np.where(errors > 0.0, errors, 0.0)
    index = int(np.argmax(above))
    return float(above[index]), index


def _const_errors(n: int, constants: Iterable[int]) -> np.ndarray:
    """c-major _errors of the built adders: entry i * 2**N + a scores |a> + constants[i].

    The width's transform runs once on every basis input; an adder that
    begins with its gates runs only the rest, on those rows. Any other adder
    runs whole.
    """
    inputs = np.arange(1 << n)
    transform = qft_circuit(n)
    transformed = _transformed(transform)
    errors = []
    for c in constants:
        adder = const_adder_circuit(ConstAdderSpec(n, c))
        rest = _after(adder, transform)
        blocks = run_on_basis(adder, inputs) if rest is None else run_on_states(rest, transformed)
        errors.append(_errors(blocks, (inputs + c) % (1 << n)))
    return np.concatenate(errors)


def _worst(reports: list[CheckReport]) -> CheckReport:
    """The report with the largest error: the first of equal errors, or the first NaN."""
    return reports[int(np.argmax([report.max_error for report in reports]))]


def verify_const_adder(n_max: int, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Exhaustive sweep of |a> + c for every a, c in [0, 2**N), one report per width.

    The c field of each report holds the constant where the worst error occurred.
    """
    reports = []
    for n in range(1, n_max + 1):
        worst, at = _first_worst(_const_errors(n, range(1 << n)))
        reports.append(CheckReport("const-adder-exhaustive", n, at >> n, worst, worst < tol))
    return reports


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
        circuit = draper_adder_circuit(DraperAdderSpec(n))
        transform = qft_circuit(n)
        rest = _after(circuit, shift_qubits(transform, n, 2 * n))
        if rest is None:
            blocks = run_on_basis(circuit, packed)
        else:
            blocks = run_filled(rest, len(packed), _register_inputs(_transformed(transform), a, b))
        worst, at = _first_worst(_errors(blocks, a + dim * ((a + b) % dim)))
        reports.append(CheckReport("register-adder-exhaustive", n, at, worst, worst < tol))
    return reports


def verify_equivalence(
    n_max: int, samples: int = 20, seed: int = 0, tol: float = DEFAULT_TOL
) -> list[CheckReport]:
    """Tensor-vs-diagonal equivalence for random constants, one report per width.

    A width's constants are checked in one batched call.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    reports = []
    for n in range(1, n_max + 1):
        constants = rng.integers(0, 4 * (1 << n), size=samples)
        reports.append(_worst(phase_adder_equivalence_reports(n, constants.tolist(), tol=tol)))
    return reports


def verify_modularity(n_max: int, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Wraparound behaviour: the column of each x in [0, 2**N), and constants shifted by 2**N.

    The columns of a width are checked in one batched call. The check reduces x mod 2**N,
    so a larger x would repeat a column bit for bit.
    For c in (0, 1, 2**N / 2, 2**N - 1), the built adders for c and for c + 2**N must both
    add c mod 2**N on every basis input; that error is floored at 0.0, and NaN fails it.
    A width's eight adders are scored in one _const_errors call, so its transform runs once.
    """
    reports = []
    for n in range(1, n_max + 1):
        dim = 1 << n
        reports.append(_worst(modularity_reports(n, range(dim), tol=tol)))
        shifted = (0, 1, dim // 2, dim - 1)
        errors = _const_errors(n, [c + turn for c in shifted for turn in (0, dim)]).reshape(len(shifted), -1)
        shifts = []
        for c, row in zip(shifted, errors):
            error = float(np.maximum(np.max(row), 0.0))
            shifts.append(CheckReport("modular-constant-shift", n, c, error, error < tol))
        reports.append(_worst(shifts))
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
