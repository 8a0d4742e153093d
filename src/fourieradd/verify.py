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
from .circuits import Circuit, run_on_basis
from .dense import CheckReport, modularity_reports, phase_adder_equivalence_reports
from .statevector import DEFAULT_TOL

SUITES = ("const", "draper", "equivalence", "modularity", "all")
DENSE_SUITES = ("equivalence", "modularity", "all")  # held to DENSE_MAX_QUBITS; none builds a matrix


def _basis_errors(circuit: Circuit, inputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per basis input: the larger of its output's infidelity with |target> and its mass off target.

    Taking the larger means norm drift cannot hide; np.fmax keeps the
    infidelity when the mass is NaN, as Python's max does. Each run_on_basis
    block is scored by array calls. On every output of the const sweep to 8
    qubits and the draper sweep to 5 they give bit for bit the scalar
    abs(z) ** 2 and np.vdot scores of a run per input.
    """
    errors = np.empty(len(inputs))
    for start, outputs in run_on_basis(circuit, inputs):
        block = slice(start, start + len(outputs))
        on_target = np.abs(outputs[np.arange(len(outputs)), targets[block]]) ** 2
        parts = outputs.view(np.float64)
        off_target = np.einsum("ij,ij->i", parts, parts) - on_target
        errors[block] = np.fmax(1.0 - on_target, off_target)
    return errors


def _first_worst(errors: np.ndarray) -> tuple[float, int]:
    """The largest error above 0.0 and the first index holding it, or (0.0, 0) when none is.

    NaN is never above 0.0, so it is never picked: the sweeps are NaN-blind.
    """
    above = np.where(errors > 0.0, errors, 0.0)
    index = int(np.argmax(above))
    return float(above[index]), index


def _const_errors(n: int, constants: Iterable[int]) -> np.ndarray:
    """c-major _basis_errors of the built adders: entry i * 2**N + a scores |a> + constants[i]."""
    inputs = np.arange(1 << n)
    adders = ((c, const_adder_circuit(ConstAdderSpec(n, c))) for c in constants)
    return np.concatenate([_basis_errors(adder, inputs, (inputs + c) % (1 << n)) for c, adder in adders])


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

    The c field of each report holds the packed joint input a + 2**N * b
    where the worst error occurred.
    """
    reports = []
    for n in range(1, n_max + 1):
        dim = 1 << n
        packed = np.arange(dim * dim)
        a, b = packed % dim, packed // dim
        circuit = draper_adder_circuit(DraperAdderSpec(n))
        worst, at = _first_worst(_basis_errors(circuit, packed, a + dim * ((a + b) % dim)))
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
    """
    reports = []
    for n in range(1, n_max + 1):
        dim = 1 << n
        reports.append(_worst(modularity_reports(n, range(dim), tol=tol)))
        shifts = []
        for c in (0, 1, dim // 2, dim - 1):
            error = float(np.maximum(np.max(_const_errors(n, (c, c + dim))), 0.0))
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
