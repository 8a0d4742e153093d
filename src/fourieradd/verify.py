"""Verification sweeps shared by the command line and the test suite."""

from __future__ import annotations

import numpy as np

from .arithmetic import (
    ConstAdderSpec,
    DraperAdderSpec,
    const_adder_circuit,
    draper_adder_circuit,
)
from .circuits import Circuit, run_on_basis
from .dense import (
    CheckReport,
    check_modularity,
    check_phase_adder_equivalence,
    circuit_to_matrix,
)
from .statevector import DEFAULT_TOL

MODULAR_MATRIX_TOL = 1e-12  # pinned separately; not subject to the tolerance override

SUITES = ("const", "draper", "equivalence", "modularity", "all")
DENSE_SUITES = ("equivalence", "modularity", "all")  # capped by the dense layer's DENSE_MAX_QUBITS


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


def _worst(reports: list[CheckReport]) -> CheckReport:
    """The report with the largest error: the first of equal errors, or the first NaN."""
    return reports[int(np.argmax([report.max_error for report in reports]))]


def verify_const_adder(n_max: int, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Exhaustive sweep of |a> + c for every a, c in [0, 2**N), one report per width.

    The c field of each report holds the constant where the worst error occurred.
    """
    reports = []
    for n in range(1, n_max + 1):
        dim = 1 << n
        inputs = np.arange(dim)
        adders = (const_adder_circuit(ConstAdderSpec(n, c)) for c in range(dim))
        # c-major: entry c * 2**N + a scores |a> + c
        worst, at = _first_worst(
            np.concatenate([_basis_errors(adder, inputs, (inputs + c) % dim) for c, adder in enumerate(adders)])
        )
        reports.append(CheckReport("const-adder-exhaustive", n, at // dim, worst, worst < tol))
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
    """Tensor-vs-diagonal equivalence for random constants, one report per width."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    reports = []
    for n in range(1, n_max + 1):
        constants = rng.integers(0, 4 * (1 << n), size=samples)
        reports.append(_worst([check_phase_adder_equivalence(n, int(c), tol=tol) for c in constants]))
    return reports


def verify_modularity(n_max: int, tol: float = DEFAULT_TOL) -> list[CheckReport]:
    """Wraparound behaviour: the column of each x in [0, 2**N), and constants shifted by 2**N.

    check_modularity reduces x mod 2**N, so a larger x would repeat a column bit for bit.
    """
    reports = []
    for n in range(1, n_max + 1):
        dim = 1 << n
        reports.append(_worst([check_modularity(n, x, tol=tol) for x in range(dim)]))
        # shifting the constant by 2**N must leave the realized operator untouched
        shifts = []
        for c in (0, 1, dim // 2, dim - 1):
            lhs = circuit_to_matrix(const_adder_circuit(ConstAdderSpec(n, c)))
            rhs = circuit_to_matrix(const_adder_circuit(ConstAdderSpec(n, c + dim)))
            error = float(np.max(np.abs(lhs - rhs)))
            shifts.append(CheckReport("modular-constant-shift", n, c, error, error < MODULAR_MATRIX_TOL))
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
