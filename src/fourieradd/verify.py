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
DENSE_SUITES = ("equivalence", "modularity", "all")  # these build 2**N by 2**N matrices


def _basis_errors(outputs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per output row: the larger of its infidelity with |target> and the mass off target.

    Taking the larger means norm drift cannot hide. Rows are scored one at a
    time with scalar arithmetic, abs(z) ** 2 and np.vdot, because numpy's
    array forms of both round differently; so each error is bit for bit the
    one a run per input gives.
    """
    errors = np.empty(len(outputs))
    for row, (amplitudes, target) in enumerate(zip(outputs, targets.tolist())):
        on_target = abs(amplitudes[target]) ** 2
        off_target = float(np.vdot(amplitudes, amplitudes).real) - on_target
        errors[row] = max(1.0 - on_target, off_target)
    return errors


def _worst_input(
    circuit: Circuit, inputs: np.ndarray, targets: np.ndarray, worst: float
) -> tuple[float, int | None]:
    """Run the circuit on every basis input and score its output against |target>.

    Returns the largest error above worst and the first input holding it, or
    (worst, None) when no error beats worst: the result of a scan in input
    order that keeps any strictly greater error, which NaN never is.
    """
    worst_input = None
    for start, outputs in run_on_basis(circuit, inputs):
        errors = _basis_errors(outputs, targets[start : start + len(outputs)])
        above = np.flatnonzero(errors > worst)
        if above.size:
            row = int(above[np.argmax(errors[above])])
            worst, worst_input = float(errors[row]), int(inputs[start + row])
    return worst, worst_input


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
        worst, worst_c = 0.0, 0
        for c in range(dim):
            circuit = const_adder_circuit(ConstAdderSpec(n, c))
            error, at = _worst_input(circuit, inputs, (inputs + c) % dim, worst)
            if at is not None:
                worst, worst_c = error, c
        reports.append(CheckReport("const-adder-exhaustive", n, worst_c, worst, worst < tol))
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
        worst, at = _worst_input(circuit, packed, a + dim * ((a + b) % dim), 0.0)
        worst_input = 0 if at is None else at
        reports.append(CheckReport("register-adder-exhaustive", n, worst_input, worst, worst < tol))
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
    """Wraparound behaviour: out-of-range columns, and constants shifted by 2**N."""
    reports = []
    for n in range(1, n_max + 1):
        dim = 1 << n
        reports.append(_worst([check_modularity(n, x, tol=tol) for x in range(4 * dim)]))
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
