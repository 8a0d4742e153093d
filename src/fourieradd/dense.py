"""Dense reference layer: closed-form matrices and brute-force checks.

Everything here is built straight from defining formulas, independent of
the gate kernels, so circuits and matrices can be checked against each
other. Matrices have 4**N entries, so the layer is capped at
DENSE_MAX_QUBITS qubits; the equivalence check needs only 2**N-entry
diagonals but keeps the same cap.

Integer exponents of omega = exp(2*pi*i / 2**N) are reduced mod 2**N
before the complex exponential is evaluated. The reduction is exact for
integers and keeps the argument small, so no precision is lost to huge
products.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, run_on_basis
from .statevector import DEFAULT_TOL

DENSE_MAX_QUBITS = 12


def _require_dense(n_qubits: int) -> None:
    if not 1 <= n_qubits <= DENSE_MAX_QUBITS:
        raise ValueError(
            f"dense layer supports 1..{DENSE_MAX_QUBITS} qubits, got {n_qubits}"
        )


def _omega_powers(exponents: np.ndarray, dim: int) -> np.ndarray:
    """omega**e for each integer exponent e, reduced mod 2**N first."""
    return np.exp((2j * np.pi / dim) * (exponents % dim))


def dft_matrix(n_qubits: int) -> np.ndarray:
    """Unitary with entry (j, k) = omega**(j*k) / sqrt(2**N)."""
    _require_dense(n_qubits)
    dim = 1 << n_qubits
    indices = np.arange(dim, dtype=np.int64)
    return _omega_powers(np.outer(indices, indices), dim) / math.sqrt(dim)


def _phase_adder_diagonal(dim: int, reduced: int) -> np.ndarray:
    """omega**(j*c) for every basis index j, with c already reduced mod 2**N."""
    return _omega_powers(np.arange(dim, dtype=np.int64) * reduced, dim)


def phase_adder_matrix(n_qubits: int, constant: int) -> np.ndarray:
    """Diagonal matrix with entry (j, j) = omega**(j*c)."""
    _require_dense(n_qubits)
    dim = 1 << n_qubits
    return np.diag(_phase_adder_diagonal(dim, constant % dim))


def permutation_add_matrix(n_qubits: int, constant: int) -> np.ndarray:
    """Classical ground truth: entry (j, k) is 1 exactly when j = k + c mod 2**N."""
    _require_dense(n_qubits)
    dim = 1 << n_qubits
    reduced = constant % dim
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    columns = np.arange(dim)
    matrix[(columns + reduced) % dim, columns] = 1.0
    return matrix


def circuit_to_matrix(circuit: Circuit) -> np.ndarray:
    """Brute-force unitary of a circuit: column k is the circuit run on |k>."""
    _require_dense(circuit.n_qubits)
    dim = 1 << circuit.n_qubits
    matrix = np.empty((dim, dim), dtype=np.complex128)
    for start, outputs in run_on_basis(circuit, np.arange(dim)):
        matrix[:, start : start + len(outputs)] = outputs.T
    return matrix


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one numeric check.

    The c field holds whichever parameter was swept: the adder constant,
    the out-of-range column index, or the basis input where the worst
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


def _rotation(theta: float) -> np.ndarray:
    """Diagonal of the phase gate diag(1, exp(i*theta))."""
    return np.array([1.0, cmath.exp(1j * theta)], dtype=np.complex128)


def check_phase_adder_equivalence(
    n_qubits: int, constant: int, tol: float = DEFAULT_TOL
) -> CheckReport:
    """Tensor-product form of the Fourier-basis adder against its diagonal form.

    Every factor is diagonal, so the check works on diagonals of 2**N
    entries; the 2**N by 2**N matrices would add only exact zeros off the
    diagonal. The Kronecker product of the N single-qubit rotation
    diagonals, most significant qubit leftmost, is the diagonal of their
    tensor product, and it is compared with the closed form omega**(j*c).
    It is accumulated as flattened outer products: the same products as
    np.kron, without its overhead per call. While accumulating, the
    entries where the newly absorbed qubit m is set must equal those where
    it is clear times omega**(c * 2**(m-1)), the phase that qubit
    contributes; that per-step error is folded into the reported
    max_error. A NaN in any error makes max_error NaN, which fails.
    """
    _require_dense(n_qubits)
    dim = 1 << n_qubits
    reduced = constant % dim  # shifts of 2**N change each rotation by a full number of turns
    tensor = _rotation(reduced * math.pi / (1 << (n_qubits - 1)))
    errors = []
    for t in range(2, n_qubits + 1):
        tensor = np.multiply.outer(_rotation(reduced * math.pi / (1 << (n_qubits - t))), tensor).ravel()
        half = len(tensor) // 2
        step_phase = cmath.exp(2j * math.pi * ((reduced * (1 << (t - 1))) % dim) / dim)
        errors.append(np.max(np.abs(tensor[half:] - step_phase * tensor[:half])))
    errors.append(np.max(np.abs(tensor - _phase_adder_diagonal(dim, reduced))))
    max_error = float(np.max(errors))
    return CheckReport("phase-adder-equivalence", n_qubits, constant, max_error, max_error < tol)


def check_modularity(n_qubits: int, x: int, tol: float = DEFAULT_TOL) -> CheckReport:
    """The inverse transform of the Fourier column for any x >= 0 lands on |x mod 2**N>.

    x may exceed 2**N by any amount; the column only depends on x mod 2**N
    because integer omega exponents wrap exactly.
    """
    _require_dense(n_qubits)
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    dim = 1 << n_qubits
    k = x % dim
    # product form of the column omega**(j*x): qubit t contributes the factor
    # (1, omega**(x * 2**(t-1))), so the column doubles once per qubit from N
    # complex exponentials, independently of _omega_powers below
    column = np.ones(1, dtype=np.complex128)
    for bit in range(n_qubits):
        factor = cmath.exp(2j * math.pi * ((k << bit) % dim) / dim)
        column = np.concatenate([column, column * factor])
    column /= math.sqrt(dim)
    # entry x mod 2**N of the inverse transform applied to the column: only
    # that column of dft_matrix is needed, conjugated and dotted with it
    transform_column = _omega_powers(np.arange(dim, dtype=np.int64) * k, dim)
    overlap = np.vdot(transform_column / math.sqrt(dim), column)
    infidelity = 1.0 - float(abs(overlap) ** 2)
    return CheckReport("modularity", n_qubits, x, infidelity, infidelity < tol)
