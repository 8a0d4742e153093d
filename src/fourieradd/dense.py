"""Dense layer: a circuit's matrix, the closed-form omega powers and the equivalence check.

circuit_to_matrix runs the circuit, through the plan, on every basis
column. The equivalence check is built straight from defining formulas and
calls no kernel; it reads the angles of the program's phase stage. A matrix
has 4**N entries, so the layer is capped at DENSE_MAX_QUBITS qubits. The
check builds no matrix, only 2**N-entry diagonals, but keeps the same cap.

Integer exponents of omega = exp(2*pi*i / 2**N) are reduced mod 2**N
before the complex exponential is evaluated. The reduction is exact for
integers and keeps the argument small, so no precision is lost to huge
products.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Iterator

import numpy as np

from .arithmetic import ConstAdderSpec, phase_adder_circuit
from .circuits import Circuit, run_on_basis

DENSE_MAX_QUBITS = 12
# Entries per array pass of the equivalence rows (256 KiB of complex128), so that a pass
# stays in a 2 MiB L2 cache: in one pass verify_equivalence(12) took 1.15-1.27 times as long
# (medians of 25 alternating runs, shared 2-core x86-64); at 9 and 10 qubits, within noise.
DENSE_BATCH_ENTRIES = 1 << 14


def _require_dense(n_qubits: int) -> None:
    if not 1 <= n_qubits <= DENSE_MAX_QUBITS:
        raise ValueError(
            f"dense layer supports 1..{DENSE_MAX_QUBITS} qubits, got {n_qubits}"
        )


def _omega_powers(exponents: np.ndarray, dim: int) -> np.ndarray:
    """omega**e for each integer exponent e, reduced mod 2**N first."""
    return np.exp((2j * np.pi / dim) * (exponents % dim))


def _phase_adder_diagonal(dim: int, reduced) -> np.ndarray:
    """omega**(j*c) for every basis index j, along the last axis.

    c is already reduced mod 2**N; an array of c shaped (rows, 1) gives one row per c.
    """
    return _omega_powers(np.arange(dim, dtype=np.int64) * reduced, dim)


def circuit_to_matrix(circuit: Circuit) -> np.ndarray:
    """Brute-force unitary of a circuit: column k is the circuit run on |k>."""
    _require_dense(circuit.n_qubits)
    dim = 1 << circuit.n_qubits
    matrix = np.empty((dim, dim), dtype=np.complex128)
    for start, outputs in run_on_basis(circuit):
        matrix[:, start : start + len(outputs)] = outputs.T
    return matrix


def _rotation(theta: float) -> np.ndarray:
    """Diagonal of the phase gate diag(1, exp(i*theta))."""
    return np.array([1.0, cmath.exp(1j * theta)], dtype=np.complex128)


def _row_chunks(rows: int, dim: int) -> Iterator[slice]:
    """Slices over rows of 2**N entries each, at most DENSE_BATCH_ENTRIES entries per slice."""
    step = max(DENSE_BATCH_ENTRIES // dim, 1)
    return (slice(start, start + step) for start in range(0, rows, step))


def phase_adder_equivalence_errors(n_qubits: int, constants: Iterable[int]) -> np.ndarray:
    """Tensor-product form of the built phase stage against its diagonal form, per constant.

    The stage is phase_adder_circuit's, one rotation per qubit from qubit 1
    up. Every factor is diagonal, so the check works on diagonals of 2**N
    entries; the 2**N by 2**N matrices would add only exact zeros off the
    diagonal. The Kronecker product of the rotation diagonals, most
    significant qubit leftmost, is the diagonal of their tensor product,
    and it is compared with the closed form omega**(j*c). It is accumulated
    as flattened outer products: the same products as np.kron, without its
    overhead per call. While accumulating, the entries where the newly
    absorbed qubit m is set must equal those where it is clear times
    omega**(c * 2**(m-1)), the phase that qubit contributes; that per-step
    error is folded into the constant's error. A NaN in any error makes
    that error NaN.

    The constants are checked together, one row of 2**N entries each and at
    most DENSE_BATCH_ENTRIES entries per array pass. Each row sees the same
    elementwise products as a check of its constant alone, so every error
    is bitwise that of a one-constant call.
    """
    _require_dense(n_qubits)
    dim = 1 << n_qubits
    constants = list(constants)
    reduced = [constant % dim for constant in constants]
    rotations = np.array(
        [
            [_rotation(gate.angle) for gate in phase_adder_circuit(ConstAdderSpec(n_qubits, constant)).gates]
            for constant in constants
        ],
        dtype=np.complex128,
    ).reshape(len(constants), n_qubits, 2)
    step_phases = np.array(
        [
            [cmath.exp(2j * math.pi * ((r * (1 << (t - 1))) % dim) / dim) for t in range(2, n_qubits + 1)]
            for r in reduced
        ],
        dtype=np.complex128,
    ).reshape(len(constants), n_qubits - 1)
    max_errors = np.empty(len(constants))
    for rows in _row_chunks(len(constants), dim):
        tensor = rotations[rows, 0]
        worst = np.full(len(tensor), -np.inf)
        for t in range(2, n_qubits + 1):
            tensor = (rotations[rows, t - 1, :, None] * tensor[:, None, :]).reshape(len(tensor), -1)
            half = tensor.shape[1] // 2
            step_error = np.abs(tensor[:, half:] - step_phases[rows, t - 2, None] * tensor[:, :half])
            worst = np.maximum(worst, np.max(step_error, axis=1))
        closed_form = _phase_adder_diagonal(dim, np.array(reduced[rows], dtype=np.int64)[:, None])
        max_errors[rows] = np.maximum(worst, np.max(np.abs(tensor - closed_form), axis=1))
    return max_errors
