"""References that the tests check the program against; nothing in the package calls them.

The closed-form matrices and Fourier columns are built straight from their defining formulas,
independent of the gate kernels, and are capped at DENSE_MAX_QUBITS like the
package's dense layer. run_gate_by_gate runs every gate's kernel on the whole
state, so it compiles no plan.
"""

import math

import numpy as np

from fourieradd import StateVector, apply_controlled_phase, apply_hadamard, apply_phase, apply_swap
from fourieradd.dense import _omega_powers, _phase_adder_diagonal, _require_dense


def dft_matrix(n_qubits: int) -> np.ndarray:
    """Unitary with entry (j, k) = omega**(j*k) / sqrt(2**N)."""
    _require_dense(n_qubits)
    dim = 1 << n_qubits
    indices = np.arange(dim, dtype=np.int64)
    return _omega_powers(np.outer(indices, indices), dim) / math.sqrt(dim)


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


def fourier_column(n_qubits, x):
    """omega**(j*x) / sqrt(2**N) for every j, each exponent reduced mod 2**N in integers, for any x >= 0."""
    dim = 1 << n_qubits
    exponents = np.array([(j * x) % dim for j in range(dim)])
    return np.exp(2j * np.pi * exponents / dim) / math.sqrt(dim)


def random_state(n_qubits, seed):
    """A normalized state of 2**n_qubits complex Gaussian amplitudes, fixed by the seed."""
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n_qubits) + 1j * rng.standard_normal(1 << n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


def run_gate_by_gate(circuit, state):
    """The reference that runs no plan: every gate's kernel on the whole state, in list order."""
    for gate in circuit.gates:
        if gate.kind == "h":
            apply_hadamard(state, gate.target)
        elif gate.kind == "phase":
            apply_phase(state, gate.target, gate.angle)
        elif gate.kind == "cphase":
            apply_controlled_phase(state, gate.control, gate.target, gate.angle)
        else:
            apply_swap(state, gate.target, gate.other)
