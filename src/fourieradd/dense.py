"""Dense layer: a circuit's matrix, the closed-form omega powers and the equivalence check.

circuit_to_matrix runs the circuit, through the plan, on every basis
input. Its 4**N entries are the only kind of matrix the package builds;
`qft-dump --matrix` is held to 6 qubits, and the const and draper sweeps
take their transform columns from it. The equivalence check
calls no kernel: it builds the tensor product of the program's phase stage
with the plan's phase-vector code and compares it with the closed form, on
2**N-entry diagonals. No width is capped here; the command line refuses a
run that would not fit in physical memory.

Integer exponents of omega = exp(2*pi*i / 2**N) are reduced mod 2**N
before the complex exponential is evaluated. The reduction is exact for
integers and keeps the argument small, so no precision is lost to huge
products.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from . import circuits
from .arithmetic import phase_adder_circuit
from .circuits import Circuit, run_on_basis

def _omega_powers(exponents: np.ndarray, dim: int) -> np.ndarray:
    """omega**e for each integer exponent e, reduced mod 2**N first."""
    return np.exp((2j * np.pi / dim) * (exponents % dim))


def _phase_adder_diagonal(dim: int, reduced) -> np.ndarray:
    """omega**(j*c) for every basis index j, along the last axis.

    c is already reduced mod 2**N; an array of c shaped (rows, 1) gives one row per c.
    j*c is formed in int64, exact while N <= 31; the command line's memory guard holds N
    far below that.
    """
    return _omega_powers(np.arange(dim, dtype=np.int64) * reduced, dim)


def circuit_to_matrix(circuit: Circuit) -> np.ndarray:
    """Brute-force unitary of a circuit: column k is the circuit run on |k>, copied from run_on_basis's blocks."""
    dim = 1 << circuit.n_qubits
    matrix = np.empty((dim, dim), dtype=np.complex128)
    for start, outputs in run_on_basis(circuit):
        matrix[:, start : start + outputs.shape[1]] = outputs
    return matrix


def phase_adder_equivalence_errors(n_qubits: int, constants: Iterable[int]) -> np.ndarray:
    """Tensor-product form of the built phase stage against its diagonal form, per constant.

    The stage is phase_adder_circuit's single-qubit rotations; rotations on
    one target multiply. Every factor is diagonal, so the check works on
    diagonals of 2**N entries; the 2**N by 2**N matrices would add only exact
    zeros off the diagonal. The diagonal of the rotations' tensor product,
    most significant qubit leftmost, is built by the plan's own phase-vector
    code and compared with the closed form omega**(j*c). A NaN in any entry
    makes that constant's error NaN.

    The constants are checked together, one row of 2**N entries each, built
    by one _phase_vector call over a row axis.
    """
    dim = 1 << n_qubits
    constants = list(constants)
    rows, targets, angles = [], [], []
    for row, constant in enumerate(constants):
        for gate in phase_adder_circuit(n_qubits, constant).gates:
            rows.append(row)
            targets.append(gate.target - 1)
            angles.append(gate.angle)
    rotations = np.ones((len(constants), n_qubits), dtype=np.complex128)
    # one array call multiplies each gate's rotation into its row and target, in gate order
    np.multiply.at(rotations, (rows, targets), np.exp(1j * np.array(angles)))
    # looked up at call time, so a patched circuits._phase_vector reaches the plan and this check
    tensors = circuits._phase_vector(rotations, np.ones((len(constants), 1)))
    reduced = np.array([constant % dim for constant in constants], dtype=np.int64)
    closed_form = _phase_adder_diagonal(dim, reduced[:, None])
    return np.max(np.abs(tensors - closed_form), axis=1)
