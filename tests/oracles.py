"""References that the tests check the program against; nothing in the package calls them.

The closed-form matrices and Fourier columns are built straight from their defining formulas,
independent of the program's kernels. A matrix has 4**N entries, so the matrices are capped
here at DENSE_MAX_QUBITS qubits (256 MiB each); the program has no such cap, and its command
line refuses only runs past physical memory. run_gate_by_gate runs every gate on the whole
state through the reference's own gate kernels below, one per gate kind, so it compiles no
plan and shares no kernel with the program, which runs every state through apply_dense and
apply_diagonal. run_on_states runs given columns through the program's own run_filled, which the
package fills only with inputs it builds itself. superposition_state, copy_state, probabilities and
fidelity build, copy and read the tests' own states. circuit_from_document rebuilds the circuit of a
document that qft-dump writes, which the package never reads back.
"""

import cmath
import math

import numpy as np

from fourieradd import Circuit, Gate, StateVector
from fourieradd.circuits import run_filled
from fourieradd.dense import _omega_powers, _phase_adder_diagonal
from fourieradd.statevector import _check_qubit, _parts, _require_normalized

SQRT1_2 = math.sqrt(0.5)
DENSE_MAX_QUBITS = 12


def _require_dense(n_qubits: int) -> None:
    if not 1 <= n_qubits <= DENSE_MAX_QUBITS:
        raise ValueError(f"reference matrices support 1..{DENSE_MAX_QUBITS} qubits, got {n_qubits}")


def _split_view(amplitudes: np.ndarray, target: int) -> np.ndarray:
    # axes: (higher bits, target bit, lower bits); slices along the middle
    # axis are views, so writes land in the original array
    return amplitudes.reshape(-1, 2, 1 << (target - 1))


def _pair_view(amplitudes: np.ndarray, lo: int, hi: int) -> np.ndarray:
    # axes: (top bits, hi bit, middle bits, lo bit, low bits) with lo < hi
    return amplitudes.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << (lo - 1))


def apply_hadamard(state: StateVector, target: int) -> None:
    """Map the target-bit pair (a0, a1) to ((a0+a1), (a0-a1)) / sqrt(2)."""
    _check_qubit(state.n_qubits, target)
    # the sum and difference are half-state temporaries
    for part in _parts(_split_view(state.amplitudes, target)):
        clear, set_ = part[:, 0], part[:, 1]
        total = clear + set_
        diff = clear - set_
        np.multiply(total, SQRT1_2, out=clear)
        np.multiply(diff, SQRT1_2, out=set_)


def apply_phase(state: StateVector, target: int, theta: float) -> None:
    """Multiply every amplitude whose target bit is set by exp(i*theta)."""
    _check_qubit(state.n_qubits, target)
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    rotation = cmath.exp(1j * theta)
    for part in _parts(_split_view(state.amplitudes, target)):
        part[:, 1] *= rotation


def apply_controlled_phase(state: StateVector, control: int, target: int, theta: float) -> None:
    """Multiply amplitudes with both the control and target bits set by exp(i*theta).

    The action is symmetric in (control, target).
    """
    _check_qubit(state.n_qubits, control, "control")
    _check_qubit(state.n_qubits, target, "target")
    if control == target:
        raise ValueError("control and target must differ")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    lo, hi = sorted((control, target))
    rotation = cmath.exp(1j * theta)
    for part in _parts(_pair_view(state.amplitudes, lo, hi)):
        part[:, 1, :, 1] *= rotation


def apply_swap(state: StateVector, qubit_a: int, qubit_b: int) -> None:
    """Exchange the two qubits: amplitudes at indices differing only in those bits trade places."""
    _check_qubit(state.n_qubits, qubit_a, "qubit_a")
    _check_qubit(state.n_qubits, qubit_b, "qubit_b")
    if qubit_a == qubit_b:
        raise ValueError("swap qubits must differ")
    lo, hi = sorted((qubit_a, qubit_b))
    view = _pair_view(state.amplitudes, lo, hi)
    held = view[:, 0, :, 1, :].copy()
    view[:, 0, :, 1, :] = view[:, 1, :, 0, :]
    view[:, 1, :, 0, :] = held


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
    """The reference that runs no plan: every gate's own kernel above on the whole state, in list order."""
    for gate in circuit.gates:
        if gate.kind == "h":
            apply_hadamard(state, gate.target)
        elif gate.kind == "phase":
            apply_phase(state, gate.target, gate.angle)
        elif gate.kind == "cphase":
            apply_controlled_phase(state, gate.control, gate.target, gate.angle)
        else:
            apply_swap(state, gate.target, gate.other)


def run_on_states(circuit, states):
    """Run the circuit on each column of a (2**N, R) array of input states, yielding run_filled's blocks.

    Column j of outputs is the output state for states[:, start + j]. The
    states are copied into the batch state and never changed; they are not
    checked for finiteness, so a column holding NaN runs through the kernels
    like any other.
    """
    states = np.asarray(states, dtype=np.complex128)
    if states.ndim != 2 or states.shape[0] != 1 << circuit.n_qubits:
        raise ValueError(f"states must have shape (2**{circuit.n_qubits}, R), got {states.shape}")

    def copy(start, block):
        block[...] = states[:, start : start + block.shape[1]]

    return run_filled(circuit, states.shape[1], copy)


def superposition_state(n_qubits: int, terms) -> StateVector:
    """Weighted superposition from (value, weight) pairs.

    Weights are taken exactly as given; they must already be normalized
    (sum of squared magnitudes 1 within DEFAULT_TOL), and values must be
    distinct and in range.
    """
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be a positive integer, got {n_qubits}")
    dim = 1 << n_qubits
    amplitudes = np.zeros(dim, dtype=np.complex128)
    seen: set[int] = set()
    norm_sq = 0.0
    for value, weight in terms:
        if not 0 <= value < dim:
            raise ValueError(f"value {value} out of range: expected 0 <= value < 2**{n_qubits} = {dim}")
        if value in seen:
            raise ValueError(f"duplicate basis value {value}")
        seen.add(value)
        amplitudes[value] = weight
        norm_sq += abs(weight) ** 2
    _require_normalized(norm_sq, "weights are")
    return StateVector(n_qubits, amplitudes)


def copy_state(state: StateVector) -> StateVector:
    """A state with its own copy of the amplitudes."""
    return StateVector(state.n_qubits, state.amplitudes.copy())


def probabilities(state: StateVector) -> np.ndarray:
    """|amplitude|**2 of every basis state."""
    return np.abs(state.amplitudes) ** 2


def fidelity(state_a: StateVector, state_b: StateVector) -> float:
    """Squared magnitude of the overlap <a|b>."""
    if state_a.n_qubits != state_b.n_qubits:
        raise ValueError(
            f"register sizes differ: {state_a.n_qubits} vs {state_b.n_qubits} qubits"
        )
    return float(abs(np.vdot(state_a.amplitudes, state_b.amplitudes)) ** 2)


def circuit_from_document(document: dict) -> Circuit:
    """The circuit of a circuit document, each gate entry passed to Gate as its fields."""
    return Circuit(document["n"], tuple(Gate(**entry) for entry in document["gates"]))
