"""In-place statevector kernel over little-endian basis indices.

A register of N qubits holds 2**N complex amplitudes, indexed by the
integer value of the basis state. Qubit t (1-based) stores bit (t - 1)
of the index, so qubit 1 is the least significant and qubit t carries
basis weight 2**(t - 1).

Gates mutate the amplitude array in place through reshaped views that
expose the relevant bits as their own axes; no 2**N x 2**N matrix is
ever formed here. Nothing renormalizes behind the caller's back: if an
operation drifted the norm, that is a bug the tests must surface.

State interchange format (JSON):

    {"n": N, "amplitudes": [[re, im], ...]}    # 2**N entries, index order
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

DEFAULT_TOL = 1e-10  # normalization bound of states, and the default pass bound of checks
SQRT1_2 = math.sqrt(0.5)
SPLIT_BELOW = 16  # kernels split a view whose last axis is shorter than this; see _parts


@dataclass
class StateVector:
    """Dense amplitude vector of an N-qubit register."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be a positive integer, got {self.n_qubits}")
        self.amplitudes = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected 2**{self.n_qubits} = {1 << self.n_qubits} amplitudes, "
                f"got shape {self.amplitudes.shape}"
            )

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def copy(self) -> StateVector:
        return StateVector(self.n_qubits, self.amplitudes.copy())


def basis_state(n_qubits: int, value: int) -> StateVector:
    """One-hot state |value> on an n_qubits register."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be a positive integer, got {n_qubits}")
    dim = 1 << n_qubits
    if not 0 <= value < dim:
        raise ValueError(f"value {value} out of range: expected 0 <= value < 2**{n_qubits} = {dim}")
    amplitudes = np.zeros(dim, dtype=np.complex128)
    amplitudes[value] = 1.0
    return StateVector(n_qubits, amplitudes)


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


def _require_normalized(norm_sq: float, subject: str) -> None:
    # written as "not <=" so that a NaN norm is refused too
    if not abs(norm_sq - 1.0) <= DEFAULT_TOL:
        raise ValueError(
            f"{subject} not normalized: sum of squared magnitudes is {norm_sq!r}, "
            f"expected 1 within {DEFAULT_TOL}"
        )


def _check_qubit(n_qubits: int, index: int, name: str = "target") -> None:
    if not 1 <= index <= n_qubits:
        raise ValueError(f"{name} qubit {index} out of range [1, {n_qubits}]")


def _split_view(amplitudes: np.ndarray, target: int) -> np.ndarray:
    # axes: (higher bits, target bit, lower bits); slices along the middle
    # axis are views, so writes land in the original array
    return amplitudes.reshape(-1, 2, 1 << (target - 1))


def _pair_view(amplitudes: np.ndarray, lo: int, hi: int) -> np.ndarray:
    # axes: (top bits, hi bit, middle bits, lo bit, low bits) with lo < hi
    return amplitudes.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << (lo - 1))


def _parts(view: np.ndarray) -> tuple[np.ndarray, ...]:
    """The view, or one part per index of its last axis when that axis is short.

    numpy runs an inner loop along the last axis, so a last axis shorter than
    SPLIT_BELOW pays one loop start per few amplitudes; each part instead runs
    one long strided loop. The view is split only when it holds at least
    SPLIT_BELOW times as many amplitudes as its last axis has indices, so no
    part is ever a single amplitude.
    """
    length = view.shape[-1]
    if length >= SPLIT_BELOW or view.size < SPLIT_BELOW * length:
        return (view,)
    return tuple(view[..., index] for index in range(length))


def apply_hadamard(state: StateVector, target: int) -> None:
    """Map the target-bit pair (a0, a1) to ((a0+a1), (a0-a1)) / sqrt(2)."""
    _check_qubit(state.n_qubits, target)
    # the sum and difference are half-state temporaries: an in-place update was
    # faster but raised the benchmark's peak RSS past its bound (ROADMAP item 3)
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


def fidelity(state_a: StateVector, state_b: StateVector) -> float:
    """Squared magnitude of the overlap <a|b>."""
    if state_a.n_qubits != state_b.n_qubits:
        raise ValueError(
            f"register sizes differ: {state_a.n_qubits} vs {state_b.n_qubits} qubits"
        )
    return float(abs(np.vdot(state_a.amplitudes, state_b.amplitudes)) ** 2)


def state_to_dict(state: StateVector) -> dict:
    """Serializable form following the documented state schema."""
    amplitudes = state.amplitudes
    return {"n": state.n_qubits, "amplitudes": np.stack((amplitudes.real, amplitudes.imag), axis=1).tolist()}


def state_from_dict(data) -> StateVector:
    """Parse and validate the state schema; rejects non-normalized inputs.

    Of several bad entries, the error names the first, whether it is
    malformed or not finite.
    """
    if not isinstance(data, dict):
        raise ValueError("state document must be a JSON object")
    if set(data) != {"n", "amplitudes"}:
        raise ValueError('state document must have exactly the fields "n" and "amplitudes"')
    n_qubits = data["n"]
    if not isinstance(n_qubits, int) or isinstance(n_qubits, bool) or n_qubits < 1:
        raise ValueError(f'"n" must be a positive integer, got {n_qubits!r}')
    entries = data["amplitudes"]
    dim = 1 << n_qubits
    if not isinstance(entries, list) or len(entries) != dim:
        raise ValueError(f'"amplitudes" must be a list of 2**{n_qubits} = {dim} entries')
    malformed = _first_malformed(entries)
    well_formed = entries[:malformed]
    try:
        pairs = np.array(well_formed, dtype=np.float64).reshape(-1, 2)
    except OverflowError:  # an integer past the float range, which counts as not finite
        pairs = np.array([[_float_or_inf(part) for part in entry] for entry in well_formed])
    finite = np.isfinite(pairs).all(axis=1)
    if not finite.all():
        raise ValueError(f"amplitude {int(np.argmin(finite))} is not finite")
    if malformed < dim:
        raise ValueError(f"amplitude {malformed} must be a [re, im] pair of numbers")
    state = StateVector(n_qubits, pairs.view(np.complex128).reshape(-1))
    _require_normalized(state.norm_sq(), "state is")
    return state


def _is_pair(entry) -> bool:
    return (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(isinstance(part, (int, float)) and not isinstance(part, bool) for part in entry)
    )


def _first_malformed(entries: list) -> int:
    """Index of the first entry that is not a [re, im] pair of numbers, or len(entries)."""
    # One pass over the types settles the common document, whose pairs are
    # lists of plain ints and floats; anything else is checked entry by entry.
    if (
        set(map(type, entries)) <= {list, tuple}
        and set(map(len, entries)) <= {2}
        and set(map(type, chain.from_iterable(entries))) <= {int, float}
    ):
        return len(entries)
    return next((index for index, entry in enumerate(entries) if not _is_pair(entry)), len(entries))


def _float_or_inf(part) -> float:
    try:
        return float(part)
    except OverflowError:
        return math.inf
