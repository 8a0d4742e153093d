"""In-place statevector kernels over little-endian basis indices.

A register of N qubits holds 2**N complex amplitudes, indexed by the
integer value of the basis state. Qubit t (1-based) stores bit (t - 1)
of the index, so qubit 1 is the least significant and qubit t carries
basis weight 2**(t - 1).

Two kernels change a state, both in place: apply_dense applies a 2**K x
2**K matrix to K consecutive qubits, and apply_diagonal multiplies by
2**K factors over K consecutive qubits, optionally under a control qubit.
Every step of a circuit's run, and every gate of the matrices its plan
builds, is one call of one of them. They work through reshaped views that expose the qubits they act
on as their own axes; no 2**N x 2**N matrix is ever formed here. Nothing
renormalizes behind the caller's back: if an operation drifted the norm,
that is a bug the tests must surface.

State interchange format (JSON):

    {"n": N, "amplitudes": [[re, im], ...]}    # 2**N entries, index order
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

import numpy as np

DEFAULT_TOL = 1e-10  # normalization bound of states, and the default pass bound of checks
SPLIT_BELOW = 16  # kernels split a view whose last axis is shorter than this; see _parts
MATMUL_ROWS = 256  # rows per matrix product when apply_dense acts on the lowest qubits
# Amplitudes in one block of a plan run and in one run_filled batch (1 MiB), and
# rows in one piece of state text; a power of two that each module reads at call time.
BATCH_AMPLITUDES = 1 << 16


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
        require_finite(self.amplitudes)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


def require_finite(amplitudes: np.ndarray) -> None:
    """Refuse an amplitude array that holds a NaN or an infinity."""
    # a NaN reaches min and max, an infinity one of them; neither allocates a state-sized temporary
    parts = amplitudes.view(np.float64)
    if not (math.isfinite(parts.min()) and math.isfinite(parts.max())):
        raise ValueError("amplitudes must be finite")


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


def apply_diagonal(state: StateVector, factors: np.ndarray, low: int, control: int | None = None) -> None:
    """Multiply each amplitude by factors[k], k the value of its qubits low..low+K-1.

    factors holds 2**K entries, K >= 0, and is broadcast over the other qubits.
    With a control qubit, only the amplitudes whose control bit is set are
    multiplied; if the control is one of the K qubits, the entries whose bit
    for it is clear are never read. The factors are taken as given: the plan
    in circuits.py builds them from the gates' finite angles.
    """
    factors = np.asarray(factors, dtype=np.complex128)
    size = factors.size
    span = size.bit_length() - 1
    if factors.shape != (1 << span,):
        raise ValueError(f"factors must be a flat vector of 2**K entries, got shape {factors.shape}")
    _check_qubit(state.n_qubits, low, "low")
    _check_qubit(state.n_qubits, low + max(span, 1) - 1, "top")
    below = 1 << (low - 1)
    amplitudes = state.amplitudes
    # view: the amplitudes to multiply; operand: the factors, broadcast from view's axis `axis` on
    axis, operand = 1, factors
    if control is None:
        view = amplitudes.reshape(-1, size, below)
    else:
        _check_qubit(state.n_qubits, control, "control")
        if control < low:
            # axes: (top bits, factor bits, bits between, control bit, lower bits)
            view = amplitudes.reshape(-1, size, below >> control, 2, 1 << (control - 1))[:, :, :, 1]
        elif control < low + span:
            # axes: (top bits, factor bits above control, control bit, factor bits below, lower bits)
            inner = 1 << (control - low)
            view = amplitudes.reshape(-1, size // (2 * inner), 2, inner, below)[:, :, 1]
            operand = factors.reshape(-1, 2, inner)[:, 1]
        else:
            # axes: (top bits, control bit, bits between, factor bits, lower bits)
            view = amplitudes.reshape(-1, 2, 1 << (control - low - span), size, below)[:, 1]
            axis = 2
    for part in _parts(view):
        part *= operand.reshape(operand.shape + (1,) * (part.ndim - axis - operand.ndim))


def apply_dense(
    state: StateVector, matrix: np.ndarray, low: int, out: np.ndarray | None = None, part: slice | None = None
) -> None:
    """Apply a 2**K x 2**K matrix, K >= 1, to the qubits low..low+K-1.

    Row and column k of the matrix are the value k of those qubits after and
    before, with qubit low as bit 0. The product is written into out, a
    scratch of as many amplitudes as the state (a new one when out is None),
    and then copied back into the state. part, a slice of the 2**(low-1)
    values of the qubits below low, limits both to the amplitudes whose
    lower bits lie in it, so calls over disjoint parts may share one out and
    run at once.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    size = matrix.shape[0] if matrix.ndim == 2 else 0
    span = size.bit_length() - 1
    if span < 1 or matrix.shape != (1 << span, 1 << span):
        raise ValueError(f"matrix must be 2**K x 2**K with K >= 1, got shape {matrix.shape}")
    _check_qubit(state.n_qubits, low, "low")
    _check_qubit(state.n_qubits, low + span - 1, "top")
    if out is None:
        out = np.empty_like(state.amplitudes)
    elif out.shape != state.amplitudes.shape:
        raise ValueError(f"out must hold {state.dim} amplitudes, got shape {out.shape}")
    # axes: (top bits, the K matrix bits, lower bits)
    view = state.amplitudes.reshape(-1, size, 1 << (low - 1))
    product = out.reshape(view.shape)
    if part is not None:
        view, product = view[..., part], product[..., part]
    if low == 1:
        # rows times the transposed matrix, in groups of at most MATMUL_ROWS rows: a stack of
        # (K, 1) products would run one row at a time, and one product over every row packs
        # all of them into BLAS buffers on each of its threads
        group = min(MATMUL_ROWS, view.shape[0])
        np.matmul(view.reshape(-1, group, size), matrix.T, out=product.reshape(-1, group, size))
    else:
        np.matmul(matrix, view, out=product)
    view[...] = product


def text_pieces(amplitudes: np.ndarray, row: str, separator: str, fields) -> Iterator[str]:
    """Text rows for the amplitudes, in pieces of at most BATCH_AMPLITUDES rows.

    fields(part, start) gives how many rows part, the amplitudes from index
    start, writes and the flat tuple of their values; each row is row % its
    values, and separator goes between rows, across pieces too. One piece is
    held at a time, as values or as text, so any text costs one piece.
    """
    lead = ""
    for start in range(0, amplitudes.size, BATCH_AMPLITUDES):
        count, piece = fields(amplitudes[start : start + BATCH_AMPLITUDES], start)
        if count:
            piece = (lead + row + (separator + row) * (count - 1)) % piece  # the text takes its values' place
            yield piece
            lead = separator
        del piece  # not held while the next piece is made


def state_to_json(state: StateVector) -> Iterator[str]:
    """The state document in pieces of JSON text, whose join is json.dumps of its {"n", "amplitudes"} form.

    A non-finite amplitude is refused, naming the first, before any piece is
    made: JSON has no token for it, and state_from_dict refuses one.
    """
    finite = np.isfinite(state.amplitudes)
    if not finite.all():
        raise ValueError(f"amplitude {int(np.argmin(finite))} is not finite")
    # %r writes float.__repr__, as json.dumps does for every finite float
    pairs = text_pieces(
        state.amplitudes, "[%r, %r]", ", ", lambda part, _: (part.size, tuple(part.view(np.float64).tolist()))
    )
    return chain(('{"n": %d, "amplitudes": [' % state.n_qubits,), pairs, ("]}",))


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
    # bit lengths first: a huge "n" would make 2**n too long to build or print
    count = len(entries) if isinstance(entries, list) else 0
    if count.bit_length() != n_qubits + 1 or count != 1 << n_qubits:
        size = f"2**{n_qubits} = {1 << n_qubits}" if n_qubits < 64 else f"2**{n_qubits}"
        raise ValueError(f'"amplitudes" must be a list of {size} entries')
    dim = count
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
