"""Gate-list circuits and the transform between basis weight and phase.

A circuit is an ordered gate list over qubits 1..N. Gates apply left to
right, so the unitary of a circuit is the right-to-left product of its
gate matrices. Circuits are frozen once built; helpers like concat and
inverse return new objects, and each width's transform and inverse
transform are built once and shared by every caller.

Circuit interchange format (JSON):

    {"n": N, "gates": [{"kind": "h", "target": 1},
                       {"kind": "phase", "target": 2, "angle": 0.5},
                       {"kind": "cphase", "control": 2, "target": 1, "angle": 1.5707963267948966},
                       {"kind": "swap", "target": 1, "other": 2}]}
"""

from __future__ import annotations

import cmath
import math
import os
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cache, partial
from itertools import chain

import numpy as np

from .statevector import BATCH_AMPLITUDES, StateVector, apply_dense, apply_diagonal, require_finite

HADAMARD = "h"
PHASE = "phase"
CONTROLLED_PHASE = "cphase"
SWAP = "swap"
GATE_KINDS = (HADAMARD, PHASE, CONTROLLED_PHASE, SWAP)
# The fields each kind carries, in the order the JSON schema writes them.
GATE_FIELDS = {
    HADAMARD: ("target",),
    PHASE: ("target", "angle"),
    CONTROLLED_PHASE: ("control", "target", "angle"),
    SWAP: ("target", "other"),
}
# Per kind, whether it sets control, other and angle; derived once for Gate's check.
_SETS_OPTIONAL = {
    kind: tuple(name in fields for name in ("control", "other", "angle"))
    for kind, fields in GATE_FIELDS.items()
}

# The Hadamard as the 2 x 2 matrix that builds a dense step.
_HADAMARD_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) * math.sqrt(0.5)
# Widest window of consecutive qubit positions that one dense step of a plan
# covers: a 32 x 32 matrix costs about as much per amplitude as one
# Hadamard pass, and applies up to five Hadamards and the phases between them.
FUSE_QUBITS = 5
# A dense step above the block is cut into ranges of the values of the qubits
# below its window, one per worker, each a multiple of this many values. BLAS
# multiplies a few such columns at a time, so ranges cut at such multiples
# give the bits of one product over the whole state. With OpenBLAS 0.3.31 on
# x86-64, cuts at values that 4 does not divide gave other last bits.
RANGE_COLUMNS = 64


@dataclass(frozen=True)
class Gate:
    """One primitive operation: a kind plus the qubits and angle it needs.

    control, other and angle (radians) are set exactly for the kinds whose
    GATE_FIELDS entry names them.
    """

    kind: str
    target: int
    control: int | None = None
    other: int | None = None
    angle: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.target < 1:
            raise ValueError(f"target qubit must be >= 1, got {self.target}")
        present = (self.control is not None, self.other is not None, self.angle is not None)
        if present != _SETS_OPTIONAL[self.kind]:
            raise ValueError(f"{self.kind!r} gates carry exactly the fields {GATE_FIELDS[self.kind]}")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError(f"angle must be finite, got {self.angle}")
        if self.control is not None and (self.control < 1 or self.control == self.target):
            raise ValueError(f"control qubit {self.control} invalid for target {self.target}")
        if self.other is not None and (self.other < 1 or self.other == self.target):
            raise ValueError(f"swap qubits must be distinct and >= 1, got {self.target} and {self.other}")


def hadamard(target: int) -> Gate:
    return Gate(HADAMARD, target)


def phase(target: int, angle: float) -> Gate:
    return Gate(PHASE, target, angle=float(angle))


def cphase(control: int, target: int, angle: float) -> Gate:
    return Gate(CONTROLLED_PHASE, target, control=control, angle=float(angle))


def swap(target: int, other: int) -> Gate:
    return Gate(SWAP, target, other=other)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list over a fixed register width."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be a positive integer, got {self.n_qubits}")
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            for qubit in (gate.target, gate.control, gate.other):
                if qubit is not None and qubit > self.n_qubits:
                    raise ValueError(
                        f"gate {gate} addresses qubit {qubit}, register has {self.n_qubits}"
                    )

    def __len__(self) -> int:
        return len(self.gates)


@cache
def qft_circuit(n_qubits: int) -> Circuit:
    """Circuit whose unitary is the discrete Fourier transform on basis integers.

    Construction: for each target from the most significant qubit down, one
    Hadamard followed by controlled phases of angle 2*pi/2**l from every less
    significant qubit s, where l = target - s + 1. A closing swap network
    reverses qubit order, which lines the result up with the matrix whose
    (j, k) entry is exp(2*pi*i*j*k / 2**N) / sqrt(2**N). Built once per
    width; every call returns the same circuit, and Circuit refuses a width
    below 1.
    """
    gates: list[Gate] = []
    for target in range(n_qubits, 0, -1):
        gates.append(hadamard(target))
        for source in range(target - 1, 0, -1):
            gates.append(cphase(source, target, 2.0 * math.pi / (1 << (target - source + 1))))
    for low in range(1, n_qubits // 2 + 1):
        gates.append(swap(low, n_qubits + 1 - low))
    return Circuit(n_qubits, tuple(gates))


@cache
def inverse_qft_circuit(n_qubits: int) -> Circuit:
    """The reverse transform: qft_circuit reversed with every angle negated, built once per width."""
    return inverse(qft_circuit(n_qubits))


def run_circuit(circuit: Circuit, state: StateVector) -> None:
    """Apply the gates in list order, mutating the state in place.

    A state holding a non-finite amplitude is refused. The state then runs
    the plan that _plan compiles from the gate list: swaps relabel qubits,
    the Hadamards and the phases among them within FUSE_QUBITS consecutive
    qubits become one dense matrix step, built by running those gates
    through apply_dense and apply_diagonal, and each run of the other
    diagonal gates becomes one phase step, a single apply_diagonal call per
    block. With BATCH_AMPLITUDES = 2**b, every step
    but a dense step reaching above qubit b runs block by block over the
    aligned 2**b-amplitude blocks (one block when the state is no wider), so
    a stretch of steps is applied to one cache-sized block before the next
    is loaded; the blocks of a wider state, and the dense steps above them,
    are shared among _workers() threads, with the same output bits as one
    thread. Qubits still out of place at the end are put back with one
    transpose. The plan multiplies and sums in another order than the gates
    do one by one, so its output is within DEFAULT_TOL of such a run rather
    than bitwise the same.
    """
    if circuit.n_qubits != state.n_qubits:
        raise ValueError(
            f"circuit is over {circuit.n_qubits} qubit(s), state has {state.n_qubits}"
        )
    require_finite(state.amplitudes)
    _run(_plan(circuit), state)


def _run(plan: tuple[list, list[int]], state: StateVector) -> None:
    """Run a compiled plan on the state, unchecked for finiteness, and put every qubit back with _put_back."""
    steps, where = plan
    _run_plan(steps, state, min(BATCH_AMPLITUDES.bit_length() - 1, state.n_qubits))
    _put_back(state, where)


def _put_back(state: StateVector, where: list[int]) -> None:
    """Move each qubit q from position where[q] back to position q, with one transpose."""
    n = state.n_qubits
    if where != list(range(n + 1)):
        # axis a of the (2,)*N view is qubit N - a; numpy copies the overlapping source once
        view = state.amplitudes.reshape((2,) * n)
        view[...] = view.transpose([n - where[n - axis] for axis in range(n)])


def _apply_gates(gates, state: StateVector, offset: int, scratch: np.ndarray) -> None:
    # gates are the plan's (positions, angle) entries, angle None for a Hadamard, each position
    # moved by offset; every Hadamard writes through scratch, of the state's size. The kernels
    # are looked up by name on every call, here and in the plan, so a patched
    # circuits.apply_dense or circuits.apply_diagonal reaches every call
    for positions, angle in gates:
        moved = [position + offset for position in positions]
        if angle is None:
            apply_dense(state, _HADAMARD_MATRIX, *moved, scratch)
        else:
            factors = np.array([1.0, cmath.exp(1j * angle)])
            # a phase's one position, or a controlled phase's (control, target)
            apply_diagonal(state, factors, moved[-1], *moved[:-1])


@dataclass(frozen=True)
class _Diagonal:
    """A run of diagonal gates as one step over positions (relabelled qubits): a phase polynomial.

    Each term (positions, angle) multiplies by exp(i*angle) the amplitudes
    whose bits at its one or two positions are all set.
    """

    terms: tuple[tuple[tuple[int, ...], float], ...]


def _plan(circuit: Circuit, offset: int = 0) -> tuple[list, list[int]]:
    """The steps of a run, and where[q], the position that holds qubit q after them.

    Every qubit of the circuit is read as moved up by offset, onto a register
    of N + offset qubits whose low offset qubits no step touches. A step is a
    _Dense or a _Diagonal. A swap only exchanges two entries of
    where, and every later gate is read through it. The other gates are read
    as (positions, angle), angle None for a Hadamard. Diagonal gates wait
    until a Hadamard on one of their positions needs them placed, or the run
    ends. A Hadamard joins the open cluster while the cluster's Hadamard
    positions still fit in FUSE_QUBITS consecutive positions, its window;
    otherwise the cluster closes and a new one opens with it. Each waiting
    diagonal gate on the Hadamard's position joins the cluster before it when
    its positions lie inside the window, and otherwise joins a _Diagonal:
    ahead of the open cluster if the cluster holds no Hadamard on that
    position (they commute), after it, closed, if it does. A closing cluster
    takes in every waiting diagonal gate inside its window. Diagonal gates
    placed next to each other form one _Diagonal, whatever their positions,
    since they commute; so no two steps of a plan are both diagonal.
    """
    where = list(range(circuit.n_qubits + offset + 1))
    steps: list = []
    cluster: list[tuple[tuple[int, ...], float | None]] = []  # the open cluster's gates, in order
    hadamards: set[int] = set()  # the positions of its Hadamards
    waiting: list[tuple[tuple[int, ...], float]] = []  # diagonal gates not yet placed

    def place(run) -> None:
        if run:
            if steps and isinstance(steps[-1], _Diagonal):
                steps[-1] = _Diagonal(steps[-1].terms + tuple(run))
            else:
                steps.append(_Diagonal(tuple(run)))

    def close() -> None:
        nonlocal waiting
        if hadamards:
            low, top = min(hadamards), max(hadamards)
            inside = [entry for entry in waiting if _within(entry[0], low, top)]
            waiting = [entry for entry in waiting if not _within(entry[0], low, top)]
            steps.append(_dense(cluster + inside, low, top))
        cluster.clear()
        hadamards.clear()

    for gate in circuit.gates:
        if gate.kind == SWAP:
            a, b = gate.target + offset, gate.other + offset
            where[a], where[b] = where[b], where[a]
        elif gate.kind == HADAMARD:
            position = where[gate.target + offset]
            window = hadamards | {position}
            if max(window) - min(window) >= FUSE_QUBITS:
                close()
                window = {position}
            low, top = min(window), max(window)
            needed = [entry for entry in waiting if position in entry[0]]
            waiting = [entry for entry in waiting if position not in entry[0]]
            outside = [entry for entry in needed if not _within(entry[0], low, top)]
            cluster.extend(entry for entry in needed if _within(entry[0], low, top))
            if outside and position in hadamards:
                close()
            place(outside)
            cluster.append(((position,), None))
            hadamards.add(position)
        elif gate.kind == PHASE:
            waiting.append(((where[gate.target + offset],), gate.angle))
        else:
            waiting.append(((where[gate.control + offset], where[gate.target + offset]), gate.angle))
    close()
    place(waiting)
    return steps, where


def _within(positions: tuple[int, ...], low: int, top: int) -> bool:
    return all(low <= position <= top for position in positions)


@dataclass(frozen=True)
class _Dense:
    """A cluster of gates as one 2**K x 2**K matrix over the positions low..top."""

    matrix: np.ndarray
    low: int
    top: int


def _dense(cluster, low: int, top: int) -> _Dense:
    """The cluster's matrix, from running its gates on every basis column.

    The gates run through _apply_gates, one apply_dense or apply_diagonal
    call each, moved from positions low..top to qubits K+1..2K of a 2K-qubit
    state whose amplitudes are the flattened identity: the low K qubits
    index the columns and are never touched.
    """
    k = top - low + 1
    work = StateVector(2 * k, np.eye(1 << k, dtype=np.complex128).reshape(-1))
    _apply_gates(cluster, work, k + 1 - low, np.empty_like(work.amplitudes))
    return _Dense(work.amplitudes.reshape(1 << k, 1 << k), low, top)


@dataclass(frozen=True)
class _Multiply:
    """A _Diagonal as the factors each block of the state multiplies by.

    Block i's factors, over its positions low..low+K-1, are base times the
    phase vector of its rotations, rotations[j, i] at position cross + j,
    and times scales[i], what the terms above the block give block i. When
    no term holds a position above the block, rotations and scales are None
    and every block's factors are base.
    """

    base: np.ndarray
    low: int
    cross: int = 0
    rotations: np.ndarray | None = None
    scales: np.ndarray | None = None

    def factors(self, index: int, scratch: np.ndarray) -> np.ndarray:
        """Block index's factors: base itself when the block adds nothing, else written into scratch.

        The block's rotations form a vector over cross up, at most one block;
        it exists only when the state is wider than one block.
        """
        if self.rotations is None:
            return self.base
        rotations, scale = self.rotations[:, index], self.scales[index]
        if not rotations.size and scale == 1.0:
            return self.base
        vector = _phase_vector(rotations, scale)
        shape = (-1, vector.size, 1 << (self.cross - self.low))
        out = scratch[: self.base.size]
        np.multiply(self.base.reshape(shape), vector[:, None], out=out.reshape(shape))
        return out


def _inside(step: _Diagonal, block_qubits: int) -> tuple[int, int, bool]:
    """The step's span (low, top, reaches), found once per run.

    low and top are the lowest and highest position in the block that a term
    holds, or (1, 0) for none; reaches tells whether a term holds a position
    above the block.
    """
    positions = [position for positions, _ in step.terms for position in positions]
    inside = [position for position in positions if position <= block_qubits]
    low, top = (min(inside), max(inside)) if inside else (1, 0)
    return low, top, len(inside) < len(positions)


def _multiply(step: _Diagonal, span: tuple, n_qubits: int, block_qubits: int, out: np.ndarray) -> _Multiply:
    """The step's factors for every block, split at the block edge; its base is written into out.

    span is the step's _inside span. Terms inside the block give base, over
    the block positions low..top that any term holds. When no term reaches
    above the block, base is all: it serves every block, and no rotation
    table or scale is made. Otherwise a pair with one position inside and one
    above rotates the inside one in the blocks where the other is set; the
    positions it rotates run from cross up, one row of rotations each. Terms
    above the block give each block a scale.
    """
    low, top, reaches = span
    inside, above = np.zeros(top + 1 - low), np.zeros(n_qubits - block_qubits)  # single-position angles
    inside_pairs, above_pairs, cross_pairs = [], [], []
    for positions, angle in step.terms:
        p, q = min(positions), max(positions)
        if q <= block_qubits:
            singles, pairs, p, q = inside, inside_pairs, p - low, q - low
        elif p > block_qubits:
            singles, pairs, p, q = above, above_pairs, p - block_qubits - 1, q - block_qubits - 1
        else:
            cross_pairs.append((p, q - block_qubits - 1, angle))
            continue
        if p == q:
            singles[p] += angle
        else:
            pairs.append((p, q, angle))
    base = _polynomial(inside, inside_pairs, out)
    if not reaches:
        return _Multiply(base, low)
    cross = min((p for p, _, _ in cross_pairs), default=low)
    rows = max((p for p, _, _ in cross_pairs), default=cross - 1) + 1 - cross
    # rows of no rotation, up to half the base's positions from cross, give the block's multiply long inner loops
    angles = np.zeros((max(rows, (top + 1 - cross) // 2) if rows else 0, len(above)))
    for p, q, angle in cross_pairs:
        angles[p - cross, q] += angle
    table = _phase_vector(np.exp(1j * angles), np.ones((len(angles), 1)))
    scales = _polynomial(above, above_pairs, np.empty(1 << len(above), dtype=np.complex128))
    return _Multiply(base, low, cross, table, scales)


def _polynomial(singles: np.ndarray, pairs: list, out: np.ndarray) -> np.ndarray:
    """Write into out, and return it, entry k: exp(i*angle) for each term whose positions' bits of k are set.

    singles[p] is position p's angle, and pairs lists (p, q, angle), p < q.
    cut lies above the lower position of every pair and at least halfway up,
    so the positions from cut up pair only with positions below it. The
    vector starts as the polynomial of the positions below cut, and each
    position q from cut up doubles it: the new half is the old one times q's
    partner vector, the rotation of q for each value of the positions below
    cut, repeated over those in between. One _phase_vector call builds every
    partner vector, one row each, into the end of out, which only the last
    level writes; each has at least 2**(size/2) entries, so the doubling
    runs in long inner loops. The vector costs O(2**size) multiplies and
    O(size) array calls, and no buffer beyond out.
    """
    size = len(singles)
    if not pairs:
        return _phase_vector(np.exp(1j * singles), 1.0, out)
    cut = max(max(p for p, _, _ in pairs) + 1, (size + 1) // 2)
    head = _polynomial(singles[:cut], [pair for pair in pairs if pair[1] < cut], out[: 1 << cut])
    angles = np.zeros((size - cut, cut + 1))  # per position from cut: its pairs below cut, then its single
    angles[:, -1] = singles[cut:]
    for p, q, angle in pairs:
        if q >= cut:
            angles[q - cut, p] += angle
    rotations = np.exp(1j * angles)
    partners = out[out.size - (len(rotations) << cut) :].reshape(len(rotations), head.size)
    _phase_vector(rotations[:, :-1], rotations[:, -1:], partners)
    for level, partner in enumerate(partners):
        lower = out[: head.size << level].reshape(-1, head.size)
        upper = out[head.size << level : head.size << level + 1].reshape(-1, head.size)
        # the last level's partner is its own last row, so that row is written last
        np.multiply(lower[:-1], partner, out=upper[:-1])
        np.multiply(lower[-1], partner, out=upper[-1])
    return out


def _phase_vector(rotations: np.ndarray, first, out: np.ndarray | None = None) -> np.ndarray:
    """Entry k, along the last axis: first times rotations[..., j] for every bit j set in k.

    rotations holds one rotation per position along its last axis, and first
    is a number; or rotations has shape (rows, K) and first (rows, 1), for
    one vector per row. The vector is written into out when it is given.
    """
    first = np.asarray(first, dtype=np.complex128)
    vector = np.empty(first.shape[:-1] + (1 << rotations.shape[-1],), dtype=np.complex128) if out is None else out
    vector[..., :1] = first
    for position in range(rotations.shape[-1]):
        half = 1 << position
        np.multiply(vector[..., :half], rotations[..., position : position + 1], out=vector[..., half : 2 * half])
    return vector


def _run_plan(steps: list, state: StateVector, block_qubits: int) -> None:
    """Run the steps, block by block between dense steps that reach above the block.

    Each phase step's _inside span is found once, before any step runs. The
    base vectors of a stretch's phase steps share one buffer of at most
    a block of amplitudes, made once per run: a step whose base would pass
    its end starts a new stretch, and is built after the stretch before it
    has run. A phase step writes each block's factors into the worker's
    block scratch (see _Multiply.factors). The blocks are wrapped as states
    once, before any step runs, and not checked for finiteness again. A
    dense step above the block runs over the whole state, into a state-sized
    output of its own, one apply_dense call per range of the values of the
    qubits below its window. The block runs of a stretch and those ranges
    are shared among _workers() threads (see _run_parallel).
    """
    blocks = [_view(block_qubits, block) for block in state.amplitudes.reshape(-1, 1 << block_qubits)]
    spans = [_inside(step, block_qubits) for step in steps if isinstance(step, _Diagonal)]
    sizes = [1 << (top + 1 - low) for low, top, _ in spans]
    bases = np.empty(min(sum(sizes), 1 << block_qubits), dtype=np.complex128)  # a stretch's, one after another
    spans, sizes = iter(spans), iter(sizes)
    stretch: list = []
    held = 0
    for step in steps:
        if isinstance(step, _Dense) and step.top > block_qubits:
            _run_blocked(stretch, blocks)
            stretch, held = [], 0
            _run_above(state, step)
            continue
        if isinstance(step, _Diagonal):
            size = next(sizes)
            if held + size > bases.size:
                _run_blocked(stretch, blocks)
                stretch, held = [], 0
            step = _multiply(step, next(spans), state.n_qubits, block_qubits, bases[held : held + size])
            held += size
        stretch.append(step)
    _run_blocked(stretch, blocks)


def _run_above(state: StateVector, step: _Dense) -> None:
    """Run a dense step above the block over the whole state, into one state-sized output its ranges share."""
    out = np.empty_like(state.amplitudes)
    parts = _split(1 << (step.low - 1), RANGE_COLUMNS)
    _run_parallel([partial(apply_dense, state, step.matrix, step.low, out, part) for part in parts])


def _view(n_qubits: int, amplitudes: np.ndarray) -> StateVector:
    """A StateVector over the amplitudes as they are: not copied, and not checked for finiteness."""
    state = object.__new__(StateVector)
    state.n_qubits, state.amplitudes = n_qubits, amplitudes
    return state


def _workers() -> int:
    """Threads that run a wide state: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without sched_getaffinity
        return os.cpu_count() or 1


@cache
def _pool():
    """The thread pool that runs all but the first job of _run_parallel, made on first use."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(thread_name_prefix="fourieradd")


def _split(count: int, unit: int = 1) -> list[slice]:
    """0..count-1 as up to _workers() contiguous slices of near-equal length, cut at multiples of unit.

    count and unit are powers of two; a count below unit is one slice.
    """
    unit = min(unit, count)
    units = count // unit
    runs = min(_workers(), units)
    return [slice(unit * (units * run // runs), unit * (units * (run + 1) // runs)) for run in range(runs)]


def _run_parallel(jobs: list) -> None:
    """Call every job, the first in this thread and the others in the pool, and return when all have ended.

    The jobs write disjoint amplitudes, and numpy releases the GIL inside
    the kernels, so they run at once. A single job never reaches the pool.
    Every job has ended before this returns or raises, so none writes to a
    state after its run is over; the error of the first job that failed, in
    job order, is raised.
    """
    futures = [_pool().submit(job) for job in jobs[1:]]
    try:
        jobs[0]()
    finally:
        errors = [future.exception() for future in futures]  # each call waits for its job
    for error in errors:
        if error is not None:
            raise error


def _run_blocked(stretch: list, blocks: list[StateVector]) -> None:
    """Run the stretch over the blocks: one contiguous run of blocks per worker, each with its own scratch.

    A single block runs in this thread, with no call to _split or _run_parallel.
    """
    if not stretch:
        return
    block = blocks[0].amplitudes
    if len(blocks) == 1:
        _run_blocks(stretch, blocks, slice(0, 1), np.empty_like(block))
        return
    jobs = [partial(_run_blocks, stretch, blocks, part, np.empty_like(block)) for part in _split(len(blocks))]
    _run_parallel(jobs)


def _run_blocks(stretch: list, blocks: list[StateVector], part: slice, scratch: np.ndarray) -> None:
    for index in range(part.start, part.stop):
        block_state = blocks[index]
        for step in stretch:
            if isinstance(step, _Dense):
                apply_dense(block_state, step.matrix, step.low, scratch)
            else:
                apply_diagonal(block_state, step.factors(index, scratch), step.low)


def run_on_basis(circuit: Circuit) -> Iterator[tuple[int, np.ndarray]]:
    """Run the circuit on every basis input in order, yielding run_filled's (start, outputs) blocks.

    Column j of outputs is the output for |start + j>; each block's one-hot
    columns are written as it is filled, so no (2**N, 2**N) array is built.
    """

    def one_hot(start: int, block: np.ndarray) -> None:
        block[...] = 0.0
        columns = np.arange(block.shape[1])
        block[start + columns, columns] = 1.0

    return run_filled(circuit, 1 << circuit.n_qubits, one_hot)


def run_filled(circuit: Circuit, count: int, fill) -> Iterator[tuple[int, np.ndarray]]:
    """Run the circuit on count inputs that fill writes into each block, yielding (start, outputs) blocks.

    fill(start, block) writes inputs start, start + 1, ... as the columns of
    block, a (2**N, columns) view of the batch state: one column per input,
    so the input index sits on the low qubits. A block of 2**k inputs runs
    as one state of N + k qubits through the plan of the circuit with every
    qubit moved up by k. No step touches the low k qubits, so each column is
    the circuit's output on its input, and keeping the input index lowest
    gives every step inner runs of at least 2**k contiguous amplitudes. A
    block holds at most BATCH_AMPLITUDES amplitudes, or a single input when
    one state is larger than that. Each block width's plan is compiled once
    per call and kept no longer, so a kernel patched between calls always
    builds the matrices. The inputs are not checked for finiteness. Every
    block is filled into one work buffer, and outputs is that block as the
    run left it: column j is the output for input start + j, valid until the
    next block is filled. A caller that keeps a block copies it.
    """
    if not count:
        return
    n_qubits, dim = circuit.n_qubits, 1 << circuit.n_qubits
    widest = max(BATCH_AMPLITUDES.bit_length() - 1 - n_qubits, 0)
    # blocks only shrink, so the first one sizes the work buffer
    buffer = np.empty(dim << min(widest, count.bit_length() - 1), dtype=np.complex128)
    plans: dict[int, tuple[list, list[int]]] = {}
    start = 0
    while start < count:
        k = min(widest, (count - start).bit_length() - 1)
        work = _view(n_qubits + k, buffer[: dim << k])
        block = work.amplitudes.reshape(dim, 1 << k)
        fill(start, block)
        if k not in plans:
            plans[k] = _plan(circuit, k)
        _run(plans[k], work)
        yield start, block
        start += 1 << k


def concat(first: Circuit, *rest: Circuit) -> Circuit:
    """Circuit that runs the given circuits one after another, all of one width.

    Every part passed Circuit's per-gate check on that width when it was
    built, so the joined list is not checked again.
    """
    for circuit in rest:
        if circuit.n_qubits != first.n_qubits:
            raise ValueError(
                f"register sizes differ: {first.n_qubits} vs {circuit.n_qubits} qubits"
            )
    joined = object.__new__(Circuit)
    object.__setattr__(joined, "n_qubits", first.n_qubits)
    object.__setattr__(joined, "gates", first.gates + tuple(chain.from_iterable(c.gates for c in rest)))
    return joined


def inverse(circuit: Circuit) -> Circuit:
    """Reversed gate order with negated angles; Hadamard and swap are self-inverse."""
    inverted = tuple(
        gate if gate.angle is None else Gate(gate.kind, gate.target, gate.control, gate.other, -gate.angle)
        for gate in reversed(circuit.gates)
    )
    return Circuit(circuit.n_qubits, inverted)


def shift_qubits(circuit: Circuit, offset: int, n_qubits_total: int) -> Circuit:
    """Remap a circuit onto a register at least as wide, moving every qubit index up by offset."""
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
    if n_qubits_total < circuit.n_qubits + offset:
        raise ValueError(
            f"a register of {n_qubits_total} qubit(s) cannot hold {circuit.n_qubits} qubit(s) "
            f"moved up by {offset}"
        )
    moved = tuple(
        Gate(
            gate.kind,
            gate.target + offset,
            None if gate.control is None else gate.control + offset,
            None if gate.other is None else gate.other + offset,
            gate.angle,
        )
        for gate in circuit.gates
    )
    return Circuit(n_qubits_total, moved)


def circuit_to_dict(circuit: Circuit) -> dict:
    """Serializable form following the documented circuit schema."""
    gates = [
        {"kind": gate.kind, **{name: getattr(gate, name) for name in GATE_FIELDS[gate.kind]}}
        for gate in circuit.gates
    ]
    return {"n": circuit.n_qubits, "gates": gates}


def circuit_from_dict(data) -> Circuit:
    """Parse and validate the circuit schema that qft-dump writes.

    The program reads no circuit; this reader is kept for the dump's round-trip tests.
    """
    if not isinstance(data, dict):
        raise ValueError("circuit document must be a JSON object")
    if set(data) != {"n", "gates"}:
        raise ValueError('circuit document must have exactly the fields "n" and "gates"')
    n_qubits = data["n"]
    if not isinstance(n_qubits, int) or isinstance(n_qubits, bool) or n_qubits < 1:
        raise ValueError(f'"n" must be a positive integer, got {n_qubits!r}')
    raw_gates = data["gates"]
    if not isinstance(raw_gates, list):
        raise ValueError('"gates" must be a list')
    gates: list[Gate] = []
    for position, entry in enumerate(raw_gates):
        if not isinstance(entry, dict):
            raise ValueError(f"gate {position} must be an object")
        kind = entry.get("kind")
        if kind not in GATE_KINDS:
            raise ValueError(f"gate {position} has unknown kind {kind!r}")
        fields = GATE_FIELDS[kind]
        if set(entry) != {"kind", *fields}:
            raise ValueError(
                f"gate {position} ({kind}) must have exactly the fields {sorted({'kind', *fields})}"
            )
        values = {}
        for name in fields:
            value = entry[name]
            if name == "angle":
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise ValueError(f"gate {position} angle must be a number")
                try:
                    value = float(value)
                except OverflowError:  # an integer past the float range
                    raise ValueError(f"gate {position} angle must be a finite number") from None
            elif not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"gate {position} {name} must be an integer")
            values[name] = value
        gates.append(Gate(kind, **values))
    return Circuit(n_qubits, tuple(gates))
