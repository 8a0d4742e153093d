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
    through apply_dense and apply_diagonal, and the other diagonal gates
    become phase-vector multiplies. With BATCH_AMPLITUDES = 2**b, every step
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
    """Consecutive diagonal gates as one step over positions (relabelled qubits).

    Each term (qubit, angle) multiplies by exp(i*angle) the amplitudes whose
    qubit and shared bits are set; a term with qubit None needs only shared
    set. Without a shared qubit every term is a single-qubit phase.
    """

    shared: int | None
    terms: tuple[tuple[int | None, float], ...]


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
    its positions lie inside the window, and otherwise becomes a _Diagonal:
    ahead of the open cluster if the cluster holds no Hadamard on that
    position (they commute), after it, closed, if it does. A closing cluster
    takes in every waiting diagonal gate inside its window.
    """
    where = list(range(circuit.n_qubits + offset + 1))
    steps: list = []
    cluster: list[tuple[tuple[int, ...], float | None]] = []  # the open cluster's gates, in order
    hadamards: set[int] = set()  # the positions of its Hadamards
    waiting: list[tuple[tuple[int, ...], float]] = []  # diagonal gates not yet placed

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
            steps.extend(_group_diagonals(outside))
            cluster.append(((position,), None))
            hadamards.add(position)
        elif gate.kind == PHASE:
            waiting.append(((where[gate.target + offset],), gate.angle))
        else:
            waiting.append(((where[gate.control + offset], where[gate.target + offset]), gate.angle))
    close()
    steps.extend(_group_diagonals(waiting))
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


def _group_diagonals(run) -> list[_Diagonal]:
    """Split a run of diagonal gates into steps that share one qubit or are all single-qubit phases.

    A step's shared qubit is the one its first gate has in common with the
    next gate, so the register adder's rotations group by control.
    """
    steps = []
    start = 0
    while start < len(run):
        qubits = run[start][0]
        following = run[start + 1][0] if start + 1 < len(run) else ()
        if len(qubits) == 1 and len(following) != 2:
            shared = None
            stop = start + 1
            while stop < len(run) and len(run[stop][0]) == 1:
                stop += 1
        else:
            shared = next((qubit for qubit in qubits if qubit in following), max(qubits))
            stop = start + 1
            while stop < len(run) and shared in run[stop][0]:
                stop += 1
        terms = tuple(
            (next((qubit for qubit in gate_qubits if qubit != shared), None), angle)
            for gate_qubits, angle in run[start:stop]
        )
        steps.append(_Diagonal(shared, terms))
        start = stop
    return steps


@dataclass(frozen=True)
class _Multiply:
    """A _Diagonal as apply_diagonal arguments for each block of the state.

    factors covers the block's positions low..low+K-1; control is the shared
    position when it lies in the block; scales[i] is what the positions above
    the block contribute in block i, or None where the step leaves block i
    alone.
    """

    factors: np.ndarray
    low: int
    control: int | None
    scales: list


def _multiply(step: _Diagonal, n_qubits: int, block_qubits: int) -> _Multiply:
    constant = 1.0 + 0.0j
    inside: dict[int, complex] = {}
    above: dict[int, complex] = {}
    for qubit, angle in step.terms:
        rotation = cmath.exp(1j * angle)
        if qubit is None:
            constant *= rotation
        elif qubit <= block_qubits:
            inside[qubit] = inside.get(qubit, 1.0) * rotation
        else:
            above[qubit - block_qubits] = above.get(qubit - block_qubits, 1.0) * rotation
    shared = step.shared
    control = shared if shared is not None and shared <= block_qubits else None
    low, top = (min(inside), max(inside)) if inside else (1, 0)
    factors = _phase_vector(inside, low, top, constant)
    scales = _phase_vector(above, 1, n_qubits - block_qubits, 1.0).tolist()
    if shared is not None and shared > block_qubits:
        bit = shared - block_qubits - 1
        scales = [scale if index >> bit & 1 else None for index, scale in enumerate(scales)]
    return _Multiply(factors, low, control, scales)


def _phase_vector(rotations: dict[int, complex], low: int, top: int, first: complex) -> np.ndarray:
    """Entry k: first times the rotation of every position low + j whose bit j of k is set."""
    vector = np.empty(1 << (top - low + 1), dtype=np.complex128)
    vector[0] = first
    for offset, position in enumerate(range(low, top + 1)):
        half = 1 << offset
        np.multiply(vector[:half], rotations.get(position, 1.0), out=vector[half : 2 * half])
    return vector


def _run_plan(steps: list, state: StateVector, block_qubits: int) -> None:
    """Run the steps, block by block between dense steps that reach above the block.

    The phase vectors of a stretch add up to at most one block of amplitudes:
    a step that would pass that starts a new stretch. The blocks are wrapped
    as states once, before any step runs, and not checked for finiteness
    again. A dense step above the block runs over the whole state, into a
    state-sized output of its own, one apply_dense call per range of the
    values of the qubits below its window. The block runs of a stretch and
    those ranges are shared among _workers() threads (see _run_parallel).
    """
    blocks = [_view(block_qubits, block) for block in state.amplitudes.reshape(-1, 1 << block_qubits)]
    stretch: list = []
    held = 0
    for step in steps:
        if isinstance(step, _Dense) and step.top > block_qubits:
            _run_blocked(stretch, blocks)
            stretch, held = [], 0
            _run_above(state, step)
            continue
        if isinstance(step, _Diagonal):
            step = _multiply(step, state.n_qubits, block_qubits)
            if held + step.factors.size > 1 << block_qubits:
                _run_blocked(stretch, blocks)
                stretch, held = [], 0
            held += step.factors.size
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
    """Run the stretch over the blocks: one contiguous run of blocks per worker, each with its own scratch."""
    if not stretch:
        return
    block = blocks[0].amplitudes
    jobs = [partial(_run_blocks, stretch, blocks, part, np.empty_like(block)) for part in _split(len(blocks))]
    _run_parallel(jobs)


def _run_blocks(stretch: list, blocks: list[StateVector], part: slice, scratch: np.ndarray) -> None:
    for index in range(part.start, part.stop):
        block_state = blocks[index]
        for step in stretch:
            if isinstance(step, _Dense):
                apply_dense(block_state, step.matrix, step.low, scratch)
                continue
            scale = step.scales[index]
            if scale is not None:
                factors = step.factors if scale == 1.0 else step.factors * scale
                apply_diagonal(block_state, factors, step.low, step.control)


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
    """Circuit that runs the given circuits one after another."""
    for circuit in rest:
        if circuit.n_qubits != first.n_qubits:
            raise ValueError(
                f"register sizes differ: {first.n_qubits} vs {circuit.n_qubits} qubits"
            )
    return Circuit(first.n_qubits, first.gates + tuple(chain.from_iterable(c.gates for c in rest)))


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
