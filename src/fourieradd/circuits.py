"""Gate-list circuits and the transform between basis weight and phase.

A circuit is an ordered gate list over qubits 1..N. Gates apply left to
right, so the unitary of a circuit is the right-to-left product of its
gate matrices. Circuits are treated as immutable once built; helpers
like concat and inverse always return new objects.

Circuit interchange format (JSON):

    {"n": N, "gates": [{"kind": "h", "target": 1},
                       {"kind": "phase", "target": 2, "angle": 0.5},
                       {"kind": "cphase", "control": 2, "target": 1, "angle": 1.5707963267948966},
                       {"kind": "swap", "target": 1, "other": 2}]}
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .statevector import (
    StateVector,
    apply_controlled_phase,
    apply_hadamard,
    apply_phase,
    apply_swap,
)

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

# Largest state one run_on_basis batch uses, and the block size of run_circuit
# on wider states (1 MiB); read at call time, and a power of two.
BATCH_AMPLITUDES = 1 << 16
# Below three qubits a phase or controlled phase can act on one amplitude,
# which numpy multiplies on another path than the strided slice it becomes in
# a batch; the two round differently, so such circuits run one input at a time.
BATCH_MIN_QUBITS = 3


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


@dataclass
class Circuit:
    """Ordered gate list over a fixed register width."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be a positive integer, got {self.n_qubits}")
        self.gates = tuple(self.gates)
        for gate in self.gates:
            for qubit in (gate.target, gate.control, gate.other):
                if qubit is not None and qubit > self.n_qubits:
                    raise ValueError(
                        f"gate {gate} addresses qubit {qubit}, register has {self.n_qubits}"
                    )

    def __len__(self) -> int:
        return len(self.gates)


def qft_circuit(n_qubits: int) -> Circuit:
    """Circuit whose unitary is the discrete Fourier transform on basis integers.

    Construction: for each target from the most significant qubit down, one
    Hadamard followed by controlled phases of angle 2*pi/2**l from every less
    significant qubit s, where l = target - s + 1. A closing swap network
    reverses qubit order, which lines the result up with the matrix whose
    (j, k) entry is exp(2*pi*i*j*k / 2**N) / sqrt(2**N).
    """
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be a positive integer, got {n_qubits}")
    gates: list[Gate] = []
    for target in range(n_qubits, 0, -1):
        gates.append(hadamard(target))
        for source in range(target - 1, 0, -1):
            gates.append(cphase(source, target, 2.0 * math.pi / (1 << (target - source + 1))))
    for low in range(1, n_qubits // 2 + 1):
        gates.append(swap(low, n_qubits + 1 - low))
    return Circuit(n_qubits, tuple(gates))


def inverse_qft_circuit(n_qubits: int) -> Circuit:
    """The reverse transform: qft_circuit reversed with every angle negated."""
    return inverse(qft_circuit(n_qubits))


def run_circuit(circuit: Circuit, state: StateVector) -> None:
    """Apply the gates in list order, mutating the state in place.

    On a state of more than BATCH_AMPLITUDES = 2**b amplitudes, each maximal
    run of consecutive gates on qubits 1..b runs block by block: such gates
    never mix amplitudes across the aligned 2**b-amplitude blocks, so the whole
    run is applied to one cache-sized block before the next is loaded. Every
    gate still goes through its apply_* kernel, once per block, so each
    amplitude sees the same arithmetic as in a whole-state pass and the output
    is bitwise the same.
    """
    if circuit.n_qubits != state.n_qubits:
        raise ValueError(
            f"circuit is over {circuit.n_qubits} qubit(s), state has {state.n_qubits}"
        )
    block_amplitudes = BATCH_AMPLITUDES
    if state.dim <= block_amplitudes:
        _apply_gates(circuit.gates, state)
        return
    block_qubits = block_amplitudes.bit_length() - 1
    for in_block, run in groupby(circuit.gates, key=lambda gate: _top_qubit(gate) <= block_qubits):
        if not in_block:
            _apply_gates(run, state)
            continue
        run = tuple(run)
        for block in state.amplitudes.reshape(-1, block_amplitudes):
            _apply_gates(run, StateVector(block_qubits, block))


def _top_qubit(gate: Gate) -> int:
    return max(gate.target, gate.control or 0, gate.other or 0)


def _apply_gates(gates, state: StateVector) -> None:
    # the kernels are looked up by name on every call, so a patched
    # circuits.apply_* reaches every gate and every block
    for gate in gates:
        if gate.kind == HADAMARD:
            apply_hadamard(state, gate.target)
        elif gate.kind == PHASE:
            apply_phase(state, gate.target, gate.angle)
        elif gate.kind == CONTROLLED_PHASE:
            apply_controlled_phase(state, gate.control, gate.target, gate.angle)
        else:
            apply_swap(state, gate.target, gate.other)


def run_on_basis(circuit: Circuit, inputs) -> Iterator[tuple[int, np.ndarray]]:
    """Run the circuit on each basis input, yielding (start, outputs) blocks.

    Row j of outputs is the output state for inputs[start + j]. A block of
    2**k inputs runs as one state of N + k qubits whose top k qubits index
    the input; no gate touches them, so every amplitude goes through the
    same arithmetic as in a run per input and the rows are bitwise equal to
    those runs. A block holds at most BATCH_AMPLITUDES amplitudes, or a
    single input when one state is larger than that or the circuit is
    narrower than BATCH_MIN_QUBITS.
    """
    n_qubits, dim = circuit.n_qubits, 1 << circuit.n_qubits
    inputs = np.asarray(inputs, dtype=np.int64)
    if inputs.ndim != 1:
        raise ValueError(f"inputs must be a flat sequence of basis values, got shape {inputs.shape}")
    if inputs.size and not (0 <= inputs.min() and inputs.max() < dim):
        raise ValueError(f"inputs out of range: expected 0 <= value < 2**{n_qubits} = {dim}")
    widest = 0
    if n_qubits >= BATCH_MIN_QUBITS:
        widest = max(BATCH_AMPLITUDES.bit_length() - 1 - n_qubits, 0)
    start = 0
    while start < inputs.size:
        k = min(widest, (inputs.size - start).bit_length() - 1)
        rows = 1 << k
        amplitudes = np.zeros((rows, dim), dtype=np.complex128)
        amplitudes[np.arange(rows), inputs[start : start + rows]] = 1.0
        state = StateVector(n_qubits + k, amplitudes.reshape(-1))
        run_circuit(Circuit(n_qubits + k, circuit.gates), state)
        yield start, state.amplitudes.reshape(rows, dim)
        start += rows


def concat(first: Circuit, second: Circuit) -> Circuit:
    """Circuit that runs first, then second."""
    if first.n_qubits != second.n_qubits:
        raise ValueError(
            f"register sizes differ: {first.n_qubits} vs {second.n_qubits} qubits"
        )
    return Circuit(first.n_qubits, first.gates + second.gates)


def inverse(circuit: Circuit) -> Circuit:
    """Reversed gate order with negated angles; Hadamard and swap are self-inverse."""
    inverted = tuple(
        gate if gate.angle is None else Gate(gate.kind, gate.target, gate.control, gate.other, -gate.angle)
        for gate in reversed(circuit.gates)
    )
    return Circuit(circuit.n_qubits, inverted)


def shift_qubits(circuit: Circuit, offset: int, n_qubits_total: int) -> Circuit:
    """Remap a circuit onto a wider register, moving every qubit index up by offset."""
    if offset < 0:
        raise ValueError(f"offset must be >= 0, got {offset}")
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
    """Parse and validate the circuit schema."""
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
