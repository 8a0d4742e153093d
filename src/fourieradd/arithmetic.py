"""Integer adders built from phase rotations in the Fourier basis.

Constant adder: transform, N single-qubit rotations, inverse transform.
After the transform, basis value j lives entirely in phases; the rotation
on qubit t has angle c * pi / 2**(N - t) up to whole turns, and since
qubit t carries basis weight 2**(t - 1) the register as a whole picks up
exp(2*pi*i*c*j / 2**N), which the inverse transform turns back into the
shifted basis state |j + c mod 2**N>.

Register adder: the same idea with the rotations controlled by the qubits
of a second register, mapping |a, b> to |a, a + b mod 2**N>. Register a
occupies qubits 1..N (low bits of the joint index), register b occupies
qubits N+1..2N.

Every builder takes the operand width n as a plain integer and refuses a
width below 1. Gate tallies and the closed-form operation counts of both
adders sit beside the builders they count.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .circuits import (
    CONTROLLED_PHASE,
    HADAMARD,
    PHASE,
    SWAP,
    Circuit,
    concat,
    cphase,
    inverse_qft_circuit,
    phase,
    qft_circuit,
    run_circuit,
    shift_qubits,
)
from .statevector import StateVector


def _require_width(n: int) -> None:
    if n < 1:
        raise ValueError(f"operand width must be a positive integer, got {n}")


def phase_adder_circuit(n: int, c: int) -> Circuit:
    """The N parallel rotations that add the constant c in the Fourier basis.

    c may be any integer; it is reduced mod 2**n here, once, which changes
    every rotation by an exact multiple of 2*pi and therefore nothing
    observable. Exactly one phase gate per qubit: qubit t gets
    c * pi / 2**(N - t) with the whole turns taken off in integers first,
    pi * (c mod 2**(N-t+1)) / 2**(N - t), so every angle is below 2*pi and
    rounds no worse for a large c. Angles that become 0 are kept; the gate
    count is part of the contract.
    """
    _require_width(n)
    c %= 1 << n
    gates = tuple(phase(t, math.pi * (c % (2 << (n - t))) / (1 << (n - t))) for t in range(1, n + 1))
    return Circuit(n, gates)


def const_adder_circuit(n: int, c: int) -> Circuit:
    """Full adder: transform, phase stage, inverse transform; qft_circuit refuses a width below 1."""
    return concat(qft_circuit(n), phase_adder_circuit(n, c), inverse_qft_circuit(n))


def apply_const_add(state: StateVector, constant: int) -> None:
    """Add an integer to the register in place, mod 2**n_qubits.

    Negative constants subtract. This builds and runs the adder circuit;
    there is no classical shortcut behind it.
    """
    run_circuit(const_adder_circuit(state.n_qubits, constant), state)


def draper_inner_circuit(n: int) -> Circuit:
    """Controlled rotations from register a into the Fourier image of register b.

    Control s (in a) and local target t (in b) contribute angle
    2*pi * 2**(s-1) * 2**(t-1) / 2**N. Pairs with s + t > N + 1 would be
    full turns and are omitted at construction, leaving N(N+1)/2 gates over
    2N qubits.
    """
    _require_width(n)
    gates = []
    for control in range(1, n + 1):
        for local_target in range(1, n + 2 - control):
            turns = n + 2 - control - local_target  # angle is 2*pi / 2**turns
            gates.append(cphase(control, n + local_target, 2.0 * math.pi / (1 << turns)))
    return Circuit(2 * n, tuple(gates))


def draper_adder_circuit(n: int) -> Circuit:
    """Register adder on 2n qubits, |a, b> to |a, a + b mod 2**N>; qft_circuit refuses n < 1."""
    total = 2 * n
    transform_b = shift_qubits(qft_circuit(n), n, total)
    inverse_b = shift_qubits(inverse_qft_circuit(n), n, total)
    return concat(transform_b, draper_inner_circuit(n), inverse_b)


@dataclass(frozen=True)
class GateCountReport:
    """Per-kind tallies of a circuit."""

    n_qubits: int
    hadamard: int
    phase: int
    controlled_phase: int
    swap: int

    def __post_init__(self) -> None:
        for label in ("hadamard", "phase", "controlled_phase", "swap"):
            if getattr(self, label) < 0:
                raise ValueError(f"{label} count must be >= 0")

    @property
    def counted_total(self) -> int:
        """Total under the headline convention: bit-reversal swaps are bookkeeping and excluded."""
        return self.hadamard + self.phase + self.controlled_phase


def count_gates(circuit: Circuit) -> GateCountReport:
    """Exact per-kind tallies of a circuit."""
    kinds = Counter(gate.kind for gate in circuit.gates)
    return GateCountReport(
        circuit.n_qubits, kinds[HADAMARD], kinds[PHASE], kinds[CONTROLLED_PHASE], kinds[SWAP]
    )


@dataclass(frozen=True)
class ComplexityRow:
    """One width in the operation-count comparison of the two adders."""

    n_qubits: int
    const_adder_ops: int  # N**2 + 2N: transform + N rotations + inverse transform
    register_adder_inner_ops: int  # N(N+1)/2 controlled rotations between the transforms
    swaps_per_transform: int  # floor(N/2) bit-reversal swaps, excluded from the headline counts


def complexity_table(n_max: int) -> list[ComplexityRow]:
    """Closed-form counts for widths 1..n_max, cross-checked against built circuits."""
    if n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max}")
    rows = []
    for n in range(1, n_max + 1):
        row = ComplexityRow(n, n * n + 2 * n, n * (n + 1) // 2, n // 2)
        const_report = count_gates(const_adder_circuit(n, 1))
        inner_report = count_gates(draper_inner_circuit(n))
        if (
            const_report.counted_total != row.const_adder_ops
            or inner_report.controlled_phase != row.register_adder_inner_ops
            or inner_report.counted_total != row.register_adder_inner_ops
            or count_gates(qft_circuit(n)).swap != row.swaps_per_transform
        ):
            raise RuntimeError(f"closed-form counts diverged from constructed circuits at N={n}")
        rows.append(row)
    return rows
