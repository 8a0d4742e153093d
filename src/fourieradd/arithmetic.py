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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .circuits import (
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


@dataclass(frozen=True)
class ConstAdderSpec:
    """Width and addend of a register-by-constant adder.

    The constant may be any integer; it is reduced mod 2**n_qubits before
    angle synthesis, which changes every rotation by an exact multiple of
    2*pi and therefore nothing observable.
    """

    n_qubits: int
    constant: int

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be a positive integer, got {self.n_qubits}")

    @property
    def canonical_constant(self) -> int:
        return self.constant % (1 << self.n_qubits)


@dataclass(frozen=True)
class DraperAdderSpec:
    """Operand width of a register-by-register adder; total width is twice that."""

    n_qubits_per_operand: int

    def __post_init__(self) -> None:
        if self.n_qubits_per_operand < 1:
            raise ValueError(
                f"n_qubits_per_operand must be a positive integer, got {self.n_qubits_per_operand}"
            )

    @property
    def total_qubits(self) -> int:
        return 2 * self.n_qubits_per_operand


def phase_adder_circuit(spec: ConstAdderSpec) -> Circuit:
    """The N parallel rotations that add the constant in the Fourier basis.

    Exactly one phase gate per qubit: qubit t gets c * pi / 2**(N - t) with
    the whole turns taken off in integers first, pi * (c mod 2**(N-t+1)) /
    2**(N - t), so every angle is below 2*pi and rounds no worse for a large
    c. Angles that become 0 are kept; the gate count is part of the contract.
    """
    n = spec.n_qubits
    c = spec.canonical_constant
    gates = tuple(phase(t, math.pi * (c % (2 << (n - t))) / (1 << (n - t))) for t in range(1, n + 1))
    return Circuit(n, gates)


def const_adder_circuit(spec: ConstAdderSpec) -> Circuit:
    """Full adder: transform, phase stage, inverse transform."""
    n = spec.n_qubits
    return concat(qft_circuit(n), phase_adder_circuit(spec), inverse_qft_circuit(n))


def apply_const_add(state: StateVector, constant: int) -> None:
    """Add an integer to the register in place, mod 2**n_qubits.

    Negative constants subtract. This builds and runs the adder circuit;
    there is no classical shortcut behind it.
    """
    run_circuit(const_adder_circuit(ConstAdderSpec(state.n_qubits, constant)), state)


def draper_inner_circuit(spec: DraperAdderSpec) -> Circuit:
    """Controlled rotations from register a into the Fourier image of register b.

    Control s (in a) and local target t (in b) contribute angle
    2*pi * 2**(s-1) * 2**(t-1) / 2**N. Pairs with s + t > N + 1 would be
    full turns and are omitted at construction, leaving N(N+1)/2 gates.
    """
    n = spec.n_qubits_per_operand
    gates = []
    for control in range(1, n + 1):
        for local_target in range(1, n + 2 - control):
            turns = n + 2 - control - local_target  # angle is 2*pi / 2**turns
            gates.append(cphase(control, n + local_target, 2.0 * math.pi / (1 << turns)))
    return Circuit(2 * n, tuple(gates))


def draper_adder_circuit(spec: DraperAdderSpec) -> Circuit:
    """Register-by-register adder: |a, b> to |a, a + b mod 2**N>."""
    n = spec.n_qubits_per_operand
    total = 2 * n
    transform_b = shift_qubits(qft_circuit(n), n, total)
    inverse_b = shift_qubits(inverse_qft_circuit(n), n, total)
    return concat(transform_b, draper_inner_circuit(spec), inverse_b)
