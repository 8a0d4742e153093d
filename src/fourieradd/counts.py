"""Gate tallies and the closed-form operation counts of both adders."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .arithmetic import (
    ConstAdderSpec,
    DraperAdderSpec,
    const_adder_circuit,
    draper_inner_circuit,
)
from .circuits import CONTROLLED_PHASE, HADAMARD, PHASE, SWAP, Circuit, qft_circuit


@dataclass(frozen=True)
class GateCountReport:
    """Per-kind tallies of a circuit plus the closed-form reference figures.

    The closed forms count Hadamards, phases and controlled phases only;
    bit-reversal swaps are bookkeeping and reported separately. They take
    the report's width as the operand width N, so they hold for a transform
    or constant-adder report but not for a register-adder report, whose
    width is 2N.
    """

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
    def total(self) -> int:
        return self.hadamard + self.phase + self.controlled_phase + self.swap

    @property
    def counted_total(self) -> int:
        """Total under the headline convention: swaps excluded."""
        return self.hadamard + self.phase + self.controlled_phase

    @property
    def transform_op_count(self) -> int:
        """Closed form for one transform stage: N Hadamards plus N(N-1)/2 controlled phases."""
        return self.n_qubits * (self.n_qubits + 1) // 2

    @property
    def const_adder_op_count(self) -> int:
        """Closed form for the whole constant adder: N**2 + 2N."""
        return self.n_qubits * self.n_qubits + 2 * self.n_qubits

    @property
    def register_adder_inner_count(self) -> int:
        """Closed form for the controlled rotations between the transforms: N(N+1)/2."""
        return self.n_qubits * (self.n_qubits + 1) // 2


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
        const_report = count_gates(const_adder_circuit(ConstAdderSpec(n, 1)))
        inner_report = count_gates(draper_inner_circuit(DraperAdderSpec(n)))
        transform_report = count_gates(qft_circuit(n))
        const_ops = const_report.const_adder_op_count
        inner_ops = const_report.register_adder_inner_count
        swaps = n // 2
        if (
            const_report.counted_total != const_ops
            or inner_report.controlled_phase != inner_ops
            or inner_report.counted_total != inner_ops
            or transform_report.swap != swaps
        ):
            raise RuntimeError(f"closed-form counts diverged from constructed circuits at N={n}")
        rows.append(ComplexityRow(n, const_ops, inner_ops, swaps))
    return rows
