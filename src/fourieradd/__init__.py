"""Statevector simulation with Fourier-basis integer adders and a dense verification layer."""

from .statevector import (
    DEFAULT_TOL,
    StateVector,
    apply_dense,
    apply_diagonal,
    basis_state,
    state_from_dict,
    state_to_json,
)
from .circuits import (
    BATCH_AMPLITUDES,
    Circuit,
    Gate,
    circuit_from_dict,
    circuit_to_dict,
    concat,
    cphase,
    hadamard,
    inverse,
    inverse_qft_circuit,
    phase,
    qft_circuit,
    run_circuit,
    run_on_basis,
    shift_qubits,
    swap,
)
from .arithmetic import (
    ComplexityRow,
    GateCountReport,
    apply_const_add,
    complexity_table,
    const_adder_circuit,
    count_gates,
    draper_adder_circuit,
    draper_inner_circuit,
    phase_adder_circuit,
)
from .dense import circuit_to_matrix, phase_adder_equivalence_errors
from .verify import (
    CheckReport,
    run_suite,
    verify_const_adder,
    verify_draper,
    verify_equivalence,
    verify_modularity,
)

__version__ = "0.1.0"
