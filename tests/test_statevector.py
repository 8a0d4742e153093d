import cmath
import json
import math

import numpy as np
import pytest

from fourieradd import (
    StateVector,
    apply_dense,
    apply_diagonal,
    basis_state,
    state_from_dict,
    state_to_json,
)
from fourieradd.statevector import _parts
from oracles import (
    SQRT1_2,
    _split_view,
    apply_controlled_phase,
    apply_hadamard,
    apply_phase,
    apply_swap,
    copy_state,
    fidelity,
    random_state,
    superposition_state,
)


class TestStateVector:
    @pytest.mark.parametrize(
        "amplitudes",
        [[math.nan, 0], [0, complex(0.0, math.nan)], [math.inf, 0], [0, complex(0.0, -math.inf)]],
        ids=["nan", "nan-imag", "inf", "-inf-imag"],
    )
    def test_refuses_amplitudes_that_are_not_finite(self, amplitudes):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            StateVector(1, amplitudes)


class TestBasisState:
    def test_single_qubit_zero(self):
        assert np.array_equal(basis_state(1, 0).amplitudes, [1, 0])

    def test_two_qubits_three(self):
        assert np.array_equal(basis_state(2, 3).amplitudes, [0, 0, 0, 1])

    def test_value_out_of_range_names_bound(self):
        with pytest.raises(ValueError, match=r"0 <= value < 2\*\*3 = 8"):
            basis_state(3, 8)

    def test_negative_value(self):
        with pytest.raises(ValueError):
            basis_state(2, -1)

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            basis_state(0, 0)


class TestSuperpositionState:
    def test_two_terms(self):
        state = superposition_state(2, [(1, SQRT1_2), (2, SQRT1_2)])
        # weights are stored exactly as given
        assert state.amplitudes[1] == SQRT1_2
        assert state.amplitudes[2] == SQRT1_2
        assert state.amplitudes[0] == 0 and state.amplitudes[3] == 0

    def test_single_term_matches_basis_state(self):
        state = superposition_state(3, [(5, 1.0)])
        assert np.array_equal(state.amplitudes, basis_state(3, 5).amplitudes)

    def test_complex_weights(self):
        state = superposition_state(1, [(0, 0.6), (1, 0.8j)])
        assert state.amplitudes[1] == 0.8j

    def test_norm_error_reports_norm(self):
        with pytest.raises(ValueError, match=r"1\.17"):
            superposition_state(2, [(0, 0.6), (3, 0.9)])

    def test_duplicate_value_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            superposition_state(2, [(1, SQRT1_2), (1, SQRT1_2)])

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            superposition_state(1, [(2, 1.0)])

    @pytest.mark.parametrize("weight", [math.nan, complex(math.nan, 0.0), complex(0.0, math.inf)])
    def test_non_finite_weight_rejected(self, weight):
        # a NaN norm must not slip past the normalization check
        with pytest.raises(ValueError, match="not normalized"):
            superposition_state(2, [(0, weight)])


class TestHadamard:
    def test_on_zero(self):
        state = basis_state(1, 0)
        apply_hadamard(state, 1)
        np.testing.assert_allclose(state.amplitudes, [SQRT1_2, SQRT1_2], atol=1e-15)

    def test_on_one_gives_minus(self):
        state = basis_state(1, 1)
        apply_hadamard(state, 1)
        np.testing.assert_allclose(state.amplitudes, [SQRT1_2, -SQRT1_2], atol=1e-15)

    def test_acts_on_named_qubit_only(self):
        # |10> has qubit 2 set; a Hadamard on qubit 1 spreads over indices 2 and 3
        state = basis_state(2, 2)
        apply_hadamard(state, 1)
        np.testing.assert_allclose(state.amplitudes, [0, 0, SQRT1_2, SQRT1_2], atol=1e-15)

    def test_twice_is_identity(self):
        state = random_state(4, seed=11)
        before = state.amplitudes.copy()
        apply_hadamard(state, 3)
        apply_hadamard(state, 3)
        assert np.max(np.abs(state.amplitudes - before)) < 1e-12

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[1, 2\]"):
            apply_hadamard(basis_state(2, 0), 3)


class TestPhase:
    def test_pi_flips_sign_of_set_bit(self):
        state = basis_state(1, 1)
        apply_phase(state, 1, math.pi)
        np.testing.assert_allclose(state.amplitudes, [0, -1], atol=1e-15)

    def test_leaves_clear_bit_alone(self):
        state = basis_state(1, 0)
        apply_phase(state, 1, 1.234)
        assert state.amplitudes[0] == 1.0

    def test_quarter_turn(self):
        state = superposition_state(1, [(0, SQRT1_2), (1, SQRT1_2)])
        apply_phase(state, 1, math.pi / 2)
        np.testing.assert_allclose(state.amplitudes, [SQRT1_2, SQRT1_2 * 1j], atol=1e-15)

    def test_touches_exactly_the_set_bit_stratum(self):
        state = random_state(5, seed=7)
        before = state.amplitudes.copy()
        target = 3
        apply_phase(state, target, 0.77)
        mask = (np.arange(32) >> (target - 1)) & 1
        # untouched amplitudes are bitwise identical, touched ones all moved
        assert np.array_equal(state.amplitudes[mask == 0], before[mask == 0])
        assert np.all(state.amplitudes[mask == 1] != before[mask == 1])

    def test_rejects_non_finite_angle(self):
        with pytest.raises(ValueError):
            apply_phase(basis_state(1, 0), 1, math.inf)


class TestControlledPhase:
    def test_acts_only_when_both_bits_set(self):
        state = basis_state(2, 3)
        apply_controlled_phase(state, 1, 2, math.pi)
        np.testing.assert_allclose(state.amplitudes, [0, 0, 0, -1], atol=1e-15)

    def test_skips_control_clear(self):
        state = basis_state(2, 2)  # target bit set, control bit clear
        apply_controlled_phase(state, 1, 2, math.pi)
        assert state.amplitudes[2] == 1.0

    def test_symmetric_in_control_and_target(self):
        base = random_state(4, seed=3)
        one, two = copy_state(base), copy_state(base)
        apply_controlled_phase(one, 2, 4, 0.9)
        apply_controlled_phase(two, 4, 2, 0.9)
        assert np.array_equal(one.amplitudes, two.amplitudes)

    def test_control_equals_target_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            apply_controlled_phase(basis_state(2, 0), 1, 1, 0.5)

    def test_control_out_of_range(self):
        with pytest.raises(ValueError, match="control"):
            apply_controlled_phase(basis_state(2, 0), 5, 1, 0.5)


def reference_hadamard(amplitudes, target):
    """The Hadamard as first written: both halves copied, then two formulas assigned back."""
    view = amplitudes.reshape(-1, 2, 1 << (target - 1))
    clear = view[:, 0, :].copy()
    set_ = view[:, 1, :].copy()
    view[:, 0, :] = (clear + set_) * SQRT1_2
    view[:, 1, :] = (clear - set_) * SQRT1_2


def reference_phase(amplitudes, target, theta):
    amplitudes.reshape(-1, 2, 1 << (target - 1))[:, 1, :] *= cmath.exp(1j * theta)


def reference_controlled_phase(amplitudes, control, target, theta):
    lo, hi = sorted((control, target))
    view = amplitudes.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << (lo - 1))
    view[:, 1, :, 1, :] *= cmath.exp(1j * theta)


def awkward_amplitudes(n_qubits, seed):
    """Seeded random amplitudes with exact zeros of both signs in either part and one NaN amplitude."""
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((1 << n_qubits, 2))
    parts[rng.random(parts.shape) < 0.1] = 0.0
    parts[rng.random(parts.shape) < 0.1] = -0.0
    parts[rng.integers(1 << n_qubits)] = np.nan
    return parts.view(np.complex128).reshape(-1)


def assert_kernel_matches_reference(n_qubits, seed, kernel, reference, *args):
    # compared as integers, so the sign of a zero and the bits of a NaN count too
    expected = awkward_amplitudes(n_qubits, seed)
    state = StateVector(n_qubits, np.zeros_like(expected))
    state.amplitudes[:] = expected  # after construction, which refuses the NaN
    reference(expected, *args)
    kernel(state, *args)
    assert np.array_equal(state.amplitudes.view(np.uint64), expected.view(np.uint64)), args


# n = 16 runs targets whose last axis is split (1..4) and targets whose axis is not
KERNEL_TARGETS = {**{n: range(1, n + 1) for n in range(1, 10)}, 16: [*range(1, 6), *range(12, 17)]}


class TestKernelsAgainstTheFirstFormulas:
    @pytest.mark.parametrize("n", KERNEL_TARGETS)
    def test_hadamard(self, n):
        for target in KERNEL_TARGETS[n]:
            assert_kernel_matches_reference(n, target, apply_hadamard, reference_hadamard, target)

    @pytest.mark.parametrize("n", KERNEL_TARGETS)
    def test_phase(self, n):
        rng = np.random.default_rng(n)
        for target in KERNEL_TARGETS[n]:
            theta = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
            assert_kernel_matches_reference(n, target, apply_phase, reference_phase, target, theta)

    @pytest.mark.parametrize("n", KERNEL_TARGETS)
    def test_controlled_phase(self, n):
        rng = np.random.default_rng(100 + n)
        targets = KERNEL_TARGETS[n]
        for control in targets:
            for target in targets:
                if control != target:
                    theta = float(rng.uniform(-2.0 * math.pi, 2.0 * math.pi))
                    assert_kernel_matches_reference(
                        n, control, apply_controlled_phase, reference_controlled_phase, control, target, theta
                    )

    def test_short_last_axes_split_only_in_views_large_enough(self):
        amplitudes = np.zeros(1 << 16, dtype=np.complex128)
        # targets 1..4 have last axes of 1..8 and lose them; from 16 up the view stays whole
        shapes = [[part.shape for part in _parts(_split_view(amplitudes, target))] for target in range(1, 7)]
        assert shapes == [[(1 << 15, 2)], [(1 << 14, 2)] * 2, [(1 << 13, 2)] * 4, [(1 << 12, 2)] * 8,
                          [(1 << 11, 2, 16)], [(1 << 10, 2, 32)]]
        # 2**7 amplitudes hold 16 times a last axis of 8, 2**6 do not
        assert len(_parts(_split_view(amplitudes[: 1 << 7], 4))) == 8
        assert len(_parts(_split_view(amplitudes[: 1 << 6], 4))) == 1


def reference_diagonal(amplitudes, factors, low, control):
    """The diagonal as first written: each amplitude's factor and control bit read off its index."""
    index = np.arange(amplitudes.size)
    chosen = np.ones(amplitudes.size, dtype=bool) if control is None else (index >> (control - 1)) & 1 == 1
    amplitudes[chosen] *= factors[(index[chosen] >> (low - 1)) & (factors.size - 1)]


class TestDiagonal:
    @pytest.mark.parametrize("n", [1, 3, 6, 10])
    def test_every_span_and_control_matches_the_first_formula(self, n):
        # 10 qubits also take the split paths: views of 2**10 amplitudes over short last axes;
        # a control among the factor qubits is refused
        rng = np.random.default_rng(n)
        for low in range(1, n + 1):
            for span in range(0, n - low + 2):
                factors = np.exp(1j * rng.uniform(-math.pi, math.pi, 1 << span))
                for control in (None, *range(1, n + 1)):
                    if control is not None and low <= control < low + span:
                        with pytest.raises(ValueError, match="among the factor qubits"):
                            apply_diagonal(basis_state(n, 0), factors, low, control)
                        continue
                    assert_kernel_matches_reference(
                        n, low, apply_diagonal, reference_diagonal, factors, low, control
                    )

    def test_a_control_among_the_factor_qubits_is_refused(self):
        state = basis_state(2, 0b10)
        with pytest.raises(ValueError, match=r"control qubit 2 lies among the factor qubits 1\.\.2"):
            apply_diagonal(state, np.array([2.0, 3.0, 5.0, 7.0]), 1, control=2)
        assert np.array_equal(state.amplitudes, [0, 0, 1.0, 0])

    @pytest.mark.parametrize(
        "factors, low, control",
        [
            (np.ones(3), 1, None),
            (np.ones((2, 2)), 1, None),
            (np.ones(8), 2, None),
            (np.ones(2), 0, None),
            (np.ones(2), 1, 4),
            (np.ones(1), 4, None),
        ],
    )
    def test_rejects_bad_arguments(self, factors, low, control):
        with pytest.raises(ValueError):
            apply_diagonal(basis_state(3, 0), factors, low, control)


class TestDense:
    def test_writes_through_the_given_scratch_and_back(self):
        # the matrix on qubits 2..3 sends value k to k + 1 mod 4
        state = basis_state(3, 0b011)
        scratch = np.full(8, np.nan, dtype=np.complex128)
        apply_dense(state, np.roll(np.eye(4), 1, axis=0), 2, scratch)
        assert np.array_equal(state.amplitudes, basis_state(3, 0b101).amplitudes)
        assert np.array_equal(scratch, state.amplitudes)

    @pytest.mark.parametrize(
        "matrix, low, out",
        [
            (np.eye(1), 1, None),
            (np.eye(3), 1, None),
            (np.ones((2, 4)), 1, None),
            (np.ones(4), 1, None),
            (np.eye(4), 0, None),
            (np.eye(4), 3, None),
            (np.eye(2), 1, np.empty(4, dtype=np.complex128)),
        ],
    )
    def test_rejects_bad_arguments(self, matrix, low, out):
        # out None stands for a well-formed out of the state's 8 amplitudes
        with pytest.raises(ValueError):
            apply_dense(basis_state(3, 0), matrix, low, np.empty(8, dtype=np.complex128) if out is None else out)

    @pytest.mark.parametrize("low", [2, 4])
    def test_parts_sharing_one_out_give_the_whole_product_bitwise(self, low):
        # the parts cut the values of the qubits below low, each a multiple of 4 of them
        matrix = random_state(6, seed=low).amplitudes.reshape(8, 8)
        whole = random_state(12, seed=12)
        parts = copy_state(whole)
        apply_dense(whole, matrix, low, np.empty(1 << 12, dtype=np.complex128))
        out = np.full(1 << 12, np.nan, dtype=np.complex128)
        below = 1 << (low - 1)
        for start in range(0, below, 4):
            apply_dense(parts, matrix, low, out, slice(start, start + 4))
        assert np.array_equal(parts.amplitudes, whole.amplitudes)

    def test_a_part_leaves_the_other_amplitudes_alone(self):
        state = random_state(8, seed=8)
        before = state.amplitudes.copy()
        apply_dense(state, np.eye(4)[::-1], 4, np.empty(1 << 8, dtype=np.complex128), slice(2, 6))
        lower = np.arange(1 << 8) % 8
        outside = (lower < 2) | (lower >= 6)
        assert np.array_equal(state.amplitudes[outside], before[outside])
        assert not np.array_equal(state.amplitudes[~outside], before[~outside])


class TestSwap:
    def test_exchanges_bits(self):
        state = basis_state(2, 1)
        apply_swap(state, 1, 2)
        assert np.array_equal(state.amplitudes, basis_state(2, 2).amplitudes)

    def test_fixed_point_when_bits_equal(self):
        state = basis_state(2, 3)
        apply_swap(state, 1, 2)
        assert state.amplitudes[3] == 1.0

    def test_distant_qubits(self):
        state = basis_state(3, 4)
        apply_swap(state, 1, 3)
        assert np.array_equal(state.amplitudes, basis_state(3, 1).amplitudes)

    def test_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            apply_swap(basis_state(2, 0), 2, 2)


class TestFidelity:
    def test_identical_states(self):
        assert fidelity(basis_state(3, 5), basis_state(3, 5)) == 1.0

    def test_orthogonal_states(self):
        assert fidelity(basis_state(3, 5), basis_state(3, 6)) == 0.0

    def test_half_overlap(self):
        plus = superposition_state(1, [(0, SQRT1_2), (1, SQRT1_2)])
        assert abs(fidelity(basis_state(1, 0), plus) - 0.5) < 1e-15

    def test_stays_in_unit_range(self):
        for seed in range(10):
            state = random_state(3, seed)
            value = fidelity(state, state)
            assert 0.0 <= value <= 1.0 + 1e-12

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            fidelity(basis_state(2, 0), basis_state(3, 0))


def test_norm_preserved_under_long_random_sequence():
    rng = np.random.default_rng(99)
    state = random_state(12, seed=5)
    for _ in range(60):
        kind = rng.integers(0, 4)
        target = int(rng.integers(1, 13))
        second = int(rng.integers(1, 12))
        second = second if second < target else second + 1
        if kind == 0:
            apply_hadamard(state, target)
        elif kind == 1:
            apply_phase(state, target, float(rng.uniform(-6, 6)))
        elif kind == 2:
            apply_controlled_phase(state, second, target, float(rng.uniform(-6, 6)))
        else:
            apply_swap(state, target, second)
    assert abs(state.norm_sq() - 1.0) < 1e-10
    assert np.all(np.isfinite(state.amplitudes.real))
    assert np.all(np.isfinite(state.amplitudes.imag))


class TestStateVectorType:
    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="2\\*\\*2"):
            StateVector(2, np.zeros(3, dtype=np.complex128))

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            StateVector(0, np.zeros(1, dtype=np.complex128))

    def test_copy_is_independent(self):
        state = basis_state(2, 1)
        clone = copy_state(state)
        apply_swap(state, 1, 2)
        assert clone.amplitudes[1] == 1.0


def document(state):
    """The state document as a dict of plain floats, for json.dumps."""
    return {"n": state.n_qubits, "amplitudes": [[z.real, z.imag] for z in state.amplitudes.tolist()]}


class TestStateJson:
    def test_round_trip_is_bitwise(self):
        state = random_state(3, seed=21)
        back = state_from_dict(json.loads("".join(state_to_json(state))))
        assert back.n_qubits == 3
        assert np.array_equal(back.amplitudes, state.amplitudes)

    def test_shape_of_document(self):
        assert "".join(state_to_json(basis_state(1, 1))) == '{"n": 1, "amplitudes": [[0.0, 0.0], [1.0, 0.0]]}'

    @pytest.mark.parametrize("n, seed", [(1, 1), (5, 2), (12, 3)])
    def test_bytes_equal_json_dumps_of_the_document(self, n, seed):
        state = random_state(n, seed=seed)
        assert "".join(state_to_json(state)) == json.dumps(document(state))

    def test_bytes_equal_json_dumps_at_the_edges_of_float_repr(self):
        # a negative zero, the smallest subnormal, and the exponents where repr turns to e-notation
        parts = np.array([-0.0, 5e-324, 1e-5, 1e16, 1e-4, 1e15, -2.5e-308, 1.7976931348623157e308])
        state = StateVector(2, parts.view(np.complex128))
        text = "".join(state_to_json(state))
        assert text == json.dumps(document(state))
        assert np.array_equal(np.array(json.loads(text)["amplitudes"]).reshape(-1), parts)

    @pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(0.0, math.inf), complex(-math.inf, 1.0)])
    def test_refuses_the_first_non_finite_amplitude(self, bad):
        state = random_state(4, seed=4)
        state.amplitudes[[5, 9]] = bad
        with pytest.raises(ValueError, match="^amplitude 5 is not finite$"):
            state_to_json(state)

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(ValueError, match="entries"):
            state_from_dict({"n": 2, "amplitudes": [[1.0, 0.0]]})

    @pytest.mark.parametrize("n", [64, 10**6])
    def test_rejects_wrong_entry_count_at_a_huge_width(self, n):
        with pytest.raises(ValueError, match=rf'"amplitudes" must be a list of 2\*\*{n} entries'):
            state_from_dict({"n": n, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]})

    def test_rejects_non_normalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            state_from_dict({"n": 1, "amplitudes": [[0.5, 0.0], [0.5, 0.0]]})

    def test_rejects_bad_pair(self):
        with pytest.raises(ValueError, match="pair"):
            state_from_dict({"n": 1, "amplitudes": [[1.0], [0.0, 0.0]]})

    def test_rejects_missing_field(self):
        with pytest.raises(ValueError, match="fields"):
            state_from_dict({"amplitudes": [[1.0, 0.0], [0.0, 0.0]]})

    def test_rejects_extra_field(self):
        with pytest.raises(ValueError, match="fields"):
            state_from_dict({"n": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]], "note": 1})

    @pytest.mark.parametrize("entry", [[10**400, 0], [0, -(10**400)]])
    def test_rejects_integer_past_the_float_range(self, entry):
        with pytest.raises(ValueError, match="amplitude 0 is not finite"):
            state_from_dict({"n": 1, "amplitudes": [entry, [0, 0]]})

    @pytest.mark.parametrize("entry", [[True, 0.0], ["1", 0.0], [1.0, 0.0, 0.0], None, {"re": 1.0}, [[1.0], 0.0]])
    def test_rejects_malformed_entry(self, entry):
        with pytest.raises(ValueError, match="amplitude 1 must be a"):
            state_from_dict({"n": 1, "amplitudes": [[1.0, 0.0], entry]})

    def test_accepts_tuples_and_numpy_floats(self):
        state = state_from_dict({"n": 1, "amplitudes": [(0.0, np.float64(-0.0)), [1, np.float64(0.0)]]})
        expected = np.array([0.0, -0.0, 1.0, 0.0])
        assert np.array_equal(state.amplitudes.view(np.float64), expected)
        assert np.signbit(state.amplitudes.view(np.float64)).tolist() == np.signbit(expected).tolist()

    @pytest.mark.parametrize("non_finite", [math.nan, -math.inf, 10**400], ids=["nan", "-inf", "10**400"])
    @pytest.mark.parametrize("first", ["non-finite", "malformed"])
    def test_names_the_first_bad_entry(self, first, non_finite):
        amplitudes = [[0.0, 0.0] for _ in range(8)]
        amplitudes[0] = [1.0, 0.0]
        bad = {"non-finite": [0.0, non_finite], "malformed": [0.0]}
        later = "malformed" if first == "non-finite" else "non-finite"
        amplitudes[3], amplitudes[5] = bad[first], bad[later]
        message = "amplitude 3 is not finite" if first == "non-finite" else r"amplitude 3 must be a \[re, im\] pair"
        with pytest.raises(ValueError, match=message):
            state_from_dict({"n": 3, "amplitudes": amplitudes})
