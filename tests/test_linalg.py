"""Dense linear-algebra layer: tensor products, states, phase equality."""

import itertools

import numpy as np
import pytest

from adqc.linalg import (
    CZ,
    H,
    I2,
    X,
    Y,
    Z,
    PureState,
    _pauli_table,
    apply_op,
    apply_pauli_frame,
    embed,
    equal_up_to_global_phase,
    fit_scale,
    phase_invariant_error,
    tensor,
)


def random_unitary(n, rng):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


class TestTensor:
    def test_identity_case(self):
        np.testing.assert_allclose(tensor(I2, I2), np.eye(4), atol=1e-15)

    def test_xx_antidiagonal(self):
        got = tensor(X, X)
        np.testing.assert_allclose(got, np.fliplr(np.eye(4)), atol=1e-15)

    def test_hh_entries(self):
        got = tensor(H, H)
        assert np.allclose(np.abs(got), 0.5, atol=1e-15)

    def test_associativity_on_integer_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c = (rng.integers(-3, 4, size=(2, 2)).astype(complex) for _ in range(3))
            left = tensor(tensor(a, b), c)
            right = tensor(a, tensor(b, c))
            assert np.array_equal(left, right)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            tensor(I2, I2, I2, I2, I2, I2)


class TestGlobalPhaseEquality:
    def test_explicit_phase(self):
        assert equal_up_to_global_phase(X, 1j * X, 1e-12)

    def test_orthogonal_paulis(self):
        assert not equal_up_to_global_phase(X, Z, 1e-12)

    def test_tolerance_bounds_the_two_norm(self):
        """Every entry is off by 0.6 tol, so the entrywise max is inside tol
        but the 2-norm over the four entries (1.2 tol) is not."""
        off = X + 0.6e-10 * np.ones((2, 2))
        assert not equal_up_to_global_phase(off, X, 1e-10)
        assert equal_up_to_global_phase(off, X, 1.3e-10)

    def test_zero_matrix_handling(self):
        zero = np.zeros((2, 2))
        assert equal_up_to_global_phase(zero, zero)
        assert not equal_up_to_global_phase(X, zero)

    def test_equivalence_relation_on_unitaries(self):
        rng = np.random.default_rng(5)
        us = [random_unitary(2, rng) for _ in range(6)]
        phases = [np.exp(1j * rng.uniform(0, 2 * np.pi)) for _ in range(6)]
        for u, c in zip(us, phases):
            assert equal_up_to_global_phase(u, u, 1e-10)           # reflexive
            assert equal_up_to_global_phase(c * u, u, 1e-10)       # symmetric pair
            assert equal_up_to_global_phase(u, c * u, 1e-10)
        # transitivity on a chain
        u = us[0]
        a, b = phases[0] * u, phases[1] * phases[0] * u
        assert equal_up_to_global_phase(u, a, 1e-10)
        assert equal_up_to_global_phase(a, b, 1e-10)
        assert equal_up_to_global_phase(u, b, 1e-10)


def _fit_one(a, b, floor=0.0):
    """``fit_scale`` of two matrices flattened to one row each."""
    c, residual, fitted = fit_scale(np.reshape(a, (1, -1)), np.reshape(b, (1, -1)), floor)
    return c[0], residual[0], fitted[0]


class TestProportionality:
    def test_scale_and_residual(self):
        c, residual, _ = _fit_one(2j * X + 1e-3 * Z, X)
        assert c == 2j
        assert residual == pytest.approx(1e-3)

    def test_floor_guards_a_vanishing_b(self):
        assert not _fit_one(X, 1e-13 * X, 1e-12)[2]
        c, residual, fitted = _fit_one(X, 1e-13 * X)
        assert fitted and abs(c) == pytest.approx(1e13) and residual < 1e-3


class TestPhaseInvariantError:
    def test_rows_against_one_vector_and_one_per_row(self):
        b = np.array([1.0, 1j]) / np.sqrt(2)
        a = np.array([np.exp(0.3j) * b, [1.0, 0.0]])
        d = np.sqrt(2 - np.sqrt(2))  # |1> against (|0> + i|1>)/sqrt(2) at the best phase
        np.testing.assert_allclose(phase_invariant_error(a, b), [0.0, d], atol=1e-15)
        np.testing.assert_allclose(phase_invariant_error(a, a[::-1]), [d, d], atol=1e-15)

    def test_orthogonal_vectors_keep_their_full_distance(self):
        assert phase_invariant_error(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(np.sqrt(2))


class TestStates:
    def test_labels(self):
        plus = PureState.from_label("+")
        np.testing.assert_allclose(plus.amplitudes, [1 / np.sqrt(2)] * 2)
        two = PureState.from_label("|0+>")
        np.testing.assert_allclose(two.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0])

    def test_apply_unitary_targets(self):
        st = PureState.from_label("00")
        flipped = PureState(2, apply_op(X, st.amplitudes, [1]))
        np.testing.assert_allclose(flipped.amplitudes, [0, 1, 0, 0], atol=1e-15)
        ent = apply_op(CZ, apply_op(H, st.amplitudes, [0]), [0, 1])
        assert abs(np.linalg.norm(ent) - 1) < 1e-12

    def test_embed_matches_kronecker_products_exactly(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.array_equal(embed(u, [1], 3), tensor(I2, u, I2))
        # v's first factor on qubit 2, its second on qubit 0
        v = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        moved = tensor(v, I2).reshape([2] * 6).transpose(1, 2, 0, 4, 5, 3).reshape(8, 8)
        assert np.array_equal(embed(v, [2, 0], 3), moved)
        with pytest.raises(ValueError):
            embed(u, [0, 1], 2)

    def test_pauli_frame_matches_dense_operator_exactly(self):
        """Every one of the 4^n strings, one per row, equals its dense
        Kronecker product bit for bit, for n = 1..4."""
        rng = np.random.default_rng(6)
        paulis = {(0, 0): I2, (1, 0): X, (0, 1): Z, (1, 1): Y}
        for n in range(1, 5):
            bits = np.array(list(itertools.product((0, 1), repeat=2 * n))).T  # (2n, 4^n)
            x, z = bits[:n], bits[n:]
            states = rng.normal(size=(4**n, 2**n)) + 1j * rng.normal(size=(4**n, 2**n))
            got = apply_pauli_frame(states, x, z)
            for b in range(4**n):
                op = tensor(*(paulis[(x[q, b], z[q, b])] for q in range(n)))
                assert np.array_equal(got[b], op @ states[b]), (n, b)

    def test_pauli_table_refuses_writes(self):
        for table in _pauli_table(3):
            with pytest.raises(ValueError, match="read-only"):
                table[0, 0] = 0


def _tensordot_apply(op, psi, qubits):
    """apply_op's general path written out: one tensordot over the target
    axes, then the new axes moved back into place."""
    n, k = psi.shape[0].bit_length() - 1, len(qubits)
    t = np.tensordot(op.reshape((2,) * (2 * k)), psi.reshape((2,) * n + psi.shape[1:]),
                     axes=(range(k, 2 * k), qubits))
    return np.moveaxis(t, range(k), qubits).reshape(psi.shape)


class TestApplyOp:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_target_equals_tensordot_bit_for_bit(self, n):
        rng = np.random.default_rng(40 + n)
        dim = 2**n
        for q in range(n):
            op = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            for shape in [(dim,), (dim, dim), (dim, 3), (dim, 2, 5)]:
                psi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                got = apply_op(op, psi, [q])
                assert got.shape == psi.shape
                assert np.array_equal(got, _tensordot_apply(op, psi, [q])), (q, shape)
            eye = np.eye(dim, dtype=complex)
            assert np.array_equal(apply_op(op, eye, [q]), _tensordot_apply(op, eye, [q]))

    @pytest.mark.parametrize("targets", [[-1], [2], [5], [0, -1], [-2, 1], [1, 2]])
    def test_targets_outside_the_register_rejected(self, targets):
        op = X if len(targets) == 1 else CZ
        with pytest.raises(ValueError, match="outside the 2-qubit register"):
            apply_op(op, np.array([1, 0, 0, 0], dtype=complex), targets)

    def test_embed_and_matrices_reject_a_wrapped_target(self):
        with pytest.raises(ValueError, match="outside"):
            embed(X, (-1,), 2)
        with pytest.raises(ValueError, match="outside"):
            apply_op(X, np.eye(4), [2])
