"""Parametrized states, interactions, entangler presets, Kraus extraction."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from adqc.core import (
    AncillaSpec,
    CartanParams,
    Entangler,
    LocalFrame,
    MeasBasis,
    PAULI_NAMES,
    analyse_kraus,
    assemble_entangler,
    basis_kets,
    branch_analysis,
    contract_kraus,
    kraus_pair,
    param_kets,
    param_state,
    preset,
    preset_labels,
    rotation,
    weyl_interaction,
)
from adqc.conditions import pauli_components
from adqc.linalg import (
    CZ,
    H,
    I2,
    SWAP,
    X,
    Y,
    Z,
    dagger,
    equal_up_to_global_phase,
    is_unitary,
    tensor,
)


def rx(t):
    return rotation("x", t)


class TestParamState:
    def test_plus_at_zero_is_ground(self):
        np.testing.assert_allclose(param_state("+", 0, 0).amplitudes, [1, 0], atol=1e-15)

    def test_plus_at_equator(self):
        got = param_state("+", math.pi / 2, 0).amplitudes
        np.testing.assert_allclose(got, [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_minus_at_zero(self):
        np.testing.assert_allclose(param_state("-", 0, 0).amplitudes, [0, -1], atol=1e-15)

    def test_orthonormal_pair(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t, p = rng.uniform(0, 2 * math.pi, 2)
            a = param_state("+", t, p).amplitudes
            b = param_state("-", t, p).amplitudes
            assert abs(np.vdot(a, b)) < 1e-14


class TestAngleReduction:
    def test_tiny_negative_angles_reduce_below_two_pi(self):
        """Float ``%`` rounds -1e-20 % 2 pi up to exactly 2 pi; the reduced
        angles lie in [0, 2 pi)."""
        assert AncillaSpec(-1e-20).gamma == 0.0
        assert AncillaSpec(0.3, -1e-20).delta == 0.0
        assert MeasBasis(-1e-17).theta == 0.0
        assert MeasBasis(0.3, -1e-17).phi == 0.0
        assert AncillaSpec(-1e-3).gamma == pytest.approx(2 * math.pi - 1e-3)


class TestRotation:
    def test_identity(self):
        np.testing.assert_allclose(rotation("x", 0), I2, atol=1e-15)

    def test_half_turn(self):
        np.testing.assert_allclose(rotation("x", math.pi), -1j * X, atol=1e-15)

    def test_quarter_z(self):
        expect = np.diag([np.exp(-1j * math.pi / 4), np.exp(1j * math.pi / 4)])
        np.testing.assert_allclose(rotation("z", math.pi / 2), expect, atol=1e-15)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(1)
        for axis, pauli in (("x", X), ("z", Z)):
            for _ in range(10):
                t = rng.uniform(-2 * math.pi, 2 * math.pi)
                np.testing.assert_allclose(
                    rotation(axis, t), expm(-1j * t * pauli / 2), atol=1e-12
                )


class TestWeylInteraction:
    def test_zero_exponent(self):
        np.testing.assert_allclose(
            weyl_interaction(CartanParams(0, 0, 0)), np.eye(4), atol=1e-15
        )

    def test_single_axis_closed_form(self):
        got = weyl_interaction(CartanParams(math.pi / 4, 0, 0))
        expect = (np.eye(4) - 1j * tensor(X, X)) / math.sqrt(2)
        np.testing.assert_allclose(got, expect, atol=1e-15)

    def test_against_matrix_exponential(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            az = rng.uniform(0, math.pi / 4)
            ay = rng.uniform(az, math.pi / 4)
            ax = rng.uniform(ay, math.pi / 4)
            ham = ax * tensor(X, X) + ay * tensor(Y, Y) + az * tensor(Z, Z)
            got = weyl_interaction(CartanParams(ax, ay, az))
            np.testing.assert_allclose(got, expm(-1j * ham), atol=1e-12)
            assert is_unitary(got)

    def test_factor_commutation(self):
        a = weyl_interaction(CartanParams(0.6, 0, 0))
        b = weyl_interaction(CartanParams(0.0, 0.3, 0))
        ab = weyl_interaction(CartanParams(0.6, 0.3, 0))
        np.testing.assert_allclose(a @ b, ab, atol=1e-15)
        np.testing.assert_allclose(b @ a, ab, atol=1e-15)

    def test_chamber_violation(self):
        with pytest.raises(ValueError):
            CartanParams(1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            CartanParams(0.1, -0.5, 0.0)


class TestEntanglerPresets:
    def test_hhcz_reassembles_exactly(self):
        got = assemble_entangler(preset("HHCZ"))
        np.testing.assert_allclose(got, tensor(H, H) @ CZ, atol=1e-14)

    def test_swapcz_reassembles_exactly(self):
        got = assemble_entangler(preset("SWAPCZ"))
        np.testing.assert_allclose(got, SWAP @ CZ, atol=1e-14)

    def test_swapcz_interaction_class(self):
        p = preset("SWAPCZ").cartan
        assert (p.alpha_x, p.alpha_y, p.alpha_z) == (math.pi / 4, math.pi / 4, 0.0)

    def test_all_presets_unitary(self):
        for label in preset_labels():
            assert is_unitary(assemble_entangler(preset(label)), 1e-12), label

    def test_identity_frame_assembly(self):
        e = Entangler(CartanParams(math.pi / 4, 0, 0), LocalFrame(), "custom")
        expect = (np.eye(4) - 1j * tensor(X, X)) / math.sqrt(2)
        np.testing.assert_allclose(assemble_entangler(e), expect, atol=1e-15)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset("NOPE")

    def test_equality_is_a_bool(self):
        j = preset("J_CANON")
        assert (j == Entangler(j.cartan, j.frame, j.label)) is True
        assert (j == Entangler(j.cartan, LocalFrame(v_s=H, w_a=H), j.label)) is False
        assert (j == preset("RX_CANON")) is False

    def test_presets_hash(self):
        labels = preset_labels()
        presets = [preset(label) for label in labels]
        assert len(set(presets)) == len(labels)
        assert {e: e.label for e in presets}[preset("J_CANON")] == "J_CANON"
        assert len({e.frame for e in presets}) == len(labels)


CZ_CANON = preset("CZ_CANON")


class TestKrausPair:
    def test_rotation_pair(self):
        """Hidden-angle row: branches are Rx(g) and X Rx(-g) at weight 1/sqrt2."""
        for g in (0.3, 1.2, 2.5, 4.0):
            pair = kraus_pair(CZ_CANON, AncillaSpec(g, 0), MeasBasis(0, 0))
            assert equal_up_to_global_phase(math.sqrt(2) * pair.k_plus, rx(g), 1e-10)
            assert equal_up_to_global_phase(
                math.sqrt(2) * pair.k_minus, X @ rx(-g), 1e-10
            )
            assert abs(pair.p_plus - 0.5) < 1e-12
            assert abs(pair.p_minus - 0.5) < 1e-12

    def test_standard_ancilla_rows(self):
        pair = kraus_pair(CZ_CANON, AncillaSpec(0, 0), MeasBasis(1.1, 0))
        assert equal_up_to_global_phase(math.sqrt(2) * pair.k_plus, rx(1.1), 1e-10)
        assert equal_up_to_global_phase(math.sqrt(2) * pair.k_minus, X @ rx(1.1), 1e-10)

        pair = kraus_pair(CZ_CANON, AncillaSpec(0, 0), MeasBasis(0, 0))
        assert equal_up_to_global_phase(math.sqrt(2) * pair.k_plus, I2, 1e-10)
        assert equal_up_to_global_phase(math.sqrt(2) * pair.k_minus, X, 1e-10)

    def test_completeness_random_sample(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            az = rng.uniform(0, math.pi / 4)
            ay = rng.uniform(az, math.pi / 4)
            ax = rng.uniform(ay, math.pi / 4)
            e = Entangler(CartanParams(ax, ay, az), LocalFrame(), "custom")
            a = AncillaSpec(*rng.uniform(0, 2 * math.pi, 2))
            m = MeasBasis(*rng.uniform(0, 2 * math.pi, 2))
            pair = kraus_pair(e, a, m)
            total = dagger(pair.k_plus) @ pair.k_plus + dagger(pair.k_minus) @ pair.k_minus
            np.testing.assert_allclose(total, I2, atol=1e-10)
            assert abs(pair.p_plus + pair.p_minus - 1) < 1e-10

    def test_completeness_with_dressed_frames(self):
        rng = np.random.default_rng(10)
        for label in preset_labels():
            e = preset(label)
            for _ in range(50):
                a = AncillaSpec(*rng.uniform(0, 2 * math.pi, 2))
                m = MeasBasis(*rng.uniform(0, 2 * math.pi, 2))
                pair = kraus_pair(e, a, m)
                total = (
                    dagger(pair.k_plus) @ pair.k_plus
                    + dagger(pair.k_minus) @ pair.k_minus
                )
                np.testing.assert_allclose(total, I2, atol=1e-10)

    def test_balanced_probabilities_on_protocol_rows(self):
        """Both rounds the delegation uses (theta=0 with any hidden angle, and
        standard ancilla with any basis angle) have exactly balanced branches."""
        rng = np.random.default_rng(12)
        for _ in range(200):
            g = rng.uniform(0, 2 * math.pi)
            p1 = kraus_pair(CZ_CANON, AncillaSpec(g, 0), MeasBasis(0, 0))
            t = rng.uniform(0, 2 * math.pi)
            p2 = kraus_pair(CZ_CANON, AncillaSpec(0, 0), MeasBasis(t, 0))
            for pair in (p1, p2):
                assert abs(pair.p_plus - 0.5) < 1e-10

    def test_frame_absorption_rewrite(self):
        """Dressed-entangler branches factor as w_s (bare branches with frame-
        rotated ancilla ket and measurement bra) v_s."""
        rng = np.random.default_rng(13)
        for _ in range(40):
            frame = LocalFrame(
                v_s=_rand_u2(rng), v_a=_rand_u2(rng), w_s=_rand_u2(rng), w_a=_rand_u2(rng)
            )
            e = Entangler(CartanParams(math.pi / 4, 0.2, 0.1), frame, "custom")
            a = AncillaSpec(*rng.uniform(0, 2 * math.pi, 2))
            m = MeasBasis(*rng.uniform(0, 2 * math.pi, 2))
            dressed = kraus_pair(e, a, m)

            bare = Entangler(e.cartan, LocalFrame(), "bare")
            em = assemble_entangler(bare)
            ket = frame.v_a @ param_state("+", a.gamma, a.delta).amplitudes
            # rotated bras: <m| w_a  <->  state (w_a^dag)^dag... i.e. w_a^dag |m>
            bra_p = dagger(frame.w_a) @ param_state("+", m.theta, m.phi).amplitudes
            bra_m = dagger(frame.w_a) @ param_state("-", m.theta, m.phi).amplitudes
            e4 = em.reshape(2, 2, 2, 2)
            kp = frame.w_s @ np.einsum("a,aibj,b->ij", bra_p.conj(), e4, ket) @ frame.v_s
            km = frame.w_s @ np.einsum("a,aibj,b->ij", bra_m.conj(), e4, ket) @ frame.v_s
            np.testing.assert_allclose(dressed.k_plus, kp, atol=1e-10)
            np.testing.assert_allclose(dressed.k_minus, km, atol=1e-10)

    def test_branch_form_split(self):
        pair = kraus_pair(CZ_CANON, AncillaSpec(0.9, 0), MeasBasis(0, 0))
        for k in (pair.k_plus, pair.k_minus):
            comp = pauli_components(k)
            assert abs(comp["Y"]) < 1e-9 and abs(comp["Z"]) < 1e-9
            assert abs((comp["X"] / comp["I"]).real) < 1e-9  # I and X parts phase-orthogonal
        comp = pauli_components(pair.k_plus)
        assert abs(abs(comp["I"]) - abs(math.cos(0.45)) / math.sqrt(2)) < 1e-12
        assert abs(abs(comp["X"]) - abs(math.sin(0.45)) / math.sqrt(2)) < 1e-12

    def test_branch_form_parity_differs_on_correctable_row(self):
        """On the one-step-correctable rotation row the internal signs of the
        two branches are opposite; this is what lets a single X correct them."""
        for t in (0.4, 1.3, 2.1):
            pair = kraus_pair(CZ_CANON, AncillaSpec(0, 0), MeasBasis(t, 0))
            ratios = []
            for k in (pair.k_plus, pair.k_minus):
                comp = pauli_components(k)
                assert abs(comp["Y"]) < 1e-9 and abs(comp["Z"]) < 1e-9
                ratios.append(comp["X"] / comp["I"])
                assert abs(ratios[-1].real) < 1e-9
            assert ratios[0].imag * ratios[1].imag < 0


def _rand_u2(rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


class TestBranchAnalysis:
    def test_rotation_row_correctable(self):
        pair = kraus_pair(CZ_CANON, AncillaSpec(0, 0), MeasBasis(0.8, 0))
        rep = branch_analysis(pair)
        assert rep.unitary_plus and rep.unitary_minus
        assert rep.one_step_correctable and rep.correction == "X"
        assert abs(abs(rep.scale) - 1) < 1e-9

    def test_hidden_angle_row_uncorrectable(self):
        pair = kraus_pair(CZ_CANON, AncillaSpec(1.0, 0), MeasBasis(0, 0))
        rep = branch_analysis(pair)
        assert rep.unitary_plus and rep.unitary_minus
        assert not rep.one_step_correctable

    def test_flipped_ancilla_row(self):
        """Ancilla |1>: branches proportional to X and to the identity."""
        pair = kraus_pair(CZ_CANON, AncillaSpec(math.pi, 0), MeasBasis(0, 0))
        assert equal_up_to_global_phase(math.sqrt(2) * pair.k_plus, X, 1e-10)
        assert equal_up_to_global_phase(math.sqrt(2) * pair.k_minus, I2, 1e-10)
        rep = branch_analysis(pair)
        assert rep.one_step_correctable and rep.correction == "X"

    def test_nonunitary_when_constraint_broken(self):
        pair = kraus_pair(CZ_CANON, AncillaSpec(1.0, 1.0), MeasBasis(0.5, 1.3))
        rep = branch_analysis(pair)
        assert not (rep.unitary_plus and rep.unitary_minus)


def _kernel_points(rng):
    """Random, rotation-row, constraint-violating and table-row (ancilla, basis) pairs."""
    points = [
        (AncillaSpec(*rng.uniform(0, 2 * math.pi, 2)), MeasBasis(*rng.uniform(0, 2 * math.pi, 2)))
        for _ in range(6)
    ]
    points += [(AncillaSpec(0.0), MeasBasis(rng.uniform(0.2, math.pi - 0.2))) for _ in range(4)]
    return points + [(AncillaSpec(1.0, 1.0), MeasBasis(0.5, 1.3)), (AncillaSpec(0.9), MeasBasis(0.0))]


class TestBatchedKernel:
    """Each row of the batched assembly, contraction and analysis equals the
    one-row call that kraus_pair and branch_analysis make, for every preset:
    SWAPCZ has alpha_y != 0 and HHCZ dressed frames on both sides."""

    def test_rows_with_their_own_strengths(self):
        """Each row of a batch carries its own in-chamber strengths: it equals
        the dressed matrix exponential and the scalar call on that row."""
        rng = np.random.default_rng(32)
        for label in preset_labels():
            e = preset(label)
            az = rng.uniform(0, math.pi / 4, 12)
            ay = rng.uniform(az, math.pi / 4)
            ax = rng.uniform(ay, math.pi / 4)
            strengths = np.stack([ax, ay, az], axis=1)
            got = assemble_entangler(e, strengths)
            f = e.frame
            for row, u in zip(strengths, got):
                ham = row[0] * tensor(X, X) + row[1] * tensor(Y, Y) + row[2] * tensor(Z, Z)
                dressed = tensor(f.w_a, f.w_s) @ expm(-1j * ham) @ tensor(f.v_a, f.v_s)
                assert np.abs(u - dressed).max() <= 1e-12, label
                single = assemble_entangler(Entangler(CartanParams(*row), f))
                assert np.abs(u - single).max() <= 1e-15, label

    def test_rows_match_single_calls(self):
        rng = np.random.default_rng(31)
        rows, ents = [], []
        for label in preset_labels():
            e = preset(label)
            c = e.cartan
            points = _kernel_points(rng)
            strengths = np.tile([c.alpha_x, c.alpha_y, c.alpha_z], (len(points), 1))
            ents.append(assemble_entangler(e, strengths))
            rows += [(e, a, m) for a, m in points]
        kets = param_kets("+", [a.gamma for _, a, _ in rows], [a.delta for _, a, _ in rows])
        bras = basis_kets([m.theta for _, _, m in rows], [m.phi for _, _, m in rows])
        pairs = contract_kraus(np.concatenate(ents), kets, bras)
        unitary, correction, scale = analyse_kraus(pairs)
        assert pairs.shape == (len(rows), 2, 2, 2)
        assert unitary.any() and not unitary.all()
        assert (correction >= 0).any() and (correction < 0).any()
        for i, (e, a, m) in enumerate(rows):
            single = kraus_pair(e, a, m)
            assert np.abs(pairs[i, 0] - single.k_plus).max() <= 1e-15, (e.label, i)
            assert np.abs(pairs[i, 1] - single.k_minus).max() <= 1e-15, (e.label, i)
            rep = branch_analysis(single)
            assert (rep.unitary_plus, rep.unitary_minus) == tuple(unitary[i]), (e.label, i)
            assert rep.one_step_correctable == (correction[i] >= 0)
            if rep.one_step_correctable:
                assert rep.correction == PAULI_NAMES[correction[i]]
                assert rep.scale == scale[i]
            else:
                assert rep.correction is None and rep.scale is None
                assert np.isnan(scale[i])
