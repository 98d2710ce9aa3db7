"""Closed-form conditions: constraint, coefficients, relation, tables, hiding."""

import hashlib
import json
import math

import numpy as np
import pytest

from adqc import conditions
from adqc.conditions import (
    SWEEP_BLOCK,
    DegenerateRelationError,
    ParamPoint,
    TableCase,
    classify_parameters,
    constraint_residual,
    fg_coefficients,
    l_hiding_residual,
    l_hiding_sign,
    pauli_components,
    relation_residual,
    required_alpha_x,
    sample_constraint_point,
    unitarity_relation_sweep,
    vw_form_check,
)
from adqc.core import (
    AncillaSpec,
    CartanParams,
    Entangler,
    LocalFrame,
    MeasBasis,
    analyse_kraus,
    basis_kets,
    kraus_pair,
    param_kets,
    rotation,
)
from adqc.linalg import H, I2, X, Y, Z

PI = math.pi


def point(ax, g, d, t, f):
    return ParamPoint(ax, AncillaSpec(g, d), MeasBasis(t, f))


class TestConstraint:
    def test_vanishing_cases(self):
        assert constraint_residual(point(0.3, 0, 1.0, 2.0, 0)) == pytest.approx(0.0, abs=1e-15)

    def test_direct_substitution(self):
        got = constraint_residual(point(0.3, PI / 2, PI / 2, 0, 0))
        assert got == pytest.approx(-1.0, abs=1e-12)

    def test_matched_row_satisfies(self):
        for g, d in ((0.7, 0.2), (2.1, 1.9)):
            got = constraint_residual(point(0.3, g, d, g, d))
            assert abs(got) < 1e-12


class TestFgCoefficients:
    def test_balanced_point(self):
        fp, fm, gp, gm = fg_coefficients(point(PI / 4, 0, 0, PI / 2, 0))
        assert fp == pytest.approx(0.5, abs=1e-12)
        assert fm == pytest.approx(0.5, abs=1e-12)
        assert gp == pytest.approx(0.5, abs=1e-12)
        assert gm == pytest.approx(0.5, abs=1e-12)

    def test_identity_row_split(self):
        # branch + is proportional to I, branch - to X
        fp, fm, gp, gm = fg_coefficients(point(PI / 4, 0, 0, 0, 0))
        assert fp == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert fm == pytest.approx(0.0, abs=1e-12)
        assert gp == pytest.approx(0.0, abs=1e-12)
        assert gm == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_zero_interaction_kills_g(self):
        fp, fm, gp, gm = fg_coefficients(point(0.0, 1.0, 0, 2.0, 0))
        assert gp == 0.0 and gm == 0.0

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            fg_coefficients(point(0.3, 1.0, 1.0, 0.5, 1.3))

    def test_matches_computed_branch_magnitudes(self):
        """The formulas reproduce the I/X component magnitudes of the actual
        branches on constraint-satisfying points."""
        rng = np.random.default_rng(21)
        for _ in range(400):
            p = sample_constraint_point(rng)
            fp, fm, gp, gm = fg_coefficients(p)
            pair = kraus_pair(
                Entangler(CartanParams(p.alpha_x), LocalFrame(), "x"), p.ancilla, p.basis
            )
            cp = pauli_components(pair.k_plus)
            cm = pauli_components(pair.k_minus)
            assert abs(abs(cp["I"]) - fp) < 1e-9
            assert abs(abs(cp["X"]) - gp) < 1e-9
            assert abs(abs(cm["I"]) - fm) < 1e-9
            assert abs(abs(cm["X"]) - gm) < 1e-9
            assert abs(cp["Y"]) < 1e-12 and abs(cp["Z"]) < 1e-12


class TestRequiredAlphaX:
    def test_rotation_row_forces_max_strength(self):
        got = required_alpha_x(AncillaSpec(0, 0), MeasBasis(PI / 3, 0))
        assert got == pytest.approx(PI / 4, abs=1e-12)

    def test_degenerate_case(self):
        with pytest.raises(DegenerateRelationError):
            required_alpha_x(AncillaSpec(0, 0), MeasBasis(0, 0))

    def test_matched_row_value(self):
        # numerator vanishes on the matched row, so the relation singles out 0
        got = required_alpha_x(AncillaSpec(0.9, 0), MeasBasis(0.9, 0))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_relation_residual_zero_at_required(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            p = sample_constraint_point(rng)
            try:
                ax = required_alpha_x(p.ancilla, p.basis)
            except DegenerateRelationError:
                continue
            if ax > PI / 4:
                continue
            q = ParamPoint(ax, p.ancilla, p.basis)
            assert abs(relation_residual(q)) < 1e-10


class TestClassification:
    def test_identity_row(self):
        assert classify_parameters(point(PI / 4, 0, 0.4, 0, 0)) is TableCase.T1_IDENTITY

    def test_rotation_row(self):
        assert classify_parameters(point(PI / 4, 0, 0, 1.3, 0)) is TableCase.T1_XROT

    def test_flipped_ancilla_row(self):
        assert classify_parameters(point(PI / 4, PI, 0, 0, 0)) is TableCase.T1_X_A

    def test_equator_row(self):
        assert classify_parameters(point(PI / 4, 0.9, 0.4, PI / 2, 0)) is TableCase.T1_X_B

    def test_hidden_rotation_row(self):
        assert (
            classify_parameters(point(PI / 4, 1.0, 0, 0, 0)) is TableCase.T2_GENERAL_DELTA0
        )

    def test_matched_row(self):
        assert classify_parameters(point(PI / 4, 0.8, 0.5, 0.8, 0.5)) is TableCase.T2_MATCHED

    def test_no_match(self):
        got = classify_parameters(point(PI / 4, PI / 2, PI / 5, PI / 3, PI / 7))
        assert got is TableCase.NONE

    def test_random_negatives_have_no_false_positives(self):
        """Every random point classifies as NONE, with no prefilter: a row
        match or a failed confirmation on any of them fails the test."""
        rng = np.random.default_rng(23)
        for _ in range(1000):
            g, d, t, f = rng.uniform(0.2, 2 * PI - 0.2, 4)
            assert classify_parameters(point(PI / 4, g, d, t, f), 1e-9) is TableCase.NONE


class TestFrameForms:
    def test_hadamard_pair(self):
        assert vw_form_check(H, H)  # product is the identity

    def test_y_form(self):
        assert vw_form_check(Y, I2)

    def test_mixed_product_rejected(self):
        assert not vw_form_check(I2, rotation("z", PI / 3))

    def test_x_rotation_products(self):
        assert vw_form_check(rotation("x", 0.7), rotation("x", 1.9))


class TestLHiding:
    def test_trivial_frame(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            t, g = rng.uniform(0, 2 * PI, 2)
            s = int(rng.integers(2))
            assert l_hiding_residual(I2, I2, t, g, s) < 1e-12

    def test_anticommuting_frame(self):
        for t in np.linspace(0, 2 * PI, 16, endpoint=False):
            for g in np.linspace(0, 2 * PI, 16, endpoint=False):
                for s in (0, 1):
                    assert l_hiding_residual(Z, I2, t, g, s) < 1e-10

    def test_generic_frame_fails(self):
        count = 0
        for t in np.linspace(0.3, 5.9, 8):
            for g in np.linspace(0.3, 5.9, 8):
                if l_hiding_residual(I2, rotation("z", PI / 3), t, g, 0) > 0.1:
                    count += 1
        assert count > 40  # generic angles break the absorption law

    def test_sign_convention(self):
        assert l_hiding_sign(I2, I2) == 1
        assert l_hiding_sign(Z, I2) == -1
        assert l_hiding_sign(I2, rotation("z", PI / 3)) == 0

    def test_form_theorem_contrapositive(self):
        """Frames passing the absorption law on a grid satisfy the form check;
        sampled over random unitary pairs plus constructed compliant ones."""
        rng = np.random.default_rng(33)

        def rand_u2():
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(m)
            return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))

        grid = np.linspace(0, 2 * PI, 16, endpoint=False)

        def hiding_holds(v, w):
            for t in grid[::4]:
                for g in grid[::4]:
                    for s in (0, 1):
                        if l_hiding_residual(v, w, t, g, s) > 1e-9:
                            return False
            return True

        pairs = [(rand_u2(), rand_u2()) for _ in range(300)]
        pairs += [(rotation("x", 0.5), rotation("x", 1.1)), (Z, I2), (Y, I2), (H, H)]
        for v, w in pairs:
            if hiding_holds(v, w):
                assert vw_form_check(v, w, 1e-7)

    def test_plane_confinement_for_ix_frames(self):
        """With an aI+ibX frame product, every kernel composed from the slot
        gates is an X-axis rotation and preserves the X Bloch coordinate."""
        rng = np.random.default_rng(34)
        v, w = rotation("x", 0.4), rotation("x", 1.2)
        assert vw_form_check(v, w)
        m = v @ w
        for _ in range(50):
            angles = rng.uniform(0, 2 * PI, 3)
            kernel = np.eye(2, dtype=complex)
            for a in angles:
                kernel = rotation("x", a) @ m @ kernel
            comps = pauli_components(kernel)
            assert abs(comps["Y"]) < 1e-9 and abs(comps["Z"]) < 1e-9
            # preserved Bloch X coordinate on random states
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            x_before = float(np.vdot(psi, X @ psi).real)
            out = kernel @ psi
            out /= np.linalg.norm(out)
            x_after = float(np.vdot(out, X @ out).real)
            assert abs(x_before - x_after) < 1e-9


class TestSweep:
    def test_small_sweep_fully_agrees(self):
        report = unitarity_relation_sweep(400, seed=1, tol=1e-9)
        assert report["agreement_rate"] == 1.0
        assert report["relation_disagreements"] == 0
        assert report["nonunitary_on_constraint"] == 0
        assert report["violations_missed"] == 0
        assert report["correctability_disagreements"] == 0

    @pytest.mark.parametrize("points", [1, 100, SWEEP_BLOCK + 1])
    def test_counts_cover_every_point(self, points):
        report = unitarity_relation_sweep(points, seed=2, tol=1e-9)
        assert report["agreement_rate"] == 1.0
        assert (
            report["unitary_on_constraint"]
            + report["nonunitary_on_constraint"]
            + report["excluded_degenerate"]
            == points
        )
        assert report["violations_detected"] + report["violations_missed"] == report["violating_points"]
        assert report["correctability_checks"] == 2 * max(points // 10, 1)

    @pytest.mark.parametrize("points", [0, -5])
    def test_rejects_fewer_than_one_point(self, points):
        with pytest.raises(ValueError, match="at least 1 point"):
            unitarity_relation_sweep(points)

    # SHA-256 of json.dumps(report, sort_keys=True), per (points, seed)
    PINNED_REPORTS = {
        (1, 0): "ea784ab3876dfd6ae2a6c81de7d20b9617ffe73cc6b73ffb725ca7d799e5e4e0",
        (1, 3): "e20c91f96963437c703070a8176ec9013ebef3de65a41bbe177bde3ccb564087",
        (1, 11): "ea784ab3876dfd6ae2a6c81de7d20b9617ffe73cc6b73ffb725ca7d799e5e4e0",
        (7, 0): "e96c7598bbc919679a6e67b4466026bf8959e56e3363519b1f107d5f7a6c0778",
        (7, 3): "f57726c3179f7b9258b48b16acb2916fc836d7db7ab2f16b29825cbbe0ad6263",
        (7, 11): "c01b5d74b6fbd53de519cc652670d84f977eb9b99c213dadc8c0230e05d7f522",
        (100, 0): "bcee26ff579c42504c9196c5d83cd97743bed546c326fd077477b4b90286e536",
        (100, 3): "bcee26ff579c42504c9196c5d83cd97743bed546c326fd077477b4b90286e536",
        (100, 11): "bcb8015313a7bbce34f4f866b23c18bf3e8105221cb64fcd2eae1ee9017cda69",
        (SWEEP_BLOCK + 1, 0): "02872fd27dbaf63d06146cb0b14ea0f1ed8a5c3d099f8fd51929a11291f880a5",
        (SWEEP_BLOCK + 1, 3): "c902a6320457eec623f8f716233e9aca5c0db533491b48da541ced5b5c2fca2d",
        (SWEEP_BLOCK + 1, 11): "59a2c42ab76d02f0c32445681fac550fd4cfc15a75d6779d6b15badaef484340",
        (10_000, 0): "6abbcdd3000c6b574d86f8059aec2a31fc0c827a58f4e5ed40cd3a19ca335b5d",
        (10_000, 3): "869254a835a2d56786fdae59692200844b8fb2654cdd07fc1ee3301bb15202f5",
        (10_000, 11): "31d8e13e359cd68e4f8046d6429b2360d5bf251b7fe2759ed91b2369d12965c0",
    }

    @pytest.mark.parametrize("points, seed", sorted(PINNED_REPORTS))
    def test_reports_pinned(self, points, seed):
        """Reports stay byte for byte what the sweep gave before its Kraus checks
        were queued across families onto the Bell-basis kernel."""
        report = unitarity_relation_sweep(points, seed=seed)
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        assert digest == self.PINNED_REPORTS[points, seed]

    @staticmethod
    def _kernel_calls(monkeypatch):
        rows = []

        def counted(ax, *args):
            rows.append(len(ax))
            return branches(ax, *args)

        branches = conditions._branches
        monkeypatch.setattr(conditions, "_branches", counted)
        return rows

    def test_small_sweep_makes_one_kernel_call(self, monkeypatch):
        rows = self._kernel_calls(monkeypatch)
        report = unitarity_relation_sweep(100, seed=4)
        assert report["agreement_rate"] == 1.0
        assert len(rows) == 1

    @pytest.mark.parametrize("points", [SWEEP_BLOCK + 1, 10_000])
    def test_kernel_calls_bounded_and_cover_every_row(self, monkeypatch, points):
        rows = self._kernel_calls(monkeypatch)
        report = unitarity_relation_sweep(points, seed=5)
        assert max(rows) <= SWEEP_BLOCK
        assert sum(rows) == (
            points
            - report["excluded_degenerate"]
            + report["violating_points"]
            + report["correctability_checks"]
        )

    def test_bras_without_phi_on_minus_fail_unitarity(self, monkeypatch):
        """A minus-outcome bra that drops phi breaks the constraint's branches."""

        def broken(theta, phi):
            kets = basis_kets(theta, phi)
            kets[..., 1, :] = param_kets("-", theta, np.zeros_like(phi))
            return kets

        monkeypatch.setattr(conditions, "basis_kets", broken)
        report = unitarity_relation_sweep(400, seed=1, tol=1e-9)
        assert report["nonunitary_on_constraint"] > 0
        assert report["agreement_rate"] < 1.0

    def test_forced_unitarity_misses_violations(self, monkeypatch):
        def always_unitary(k, tol=1e-9):
            unitary, correction, scale = analyse_kraus(k, tol)
            return np.ones_like(unitary), correction, scale

        monkeypatch.setattr(conditions, "analyse_kraus", always_unitary)
        report = unitarity_relation_sweep(400, seed=1, tol=1e-9)
        assert report["violations_missed"] > 0
        assert report["agreement_rate"] < 1.0
