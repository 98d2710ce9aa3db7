"""Pattern builders, tiles, circuit compilation and enumeration-based checks."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from adqc.core import rotation
from adqc.linalg import CZ, H, equal_up_to_global_phase, tensor
from adqc.patterns import (
    CZ2_SPECS,
    CircuitDescription,
    CircuitGate,
    compile_circuit,
    euler_zxz,
    standard_pattern,
    universal_tile,
    verify_pattern,
)
from adqc.register import AdaptiveAngle, QubitCorrection

PI = math.pi


class TestStandardPatterns:
    def test_j_slot(self):
        pat = standard_pattern("J", PI / 4, "single")
        assert len(pat.steps) == 3
        rep = verify_pattern(pat)
        assert rep.valid and rep.worst_branch_error < 1e-9
        expect = H @ rotation("z", PI / 4)
        assert equal_up_to_global_phase(pat.target, expect, 1e-12)

    def test_rx_rz_slots(self):
        for kind, gate in (("RX", rotation("x", 1.1)), ("RZ", rotation("z", 2.0))):
            pat = standard_pattern(kind, 1.1 if kind == "RX" else 2.0, "two")
            assert len(pat.steps) == 2
            assert verify_pattern(pat).valid
            assert equal_up_to_global_phase(pat.target, gate, 1e-12)

    def test_assist_slot(self):
        pat = standard_pattern("ASSIST", None, "single")
        assert len(pat.steps) == 1
        assert verify_pattern(pat).valid
        assert equal_up_to_global_phase(pat.target, H, 1e-12)

    def test_cz_patterns_both_variants(self):
        for variant in ("single", "two"):
            pat = standard_pattern("CZ", None, variant)
            rep = verify_pattern(pat)
            assert rep.valid, (variant, rep)
            np.testing.assert_allclose(pat.target, CZ, atol=1e-12)

    def test_unsupported_combinations(self):
        with pytest.raises(ValueError):
            standard_pattern("RX", 1.0, "single")
        with pytest.raises(ValueError):
            standard_pattern("J", 1.0, "two")
        with pytest.raises(ValueError):
            standard_pattern("ASSIST", None, "two")

    def test_corrupted_corrections_detected(self):
        pat = standard_pattern("J", 0.7, "single")
        flipped = tuple(
            QubitCorrection(c.x_parity, c.x_const ^ 1, c.z_parity, c.z_const)
            for c in pat.corrections
        )
        bad = replace(pat, corrections=flipped)
        rep = verify_pattern(bad)
        assert not rep.valid
        assert rep.worst_branch_error > 0.5
        assert "branch outcomes (" in rep.detail and "on input " in rep.detail

    def test_broken_slot_boundary_named(self):
        """A wrong frame at one slot boundary of a slot-wise verified pattern
        is reported with that slot's index."""
        c = CircuitDescription(1, (CircuitGate("H", (0,)), CircuitGate("Rz", (0,), PI / 3)))
        pat = compile_circuit(c, "single")
        assert len(pat.steps) > 13
        for slot in range(len(pat.slots)):
            first = pat.slots[slot].step_indices[0]
            boundaries = list(pat.slot_boundaries)
            c0 = boundaries[slot][0]
            boundaries[slot] = (replace(c0, x_parity=c0.x_parity ^ {first}),)
            rep = verify_pattern(replace(pat, slot_boundaries=tuple(boundaries)))
            assert not rep.valid and rep.mode == "slotwise"
            assert rep.detail.startswith(f"slot {slot} branches disagree after correction")
            assert "outcomes [" in rep.detail and "on input " in rep.detail

    def test_cross_slot_angle_dependence_checked(self):
        """Dropping the earlier-slot outcomes from one rotation step's angle
        is caught slot-wise exactly where it changes the gate: wherever the
        slot angle is not 0, at that slot."""
        circuits = (
            (CircuitDescription(1, (CircuitGate("H", (0,)), CircuitGate("Rz", (0,), PI / 3))), "single"),
            (CircuitDescription(1, tuple(CircuitGate(k, (0,), a) for k, a in
                                         (("Rx", 0.5), ("Rz", PI / 3), ("Rx", 1.0)))), "two"),
        )
        mutants = rejected = 0
        for circuit, variant in circuits:
            pat = compile_circuit(circuit, variant)
            for k, slot in enumerate(pat.slots):
                if "theta" not in slot.roles:
                    continue
                i = slot.roles["theta"]
                ((value, negate),) = pat.steps[i].basis_theta.terms
                kept = negate & set(slot.step_indices)
                if kept == negate:
                    continue
                steps = list(pat.steps)
                steps[i] = replace(steps[i], basis_theta=AdaptiveAngle(((value, kept),)))
                rep = verify_pattern(replace(pat, steps=tuple(steps)))
                mutants += 1
                assert rep.mode == "slotwise"
                assert rep.valid == (slot.theta_prime == 0.0), (variant, k, rep)
                if not rep.valid:
                    rejected += 1
                    assert rep.detail.startswith(f"slot {k} branches disagree after correction")
                    assert "after earlier outcomes {" in rep.detail
        assert (mutants, rejected) == (13, 6)

    def test_four_qubit_circuits_verified(self):
        c = CircuitDescription(4, (CircuitGate("H", (3,)), CircuitGate("CZ", (0, 3)),
                                   CircuitGate("Rx", (1,), PI / 4), CircuitGate("CZ", (1, 2))))
        for variant in ("single", "two"):
            pat = compile_circuit(c, variant)
            rep = verify_pattern(pat)
            assert rep.valid and rep.mode == "slotwise", (variant, rep)
            broken = replace(pat, corrections=(QubitCorrection(x_const=1),) + pat.corrections[1:])
            rep = verify_pattern(broken)
            assert not rep.valid and rep.detail.startswith("final corrections disagree"), rep

    def test_rotation_slot_step_counts(self):
        assert len(standard_pattern("J", 0.3, "single").steps) == 3
        assert len(standard_pattern("RX", 0.3, "two").steps) == 2
        assert len(standard_pattern("RZ", 0.3, "two").steps) == 2


class TestUniversalTile:
    def test_row_of_j_slots(self):
        pat = universal_tile(1, 3, [[0.0], [PI / 4], [0.0]], "single")
        expect = (H @ rotation("z", 0.0)) @ (H @ rotation("z", PI / 4)) @ H
        # applied left to right in time: total = J(0) J(theta) J(0)
        total = H @ (H @ rotation("z", PI / 4)) @ (H @ rotation("z", 0.0))
        assert equal_up_to_global_phase(pat.target, total, 1e-12)
        assert verify_pattern(pat).valid

    def test_cz_only_tile(self):
        pat = universal_tile(2, 1, ["cz"], "two")
        assert equal_up_to_global_phase(pat.target, CZ, 1e-12)
        assert verify_pattern(pat).valid

    def test_tile_realizing_hh_cz(self):
        pat = universal_tile(
            2,
            3,
            ["cz", [0.0, 0.0], [("u", 0, 0, 0), ("u", 0, 0, 0)]],
            "single",
        )
        expect = tensor(H, H) @ CZ
        assert equal_up_to_global_phase(pat.target, expect, 1e-12)
        assert verify_pattern(pat).valid

    def test_row_limit(self):
        with pytest.raises(ValueError):
            universal_tile(5, 1, [["cz"]], "two")


class TestCircuits:
    def test_json_round_trip(self):
        c = CircuitDescription(
            2,
            (
                CircuitGate("Rz", (0,), 1.047),
                CircuitGate("CZ", (0, 1)),
                CircuitGate("H", (1,)),
            ),
        )
        again = CircuitDescription.from_json(c.to_json())
        assert again == c

    def test_unsupported_gate_kinds(self):
        with pytest.raises(ValueError):
            CircuitGate("T", (0,))
        with pytest.raises(ValueError):
            CircuitGate("CZ", (0,))

    def test_unitary_of_sequence(self):
        c = CircuitDescription(1, (CircuitGate("H", (0,)), CircuitGate("Rz", (0,), PI / 3)))
        np.testing.assert_allclose(c.unitary(), rotation("z", PI / 3) @ H, atol=1e-12)


class TestCompile:
    def test_empty_circuit_fixed_shape(self):
        c = CircuitDescription(1, ())
        for variant, steps in (("single", 10), ("two", 6)):
            pat = compile_circuit(c, variant)
            assert len(pat.steps) == steps  # one identity unit
            np.testing.assert_allclose(pat.target, np.eye(2), atol=1e-12)
            assert verify_pattern(pat).valid

    def test_single_qubit_circuit(self):
        c = CircuitDescription(1, (CircuitGate("H", (0,)), CircuitGate("Rz", (0,), PI / 3)))
        for variant in ("single", "two"):
            pat = compile_circuit(c, variant)
            rep = verify_pattern(pat)
            assert rep.valid
            np.testing.assert_allclose(pat.target, c.unitary(), atol=1e-12)

    def test_two_qubit_circuit_with_cz(self):
        c = CircuitDescription(2, (CircuitGate("H", (0,)), CircuitGate("CZ", (0, 1))))
        for variant in ("single", "two"):
            pat = compile_circuit(c, variant)
            assert verify_pattern(pat).valid
            np.testing.assert_allclose(pat.target, c.unitary(), atol=1e-12)

    def test_padding_keeps_target_and_extends_shape(self):
        c = CircuitDescription(1, (CircuitGate("Rx", (0,), 0.5),))
        base = compile_circuit(c, "two")
        padded = compile_circuit(c, "two", pad_layers=2)
        assert len(padded.steps) == len(base.steps) + 2 * 6
        np.testing.assert_allclose(padded.target, base.target, atol=1e-12)
        assert verify_pattern(padded).valid

    def test_shape_depends_only_on_counts(self):
        """Two different circuits with the same gate profile compile to the
        same step shape (targets aside, the information a server would see)."""
        a = CircuitDescription(2, (CircuitGate("Rz", (0,), PI / 4), CircuitGate("CZ", (0, 1))))
        b = CircuitDescription(2, (CircuitGate("Rx", (0,), 3 * PI / 4), CircuitGate("CZ", (0, 1))))
        pa = compile_circuit(a, "two")
        pb = compile_circuit(b, "two")
        shape_a = [(s.targets, s.entangler_labels) for s in pa.steps]
        shape_b = [(s.targets, s.entangler_labels) for s in pb.steps]
        assert shape_a == shape_b

    def test_composition_soundness_random_circuits(self):
        rng = np.random.default_rng(8)
        for i in range(20):
            n = int(rng.integers(1, 3))
            gates = []
            for _ in range(int(rng.integers(1, 5))):
                kind = rng.choice(["H", "Rx", "Rz", "CZ"] if n == 2 else ["H", "Rx", "Rz"])
                if kind == "CZ":
                    gates.append(CircuitGate("CZ", (0, 1)))
                else:
                    q = int(rng.integers(n))
                    ang = float(rng.uniform(0, 2 * PI))
                    gates.append(CircuitGate(kind, (q,), ang if kind != "H" else None))
            c = CircuitDescription(n, tuple(gates))
            variant = "single" if i % 2 else "two"
            rep = verify_pattern(compile_circuit(c, variant), 1e-9)
            assert rep.valid, (c, variant, rep)


class TestEuler:
    def test_round_trip_random(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            q, r = np.linalg.qr(m)
            u = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
            a, b, c = euler_zxz(u)
            redo = rotation("z", c) @ rotation("x", b) @ rotation("z", a)
            assert equal_up_to_global_phase(redo, u, 1e-8)


class TestFrozenSlotData:
    def test_two_variant_decomposition_identity(self):
        """The two-target slot unitary factors as locals around an exact CZ."""
        from adqc.linalg import S_GATE, Z

        u2 = CZ2_SPECS["two"].slot_target
        cand = np.exp(-1j * PI / 4) * tensor(H, np.eye(2)) @ CZ @ tensor(Z @ H, S_GATE)
        np.testing.assert_allclose(u2, cand, atol=1e-12)

    def test_slot_targets_are_cz_class(self):
        magic = (
            np.array(
                [[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]],
                dtype=complex,
            )
            / math.sqrt(2)
        )

        def invariants(u):
            m = magic.conj().T @ u @ magic
            m = m.T @ m
            det = np.linalg.det(u)
            return np.trace(m) ** 2 / (16 * det), (np.trace(m) ** 2 - np.trace(m @ m)) / (4 * det)

        ref = invariants(CZ)
        for variant in ("single", "two"):
            got = invariants(CZ2_SPECS[variant].slot_target)
            np.testing.assert_allclose(got, ref, atol=1e-10)


def _canonical(pattern) -> list:
    """Steps, corrections, slots and slot boundaries, every set sorted."""

    def frames(corrections):
        return [[sorted(c.x_parity), c.x_const, sorted(c.z_parity), c.z_const] for c in corrections]

    steps = [
        [list(s.targets), list(s.entangler_labels), s.ancilla.gamma, s.ancilla.delta,
         [[v, sorted(neg)] for v, neg in s.basis_theta.terms], s.basis_phi]
        for s in pattern.steps
    ]
    slots = [
        [sl.kind, list(sl.qubits), sl.theta_prime, list(sl.step_indices), sorted(sl.roles.items()),
         sorted(sl.theta_negate), sl.theta_sign, sorted(sl.gamma_negate)]
        for sl in pattern.slots
    ]
    return [steps, frames(pattern.corrections), slots, [frames(b) for b in pattern.slot_boundaries]]


def _seeded_circuits(count: int, seed: int):
    """Circuits on 1 to 4 qubits with grid and off-grid angles and padding."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = 1 + i % 4
        gates = []
        for _ in range(int(rng.integers(0, 5))):
            kind = str(rng.choice(["H", "Rx", "Rz", "CZ"] if n > 1 else ["H", "Rx", "Rz"]))
            if kind == "CZ":
                gates.append(CircuitGate("CZ", tuple(int(q) for q in rng.choice(n, 2, replace=False))))
            elif kind == "H":
                gates.append(CircuitGate("H", (int(rng.integers(n)),)))
            else:
                ang = float(rng.integers(8)) * PI / 4 if i % 2 else float(rng.uniform(-PI, PI))
                gates.append(CircuitGate(kind, (int(rng.integers(n)),), ang))
        yield CircuitDescription(n, tuple(gates)), i % 3


class TestPatternPin:
    # SHA-256 over the canonical form of the six standard patterns and of 40
    # seeded compiled circuits in both variants
    PINNED = "616d959eed651b106d168981fb3b86fa929b216fe925ea8f22d7ad2cf4db517e"

    def test_built_patterns_are_pinned(self):
        standard = [
            standard_pattern(kind, theta, variant)
            for kind, theta, variant in (
                ("J", 0.7, "single"), ("ASSIST", None, "single"), ("CZ", None, "single"),
                ("RX", 1.1, "two"), ("RZ", 2.0, "two"), ("CZ", None, "two"),
            )
        ]
        compiled = [
            compile_circuit(circuit, variant, pad)
            for circuit, pad in _seeded_circuits(40, 5)
            for variant in ("single", "two")
        ]
        doc = json.dumps([_canonical(p) for p in standard + compiled])
        assert hashlib.sha256(doc.encode()).hexdigest() == self.PINNED
