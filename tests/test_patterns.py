"""Pattern builders, circuit compilation and enumeration-based checks."""

import dataclasses
import hashlib
import json
import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from adqc import patterns
from adqc.core import AncillaSpec, rotation
from adqc.linalg import CZ, H, PureState, equal_up_to_global_phase, phase_invariant_error, tensor
from adqc.patterns import (
    CircuitDescription,
    CircuitGate,
    compile_circuit,
    cz2_spec,
    standard_pattern,
    verify_pattern,
)
from adqc.register import AdaptiveAngle, AdqcStep, GatePattern, run_pattern

PI = math.pi


def _edit_map(pat, k, row, col):
    """``pat`` with entry (row, col) of slot k's frame map toggled: row 2i
    or 2i + 1 is the outgoing X or Z bit of the slot's qubit i, and column
    -1 the constant 1."""
    slot = pat.slots[k]
    frame_map = slot.frame_map.copy()
    frame_map[row, col] ^= 1
    return replace(pat, slots=pat.slots[:k] + (replace(slot, frame_map=frame_map),) + pat.slots[k + 1:])


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
        """The slot's map sets a constant X on its outgoing frame, which is
        the final correction."""
        pat = standard_pattern("J", 0.7, "single")
        bad = _edit_map(pat, 0, 0, -1)
        rep = verify_pattern(bad)
        assert not rep.valid
        assert rep.worst_branch_error > 0.5
        assert "branch outcomes (" in rep.detail

    def test_broken_slot_boundary_named(self):
        """A wrong outgoing frame of one slot of a slot-wise verified pattern,
        its first outcome read into its X bit, is reported with that slot's
        index."""
        c = CircuitDescription(1, (CircuitGate("H", (0,)), CircuitGate("Rz", (0,), PI / 3)))
        pat = compile_circuit(c, "single")
        assert len(pat.steps) > 13
        for slot in range(len(pat.slots)):
            rep = verify_pattern(_edit_map(pat, slot, 0, 2))
            assert not rep.valid and rep.mode == "slotwise"
            assert rep.detail.startswith(f"slot {slot} branches disagree after correction")
            assert "outcomes [" in rep.detail and "under incoming frame {" in rep.detail

    def test_cross_slot_angle_dependence_checked(self):
        """Dropping the incoming frame bits from one rotation step's angle is
        caught slot-wise exactly where it changes the gate: wherever the slot
        angle is not 0, at that slot.  Every incoming frame is checked, so
        this holds at the first slot too, whose incoming frame is 0."""
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
                angle = pat.steps[i].basis_theta
                kept = frozenset(c for c in angle.negate if c >= 2 * len(slot.qubits))
                assert kept != angle.negate
                steps = list(pat.steps)
                steps[i] = replace(steps[i], basis_theta=AdaptiveAngle(angle.value, kept))
                rep = verify_pattern(replace(pat, steps=tuple(steps)))
                mutants += 1
                assert rep.mode == "slotwise"
                assert rep.valid == (slot.theta_prime == 0.0), (variant, k, rep)
                if not rep.valid:
                    rejected += 1
                    assert rep.detail.startswith(f"slot {k} branches disagree after correction")
                    assert "under incoming frame {" in rep.detail
        assert (mutants, rejected) == (15, 7)

    def test_a_valid_pattern_can_be_refused_for_an_unreachable_frame(self):
        """Checking every incoming frame is sufficient, not necessary.  The
        first slot of a variant-single H unit always starts from frame 0, so
        its theta angle may ignore the frame bit: every branch of the whole
        pattern stays right and brute force accepts it, but the slot check,
        which also tries incoming frame x0 = 1, refuses it."""
        pat = compile_circuit(CircuitDescription(1, (CircuitGate("H", (0,)),)), "single")
        i = pat.slots[0].roles["theta"]
        angle = pat.steps[i].basis_theta
        kept = AdaptiveAngle(angle.value, frozenset(c for c in angle.negate if c >= 2))
        assert kept != angle
        mutant = replace(pat, steps=pat.steps[:i] + (replace(pat.steps[i], basis_theta=kept),) + pat.steps[i + 1:])
        assert _brute_force_valid(mutant)
        rep = verify_pattern(mutant)
        assert not rep.valid and rep.mode == "slotwise"
        assert rep.detail.startswith("slot 0 branches disagree after correction: outcomes [0, 0, 0] under incoming"
                                     " frame {'x0': 1, 'z0': 0}"), rep.detail

    def test_four_qubit_circuits_verified(self):
        c = CircuitDescription(4, (CircuitGate("H", (3,)), CircuitGate("CZ", (0, 3)),
                                   CircuitGate("Rx", (1,), PI / 4), CircuitGate("CZ", (1, 2))))
        for variant in ("single", "two"):
            pat = compile_circuit(c, variant)
            rep = verify_pattern(pat)
            assert rep.valid and rep.mode == "slotwise", (variant, rep)
            last = max(k for k, slot in enumerate(pat.slots) if 0 in slot.qubits)
            broken = _edit_map(pat, last, 2 * pat.slots[last].qubits.index(0), -1)  # a constant X on qubit 0
            rep = verify_pattern(broken)
            assert not rep.valid and rep.detail.startswith("final corrections disagree"), rep

    def test_rotation_slot_step_counts(self):
        assert len(standard_pattern("J", 0.3, "single").steps) == 3
        assert len(standard_pattern("RX", 0.3, "two").steps) == 2
        assert len(standard_pattern("RZ", 0.3, "two").steps) == 2


# the standard patterns of one slot, which verify_pattern checks flat
ONE_SLOT_PATTERNS = (("J", 0.7, "single"), ("ASSIST", None, "single"), ("RX", 1.1, "two"), ("RZ", 2.0, "two"))


def _brute_force_valid(pat, tol=1e-9) -> bool:
    """Every enumerated branch, corrected, equals ``target @ input`` up to a
    global phase on the basis states, |+...+> and |+i...+i>."""
    n = pat.num_qubits
    inputs = list(np.eye(2**n, dtype=complex)) + [
        np.ones(2**n, dtype=complex), reduce(np.kron, [np.array([1.0, 1j])] * n)
    ]
    for amps in inputs:
        inp = PureState(n, amps)
        res = run_pattern(inp.amplitudes, pat)
        if abs(res.probabilities.sum() - 1.0) > 1e-10:
            return False
        if phase_invariant_error(res.branches, pat.target @ inp.amplitudes).max() > tol:
            return False
    return True


def _mutants(pat):
    """Each angle with one outcome bit of its slot dropped or its sign
    flipped, and each slot's frame map with one outcome bit toggled in one
    row."""
    local_qubits = {i: len(slot.qubits) for slot in pat.slots for i in slot.step_indices}
    for i, step in enumerate(pat.steps):
        value, negate = step.basis_theta.value, step.basis_theta.negate
        changed = [AdaptiveAngle(value, negate - {b}) for b in sorted(negate) if b >= 2 * local_qubits[i]]
        changed += [AdaptiveAngle(-value, negate)] if value else []
        for angle in changed:
            steps = pat.steps[:i] + (replace(step, basis_theta=angle),) + pat.steps[i + 1:]
            yield replace(pat, steps=steps)
    for k, slot in enumerate(pat.slots):
        for row in range(2 * len(slot.qubits)):
            for t in range(len(slot.roles)):
                yield _edit_map(pat, k, row, 2 * len(slot.qubits) + t)


class TestSlotwiseVerification:
    def test_routing_by_slot_count(self):
        assert verify_pattern(standard_pattern("CZ", None, "single")).mode == "slotwise"
        for kind, theta, variant in (
            ("J", 0.7, "single"), ("ASSIST", None, "single"), ("RX", 1.1, "two"), ("RZ", 2.0, "two"),
        ):
            assert verify_pattern(standard_pattern(kind, theta, variant)).mode == "flat", kind

    def test_long_slotless_pattern_refused(self):
        """A slotless pattern longer than MAX_FLAT_STEPS has no stages to walk
        and is too long to enumerate whole."""
        step = AdqcStep((0,), ("RX_CANON",), AncillaSpec(0.0, 0.0), AdaptiveAngle(0.0))
        pat = GatePattern(1, (step,) * (patterns.MAX_FLAT_STEPS + 1), np.eye(2))
        with pytest.raises(ValueError, match="^pattern too long for flat enumeration and has no slots$"):
            verify_pattern(pat)

    def test_verdicts_match_brute_force(self):
        """On multi-slot patterns of at most 13 steps and a seeded subset of
        their mutants, the slot walk accepts exactly what enumerating every
        branch of the whole pattern accepts."""
        rng = np.random.default_rng(23)
        patterns = [(standard_pattern("CZ", None, "single"), 1)]
        for variant, gate_counts in (("single", (1, 1)), ("two", (1, 1, 2))):
            for count in gate_counts:
                gates = tuple(
                    CircuitGate(kind, (0,), None if kind == "H" else float(rng.uniform(-PI, PI)))
                    for kind in rng.choice(["H", "Rx", "Rz"], count)
                )
                picks = 8 if count == 1 else 6  # a 12-step brute force costs 3x a 10-step one
                patterns.append((compile_circuit(CircuitDescription(1, gates), variant), picks))
        verdicts = []
        for pat, picks in patterns:
            assert len(pat.slots) > 1 and len(pat.steps) <= 13
            mutants = list(_mutants(pat))
            chosen = [pat] + [mutants[m] for m in rng.choice(len(mutants), picks, replace=False)]
            for candidate in chosen:
                rep = verify_pattern(candidate)
                assert rep.mode == "slotwise"
                assert rep.valid == _brute_force_valid(candidate), rep
                verdicts.append(rep.valid)
        assert (len(verdicts), verdicts.count(False)) == (45, 37)

    def test_flat_verdicts_match_brute_force(self):
        """On the four one-slot standard patterns and every one of their
        mutants, the flat check on the Choi input accepts exactly what the
        spanning-input oracle accepts."""
        verdicts = []
        for kind, theta, variant in ONE_SLOT_PATTERNS:
            pat = standard_pattern(kind, theta, variant)
            for candidate in [pat] + list(_mutants(pat)):
                rep = verify_pattern(candidate)
                assert rep.mode == "flat"
                assert rep.valid == _brute_force_valid(candidate), (kind, rep)
                verdicts.append(rep.valid)
        assert (len(verdicts), verdicts.count(False)) == (24, 20)

    @staticmethod
    def _widened(pat, k, q, row, t):
        """``pat`` with qubit q added to slot k's frame map, which carries
        q's frame across unchanged but for the slot's outcome t read into its
        X (row 0) or Z (row 1) bit; the slot's outcome bits move up by two."""
        slot = pat.slots[k]
        m, steps = len(slot.qubits), slot.step_indices
        old = slot.frame_map
        frame_map = np.zeros((2 * m + 2, old.shape[1] + 2), dtype=np.int8)
        frame_map[:2 * m, :2 * m], frame_map[:2 * m, 2 * m + 2:] = old[:, :2 * m], old[:, 2 * m:]
        frame_map[2 * m, 2 * m] = frame_map[2 * m + 1, 2 * m + 1] = 1
        frame_map[2 * m + row, 2 * m + 2 + t] = 1

        def moved(cols):
            return frozenset(c if c < 2 * m else c + 2 for c in cols)

        wide = replace(slot, qubits=slot.qubits + (q,), frame_map=frame_map, theta_negate=moved(slot.theta_negate),
                       gamma_negate=moved(slot.gamma_negate))
        steps_out = list(pat.steps)
        for i in steps:
            angle = pat.steps[i].basis_theta
            steps_out[i] = replace(pat.steps[i], basis_theta=AdaptiveAngle(angle.value, moved(angle.negate)))
        return replace(pat, steps=tuple(steps_out), slots=pat.slots[:k] + (wide,) + pat.slots[k + 1:])

    def test_boundary_frame_of_an_untouched_qubit_checked(self):
        """A slot's outcome bit toggled into the outgoing frame of a qubit the
        slot does not touch is rejected at that slot: the map that changes
        the qubit's frame makes it local to the slot."""
        rng = np.random.default_rng(31)
        mutants = rejected = 0
        for i in range(6):
            n = 2 + i % 3
            gates = []
            for kind in rng.choice(["H", "Rx", "Rz", "CZ"], int(rng.integers(1, 4))):
                if kind == "CZ":
                    gates.append(CircuitGate("CZ", tuple(int(q) for q in rng.choice(n, 2, replace=False))))
                else:
                    angle = None if kind == "H" else float(rng.uniform(-PI, PI))
                    gates.append(CircuitGate(str(kind), (int(rng.integers(n)),), angle))
            pat = compile_circuit(CircuitDescription(n, tuple(gates)), ("single", "two")[i % 2])
            for k, slot in enumerate(pat.slots):
                for q in set(range(n)) - set(slot.qubits):
                    for t in range(len(slot.step_indices)):
                        for row in (0, 1):
                            rep = verify_pattern(self._widened(pat, k, q, row, t))
                            mutants += 1
                            if not rep.valid:
                                rejected += 1
                                assert rep.detail.startswith(f"slot {k} branches disagree after correction")
        assert (mutants, rejected) == (444, 444)

    @staticmethod
    def _broken_boundaries(pat, slots):
        """``pat`` with each listed slot's last outcome bit toggled into the
        outgoing X bit of its first qubit."""
        for k in slots:
            slot = pat.slots[k]
            pat = _edit_map(pat, k, 0, 2 * len(slot.qubits) + len(slot.roles) - 1)
        return pat

    def test_first_failing_slot_named_across_batches(self):
        """Slots 0-3 and 5-7 of the variant-two CZ are one-qubit slots, run in
        the RZ and RX batches, and the CZ2 slot 4 runs in a batch of its own.
        With slots 4 and 6 both broken, the report names slot 4, exactly as
        when only slot 4 is broken."""
        pat = standard_pattern("CZ", None, "two")
        assert [sl.kind for sl in pat.slots][4] == "CZ2"
        both = verify_pattern(self._broken_boundaries(pat, (4, 6)))
        assert not both.valid
        assert both.detail.startswith("slot 4 branches disagree after correction"), both.detail
        assert both == verify_pattern(self._broken_boundaries(pat, (4,)))
        assert verify_pattern(self._broken_boundaries(pat, (6,))).detail.startswith("slot 6 branches")

    def test_the_first_of_two_broken_slots_is_named(self):
        """For every pair of broken slots of either CZ pattern, in whatever
        batches they run, the report equals the one for the earlier slot
        alone."""
        for variant in ("single", "two"):
            pat = standard_pattern("CZ", None, variant)
            for b in range(len(pat.slots)):
                for a in range(b):
                    rep = verify_pattern(self._broken_boundaries(pat, (a, b)))
                    assert rep.detail.startswith(f"slot {a} branches disagree after correction"), (variant, a, b)
                    assert rep == verify_pattern(self._broken_boundaries(pat, (a,)))

    def test_incomplete_kraus_pairs_named(self, monkeypatch):
        """Coupling blocks scaled by 0.9 in one slot keep every branch
        proportional to the right operator; only the completeness check sees
        that sum_b K_b^dagger K_b = 0.81 I, and names the slot."""
        import adqc.register as register

        pat = standard_pattern("CZ", None, "two")
        labels = cz2_spec("two").labels
        slot = [sl.kind for sl in pat.slots].index("CZ2")
        exact = register.coupling_blocks

        def scaled(step_labels):
            blocks = exact(step_labels)
            return 0.9 * blocks if step_labels == labels else blocks

        monkeypatch.setattr(register, "coupling_blocks", scaled)
        rep = verify_pattern(pat)
        assert not rep.valid
        assert rep.detail.startswith(f"slot {slot} branches are incomplete"), rep.detail
        assert "under incoming frame {" in rep.detail

    @pytest.mark.parametrize("kind, theta, variant", ONE_SLOT_PATTERNS)
    def test_incomplete_flat_pattern_refused(self, monkeypatch, kind, theta, variant):
        """Coupling blocks scaled by 0.9 leave every branch of a one-slot
        pattern proportional to its target; only the probability sum, 0.81
        per step, tells that the branches are incomplete."""
        import adqc.register as register

        exact = register.coupling_blocks
        monkeypatch.setattr(register, "coupling_blocks", lambda labels: 0.9 * exact(labels))
        rep = verify_pattern(standard_pattern(kind, theta, variant))
        assert not rep.valid and rep.mode == "flat"
        assert rep.detail == "probabilities do not sum to 1", rep.detail

    def test_slots_must_cover_every_step_in_order(self):
        """Slot-wise verification runs only the steps the slots list, so a
        pattern whose slots miss, reorder or drop steps is refused."""
        pat = standard_pattern("CZ", None, "two")
        extra = AdqcStep((0,), ("J_CANON",), AncillaSpec(0.0, 0.0), AdaptiveAngle(0.0))
        slots = pat.slots
        for fields in (
            {"steps": pat.steps + (extra,)},
            {"slots": (slots[1], slots[0]) + slots[2:]},
            {"slots": slots[:3] + slots[4:]},
            {"slots": (replace(slots[0], frame_map=slots[0].frame_map[:, :-1]),) + slots[1:]},
        ):
            with pytest.raises(ValueError):
                replace(pat, **fields)


class TestFrameDataSize:
    @staticmethod
    def _entries(pattern) -> int:
        """Frame-map entries plus every angle-set index the pattern stores."""
        slots = sum(slot.frame_map.size + len(slot.theta_negate) + len(slot.gamma_negate) for slot in pattern.slots)
        return slots + sum(len(step.basis_theta.negate) for step in pattern.steps)

    def test_grows_linearly_with_the_gate_count(self):
        """One-qubit H circuits in variant two: ten times the gates store at
        most eleven times the frame data, each slot holding its own map."""
        small, large = (self._entries(compile_circuit(CircuitDescription(1, (CircuitGate("H", (0,)),) * gates), "two"))
                        for gates in (100, 1000))
        assert large <= 11 * small, (small, large)


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

    @pytest.mark.parametrize("variant", ["single", "two"])
    def test_a_wrong_compile_is_caught_downstream(self, monkeypatch, variant):
        """The builder states ``circuit.unitary()`` as the target without
        multiplying its slots; a compile that fills an H unit with Rx(pi/2)
        still builds, and both the final product check of ``verify_pattern``
        and the delegation fidelity refuse it."""
        from adqc.protocol import ClientSecret, run_delegation

        monkeypatch.setitem(patterns._UNIT_FILLING, "H", lambda ang: (0.0, PI / 2, 0.0))
        c = CircuitDescription(1, (CircuitGate("H", (0,)),))
        rep = verify_pattern(compile_circuit(c, variant))
        assert not rep.valid
        assert rep.detail.startswith("final corrections disagree with the target"), rep.detail
        secret = ClientSecret(c, variant, 8, 3)
        assert run_delegation(secret, seed=4, mode="sample").fidelity < 1 - 1e-9
        assert run_delegation(secret, seed=4, mode="enumerate").worst_branch_fidelity < 1 - 1e-9

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


class TestAngleBoundary:
    @pytest.mark.parametrize(
        "kind, theta, variant, message",
        [
            ("J", "1.1", "single", "J angle must be a real number"),
            ("RX", True, "two", "RX angle must be a real number"),
            ("J", float("nan"), "single", "J angle must be finite, got nan"),
            ("RZ", float("inf"), "two", "RZ angle must be finite, got inf"),
            ("CZ", 0.3, "single", "CZ takes no angle"),
            ("ASSIST", 0.3, "single", "ASSIST takes no angle"),
            ("RX", None, "two", "RX needs an angle"),
            pytest.param("RX", 10**400, "two", "RX angle is too large for a float", id="RX-10**400"),
            pytest.param("J", -(10**400), "single", "J angle is too large for a float", id="J--10**400"),
        ],
    )
    def test_standard_pattern_refuses_a_bad_angle(self, kind, theta, variant, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            standard_pattern(kind, theta, variant)


class TestFrozenSlotData:
    def test_two_variant_decomposition_identity(self):
        """The two-target slot unitary factors as locals around an exact CZ."""
        from adqc.linalg import S_GATE, Z

        u2 = cz2_spec("two").slot_target
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
            got = invariants(cz2_spec(variant).slot_target)
            np.testing.assert_allclose(got, ref, atol=1e-10)

    @pytest.mark.parametrize("variant", ["single", "two"])
    def test_cached_spec_equals_a_fresh_build(self, variant):
        spec, fresh = cz2_spec(variant), patterns._build_cz2(variant)
        assert cz2_spec(variant) is spec
        for f in dataclasses.fields(spec):
            got, want = getattr(spec, f.name), getattr(fresh, f.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want), f.name
            else:
                assert got == want, f.name

    def test_unknown_variant_refused(self):
        with pytest.raises(ValueError, match="unknown variant"):
            cz2_spec("three")
        with pytest.raises(ValueError, match="^unknown variant 'three'$"):
            compile_circuit(CircuitDescription(1, (CircuitGate("H", (0,)),)), "three")
        with pytest.raises(ValueError, match="^unknown variant 'three'$"):
            standard_pattern("J", 0.7, "three")


PAYLOAD = 1 << 20  # index i + PAYLOAD names step i's coin in an absolute frame


def _absolute(pattern):
    """The pattern's frames as absolute (parity set, constant) pairs over
    every outcome (index i) and coin (index i + PAYLOAD), carried through the
    slot maps: each step's angle set, each slot's two angle sets, the frame
    after each slot, and the final correction, the frame after the last."""
    frame = [(frozenset(), 0)] * (2 * pattern.num_qubits)
    angles, slot_sets, boundaries = {}, [], []
    for slot in pattern.slots:
        steps = slot.step_indices
        local = ([frame[r] for r in slot.frame_rows] + [(frozenset({i}), 0) for i in steps]
                 + [(frozenset({i + PAYLOAD}), 0) for i in steps] + [(frozenset(), 1)])

        def resolve(cols):
            return reduce(lambda a, b: (a[0] ^ b[0], a[1] ^ b[1]), (local[c] for c in cols), (frozenset(), 0))

        angles.update((i, resolve(pattern.steps[i].basis_theta.negate)) for i in steps)
        slot_sets.append((resolve(slot.theta_negate), resolve(slot.gamma_negate)))
        for r, row in zip(slot.frame_rows, slot.frame_map):
            frame[r] = resolve(np.flatnonzero(row))
        boundaries.append(list(frame))
    return angles, slot_sets, boundaries, frame


def _canonical(pattern) -> list:
    """Steps, corrections, slots and slot boundaries, every set sorted, in
    the absolute form ``_absolute`` derives from the slot maps: an angle's
    value carries the sign of its set's constant."""
    angles, slot_sets, boundaries, final = _absolute(pattern)

    def frames(frame):
        return [[sorted(frame[2 * q][0]), frame[2 * q][1], sorted(frame[2 * q + 1][0]), frame[2 * q + 1][1]]
                for q in range(pattern.num_qubits)]

    steps = [
        [list(s.targets), list(s.entangler_labels), s.ancilla.gamma, s.ancilla.delta,
         [[(-1.0 if angles[i][1] else 1.0) * s.basis_theta.value, sorted(angles[i][0])]], 0.0]
        for i, s in enumerate(pattern.steps)
    ]
    slots = []
    for sl, (theta, gamma) in zip(pattern.slots, slot_sets):
        assert sl.theta_sign == (-1 if theta[1] else 1) and not gamma[1]
        slots.append([sl.kind, list(sl.qubits), sl.theta_prime, list(sl.step_indices), sorted(sl.roles.items()),
                      sorted(theta[0]), sl.theta_sign, sorted(gamma[0])])
    return [steps, frames(final), slots, [frames(b) for b in boundaries]]


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

    @staticmethod
    def _patterns():
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
        return standard + compiled

    def test_built_patterns_are_pinned(self):
        doc = json.dumps([_canonical(p) for p in self._patterns()])
        assert hashlib.sha256(doc.encode()).hexdigest() == self.PINNED

    def test_payload_indices_name_two_target_steps(self):
        """A slot map reads the coin of a two-target step only: a delegation
        reads each round's coin there as that step's payload flip, so a coin
        column of any other step would mis-fold the frame.  The absolute
        frames derived from the maps name those coins only, too."""
        named = 0
        for p in self._patterns():
            for slot in p.slots:
                m, k = len(slot.qubits), len(slot.roles)
                for t, i in enumerate(slot.step_indices):
                    if slot.frame_map[:, 2 * m + k + t].any():
                        assert len(p.steps[i].targets) == 2, i
                        named += 1
            angles, slot_sets, boundaries, final = _absolute(p)
            sets = [s for s, _ in angles.values()] + [s for pair in slot_sets for s, _ in pair]
            sets += [s for frame in boundaries for s, _ in frame]
            assert all(len(p.steps[i - PAYLOAD].targets) == 2 for i in frozenset().union(*sets) if i >= PAYLOAD)
        assert named > 0
