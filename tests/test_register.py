"""The stepping machine: forced/sampled measurement, enumeration, frames."""

import math

import numpy as np
import pytest

from adqc.core import AncillaSpec, rotation
from adqc.linalg import CZ, PAULIS, PureState, X, equal_up_to_global_phase, tensor
from adqc.register import (
    PAULI_NAMES,
    AdaptiveAngle,
    AdqcStep,
    GatePattern,
    QubitCorrection,
    execute_step,
    init_register,
    run_pattern,
)
from adqc.patterns import CircuitDescription, CircuitGate, compile_circuit, standard_pattern

PI = math.pi


def _gamma_step(q=0, gamma=0.0, theta=0.0, label="CZ_CANON"):
    return AdqcStep((q,), (label,), AncillaSpec(gamma, 0), AdaptiveAngle.constant(theta))


class TestInitRegister:
    def test_single_zero(self):
        st = init_register(1, "0")
        np.testing.assert_allclose(st.register.amplitudes, [1, 0])

    def test_uniform_two(self):
        st = init_register(2, "++")
        np.testing.assert_allclose(st.register.amplitudes, [0.5] * 4)

    def test_tilted_input_state(self):
        t, p = 2 * PI / 3, PI / 5
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / math.sqrt(2)
        psi = math.cos(t / 2) * plus + np.exp(1j * p) * math.sin(t / 2) * minus
        st = init_register(1, PureState(1, psi))
        assert abs(np.linalg.norm(st.register.amplitudes) - 1) < 1e-12

    def test_size_limits(self):
        with pytest.raises(ValueError):
            init_register(0)
        with pytest.raises(ValueError):
            init_register(5)


class TestExecuteStep:
    def test_forced_rotation_branch(self):
        g = 0.9
        st = init_register(1, "0")
        new, s = execute_step(st, _gamma_step(gamma=g), outcome=0)
        assert s == 0
        expect = rotation("x", g) @ np.array([1, 0])
        assert equal_up_to_global_phase(
            new.register.amplitudes.reshape(2, 1), expect.reshape(2, 1), 1e-10
        )

    def test_forced_flip_branch(self):
        g = 0.9
        st = init_register(1, "0")
        new, s = execute_step(st, _gamma_step(gamma=g), outcome=1)
        expect = X @ rotation("x", -g) @ np.array([1, 0])
        assert equal_up_to_global_phase(
            new.register.amplitudes.reshape(2, 1), expect.reshape(2, 1), 1e-10
        )

    def test_branch_probabilities_half_on_protocol_rows(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            st = init_register(2, PureState(2, amps))
            g = rng.uniform(0, 2 * PI)
            step = _gamma_step(q=rng.integers(2), gamma=g)
            # forced branches carry probability 1/2 regardless of the register
            from adqc.register import step_branch_operators

            theta = 0.0
            ops = step_branch_operators(step, theta, 2)
            v0 = ops[0] @ st.register.amplitudes
            assert abs(float(np.vdot(v0, v0).real) - 0.5) < 1e-10

    def test_impossible_branch_rejected(self):
        # an ancilla measured along its own preparation never yields outcome 1
        step = AdqcStep(
            (0,),
            ("CZ_CANON",),
            AncillaSpec(PI / 2, 0),
            AdaptiveAngle.constant(PI / 2),
        )
        st = init_register(1, "0")
        with pytest.raises(ValueError):
            execute_step(st, step, outcome=1)

    def test_forced_outcome_outside_zero_one_rejected(self):
        st = init_register(1, "0")
        for outcome in (-1, 2):
            with pytest.raises(ValueError):
                execute_step(st, _gamma_step(gamma=0.9), outcome=outcome)

    def test_sampled_is_seed_deterministic(self):
        step = _gamma_step(gamma=1.1)
        outs = []
        for _ in range(3):
            st = init_register(1, "+")
            rng = np.random.default_rng(77)
            _, s = execute_step(st, step, rng=rng)
            outs.append(s)
        assert len(set(outs)) == 1


class TestRunPattern:
    def test_probabilities_sum_to_one(self):
        pat = standard_pattern("J", 0.9, "single")
        res = run_pattern(init_register(1, "+"), pat, mode="enumerate")
        assert abs(res.total_probability() - 1.0) < 1e-10

    def test_j_zero_maps_plus_to_ground(self):
        pat = standard_pattern("J", 0.0, "single")
        res = run_pattern(init_register(1, "+"), pat, mode="enumerate")
        for br in res.branches:
            assert equal_up_to_global_phase(
                br.corrected.amplitudes.reshape(2, 1),
                np.array([[1.0], [0.0]]),
                1e-9,
            )

    def test_cz_pattern_on_plus_plus(self):
        pat = standard_pattern("CZ", None, "two")
        res = run_pattern(init_register(2, "++"), pat, mode="enumerate")
        expect = CZ @ init_register(2, "++").register.amplitudes
        assert abs(res.total_probability() - 1.0) < 1e-10
        for br in res.branches:
            assert equal_up_to_global_phase(
                br.corrected.amplitudes.reshape(4, 1), expect.reshape(4, 1), 1e-9
            )

    def test_frame_soundness_exact(self):
        pat = standard_pattern("RX", 1.3, "two")
        res = run_pattern(init_register(1, "+"), pat, mode="enumerate")
        for br in res.branches:
            op = np.array([[1.0]], dtype=complex)
            for name in br.frame:
                op = np.kron(op, PAULIS[name])
            redo = op @ br.raw.register.amplitudes
            assert np.array_equal(redo, br.corrected.amplitudes)

    def test_sampled_trajectories_reproducible(self):
        pat = standard_pattern("J", 0.7, "single")
        a = run_pattern(init_register(1, "+"), pat, mode="sample", seed=5)
        b = run_pattern(init_register(1, "+"), pat, mode="sample", seed=5)
        assert a.branches[0].outcomes == b.branches[0].outcomes
        assert np.array_equal(
            a.branches[0].corrected.amplitudes, b.branches[0].corrected.amplitudes
        )

    def test_two_target_coupling_is_entangling(self):
        """One two-target step plus its Pauli corrections acts as a fixed
        entangling gate on the register."""
        from adqc.patterns import CZ2_SPECS, CZ_SLOT_ANCILLA

        spec = CZ2_SPECS["two"]
        step = AdqcStep((0, 1), spec.labels, CZ_SLOT_ANCILLA, AdaptiveAngle.constant(0.0))
        rng = np.random.default_rng(4)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        st = init_register(2, PureState(2, amps))
        for s in (0, 1):
            new, _ = execute_step(st, step, outcome=s)
            # frame bits after the slot from a clean frame, outcome s, unflipped payload
            x1, z1, x2, z2 = spec.frame_map @ np.array([0, 0, 0, 0, s, 0, 1]) % 2
            corr = tensor(PAULIS[PAULI_NAMES[x1 + 2 * z1]], PAULIS[PAULI_NAMES[x2 + 2 * z2]])
            got = corr @ new.register.amplitudes
            expect = spec.slot_target @ st.register.amplitudes
            assert equal_up_to_global_phase(
                got.reshape(4, 1), (expect / np.linalg.norm(expect)).reshape(4, 1), 1e-9
            )


class TestStepValidation:
    def test_dependencies_must_be_earlier(self):
        bad = AdqcStep(
            (0,),
            ("CZ_CANON",),
            AncillaSpec(0, 0),
            AdaptiveAngle(((1.0, frozenset({5})),)),
        )
        with pytest.raises(ValueError):
            GatePattern(
                num_qubits=1,
                steps=(bad,),
                target=np.eye(2, dtype=complex),
                target_qubits=(0,),
                corrections=(QubitCorrection(),),
            )

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError):
            AdqcStep((0, 0), ("CZ_CANON", "CZ_CANON"), AncillaSpec(0, 0), AdaptiveAngle.constant(0))

    def test_correction_table_extensional(self):
        pat = standard_pattern("RX", 0.5, "two")
        table = pat.correction_table()
        assert len(table) == 2 ** len(pat.steps)
        for outs, frame in table.items():
            assert frame == pat.correction_for(outs)


class TestKernelCrossCheck:
    """run_pattern's batched enumeration against a step-by-step execute_step
    replay, and sample mode against enumeration, on the six standard patterns
    and one compiled two-qubit circuit per variant."""

    PATTERNS = (
        ("J", 0.7, "single"),
        ("ASSIST", None, "single"),
        ("CZ", None, "single"),
        ("RX", 1.1, "two"),
        ("RZ", 2.0, "two"),
        ("CZ", None, "two"),
    )
    # replaying every branch of the 13- and 15-step CZ patterns would take
    # tens of thousands of execute_step calls; larger runs replay a seeded subset
    MAX_REPLAYS = 256

    def _patterns(self):
        for kind, theta, variant in self.PATTERNS:
            yield standard_pattern(kind, theta, variant)
        circuit = CircuitDescription(2, (CircuitGate("Rz", (1,), PI / 4),))
        for variant in ("single", "two"):
            yield compile_circuit(circuit, variant)

    def _input(self, n, rng):
        amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        return init_register(n, PureState(n, amps))

    def test_enumerated_branches_match_step_replay(self):
        rng = np.random.default_rng(31)
        for pat in self._patterns():
            start = self._input(pat.num_qubits, rng)
            branches = run_pattern(start, pat, mode="enumerate").branches
            if len(branches) > self.MAX_REPLAYS:
                picks = sorted(rng.choice(len(branches), self.MAX_REPLAYS, replace=False))
                branches = [branches[i] for i in picks]
            replayed = {(): start}  # outcome prefix -> replayed state
            for br in branches:
                for k in range(len(br.outcomes)):
                    prefix = br.outcomes[: k + 1]
                    if prefix not in replayed:
                        replayed[prefix], _ = execute_step(
                            replayed[prefix[:-1]], pat.steps[k], outcome=prefix[-1]
                        )
                got = replayed[br.outcomes]
                assert got.outcome_log == br.outcomes
                np.testing.assert_allclose(
                    got.register.amplitudes, br.raw.register.amplitudes, rtol=0, atol=1e-12
                )

    def test_sampled_trajectory_is_an_enumerated_branch(self):
        rng = np.random.default_rng(32)
        for pat in self._patterns():
            start = self._input(pat.num_qubits, rng)
            enumerated = {br.outcomes: br for br in run_pattern(start, pat).branches}
            for seed in range(4):
                (br,) = run_pattern(start, pat, mode="sample", seed=seed).branches
                ref = enumerated[br.outcomes]
                assert br.frame == ref.frame
                assert abs(br.probability - ref.probability) < 1e-12
                np.testing.assert_allclose(
                    br.corrected.amplitudes, ref.corrected.amplitudes, rtol=0, atol=1e-12
                )
