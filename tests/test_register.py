"""The stepping machine: forced/sampled measurement, enumeration, frames."""

import itertools
import math

import numpy as np
import pytest

from adqc.core import AncillaSpec, MeasBasis, assemble_entangler, preset, preset_labels, rotation
from adqc.linalg import CZ, PAULIS, PureState, X, dagger, embed, equal_up_to_global_phase, tensor
from adqc.register import (
    KRAUS_CACHE_SIZE,
    PARITY_CACHE_SIZE,
    PAULI_NAMES,
    PAYLOAD_BIT,
    AdaptiveAngle,
    AdqcStep,
    GatePattern,
    QubitCorrection,
    PRUNE_PROBABILITY,
    branch_operators,
    branch_step,
    frame_bits,
    init_register,
    parities,
    parity_table,
    run_pattern,
    step_branch_operators,
)
from adqc.patterns import CircuitDescription, CircuitGate, compile_circuit, standard_pattern, verify_pattern
from adqc.protocol import Message, _message_operators, grid_angle, pattern_shape, server_step

PI = math.pi


def _gamma_step(q=0, gamma=0.0, theta=0.0, label="CZ_CANON"):
    return AdqcStep((q,), (label,), AncillaSpec(gamma, 0), AdaptiveAngle.constant(theta))


def _step_once(state, step, outcome=None, rng=None, outcomes=()):
    """One forced or sampled step of a single register: a one-row
    ``branch_step`` with the step's Kraus pair at the angle its earlier
    ``outcomes`` resolve.  Returns (new state, outcome bit)."""
    n = state.num_qubits
    ops = step_branch_operators(step, step.basis_theta.resolve(outcomes), n)
    vecs, _, out, _ = branch_step(state.amplitudes[None], [ops], np.zeros(1, dtype=int), outcome, rng)
    return PureState.unchecked(n, vecs[0]), int(out[0])


class TestInitRegister:
    def test_single_zero(self):
        st = init_register(1, "0")
        np.testing.assert_allclose(st.amplitudes, [1, 0])

    def test_uniform_two(self):
        st = init_register(2, "++")
        np.testing.assert_allclose(st.amplitudes, [0.5] * 4)

    def test_tilted_input_state(self):
        t, p = 2 * PI / 3, PI / 5
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / math.sqrt(2)
        psi = math.cos(t / 2) * plus + np.exp(1j * p) * math.sin(t / 2) * minus
        st = init_register(1, PureState(1, psi))
        assert abs(np.linalg.norm(st.amplitudes) - 1) < 1e-12

    def test_size_limits(self):
        with pytest.raises(ValueError):
            init_register(0)
        with pytest.raises(ValueError):
            init_register(5)
        with pytest.raises(ValueError, match="label length"):
            init_register(2, "0")
        with pytest.raises(ValueError, match="size mismatch"):
            init_register(2, PureState(1, np.array([1.0, 0.0])))


class TestExecuteStep:
    """One step of a single register, forced or sampled, through a one-row
    ``branch_step``."""

    def test_forced_rotation_branch(self):
        g = 0.9
        st = init_register(1, "0")
        new, s = _step_once(st, _gamma_step(gamma=g), outcome=0)
        assert s == 0
        expect = rotation("x", g) @ np.array([1, 0])
        assert equal_up_to_global_phase(
            new.amplitudes.reshape(2, 1), expect.reshape(2, 1), 1e-10
        )

    def test_forced_flip_branch(self):
        g = 0.9
        st = init_register(1, "0")
        new, s = _step_once(st, _gamma_step(gamma=g), outcome=1)
        expect = X @ rotation("x", -g) @ np.array([1, 0])
        assert equal_up_to_global_phase(
            new.amplitudes.reshape(2, 1), expect.reshape(2, 1), 1e-10
        )

    def test_branch_probabilities_half_on_protocol_rows(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            amps = rng.normal(size=4) + 1j * rng.normal(size=4)
            st = init_register(2, PureState(2, amps))
            g = rng.uniform(0, 2 * PI)
            step = _gamma_step(q=rng.integers(2), gamma=g)
            # forced branches carry probability 1/2 regardless of the register
            theta = 0.0
            ops = step_branch_operators(step, theta, 2)
            v0 = ops[0] @ st.amplitudes
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
            _step_once(st, step, outcome=1)

    def test_forced_outcome_outside_zero_one_rejected(self):
        st = init_register(1, "0")
        for outcome in (-1, 2):
            with pytest.raises(ValueError):
                _step_once(st, _gamma_step(gamma=0.9), outcome=outcome)

    def test_sampled_is_seed_deterministic(self):
        step = _gamma_step(gamma=1.1)
        outs = []
        for _ in range(3):
            st = init_register(1, "+")
            rng = np.random.default_rng(77)
            _, s = _step_once(st, step, rng=rng)
            outs.append(s)
        assert len(set(outs)) == 1


class TestRunPattern:
    def test_probabilities_sum_to_one(self):
        pat = standard_pattern("J", 0.9, "single")
        res = run_pattern(init_register(1, "+"), pat)
        assert abs(res.total_probability() - 1.0) < 1e-10

    def test_j_zero_maps_plus_to_ground(self):
        pat = standard_pattern("J", 0.0, "single")
        res = run_pattern(init_register(1, "+"), pat)
        for br in res.branches:
            assert equal_up_to_global_phase(
                br.corrected.amplitudes.reshape(2, 1),
                np.array([[1.0], [0.0]]),
                1e-9,
            )

    def test_cz_pattern_on_plus_plus(self):
        pat = standard_pattern("CZ", None, "two")
        res = run_pattern(init_register(2, "++"), pat)
        expect = CZ @ init_register(2, "++").amplitudes
        assert abs(res.total_probability() - 1.0) < 1e-10
        for br in res.branches:
            assert equal_up_to_global_phase(
                br.corrected.amplitudes.reshape(4, 1), expect.reshape(4, 1), 1e-9
            )

    def test_frame_soundness_exact(self):
        pat = standard_pattern("RX", 1.3, "two")
        res = run_pattern(init_register(1, "+"), pat)
        for br in res.branches:
            op = np.array([[1.0]], dtype=complex)
            for name in br.frame:
                op = np.kron(op, PAULIS[name])
            redo = op @ br.raw.amplitudes
            assert np.array_equal(redo, br.corrected.amplitudes)

    def test_sampled_trajectories_reproducible(self):
        """A pattern sampled step by step from one seed takes the same
        outcomes and ends in the same state each time, and that trajectory is
        an enumerated branch."""
        pat = standard_pattern("J", 0.7, "single")
        runs = []
        for _ in range(2):
            rng, state, outcomes = np.random.default_rng(5), init_register(1, "+"), ()
            for step in pat.steps:
                state, s = _step_once(state, step, rng=rng, outcomes=outcomes)
                outcomes += (s,)
            runs.append((outcomes, state))
        (a, state_a), (b, state_b) = runs
        assert a == b and np.array_equal(state_a.amplitudes, state_b.amplitudes)
        (br,) = [br for br in run_pattern(init_register(1, "+"), pat).branches if br.outcomes == a]
        np.testing.assert_allclose(state_a.amplitudes, br.raw.amplitudes, rtol=0, atol=1e-12)

    def test_two_target_coupling_is_entangling(self):
        """One two-target step plus its Pauli corrections acts as a fixed
        entangling gate on the register."""
        from adqc.patterns import CZ_SLOT_ANCILLA, cz2_spec

        spec = cz2_spec("two")
        step = AdqcStep((0, 1), spec.labels, CZ_SLOT_ANCILLA, AdaptiveAngle.constant(0.0))
        rng = np.random.default_rng(4)
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        st = init_register(2, PureState(2, amps))
        for s in (0, 1):
            new, _ = _step_once(st, step, outcome=s)
            # frame bits after the slot from a clean frame, outcome s, unflipped payload
            x1, z1, x2, z2 = spec.frame_map @ np.array([0, 0, 0, 0, s, 0, 1]) % 2
            corr = tensor(PAULIS[PAULI_NAMES[x1 + 2 * z1]], PAULIS[PAULI_NAMES[x2 + 2 * z2]])
            got = corr @ new.amplitudes
            expect = spec.slot_target @ st.amplitudes
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

    @pytest.mark.parametrize("target", [-1, 0.5, 2, np.int64(-3)])
    def test_targets_outside_the_register_name_the_step(self, target):
        good = AdqcStep((0,), ("CZ_CANON",), AncillaSpec(0, 0), AdaptiveAngle.constant(0))
        bad = AdqcStep((target,), ("CZ_CANON",), AncillaSpec(0, 0), AdaptiveAngle.constant(0))
        with pytest.raises(ValueError, match="step 1 targets"):
            GatePattern(2, (good, bad), np.eye(4, dtype=complex), (0, 1), (QubitCorrection(),) * 2)


def _uncached_branch_operators(step, theta, n, payload=None):
    """step_branch_operators with nothing cached: the coupling, the payload
    and the measurement bras are rebuilt on every call."""
    ents = [preset(lbl) for lbl in step.entangler_labels]
    total = np.eye(2 ** (n + 1), dtype=complex)
    for tgt, ent in zip(step.targets, ents):
        total = embed(assemble_entangler(ent), (n, tgt), n + 1) @ total
    if payload is None:
        payload = dagger(ents[0].frame.v_a) @ step.ancilla.ket().amplitudes
    bras = [ents[-1].frame.w_a @ b.amplitudes for b in MeasBasis(theta, step.basis_phi).bra_states()]
    t = total.reshape(2**n, 2, 2**n, 2)
    return np.stack([np.einsum("a,iajb,b->ij", b.conj(), t, payload) for b in bras])


class TestCouplingCache:
    def test_cached_coupling_gives_identical_operators(self):
        """Every preset label and label pair on every target layout of 1 to
        3 qubits gives bit-identical Kraus pairs to the uncached build."""
        rng = np.random.default_rng(41)
        labels = preset_labels()
        cases = 0
        for n in (1, 2, 3):
            layouts = [((t,), (lbl,)) for t in range(n) for lbl in labels]
            layouts += [
                (targets, pair)
                for targets in itertools.permutations(range(n), 2)
                for pair in itertools.product(labels, repeat=2)
            ]
            for targets, pair in layouts:
                gamma, delta, theta, phi = rng.uniform(0, 2 * PI, size=4)
                step = AdqcStep(targets, pair, AncillaSpec(gamma, delta),
                                AdaptiveAngle.constant(theta), phi)
                for _ in range(2):  # the second call reads the cache
                    assert np.array_equal(
                        step_branch_operators(step, theta, n), _uncached_branch_operators(step, theta, n)
                    ), (n, targets, pair)
                cases += 1
        assert cases == 6 * 6 + 36 * 8


class TestKrausCache:
    """The bounded Kraus-pair cache under every stepping path."""

    def _message_reference(self, msg, shape, grid_n, n):
        """The uncached Kraus pair of the step ``shape`` driven by ``msg``."""
        if msg.kind == "ANCILLA":
            payload, theta = np.array(msg.payload, dtype=complex), 0.0
        else:
            payload, theta = np.array([1.0, 0.0], dtype=complex), grid_angle(msg.theta_grid, grid_n)
        step = AdqcStep(shape.targets, shape.entangler_labels, AncillaSpec(0.0),
                        AdaptiveAngle.constant(theta), shape.basis_phi)
        return _uncached_branch_operators(step, theta, n, payload)

    def test_message_operators_match_the_uncached_build(self):
        """Seeded ANCILLA and ANGLE messages on every step of a compiled
        three-qubit circuit, in both variants: the server's Kraus pair and
        its post-measurement states equal the uncached build's bit for bit."""
        rng = np.random.default_rng(43)
        circuit = CircuitDescription(3, (
            CircuitGate("Rx", (0,), PI / 4), CircuitGate("CZ", (2, 0)),
            CircuitGate("H", (1,)), CircuitGate("CZ", (1, 2)), CircuitGate("Rz", (2,), 3 * PI / 4),
        ))
        grid_n, n, cases = 8, 3, 0
        for variant in ("single", "two"):
            for shape in pattern_shape(compile_circuit(circuit, variant)):
                if shape.expects == "ANCILLA":
                    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
                    msg = Message("ANCILLA", shape.slot, payload=tuple(amps / np.linalg.norm(amps)))
                else:
                    msg = Message("ANGLE", shape.slot, theta_grid=int(rng.integers(grid_n)))
                want = self._message_reference(msg, shape, grid_n, n)
                assert np.array_equal(_message_operators(msg, shape, grid_n, n), want), shape
                amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
                state = init_register(n, PureState(n, amps))
                for s in (0, 1):
                    got, reply, p = server_step(state, msg, shape, grid_n, outcome=s)
                    ref, _, _, p_ref = branch_step(state.amplitudes[None], [want], np.zeros(1, dtype=int), s)
                    assert reply.bit == s and p == p_ref[0]
                    assert np.array_equal(got.amplitudes, ref[0])
                cases += 1
        assert cases > 20

    def test_theta_and_theta_plus_two_pi_are_separate_entries(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            theta = float(rng.uniform(0, 2 * PI))
            step = _gamma_step(q=1, gamma=float(rng.uniform(0, 2 * PI)), label="J_CANON")
            before = branch_operators.cache_info()
            first = step_branch_operators(step, theta, 2)
            second = step_branch_operators(step, theta + 2 * PI, 2)
            assert branch_operators.cache_info().misses == before.misses + 2
            assert np.array_equal(first, _uncached_branch_operators(step, theta, 2))
            assert np.array_equal(second, _uncached_branch_operators(step, theta + 2 * PI, 2))

    def test_cached_pairs_refuse_writes(self):
        ops = step_branch_operators(_gamma_step(gamma=0.3, theta=0.2), 0.2, 1)
        with pytest.raises(ValueError):
            ops[0, 0, 0] = 0.0
        assert step_branch_operators(_gamma_step(gamma=0.3, theta=0.2), 0.2, 1) is ops

    def test_second_verification_adds_no_misses(self):
        circuit = CircuitDescription(2, (
            CircuitGate("Rz", (0,), 5 * PI / 4), CircuitGate("CZ", (0, 1)), CircuitGate("Rx", (1,), PI / 2),
        ))
        for variant in ("single", "two"):
            pattern = compile_circuit(circuit, variant)
            assert verify_pattern(pattern).valid
            misses = branch_operators.cache_info().misses
            assert verify_pattern(pattern).valid
            assert branch_operators.cache_info().misses == misses

    def test_bound_is_the_module_constant(self):
        assert branch_operators.cache_info().maxsize == KRAUS_CACHE_SIZE


class TestKernelCrossCheck:
    """run_pattern's batched enumeration against a step-by-step replay of
    one-row forced ``branch_step`` calls, on the six standard patterns and one
    compiled two-qubit circuit per variant."""

    PATTERNS = (
        ("J", 0.7, "single"),
        ("ASSIST", None, "single"),
        ("CZ", None, "single"),
        ("RX", 1.1, "two"),
        ("RZ", 2.0, "two"),
        ("CZ", None, "two"),
    )
    # replaying every branch of the 13- and 15-step CZ patterns would take
    # tens of thousands of one-row steps; larger runs replay a seeded subset
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
            branches = run_pattern(start, pat).branches
            if len(branches) > self.MAX_REPLAYS:
                picks = sorted(rng.choice(len(branches), self.MAX_REPLAYS, replace=False))
                branches = [branches[i] for i in picks]
            replayed = {(): start}  # outcome prefix -> replayed state
            for br in branches:
                for k in range(len(br.outcomes)):
                    prefix = br.outcomes[: k + 1]
                    if prefix not in replayed:
                        replayed[prefix], _ = _step_once(
                            replayed[prefix[:-1]], pat.steps[k], outcome=prefix[-1], outcomes=prefix[:-1]
                        )
                np.testing.assert_allclose(
                    replayed[br.outcomes].amplitudes, br.raw.amplitudes, rtol=0, atol=1e-12
                )


class TestBranchStepGrouping:
    """branch_step groups rows by Kraus pair with one sort; its output is bit
    for bit that of selecting each pair's rows with a boolean mask."""

    @staticmethod
    def _masked(states, pairs, which):
        vecs = np.empty((len(states), 2) + states.shape[1:], dtype=complex)
        for g, ops in enumerate(pairs):
            sel = which == g
            vecs[sel] = np.einsum("sij,bj...->bsi...", ops, states[sel])
        re_im = vecs.reshape(len(states), 2, -1).view(float)
        probs = np.einsum("bsi,bsi->bs", re_im, re_im)
        parent, out = np.nonzero(probs >= PRUNE_PROBABILITY)
        p = probs[parent, out]
        return vecs[parent, out] / np.sqrt(p).reshape((-1,) + (1,) * (states.ndim - 1)), parent, out, p

    @pytest.mark.parametrize("num_pairs", [1, 512])
    @pytest.mark.parametrize("trailing", [(), (4,)], ids=["vectors", "choi"])
    def test_matches_the_masked_computation(self, num_pairs, trailing):
        rng = np.random.default_rng(num_pairs)
        rows, dim = 4096, 4
        states = rng.normal(size=(rows, dim) + trailing) + 1j * rng.normal(size=(rows, dim) + trailing)
        states /= np.sqrt((np.abs(states) ** 2).reshape(rows, -1).sum(axis=1)).reshape((-1, 1) + (1,) * len(trailing))
        pairs = [rng.normal(size=(2, dim, dim)) + 1j * rng.normal(size=(2, dim, dim)) for _ in range(num_pairs)]
        which = rng.integers(num_pairs, size=rows)
        got = branch_step(states, pairs, which)
        want = self._masked(states, pairs, which)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def _xor_parity(indices, outcomes, payload_bits):
    """The parity of one set, one XOR per member, as the walker it replaces."""
    p = np.zeros(outcomes.shape[1:], dtype=np.int64)
    for i in indices:
        if i < PAYLOAD_BIT:
            p ^= outcomes[i]
        elif payload_bits is not None:
            p ^= payload_bits[i - PAYLOAD_BIT]
    return p


class TestParityTables:
    """Every outcome parity is read from one cached GF(2) incidence table per
    tuple of sets: (M_out @ bits + M_pay @ payload_bits) & 1."""

    @pytest.mark.parametrize("batch", [1, 4096])
    def test_matches_an_xor_loop(self, batch):
        rng = np.random.default_rng(batch)
        width = 40
        for _ in range(20):
            sets = tuple(
                frozenset(int(i) for i in rng.choice(width, size=rng.integers(0, 12), replace=False))
                | frozenset(PAYLOAD_BIT + int(i) for i in rng.choice(width, size=rng.integers(0, 4), replace=False))
                for _ in range(int(rng.integers(1, 7)))
            )
            outcomes = rng.integers(2, size=(width, batch)).astype(np.int8)
            payload = rng.integers(2, size=(width, batch)).astype(np.int8)
            for pay in (payload, None):
                want = np.array([_xor_parity(s, outcomes, pay) for s in sets])
                assert np.array_equal(parities(sets, outcomes, pay), want)

    def test_more_members_than_int8_holds(self):
        """The int8 products wrap modulo 256, which keeps the parity: sets of
        128, 255 and 300 members over all-one bits."""
        width = 300
        sets = (frozenset(range(128)), frozenset(range(255)), frozenset(range(300)),
                frozenset(range(1, 300)) | frozenset(PAYLOAD_BIT + i for i in range(200)))
        ones = np.ones((width, 3), dtype=np.int8)
        assert parities(sets, ones, ones).tolist() == [[0] * 3, [1] * 3, [0] * 3, [1] * 3]

    def test_one_outcome_record(self):
        """A (steps,) record, as a one-register replay resolves an angle."""
        sets = (frozenset({0, 2}), frozenset({1}), frozenset())
        assert parities(sets, (1, 1, 0)).tolist() == [1, 1, 0]

    def test_tables_are_cached_bounded_and_read_only(self):
        sets = (frozenset({0, PAYLOAD_BIT + 1}),)
        m_out, m_pay = parity_table(sets, 3)
        assert parity_table(sets, 3)[0] is m_out
        assert m_out.tolist() == [[1, 0, 0]] and m_pay.tolist() == [[0, 1, 0]]
        assert m_out.dtype == np.int8 and not m_out.flags.writeable
        assert parity_table.cache_info().maxsize == PARITY_CACHE_SIZE
        with pytest.raises(IndexError):
            parity_table((frozenset({3}),), 3)

    def test_frame_bits_and_angles_read_the_tables(self):
        rng = np.random.default_rng(7)
        outcomes = rng.integers(2, size=(9, 64)).astype(np.int8)
        payload = rng.integers(2, size=(9, 64)).astype(np.int8)
        corrections = (QubitCorrection(frozenset({0, 3}), 1, frozenset({PAYLOAD_BIT + 2, 5}), 0),
                       QubitCorrection(frozenset(), 0, frozenset({8}), 1))
        x, z = frame_bits(corrections, outcomes, payload)
        for q, c in enumerate(corrections):
            assert np.array_equal(x[q], c.x_const ^ _xor_parity(c.x_parity, outcomes, payload))
            assert np.array_equal(z[q], c.z_const ^ _xor_parity(c.z_parity, outcomes, payload))
        angle = AdaptiveAngle(((0.3, frozenset({1, 4})), (-1.1, frozenset({PAYLOAD_BIT + 6})), (2.0, frozenset())))
        want = 0.0
        for value, negs in angle.terms:
            want = want + value * (1 - 2 * _xor_parity(negs, outcomes, payload))
        assert np.array_equal(angle.resolve(outcomes, payload), want)
        assert AdaptiveAngle.constant(0.7).resolve(outcomes) == 0.7

