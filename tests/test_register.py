"""The stepping machine: forced/sampled measurement, enumeration, frames."""

import itertools
import math

import numpy as np
import pytest

from adqc.core import (
    AncillaSpec,
    MeasBasis,
    assemble_entangler,
    param_kets,
    param_state,
    preset,
    preset_labels,
    rotation,
)
from adqc.linalg import (
    CZ, PAULI_NAMES, PAULIS, PureState, X, dagger, embed, equal_up_to_global_phase, phase_invariant_error, tensor,
)
from adqc.register import (
    PARITY_CACHE_SIZE,
    AdaptiveAngle,
    AdqcStep,
    GatePattern,
    SlotSpec,
    _apply_branches,
    branch_coefficients,
    branch_step,
    carry,
    coupling_blocks,
    frame_bits,
    init_register,
    measurement_bras,
    parities,
    parity_table,
    run_pattern,
    step_branch_operators,
)
from adqc.patterns import CircuitDescription, CircuitGate, compile_circuit, standard_pattern
from adqc.protocol import Message, _message_coefficients, grid_angle, pattern_shape, server_step

PI = math.pi


def _gamma_step(q=0, gamma=0.0, theta=0.0, label="CZ_CANON"):
    return AdqcStep((q,), (label,), AncillaSpec(gamma, 0), AdaptiveAngle(theta))


def _resolve(angle, local):
    """An adaptive angle at one record of its local bits: its value negated
    by the parity of the bits it names."""
    return angle.value * (1 - 2 * (sum(int(local[c]) for c in angle.negate) & 1))


def _local_bits(pattern, outcomes, i):
    """Step i's local bits after the earlier ``outcomes``: the incoming frame
    bits of its slot, carried slot by slot through the frame maps, then the
    slot's earlier outcomes."""
    frame = np.zeros(2 * pattern.num_qubits, dtype=np.int8)
    for slot in pattern.slots:
        steps = list(slot.step_indices)
        if i in steps:
            return tuple(frame[slot.frame_rows]) + tuple(outcomes[j] for j in steps[:steps.index(i)])
        bits = [outcomes[j] for j in steps]
        frame[slot.frame_rows] = frame_bits(slot.frame_map, frame[slot.frame_rows], bits, [0] * len(bits))


def _step_once(state, step, outcome=None, rng=None, local=()):
    """One forced or sampled step of a single register: a one-row
    ``branch_step`` with the step's coefficients at the angle its ``local``
    bits resolve.  Returns (new state, outcome bit)."""
    payload = param_kets("+", step.ancilla.gamma, step.ancilla.delta)
    coeffs = branch_coefficients(payload, measurement_bras(_resolve(step.basis_theta, local)))
    blocks = coupling_blocks(step.entangler_labels)
    vecs, _, out, _ = branch_step(state.amplitudes[None], step.targets, blocks, coeffs, outcome, rng)
    return PureState(state.num_qubits, vecs[0]), int(out[0])


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
            AdaptiveAngle(PI / 2),
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
        res = run_pattern(init_register(1, "+").amplitudes, pat)
        assert abs(res.probabilities.sum() - 1.0) < 1e-10

    def test_j_zero_maps_plus_to_ground(self):
        pat = standard_pattern("J", 0.0, "single")
        res = run_pattern(init_register(1, "+").amplitudes, pat)
        for corrected in res.branches:
            assert equal_up_to_global_phase(
                corrected.reshape(2, 1),
                np.array([[1.0], [0.0]]),
                1e-9,
            )

    def test_cz_pattern_on_plus_plus(self):
        pat = standard_pattern("CZ", None, "two")
        res = run_pattern(init_register(2, "++").amplitudes, pat)
        expect = CZ @ init_register(2, "++").amplitudes
        assert abs(res.probabilities.sum() - 1.0) < 1e-10
        assert len(res.branches) == 2**15
        assert phase_invariant_error(res.branches, expect).max() <= 1e-9

    def test_frame_soundness_exact(self):
        pat = standard_pattern("RX", 1.3, "two")
        res = run_pattern(init_register(1, "+").amplitudes, pat)
        for b, (raw, corrected) in enumerate(zip(res.raw, res.branches)):
            op = np.array([[1.0]], dtype=complex)
            for x, z in zip(res.x[:, b], res.z[:, b]):
                op = np.kron(op, PAULIS[PAULI_NAMES[x + 2 * z]])
            redo = op @ raw
            assert np.array_equal(redo, corrected)

    def test_sampled_trajectories_reproducible(self):
        """A pattern sampled step by step from one seed takes the same
        outcomes and ends in the same state each time, and that trajectory is
        an enumerated branch."""
        pat = standard_pattern("J", 0.7, "single")
        runs = []
        for _ in range(2):
            rng, state, outcomes = np.random.default_rng(5), init_register(1, "+"), ()
            for i, step in enumerate(pat.steps):
                state, s = _step_once(state, step, rng=rng, local=_local_bits(pat, outcomes, i))
                outcomes += (s,)
            runs.append((outcomes, state))
        (a, state_a), (b, state_b) = runs
        assert a == b and np.array_equal(state_a.amplitudes, state_b.amplitudes)
        res = run_pattern(init_register(1, "+").amplitudes, pat)
        (b,) = [b for b, outs in enumerate(res.outcomes.T.tolist()) if tuple(outs) == a]
        np.testing.assert_allclose(state_a.amplitudes, res.raw[b], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind, theta, variant", [("J", 0.7, "single"), ("RX", 1.1, "two"), ("CZ", None, "two")])
    def test_choi_branches_act_as_operators(self, kind, theta, variant):
        """Each raw branch of a run from the normalized identity I/sqrt(d),
        applied to a state and normalized, is that state's raw branch of the
        same outcome bits, and the Choi run's probabilities sum to one."""
        pat = standard_pattern(kind, theta, variant)
        dim = 2**pat.num_qubits
        rng = np.random.default_rng(19)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        choi = run_pattern(np.eye(dim, dtype=complex) / math.sqrt(dim), pat)
        res = run_pattern(psi, pat)
        assert abs(choi.probabilities.sum() - 1.0) < 1e-10
        assert len(choi.raw) == len(res.raw) == 2 ** len(pat.steps)
        row = {tuple(bits): b for b, bits in enumerate(res.outcomes.T.tolist())}
        applied = choi.raw @ psi
        applied /= np.linalg.norm(applied, axis=1)[:, None]
        want = res.raw[[row[tuple(bits)] for bits in choi.outcomes.T.tolist()]]
        assert np.abs(applied - want).max() <= 1e-12

    def test_state_size_and_norm_checked(self):
        pat = standard_pattern("J", 0.7, "single")
        with pytest.raises(ValueError, match="size"):
            run_pattern(np.ones(4, dtype=complex) / 2, pat)
        with pytest.raises(ValueError, match="unit norm"):
            run_pattern(np.array([0.5, 0.0], dtype=complex), pat)
        for state in (init_register(1, "+"), [1.0, 0.0]):
            with pytest.raises(ValueError, match=r"\(2\^n, \.\.\.\) amplitude array"):
                run_pattern(state, pat)

    def test_two_target_coupling_is_entangling(self):
        """One two-target step plus its Pauli corrections acts as a fixed
        entangling gate on the register."""
        from adqc.patterns import CZ_SLOT_ANCILLA, cz2_spec

        spec = cz2_spec("two")
        step = AdqcStep((0, 1), spec.labels, CZ_SLOT_ANCILLA, AdaptiveAngle(0.0))
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
            AdaptiveAngle(1.0, frozenset({5})),
        )
        with pytest.raises(ValueError):
            GatePattern(num_qubits=1, steps=(bad,), target=np.eye(2, dtype=complex))

    def test_duplicate_targets_rejected(self):
        with pytest.raises(ValueError):
            AdqcStep((0, 0), ("CZ_CANON", "CZ_CANON"), AncillaSpec(0, 0), AdaptiveAngle(0))

    @pytest.mark.parametrize("target", [-1, 0.5, 2, np.int64(-3)])
    def test_targets_outside_the_register_name_the_step(self, target):
        good = AdqcStep((0,), ("CZ_CANON",), AncillaSpec(0, 0), AdaptiveAngle(0))
        bad = AdqcStep((target,), ("CZ_CANON",), AncillaSpec(0, 0), AdaptiveAngle(0))
        with pytest.raises(ValueError, match="step 1 targets"):
            GatePattern(2, (good, bad), np.eye(4, dtype=complex))


def _uncached_branch_operators(step, theta, n, payload=None):
    """step_branch_operators with nothing cached: the coupling, the payload
    and the measurement bras are rebuilt on every call."""
    ents = [preset(lbl) for lbl in step.entangler_labels]
    total = np.eye(2 ** (n + 1), dtype=complex)
    for tgt, ent in zip(step.targets, ents):
        total = embed(assemble_entangler(ent), (n, tgt), n + 1) @ total
    if payload is None:
        payload = dagger(ents[0].frame.v_a) @ param_state("+", step.ancilla.gamma, step.ancilla.delta).amplitudes
    basis = MeasBasis(theta, 0.0)
    bras = [ents[-1].frame.w_a @ param_state(sign, basis.theta, basis.phi).amplitudes for sign in "+-"]
    t = total.reshape(2**n, 2, 2**n, 2)
    return np.stack([np.einsum("a,iajb,b->ij", b.conj(), t, payload) for b in bras])


# the kernel sums four blocks where the reference contracts a dense coupling
# tensor, so results agree to rounding, not to the bit
KERNEL_TOL = 1e-14


class TestCouplingCache:
    def test_cached_coupling_gives_identical_operators(self):
        """Every preset label and label pair on every target layout of 1 to
        3 qubits gives the Kraus pairs of the uncached build, at the basis
        angle, at the angle plus 2 pi and at its negation (the kernel reduces
        angles modulo 2 pi as ``MeasBasis`` does)."""
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
                gamma, delta, theta = rng.uniform(0, 2 * PI, size=3)
                step = AdqcStep(targets, pair, AncillaSpec(gamma, delta), AdaptiveAngle(theta))
                for angle in (theta, theta + 2 * PI, -theta):
                    got = step_branch_operators(step, angle, n)
                    want = _uncached_branch_operators(step, angle, n)
                    assert np.abs(got - want).max() <= KERNEL_TOL, (n, targets, pair, angle)
                cases += 1
        assert cases == 6 * 6 + 36 * 8

    def test_coupling_blocks_refuse_writes(self):
        blocks = coupling_blocks(("CZ_CANON", "J_CANON"))
        assert blocks.shape == (4, 4, 4)
        with pytest.raises(ValueError):
            blocks[0, 0, 0] = 0.0
        assert coupling_blocks(("CZ_CANON", "J_CANON")) is blocks


class TestKrausCache:
    """The Kraus pair of a server message, from the message's coefficient row
    and the cached coupling blocks, against the uncached build."""

    def _message_reference(self, msg, shape, grid_n, n):
        """The uncached Kraus pair of the step ``shape`` driven by ``msg``."""
        if msg.kind == "ANCILLA":
            payload, theta = np.array(msg.payload, dtype=complex), 0.0
        else:
            payload, theta = np.array([1.0, 0.0], dtype=complex), grid_angle(msg.theta_grid, grid_n)
        step = AdqcStep(shape.targets, shape.entangler_labels, AncillaSpec(0.0), AdaptiveAngle(theta))
        return _uncached_branch_operators(step, theta, n, payload)

    def test_message_operators_match_the_uncached_build(self):
        """Seeded ANCILLA and ANGLE messages on every step of a compiled
        three-qubit circuit, in both variants: the Kraus pair of the server's
        coefficient row and its post-measurement states equal the uncached
        build's to rounding, and ``server_step``'s states equal a direct
        ``branch_step`` on that row bit for bit."""
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
                coeffs = _message_coefficients(msg, shape, grid_n)
                blocks = coupling_blocks(shape.entangler_labels)
                ops = _apply_branches(np.eye(2**n, dtype=complex)[None], shape.targets, blocks, coeffs)[0]
                assert np.abs(ops - want).max() <= KERNEL_TOL, shape
                amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
                state = init_register(n, PureState(n, amps))
                for s in (0, 1):
                    got, reply, p = server_step(state.amplitudes, msg, shape, grid_n, outcome=s)
                    ref, _, _, p_ref = branch_step(state.amplitudes[None], shape.targets, blocks, coeffs, s)
                    assert reply.bit == s and p == p_ref[0]
                    assert np.array_equal(got, ref[0])
                    dense = want[s] @ state.amplitudes
                    assert abs(p - np.vdot(dense, dense).real) <= KERNEL_TOL
                    assert np.abs(got - dense / np.linalg.norm(dense)).max() <= KERNEL_TOL
                cases += 1
        assert cases > 20


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
            res = run_pattern(start.amplitudes, pat)
            branches = range(len(res.raw))
            if len(branches) > self.MAX_REPLAYS:
                branches = sorted(rng.choice(len(branches), self.MAX_REPLAYS, replace=False))
            replayed = {(): start}  # outcome prefix -> replayed state
            for b in branches:
                outcomes = tuple(res.outcomes[:, b].tolist())
                for k in range(len(outcomes)):
                    prefix = outcomes[: k + 1]
                    if prefix not in replayed:
                        replayed[prefix], _ = _step_once(
                            replayed[prefix[:-1]], pat.steps[k], outcome=prefix[-1],
                            local=_local_bits(pat, prefix, k)
                        )
                np.testing.assert_allclose(
                    replayed[outcomes].amplitudes, res.raw[b], rtol=0, atol=1e-12
                )


class TestBranchStepKernel:
    """branch_step against each row's dense Kraus pair from the uncached
    build, for vectors and Choi rows, on every one- and two-target layout of
    a three-qubit register."""

    @pytest.mark.parametrize("trailing", [(), (8,)], ids=["vectors", "choi"])
    def test_matches_the_dense_pairs(self, trailing):
        rng = np.random.default_rng(len(trailing))
        rows, n = 64, 3
        layouts = [((t,), ("J_CANON",)) for t in range(n)]
        layouts += [(pair, ("RX_CANON", "RZ_CANON")) for pair in itertools.permutations(range(n), 2)]
        for targets, labels in layouts:
            states = rng.normal(size=(rows, 2**n) + trailing) + 1j * rng.normal(size=(rows, 2**n) + trailing)
            states /= np.linalg.norm(states.reshape(rows, -1), axis=1).reshape((-1, 1) + (1,) * len(trailing))
            payloads = rng.normal(size=(rows, 2)) + 1j * rng.normal(size=(rows, 2))
            payloads /= np.linalg.norm(payloads, axis=1)[:, None]
            theta = rng.uniform(-4 * PI, 4 * PI, size=rows)
            got, parent, out, p = branch_step(states, targets, coupling_blocks(labels),
                                              branch_coefficients(payloads, measurement_bras(theta)))
            assert parent.tolist() == np.repeat(np.arange(rows), 2).tolist() and out.tolist() == [0, 1] * rows
            for i, (r, s) in enumerate(zip(parent, out)):
                step = AdqcStep(targets, labels, AncillaSpec(0.0), AdaptiveAngle(theta[r]))
                child = np.tensordot(_uncached_branch_operators(step, theta[r], n, payloads[r])[s], states[r], 1)
                assert abs(p[i] - np.vdot(child, child).real) <= KERNEL_TOL
                assert np.abs(got[i] - child / np.linalg.norm(child)).max() <= KERNEL_TOL, (targets, r, s)


def _xor_parity(indices, bits):
    """The parity of one set, one XOR per member."""
    p = np.zeros(bits.shape[1:], dtype=np.int64)
    for i in indices:
        p ^= bits[i]
    return p


class TestParityTables:
    """Every parity of local bits is read from one cached GF(2) incidence
    table per tuple of sets, (M @ bits) & 1, and every frame map acts as one
    such table on a slot's local bits."""

    @pytest.mark.parametrize("batch", [1, 4096])
    def test_matches_an_xor_loop(self, batch):
        rng = np.random.default_rng(batch)
        width = 40
        for _ in range(20):
            sets = tuple(
                frozenset(int(i) for i in rng.choice(width, size=rng.integers(0, 12), replace=False))
                for _ in range(int(rng.integers(1, 7)))
            )
            bits = rng.integers(2, size=(width, batch)).astype(np.int8)
            want = np.array([_xor_parity(s, bits) for s in sets])
            assert np.array_equal(parities(sets, bits), want)

    def test_more_members_than_int8_holds(self):
        """The int8 products wrap modulo 256, which keeps the parity: sets of
        128, 255, 300 and 299 members over all-one bits."""
        width = 300
        sets = (frozenset(range(128)), frozenset(range(255)), frozenset(range(300)), frozenset(range(1, 300)))
        ones = np.ones((width, 3), dtype=np.int8)
        assert parities(sets, ones).tolist() == [[0] * 3, [1] * 3, [0] * 3, [1] * 3]

    def test_one_outcome_record(self):
        """A (width,) record, as one register resolves an angle."""
        sets = (frozenset({0, 2}), frozenset({1}), frozenset())
        assert parities(sets, (1, 1, 0)).tolist() == [1, 1, 0]

    def test_tables_are_cached_bounded_and_read_only(self):
        sets = (frozenset({0, 2}),)
        table = parity_table(sets, 3)
        assert parity_table(sets, 3) is table
        assert table.tolist() == [[1, 0, 1]]
        assert table.dtype == np.int8 and not table.flags.writeable
        assert parity_table.cache_info().maxsize == PARITY_CACHE_SIZE
        with pytest.raises(IndexError):
            parity_table((frozenset({3}),), 3)

    def test_frame_bits_and_angles_read_the_tables(self):
        """A random (2m, 2m + 2k + 1) map on random local bits: ``frame_bits``
        on a batch, with one map or one per column, and ``carry`` on one
        column each give every row's parity of the bits it names."""
        rng = np.random.default_rng(7)
        for m, k in ((1, 1), (1, 3), (2, 1), (2, 2)):
            maps = rng.integers(2, size=(64, 2 * m, 2 * m + 2 * k + 1)).astype(np.int8)
            frame, outcomes, coins = (rng.integers(2, size=(size, 64)).astype(np.int8) for size in (2 * m, k, k))
            local = np.concatenate((frame, outcomes, coins, np.ones((1, 64), dtype=np.int8)))
            want = np.array([[_xor_parity(np.flatnonzero(maps[b, r]), local[:, b:b + 1])[0] for b in range(64)]
                             for r in range(2 * m)])
            assert np.array_equal(frame_bits(maps, frame, outcomes, coins), want)
            assert np.array_equal(frame_bits(maps[0], frame, outcomes, coins)[:, 0], want[:, 0])
            for b in range(8):
                slot = SlotSpec("X", tuple(range(m)), None, {f"r{t}": t for t in range(k)}, maps[b])
                column = frame[:, b].tolist() + [0] * 2
                carry(column, slot, outcomes[:, b].tolist() + coins[:, b].tolist())
                assert column[:2 * m] == want[:, b].tolist() and column[2 * m:] == [0, 0]
