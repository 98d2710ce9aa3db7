"""Client/server dialogue, transcripts, delegation correctness, blindness."""

import hashlib
import json
import math

import numpy as np
import pytest

from adqc.core import AncillaSpec, _reduce_angle, basis_kets, param_kets
from adqc.linalg import I2, PureState, apply_pauli_frame
from adqc import protocol
from adqc.patterns import CircuitDescription, CircuitGate
from adqc.register import branch_step, coupling_blocks, frame_bits
from adqc.protocol import (
    Client,
    ClientSecret,
    Message,
    ProtocolOrderError,
    Server,
    MAX_GRID,
    audit_blindness,
    gamma_kets,
    grid_angle,
    grid_bras,
    grid_index,
    pattern_shape,
    run_delegation,
    server_step,
)

PI = math.pi


def _secret(gates, n=1, variant="two", grid=8, seed=11):
    return ClientSecret(CircuitDescription(n, tuple(gates)), variant, grid, seed)


def _set_draws(draws, pattern, slot, gamma_index=None, **coins):
    """Set a slot's draws on ``draws`` (a secret or a client) in every row:
    its hidden index, and its coins by their client-log names: ``r_payload``
    is the coin of the slot's first round, ``r_assist`` of its assistant
    round and ``r_angle`` of its angle round.  A coin the slot does not draw
    is skipped."""
    if gamma_index is not None:
        draws.gamma_index[slot] = gamma_index
    roles = pattern.slots[slot].roles
    for name, value in coins.items():
        role = {"r_payload": next(iter(roles)), "r_assist": "assist", "r_angle": "theta"}[name]
        if role in roles:
            draws.coins[roles[role]] = value


def _force_draw(secret, slot, **kw):
    _set_draws(secret, secret.pattern, slot, **kw)


def _zero_draws(secret, rows):
    """Replace the secret's draws by ``rows`` rows of zeros."""
    secret.gamma_index = np.zeros((len(secret.pattern.slots), rows), dtype=np.int64)
    secret.coins = np.zeros((len(secret.pattern.steps), rows), dtype=np.int8)


def _ancilla_message(client, slot, role):
    return Message("ANCILLA", slot, payload=tuple(client.prepare_ancilla(slot, role)[0]))


def _per_round_dialogue(client, state, shape):
    """The enumerated dialogue one round at a time, the reference for the
    batched ``protocol._enumerated_dialogue``: each round splits every branch
    of its slot with ``branch_step``, one client row per branch, and the
    first branch (row 0) is carried into the transcript and the next slot."""
    pattern, grid_n = client.secret.pattern, client.secret.grid_n
    worst = 1.0
    for slot_idx, slot in enumerate(pattern.slots):
        states, probs = state[None], np.ones(1)
        for role, step in slot.roles.items():
            step_shape = shape[step]
            kind = step_shape.expects
            values = client.prepare_ancilla(slot_idx, role) if kind == "ANCILLA" else client.angle_message(slot_idx)
            msg = protocol._round_message(client, slot_idx, kind, values[0])
            coeffs = protocol._message_coefficients(msg, step_shape, grid_n, values)
            blocks = coupling_blocks(step_shape.entangler_labels)
            states, parent, outs, p = branch_step(states, step_shape.targets, blocks, coeffs)
            probs = probs[parent] * p
            client.take(parent)
            client.record(slot_idx, role, outs)
            # children are ordered by (parent, outcome), so row 0 descends from row 0
            client.transcript.messages += [msg, Message("OUTCOME", slot_idx, bit=int(outs[0]))]
        total = probs.sum()
        if abs(total - 1.0) > 1e-9:
            raise RuntimeError(f"slot {slot_idx} branch probabilities sum to {total}")
        frame = frame_bits((pattern.slot_boundaries[slot_idx],), 0, client.eff_outcomes, client.coins)
        corrected = apply_pauli_frame(states, *frame)
        fids = np.abs(corrected[1:] @ corrected[0].conj()) ** 2
        worst = min(worst, float(np.min(fids, initial=1.0)))
        client.take([0])
        state = states[0]
    return state, worst


class TestClientMessages:
    def test_prepared_ancilla_values(self):
        sec = _secret([CircuitGate("Rx", (0,), PI / 4)])
        slot = next(i for i, s in enumerate(sec.pattern.slots) if s.kind == "RX")
        _force_draw(sec, slot, gamma_index=2, r_payload=0)  # gamma = pi/2
        kets = Client(sec).prepare_ancilla(slot, "gamma")
        assert kets.shape == (1, 2)
        np.testing.assert_allclose(kets[0], [1 / math.sqrt(2)] * 2, atol=1e-12)

        _force_draw(sec, slot, gamma_index=2, r_payload=1)  # gamma = 3 pi/2
        kets = Client(sec).prepare_ancilla(slot, "gamma")
        expect = [math.cos(3 * PI / 4), math.sin(3 * PI / 4)]
        np.testing.assert_allclose(kets[0], expect, atol=1e-12)

    def test_kets_equal_the_scalar_states_bit_for_bit(self):
        """A batch of ancilla kets equals, row by row, the PureState of each
        draw's angle: the transcript pins rest on the last bits."""
        from adqc.core import param_state
        from adqc.patterns import CZ_SLOT_ANCILLA

        for grid_n in (8, 256, 1024):
            sec = _secret([CircuitGate("Rx", (0,), PI / 4)], grid=grid_n)
            slot = next(i for i, s in enumerate(sec.pattern.slots) if s.kind == "RX")
            gi, r = (a.ravel() for a in np.meshgrid(np.arange(grid_n), (0, 1), indexing="ij"))
            _zero_draws(sec, len(gi))
            _force_draw(sec, slot, gamma_index=gi, r_payload=r)
            kets = Client(sec).prepare_ancilla(slot, "gamma")
            for k, g, c in zip(kets, gi.tolist(), r.tolist()):
                assert k.tobytes() == param_state("+", grid_angle(g, grid_n) + c * PI, 0.0).amplitudes.tobytes()
        # the assistant and CZ-coupling rounds, at either coin
        sec = _secret([CircuitGate("H", (0,)), CircuitGate("CZ", (0, 1))], n=2, variant="single")
        _zero_draws(sec, 2)
        for slot_idx, slot in enumerate(sec.pattern.slots):
            _force_draw(sec, slot_idx, r_payload=[0, 1], r_assist=[0, 1])
            for role in set(slot.roles) & {"assist", "couple"}:
                kets = Client(sec).prepare_ancilla(slot_idx, role)
                anc = CZ_SLOT_ANCILLA if role == "couple" else AncillaSpec(0.0, 0.0)
                for c in (0, 1):
                    assert kets[c].tobytes() == param_state("+", anc.gamma + c * PI, anc.delta).amplitudes.tobytes()

    def test_coin_average_is_maximally_mixed(self):
        sec = _secret([CircuitGate("Rx", (0,), PI / 4)])
        slot = next(i for i, s in enumerate(sec.pattern.slots) if s.kind == "RX")
        for gi in range(8):
            avg = np.zeros((2, 2), dtype=complex)
            for r in (0, 1):
                _force_draw(sec, slot, gamma_index=gi, r_payload=r)
                v = Client(sec).prepare_ancilla(slot, "gamma")[0]
                avg += 0.5 * np.outer(v, v.conj())
            rho = (avg + avg.conj().T) / 2
            assert 0.5 * np.abs(np.linalg.eigvalsh(rho - I2 / 2)).sum() < 1e-12

    def test_angle_formula(self):
        """theta' = pi/4, gamma = pi/2, s = 0, r = 0, minus sign: the angle
        message carries pi/4 - pi/2 mod 2pi = 7pi/4."""
        sec = _secret([CircuitGate("Rx", (0,), PI / 4)])
        slot = next(i for i, s in enumerate(sec.pattern.slots) if s.kind == "RX")
        assert sec.pattern.slots[slot].theta_prime == pytest.approx(PI / 4)
        _force_draw(sec, slot, gamma_index=2, r_payload=0, r_angle=0)
        cl = Client(sec)
        cl.record(slot, "gamma", 0)
        (k,) = cl.angle_message(slot)
        assert grid_angle(k, 8) == pytest.approx(7 * PI / 4)

    def test_angle_half_turn_only(self):
        sec = _secret([CircuitGate("Rx", (0,), 0.0)])
        slot = next(i for i, s in enumerate(sec.pattern.slots) if s.kind == "RX")
        _force_draw(sec, slot, gamma_index=0, r_payload=0, r_angle=1)
        cl = Client(sec)
        cl.record(slot, "gamma", 0)
        (k,) = cl.angle_message(slot)
        assert grid_angle(k, 8) == pytest.approx(PI)

    def test_postprocess(self):
        sec = _secret([CircuitGate("Rx", (0,), PI / 4)])
        slot = next(i for i, s in enumerate(sec.pattern.slots) if s.kind == "RX")
        step = sec.pattern.slots[slot].roles["theta"]
        _force_draw(sec, slot, r_angle=1)
        cl = Client(sec)
        cl.record(slot, "theta", 0)
        assert cl.eff_outcomes[step].tolist() == [1]
        _force_draw(sec, slot, r_angle=0)
        cl = Client(sec)
        cl.record(slot, "theta", 1)
        assert cl.eff_outcomes[step].tolist() == [1]

    def test_angle_uniform_over_hidden_draws(self):
        """For fixed secret angle, outcome and coins, the angle message is a
        bijection of the hidden draw, hence uniform on the grid."""
        sec = _secret([CircuitGate("Rx", (0,), PI / 4)])
        slot = next(i for i, s in enumerate(sec.pattern.slots) if s.kind == "RX")
        for s in (0, 1):
            for r in (0, 1):
                seen = set()
                for gi in range(8):
                    _force_draw(sec, slot, gamma_index=gi, r_payload=0, r_angle=r)
                    cl = Client(sec)
                    cl.record(slot, "gamma", s)
                    seen.add(int(cl.angle_message(slot)[0]))
                assert seen == set(range(8))


class TestIntegerFold:
    @staticmethod
    def _float_fold(theta_prime, sign, p_theta, p_gamma, k_gamma, r_payload, r_angle, grid_n):
        """The basis angle as the client folded it in floats before the
        integer fold, read back with grid_index."""
        gamma_eff = grid_angle(k_gamma, grid_n) + r_payload * PI
        total = 0.0
        total += sign * theta_prime * (1 - 2 * p_theta)
        total += -gamma_eff * (1 - 2 * p_gamma)
        return grid_index(total + r_angle * PI, grid_n)

    def test_batched_index_equals_the_float_fold(self):
        """For every even grid size N in 4..32 and every (k_theta', k_gamma,
        r_payload, r_angle, theta parity, gamma parity, sign), the batched
        angle_message index equals the float fold's."""
        from dataclasses import replace

        for grid_n in range(4, 33, 2):
            rows = [a.ravel() for a in np.meshgrid(np.arange(grid_n), *[(0, 1)] * 4, indexing="ij")]
            k_gamma, r_payload, r_angle, p_theta, p_gamma = rows
            for k_theta in range(grid_n):
                sec = _secret([CircuitGate("Rx", (0,), grid_angle(k_theta, grid_n))], grid=grid_n)
                j = next(i for i, s in enumerate(sec.pattern.slots) if s.kind == "RX")
                assert sec.theta_index[j] == k_theta
                _zero_draws(sec, len(k_gamma))
                _force_draw(sec, j, gamma_index=k_gamma, r_payload=r_payload, r_angle=r_angle)
                pattern, slot = sec.pattern, sec.pattern.slots[j]
                for sign in (1, -1):
                    # outcome bits 0 and 1 drive the two parities
                    spec = replace(slot, theta_sign=sign, theta_negate=frozenset({0}), gamma_negate=frozenset({1}))
                    sec.pattern = replace(pattern, slots=pattern.slots[:j] + (spec,) + pattern.slots[j + 1:])
                    client = Client(sec)
                    client.eff_outcomes[0], client.eff_outcomes[1] = p_theta, p_gamma
                    got = client.angle_message(j)
                    want = [self._float_fold(slot.theta_prime, sign, *row, grid_n)
                            for row in zip(p_theta.tolist(), p_gamma.tolist(), k_gamma.tolist(),
                                           r_payload.tolist(), r_angle.tolist())]
                    assert got.tolist() == want, (grid_n, k_theta, sign)


class TestServer:
    def test_out_of_order_message(self):
        sec = _secret([CircuitGate("Rx", (0,), PI / 4)])
        server = Server(pattern_shape(sec.pattern), 1, "0", 8, seed=0)
        with pytest.raises(ProtocolOrderError):
            server.handle(Message("ANGLE", 0, theta_grid=0))
        with pytest.raises(ProtocolOrderError, match="^protocol already finished$"):
            Server((), 1).handle(Message("ANGLE", 0, theta_grid=0))

    def test_outcome_message_rejected(self):
        sec = _secret([CircuitGate("Rx", (0,), PI / 4)])
        server = Server(pattern_shape(sec.pattern), 1, "0", 8, seed=0)
        with pytest.raises(ProtocolOrderError):
            server.handle(Message("OUTCOME", 0, bit=0))

    @pytest.mark.parametrize("grid", [7, 2, 0, MAX_GRID + 2, 8.0, "8"])
    def test_invalid_grid_rejected_at_construction(self, grid):
        sec = _secret([CircuitGate("Rx", (0,), PI / 4)])
        with pytest.raises(ValueError, match="grid size"):
            Server(pattern_shape(sec.pattern), 1, "0", grid, seed=0)

    def test_float_grid_rejected_by_client_and_audit(self):
        """A float grid size fails at the boundary; a numpy integer passes."""
        with pytest.raises(ValueError, match="grid size"):
            _secret([CircuitGate("Rx", (0,), PI / 4)], grid=8.0)
        with pytest.raises(ValueError, match="grid size"):
            audit_blindness(8.0)
        assert audit_blindness(np.int64(8)).passed

    def test_sampling_a_step_requires_an_rng(self):
        sec = _secret([CircuitGate("Rx", (0,), PI / 4)])
        shape = pattern_shape(sec.pattern)
        msg = _ancilla_message(Client(sec), shape[0].slot, "gamma")
        with pytest.raises(ValueError, match="requires an rng"):
            server_step(PureState.from_label("0").amplitudes, msg, shape[0])

    def test_shape_carries_no_angles(self):
        sec = _secret([CircuitGate("Rz", (0,), 3 * PI / 4)])
        for sh in pattern_shape(sec.pattern):
            assert not hasattr(sh, "theta_prime")
            assert sh.expects in ("ANCILLA", "ANGLE")


class TestMalformedServerInput:
    """Every malformed message is rejected at the trust boundary: none is
    wrapped, broadcast or applied to another step.  One seeded fuzz per
    boundary."""

    def _server_at_angle_round(self):
        """A server whose cursor sits on an ANGLE step, and that step's slot."""
        sec = _secret([CircuitGate("Rx", (0,), PI / 4)])
        shape = pattern_shape(sec.pattern)
        server = Server(shape, 1, "0", 8, seed=0)
        client = Client(sec)
        slot = shape[0].slot
        server.handle(_ancilla_message(client, slot, "gamma"))
        assert shape[server.cursor].expects == "ANGLE"
        return server, shape[server.cursor].slot

    def test_negative_grid_index(self):
        rng = np.random.default_rng(101)
        for k in rng.integers(-10_000, 0, size=25):
            with pytest.raises(ValueError):
                Message("ANGLE", 0, theta_grid=int(k))

    def test_grid_index_beyond_the_grid(self):
        rng = np.random.default_rng(102)
        for k in rng.integers(8, 10_000, size=25):
            server, slot = self._server_at_angle_round()
            with pytest.raises(ValueError):
                server.handle(Message("ANGLE", slot, theta_grid=int(k)))

    def test_non_integer_grid_index_from_json(self):
        rng = np.random.default_rng(103)
        for t in [1.5, 2.0, "3", None, [1]] + list(rng.uniform(-20, 20, size=20)):
            with pytest.raises(ValueError):
                Message.from_dict({"kind": "ANGLE", "slot": 0, "theta_grid": t})
        for bad in ({"slot": 0}, {"kind": "ANCILLA", "slot": 0, "payload": [1, 0]}, {"kind": "OUTCOME"},
                    {"kind": "ANCILLA", "slot": 0, "payload": [[10**400, 0], [0, 0]]}):
            with pytest.raises(ValueError):
                Message.from_dict(bad)

    def test_ancilla_payload_of_wrong_length(self):
        rng = np.random.default_rng(104)
        for size in rng.choice([0, 1, 3, 4, 8], size=25):
            v = rng.normal(size=size) + 1j * rng.normal(size=size)
            v = v / np.linalg.norm(v) if size else v
            with pytest.raises(ValueError):
                Message("ANCILLA", 7, payload=tuple(v))

    def test_ancilla_payload_check_rejects_what_the_array_check_rejected(self):
        """Message checks an ANCILLA payload on Python complex numbers; it
        accepts exactly the payloads that ``np.array(payload, dtype=complex)``
        turned into a finite (2,) vector of norm within 1e-9 of 1, except
        those with a string amplitude, which that conversion parses."""
        def array_check(payload):
            try:
                v = np.array(payload, dtype=complex)
            except (TypeError, ValueError, OverflowError):
                return False
            if v.shape == (2,) and any(isinstance(a, (str, bytes)) for a in payload):
                return False
            return v.shape == (2,) and bool(np.isfinite(v).all()) and abs(np.linalg.norm(v) - 1.0) <= 1e-9

        nan, inf = float("nan"), float("inf")
        s = math.sqrt(0.5)
        payloads = [
            (1 + 0j, 0j), [0.6, 0.8j], np.array([s, -s * 1j]), (np.complex128(s), np.float64(s)), (True, False),
            ("1", "0"), (nan, 0j), (1.0, nan), (complex(0, nan), 0.0), (inf, 0.0), (1.0, -inf),
            (1 + 2e-9, 0.0), (0.0, 1 - 2e-9), (1 + 5e-10, 0.0), (s, s, 0.0), (1.0,), (), "10", "ab", b"10",
            [[1.0], [0.0]], np.zeros((2, 1)), np.eye(2), np.array(1.0), {0: 1.0, 1: 0.0}, (None, 1.0),
            # one-element arrays convert to one complex on some numpy releases, but the array check saw (2, 1)
            np.array([[1.0], [0.0]]), (np.array([1.0]), np.array([0.0])), [np.array([1.0]), 0.0],
            (np.array([1.0, 0.0]), np.array([0.0, 0.0])), (np.array(1.0), np.array(0.0)),
            range(2), range(3), {1.0, 0.0}, (10**400, 0), (0.0, -(10**400)),
            # string amplitudes parse as numbers, and are refused
            (1.0, "0"), ["0.6", "0.8j"], np.array(["1", "0"]), (b"1", 0.0),
        ]
        for payload in payloads:
            if array_check(payload):
                assert Message("ANCILLA", 0, payload=payload).payload is payload
            else:
                with pytest.raises(ValueError, match="payload"):
                    Message("ANCILLA", 0, payload=payload)
        with pytest.raises(ValueError, match="needs a payload"):
            Message("ANCILLA", 0, payload=None)

    def test_unknown_message_kind_refused(self):
        with pytest.raises(ValueError, match="^unknown message kind 'PING'$"):
            Message("PING", 0)

    def test_from_dict_fuzz(self):
        """Seeded wire messages with at most one bad field: a valid one
        round-trips, a bad one raises ValueError naming its field."""
        rng = np.random.default_rng(106)
        nan, inf = float("nan"), float("inf")
        bad = {
            "slot": ["x", -3, True, 1.5, None, [1], -1],
            "bit": [True, False, 1.0, 0.0, 2, -1, "1", None],
            "payload": [[[nan, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, nan]], [[nan, nan], [nan, nan]],
                        [[inf, 0.0], [0.0, 0.0]], [[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            "theta_grid": [-1, 1.5, True, "3", None],
        }
        field_of = {"ANCILLA": "payload", "ANGLE": "theta_grid", "OUTCOME": "bit"}
        accepted = rejected = 0
        for _ in range(400):
            kind = str(rng.choice(list(field_of)))
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            amps /= np.linalg.norm(amps)
            d = {"kind": kind, "slot": int(rng.integers(50)), "payload": [[z.real, z.imag] for z in amps],
                 "theta_grid": int(rng.integers(64)), "bit": int(rng.integers(2))}
            corrupt = str(rng.choice(["", "slot", field_of[kind]]))
            if corrupt:
                values = bad[corrupt]
                d[corrupt] = values[int(rng.integers(len(values)))]
                with pytest.raises(ValueError, match=corrupt):
                    Message.from_dict(d)
                rejected += 1
            else:
                msg = Message.from_dict(d)
                assert Message.from_dict(json.loads(json.dumps(msg.to_dict()))) == msg
                accepted += 1
        assert accepted > 100 and rejected > 200

    def test_message_for_another_slot(self):
        rng = np.random.default_rng(105)
        sec = _secret([CircuitGate("Rx", (0,), PI / 4)])
        shape = pattern_shape(sec.pattern)
        for other in rng.integers(-50, 50, size=25):
            if other == shape[0].slot:
                continue
            server = Server(shape, 1, "0", 8, seed=0)
            msg = _ancilla_message(Client(sec), shape[0].slot, "gamma")
            with pytest.raises(ProtocolOrderError):
                server.handle(Message("ANCILLA", int(other), payload=msg.payload))
            assert server.cursor == 0


class TestDelegation:
    def test_single_rotation_slot_on_plus(self):
        """Delegating H Rz(theta') applied to |+> reproduces the direct matrix."""
        from adqc.core import rotation
        from adqc.linalg import H

        theta = PI / 4
        circ = CircuitDescription(
            1, (CircuitGate("Rz", (0,), theta), CircuitGate("H", (0,)))
        )
        for variant in ("single", "two"):
            sec = ClientSecret(circ, variant, 8, seed=3)
            res = run_delegation(sec, seed=9, input_state=PureState.from_label("+"), mode="enumerate")
            assert res.fidelity >= 1 - 1e-9
            assert res.worst_branch_fidelity >= 1 - 1e-9
            expect = H @ rotation("z", theta) @ PureState.from_label("+").amplitudes
            assert abs(abs(np.vdot(expect, res.final_state.amplitudes)) - 1) < 1e-9

    def test_two_qubit_circuit(self):
        circ = CircuitDescription(
            2,
            (
                CircuitGate("H", (0,)),
                CircuitGate("CZ", (0, 1)),
                CircuitGate("Rz", (1,), PI / 3 + PI / 12),  # pi/4 grid step * 5... keep on grid
            ),
        )
        # angle must sit on the grid: use 3 pi/4
        circ = CircuitDescription(
            2,
            (CircuitGate("H", (0,)), CircuitGate("CZ", (0, 1)), CircuitGate("Rz", (1,), 3 * PI / 4)),
        )
        for variant in ("single", "two"):
            sec = ClientSecret(circ, variant, 8, seed=5)
            res = run_delegation(sec, seed=6, mode="enumerate")
            assert res.fidelity >= 1 - 1e-9
            assert res.worst_branch_fidelity >= 1 - 1e-9

    def test_empty_circuit_exact(self):
        sec = _secret([], n=1)
        res = run_delegation(sec, seed=1, mode="enumerate")
        assert res.fidelity >= 1 - 1e-12

    def test_finer_grid_circuit(self):
        """An Rz(pi/3) slot sits on the twelve-point grid; the delegated run
        still reproduces the reference exactly."""
        circ = CircuitDescription(
            2,
            (CircuitGate("H", (0,)), CircuitGate("CZ", (0, 1)), CircuitGate("Rz", (1,), PI / 3)),
        )
        sec = ClientSecret(circ, "two", 12, seed=8)
        res = run_delegation(sec, seed=2, mode="enumerate")
        assert res.fidelity >= 1 - 1e-9
        assert res.worst_branch_fidelity >= 1 - 1e-9

    def test_off_grid_angle_rejected(self):
        with pytest.raises(ValueError):
            _secret([CircuitGate("Rz", (0,), 0.1234)])

    def test_enumerate_sees_a_flipped_boundary_frame_bit(self):
        """One outcome bit added to a slot-boundary frame: the branches of
        that outcome disagree after correction, while the carried branch,
        whose outcomes are all zero, still reaches the target."""
        from dataclasses import replace

        gates = (CircuitGate("H", (0,)), CircuitGate("CZ", (0, 1)), CircuitGate("Rz", (1,), 3 * PI / 4))
        sec = _secret(gates, n=2, variant="two", seed=5)
        slot = sec.pattern.slots[0]
        (q,) = slot.qubits
        frame = list(sec.pattern.slot_boundaries[0])
        frame[q] = replace(frame[q], x_parity=frame[q].x_parity ^ {slot.roles["gamma"]})
        sec.pattern = replace(sec.pattern, slot_boundaries=(tuple(frame),) + sec.pattern.slot_boundaries[1:])
        res = run_delegation(sec, seed=6, mode="enumerate")
        assert res.fidelity >= 1 - 1e-9
        assert res.worst_branch_fidelity < 1 - 1e-9

    def test_enumerate_checks_the_branch_probability_sum(self, monkeypatch):
        """Coupling blocks scaled by 0.9 lose probability in every round, and
        the first slot's branch probabilities no longer sum to 1."""
        real = protocol.coupling_blocks
        monkeypatch.setattr(protocol, "coupling_blocks", lambda labels: 0.9 * real(labels))
        sec = _secret([CircuitGate("Rx", (0,), PI / 4)])
        with pytest.raises(RuntimeError, match=r"^slot 0 branch probabilities sum to 0\."):
            run_delegation(sec, seed=1, mode="enumerate")

    # SHA-256 of to_jsonl(view="server") for seeded sample runs: the outcome
    # bits depend on one rng draw per step against the branch probability
    PINNED_TRANSCRIPTS = (
        "0f5b0883e046e6b968e8d84becd718f8ae1f02a96e99a14cc0e1b79744ed433c",
        "faa2186fd26a20041c0c49114294a16da52b5eee1d4de1ce4ce324388247927c",
        "3735e4b9c845e4aa95b8e9f019bc06f71b1bc9f61ca0540fe2dcc39de67cc9a1",
        "55c2ca074c4a3e1bacbe882128c33c436a916c24e24ae5844d39867be9a2696f",
        "dcb76ceb916e603a8a86720f43e8ed8167102647569419103afec676fb51e88f",
        "a8772e28accb42df6e3b51eb91206d194bab12db809634fd1a2f73613dcdb9d1",
        "f3aa6876099a03c8a8505b7dc6be245884b9a02aa9f6985d1139c8e5797dbbc5",
        "72b034c7aedeca2a44b1ca6be10b1b1779b2237aeb060798126f465888b5bd56",
    )
    # SHA-256 of to_jsonl(view="full"), which adds the client log, for the
    # same cases run in sample and in enumerate mode
    PINNED_FULL_TRANSCRIPTS = {
        "sample": (
            "2026a5b90127ffa80d4c4493f7c0c705fc44179df25a0138dca934ff49bb4f85",
            "1f66d1c0350ade35946796361f39dc8950694025b963a6be98612e0fdc92ce98",
            "3644928ceae10193c19014bb85e1eac3836317aefac666202535b955393a5c89",
            "ae256434b4cde4cb961b55a18f3bdc01f98f7bcdfee12772a3401ca9683bb1bd",
            "027b56b12444960629904022a9e7e559088249d90c8590583bd51e85e7bf1e89",
            "c26271eb7c1fbddb2621ebd40952f644479ae895cae51552d2fbe818f8ab95fa",
            "4d2208fd56a86e97250ad5cb096333f5fe3d33366492cf6a785c4b28d884a47e",
            "7acf13744db10b6082725ef0593ca2681b8aaabbe1b735419031d5f64136b581",
        ),
        "enumerate": (
            "772e1f8db799786031f6e7affa8bc5a6cd6f96a23b70acb96b5b8112cfa3ed0b",
            "1f096c49fb85e367b0a15a3b4c1c117e4f14354073160169f7e0731bd51cd24e",
            "c146a4d8e4971c77d1ce096818e3237bb803c8a70c1ad630f8556f4bfd8022a2",
            "33309eabe544a0136e4c783d95a0ad576389e8ef1f4b79d57e6d806dad10f046",
            "a97cf2a7c28cb7b04e7306253ead77d2961802cea5a756d97549684a28127276",
            "018f1a81f79b72e1d93ae91e6d145bfbfd19d82b8560d7bdcd662bf66986b65f",
            "1820e3096277a5400e333b319f7589c083d0feb0124cc2da34a358aca8170036",
            "8872c7793a662fbcd68e9e3c953236e3ec2019f77d981aeb52a91221deae4dfd",
        ),
    }
    PINNED_CIRCUITS = (
        (1, (CircuitGate("H", (0,)), CircuitGate("Rz", (0,), PI / 4))),
        (2, (CircuitGate("H", (0,)), CircuitGate("CZ", (0, 1)), CircuitGate("Rz", (1,), 3 * PI / 4))),
        (2, (CircuitGate("Rx", (0,), PI / 2), CircuitGate("CZ", (1, 0)), CircuitGate("H", (1,)))),
        (3, (CircuitGate("H", (2,)), CircuitGate("CZ", (1, 2)), CircuitGate("Rz", (0,), 5 * PI / 4))),
    )

    def _pinned_run(self, i, mode):
        n, gates = self.PINNED_CIRCUITS[i // 2]
        sec = ClientSecret(CircuitDescription(n, gates), ("single", "two")[i % 2], 8, 100 + i)
        return run_delegation(sec, seed=200 + i, mode=mode)

    def test_sampled_transcripts_are_pinned(self):
        for i, pinned in enumerate(self.PINNED_TRANSCRIPTS):
            res = self._pinned_run(i, "sample")
            text = res.transcript.to_jsonl(view="server")
            assert hashlib.sha256(text.encode()).hexdigest() == pinned, i
            assert res.fidelity >= 1 - 1e-9

    @pytest.mark.parametrize("mode", ["sample", "enumerate"])
    def test_full_transcripts_are_pinned(self, mode):
        for i, pinned in enumerate(self.PINNED_FULL_TRANSCRIPTS[mode]):
            res = self._pinned_run(i, mode)
            text = res.transcript.to_jsonl(view="full")
            assert hashlib.sha256(text.encode()).hexdigest() == pinned, i
            assert res.fidelity >= 1 - 1e-9

    def test_unknown_mode_refused(self):
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            run_delegation(_secret([CircuitGate("H", (0,))]), mode="bogus")

    def test_sampled_matches_reference_every_seed(self):
        circ = CircuitDescription(1, (CircuitGate("H", (0,)), CircuitGate("Rx", (0,), PI / 2)))
        sec = ClientSecret(circ, "two", 8, seed=2)
        for seed in range(8):
            res = run_delegation(sec, seed=seed, mode="sample")
            assert res.fidelity >= 1 - 1e-9


class TestBatchedEnumeration:
    @staticmethod
    def _circuit(rng, n, grid_n):
        kinds = ("H", "Rx", "Rz", "CZ") if n > 1 else ("H", "Rx", "Rz")
        gates = []
        for _ in range(int(rng.integers(1, 5))):
            kind = kinds[int(rng.integers(len(kinds)))]
            if kind == "CZ":
                a, b = rng.choice(n, 2, replace=False)
                gates.append(CircuitGate("CZ", (int(a), int(b))))
            else:
                angle = None if kind == "H" else grid_angle(int(rng.integers(grid_n)), grid_n)
                gates.append(CircuitGate(kind, (int(rng.integers(n)),), angle))
        return CircuitDescription(n, tuple(gates))

    def test_matches_the_per_round_oracle(self, monkeypatch):
        """48 seeded circuits on 1 to 4 qubits, both variants, grids 8, 12 and
        MAX_GRID: the batched dialogue gives the per-round one's full
        transcript byte for byte, and its fidelities within 1e-12."""
        rng = np.random.default_rng(24)
        for case in range(48):
            n, variant, grid_n = 1 + case % 4, ("single", "two")[case // 4 % 2], (8, 12, MAX_GRID)[case % 3]
            sec = ClientSecret(self._circuit(rng, n, grid_n), variant, grid_n, int(rng.integers(2**31)))
            seed = int(rng.integers(2**31))
            batched = run_delegation(sec, seed=seed, mode="enumerate")
            monkeypatch.setattr(protocol, "_enumerated_dialogue", _per_round_dialogue)
            oracle = run_delegation(sec, seed=seed, mode="enumerate")
            monkeypatch.undo()
            assert batched.transcript.to_jsonl("full") == oracle.transcript.to_jsonl("full"), case
            assert abs(batched.fidelity - oracle.fidelity) <= 1e-12, case
            assert abs(batched.worst_branch_fidelity - oracle.worst_branch_fidelity) <= 1e-12, case
            assert oracle.worst_branch_fidelity >= 1 - 1e-9, case

    def test_runs_of_any_length_agree(self, monkeypatch):
        """A delegation enumerated one slot per run, in runs of a few slots,
        or in one run gives one full transcript and equal fidelities."""
        rng = np.random.default_rng(7)
        for case in range(6):
            n = 1 + case % 4
            sec = ClientSecret(self._circuit(rng, n, 8), ("single", "two")[case % 2], 8, case)
            results = []
            for entries in (1, 16 * len(sec.pattern.steps) * 3, protocol.ENUMERATED_ENTRIES):
                monkeypatch.setattr(protocol, "ENUMERATED_ENTRIES", entries)
                results.append(run_delegation(sec, seed=case, mode="enumerate"))
            for res in results[1:]:
                assert res.transcript.to_jsonl("full") == results[0].transcript.to_jsonl("full"), case
                assert res.fidelity == results[0].fidelity, case
                assert res.worst_branch_fidelity == results[0].worst_branch_fidelity, case

    def test_a_long_circuit_matches_the_per_round_oracle(self, monkeypatch):
        """120 gates on three qubits: about 500 slots, which the default
        bound splits into several runs, each holding client arrays of at
        most ENUMERATED_ENTRIES entries, give the oracle's full transcript."""
        rng = np.random.default_rng(11)
        gates = []
        while len(gates) < 120:
            gates += self._circuit(rng, 3, 8).gates
        sec = ClientSecret(CircuitDescription(3, tuple(gates[:120])), "two", 8, 9)
        sizes, take = [], Client.take

        def recorded_take(client, rows):
            take(client, rows)
            sizes.append(client.eff_outcomes.size)

        monkeypatch.setattr(Client, "take", recorded_take)
        batched = run_delegation(sec, seed=2, mode="enumerate")
        assert sum(size > len(sec.pattern.steps) for size in sizes) > 4  # runs of several rows
        assert max(sizes) <= protocol.ENUMERATED_ENTRIES
        monkeypatch.setattr(protocol, "_enumerated_dialogue", _per_round_dialogue)
        oracle = run_delegation(sec, seed=2, mode="enumerate")
        assert batched.transcript.to_jsonl("full") == oracle.transcript.to_jsonl("full")
        assert abs(batched.fidelity - oracle.fidelity) <= 1e-12
        assert abs(batched.worst_branch_fidelity - oracle.worst_branch_fidelity) <= 1e-12

    def test_a_lost_carried_branch_is_refused(self, monkeypatch):
        """Rounds that always give outcome 1 keep each slot's branch
        probabilities summing to 1, but the carried, all-zero branch has
        probability 0: the run names the slot instead of carrying another
        branch."""
        real = protocol._message_coefficients

        def outcome_one(*args):
            return real(*args) * np.array([0.0, math.sqrt(2)])[:, None]

        monkeypatch.setattr(protocol, "_message_coefficients", outcome_one)
        with pytest.raises(RuntimeError, match=r"^slot 0: its carried branch has probability 0\.000e\+00"):
            run_delegation(_secret([CircuitGate("Rx", (0,), PI / 4)]), seed=1, mode="enumerate")

    def test_rows_from_several_slots_equal_one_slot_at_a_time(self):
        """Each generalised client method, given rows from several slots,
        answers every row as a call for that row's slot alone."""
        sec = _secret([CircuitGate("H", (0,)), CircuitGate("Rx", (1,), PI / 4), CircuitGate("CZ", (0, 1))], n=2)
        rng = np.random.default_rng(5)
        _zero_draws(sec, 6)
        sec.gamma_index[:] = rng.integers(8, size=sec.gamma_index.shape)
        sec.coins[:] = rng.integers(2, size=sec.coins.shape)
        outcomes = rng.integers(2, size=sec.coins.shape)
        batched, single = Client(sec), Client(sec)
        slots = sec.pattern.slots
        rows = np.arange(6)
        for role in protocol.ROLES:
            js = np.array([j for j, slot in enumerate(slots) if role in slot.roles], dtype=int)
            steps = [slots[j].roles[role] for j in js]
            batched.record(js[:, None], role, outcomes[steps], rows)
            for j, step in zip(js.tolist(), steps):
                single.record(j, role, outcomes[step])
        assert np.array_equal(batched.eff_outcomes, single.eff_outcomes)
        which = rng.integers(len(slots), size=40)
        cols = rng.integers(6, size=40)
        for role in ("gamma", "assist", "couple"):
            has = [j for j in range(len(slots)) if role in slots[j].roles]
            picks = np.flatnonzero(np.isin(which, has))
            if picks.size:
                got = batched.prepare_ancilla(which[picks], role, cols[picks])
                want = [single.prepare_ancilla(int(j), role)[c] for j, c in zip(which[picks], cols[picks])]
                assert np.array_equal(got, np.array(want)), role
        picks = np.flatnonzero(np.isin(which, [j for j, slot in enumerate(slots) if "theta" in slot.roles]))
        got = batched.angle_message(which[picks], cols[picks])
        want = [single.angle_message(int(j))[c] for j, c in zip(which[picks], cols[picks])]
        assert picks.size and got.tolist() == want
        with pytest.raises(IndexError):
            batched.prepare_ancilla(np.array([0]), "couple")


class TestTranscript:
    def test_jsonl_round_trip_and_views(self):
        sec = _secret([CircuitGate("Rx", (0,), PI / 2)])
        res = run_delegation(sec, seed=4, mode="sample")
        full = res.transcript.to_jsonl(view="full")
        server = res.transcript.to_jsonl(view="server")
        assert "client_log" in full
        assert "client_log" not in server
        for line in server.strip().splitlines()[1:]:
            Message.from_dict(json.loads(line))

    def test_batched_angle_message_leaves_the_client_log_empty(self):
        """The dialogue logs a slot's draws; a batch of rows, as the audit
        runs, writes no client-log entry."""
        sec = _secret([CircuitGate("Rx", (0,), PI / 4)])
        slot = next(i for i, s in enumerate(sec.pattern.slots) if s.kind == "RX")
        _zero_draws(sec, 16)
        _force_draw(sec, slot, gamma_index=np.arange(16) % 8, r_payload=np.arange(16) // 8)
        cl = Client(sec)
        assert len(cl.angle_message(slot)) == 16
        assert cl.transcript.client_log == []

    def test_unknown_view_rejected(self):
        res = run_delegation(_secret([CircuitGate("Rx", (0,), PI / 2)]), seed=4, mode="sample")
        for view in ("bogus", "Server", "", None):
            with pytest.raises(ValueError, match="transcript view"):
                res.transcript.to_jsonl(view=view)

    def test_server_view_hides_secrets(self):
        sec = _secret([CircuitGate("Rz", (0,), 3 * PI / 4)])
        res = run_delegation(sec, seed=4, mode="sample")
        text = res.transcript.to_jsonl(view="server")
        assert "theta_prime" not in text
        assert "gamma_index" not in text

    def test_server_run_reconstructible_from_messages(self):
        """The server's behaviour is a function of the messages alone: replay
        the recorded inputs on a fresh server and get identical outcomes."""
        circ = CircuitDescription(1, (CircuitGate("H", (0,)), CircuitGate("Rz", (0,), PI / 2)))
        sec = ClientSecret(circ, "two", 8, seed=13)
        res = run_delegation(sec, seed=21, mode="sample")
        msgs = res.transcript.messages
        inbound = [m for m in msgs if m.kind != "OUTCOME"]
        outcomes = [m.bit for m in msgs if m.kind == "OUTCOME"]
        # serialize and reconstruct
        inbound = [Message.from_dict(json.loads(json.dumps(m.to_dict()))) for m in inbound]
        replay = Server(pattern_shape(sec.pattern), 1, "0", 8, seed=0)
        got = [replay.handle(m, outcome=o).bit for m, o in zip(inbound, outcomes)]
        assert got == outcomes

    def test_message_kind_sequence_leaks_only_shape(self):
        a = _secret([CircuitGate("Rz", (0,), PI / 4)], seed=1)
        b = _secret([CircuitGate("Rx", (0,), 5 * PI / 4)], seed=2)
        ra = run_delegation(a, seed=3, mode="sample")
        rb = run_delegation(b, seed=3, mode="sample")
        kinds_a = [m.kind for m in ra.transcript.messages]
        kinds_b = [m.kind for m in rb.transcript.messages]
        assert kinds_a == kinds_b


class TestAudit:
    def test_exact_blindness(self):
        rep = audit_blindness(grid_n=8)
        assert rep.ancilla_trace_distance <= 1e-12
        assert rep.angle_max_nonuniformity == 0.0
        assert rep.angle_tvd == 0.0
        assert rep.output_diag_error <= 1e-10
        assert rep.output_gamma_spread <= 1e-10
        assert rep.passed

    def test_distribution_independent_of_secret(self):
        for tp, tpa in ((0.0, PI), (PI / 4, 3 * PI / 2)):
            rep = audit_blindness(grid_n=8, theta_prime=tp, theta_prime_alt=tpa)
            assert rep.angle_tvd == 0.0

    def test_larger_grid(self):
        rep = audit_blindness(grid_n=16)
        assert rep.passed

    def test_largest_grid(self):
        rep = audit_blindness(grid_n=MAX_GRID)
        assert rep.passed and rep.angle_tvd == 0.0 and rep.angle_max_nonuniformity == 0.0

    @pytest.mark.parametrize("grid_n", [8, 16])
    def test_batched_output_check_equals_one_server_step_per_payload(self, monkeypatch, grid_n):
        """Check (c) steps every payload row in one ``branch_step`` call; its
        post-step states equal, row for row, one ``server_step`` per payload
        and outcome."""
        calls = []
        real_coefficients, real_step = protocol._message_coefficients, protocol.branch_step

        def coefficients(msg, shape, grid, values=None):
            calls.append((values, shape))
            return real_coefficients(msg, shape, grid, values)

        def step(*args):
            result = real_step(*args)
            calls[-1] += (result[0],)
            return result

        monkeypatch.setattr(protocol, "_message_coefficients", coefficients)
        monkeypatch.setattr(protocol, "branch_step", step)
        assert audit_blindness(grid_n).passed
        monkeypatch.undo()
        start = PureState(1, protocol.AUDIT_INPUT)
        batched = [c for c in calls if c[0] is not None]
        assert len(batched) == 2  # one per secret
        for payloads, shape, after in batched:
            assert payloads.shape == (2 * grid_n, 2) and after.shape == (4 * grid_n, 2)
            for r, payload in enumerate(payloads):
                msg = Message("ANCILLA", shape.slot, payload=tuple(payload))
                for s in (0, 1):
                    want = server_step(start.amplitudes, msg, shape, grid_n, outcome=s)[0]
                    assert np.array_equal(after[2 * r + s], want), (r, s)

    def test_every_even_grid_is_exact(self):
        for grid_n in range(4, 33, 2):
            rep = audit_blindness(grid_n=grid_n)
            assert rep.passed, grid_n
            assert rep.angle_tvd == 0.0 and rep.angle_max_nonuniformity == 0.0, grid_n

    @staticmethod
    def _with_draw(monkeypatch, method, **fields):
        """Patch a Client method to run with some of its slot draw replaced."""
        real = getattr(Client, method)

        def patched(self, slot_idx, *args):
            saved = self.gamma_index, self.coins
            self.gamma_index, self.coins = self.gamma_index.copy(), self.coins.copy()
            _set_draws(self, self.secret.pattern, slot_idx, **fields)
            try:
                return real(self, slot_idx, *args)
            finally:
                self.gamma_index, self.coins = saved

        monkeypatch.setattr(Client, method, patched)

    def test_audit_sees_a_payload_without_the_coin_flip(self, monkeypatch):
        self._with_draw(monkeypatch, "prepare_ancilla", r_payload=0)
        rep = audit_blindness(grid_n=8)
        assert rep.ancilla_trace_distance > 0.4
        assert not rep.passed

    def test_audit_sees_an_angle_without_the_hidden_rotation(self, monkeypatch):
        self._with_draw(monkeypatch, "angle_message", gamma_index=0, r_payload=0)
        rep = audit_blindness(grid_n=8)
        assert rep.angle_tvd > 0 and rep.angle_max_nonuniformity > 0
        assert not rep.passed

    def test_off_grid_secret_rejected(self):
        with pytest.raises(ValueError):
            audit_blindness(grid_n=8, theta_prime=0.3)
        with pytest.raises(ValueError):
            audit_blindness(grid_n=12, theta_prime_alt=PI / 4)


class TestGridIndex:
    def test_points_near_the_wrap_around(self):
        assert grid_index(2 * PI - 1e-12, 8) == 0
        assert grid_index(-1e-12, 8) == 0
        assert grid_index(7 * PI / 4 + 1e-12, 8) == 7
        assert grid_index(-PI / 2, 8) == 6

    def test_off_grid_angles_raise(self):
        for theta in (0.1, 2 * PI - 1e-6, -1e-6, PI / 4 + 1e-7):
            with pytest.raises(ValueError):
                grid_index(theta, 8)

    def test_delegation_at_the_largest_grid_is_exact(self):
        """A delegation at MAX_GRID, whose messages are rows of its 8 MiB
        ``grid_bras`` and ``gamma_kets`` tables, runs exactly; one step above it is refused."""
        quarter = 2 * PI * (MAX_GRID // 4) / MAX_GRID
        gates = (CircuitGate("H", (0,)), CircuitGate("Rz", (0,), quarter),
                 CircuitGate("Rx", (0,), 3 * quarter))
        for variant in ("single", "two"):
            res = run_delegation(_secret(gates, variant=variant, grid=MAX_GRID), seed=4, mode="enumerate")
            assert res.worst_branch_fidelity >= 1 - 1e-9
        with pytest.raises(ValueError, match=f"at most {MAX_GRID}"):
            _secret(gates, grid=MAX_GRID + 2)


class TestGridTables:
    @pytest.mark.parametrize("grid_n", [4, 8, 12, 256, MAX_GRID])
    def test_rows_equal_the_per_message_expressions(self, grid_n):
        """Each table row equals bit for bit what a round computed from its
        angle: the bras of the reduced grid angle, and the unit ket at the
        grid angle plus the coin's half-turn."""
        bras, kets = grid_bras(grid_n), gamma_kets(grid_n)
        assert bras.shape == kets.shape == (grid_n, 2, 2)
        indices = range(grid_n) if grid_n < MAX_GRID else (0, 1, grid_n // 2, grid_n - 1)
        for k in indices:
            assert np.array_equal(bras[k], basis_kets(_reduce_angle(grid_angle(k, grid_n)), 0.0).conj()), k
            for c in (0, 1):
                want = protocol._unit_rows(param_kets("+", grid_angle(np.array([k]), grid_n) + c * PI, 0.0))[0]
                assert np.array_equal(kets[k, c], want), (k, c)
        assert np.array_equal(protocol._ZERO_BRAS, basis_kets(0.0, 0.0).conj())

    def test_tables_refuse_writes(self):
        for table in (grid_bras(8), gamma_kets(8), protocol._ASSIST_KETS, protocol._COUPLE_KETS, protocol._ZERO_BRAS):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0


class TestJointDistribution:
    def test_angle_and_outcomes_independent_of_secret(self):
        """Exhaustively over (hidden draw, coins, first outcome), the joint
        distribution of (angle message, outcome bits) the server sees is the
        same for two different secret angles; both outcomes carry probability
        exactly one half on these rounds."""
        from collections import Counter

        def joint(theta_prime):
            sec = _secret([CircuitGate("Rx", (0,), theta_prime)])
            slot = next(i for i, s in enumerate(sec.pattern.slots) if s.kind == "RX")
            dist = Counter()
            for gi in range(8):
                for r_pay in (0, 1):
                    for r_ang in (0, 1):
                        for s1 in (0, 1):
                            for s2 in (0, 1):
                                _force_draw(
                                    sec, slot, gamma_index=gi, r_payload=r_pay, r_angle=r_ang
                                )
                                cl = Client(sec)
                                cl.record(slot, "gamma", s1)
                                k = int(cl.angle_message(slot)[0])
                                # both rounds have exactly balanced branches
                                dist[(k, s1, s2)] += 1.0 / (8 * 2 * 2 * 2 * 2)
            return dist

        d1 = joint(PI / 4)
        d2 = joint(3 * PI / 2)
        assert d1 == d2
        assert max(abs(v - 1.0 / 32) for v in d1.values()) == 0.0


class TestSlotRounds:
    def test_round_structure(self):
        sec_s = _secret([CircuitGate("H", (0,))], variant="single")
        kinds = {s.kind for s in sec_s.pattern.slots}
        assert kinds <= {"J", "ASSIST"}
        shape = pattern_shape(sec_s.pattern)
        for slot in sec_s.pattern.slots:
            rounds = [shape[step].expects for step in slot.step_indices]
            if slot.kind == "J":
                assert rounds == ["ANCILLA", "ANCILLA", "ANGLE"]
            else:
                assert rounds == ["ANCILLA"]
