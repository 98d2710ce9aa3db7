"""Client/server dialogue, transcripts, delegation correctness, blindness."""

import hashlib
import json
import math

import numpy as np
import pytest

from adqc.linalg import I2, PureState, trace_distance, DensityMatrix
from adqc.patterns import CircuitDescription, CircuitGate
from adqc.protocol import (
    Client,
    ClientSecret,
    Message,
    ProtocolOrderError,
    Server,
    SlotDraw,
    MAX_GRID,
    audit_blindness,
    grid_angle,
    grid_angles,
    grid_index,
    pattern_shape,
    run_delegation,
    slot_rounds,
)

PI = math.pi


def _secret(gates, n=1, variant="two", grid=8, seed=11):
    return ClientSecret(CircuitDescription(n, tuple(gates)), variant, grid, seed)


def _force_draw(secret, slot, **kw):
    secret.draws[slot] = SlotDraw(**{**vars(secret.draws[slot]), **kw})


class TestClientMessages:
    def test_prepared_ancilla_values(self):
        sec = _secret([CircuitGate("Rx", (0,), PI / 4)])
        slot = next(i for i, s in enumerate(sec.pattern.slots) if s.kind == "RX")
        _force_draw(sec, slot, gamma_index=2, r_payload=0)  # gamma = pi/2
        cl = Client(sec)
        msg = cl.prepare_ancilla(slot, "gamma")
        np.testing.assert_allclose(msg.payload, [1 / math.sqrt(2)] * 2, atol=1e-12)

        _force_draw(sec, slot, gamma_index=2, r_payload=1)  # gamma = 3 pi/2
        cl = Client(sec)
        msg = cl.prepare_ancilla(slot, "gamma")
        expect = [math.cos(3 * PI / 4), math.sin(3 * PI / 4)]
        np.testing.assert_allclose(msg.payload, expect, atol=1e-12)

    def test_coin_average_is_maximally_mixed(self):
        sec = _secret([CircuitGate("Rx", (0,), PI / 4)])
        slot = next(i for i, s in enumerate(sec.pattern.slots) if s.kind == "RX")
        for gi in range(8):
            avg = np.zeros((2, 2), dtype=complex)
            for r in (0, 1):
                _force_draw(sec, slot, gamma_index=gi, r_payload=r)
                v = np.array(Client(sec).prepare_ancilla(slot, "gamma").payload)
                avg += 0.5 * np.outer(v, v.conj())
            rho = DensityMatrix(1, (avg + avg.conj().T) / 2)
            assert trace_distance(rho, DensityMatrix(1, I2 / 2)) < 1e-12

    def test_angle_formula(self):
        """theta' = pi/4, gamma = pi/2, s = 0, r = 0, minus sign: the angle
        message carries pi/4 - pi/2 mod 2pi = 7pi/4."""
        sec = _secret([CircuitGate("Rx", (0,), PI / 4)])
        slot = next(i for i, s in enumerate(sec.pattern.slots) if s.kind == "RX")
        assert sec.pattern.slots[slot].theta_prime == pytest.approx(PI / 4)
        _force_draw(sec, slot, gamma_index=2, r_payload=0, r_angle=0)
        cl = Client(sec)
        cl.record(slot, "gamma", 0)
        msg = cl.angle_message(slot)
        assert grid_angles(8)[msg.theta_grid] == pytest.approx(7 * PI / 4)

    def test_angle_half_turn_only(self):
        sec = _secret([CircuitGate("Rx", (0,), 0.0)])
        slot = next(i for i, s in enumerate(sec.pattern.slots) if s.kind == "RX")
        _force_draw(sec, slot, gamma_index=0, r_payload=0, r_angle=1)
        cl = Client(sec)
        cl.record(slot, "gamma", 0)
        msg = cl.angle_message(slot)
        assert grid_angles(8)[msg.theta_grid] == pytest.approx(PI)

    def test_postprocess(self):
        sec = _secret([CircuitGate("Rx", (0,), PI / 4)])
        slot = next(i for i, s in enumerate(sec.pattern.slots) if s.kind == "RX")
        step = sec.pattern.slots[slot].roles["theta"]
        _force_draw(sec, slot, r_angle=1)
        cl = Client(sec)
        cl.record(slot, "theta", 0)
        assert cl.eff_outcomes[step] == 1
        _force_draw(sec, slot, r_angle=0)
        cl = Client(sec)
        cl.record(slot, "theta", 1)
        assert cl.eff_outcomes[step] == 1

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
                    seen.add(cl.angle_message(slot).theta_grid)
                assert seen == set(range(8))


class TestServer:
    def test_out_of_order_message(self):
        sec = _secret([CircuitGate("Rx", (0,), PI / 4)])
        server = Server(pattern_shape(sec.pattern), 1, "0", 8, seed=0)
        with pytest.raises(ProtocolOrderError):
            server.handle(Message("ANGLE", 0, theta_grid=0))

    def test_outcome_message_rejected(self):
        sec = _secret([CircuitGate("Rx", (0,), PI / 4)])
        server = Server(pattern_shape(sec.pattern), 1, "0", 8, seed=0)
        with pytest.raises(ProtocolOrderError):
            server.handle(Message("OUTCOME", 0, bit=0))

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
        server.handle(client.prepare_ancilla(slot, "gamma"))
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
        for bad in ({"slot": 0}, {"kind": "ANCILLA", "slot": 0, "payload": [1, 0]}, {"kind": "OUTCOME"}):
            with pytest.raises(ValueError):
                Message.from_dict(bad)

    def test_ancilla_payload_of_wrong_length(self):
        rng = np.random.default_rng(104)
        for size in rng.choice([0, 1, 3, 4, 8], size=25):
            v = rng.normal(size=size) + 1j * rng.normal(size=size)
            v = v / np.linalg.norm(v) if size else v
            with pytest.raises(ValueError):
                Message("ANCILLA", 7, payload=tuple(v))

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
            msg = Client(sec).prepare_ancilla(shape[0].slot, "gamma")
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

    def test_sampled_transcripts_are_pinned(self):
        circuits = (
            (1, (CircuitGate("H", (0,)), CircuitGate("Rz", (0,), PI / 4))),
            (2, (CircuitGate("H", (0,)), CircuitGate("CZ", (0, 1)), CircuitGate("Rz", (1,), 3 * PI / 4))),
            (2, (CircuitGate("Rx", (0,), PI / 2), CircuitGate("CZ", (1, 0)), CircuitGate("H", (1,)))),
            (3, (CircuitGate("H", (2,)), CircuitGate("CZ", (1, 2)), CircuitGate("Rz", (0,), 5 * PI / 4))),
        )
        for i, pinned in enumerate(self.PINNED_TRANSCRIPTS):
            n, gates = circuits[i // 2]
            sec = ClientSecret(CircuitDescription(n, gates), ("single", "two")[i % 2], 8, 100 + i)
            res = run_delegation(sec, seed=200 + i, mode="sample")
            text = res.transcript.to_jsonl(view="server")
            assert hashlib.sha256(text.encode()).hexdigest() == pinned, i
            assert res.fidelity >= 1 - 1e-9

    def test_sampled_matches_reference_every_seed(self):
        circ = CircuitDescription(1, (CircuitGate("H", (0,)), CircuitGate("Rx", (0,), PI / 2)))
        sec = ClientSecret(circ, "two", 8, seed=2)
        for seed in range(8):
            res = run_delegation(sec, seed=seed, mode="sample")
            assert res.fidelity >= 1 - 1e-9


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

    def test_sabotaged_client_detected(self):
        rep = audit_blindness(grid_n=8, always_r0=True)
        assert rep.ancilla_trace_distance > 0.4
        assert not rep.passed

    def test_larger_grid(self):
        rep = audit_blindness(grid_n=16)
        assert rep.passed

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
            saved = self.secret.draws[slot_idx]
            self.secret.draws[slot_idx] = SlotDraw(**{**vars(saved), **fields})
            try:
                return real(self, slot_idx, *args)
            finally:
                self.secret.draws[slot_idx] = saved

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

    def test_grid_angle_is_the_grid_entry(self):
        for grid_n in (4, 8, 12, 1000):
            assert [grid_angle(k, grid_n) for k in range(grid_n)] == list(grid_angles(grid_n))

    def test_delegation_at_the_largest_grid_builds_no_grid(self, monkeypatch):
        """Client and server compute each grid angle directly, so a delegation
        at MAX_GRID never builds the grid; one step above it is refused."""
        import adqc.protocol as protocol

        calls = []
        monkeypatch.setattr(protocol, "grid_angles", lambda n: calls.append(n) or grid_angles(n))
        quarter = 2 * PI * (MAX_GRID // 4) / MAX_GRID
        gates = (CircuitGate("H", (0,)), CircuitGate("Rz", (0,), quarter),
                 CircuitGate("Rx", (0,), 3 * quarter))
        for variant in ("single", "two"):
            res = run_delegation(_secret(gates, variant=variant, grid=MAX_GRID), seed=4, mode="enumerate")
            assert res.worst_branch_fidelity >= 1 - 1e-9
        assert calls == []
        with pytest.raises(ValueError, match=f"at most {MAX_GRID}"):
            _secret(gates, grid=MAX_GRID + 2)


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
                                k = cl.angle_message(slot).theta_grid
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
        for slot in sec_s.pattern.slots:
            rounds = slot_rounds(slot)
            if slot.kind == "J":
                assert [k for _, k in rounds] == ["ANCILLA", "ANCILLA", "ANGLE"]
            else:
                assert [k for _, k in rounds] == ["ANCILLA"]
