"""Blind delegation: client and server state machines, transcripts, audits.

The client owns the circuit and per-slot angles; the server owns the register
and executes steps.  Per rotation slot the dialogue is: the client sends a
randomly rotated ancilla, the server couples and measures it at the fixed
basis and returns the outcome, the client then sends one basis angle whose
value folds its secret angle, the hidden rotation, the accumulated byproduct
frame and a random half-turn, and the server measures at that angle.  Every
message the server sees is either a maximally mixed ancilla (after averaging
the client's coin) or a grid angle whose distribution is exactly uniform.
"""
from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import param_state
from .linalg import I2, H, DensityMatrix, PureState, apply_pauli_frame, trace_distance
from .patterns import CZ_SLOT_ANCILLA, CircuitDescription, CircuitGate, compile_circuit
from .register import (
    AdaptiveAngle,
    GatePattern,
    RegisterState,
    advance,
    branch_operators,
    branch_step,
    frame_bits,
    init_register,
)

TWO_PI = 2.0 * math.pi
DEFAULT_GRID = 8
# largest grid size: its spacing 2 pi / 2^16 (about 1e-4) stays five orders of
# magnitude above grid_index's 1e-9 tolerance, and an audit's time grows
# linearly with the size
MAX_GRID = 1 << 16
STANDARD_PAYLOAD = (1 + 0j, 0j)  # |0>, the ancilla an ANGLE round couples
# register input of the audited hidden-rotation round: cos(pi/3)|+> + sin(pi/3) e^(i pi/5)|->
AUDIT_INPUT = H @ np.array([math.cos(math.pi / 3), math.sin(math.pi / 3) * cmath.exp(1j * math.pi / 5)])


class ProtocolOrderError(RuntimeError):
    """A message arrived out of protocol order."""


def check_grid(grid_n: int) -> None:
    """Reject a grid size that is not an even integer in [4, MAX_GRID]."""
    if grid_n < 4 or grid_n % 2:
        raise ValueError(f"grid size must be an even integer >= 4, got {grid_n}")
    if grid_n > MAX_GRID:
        raise ValueError(f"grid size must be at most {MAX_GRID}, got {grid_n}")


def grid_angle(k: int, grid_n: int) -> float:
    """Angle of grid point ``k``, the same float ``grid_angles`` holds."""
    return TWO_PI * k / grid_n


def grid_angles(grid_n: int) -> tuple[float, ...]:
    check_grid(grid_n)
    return tuple(grid_angle(k, grid_n) for k in range(grid_n))


def grid_index(theta: float, grid_n: int) -> int:
    """Index of the grid point at ``theta``, which must lie within 1e-9 of it
    (distances taken modulo 2 pi)."""
    k = round((theta % TWO_PI) / (TWO_PI / grid_n)) % grid_n
    d = (theta - k * TWO_PI / grid_n) % TWO_PI
    if min(d, TWO_PI - d) > 1e-9:
        raise ValueError(f"angle {theta} does not lie on the grid of size {grid_n}")
    return k


# ---------------------------------------------------------------------------
# messages and transcripts
# ---------------------------------------------------------------------------


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


@dataclass(frozen=True)
class Message:
    kind: str  # 'ANCILLA' | 'ANGLE' | 'OUTCOME'
    slot: int
    payload: tuple[complex, complex] | None = None
    theta_grid: int | None = None
    bit: int | None = None

    def __post_init__(self):
        if not _is_int(self.slot):
            raise ValueError(f"message slot must be an integer, got {self.slot!r}")
        if self.kind == "ANCILLA":
            if self.payload is None:
                raise ValueError("ANCILLA message needs a payload")
            v = np.array(self.payload, dtype=complex)
            # NaN fails every comparison, so finiteness is checked on its own
            if v.shape != (2,) or not np.isfinite(v).all() or abs(np.linalg.norm(v) - 1.0) > 1e-9:
                raise ValueError("ANCILLA payload is not a one-qubit unit state")
        elif self.kind == "ANGLE":
            if not _is_int(self.theta_grid) or self.theta_grid < 0:
                raise ValueError(
                    f"ANGLE message theta_grid must be a non-negative integer, got {self.theta_grid!r}"
                )
        elif self.kind == "OUTCOME":
            if not _is_int(self.bit) or self.bit not in (0, 1):
                raise ValueError(f"OUTCOME message bit must be 0 or 1, got {self.bit!r}")
        else:
            raise ValueError(f"unknown message kind {self.kind!r}")

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind, "slot": self.slot}
        if self.kind == "ANCILLA":
            d["payload"] = [[z.real, z.imag] for z in self.payload]
        elif self.kind == "ANGLE":
            d["theta_grid"] = self.theta_grid
        else:
            d["bit"] = self.bit
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Message":
        """Parse a wire message; its slot must also be non-negative."""
        try:
            if _is_int(d["slot"]) and d["slot"] < 0:
                raise ValueError(f"message slot must be non-negative, got {d['slot']}")
            if d["kind"] == "ANCILLA":
                payload = tuple(complex(re, im) for re, im in d["payload"])
                return cls("ANCILLA", d["slot"], payload=payload)
            if d["kind"] == "ANGLE":
                return cls("ANGLE", d["slot"], theta_grid=d["theta_grid"])
            return cls("OUTCOME", d["slot"], bit=d["bit"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed message: {exc!r}") from None


@dataclass
class ProtocolTranscript:
    messages: list[Message] = field(default_factory=list)
    client_log: list[dict] = field(default_factory=list)

    def to_jsonl(self, view: str = "full") -> str:
        lines = [json.dumps({"view": view}, sort_keys=True)]
        for m in self.messages:
            lines.append(json.dumps(m.to_dict(), sort_keys=True))
        if view == "full":
            for entry in self.client_log:
                lines.append(json.dumps({"client_log": entry}, sort_keys=True))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# client
# ---------------------------------------------------------------------------


@dataclass
class SlotDraw:
    gamma_index: int | None = None
    r_payload: int = 0
    r_assist: int = 0
    r_angle: int = 0


@dataclass
class ClientSecret:
    """Everything the server must never learn: the circuit, the per-slot
    angles, and the random draws that hide them."""

    circuit: CircuitDescription
    variant: str
    grid_n: int
    seed: int
    pattern: GatePattern = field(init=False)
    draws: list[SlotDraw] = field(init=False)

    def __post_init__(self):
        check_grid(self.grid_n)
        self.pattern = compile_circuit(self.circuit, self.variant)
        for slot in self.pattern.slots:
            if slot.theta_prime is not None:
                grid_index(slot.theta_prime, self.grid_n)  # angles must be on-grid
        rng = np.random.default_rng(self.seed)
        self.draws = []
        for slot in self.pattern.slots:
            d = SlotDraw()
            if slot.kind in ("J", "RX", "RZ"):
                d.gamma_index = int(rng.integers(self.grid_n))
                d.r_payload = int(rng.integers(2))
                d.r_angle = int(rng.integers(2))
                if slot.kind == "J":
                    d.r_assist = int(rng.integers(2))
            else:  # ASSIST, CZ2
                d.r_payload = int(rng.integers(2))
            self.draws.append(d)


class Client:
    """Drives one delegation; produces outgoing messages and digests outcomes."""

    def __init__(self, secret: ClientSecret):
        self.secret = secret
        n_steps = len(secret.pattern.steps)
        self.eff_outcomes = [0] * n_steps
        self.payload_bits = [0] * n_steps
        self.transcript = ProtocolTranscript()

    # -- message producers ----------------------------------------------------

    def prepare_ancilla(self, slot_idx: int, role: str) -> Message:
        """Step-1 style quantum message for the given round of a slot."""
        slot = self.secret.pattern.slots[slot_idx]
        d = self.secret.draws[slot_idx]
        if role == "gamma":
            gamma = grid_angle(d.gamma_index, self.secret.grid_n) + d.r_payload * math.pi
            ket = param_state("+", gamma, 0.0)
        elif role == "assist":
            bit = d.r_assist if "gamma" in slot.roles else d.r_payload
            ket = param_state("+", bit * math.pi, 0.0)
        elif role == "couple":
            anc = CZ_SLOT_ANCILLA
            ket = param_state("+", anc.gamma + d.r_payload * math.pi, anc.delta)
            self.payload_bits[slot.roles["couple"]] = d.r_payload
        else:
            raise ValueError(f"no ancilla round for role {role!r}")
        return Message("ANCILLA", slot_idx, payload=tuple(ket.amplitudes))

    def angle_message(self, slot_idx: int) -> Message:
        """Step-3 style basis angle, folding the secret and its hiding."""
        slot = self.secret.pattern.slots[slot_idx]
        d = self.secret.draws[slot_idx]
        gamma_eff = grid_angle(d.gamma_index, self.secret.grid_n) + d.r_payload * math.pi
        folded = AdaptiveAngle(
            (
                (slot.theta_sign * slot.theta_prime, slot.theta_negate),
                (-gamma_eff, slot.gamma_negate),
            )
        )
        theta = folded.resolve(self.eff_outcomes, self.payload_bits) + d.r_angle * math.pi
        k = grid_index(theta, self.secret.grid_n)
        self.transcript.client_log.append(
            {
                "slot": slot_idx,
                "kind": slot.kind,
                "theta_prime": slot.theta_prime,
                "gamma_index": d.gamma_index,
                "r_payload": d.r_payload,
                "r_angle": d.r_angle,
                "theta_sign": slot.theta_sign,
            }
        )
        return Message("ANGLE", slot_idx, theta_grid=k)

    # -- outcome digestion ------------------------------------------------------

    def record(self, slot_idx: int, role: str, outcome: int):
        slot = self.secret.pattern.slots[slot_idx]
        d = self.secret.draws[slot_idx]
        step = slot.roles[role]
        eff = outcome
        if role == "assist" and "gamma" in slot.roles:
            eff ^= d.r_assist
        elif role == "assist":
            eff ^= d.r_payload  # standalone assistant slot
        elif role == "theta":
            eff ^= d.r_angle
        self.eff_outcomes[step] = eff


def slot_rounds(slot) -> tuple[tuple[str, str], ...]:
    """Ordered (role, message kind) rounds composing one slot."""
    if slot.kind == "J":
        return (("gamma", "ANCILLA"), ("assist", "ANCILLA"), ("theta", "ANGLE"))
    if slot.kind in ("RX", "RZ"):
        return (("gamma", "ANCILLA"), ("theta", "ANGLE"))
    if slot.kind == "ASSIST":
        return (("assist", "ANCILLA"),)
    if slot.kind == "CZ2":
        return (("couple", "ANCILLA"),)
    raise ValueError(slot.kind)


# ---------------------------------------------------------------------------
# server
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServerStepShape:
    """Secret-free description of one step: where to couple, what message
    kind resolves its basis, and which slot's messages drive it."""

    targets: tuple[int, ...]
    entangler_labels: tuple[str, ...]
    expects: str  # 'ANCILLA' | 'ANGLE'
    slot: int
    basis_phi: float = 0.0


def pattern_shape(pattern: GatePattern) -> tuple[ServerStepShape, ...]:
    angle_steps = {
        slot.roles["theta"] for slot in pattern.slots if "theta" in slot.roles
    }
    slot_of = {i: k for k, slot in enumerate(pattern.slots) for i in slot.step_indices}
    return tuple(
        ServerStepShape(
            step.targets,
            step.entangler_labels,
            "ANGLE" if i in angle_steps else "ANCILLA",
            slot_of[i],
            step.basis_phi,
        )
        for i, step in enumerate(pattern.steps)
    )


def _message_operators(msg: Message, shape: ServerStepShape, grid_n: int, n: int) -> np.ndarray:
    """Kraus pair of the step ``shape`` driven by ``msg``: the message's
    ancilla measured at the fixed basis, or the standard ancilla measured at
    the message's grid angle.  Rejects a message the step does not expect."""
    if msg.kind != shape.expects:
        raise ProtocolOrderError(f"expected a {shape.expects} message, got {msg.kind}")
    if msg.slot != shape.slot:
        raise ProtocolOrderError(f"expected a message for slot {shape.slot}, got slot {msg.slot}")
    if msg.kind == "ANCILLA":
        payload, theta = tuple(complex(z) for z in msg.payload), 0.0
    else:
        check_grid(grid_n)
        if msg.theta_grid >= grid_n:
            raise ValueError(f"grid index {msg.theta_grid} is outside the grid of size {grid_n}")
        payload, theta = STANDARD_PAYLOAD, grid_angle(msg.theta_grid, grid_n)
    return branch_operators(shape.entangler_labels, shape.targets, n, payload, theta, shape.basis_phi)


def server_step(
    state: RegisterState,
    msg: Message,
    shape: ServerStepShape,
    grid_n: int = DEFAULT_GRID,
    outcome=None,
    rng=None,
):
    """Execute one step from a message: couple the (given or standard) ancilla
    to the shape's targets and measure.

    Returns (new_state, OUTCOME message, branch probability).
    """
    ops = _message_operators(msg, shape, grid_n, state.register.num_qubits)
    new_state, s, prob = advance(state, ops, outcome, rng)
    return new_state, Message("OUTCOME", msg.slot, bit=s), prob


class Server:
    """Honest server: executes messages against the pattern shape in order."""

    def __init__(self, shape, num_qubits: int, input_state=None, grid_n: int = DEFAULT_GRID, seed=None):
        self.shape = tuple(shape)
        self.grid_n = grid_n
        self.state = init_register(num_qubits, input_state if input_state is not None else "0" * num_qubits)
        self.cursor = 0
        self.rng = np.random.default_rng(seed)

    def handle(self, msg: Message, outcome=None) -> Message:
        if self.cursor >= len(self.shape):
            raise ProtocolOrderError("protocol already finished")
        self.state, out, _ = server_step(
            self.state, msg, self.shape[self.cursor], self.grid_n, outcome, self.rng
        )
        self.cursor += 1
        return out


# ---------------------------------------------------------------------------
# delegation driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DelegationResult:
    final_state: PureState
    reference_state: PureState
    fidelity: float
    transcript: ProtocolTranscript
    worst_branch_fidelity: float | None = None


def run_delegation(
    secret: ClientSecret,
    seed=None,
    input_state=None,
    mode: str = "sample",
) -> DelegationResult:
    """Execute the full delegated run.

    ``mode='sample'`` plays one seeded trajectory; ``mode='enumerate'`` expands
    every measurement branch slot by slot, asserting that all branches agree
    after correction before carrying one representative forward, and reports
    the worst branch fidelity.
    """
    pattern = secret.pattern
    n = pattern.num_qubits
    client = Client(secret)
    start = init_register(n, input_state if input_state is not None else "0" * n).register
    reference = PureState(n, pattern.target @ start.amplitudes)
    if mode == "sample":
        server = Server(pattern_shape(pattern), n, input_state, secret.grid_n, seed)
        _dialogue(client, server)
        raw, worst = server.state.register.amplitudes, None
    elif mode == "enumerate":
        raw, worst = _enumerated_dialogue(client, start.amplitudes)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    branch = [(client.eff_outcomes, client.payload_bits)]
    final = PureState(n, _corrected(raw[None], pattern.corrections, branch)[0])
    fid = final.fidelity(reference)
    return DelegationResult(
        final, reference, fid, client.transcript, None if worst is None else min(worst, fid)
    )


def _corrected(states: np.ndarray, corrections, branches) -> np.ndarray:
    """Apply to each row the byproduct frame of its branch, given as the
    client's (outcome bits, payload bits) lists."""
    eff = np.array([b[0] for b in branches], dtype=np.int8).T
    pay = np.array([b[1] for b in branches], dtype=np.int8).T
    return apply_pauli_frame(states, *frame_bits(corrections, eff, pay))


def _client_message(client: Client, slot_idx: int, role: str, kind: str) -> Message:
    if kind == "ANCILLA":
        return client.prepare_ancilla(slot_idx, role)
    return client.angle_message(slot_idx)


def _dialogue(client: Client, server: Server):
    for slot_idx, slot in enumerate(client.secret.pattern.slots):
        for role, kind in slot_rounds(slot):
            msg = _client_message(client, slot_idx, role, kind)
            client.transcript.messages.append(msg)
            out = server.handle(msg)
            client.transcript.messages.append(out)
            client.record(slot_idx, role, out.bit)


def _enumerated_dialogue(client: Client, state: np.ndarray):
    """Expand every outcome combination of each slot with the real client's
    messages (copying only its outcome and payload lists per combination) and
    carry the first one forward into the transcript.  Returns the carried raw
    register state and the worst fidelity between a combination and the first
    after the slot-boundary frame."""
    pattern = client.secret.pattern
    shape = pattern_shape(pattern)
    n, grid_n = pattern.num_qubits, client.secret.grid_n
    log = client.transcript.client_log
    worst = 1.0
    for slot_idx, slot in enumerate(pattern.slots):
        states, probs = state[None], np.ones(1)
        # per combination: the client's outcome and payload lists, messages so far
        branches = [(client.eff_outcomes, client.payload_bits, [])]
        for role, kind in slot_rounds(slot):
            n_log = len(log)
            msgs = []
            for eff, pay, _ in branches:
                client.eff_outcomes, client.payload_bits = eff, pay
                msgs.append(_client_message(client, slot_idx, role, kind))
            del log[n_log + 1:]  # an angle round's log entry is the same on every branch
            groups: dict[Message, int] = {}
            which = np.array([groups.setdefault(m, len(groups)) for m in msgs])
            step_shape = shape[slot.roles[role]]
            pairs = [_message_operators(m, step_shape, grid_n, n) for m in groups]
            states, parent, outs, p = branch_step(states, pairs, which)
            probs = probs[parent] * p
            children = []
            for b, s in zip(parent.tolist(), outs.tolist()):
                eff, pay, sent = branches[b]
                client.eff_outcomes, client.payload_bits = list(eff), list(pay)
                client.record(slot_idx, role, s)
                reply = Message("OUTCOME", slot_idx, bit=s)
                children.append((client.eff_outcomes, client.payload_bits, sent + [msgs[b], reply]))
            branches = children
        total = probs.sum()
        if abs(total - 1.0) > 1e-9:
            raise RuntimeError(f"slot {slot_idx} branch probabilities sum to {total}")
        corrected = _corrected(states, pattern.slot_boundaries[slot_idx], branches)
        fids = np.abs(corrected[1:] @ corrected[0].conj()) ** 2
        worst = min(worst, float(np.min(fids, initial=1.0)))
        client.eff_outcomes, client.payload_bits, sent = branches[0]
        client.transcript.messages.extend(sent)
        state = states[0]
    return state, worst


# ---------------------------------------------------------------------------
# blindness audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditReport:
    grid_n: int
    ancilla_trace_distance: float
    angle_max_nonuniformity: float
    angle_tvd: float
    output_diag_error: float
    output_gamma_spread: float
    passed: bool


def audit_blindness(
    grid_n: int = DEFAULT_GRID,
    theta_prime: float | None = None,
    theta_prime_alt: float | None = None,
    always_r0: bool = False,
) -> AuditReport:
    """Exhaustive blindness checks on the implemented ``Client`` and
    ``server_step``, run on the RX slot of the one-gate circuit
    Rx(theta_prime) in the two-entangler variant.

    (a) For every hidden-rotation value the ancilla payload averaged over the
    client's coin is maximally mixed.  (b) For either parity of the incoming
    frame the basis-angle message, over every hidden value, coin and
    hidden-round outcome, is exactly uniform on the grid and its distribution
    is independent of the secret angle.  (c) After the hidden-rotation round
    on ``AUDIT_INPUT`` the register state averaged over the coin is the same
    fixed diagonal matrix for every hidden value and outcome.  The two secret
    angles default to the grid points 1 and 3 (pi/4 and 3 pi/4 on the
    8-point grid); an off-grid secret raises ValueError.  ``always_r0`` pins
    the payload coin to 0, as a sabotaged client would.
    """
    check_grid(grid_n)
    rs = (0,) if always_r0 else (0, 1)
    secrets = (grid_angle(1, grid_n) if theta_prime is None else theta_prime,
               grid_angle(3, grid_n) if theta_prime_alt is None else theta_prime_alt)
    start = init_register(1, PureState(1, AUDIT_INPUT))
    payloads, posts = [], []  # coin-averaged density matrices
    counts = np.zeros((2, 2, grid_n), dtype=int)  # per secret and incoming frame parity
    for which, tp in enumerate(secrets):
        secret = ClientSecret(CircuitDescription(1, (CircuitGate("Rx", (0,), tp),)), "two", grid_n, 0)
        slot_idx = [sl.kind for sl in secret.pattern.slots].index("RX")
        slot = secret.pattern.slots[slot_idx]
        shape = pattern_shape(secret.pattern)[slot.roles["gamma"]]
        for gi in range(grid_n):
            payload, post = np.zeros((2, 2), dtype=complex), np.zeros((2, 2, 2), dtype=complex)
            for r in rs:
                secret.draws[slot_idx] = SlotDraw(gi, r)
                msg = Client(secret).prepare_ancilla(slot_idx, "gamma")
                ket = np.array(msg.payload)
                payload += np.outer(ket, ket.conj()) / len(rs)
                for s in (0, 1):
                    v = server_step(start, msg, shape, grid_n, outcome=s)[0].register.amplitudes
                    post[s] += np.outer(v, v.conj()) / len(rs)
                    for r_angle, parity in itertools.product((0, 1), (0, 1)):
                        secret.draws[slot_idx] = SlotDraw(gi, r, 0, r_angle)
                        client = Client(secret)
                        # one earlier outcome sets the frame parity the angle reads
                        client.eff_outcomes[min(slot.theta_negate)] = parity
                        client.record(slot_idx, "gamma", s)
                        counts[which, parity, client.angle_message(slot_idx).theta_grid] += 1
            payloads.append(payload)
            posts.extend(post)

    eye_half = DensityMatrix(1, I2 / 2)
    worst_td = 0.0
    for avg in payloads:
        rho = DensityMatrix(1, (avg + avg.conj().T) / 2 / np.trace(avg).real)
        worst_td = max(worst_td, trace_distance(rho, eye_half))

    dist = counts / counts.sum(axis=2, keepdims=True)
    nonuni = float(np.abs(dist - 1.0 / grid_n).max())
    tvd = float(0.5 * np.abs(dist[0] - dist[1]).sum(axis=1).max())

    # the register in the |+/-> basis keeps the input's |+/-> populations
    expected = np.diag(np.abs(H @ AUDIT_INPUT) ** 2)
    rhos = [H @ avg @ H for avg in posts]
    diag_err = max(float(np.abs(rho - expected).max()) for rho in rhos)
    spread = max(float(np.abs(rho - rhos[0]).max()) for rho in rhos)

    passed = worst_td <= 1e-12 and nonuni == 0.0 and tvd == 0.0 and diag_err <= 1e-10
    return AuditReport(grid_n, worst_td, nonuni, tvd, diag_err, spread, passed)
