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
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .core import param_kets, preset
from .linalg import I2, H, TWO_PI, PureState, apply_pauli_frame
from .patterns import CZ_SLOT_ANCILLA, CircuitDescription, CircuitGate, _is_int, compile_circuit
from .register import PRUNE_PROBABILITY, GatePattern, _apply_branches, _apply_rows, branch_coefficients
from .register import branch_step, carry, coupling_blocks, frame_bits, init_register, measurement_bras, parities

DEFAULT_GRID = 8
# largest grid size: its spacing 2 pi / 2^16 (about 1e-4) stays five orders of
# magnitude above grid_index's 1e-9 tolerance; an audit's time grows linearly
# with the size, 0.6-0.85 s in process at this size on 2 vCPUs, and its
# grid_bras and gamma_kets tables take 8 MiB together
MAX_GRID = 1 << 16
# grids kept by each of grid_bras and gamma_kets: 64 * N bytes per table, so
# 128 * N bytes per grid, 8 MiB at MAX_GRID and at most 32 MiB in all
GRID_CACHE_SIZE = 4
# slots in one run of an enumerated delegation: a slot has at most 16 leaves,
# so a run's arrays, a few entries or one register state per leaf, have at
# most 2,048 rows however long the circuit
SLOTS_PER_RUN = 128
STANDARD_PAYLOAD = (1 + 0j, 0j)  # |0>, the ancilla an ANGLE round couples
ROLES = ("gamma", "theta", "assist", "couple")  # a slot's round roles, in the seed's draw order
COIN_FLIPPED = ("assist", "theta")  # the roles whose coin's half-turn flips the outcome
# register input of the audited hidden-rotation round: cos(pi/3)|+> + sin(pi/3) e^(i pi/5)|->
AUDIT_INPUT = H @ np.array([math.cos(math.pi / 3), math.sin(math.pi / 3) * cmath.exp(1j * math.pi / 5)])


class ProtocolOrderError(RuntimeError):
    """A message arrived out of protocol order."""


def check_grid(grid_n: int) -> None:
    """Reject a grid size that is not an even integer in [4, MAX_GRID]."""
    if not _is_int(grid_n) or grid_n < 4 or grid_n % 2:
        raise ValueError(f"grid size must be an even integer >= 4, got {grid_n!r}")
    if grid_n > MAX_GRID:
        raise ValueError(f"grid size must be at most {MAX_GRID}, got {grid_n}")


def grid_angle(k, grid_n: int):
    """Angle of grid point ``k``, an integer or an integer array."""
    return TWO_PI * k / grid_n


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
            p = self.payload  # a sequence or (2,) array of two numbers
            seq = isinstance(p, Sequence) and not isinstance(p, (str, bytes)) or getattr(p, "shape", ()) == (2,)
            try:  # an array amplitude would hide its shape from complex(), which also parses strings
                numbers = seq and not any(isinstance(v, (str, bytes)) or getattr(v, "ndim", 0) for v in p)
                a, b = map(complex, p) if numbers else ()
            except (TypeError, ValueError, OverflowError):
                a = b = complex(math.nan)
            # NaN fails every comparison, so only a finite norm within 1e-9 of 1 passes
            norm = math.sqrt((a.real * a.real + b.real * b.real) + (a.imag * a.imag + b.imag * b.imag))
            if not abs(norm - 1.0) <= 1e-9:
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

    @classmethod
    def _build(cls, kind: str, slot: int, payload=None, theta_grid=None, bit=None) -> "Message":
        """A message the dialogues build from the client's read-only tables
        and the server's outcomes, which need none of the checks above."""
        msg = cls.__new__(cls)
        msg.__dict__.update(kind=kind, slot=slot, payload=payload, theta_grid=theta_grid, bit=bit)
        return msg

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
        except (KeyError, TypeError, OverflowError) as exc:  # OverflowError: an int too large for a float
            raise ValueError(f"malformed message: {exc!r}") from None


@dataclass
class ProtocolTranscript:
    messages: list[Message] = field(default_factory=list)
    client_log: list[dict] = field(default_factory=list)

    def to_jsonl(self, view: str = "full") -> str:
        """The log as JSON lines; the "server" view leaves out the client log."""
        if view not in ("full", "server"):
            raise ValueError(f"unknown transcript view {view!r}")
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


@dataclass(eq=False)  # the draws are arrays: compare secrets by identity
class ClientSecret:
    """Everything the server must never learn: the circuit, the per-slot
    angles (``theta_index``: grid indices, 0 where a slot has none), and the
    random draws that hide them: ``gamma_index``, each slot's hidden rotation
    as a (slots, B) grid index array, and ``coins``, each round's half-turn
    coin as a (steps, B) int8 array, one column per delegation and 0 where
    nothing is drawn.  The seed draws one column, and a batch (the audit's)
    replaces them."""

    circuit: CircuitDescription
    variant: str
    grid_n: int
    seed: int
    pattern: GatePattern = field(init=False)
    theta_index: tuple[int, ...] = field(init=False)
    gamma_index: np.ndarray = field(init=False)
    coins: np.ndarray = field(init=False)

    def __post_init__(self):
        check_grid(self.grid_n)
        self.pattern = compile_circuit(self.circuit, self.variant)
        # angles must be on-grid
        self.theta_index = tuple(0 if slot.theta_prime is None else grid_index(slot.theta_prime, self.grid_n)
                                 for slot in self.pattern.slots)
        self.gamma_index = np.zeros((len(self.pattern.slots), 1), dtype=np.int64)
        self.coins = np.zeros((len(self.pattern.steps), 1), dtype=np.int8)
        # (row, is a coin) of each draw in the seed's order: per slot, the
        # hidden index, then the coins of its gamma, theta, assist and couple
        # rounds; one ``integers`` call with per-draw bounds draws them all
        rows = []
        for j, slot in enumerate(self.pattern.slots):
            rows += [(j, 0)] * ("gamma" in slot.roles) + [(slot.roles[role], 1) for role in ROLES if role in slot.roles]
        row, coin = np.array(rows, dtype=np.int64).reshape(-1, 2).T
        draws = np.random.default_rng(self.seed).integers(0, np.where(coin, 2, self.grid_n))
        self.gamma_index[row[coin == 0], 0], self.coins[row[coin == 1], 0] = draws[coin == 0], draws[coin == 1]


def _unit_rows(kets: np.ndarray) -> np.ndarray:
    """Each row scaled to unit norm as ``PureState`` scales one vector:
    ``np.linalg.norm`` of a complex vector adds the dot product of its real
    parts to that of its imaginary parts, so a row keeps its last bits (a
    batched ``norm(axis=-1)`` sums in another order and loses them)."""
    re, im = kets.real[:, None], kets.imag[:, None]
    return kets / np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_COIN_TURNS = np.array([0, 1]) * math.pi  # the half-turn of coin 0 and coin 1
# the unit kets of an assistant and a CZ-coupling round at coin c, in row c,
# and the bras of the angle-0 basis an ANCILLA round is measured in
_ASSIST_KETS = _read_only(_unit_rows(param_kets("+", _COIN_TURNS, 0.0)))
_COUPLE_KETS = _read_only(_unit_rows(param_kets("+", CZ_SLOT_ANCILLA.gamma + _COIN_TURNS, CZ_SLOT_ANCILLA.delta)))
_ZERO_BRAS = _read_only(measurement_bras(0.0))


@lru_cache(maxsize=GRID_CACHE_SIZE)
def grid_bras(grid_n: int) -> np.ndarray:
    """Read-only (N, 2, 2) ``measurement_bras`` of every basis angle of a
    grid of size N, angle index k at [k], built on first use."""
    return _read_only(measurement_bras(grid_angle(np.arange(grid_n), grid_n)))


@lru_cache(maxsize=GRID_CACHE_SIZE)
def gamma_kets(grid_n: int) -> np.ndarray:
    """Read-only (N, 2, 2) unit kets of every gamma round on a grid of size
    N, hidden index g and coin c at [g, c], built on first use."""
    theta = grid_angle(np.arange(grid_n)[:, None], grid_n) + _COIN_TURNS
    return _read_only(_unit_rows(param_kets("+", theta, 0.0).reshape(-1, 2)).reshape(grid_n, 2, 2))


class Client:
    """Drives a batch of B delegations of one secret circuit, one per column:
    produces their outgoing messages and digests their outcomes.

    The client keeps the secret's hidden indices and coins next to its
    (steps, B) int8 effective outcomes, laid out like the outcome bits of
    ``register.run_pattern``, and each column's running frame: (2n, B) bits,
    X and Z of qubit q in rows 2q and 2q + 1, at the input of the slot the
    column is in.  ``advance`` carries it across a slot by the slot's frame
    map, which reads a coin as a two-target step's payload flip; an angle
    reads it and the slot's own outcomes only.  Each method answers one
    slot's round on every column; ``prepare_ancilla`` and ``fold`` also take
    an array of slots, one per row, as an enumerated run asks for its
    leaves."""

    def __init__(self, secret: ClientSecret):
        self.secret = secret
        self.gamma_index, self.coins = secret.gamma_index, secret.coins
        self.eff_outcomes = np.zeros(secret.coins.shape, dtype=np.int8)
        self.frame = np.zeros((2 * secret.pattern.num_qubits, secret.coins.shape[1]), dtype=np.int8)
        self.transcript = ProtocolTranscript()

    def take(self, rows) -> None:
        """Keep the given columns of every per-row array (a column may repeat)."""
        self.gamma_index = self.gamma_index[:, rows]
        self.coins = self.coins[:, rows]
        self.eff_outcomes = self.eff_outcomes[:, rows]
        self.frame = self.frame[:, rows]

    @cached_property
    def _slot_tables(self) -> dict:
        """Per slot: each role's step (one past the last step where it has
        none, so that reading it raises IndexError) and its angle's secret
        index."""
        slots, none = self.secret.pattern.slots, len(self.secret.coins)
        tables: dict = {role: np.array([s.roles.get(role, none) for s in slots], dtype=int) for role in ROLES}
        tables["k_theta"] = np.array(self.secret.theta_index, dtype=np.int64)
        return tables

    # -- message producers ----------------------------------------------------

    def prepare_ancilla(self, slot_idx, role: str) -> np.ndarray:
        """(B, 2) kets of the ancilla sent in the given round, one row of
        ``gamma_kets`` or of the assistant or coupling kets per coin; an
        (R,) array of slots gives (R, B, 2)."""
        if role == "theta":
            raise ValueError(f"no ancilla round for role {role!r}")
        coins = self.coins[self._slot_tables[role][slot_idx]]
        if role == "gamma":
            return gamma_kets(self.secret.grid_n)[self.gamma_index[slot_idx], coins]
        return (_COUPLE_KETS if role == "couple" else _ASSIST_KETS)[coins]

    def fold(self, slot_idx, theta_odd, gamma_odd) -> np.ndarray:
        """Grid indices of the basis angle, folding the secret and its hiding
        in exact integer arithmetic: with pi = N/2 grid steps,
        k = s1*k_theta' - s2*(k_gamma + c_gamma*N/2) + c_theta*N/2 (mod N),
        where s1 = (-1)^theta_odd and s2 = (-1)^gamma_odd are the signs of
        the parities of the slot's two angle sets and c_gamma and c_theta the
        coins of its gamma and theta rounds.  One slot and (B,) parities give
        (B,) indices; an (R,) array of slots and (R, B) parities, (R, B)."""
        tables, half = self._slot_tables, self.secret.grid_n // 2
        steps = np.stack((tables["gamma"][slot_idx], tables["theta"][slot_idx]))
        c_gamma, c_theta = self.coins[steps].astype(np.int64)
        gamma = self.gamma_index[slot_idx] + c_gamma * half
        k_theta = tables["k_theta"][slot_idx, None]
        k = np.where(theta_odd, -k_theta, k_theta) + np.where(gamma_odd, gamma, -gamma) + c_theta * half
        return k % self.secret.grid_n

    def angle_message(self, slot_idx: int) -> np.ndarray:
        """(B,) grid indices of the slot's basis angle: ``fold`` at the
        parities of its two angle sets over its local bits (its incoming
        frame and its earlier outcomes)."""
        slot = self.secret.pattern.slots[slot_idx]
        local = np.concatenate((self.frame[slot.frame_rows], self.eff_outcomes[list(slot.step_indices)]))
        return self.fold(slot_idx, *parities((slot.theta_negate, slot.gamma_negate), local))

    # -- outcome digestion ------------------------------------------------------

    def record(self, slot_idx: int, role: str, outcomes):
        """Digest the (B,) outcome bits of a round: undo the coin of an
        assistant or theta round, whose half-turn flips the outcome (the
        angle folds the gamma coin, and the frame the payload flip)."""
        step, flip = self._slot_tables[role][slot_idx], role in COIN_FLIPPED
        self.eff_outcomes[step] = outcomes ^ self.coins[step] if flip else outcomes

    def advance(self, slot_idx: int) -> None:
        """Carry each column's running frame across the slot by its map."""
        slot = self.secret.pattern.slots[slot_idx]
        steps = list(slot.step_indices)
        bits = self.frame[slot.frame_rows], self.eff_outcomes[steps], self.coins[steps]
        self.frame[slot.frame_rows] = frame_bits(slot.frame_map, *bits)


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
        )
        for i, step in enumerate(pattern.steps)
    )


def _message_coefficients(msg: Message, shape: ServerStepShape, grid_n: int, values=None) -> np.ndarray:
    """(1, 2, 4) branch coefficients of the step ``shape`` driven by ``msg``, or
    (B, 2, 4) of B rows of ``values``, rounds of ``msg``'s kind and coupling
    (checked on ``msg``): an ANCILLA round's kets with the angle-0 bras, or the
    ``grid_bras`` rows of an ANGLE round's indices with the standard
    payload.  Rejects a message the step does not expect."""
    if msg.kind != shape.expects:
        raise ProtocolOrderError(f"expected a {shape.expects} message, got {msg.kind}")
    if msg.slot != shape.slot:
        raise ProtocolOrderError(f"expected a message for slot {shape.slot}, got slot {msg.slot}")
    v_a = preset(shape.entangler_labels[0]).frame.v_a
    if msg.kind == "ANCILLA":
        values = np.array([msg.payload], dtype=complex) if values is None else values
        return branch_coefficients(values @ v_a.T, _ZERO_BRAS)
    check_grid(grid_n)
    if msg.theta_grid >= grid_n:
        raise ValueError(f"grid index {msg.theta_grid} is outside the grid of size {grid_n}")
    values = [msg.theta_grid] if values is None else values
    return branch_coefficients(v_a @ STANDARD_PAYLOAD, grid_bras(grid_n)[values])


def server_step(
    state: np.ndarray,
    msg: Message,
    shape: ServerStepShape,
    grid_n: int = DEFAULT_GRID,
    outcome=None,
    rng=None,
):
    """Execute one step from a message on a (2^n,) register state: couple
    the (given or standard) ancilla to the shape's targets and measure.

    ``outcome`` forces a branch (an error below probability 1e-12), otherwise
    ``rng`` samples one.  Returns (the new (2^n,) state, OUTCOME message,
    branch probability).
    """
    if outcome is None and rng is None:
        raise ValueError("sampling a step requires an rng")
    coeffs = _message_coefficients(msg, shape, grid_n)
    blocks = coupling_blocks(shape.entangler_labels)
    vecs, _, out, p = branch_step(state[None], shape.targets, blocks, coeffs, outcome, rng)
    return vecs[0], Message._build("OUTCOME", msg.slot, bit=int(out[0])), float(p[0])


class Server:
    """Honest server: executes messages against the pattern shape in order,
    on its register's (2^n,) amplitudes, ``state``."""

    def __init__(self, shape, num_qubits: int, input_state=None, grid_n: int = DEFAULT_GRID, seed=None):
        check_grid(grid_n)
        self.shape = tuple(shape)
        self.grid_n = grid_n
        self.state = init_register(num_qubits, input_state).amplitudes
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
    start = init_register(n, input_state).amplitudes
    reference = PureState(n, pattern.target @ start)
    shape = pattern_shape(pattern)
    if mode == "sample":
        server = Server(shape, n, input_state, secret.grid_n, seed)
        _dialogue(client, server, shape)
        raw, worst = server.state, None
    elif mode == "enumerate":
        raw, worst = _enumerated_dialogue(client, start, shape)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    final = PureState(n, apply_pauli_frame(raw[None], client.frame[0::2], client.frame[1::2])[0])
    fid = final.fidelity(reference)
    return DelegationResult(
        final, reference, fid, client.transcript, None if worst is None else min(worst, fid)
    )


def _round_message(client: Client, slot_idx: int, kind: str, value) -> Message:
    """Row 0's message of a round from its ket or grid index ``value``; an
    ANGLE round also logs row 0's hidden index and the coins of its slot's
    gamma and theta rounds, as ``r_payload`` and ``r_angle``."""
    if kind == "ANCILLA":
        return Message._build(kind, slot_idx, payload=tuple(value))
    slot = client.secret.pattern.slots[slot_idx]
    client.transcript.client_log.append({
        "slot": slot_idx, "kind": slot.kind, "theta_prime": slot.theta_prime, "theta_sign": slot.theta_sign,
        "gamma_index": client.gamma_index.item(slot_idx, 0), "r_payload": client.coins.item(slot.roles["gamma"], 0),
        "r_angle": client.coins.item(slot.roles["theta"], 0),
    })
    return Message._build(kind, slot_idx, theta_grid=int(value))


def _dialogue(client: Client, server: Server, shape):
    # one column: its running frame, a view, advances by ``register.carry`` in plain Python
    frame, coins = client.frame[:, 0], client.coins[:, 0].tolist()
    for slot_idx, slot in enumerate(client.secret.pattern.slots):
        for role, step in slot.roles.items():
            kind = shape[step].expects
            values = client.prepare_ancilla(slot_idx, role) if kind == "ANCILLA" else client.angle_message(slot_idx)
            msg = _round_message(client, slot_idx, kind, values[0])
            out = server.handle(msg)
            client.transcript.messages += [msg, out]
            client.record(slot_idx, role, out.bit)
        lo, hi = slot.step_indices[0], slot.step_indices[-1] + 1
        carry(frame, slot, client.eff_outcomes[lo:hi, 0].tolist() + coins[lo:hi])


def _enumerated_dialogue(client: Client, state: np.ndarray, shape):
    """Expand every outcome combination (leaf) of each slot and carry the
    first, all-zero one into the transcript, ``_enumerate_run`` by run of
    SLOTS_PER_RUN slots, so that each run costs the same however long the
    circuit.  Returns the carried raw state and the worst fidelity between a
    leaf and its slot's first leaf after each leaf's outgoing frame."""
    slots, worst = len(client.secret.pattern.slots), 1.0
    for first in range(0, slots, SLOTS_PER_RUN):
        state, run_worst = _enumerate_run(client, state, shape, first, min(first + SLOTS_PER_RUN, slots))
        worst = min(worst, run_worst)
    return state, worst


def _enumerate_run(client: Client, state: np.ndarray, shape, first: int, last: int):
    """Enumerate slots first..last-1 from the carried branch's one-column
    client (README, ``adqc.protocol``): slot j's leaves in rows
    offsets[j - first] + leaf; the running frame along the all-zero branch;
    each leaf's local bits, angle and outgoing frame, slot kind by slot
    kind; the carried branch's transcript; each leaf's operator on its
    slot's qubits; one carry per slot."""
    pattern, grid_n = client.secret.pattern, client.secret.grid_n
    slots = pattern.slots[first:last]
    rounds = np.array([len(slot.roles) for slot in slots])
    offsets = np.concatenate(([0], np.cumsum(1 << rounds)))
    row_slot = np.repeat(np.arange(len(slots)), 1 << rounds)  # each row's slot, counted from first
    leaf = np.arange(offsets[-1]) - offsets[row_slot]
    lo = slots[0].step_indices[0]  # slots list their steps in order, so the run's steps start at lo
    # the running frame along the carried branch, whose outcomes are all 0
    frame, incoming, coins = client.frame[:, 0].tolist(), [], client.coins[:, 0].tolist()
    for slot in slots:
        incoming.append(list(frame))
        bits = [coins[i] for i in slot.step_indices]
        carry(frame, slot, [c * (role in COIN_FLIPPED) for role, c in zip(slot.roles, bits)] + bits)
    frames = np.array(incoming, dtype=np.int8).T[:, row_slot]  # each leaf's incoming, then outgoing
    kinds: dict[tuple, list[int]] = {}  # slots sharing a frame map, angle sets and rounds
    for j, slot in enumerate(slots):
        kinds.setdefault((id(slot.frame_map), slot.theta_negate, slot.gamma_negate, tuple(slot.roles)), []).append(j)

    # each leaf's local bits: its slot's incoming frame, its outcomes (the
    # leaf's bits, the first round most significant, each assistant or theta
    # round's undone by its coin), its coins, and 1
    angles, parts = np.zeros(len(leaf), dtype=np.int64), []
    kets = np.empty((slots[-1].step_indices[-1] + 1 - lo, 2), dtype=complex)
    for js in kinds.values():
        slot, js = slots[js[0]], np.array(js)
        k = len(slot.roles)
        sel = (offsets[js][:, None] + np.arange(1 << k)).ravel()  # the kind's rows, slot by slot
        steps = np.array([slots[j].step_indices for j in js]).T  # (k, the kind's slots)
        rows = np.repeat(np.array([slots[j].frame_rows for j in js]).T, 1 << k, axis=1)
        coin = np.repeat(client.coins[steps, 0], 1 << k, axis=1)
        raw = (leaf[sel] >> np.arange(k - 1, -1, -1)[:, None] & 1).astype(np.int8)
        eff = raw ^ coin * np.array([role in COIN_FLIPPED for role in slot.roles], dtype=np.int8)[:, None]
        before = frames[rows, sel]
        if "theta" in slot.roles:
            odd = parities((slot.theta_negate, slot.gamma_negate), np.concatenate((before, eff)))
            angles[sel] = client.fold(first + row_slot[sel], *odd[:, :, None])[:, 0]
        for role, step in zip(slot.roles, steps):
            if role != "theta":  # an ancilla ket reads no outcome
                kets[step - lo] = client.prepare_ancilla(first + js, role)[:, 0]
        frames[rows, sel] = frame_bits(slot.frame_map, before, eff, coin)
        parts.append((js, sel, steps, raw))
    messages = []
    for j, slot in enumerate(slots):
        outcome = Message._build("OUTCOME", first + j, bit=0)  # frozen, so the slot's rounds share it
        for i in slot.step_indices:
            kind = shape[i].expects
            messages.append(_round_message(client, first + j, kind, kets[i - lo] if kind == "ANCILLA"
                                           else angles[offsets[j]]))
            client.transcript.messages += [messages[-1], outcome]

    # leaf operators, slot kind by slot kind, round by round
    ops = {}  # slot -> its (leaves, d, d) leaf operators
    for js, sel, steps, raw in parts:
        d = 2 ** len(shape[steps[0, 0]].targets)
        op = np.broadcast_to(np.eye(d, dtype=complex), (len(sel), d, d)).copy()
        for step, bits in zip(steps, raw):
            msg, at = messages[step[0] - lo], shape[step[0]]
            values = kets[np.repeat(step - lo, 1 << len(steps))] if msg.kind == "ANCILLA" else angles[sel]
            kids = _apply_branches(op, range(len(at.targets)), coupling_blocks(at.entangler_labels),
                                   _message_coefficients(msg, at, grid_n, values))
            op = kids[np.arange(len(sel)), bits]
        ops.update(zip(js.tolist(), np.split(op, len(js))))

    # carry the first leaf of each slot, then check every leaf at once
    leaves = np.empty((len(leaf), len(state)), dtype=complex)
    for j, (start, stop) in enumerate(zip(offsets[:-1].tolist(), offsets[1:].tolist())):
        targets = shape[slots[j].step_indices[0]].targets
        leaf_ops = ops[j].reshape((1, stop - start) + (2,) * (2 * len(targets)))
        leaves[start:stop] = _apply_rows(state[None], targets, leaf_ops)[0]
        p_first = np.vdot(leaves[start], leaves[start]).real
        if p_first < PRUNE_PROBABILITY:
            break
        state = leaves[start] / math.sqrt(p_first)
    re_im = leaves[:stop].view(float)  # the slots run
    probs = np.einsum("bi,bi->b", re_im, re_im)
    kept = probs >= PRUNE_PROBABILITY
    totals = np.add.reduceat(np.where(kept, probs, 0.0), offsets[:j + 1])
    bad = np.flatnonzero(np.abs(totals - 1.0) > 1e-9)
    if bad.size:
        raise RuntimeError(f"slot {first + bad[0]} branch probabilities sum to {totals[bad[0]]}")
    if p_first < PRUNE_PROBABILITY:
        raise RuntimeError(f"slot {first + j}: its carried branch has probability {p_first:.3e}, "
                           f"below {PRUNE_PROBABILITY}")
    units = leaves / np.sqrt(np.where(kept, probs, 1.0))[:, None]
    corrected = apply_pauli_frame(units, frames[0::2], frames[1::2])
    overlaps = np.einsum("bi,bi->b", corrected, corrected[offsets[row_slot]].conj())
    client.frame[:, 0] = frame
    return state, float(np.min(np.abs(overlaps[kept & (leaf > 0)]) ** 2, initial=1.0))


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
    8-point grid); an off-grid secret raises ValueError.
    """
    check_grid(grid_n)
    secrets = (grid_angle(1, grid_n) if theta_prime is None else theta_prime,
               grid_angle(3, grid_n) if theta_prime_alt is None else theta_prime_alt)
    start = PureState(1, AUDIT_INPUT).amplitudes
    # one client row per (hidden index, gamma coin, hidden-round outcome,
    # theta coin, incoming frame parity), in that C order
    gi, c_gamma, s, c_theta, frame = (
        a.ravel() for a in np.meshgrid(np.arange(grid_n), *[(0, 1)] * 4, indexing="ij")
    )
    kets, counts, posts = [], [], []
    for tp in secrets:
        secret = ClientSecret(CircuitDescription(1, (CircuitGate("Rx", (0,), tp),)), "two", grid_n, 0)
        slot_idx = [sl.kind for sl in secret.pattern.slots].index("RX")
        slot = secret.pattern.slots[slot_idx]
        # only the RX slot's draws are read
        secret.gamma_index = np.zeros((len(secret.pattern.slots), len(gi)), dtype=np.int64)
        secret.gamma_index[slot_idx] = gi
        secret.coins = np.zeros((len(secret.pattern.steps), len(gi)), dtype=np.int8)
        secret.coins[[slot.roles["gamma"], slot.roles["theta"]]] = c_gamma, c_theta
        # (a) and (c) read only the rows of outcome, theta coin and frame
        # parity 0, one per (hidden index, coin): prepare just those
        client = Client(secret)
        client.take(slice(None, None, 8))
        payload = client.prepare_ancilla(slot_idx, "gamma").reshape(grid_n, 2, 2)
        client = Client(secret)
        # the incoming frame bit the angle reads
        client.frame[slot.frame_rows[min(slot.theta_negate)]] = frame
        client.record(slot_idx, "gamma", s)
        angles = client.angle_message(slot_idx)
        counts.append(np.bincount(frame * grid_n + angles, minlength=2 * grid_n).reshape(2, grid_n))
        # (c): the server's step on every payload, splitting into both outcomes
        shape = pattern_shape(secret.pattern)[slot.roles["gamma"]]
        rows = payload.reshape(-1, 2)
        coeffs = _message_coefficients(Message("ANCILLA", slot_idx, payload=tuple(rows[0])), shape, grid_n, rows)
        after, _, _, _ = branch_step(np.broadcast_to(start, rows.shape), shape.targets,
                                     coupling_blocks(shape.entangler_labels), coeffs)
        kets.append(payload)
        posts.append(after.reshape(grid_n, 2, 2, 2))  # (hidden index, coin, outcome, amplitude)

    def coin_average(v):  # density matrices averaged over the coin axis 1
        return (v[..., :, None] * v.conj()[..., None, :] / 2).sum(axis=1)

    avg = coin_average(np.concatenate(kets))
    rho = (avg + avg.conj().swapaxes(1, 2)) / 2 / np.trace(avg, axis1=1, axis2=2).real[:, None, None]
    worst_td = float((0.5 * np.abs(np.linalg.eigvalsh(rho - I2 / 2)).sum(axis=1)).max())

    counts = np.stack(counts)  # per secret and incoming frame parity
    dist = counts / counts.sum(axis=2, keepdims=True)
    nonuni = float(np.abs(dist - 1.0 / grid_n).max())
    tvd = float(0.5 * np.abs(dist[0] - dist[1]).sum(axis=1).max())

    # the register in the |+/-> basis keeps the input's |+/-> populations
    expected = np.diag(np.abs(H @ AUDIT_INPUT) ** 2)
    rhos = H @ coin_average(np.concatenate(posts)).reshape(-1, 2, 2) @ H
    diag_err = float(np.abs(rhos - expected).max())
    spread = float(np.abs(rhos - rhos[0]).max())

    passed = worst_td <= 1e-12 and nonuni == 0.0 and tvd == 0.0 and diag_err <= 1e-10
    return AuditReport(grid_n, worst_td, nonuni, tvd, diag_err, spread, passed)
