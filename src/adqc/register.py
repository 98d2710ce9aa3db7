"""The n-qubit machine: attach an ancilla, entangle, measure, track the frame.

A step couples one mobile ancilla to one or two register qubits with preset
entanglers and measures the ancilla in an adaptively resolved basis.  Patterns
are ordered step lists grouped into slots.  Byproduct Paulis are never
applied mid-pattern: each slot's binary frame map carries the Pauli frame of
its qubits across it, and each adaptive angle reads the slot's local bits,
its incoming frame bits and its earlier outcomes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import compress

import numpy as np

from .core import AncillaSpec, _reduce_angle, assemble_entangler, basis_kets, param_kets, preset
from .linalg import PureState, apply_pauli_frame, dagger, embed

PRUNE_PROBABILITY = 1e-12
MAX_QUBITS = 4  # the largest register, pattern and circuit
PARITY_CACHE_SIZE = 1024  # incidence tables kept; each holds a few local bits of one slot shape


@lru_cache(maxsize=PARITY_CACHE_SIZE)
def parity_table(sets: tuple[frozenset[int], ...], width: int) -> np.ndarray:
    """Read-only int8 (len(sets), width) GF(2) incidence matrix of ``sets``."""
    table = np.zeros((len(sets), width), dtype=np.int8)
    for r, s in enumerate(sets):
        table[r, list(s)] = 1
    table.flags.writeable = False
    return table


def parities(sets, bits) -> np.ndarray:
    """(len(sets), ...) parities of the (width, ...) ``bits`` at each set's
    indices, one ``parity_table`` product.  int8 wraps mod 256, keeping
    parity."""
    bits = np.asarray(bits, dtype=np.int8)
    return (parity_table(tuple(sets), len(bits)) @ bits) & 1


def frame_bits(frame_map: np.ndarray, frame, outcomes, coins) -> np.ndarray:
    """The (2m, ...) frame bits of a slot's m qubits after it: its binary
    (2m, 2m + 2k + 1) ``frame_map`` applied to the local bits, the incoming
    (2m, ...) frame bits (X then Z of each qubit), the slot's (k, ...)
    outcomes and coins, and a constant 1.  A (..., 2m, 2m + 2k + 1) stack of
    maps gives each trailing index its own."""
    frame = np.asarray(frame, dtype=np.int8)
    ones = np.ones((1,) + frame.shape[1:], dtype=np.int8)
    local = np.concatenate((frame, np.asarray(outcomes, dtype=np.int8), np.asarray(coins, dtype=np.int8), ones))
    return np.einsum("...rc,c...->r...", frame_map, local) & 1


def carry(frame, slot: "SlotSpec", bits: list[int]) -> None:
    """``frame_bits`` for one register's 2n frame bits, a list or a 1-D
    array changed in place, in plain Python for slot-by-slot loops; ``bits``
    holds the slot's outcomes, then its coins."""
    local = [frame[r] for r in slot.frame_rows] + bits + [1]
    for r, row in zip(slot.frame_rows, slot.frame_map.tolist()):
        frame[r] = sum(compress(local, row)) & 1


@dataclass(frozen=True)
class AdaptiveAngle:
    """Angle value * (-1)^parity(local bits at ``negate``): bit 2i or
    2i + 1 is the incoming X or Z frame bit of the slot's qubit i, and
    2m + t the outcome of its step t (m qubits), which must be earlier."""

    value: float
    negate: frozenset[int] = frozenset()


@dataclass(frozen=True)
class AdqcStep:
    """One ancilla-couple-and-measure step.

    ``entangler_labels`` has one preset label per target; couplings are applied
    ancilla-to-target in listed order.  The ancilla parameters are canonical:
    the physical payload is the first coupling's ancilla pre-frame inverse
    applied to ``|+_{gamma,delta}>``, and the measurement happens in the last
    coupling's ancilla post-frame rotation of the requested basis.
    """

    targets: tuple[int, ...]
    entangler_labels: tuple[str, ...]
    ancilla: AncillaSpec
    basis_theta: AdaptiveAngle

    def __post_init__(self):
        if len(self.targets) not in (1, 2):
            raise ValueError("a step couples the ancilla to 1 or 2 targets")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("step targets must be distinct")
        if len(self.entangler_labels) != len(self.targets):
            raise ValueError("one entangler label per target required")


@dataclass(frozen=True)
class SlotSpec:
    """One delegable slot: consecutive steps on ``qubits`` and the binary
    (2m, 2m + 2k + 1) ``frame_map`` giving the outgoing frame bits of its m
    qubits from its local bits: the incoming frame bits (X then Z of each
    qubit), its k steps' outcomes, their coins (a two-target step's payload
    flip; zero elsewhere and outside delegated runs) and a constant 1.
    ``theta_negate`` and ``gamma_negate`` name the local bits negating the
    secret and the hidden angle of the angle round; ``theta_sign``, that
    round's sign when every outcome and coin is 0, is only logged."""

    kind: str  # 'J' | 'RX' | 'RZ' | 'ASSIST' | 'CZ2'
    qubits: tuple[int, ...]
    theta_prime: float | None
    roles: dict[str, int]  # role -> step index, in step order
    frame_map: np.ndarray
    theta_negate: frozenset[int] = frozenset()
    theta_sign: int = 1
    gamma_negate: frozenset[int] = frozenset()

    @cached_property
    def step_indices(self) -> tuple[int, ...]:
        return tuple(self.roles.values())

    @cached_property
    def frame_rows(self) -> list[int]:
        """Rows 2q and 2q + 1 (X and Z) of each of its qubits in a register's
        (2n, ...) frame bits."""
        return [2 * q + b for q in self.qubits for b in (0, 1)]


@dataclass(frozen=True)
class GatePattern:
    """Adaptive step sequence with a target unitary, grouped into slots; the
    frame the slot maps carry out of the last slot is the final correction.
    Without slots, no frame is tracked and the steps form one slot."""

    num_qubits: int
    steps: tuple[AdqcStep, ...]
    target: np.ndarray
    slots: tuple[SlotSpec, ...] = ()

    def __post_init__(self):
        for i, step in enumerate(self.steps):
            if any(t not in range(self.num_qubits) for t in step.targets):  # also refuses -1 and 0.5
                raise ValueError(f"step {i} targets {step.targets} outside the {self.num_qubits}-qubit register")
        # slot-wise verification runs only the steps the slots list
        covered = [i for slot in self.slots for i in slot.step_indices]
        if self.slots and covered != list(range(len(self.steps))):
            raise ValueError("slots must list every step once, in order")
        for qubits, steps, frame_map in _frame_groups(self):
            m = len(qubits)
            for t, i in enumerate(steps):
                negate = self.steps[i].basis_theta.negate
                if negate and not 0 <= min(negate) <= max(negate) < 2 * m + t:
                    raise ValueError(f"step {i} depends on a non-earlier outcome")
                if any(q not in qubits for q in self.steps[i].targets):
                    raise ValueError(f"step {i} targets a qubit outside its slot")
            if frame_map is not None and frame_map.shape != (2 * m, 2 * m + 2 * len(steps) + 1):
                raise ValueError(f"the frame map of the slot at step {steps[0]} is not (2m, 2m + 2k + 1)")


def _frame_groups(pattern: GatePattern):
    """(qubits, steps, frame map) of each slot, or all steps on every qubit."""
    return [(slot.qubits, slot.step_indices, slot.frame_map) for slot in pattern.slots] or [
        (tuple(range(pattern.num_qubits)), tuple(range(len(pattern.steps))), None)]


def init_register(n: int, state="") -> PureState:
    """Fresh register of 1..MAX_QUBITS qubits from a PureState or a label like "0+"."""
    if not (1 <= n <= MAX_QUBITS):
        raise ValueError(f"register size must be between 1 and {MAX_QUBITS}")
    if isinstance(state, PureState):
        if state.num_qubits != n:
            raise ValueError("input state size mismatch")
        return state
    reg = PureState.from_label(state if state else "0" * n)
    if reg.num_qubits != n:
        raise ValueError("label length does not match register size")
    return reg


@cache
def coupling_blocks(labels: tuple[str, ...]) -> np.ndarray:
    """A step's couplings, the ancilla coupled to local qubit i by ``labels[i]``
    in order, as a read-only (4, d, d) array, d = 2^len(labels): block 2a + b
    takes ancilla |b> in to bra <a| out in the canonical ancilla frame (the
    first ancilla pre-frame v_a and last post-frame left out; p enters as v_a p)."""
    k = len(labels)
    total = np.eye(2 ** (k + 1), dtype=complex)  # the ancilla is qubit k, the least significant
    for i, lbl in enumerate(labels):
        total = embed(assemble_entangler(preset(lbl)), (k, i), k + 1) @ total
    post, pre = preset(labels[-1]).frame.w_a, preset(labels[0]).frame.v_a
    total = embed(dagger(post), (k,), k + 1) @ total @ embed(dagger(pre), (k,), k + 1)
    blocks = total.reshape(2**k, 2, 2**k, 2).transpose(1, 3, 0, 2).reshape(4, 2**k, 2**k).copy()
    blocks.flags.writeable = False
    return blocks


def measurement_bras(theta) -> np.ndarray:
    """(..., 2, 2) bras of the basis (theta, phi = 0) at each angle: row s
    holds conj(<a|s>) over a for outcome s.  The angle is reduced as
    ``MeasBasis`` takes it, since its half sets the kets' sign."""
    return basis_kets(_reduce_angle(theta), 0.0).conj()


def branch_coefficients(payloads: np.ndarray, bras: np.ndarray) -> np.ndarray:
    """(B, 2, 4) coefficients c[r, s, 2a + b] = bras[r, s, a] payloads[r, b]
    of B rows: ``bras`` as ``measurement_bras`` gives them at each row's
    angle, and ``payloads`` the canonical ancilla kets of ``coupling_blocks``.
    The (B, 2) payloads and (B, 2, 2) bras broadcast: one payload or one
    (2, 2) set of bras serves every row."""
    return (bras[..., None] * payloads[..., None, None, :]).reshape(-1, 2, 4)


def _apply_branches(states: np.ndarray, targets, blocks: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The (B, 2, 2^n, ...) unnormalized children of a (B, 2^n, ...) batch:
    row r's Kraus operator for outcome s, sum_q coeffs[r, s, q] blocks[q],
    formed on the targets only and applied there by ``_apply_rows``."""
    b, k = len(states), len(targets)
    ops = (coeffs.reshape(-1, 4) @ blocks.reshape(4, -1)).reshape((b, 2) + (2,) * (2 * k))
    return _apply_rows(states, targets, ops)


def _apply_rows(states: np.ndarray, targets, ops: np.ndarray) -> np.ndarray:
    """The (B, S, 2^n, ...) products of a (B, 2^n, ...) batch with (B, S)
    operators on the k ``targets`` qubits of axis 1, each given as a (2,) * 2k
    tensor: row r's S operators applied to row r by one ``einsum``; trailing
    axes ride along."""
    b, n = len(states), states.shape[1].bit_length() - 1
    kids = np.einsum(_subscripts(n, tuple(targets)), ops, states.reshape((b,) + (2,) * n + states.shape[2:]))
    return kids.reshape(ops.shape[:2] + states.shape[1:])


@cache
def _subscripts(n: int, targets: tuple[int, ...]) -> str:
    """Rows z, outcomes s, register axes a.., target output axes v and w."""
    qubits = "abcde"[:n]
    out = "".join("vw"[targets.index(q)] if q in targets else a for q, a in enumerate(qubits))
    return f"zs{'vw'[:len(targets)]}{''.join(qubits[q] for q in targets)},z{qubits}...->zs{out}..."


def step_branch_operators(step: AdqcStep, theta, n: int) -> np.ndarray:
    """The two register Kraus operators of a step (unnormalized), plus branch
    first, as a (2, 2^n, 2^n) array, for the step's canonical ancilla
    measured at basis angle ``theta``, or a (..., 2, 2^n, 2^n) array at an
    array of angles.  ``n`` is the register size."""
    coeffs = branch_coefficients(param_kets("+", step.ancilla.gamma, step.ancilla.delta), measurement_bras(theta))
    blocks = coupling_blocks(step.entangler_labels)
    eye = np.broadcast_to(np.eye(2**n, dtype=complex), (len(coeffs), 2**n, 2**n))
    return _apply_branches(eye, step.targets, blocks, coeffs).reshape(np.shape(theta) + (2, 2**n, 2**n))


def branch_step(states: np.ndarray, targets, blocks: np.ndarray, coeffs: np.ndarray, outcome=None, rng=None):
    """Advance a (B, 2^n, ...) batch of normalized register states by one step.

    Row b's Kraus operator for outcome s is sum_q coeffs[b, s, q] blocks[q]
    (``coupling_blocks``, ``branch_coefficients``) on the ``targets`` qubits
    of axis 1; trailing axes ride along, so a (B, 2^n, 2^n) batch of Choi
    states steps its register half.  With neither ``outcome`` nor ``rng``
    every branch splits into both outcomes, ordered by (branch, outcome),
    dropping children of conditional probability below PRUNE_PROBABILITY.
    Otherwise the single branch takes the forced ``outcome`` or draws one
    with one ``rng.random()`` call.  Returns the new branches' normalized
    states, parent indices, outcome bits and conditional probabilities.
    """
    return _split(_apply_branches(states, targets, blocks, coeffs), outcome, rng)


def _split(vecs: np.ndarray, outcome=None, rng=None):
    """``branch_step``'s children of (B, 2, 2^n, ...) unnormalized branches."""
    re_im = vecs.reshape(len(vecs), 2, -1).view(float)
    probs = np.einsum("bsi,bsi->bs", re_im, re_im)
    if outcome is None and rng is None:
        parent, out = np.nonzero(probs >= PRUNE_PROBABILITY)
    else:
        if outcome is None:
            s = 0 if rng.random() < probs[0, 0] else 1
        else:
            s = int(outcome)
            p_s = probs[0, s] if s in (0, 1) else 0.0
            if p_s < PRUNE_PROBABILITY:
                raise ValueError(f"forced branch {s} has probability {p_s:.3e}")
        parent, out = np.zeros(1, dtype=int), np.array([s])
    p = probs[parent, out]
    scale = np.sqrt(p).reshape((-1,) + (1,) * (vecs.ndim - 2))
    return vecs[parent, out] / scale, parent, out, p


@dataclass(frozen=True)
class RunResult:
    """Every outcome branch of a run, as arrays with one entry per branch:
    the (B, 2^n, ...) corrected states, the (B, 2^n, ...) raw states before
    the frame, the (B,) probabilities, the (steps, B) outcome bits and the
    (n, B) frame bits of X^x Z^z on each qubit."""

    branches: np.ndarray
    raw: np.ndarray
    probabilities: np.ndarray
    outcomes: np.ndarray
    x: np.ndarray
    z: np.ndarray


def run_pattern(state: np.ndarray, pattern: GatePattern) -> RunResult:
    """Execute a pattern on every outcome branch (probabilities summing to
    one) of a (2^n, ...) amplitude array of unit norm; trailing axes ride
    along, so the normalized identity runs every branch's operator.  Each
    branch carries its own frame from slot to slot through the slot maps,
    resolves each angle on its own local bits, and is corrected by the frame
    it ends with."""
    if not isinstance(state, np.ndarray):
        raise ValueError(f"expected a (2^n, ...) amplitude array, got {type(state).__name__}")
    if state.shape[:1] != (2**pattern.num_qubits,):
        raise ValueError("pattern size does not match the register")
    if abs(np.linalg.norm(state) - 1.0) > 1e-9:
        raise ValueError("the register state does not have unit norm")
    states, probs = state[None], np.ones(1)
    bits = np.zeros((len(pattern.steps), 1), dtype=np.int8)
    frame = np.zeros((2 * pattern.num_qubits, 1), dtype=np.int8)
    for qubits, steps, frame_map in _frame_groups(pattern):
        rows = [2 * q + b for q in qubits for b in (0, 1)]
        for t, i in enumerate(steps):
            step = pattern.steps[i]
            local = np.concatenate((frame[rows], bits[list(steps[:t])]))
            theta = step.basis_theta.value * (1 - 2 * parities((step.basis_theta.negate,), local)[0])
            payload = param_kets("+", step.ancilla.gamma, step.ancilla.delta)
            coeffs = branch_coefficients(payload, measurement_bras(theta))
            states, parent, out, p = branch_step(states, step.targets, coupling_blocks(step.entangler_labels), coeffs)
            probs, bits, frame = probs[parent] * p, bits[:, parent], frame[:, parent]
            bits[i] = out
        if frame_map is not None:
            frame[rows] = frame_bits(frame_map, frame[rows], bits[list(steps)], np.zeros((len(steps), len(probs))))
    x, z = frame[0::2], frame[1::2]
    return RunResult(apply_pauli_frame(states, x, z), states, probs, bits, x, z)
