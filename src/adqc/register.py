"""The n-qubit machine: attach an ancilla, entangle, measure, track the frame.

A step couples one mobile ancilla to one or two register qubits with preset
entanglers and measures the ancilla in an adaptively resolved basis.  Patterns
are ordered step lists whose basis angles may depend on earlier outcomes and
whose byproduct corrections are recorded per qubit as outcome-parity sets.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, lru_cache

import numpy as np

from .core import AncillaSpec, MeasBasis, assemble_entangler, preset
from .linalg import PureState, apply_pauli_frame, dagger, embed

PRUNE_PROBABILITY = 1e-12
PAYLOAD_BIT = 1 << 20  # set index i + PAYLOAD_BIT refers to step i's payload flip
PAULI_NAMES = ("I", "X", "Z", "Y")  # the byproduct X^x Z^z (Y when both) at index x + 2 z
# Kraus pairs kept by branch_operators: at most 8 MiB of arrays at n = 4
KRAUS_CACHE_SIZE = 1024


def parity(bits, outcomes, payload_bits=None):
    """XOR of the referenced bits: index i < PAYLOAD_BIT is ``outcomes[i]``,
    index i + PAYLOAD_BIT is ``payload_bits[i]`` (zero when it is None).
    Entries may be ints or bit arrays, giving the parity per element."""
    p = 0
    for i in bits:
        if i < PAYLOAD_BIT:
            p = p ^ (outcomes[i] & 1)
        elif payload_bits is not None:
            p = p ^ (payload_bits[i - PAYLOAD_BIT] & 1)
    return p


@dataclass(frozen=True)
class AdaptiveAngle:
    """Angle resolved as sum of terms value*(-1)^parity(bits at negate_on).

    Indices below PAYLOAD_BIT reference earlier step outcomes; larger ones
    reference per-step payload-flip bits, which are zero outside delegated
    runs.
    """

    terms: tuple[tuple[float, frozenset[int]], ...] = ()

    @classmethod
    def constant(cls, value: float) -> "AdaptiveAngle":
        return cls(((float(value), frozenset()),))

    def resolve(self, outcomes, payload_bits=None):
        total = 0.0
        for value, negate_on in self.terms:
            total += value * (1 - 2 * parity(negate_on, outcomes, payload_bits))
        return total

    def max_dependency(self) -> int:
        deps = [i for _, negs in self.terms for i in negs if i < PAYLOAD_BIT]
        return max(deps) if deps else -1


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
    basis_phi: float = 0.0

    def __post_init__(self):
        if len(self.targets) not in (1, 2):
            raise ValueError("a step couples the ancilla to 1 or 2 targets")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError("step targets must be distinct")
        if len(self.entangler_labels) != len(self.targets):
            raise ValueError("one entangler label per target required")


@dataclass(frozen=True)
class QubitCorrection:
    """Byproduct Pauli on one qubit: X^(x) Z^(z) with each exponent given by a
    constant bit xored with the parity of the listed bits.  Indices below
    PAYLOAD_BIT refer to step outcomes; others to per-step payload-flip bits
    (zero outside delegated runs)."""

    x_parity: frozenset[int] = frozenset()
    x_const: int = 0
    z_parity: frozenset[int] = frozenset()
    z_const: int = 0

    def bits(self, outcomes, payload_bits=None) -> tuple[int, int]:
        return (
            self.x_const ^ parity(self.x_parity, outcomes, payload_bits),
            self.z_const ^ parity(self.z_parity, outcomes, payload_bits),
        )

    def pauli(self, outcomes, payload_bits=None) -> str:
        x, z = self.bits(outcomes, payload_bits)
        return PAULI_NAMES[x + 2 * z]


@dataclass(frozen=True)
class SlotSpec:
    """Protocol-facing grouping of steps into one delegable slot."""

    kind: str  # 'J' | 'RX' | 'RZ' | 'ASSIST' | 'CZ2'
    qubits: tuple[int, ...]
    theta_prime: float | None
    step_indices: tuple[int, ...]
    roles: dict[str, int]
    theta_negate: frozenset[int] = frozenset()
    theta_sign: int = 1
    gamma_negate: frozenset[int] = frozenset()


@dataclass(frozen=True)
class GatePattern:
    """Adaptive step sequence with a target unitary and byproduct corrections."""

    num_qubits: int
    steps: tuple[AdqcStep, ...]
    target: np.ndarray
    target_qubits: tuple[int, ...]
    corrections: tuple[QubitCorrection, ...]
    slots: tuple[SlotSpec, ...] = ()
    slot_boundaries: tuple[tuple[QubitCorrection, ...], ...] = ()

    def __post_init__(self):
        for i, step in enumerate(self.steps):
            if step.basis_theta.max_dependency() >= i:
                raise ValueError(f"step {i} depends on a non-earlier outcome")
            if any(t >= self.num_qubits for t in step.targets):
                raise ValueError(f"step {i} targets outside the register")
        # slot-wise verification runs only the steps the slots list
        covered = [i for slot in self.slots for i in slot.step_indices]
        if self.slots and covered != list(range(len(self.steps))):
            raise ValueError("slots must list every step once, in order")
        if len(self.slot_boundaries) != len(self.slots):
            raise ValueError("one boundary frame per slot required")

    def correction_for(self, outcomes, payload_bits=None) -> tuple[str, ...]:
        if len(outcomes) != len(self.steps):
            raise ValueError("need one outcome per step")
        return tuple(c.pauli(outcomes, payload_bits) for c in self.corrections)

    def correction_table(self) -> dict[tuple[int, ...], tuple[str, ...]]:
        """Extensional outcome-vector -> Pauli-string map (patterns <= 14 steps)."""
        k = len(self.steps)
        if k > 14:
            raise ValueError("correction table too large; use correction_for")
        table = {}
        for m in range(2**k):
            outs = tuple((m >> (k - 1 - j)) & 1 for j in range(k))
            table[outs] = self.correction_for(outs)
        return table


@dataclass(frozen=True)
class RegisterState:
    register: PureState
    outcome_log: tuple[int, ...] = ()


def init_register(n: int, state="") -> RegisterState:
    """Fresh register of 1..4 qubits from a PureState or a label like "0+"."""
    if not (1 <= n <= 4):
        raise ValueError("register size must be between 1 and 4")
    if isinstance(state, PureState):
        if state.num_qubits != n:
            raise ValueError("input state size mismatch")
        reg = state
    else:
        label = state if state else "0" * n
        reg = PureState.from_label(label)
        if reg.num_qubits != n:
            raise ValueError("label length does not match register size")
    return RegisterState(reg)


@cache
def _coupling(labels: tuple[str, ...], targets: tuple[int, ...], n: int) -> np.ndarray:
    """A step's dressed couplings embedded in the register plus ancilla,
    applied in listed order, as one read-only (2^(n+1), 2^(n+1)) matrix."""
    total = np.eye(2 ** (n + 1), dtype=complex)
    for tgt, lbl in zip(targets, labels):
        # ancilla appended as the least significant qubit
        total = embed(assemble_entangler(preset(lbl)), (n, tgt), n + 1) @ total
    total.flags.writeable = False
    return total


def step_branch_operators(step: AdqcStep, theta: float, n: int) -> np.ndarray:
    """The two register Kraus operators of a step (unnormalized), plus branch
    first, as a read-only (2, 2^n, 2^n) array, for the step's canonical
    ancilla measured at basis angle ``theta``.  ``n`` is the register size."""
    return branch_operators(
        tuple(step.entangler_labels), tuple(step.targets), n, step.ancilla, float(theta), float(step.basis_phi)
    )


@lru_cache(maxsize=KRAUS_CACHE_SIZE)
def branch_operators(labels: tuple[str, ...], targets: tuple[int, ...], n: int, ancilla,
                     theta: float, phi: float) -> np.ndarray:
    """Kraus pair of the couplings ``labels`` on ``targets`` of an n-qubit
    register, measured in the basis (theta, phi), as a read-only
    (2, 2^n, 2^n) array.  ``ancilla`` is a canonical ``AncillaSpec`` or the
    physical ancilla ket as a tuple of two complex amplitudes.  Built once per
    exact input; the embedded coupling is shared by every basis and ancilla."""
    if isinstance(ancilla, AncillaSpec):
        payload = dagger(preset(labels[0]).frame.v_a) @ ancilla.ket().amplitudes
    else:
        payload = np.array(ancilla, dtype=complex)
    last_wa = preset(labels[-1]).frame.w_a
    bras = [last_wa @ b.amplitudes for b in MeasBasis(theta, phi).bra_states()]
    dim = 2**n
    t = _coupling(labels, targets, n).reshape(dim, 2, dim, 2)  # (reg_out, anc_out, reg_in, anc_in)
    ops = np.stack([np.einsum("a,iajb,b->ij", b.conj(), t, payload) for b in bras])
    ops.flags.writeable = False
    return ops


def branch_step(states: np.ndarray, pairs, which: np.ndarray, outcome=None, rng=None):
    """Advance a (B, 2^n, ...) batch of normalized register states by one step.

    ``which[b]`` picks branch b's Kraus pair from ``pairs``, applied on axis 1;
    trailing axes ride along, so a (B, 2^n, 2^n) batch of Choi states steps
    its register half.  With neither ``outcome`` nor ``rng`` every branch
    splits into both outcomes, ordered by (branch, outcome), dropping children
    of conditional probability below PRUNE_PROBABILITY.  Otherwise the single
    branch takes the forced ``outcome`` or draws one with one ``rng.random()``
    call.

    Returns the new branches' normalized states, parent indices, outcome bits
    and conditional probabilities.
    """
    vecs = np.empty((len(states), 2) + states.shape[1:], dtype=complex)
    for g, ops in enumerate(pairs):
        sel = which == g
        vecs[sel] = np.einsum("sij,bj...->bsi...", ops, states[sel])
    re_im = vecs.reshape(len(states), 2, -1).view(float)
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
    scale = np.sqrt(p).reshape((-1,) + (1,) * (states.ndim - 1))
    return vecs[parent, out] / scale, parent, out, p


def _step_pairs(step: AdqcStep, bits: np.ndarray, n: int):
    """The distinct Kraus pairs of one step over a batch of outcome bits, and
    each row's index into them (a scalar when the angle is constant).  Rows
    whose angles agree to 12 digits share the pair of their group's first
    angle."""
    theta = step.basis_theta.resolve(bits)
    if np.ndim(theta) == 0:
        return [step_branch_operators(step, theta, n)], 0
    _, first, group = np.unique(np.round(theta, 12), return_index=True, return_inverse=True)
    return [step_branch_operators(step, theta[i], n) for i in first], group


def walk_steps(steps, states, bits, plan, rng=None):
    """Run steps over a batch with ``branch_step``.

    ``states`` holds one row per branch with the register on axis 1, and the
    targets of ``steps`` index that register; ``bits`` is the
    (len(steps), B) outcome-bit array the adaptive angles read.  ``plan``
    lists the step indices to run in order; an entry is one index for every
    row or an array of one index per row.  Returns (states, probabilities,
    bits, the start row of each branch)."""
    n = states.shape[1].bit_length() - 1
    probs = np.ones(len(states))
    origin = np.arange(len(states))
    plan = np.asarray(plan, dtype=int)
    plan = np.broadcast_to(plan[:, None] if plan.ndim == 1 else plan, (len(plan), len(states)))
    for j in range(len(plan)):
        row = plan[j]
        groups = [(row[0], slice(None))] if (row == row[0]).all() else [(k, row == k) for k in np.unique(row)]
        pairs: dict[int, tuple[int, np.ndarray]] = {}  # each distinct cached pair -> (index, pair)
        which = np.empty(len(states), dtype=int)
        for k, sel in groups:
            ops, group = _step_pairs(steps[k], bits[:, sel], n)
            which[sel] = np.array([pairs.setdefault(id(o), (len(pairs), o))[0] for o in ops])[group]
        states, parent, out, p = branch_step(states, [o for _, o in pairs.values()], which, rng=rng)
        probs = probs[parent] * p
        origin = origin[parent]
        plan = plan[:, parent]
        bits = bits[:, parent]
        bits[plan[j], np.arange(len(parent))] = out
    return states, probs, bits, origin


def frame_bits(corrections, outcomes, payload_bits=None) -> tuple[np.ndarray, np.ndarray]:
    """(x, z) byproduct bits of a batch: (n, B) arrays from (steps, B) bits."""
    x = np.zeros((len(corrections), outcomes.shape[1]), dtype=np.int8)
    z = np.zeros_like(x)
    for q, c in enumerate(corrections):
        x[q], z[q] = c.bits(outcomes, payload_bits)
    return x, z


def advance(state: RegisterState, ops: np.ndarray, outcome=None, rng=None):
    """One forced or sampled step of a single register with the given Kraus
    pair.  Returns (new_state, outcome_bit, branch probability)."""
    if outcome is None and rng is None:
        raise ValueError("sampling a step requires an rng")
    single = np.zeros(1, dtype=int)
    vecs, _, out, p = branch_step(state.register.amplitudes[None], [ops], single, outcome, rng)
    s = int(out[0])
    register = PureState.unchecked(state.register.num_qubits, vecs[0])
    return replace(state, register=register, outcome_log=state.outcome_log + (s,)), s, float(p[0])


def execute_step(state: RegisterState, step: AdqcStep, outcome=None, rng=None):
    """Run one step; ``outcome`` forces a branch, otherwise ``rng`` samples one.

    Returns (new_state, outcome_bit).  Forcing a branch whose probability is
    below 1e-12 is an error.
    """
    n = state.register.num_qubits
    if any(t >= n for t in step.targets):
        raise ValueError("step targets outside the register")
    theta = step.basis_theta.resolve(state.outcome_log)
    new_state, s, _ = advance(state, step_branch_operators(step, theta, n), outcome, rng)
    return new_state, s


@dataclass(frozen=True)
class Branch:
    outcomes: tuple[int, ...]
    probability: float
    raw: RegisterState
    frame: tuple[str, ...]
    corrected: PureState


@dataclass(frozen=True)
class RunResult:
    branches: tuple[Branch, ...]

    def total_probability(self) -> float:
        return sum(b.probability for b in self.branches)


def run_pattern(state: RegisterState, pattern: GatePattern, mode="enumerate", seed=None):
    """Execute a pattern.

    ``mode='enumerate'`` explores every outcome branch (probabilities summing to
    one); ``mode='sample'`` draws a single trajectory from the given seed.  Each
    returned branch carries its resolved byproduct frame and the corrected
    register state obtained by applying that frame to the raw final state.
    """
    if pattern.num_qubits != state.register.num_qubits:
        raise ValueError("pattern size does not match the register")
    if state.outcome_log:
        raise ValueError("run_pattern expects a fresh outcome log")
    if mode not in ("sample", "enumerate"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(seed) if mode == "sample" else None
    n, k = pattern.num_qubits, len(pattern.steps)
    start = np.zeros((k, 1), dtype=np.int8)
    states, probs, bits, _ = walk_steps(pattern.steps, state.register.amplitudes[None], start, range(k), rng)
    x, z = frame_bits(pattern.corrections, bits)
    corrected = apply_pauli_frame(states, x, z)
    frames = zip(*[[PAULI_NAMES[v] for v in row] for row in (x + 2 * z).tolist()])
    rows = zip(zip(*bits.tolist()), frames, probs.tolist(), states, corrected)
    return RunResult(tuple(
        Branch(outs, p, RegisterState(PureState.unchecked(n, raw), outs), frame,
               PureState.unchecked(n, fixed))
        for outs, frame, p, raw, fixed in rows
    ))
