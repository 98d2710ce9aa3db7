"""The n-qubit machine: attach an ancilla, entangle, measure, track the frame.

A step couples one mobile ancilla to one or two register qubits with preset
entanglers and measures the ancilla in an adaptively resolved basis.  Patterns
are ordered step lists whose basis angles may depend on earlier outcomes and
whose byproduct corrections are recorded per qubit as outcome-parity sets.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import AncillaSpec, MeasBasis, assemble_entangler, preset
from .linalg import PAULI_NAMES, PureState, apply_pauli_frame, dagger, embed

PRUNE_PROBABILITY = 1e-12
PAYLOAD_BIT = 1 << 20  # set index i + PAYLOAD_BIT refers to step i's payload flip
# Kraus pairs kept by branch_operators: at most 8 MiB of arrays at n = 4
KRAUS_CACHE_SIZE = 1024
# parity tables kept by parity_table: 2 * len(sets) * width bytes each, at most 20
# per pattern step (2n <= 10 sets at n <= 5): 20 KiB per step of width, 2 MiB at 100
PARITY_CACHE_SIZE = 1024


@lru_cache(maxsize=PARITY_CACHE_SIZE)
def parity_table(sets: tuple[frozenset[int], ...], width: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only int8 (len(sets), width) GF(2) incidence matrices: a 1 at (r, i)
    for index i (outcome) or i + PAYLOAD_BIT (payload) of ``sets[r]``."""
    tables = np.zeros((2, len(sets), width), dtype=np.int8)
    for r, s in enumerate(sets):
        tables[[i // PAYLOAD_BIT for i in s], r, [i % PAYLOAD_BIT for i in s]] = 1
    tables.flags.writeable = False
    return tables[0], tables[1]


def parities(sets, outcomes, payload_bits=None) -> np.ndarray:
    """(len(sets), ...) parities of (steps,) or (steps, B) bits; payload indices
    read zero when ``payload_bits`` is None.  int8 wraps mod 256, keeping parity."""
    m_out, m_pay = parity_table(tuple(sets), len(outcomes))
    acc = m_out @ np.asarray(outcomes, dtype=np.int8)
    return (acc if payload_bits is None else acc + m_pay @ payload_bits) & 1


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
        sets = [negs for _, negs in self.terms]
        signs = 1 - 2 * parities(sets, outcomes, payload_bits) if any(sets) else [1] * len(sets)
        total = 0.0
        for (value, _), sign in zip(self.terms, signs):
            total += value * sign
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
            if any(t not in range(self.num_qubits) for t in step.targets):  # also refuses -1 and 0.5
                raise ValueError(f"step {i} targets {step.targets} outside the {self.num_qubits}-qubit register")
        # slot-wise verification runs only the steps the slots list
        covered = [i for slot in self.slots for i in slot.step_indices]
        if self.slots and covered != list(range(len(self.steps))):
            raise ValueError("slots must list every step once, in order")
        if len(self.slot_boundaries) != len(self.slots):
            raise ValueError("one boundary frame per slot required")


def init_register(n: int, state="") -> PureState:
    """Fresh register of 1..4 qubits from a PureState or a label like "0+"."""
    if not (1 <= n <= 4):
        raise ValueError("register size must be between 1 and 4")
    if isinstance(state, PureState):
        if state.num_qubits != n:
            raise ValueError("input state size mismatch")
        return state
    reg = PureState.from_label(state if state else "0" * n)
    if reg.num_qubits != n:
        raise ValueError("label length does not match register size")
    return reg


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
    exact input: the couplings are embedded in the register plus ancilla
    (appended as the least significant qubit) and applied in listed order."""
    if isinstance(ancilla, AncillaSpec):
        payload = dagger(preset(labels[0]).frame.v_a) @ ancilla.ket().amplitudes
    else:
        payload = np.array(ancilla, dtype=complex)
    last_wa = preset(labels[-1]).frame.w_a
    bras = [last_wa @ b.amplitudes for b in MeasBasis(theta, phi).bra_states()]
    total = np.eye(2 ** (n + 1), dtype=complex)
    for tgt, lbl in zip(targets, labels):
        total = embed(assemble_entangler(preset(lbl)), (n, tgt), n + 1) @ total
    dim = 2**n
    t = total.reshape(dim, 2, dim, 2)  # (reg_out, anc_out, reg_in, anc_in)
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
    if len(pairs) == 1:  # every sampled delegation round: the sort below costs ~10% of a delegate op
        vecs[:] = np.einsum("sij,bj...->bsi...", pairs[0], np.ascontiguousarray(states))
    else:
        # one stable sort groups each pair's rows in row order, one slice per pair
        order = np.argsort(which, kind="stable")
        bounds = np.searchsorted(which[order], np.arange(len(pairs) + 1))
        grouped = states[order]
        for ops, lo, hi in zip(pairs, bounds, bounds[1:]):
            vecs[order[lo:hi]] = np.einsum("sij,bj...->bsi...", ops, grouped[lo:hi])
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


def walk_steps(steps, states, bits, plan):
    """Run steps over a batch with ``branch_step``, splitting every branch.

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
        states, parent, out, p = branch_step(states, [o for _, o in pairs.values()], which)
        probs = probs[parent] * p
        origin = origin[parent]
        plan = plan[:, parent]
        bits = bits[:, parent]
        bits[plan[j], np.arange(len(parent))] = out
    return states, probs, bits, origin


def frame_bits(corrections, outcomes, payload_bits=None) -> tuple[np.ndarray, np.ndarray]:
    """(x, z) byproduct bits of a batch: (n, B) arrays from (steps, B) bits."""
    sets = [s for c in corrections for s in (c.x_parity, c.z_parity)]
    consts = np.array([b for c in corrections for b in (c.x_const, c.z_const)], dtype=np.int8)
    bits = parities(sets, outcomes, payload_bits).reshape(len(sets), -1) ^ consts[:, None]
    return bits[0::2], bits[1::2]


@dataclass(frozen=True)
class Branch:
    outcomes: tuple[int, ...]
    probability: float
    raw: PureState
    frame: tuple[str, ...]
    corrected: PureState


@dataclass(frozen=True)
class RunResult:
    branches: tuple[Branch, ...]

    def total_probability(self) -> float:
        return sum(b.probability for b in self.branches)


def run_pattern(state: PureState, pattern: GatePattern):
    """Execute a pattern on every outcome branch (probabilities summing to
    one).  Each returned branch carries its resolved byproduct frame and the
    corrected register state obtained by applying that frame to the raw final
    state.
    """
    if pattern.num_qubits != state.num_qubits:
        raise ValueError("pattern size does not match the register")
    n, k = pattern.num_qubits, len(pattern.steps)
    start = np.zeros((k, 1), dtype=np.int8)
    states, probs, bits, _ = walk_steps(pattern.steps, state.amplitudes[None], start, range(k))
    x, z = frame_bits(pattern.corrections, bits)
    corrected = apply_pauli_frame(states, x, z)
    frames = zip(*[[PAULI_NAMES[v] for v in row] for row in (x + 2 * z).tolist()])
    rows = zip(zip(*bits.tolist()), frames, probs.tolist(), states, corrected)
    return RunResult(tuple(
        Branch(outs, p, PureState.unchecked(n, raw), frame, PureState.unchecked(n, fixed))
        for outs, frame, p, raw, fixed in rows
    ))
