"""The n-qubit machine: attach an ancilla, entangle, measure, track the frame.

A step couples one mobile ancilla to one or two register qubits with preset
entanglers and measures the ancilla in an adaptively resolved basis.  Patterns
are ordered step lists whose basis angles may depend on earlier outcomes and
whose byproduct corrections are recorded per qubit as outcome-parity sets.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .core import AncillaSpec, _reduce_angle, assemble_entangler, basis_kets, param_kets, preset
from .linalg import PureState, apply_pauli_frame, dagger, embed

PRUNE_PROBABILITY = 1e-12
MAX_QUBITS = 4  # the largest register, pattern and circuit
PAYLOAD_BIT = 1 << 20  # set index i + PAYLOAD_BIT refers to step i's payload flip
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


def parities(groups, which, outcomes, payload_bits=None) -> np.ndarray:
    """(m, ...) parities of (steps,) or (steps, B) bits, every column reading
    the m sets of ``groups[which]``, or, for a (B,) ``which``, column b those
    of ``groups[which[b]]``: each column then gathers its group's
    ``parity_table`` rows from the tables of the groups between the least
    and the greatest index.  Index i + PAYLOAD_BIT reads ``payload_bits[i]``,
    laid out like ``outcomes`` (zero when it is None).  int8 wraps mod 256,
    keeping parity."""
    outcomes, width = np.asarray(outcomes, dtype=np.int8), len(outcomes)
    if getattr(which, "ndim", 0) == 0:  # a shared table: one matmul, cheaper than einsum for a sampled round
        m_out, m_pay = parity_table(tuple(groups[which]), width)
        acc = m_out @ outcomes
        return (acc if payload_bits is None else acc + m_pay @ payload_bits) & 1
    lo = which.min()
    m = len(groups[lo])
    rows = (which - lo)[:, None] * m + np.arange(m)  # each column's rows of the stacked tables
    m_out, m_pay = zip(*(parity_table(tuple(g), width) for g in groups[lo:which.max() + 1]))
    acc = np.einsum("bmw,wb->mb", np.concatenate(m_out)[rows], outcomes)
    if payload_bits is not None:
        acc += np.einsum("bmw,wb->mb", np.concatenate(m_pay)[rows], payload_bits)
    return acc & 1


@dataclass(frozen=True)
class AdaptiveAngle:
    """Angle value * (-1)^parity(bits at ``negate``).

    Indices below PAYLOAD_BIT reference earlier step outcomes; larger ones
    reference per-step payload-flip bits, which are zero outside delegated
    runs.
    """

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
    roles: dict[str, int]  # role -> step index, in step order
    theta_negate: frozenset[int] = frozenset()
    theta_sign: int = 1
    gamma_negate: frozenset[int] = frozenset()

    @property
    def step_indices(self) -> tuple[int, ...]:
        return tuple(self.roles.values())


@dataclass(frozen=True)
class GatePattern:
    """Adaptive step sequence with a target unitary and byproduct corrections."""

    num_qubits: int
    steps: tuple[AdqcStep, ...]
    target: np.ndarray
    corrections: tuple[QubitCorrection, ...]
    slots: tuple[SlotSpec, ...] = ()
    slot_boundaries: tuple[tuple[QubitCorrection, ...], ...] = ()

    def __post_init__(self):
        for i, step in enumerate(self.steps):
            if any(i <= j < PAYLOAD_BIT for j in step.basis_theta.negate):
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


def step_branch_operators(step: AdqcStep, theta: float, n: int) -> np.ndarray:
    """The two register Kraus operators of a step (unnormalized), plus branch
    first, as a (2, 2^n, 2^n) array, for the step's canonical ancilla
    measured at basis angle ``theta``.  ``n`` is the register size."""
    coeffs = branch_coefficients(param_kets("+", step.ancilla.gamma, step.ancilla.delta), measurement_bras(theta))
    blocks = coupling_blocks(step.entangler_labels)
    return _apply_branches(np.eye(2**n, dtype=complex)[None], step.targets, blocks, coeffs)[0]


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


def walk_steps(steps, states, bits, plan):
    """Run steps over a batch as ``branch_step`` does, splitting every branch.

    ``states`` holds one row per branch with the register on axis 1, and the
    targets of ``steps`` index that register; ``bits`` is the
    (len(steps), B) outcome-bit array the adaptive angles read.  ``plan``
    is a (steps run, B) array of step indices, one column per start row,
    which its branches follow.  Rows split by coupling (labels and targets)
    only.  Returns (states, probabilities, bits, the start row of each
    branch)."""
    probs, origin = np.ones(len(states)), np.arange(len(states))
    used = np.array(sorted(set(plan.flat)))  # the steps the plan runs
    local = np.searchsorted(used, plan)  # each entry's position among them
    run = [steps[i] for i in used]
    payloads = param_kets("+", [s.ancilla.gamma for s in run], [s.ancilla.delta for s in run])
    values = np.array([s.basis_theta.value for s in run])
    negates = [(s.basis_theta.negate,) for s in run]
    couplings: dict[tuple, int] = {}  # (labels, targets) -> its index
    coupling = np.array([couplings.setdefault((s.entangler_labels, s.targets), len(couplings)) for s in run])
    for entry in local:
        which = entry[origin]  # each row's step, as a position in run
        theta = values[which] * (1 - 2 * parities(negates, which, bits)[0])
        coeffs = branch_coefficients(payloads[which], measurement_bras(theta))
        row_coupling = coupling[which]
        vecs = np.empty((len(which), 2) + states.shape[1:], dtype=complex)
        for (labels, targets), g in couplings.items():
            rows = row_coupling == g
            if rows.any():
                vecs[rows] = _apply_branches(states[rows], targets, coupling_blocks(labels), coeffs[rows])
        states, parent, out, p = _split(vecs)
        probs, origin, bits = probs[parent] * p, origin[parent], bits[:, parent]
        bits[used[which[parent]], np.arange(len(parent))] = out
    return states, probs, bits, origin


def frame_bits(frames, which, outcomes, payload_bits=None) -> tuple[np.ndarray, np.ndarray]:
    """(x, z) byproduct bits of a batch whose column b takes the frame
    ``frames[which[b]]`` (an integer ``which``: every column), each frame a
    tuple of m ``QubitCorrection``s: (m, B) arrays from (steps, B) bits."""
    groups = [[s for c in frame for s in (c.x_parity, c.z_parity)] for frame in frames]
    consts = np.array([[b for c in frame for b in (c.x_const, c.z_const)] for frame in frames], dtype=np.int8)
    bits = parities(groups, which, outcomes, payload_bits) ^ consts.T[:, which].reshape(len(consts.T), -1)
    return bits[0::2], bits[1::2]


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
    branch's corrected state is its raw final state with its resolved
    byproduct frame applied."""
    if not isinstance(state, np.ndarray):
        raise ValueError(f"expected a (2^n, ...) amplitude array, got {type(state).__name__}")
    if state.shape[:1] != (2**pattern.num_qubits,):
        raise ValueError("pattern size does not match the register")
    if abs(np.linalg.norm(state) - 1.0) > 1e-9:
        raise ValueError("the register state does not have unit norm")
    k = len(pattern.steps)
    start = np.zeros((k, 1), dtype=np.int8)
    states, probs, bits, _ = walk_steps(pattern.steps, state[None], start, np.arange(k)[:, None])
    x, z = frame_bits((pattern.corrections,), 0, bits)
    return RunResult(apply_pauli_frame(states, x, z), states, probs, bits, x, z)
