"""Gate-pattern builders: adaptive slots, the entangling slot, compilation.

Two variants are supported.  With a single entangler kind every rotation slot
is three steps (hidden-angle step, assistant step, rotation step) realizing
``H Rz(theta')``; with two entangler kinds the slots are two steps realizing
``Rx(theta')`` or ``Rz(theta')``.  A two-qubit slot couples the ancilla to both
targets before measuring; local fixup slots shape it into an exact CZ.

Byproduct Paulis are never applied mid-pattern: each slot records how it
carries the Pauli frame of its qubits as a small binary map, and its angles
read only its incoming frame bits and its own earlier outcomes (signal
shifting, slot by slot).  The frame carried out of the last slot is the
final per-qubit correction.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, reduce
from itertools import groupby

import numpy as np

from . import register
from .core import AncillaSpec, rotation
from .linalg import (
    CZ,
    H,
    PAULI_NAMES,
    PAULIS,
    apply_op,
    apply_pauli_frame,
    dagger,
    embed,
    equal_up_to_global_phase,
    phase_invariant_error,
    tensor,
)
from .register import (
    MAX_QUBITS,
    PRUNE_PROBABILITY,
    AdaptiveAngle,
    AdqcStep,
    GatePattern,
    SlotSpec,
    carry,
    frame_bits,
    parity_table,
    run_pattern,
    step_branch_operators,
)

VARIANTS = ("single", "two")
MAX_FLAT_STEPS = 13  # longest slotless pattern enumerated flat
SLOT_CACHE_SIZE = 1024  # slot-check results kept, oldest dropped first; each holds a few KB
_SLOT_CACHE: dict[tuple, tuple] = {}  # slot content -> its _check_slots row and that row's two maxima


# ---------------------------------------------------------------------------
# frozen two-target slot data
# ---------------------------------------------------------------------------

CZ_SLOT_ANCILLA = AncillaSpec(math.pi / 2, math.pi / 2)
_BARE_ANCILLA = AncillaSpec(0.0, 0.0)  # the ancilla of every one-qubit step
_ZERO_ANGLE = AdaptiveAngle(0.0)  # every fixed basis angle


def _pauli2(n1: str, n2: str) -> np.ndarray:
    return tensor(PAULIS[n1], PAULIS[n2])


def _pauli_bits(m: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Frame bits (x1, z1, x2, z2) of the Pauli pair P with
    m = phase * P @ base, |phase| = 1."""
    for i1, n1 in enumerate(PAULI_NAMES):
        for i2, n2 in enumerate(PAULI_NAMES):
            if equal_up_to_global_phase(m, _pauli2(n1, n2) @ base, 1e-9):
                return np.array([i1 & 1, i1 >> 1, i2 & 1, i2 >> 1])
    raise RuntimeError("no Pauli factor relates the operators")


def _slot_branch(labels: tuple[str, str], r: int, s: int) -> np.ndarray:
    step = AdqcStep(
        targets=(0, 1),
        entangler_labels=labels,
        ancilla=AncillaSpec(CZ_SLOT_ANCILLA.gamma + r * math.pi, CZ_SLOT_ANCILLA.delta),
        basis_theta=_ZERO_ANGLE,
    )
    return math.sqrt(2) * step_branch_operators(step, 0.0, 2)[s]


@dataclass(frozen=True)
class Cz2Spec:
    """Frozen data for one variant's two-target slot."""

    labels: tuple[str, str]
    slot_target: np.ndarray
    # binary 4x7 map from the bits (x1, z1, x2, z2, outcome, payload flip, 1)
    # to the frame bits (x1, z1, x2, z2) after the slot
    frame_map: np.ndarray
    pre_fixups: tuple[tuple[int, str, float], ...]  # (which qubit, kind, angle)
    post_fixups: tuple[tuple[int, str, float], ...]


def _build_cz2(variant: str) -> Cz2Spec:
    if variant == "single":
        labels = ("J_CANON", "J_CANON")
        fold = _pauli2("X", "X")
        pre: tuple = ()
        post = ((0, "J", 0.0), (1, "J", 0.0), (1, "J", math.pi / 2), (1, "J", 0.0))
    else:
        labels = ("RX_CANON", "RZ_CANON")
        fold = np.eye(4, dtype=complex)
        pre = (
            (0, "RZ", 3 * math.pi / 2),
            (0, "RX", math.pi / 2),
            (0, "RZ", math.pi / 2),
            (1, "RZ", -math.pi / 2),
        )
        post = ((0, "RZ", math.pi / 2), (0, "RX", math.pi / 2), (0, "RZ", math.pi / 2))
    target = fold @ _slot_branch(labels, 0, 0)
    # the branch of outcome s with payload flip r is a Pauli pair times the target
    byproduct = {
        (r, s): _pauli_bits(_slot_branch(labels, r, s), target) for r in (0, 1) for s in (0, 1)
    }
    payload_flip = byproduct[1, 0] ^ byproduct[0, 0]
    if (payload_flip != byproduct[1, 1] ^ byproduct[0, 1]).any():
        raise RuntimeError("payload-flip frame depends on the outcome")
    # incoming frame generators conjugated through the slot target
    conj = np.array([
        _pauli_bits(target @ _pauli2(*gen) @ dagger(target), np.eye(4, dtype=complex))
        for gen in ("XI", "ZI", "IX", "IZ")
    ]).T
    outcome_flip = byproduct[0, 1] ^ byproduct[0, 0]
    frame_map = np.column_stack([conj, outcome_flip, payload_flip, byproduct[0, 0]]).astype(np.int8)
    return Cz2Spec(labels, target, frame_map, pre, post)


@cache
def cz2_spec(variant: str) -> Cz2Spec:
    """The two-target slot data of ``variant``, built on first use; every
    caller shares it, so its arrays are read-only."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    spec = _build_cz2(variant)
    spec.slot_target.flags.writeable = spec.frame_map.flags.writeable = False
    return spec


# ---------------------------------------------------------------------------
# pattern builder with frame threading
# ---------------------------------------------------------------------------

# one-qubit slot kind -> (entangler label, step roles in order, realized gate)
_ONE_QUBIT_SLOTS = {
    "J": ("J_CANON", ("gamma", "assist", "theta"), lambda t: H @ rotation("z", t)),
    "RX": ("RX_CANON", ("gamma", "theta"), lambda t: rotation("x", t)),
    "RZ": ("RZ_CANON", ("gamma", "theta"), lambda t: rotation("z", t)),
    "ASSIST": ("J_CANON", ("assist",), lambda t: H),
}


@cache
def _one_qubit_frames(kind: str) -> tuple[np.ndarray, frozenset[int], frozenset[int]]:
    """The frame map and theta and gamma negate sets of a one-qubit slot
    kind: the local bits X = {0} and Z = {1} carried through each step's
    kernel, X^s Rx(.) H for J_CANON, X^s Rx(.) for RX_CANON and Z^s Rz(.)
    for RZ_CANON, outcome t being local bit 2 + t."""
    label, roles, _ = _ONE_QUBIT_SLOTS[kind]
    x, z = frozenset({0}), frozenset({1})
    theta_negate = gamma_negate = frozenset()
    for t, role in enumerate(roles):
        if label == "J_CANON":  # H swaps the frame's X and Z parts
            x, z = z, x
        if role == "theta":
            # the Z part negates an X rotation, the X part a Z rotation; the
            # payload's hidden angle is negated by every earlier outcome
            theta_negate = x if label == "RZ_CANON" else z
            gamma_negate = frozenset(range(2, 2 + t))
        if label == "RZ_CANON":
            z = z ^ {2 + t}
        else:
            x = x ^ {2 + t}
    return parity_table((x, z), 3 + 2 * len(roles)), theta_negate, gamma_negate


class _PatternBuilder:
    def __init__(self, num_qubits: int, variant: str):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.n = num_qubits
        self.variant = variant
        self.steps: list[AdqcStep] = []
        self.slots: list[SlotSpec] = []
        self.const = [0] * (2 * num_qubits)  # the frame when every outcome and coin is 0

    def _close_slot(self, slot: SlotSpec):
        self.slots.append(slot)
        carry(self.const, slot, [0] * (2 * len(slot.roles)))

    def _one_qubit_slot(self, kind: str, q: int, theta_prime: float | None):
        label, roles, _ = _ONE_QUBIT_SLOTS[kind]
        frame_map, theta_negate, gamma_negate = _one_qubit_frames(kind)
        indices = {}
        for role in roles:
            angle = AdaptiveAngle(theta_prime, theta_negate) if role == "theta" else _ZERO_ANGLE
            indices[role] = len(self.steps)
            self.steps.append(AdqcStep((q,), (label,), _BARE_ANCILLA, angle))
        fields = {}
        if "theta" in roles:
            sign = -1 if sum(self.const[2 * q + c] for c in theta_negate if c < 2) % 2 else 1
            fields = dict(theta_negate=theta_negate, theta_sign=sign, gamma_negate=gamma_negate)
        self._close_slot(SlotSpec(kind, (q,), theta_prime, indices, frame_map, **fields))

    def add_cz(self, q1: int, q2: int):
        spec = cz2_spec(self.variant)
        for q, kind, ang in spec.pre_fixups:
            self._one_qubit_slot(kind, (q1, q2)[q], ang)
        self.steps.append(AdqcStep((q1, q2), spec.labels, CZ_SLOT_ANCILLA, _ZERO_ANGLE))
        self._close_slot(SlotSpec("CZ2", (q1, q2), None, {"couple": len(self.steps) - 1}, spec.frame_map))
        for q, kind, ang in spec.post_fixups:
            self._one_qubit_slot(kind, (q1, q2)[q], ang)

    def finalize(self, target: np.ndarray) -> GatePattern:
        """The built pattern, stating ``target`` as the unitary it realizes;
        ``verify_pattern`` checks that its steps do."""
        return GatePattern(self.n, tuple(self.steps), target, tuple(self.slots))


# ---------------------------------------------------------------------------
# public constructors
# ---------------------------------------------------------------------------

_SUPPORTED = {
    "single": {"J", "CZ", "ASSIST"},
    "two": {"RX", "RZ", "CZ"},
}


def _check_angle(kind: str, angle, needed: bool) -> None:
    """Refuse an angle given where ``kind`` takes none, and a missing,
    non-real (a string, a bool), non-finite or, as an integer, too large for
    a float one where it takes one."""
    if not needed:
        if angle is not None:
            raise ValueError(f"{kind} takes no angle")
        return
    if angle is None:
        raise ValueError(f"{kind} needs an angle")
    if isinstance(angle, bool) or not isinstance(angle, (int, float)):
        raise ValueError(f"{kind} angle must be a real number")
    try:
        finite = math.isfinite(angle)
    except OverflowError:
        raise ValueError(f"{kind} angle is too large for a float") from None
    if not finite:
        raise ValueError(f"{kind} angle must be finite, got {angle}")


def standard_pattern(kind: str, theta_prime: float | None = None, variant: str = "single") -> GatePattern:
    """One named slot as a standalone pattern on one or two qubits."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if kind not in _SUPPORTED[variant]:
        raise ValueError(f"slot kind {kind!r} is not available in variant {variant!r}")
    _check_angle(kind, theta_prime, kind not in ("CZ", "ASSIST"))
    if kind == "CZ":
        b = _PatternBuilder(2, variant)
        b.add_cz(0, 1)
        return b.finalize(CZ)
    theta = None if theta_prime is None else float(theta_prime)
    b = _PatternBuilder(1, variant)
    b._one_qubit_slot(kind, 0, theta)
    return b.finalize(_ONE_QUBIT_SLOTS[kind][2](theta))


def _add_unit(b: _PatternBuilder, q: int, zxz: np.ndarray):
    """One full single-qubit unit realizing Rz(c) Rx(b) Rz(a)."""
    a, bb, c = (float(v) for v in zxz)
    if b.variant == "single":
        for ang in (a, bb, c):
            b._one_qubit_slot("J", q, ang)
        b._one_qubit_slot("ASSIST", q, None)
    else:
        b._one_qubit_slot("RZ", q, a)
        b._one_qubit_slot("RX", q, bb)
        b._one_qubit_slot("RZ", q, c)


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------

_GATE_KINDS = ("H", "Rx", "Rz", "CZ")


def _is_int(value) -> bool:
    """An int or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_index(value) -> bool:
    return _is_int(value) and value >= 0


def _known_keys(doc, keys: tuple[str, ...], what: str) -> None:
    """Refuse a key of ``doc``, if it is a dict, outside ``keys``."""
    unknown = sorted(set(doc) - set(keys)) if isinstance(doc, dict) else []
    if unknown:
        raise ValueError(f"unknown {what} key {unknown[0]!r}")


@dataclass(frozen=True)
class CircuitGate:
    kind: str
    targets: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in _GATE_KINDS:
            raise ValueError(f"unsupported gate kind {self.kind!r}")
        want = 2 if self.kind == "CZ" else 1
        if len(self.targets) != want or len(set(self.targets)) != want:
            raise ValueError(f"{self.kind} takes {want} distinct target(s)")
        if not all(_is_index(t) for t in self.targets):
            raise ValueError(f"{self.kind} targets must be qubit indices")
        _check_angle(self.kind, self.angle, self.kind in ("Rx", "Rz"))

    def matrix(self) -> np.ndarray:
        if self.kind == "H":
            return H
        if self.kind == "CZ":
            return CZ
        return rotation(self.kind[1].lower(), float(self.angle))


@dataclass(frozen=True)
class CircuitDescription:
    num_qubits: int
    gates: tuple[CircuitGate, ...]

    def __post_init__(self):
        if not _is_index(self.num_qubits) or not 1 <= self.num_qubits <= MAX_QUBITS:
            raise ValueError(f"circuits support 1 to {MAX_QUBITS} qubits")
        for g in self.gates:
            if any(t >= self.num_qubits for t in g.targets):
                raise ValueError(f"gate {g} targets outside the circuit")

    def unitary(self) -> np.ndarray:
        out = np.eye(2**self.num_qubits, dtype=complex)
        for g in self.gates:
            out = embed(g.matrix(), g.targets, self.num_qubits) @ out
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "v": 1,
                "qubits": self.num_qubits,
                "gates": [
                    {
                        "kind": g.kind,
                        "targets": list(g.targets),
                        **({"angle": g.angle} if g.angle is not None else {}),
                    }
                    for g in self.gates
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "CircuitDescription":
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("malformed circuit JSON: nested too deeply") from None
        if not isinstance(doc, dict) or not _is_index(doc.get("v")) or doc["v"] != 1:
            raise ValueError("unsupported circuit schema version")
        _known_keys(doc, ("v", "qubits", "gates"), "circuit")
        try:
            gates = []
            for g in doc["gates"]:
                _known_keys(g, ("kind", "targets", "angle"), "gate")
                gates.append(CircuitGate(g["kind"], tuple(g["targets"]), g.get("angle")))
            return cls(doc["qubits"], tuple(gates))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed circuit JSON: {exc!r}") from None


_UNIT_FILLING = {
    # fixed Euler-unit angles realizing each gate, Rz(c) Rx(b) Rz(a) up to phase;
    # these stay on the protocol grid whenever the gate angle does
    "H": lambda ang: (math.pi / 2, math.pi / 2, math.pi / 2),
    "Rz": lambda ang: (ang, 0.0, 0.0),
    "Rx": lambda ang: (0.0, ang, 0.0),
}


def compile_circuit(
    circuit: CircuitDescription, variant: str = "single", pad_layers: int = 0
) -> GatePattern:
    """Compile a circuit into a tile of fixed-shape Euler units and entangling
    slots: one unit per one-qubit gate, one entangling slot per CZ.

    Every unit has the same slot shape regardless of the gate it carries, so
    the step sequence hides which one-qubit gate a unit carries, but not its
    qubit, the gate order or where the CZs are (``protocol.pattern_shape``
    shows them all); grid-angle circuits compile to grid-angle slots.
    ``pad_layers`` appends identity unit layers on every qubit.
    """
    n = circuit.num_qubits
    b = _PatternBuilder(n, variant)
    for g in circuit.gates:
        if g.kind == "CZ":
            b.add_cz(*g.targets)
        else:
            angles = _UNIT_FILLING[g.kind](g.angle)
            _add_unit(b, g.targets[0], np.asarray(angles, dtype=float))
    if not circuit.gates:
        for q in range(n):
            _add_unit(b, q, np.zeros(3))
    for _ in range(int(pad_layers)):
        for q in range(n):
            _add_unit(b, q, np.zeros(3))
    return b.finalize(circuit.unitary())


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerifyReport:
    valid: bool
    worst_branch_error: float
    branch_probabilities: tuple[float, ...]
    mode: str
    detail: str = ""


def verify_pattern(pattern: GatePattern, tol: float = 1e-9) -> VerifyReport:
    """Check the pattern-validity contract: every corrected outcome branch
    realizes ``target`` up to a global phase, and the branches are complete.

    A pattern of more than one slot is checked slot by slot at the operator
    level (``_verify_slotwise``): each distinct slot content once (the results
    are cached) on its own qubits under every incoming local frame, then the
    slots' ordered product against ``target``.  That is sufficient, not
    necessary: a slot that mishandles a frame no earlier slot can hand it is
    refused, though every branch of the whole pattern may be right.  A failed
    report's ``detail`` names the slot, its outcome bits and the incoming
    frame where it failed.  A pattern of at most one slot (a slotless one of
    at most ``MAX_FLAT_STEPS`` steps) is checked whole, as one stage: one
    ``run_pattern`` from the Choi input I/sqrt(d), each corrected branch
    operator against target/sqrt(d), and probabilities summing to 1, which
    with every branch proportional to the unitary target is
    sum_b K_b^dagger K_b = I.  Its ``detail`` names the worst branch's bits.
    """
    if len(pattern.slots) > 1:
        return _verify_slotwise(pattern, tol)
    if not pattern.slots and len(pattern.steps) > MAX_FLAT_STEPS:
        raise ValueError("pattern too long for flat enumeration and has no slots")
    dim = 2**pattern.num_qubits
    res = run_pattern(np.eye(dim, dtype=complex) / math.sqrt(dim), pattern)
    probs = tuple(res.probabilities.tolist())
    if abs(res.probabilities.sum() - 1.0) > 1e-10:
        return VerifyReport(False, 1.0, probs, "flat", "probabilities do not sum to 1")
    errs = phase_invariant_error(res.branches.reshape(len(probs), -1), pattern.target.ravel() / math.sqrt(dim))
    b = int(np.argmax(errs))
    worst = float(errs[b])
    detail = "" if worst <= tol else f"branch outcomes {tuple(res.outcomes[:, b].tolist())}: error {worst:.3e}"
    return VerifyReport(worst <= tol, worst, probs, "flat", detail)


@cache
def _leaf_bits(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (4^m 2^k, 2m + k) local bits of each (frame f, leaf l) of
    an m-qubit k-step slot, bit c = f >> c & 1 and then step t's outcome
    l >> (k - 1 - t) & 1, and the frames' Paulis P_in."""
    rows, eye = np.arange(4**m << k)[:, None], np.broadcast_to(np.eye(2**m, dtype=complex), (4**m, 2**m, 2**m))
    bits = np.concatenate((rows >> k >> np.arange(2 * m), rows >> np.arange(k - 1, -1, -1)), 1).astype(np.int8) & 1
    frames = bits[::1 << k, :2 * m].T
    paulis = apply_pauli_frame(eye, frames[0::2], frames[1::2])
    bits.flags.writeable = paulis.flags.writeable = False
    return bits, paulis


def _check_slots(m: int, couplings: tuple, angles: list[tuple], maps: list[np.ndarray]):
    """Every leaf of the slots given by their steps' (value, negate)
    ``angles`` and their frame ``maps``, which share m local qubits and their
    steps' ``couplings`` (local targets, labels, ancilla gamma and delta),
    under each of the 4^m incoming frames (``_leaf_bits``).  A step has four
    Kraus operators per slot (sign times outcome); each (frame, leaf) takes
    its factor by a gather and one product, and is dropped where a
    conditional probability falls below PRUNE_PROBABILITY.  Returns, per
    slot, its first kept corrected leaf P_out K P_in of unit norm,
    ||sum K^dagger K - I|| per frame, and each leaf's distance from that
    first one (0 if pruned)."""
    count, d, k = len(angles), 2**m, len(couplings)
    bits, paulis = _leaf_bits(m, k)
    values = np.array([[value for value, _ in row] for row in angles]).reshape(count, k)
    kraus = np.empty((k, count, 2, 2, d, d), dtype=complex)  # (step, slot, sign, outcome)
    for coupling in set(couplings):
        at = [t for t, c in enumerate(couplings) if c == coupling]
        thetas = np.stack([values[:, at].T, -values[:, at].T], -1)
        kraus[at] = step_branch_operators(AdqcStep(*coupling[:2], AncillaSpec(*coupling[2]), _ZERO_ANGLE), thetas, m)
    ops = np.broadcast_to(paulis[None, :, None], (count, len(paulis), 1 << k, d, d)).reshape(count, -1, d, d)
    weight, kept = float(d), True
    for t, row in enumerate(zip(*angles)):
        sign = parity_table(tuple(negate for _, negate in row), 2 * m + k) @ bits.T & 1
        ops = np.einsum("snij,snjk->snik", kraus[t][np.arange(count)[:, None], sign, bits[:, 2 * m + t]], ops)
        flat = ops.reshape(count, len(bits), -1).view(float)
        norms = np.einsum("snj,snj->sn", flat, flat)
        kept = kept & (norms >= PRUNE_PROBABILITY * weight)
        weight = norms
    local, maps = bits.T[:, None], np.stack(maps)[:, None]
    out = frame_bits(maps, local[:2 * m], local[2 * m:], 0 * local[2 * m:])
    corrected = apply_pauli_frame(ops.reshape(-1, d, d), out[0::2].reshape(m, -1), out[1::2].reshape(m, -1))
    corrected = corrected.reshape(count, len(bits), d * d) / np.sqrt(np.where(kept, weight, 1.0))[..., None]
    both = (ops * kept[..., None, None]).reshape(count, len(paulis), -1, d, d)
    gram = np.einsum("sflji,sfljk->sfik", both.conj(), both)
    incomplete = np.linalg.norm(gram - np.eye(d), axis=(2, 3))
    first = np.argmax(kept, axis=1)
    firsts = corrected[np.arange(count), first]
    errs = phase_invariant_error(corrected, firsts[:, None]) * kept
    return firsts.reshape(count, d, d), incomplete, errs.reshape(count, len(paulis), -1)


def _slot_key(pattern: GatePattern, slot: SlotSpec, blocks: dict) -> tuple:
    """Every input ``_check_slots`` reads for ``slot``: its batch's shape
    (qubit count, steps' local targets, labels and ancillas), each step's
    ``register.coupling_blocks`` bytes (read once per label tuple into
    ``blocks``), its angles and its frame map's dtype, shape and bytes."""
    steps = [pattern.steps[i] for i in slot.step_indices]
    for labels in {s.entangler_labels for s in steps} - blocks.keys():
        blocks[labels] = register.coupling_blocks(labels).tobytes()
    couplings = tuple((tuple(map(slot.qubits.index, s.targets)), s.entangler_labels, (s.ancilla.gamma, s.ancilla.delta))
                      for s in steps)  # plain tuples: a frozen dataclass hashes in Python
    frame_map, angles = slot.frame_map, tuple((s.basis_theta.value, s.basis_theta.negate) for s in steps)
    return (len(slot.qubits), couplings, tuple(blocks[s.entangler_labels] for s in steps), angles,
            frame_map.dtype.str, frame_map.shape, frame_map.tobytes())


def _rescaled(m: np.ndarray) -> np.ndarray:
    """``m`` times the power of two putting its largest magnitude in [0.5, 1): exact."""
    return m * 2.0 ** -max(math.frexp(float(np.abs(m).max()))[1], -1021)


def _verify_slotwise(pattern: GatePattern, tol: float) -> VerifyReport:
    """Check every slot at the operator level on its own qubits.

    Each slot starts from the identity on its m local qubits under each of
    its 4^m incoming frames P_in, which covers every history an earlier slot
    can lead to and more (so a valid pattern may be refused), and its frame
    map gives each leaf's outgoing frame P_out.  Each distinct slot content
    (``_slot_key``) is checked once, in one ``_check_slots`` batch per
    shape, and kept read-only in a cache of SLOT_CACHE_SIZE entries, oldest
    dropped first.  On every call, each corrected leaf P_out K P_in must be
    proportional to its slot's first kept leaf, sum_b K_b^dagger K_b = I
    under every incoming frame, and the ordered product of the unit-norm
    first leaves, rescaled by an exact power of two after every factor so it
    cannot underflow, proportional to ``target``; a NaN error fails.  The
    report names the first slot that fails.
    """
    blocks: dict[tuple[str, ...], bytes] = {}
    keys = [_slot_key(pattern, slot, blocks) for slot in pattern.slots]
    found = [_SLOT_CACHE.get(key) for key in keys]
    misses: dict[tuple, dict[tuple, np.ndarray]] = {}
    for key, row, slot in zip(keys, found, pattern.slots):
        if row is None:
            misses.setdefault(key[:2], {})[key] = slot.frame_map
    checked = {}
    for (m, couplings), batch in misses.items():
        results = _check_slots(m, couplings, [key[3] for key in batch], list(batch.values()))
        for a in results:
            a.flags.writeable = False  # each slot's results are views of these
        checked.update(zip(batch, zip(*results, results[1].max(axis=1), results[2].max(axis=(1, 2)))))
    firsts, incomplete, errs, most_incomplete, worst_err = zip(*(row or checked[key] for key, row in zip(keys, found)))
    for key, row in checked.items():
        _SLOT_CACHE[key] = row
        if len(_SLOT_CACHE) > SLOT_CACHE_SIZE:
            del _SLOT_CACHE[next(iter(_SLOT_CACHE))]
    worst_err, lost = np.array(worst_err), ~(np.array(most_incomplete) <= 1e-9)
    bad = np.flatnonzero(lost | ~(worst_err <= tol))
    if bad.size:
        j, slot = int(bad[0]), pattern.slots[bad[0]]
        f, leaf = (np.argmax(incomplete[j]), 0) if lost[j] else np.unravel_index(np.argmax(errs[j]), errs[j].shape)
        frame = {f"{'xz'[c % 2]}{q}": int(f) >> c & 1 for c, q in enumerate(np.repeat(slot.qubits, 2).tolist())}
        if lost[j]:
            return VerifyReport(False, 1.0, (), "slotwise", f"slot {j} branches are incomplete: sum of K^dagger K"
                                f" is {incomplete[j][f]:.3e} from I under incoming frame {frame}")
        k, err = len(slot.roles), float(worst_err[j])
        outcomes = [int(leaf) >> (k - 1 - t) & 1 for t in range(k)]
        return VerifyReport(False, err, (), "slotwise", f"slot {j} branches disagree after correction: outcomes"
                            f" {outcomes} under incoming frame {frame}, error {err:.3e}")
    product = np.eye(2**pattern.num_qubits, dtype=complex)  # consecutive slots on the same qubits multiply locally
    for qubits, run in groupby(zip(pattern.slots, firsts), key=lambda pair: pair[0].qubits):
        local = reduce(lambda acc, pair: _rescaled(pair[1] @ acc), run, np.eye(2 ** len(qubits)))
        product = _rescaled(apply_op(local, product, qubits))
    unit = [m.reshape(-1) / np.linalg.norm(m) for m in (product, pattern.target)]
    err = float(phase_invariant_error(*unit))
    worst = float(np.maximum(worst_err.max(initial=0.0), err))  # a NaN err stays NaN, and fails
    valid = worst <= tol
    detail = "" if valid else f"final corrections disagree with the target: error {err:.3e}"
    return VerifyReport(valid, worst, (), "slotwise", detail)
