"""Gate-pattern builders: adaptive slots, the entangling slot, compilation.

Two variants are supported.  With a single entangler kind every rotation slot
is three steps (hidden-angle step, assistant step, rotation step) realizing
``H Rz(theta')``; with two entangler kinds the slots are two steps realizing
``Rx(theta')`` or ``Rz(theta')``.  A two-qubit slot couples the ancilla to both
targets before measuring; local fixup slots shape it into an exact CZ.

Byproduct Paulis are never applied mid-pattern: builders thread an
outcome-parity frame through every slot, adapting later basis angles and
accumulating the final per-qubit corrections.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import cache, reduce
from operator import xor

import numpy as np

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
    PAYLOAD_BIT,
    AdaptiveAngle,
    AdqcStep,
    GatePattern,
    QubitCorrection,
    SlotSpec,
    frame_bits,
    run_pattern,
    step_branch_operators,
    walk_steps,
)

VARIANTS = ("single", "two")
MAX_FLAT_STEPS = 13  # longest slotless pattern enumerated flat


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
    frame_map = np.column_stack([conj, outcome_flip, payload_flip, byproduct[0, 0]])
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


class _PatternBuilder:
    def __init__(self, num_qubits: int, variant: str):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self.n = num_qubits
        self.variant = variant
        self.steps: list[AdqcStep] = []
        self.slots: list[SlotSpec] = []
        self.frames = [QubitCorrection()] * num_qubits
        self.boundary_corrections: list[tuple[QubitCorrection, ...]] = []

    # -- helpers ------------------------------------------------------------

    def _emit(self, step: AdqcStep) -> int:
        self.steps.append(step)
        return len(self.steps) - 1

    def _close_slot(self, slot: SlotSpec):
        """Record the slot and the frame at its boundary."""
        self.slots.append(slot)
        self.boundary_corrections.append(tuple(self.frames))

    def _one_qubit_slot(self, kind: str, q: int, theta_prime: float | None):
        """Emit a one-qubit slot, carrying the frame of ``q`` through each
        step's kernel: X^s Rx(.) H for J_CANON, X^s Rx(.) for RX_CANON and
        Z^s Rz(.) for RZ_CANON."""
        label, roles, _ = _ONE_QUBIT_SLOTS[kind]
        on_z = label == "RZ_CANON"
        fr = self.frames[q]
        x_parity, x_const, z_parity, z_const = fr.x_parity, fr.x_const, fr.z_parity, fr.z_const
        indices: dict[str, int] = {}
        theta_fields = {}
        for role in roles:
            if label == "J_CANON":  # H swaps the frame's X and Z parts
                x_parity, x_const, z_parity, z_const = z_parity, z_const, x_parity, x_const
            angle = _ZERO_ANGLE
            if role == "theta":
                # the Z part negates an X rotation, the X part a Z rotation; the
                # payload's hidden angle is negated by every earlier outcome
                negate, const = (x_parity, x_const) if on_z else (z_parity, z_const)
                sign = -1.0 if const else 1.0
                angle = AdaptiveAngle(sign * theta_prime, negate)
                theta_fields = dict(
                    theta_negate=negate, theta_sign=int(sign), gamma_negate=frozenset(indices.values())
                )
            i = indices[role] = self._emit(AdqcStep((q,), (label,), _BARE_ANCILLA, angle))
            if on_z:
                z_parity = z_parity ^ {i}
            else:
                x_parity = x_parity ^ {i}
        self.frames[q] = QubitCorrection(x_parity, x_const, z_parity, z_const)
        slot = SlotSpec(kind, (q,), theta_prime, indices, **theta_fields)
        self._close_slot(slot)

    # -- slots ----------------------------------------------------------------

    def add_cz(self, q1: int, q2: int):
        spec = cz2_spec(self.variant)
        for q, kind, ang in spec.pre_fixups:
            self._one_qubit_slot(kind, (q1, q2)[q], ang)
        i = self._emit(
            AdqcStep((q1, q2), spec.labels, CZ_SLOT_ANCILLA, _ZERO_ANGLE)
        )
        # each outgoing frame bit xors incoming bits conjugated through the slot
        # target, the outcome's byproduct and, through the step's payload bit,
        # the fixed Pauli pair a flipped payload multiplies the step by
        f1, f2 = self.frames[q1], self.frames[q2]
        parts = (
            (f1.x_parity, f1.x_const),
            (f1.z_parity, f1.z_const),
            (f2.x_parity, f2.x_const),
            (f2.z_parity, f2.z_const),
            (frozenset({i}), 0),
            (frozenset({i + PAYLOAD_BIT}), 0),
            (frozenset(), 1),
        )
        out = []
        for row in spec.frame_map:
            chosen = [part for part, on in zip(parts, row) if on]
            out.append(reduce(xor, (p for p, _ in chosen), frozenset()))
            out.append(reduce(xor, (c for _, c in chosen), 0))
        self.frames[q1] = QubitCorrection(*out[:4])
        self.frames[q2] = QubitCorrection(*out[4:])
        self._close_slot(SlotSpec("CZ2", (q1, q2), None, {"couple": i}))
        for q, kind, ang in spec.post_fixups:
            self._one_qubit_slot(kind, (q1, q2)[q], ang)

    def finalize(self, target: np.ndarray) -> GatePattern:
        """The built pattern, stating ``target`` as the unitary it realizes;
        ``verify_pattern`` checks that its steps do."""
        return GatePattern(
            num_qubits=self.n,
            steps=tuple(self.steps),
            target=target,
            corrections=tuple(self.frames),
            slots=tuple(self.slots),
            slot_boundaries=tuple(self.boundary_corrections),
        )


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
    level (``_verify_slotwise``): each slot's branch operators on its own
    qubits, from one Choi input, under every history of earlier outcomes it
    reads.  A failed report's ``detail`` names the slot, its outcome bits and
    the earlier outcomes where it failed.  A pattern of at most one slot (a
    slotless one of at most ``MAX_FLAT_STEPS`` steps) is checked whole, as one
    stage: one ``run_pattern`` from the Choi input I/sqrt(d), each corrected
    branch operator against target/sqrt(d), and probabilities summing to 1,
    which with every branch proportional to the unitary target is
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


def _pivot_bits(sets, inside) -> list[int]:
    """Outcome bits outside ``inside`` whose settings, every other bit zero,
    give the parities of ``sets`` every joint value the bits outside
    ``inside`` can give them: one pivot per independent set, by GF(2)
    elimination.  Payload bits are zero in verification and are skipped."""
    basis: list[tuple[int, int]] = []
    for s in sets:
        m = sum(1 << i for i in s if i < PAYLOAD_BIT and i not in inside)
        for p, v in basis:
            if m >> p & 1:
                m ^= v
        if m:
            basis.append((m.bit_length() - 1, m))
    return [p for p, _ in basis]


@dataclass(frozen=True)
class _Stage:
    """One stage of the slot-wise check: a slot, or the final corrections as
    an empty slot, restricted to its local qubits."""

    label: str  # "slot {k} branches" or "final corrections"
    steps: tuple[int, ...]
    qubits: tuple[int, ...]  # local qubits, ascending
    frame_in: tuple[QubitCorrection, ...]  # frames of the local qubits
    frame_out: tuple[QubitCorrection, ...]
    pivots: tuple[int, ...]


def _stages(pattern: GatePattern) -> tuple[list[_Stage], list[AdqcStep]]:
    """The pattern's stages, and its steps with targets renumbered onto their
    stage's local qubits.  A stage's local qubits are the ones its steps
    target plus any whose frame changes across it; a frame on any other qubit
    appears on both sides and cancels exactly, since a Pauli squares to I."""
    n = pattern.num_qubits
    frames_in = ((QubitCorrection(),) * n,) + pattern.slot_boundaries
    frames_out = pattern.slot_boundaries + (pattern.corrections,)
    step_lists = [slot.step_indices for slot in pattern.slots] + [()]
    stages, local_steps = [], list(pattern.steps)
    for index, (steps, f_in, f_out) in enumerate(zip(step_lists, frames_in, frames_out)):
        touched = {t for i in steps for t in pattern.steps[i].targets}
        qubits = tuple(sorted(touched | {q for q in range(n) if f_in[q] != f_out[q]}))
        if not qubits:
            continue  # nothing acts and no frame changes
        for i in steps:
            targets = tuple(qubits.index(t) for t in pattern.steps[i].targets)
            if targets != pattern.steps[i].targets:
                local_steps[i] = replace(pattern.steps[i], targets=targets)
        frame_in, frame_out = tuple(f_in[q] for q in qubits), tuple(f_out[q] for q in qubits)
        sets = [s for c in frame_in + frame_out for s in (c.x_parity, c.z_parity)]
        sets += [pattern.steps[i].basis_theta.negate for i in steps]
        pivots = tuple(_pivot_bits(sets, set(steps)))
        label = f"slot {index} branches" if index < len(pattern.slots) else "final corrections"
        stages.append(_Stage(label, steps, qubits, frame_in, frame_out, pivots))
    return stages, local_steps


def _run_stages(stages: list[_Stage], local_steps: list[AdqcStep]):
    """Run stages of one local size and step count in one batch, each history
    of each stage started from the normalized identity on its local qubits
    under its incoming frame.  Yields, per stage, its corrected branch
    operators P_out K_b P_in (each of unit Frobenius norm) as a
    (branches, 2^m, 2^m) array, their (steps, branches) outcome bits, each
    branch's distance from the stage's first branch and the distance
    ||sum_b K_b^dagger K_b - I|| of each history."""
    m = len(stages[0].qubits)
    dim = 2**m
    offsets = np.cumsum([0] + [2 ** len(st.pivots) for st in stages])
    bits = np.zeros((len(local_steps), offsets[-1]), dtype=np.int8)
    plan = np.empty((len(stages[0].steps), offsets[-1]), dtype=int)
    for st, lo, hi in zip(stages, offsets, offsets[1:]):
        bits[list(st.pivots), lo:hi] = np.arange(hi - lo) >> np.arange(len(st.pivots))[:, None] & 1
        plan[:, lo:hi] = np.array(st.steps, dtype=int)[:, None]
    stage_of = np.repeat(np.arange(len(stages)), np.diff(offsets))  # each start row's stage
    x, z = frame_bits([st.frame_in for st in stages], stage_of, bits)
    choi = np.broadcast_to(np.eye(dim, dtype=complex) / math.sqrt(dim), (offsets[-1], dim, dim))
    states, probs, bits, origin = walk_steps(local_steps, apply_pauli_frame(choi, x, z), bits, plan)
    bounds = np.searchsorted(origin, offsets)  # branches stay in start-row order
    ops = apply_pauli_frame(states, *frame_bits([st.frame_out for st in stages], stage_of[origin], bits))
    flat = ops.reshape(len(ops), -1)
    errs = phase_invariant_error(flat, flat[np.repeat(bounds[:-1], np.diff(bounds))])
    gram = np.zeros((offsets[-1], dim, dim), dtype=complex)  # sum_b K_b^dagger K_b per history
    np.add.at(gram, origin, np.einsum("bji,bjk->bik", states.conj(), states) * (dim * probs)[:, None, None])
    incomplete = np.linalg.norm(gram - np.eye(dim), axis=(1, 2))
    for i, st in enumerate(stages):
        lo, hi = bounds[i], bounds[i + 1]
        yield ops[lo:hi], bits[:, lo:hi], errs[lo:hi], incomplete[offsets[i]:offsets[i + 1]]


def _verify_slotwise(pattern: GatePattern, tol: float) -> VerifyReport:
    """Check every slot at the operator level on its own qubits.

    Each stage (a slot, then the final corrections as an empty slot) starts
    from one Choi input, the normalized identity on its local qubits, for
    every history of earlier outcomes on the pivot bits of its local frames
    and angle terms.  Stages do not depend on one another, so all stages of
    one local size and step count run in one batch.  Three checks must hold:
    every corrected branch operator P_out K_b P_in is proportional to its
    stage's first branch; sum_b K_b^dagger K_b = I for every history; and the
    ordered product of the stages' first branches is proportional to
    ``target``.

    Batches run in order of their first stage, and after each batch the
    stages are checked in order as far as results reach, so the check stops
    at the first failing stage without running the batches after it.
    """
    stages, local_steps = _stages(pattern)
    groups: dict[tuple[int, int], list[int]] = {}  # in order of each batch's first stage
    for i, st in enumerate(stages):
        groups.setdefault((len(st.qubits), len(st.steps)), []).append(i)
    results = {}
    worst = 0.0
    product = np.eye(2**pattern.num_qubits, dtype=complex)
    i = 0  # the first stage not yet checked
    for members in groups.values():
        results.update(zip(members, _run_stages([stages[k] for k in members], local_steps)))
        while i in results:
            st = stages[i]
            ops, bits, errs, incomplete = results.pop(i)
            h = int(np.argmax(incomplete))
            if incomplete[h] > 1e-9:
                history = {p: h >> j & 1 for j, p in enumerate(st.pivots)}
                detail = (f"{st.label} are incomplete: sum of K^dagger K is {incomplete[h]:.3e} from I"
                          f" after earlier outcomes {history}")
                return VerifyReport(False, 1.0, (), "slotwise", detail)
            b = int(np.argmax(errs))
            worst = max(worst, float(errs[b]))
            if errs[b] > tol:
                history = {p: int(bits[p, b]) for p in st.pivots}
                detail = (f"{st.label} disagree after correction: outcomes {bits[list(st.steps), b].tolist()}"
                          f" after earlier outcomes {history}, error {errs[b]:.3e}")
                return VerifyReport(False, float(errs[b]), (), "slotwise", detail)
            product = apply_op(ops[0], product, st.qubits)
            i += 1
    unit = [m.reshape(-1) / np.linalg.norm(m) for m in (product, pattern.target)]
    err = float(phase_invariant_error(*unit))
    worst = max(worst, err)
    valid = worst <= tol
    detail = "" if valid else f"final corrections disagree with the target: error {err:.3e}"
    return VerifyReport(valid, worst, (), "slotwise", detail)
