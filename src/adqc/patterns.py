"""Gate-pattern builders: adaptive slots, the entangling slot, tiles, compilation.

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
from functools import reduce
from operator import xor

import numpy as np

from .core import AncillaSpec, rotation
from .linalg import (
    CZ,
    H,
    PAULIS,
    PureState,
    apply_op,
    apply_pauli_frame,
    dagger,
    embed,
    phase_invariant_error,
    proportionality,
    tensor,
)
from .register import (
    PAULI_NAMES,
    PAYLOAD_BIT,
    AdaptiveAngle,
    AdqcStep,
    GatePattern,
    QubitCorrection,
    SlotSpec,
    frame_bits,
    init_register,
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


def _pauli2(n1: str, n2: str) -> np.ndarray:
    return tensor(PAULIS[n1], PAULIS[n2])


def _pauli_bits(m: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Frame bits (x1, z1, x2, z2) of the Pauli pair P with
    m = phase * P @ base, |phase| = 1."""
    for i1, n1 in enumerate(PAULI_NAMES):
        for i2, n2 in enumerate(PAULI_NAMES):
            c, residual = proportionality(m, _pauli2(n1, n2) @ base)
            if abs(abs(c) - 1.0) < 1e-9 and residual < 1e-9:
                return np.array([i1 & 1, i1 >> 1, i2 & 1, i2 >> 1])
    raise RuntimeError("no Pauli factor relates the operators")


def _slot_branch(labels: tuple[str, str], r: int, s: int) -> np.ndarray:
    step = AdqcStep(
        targets=(0, 1),
        entangler_labels=labels,
        ancilla=AncillaSpec(CZ_SLOT_ANCILLA.gamma + r * math.pi, CZ_SLOT_ANCILLA.delta),
        basis_theta=AdaptiveAngle.constant(0.0),
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


CZ2_SPECS: dict[str, Cz2Spec] = {v: _build_cz2(v) for v in VARIANTS}


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
        if not (1 <= num_qubits <= 4):
            raise ValueError("patterns support 1 to 4 qubits")
        self.n = num_qubits
        self.variant = variant
        self.steps: list[AdqcStep] = []
        self.slots: list[SlotSpec] = []
        self.frames = [QubitCorrection()] * num_qubits
        self.target = np.eye(2**num_qubits, dtype=complex)
        self.boundary_corrections: list[tuple[QubitCorrection, ...]] = []

    # -- helpers ------------------------------------------------------------

    def _emit(self, step: AdqcStep) -> int:
        self.steps.append(step)
        return len(self.steps) - 1

    def _close_slot(self, gate: np.ndarray, slot: SlotSpec):
        """Embed the slot's gate in the target; record the slot and the frame
        at its boundary."""
        self.target = embed(gate, slot.qubits, self.n) @ self.target
        self.slots.append(slot)
        self.boundary_corrections.append(tuple(self.frames))

    def _one_qubit_slot(self, kind: str, q: int, theta_prime: float | None):
        """Emit a one-qubit slot, carrying the frame of ``q`` through each
        step's kernel: X^s Rx(.) H for J_CANON, X^s Rx(.) for RX_CANON and
        Z^s Rz(.) for RZ_CANON."""
        label, roles, gate = _ONE_QUBIT_SLOTS[kind]
        on_z = label == "RZ_CANON"
        indices: dict[str, int] = {}
        theta_fields = {}
        for role in roles:
            fr = self.frames[q]
            if label == "J_CANON":  # H swaps the frame's X and Z parts
                fr = QubitCorrection(fr.z_parity, fr.z_const, fr.x_parity, fr.x_const)
            angle = AdaptiveAngle.constant(0.0)
            if role == "theta":
                # the Z part negates an X rotation, the X part a Z rotation; the
                # payload's hidden angle is negated by every earlier outcome
                negate, const = (fr.x_parity, fr.x_const) if on_z else (fr.z_parity, fr.z_const)
                sign = -1.0 if const else 1.0
                angle = AdaptiveAngle(((sign * theta_prime, negate),))
                theta_fields = dict(
                    theta_negate=negate, theta_sign=int(sign), gamma_negate=frozenset(indices.values())
                )
            i = indices[role] = self._emit(AdqcStep((q,), (label,), AncillaSpec(0.0, 0.0), angle))
            if on_z:
                self.frames[q] = replace(fr, z_parity=fr.z_parity ^ {i})
            else:
                self.frames[q] = replace(fr, x_parity=fr.x_parity ^ {i})
        slot = SlotSpec(kind, (q,), theta_prime, tuple(indices.values()), indices, **theta_fields)
        self._close_slot(gate(theta_prime), slot)

    # -- slots ----------------------------------------------------------------

    def add_rotation(self, kind: str, q: int, theta_prime: float):
        if kind not in ("J", "RX", "RZ"):
            raise ValueError(f"not a rotation slot kind: {kind}")
        self._one_qubit_slot(kind, q, theta_prime)

    def add_assist(self, q: int):
        if self.variant != "single":
            raise ValueError("assistant slots belong to the single-entangler variant")
        self._one_qubit_slot("ASSIST", q, None)

    def add_cz(self, q1: int, q2: int):
        spec = CZ2_SPECS[self.variant]
        for q, kind, ang in spec.pre_fixups:
            self.add_rotation(kind, (q1, q2)[q], ang)
        i = self._emit(
            AdqcStep((q1, q2), spec.labels, CZ_SLOT_ANCILLA, AdaptiveAngle.constant(0.0))
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
        self._close_slot(spec.slot_target, SlotSpec("CZ2", (q1, q2), None, (i,), {"couple": i}))
        for q, kind, ang in spec.post_fixups:
            self.add_rotation(kind, (q1, q2)[q], ang)

    def finalize(self, target: np.ndarray | None = None) -> GatePattern:
        built = self.target
        if target is not None:
            # allow an exact stated target differing only by a global phase
            tr = np.trace(dagger(target) @ built)
            if abs(abs(tr) - built.shape[0]) > 1e-8:
                raise RuntimeError("built pattern does not realize the stated target")
            built = target
        return GatePattern(
            num_qubits=self.n,
            steps=tuple(self.steps),
            target=built,
            target_qubits=tuple(range(self.n)),
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


def standard_pattern(kind: str, theta_prime: float | None = None, variant: str = "single") -> GatePattern:
    """One named slot as a standalone pattern on one or two qubits."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if kind not in _SUPPORTED[variant]:
        raise ValueError(f"slot kind {kind!r} is not available in variant {variant!r}")
    if kind == "CZ":
        b = _PatternBuilder(2, variant)
        b.add_cz(0, 1)
        return b.finalize(CZ)
    if kind == "ASSIST":
        b = _PatternBuilder(1, variant)
        b.add_assist(0)
        return b.finalize()
    if theta_prime is None:
        raise ValueError(f"slot kind {kind!r} needs an angle")
    b = _PatternBuilder(1, variant)
    b.add_rotation(kind, 0, float(theta_prime))
    return b.finalize()


def universal_tile(rows: int, cols: int, layout, variant: str = "single") -> GatePattern:
    """Tile of alternating one-qubit and entangling columns.

    ``layout`` holds one entry per column: the string ``"cz"`` for an
    entangling column on qubits (0, 1), or a per-row list of one-qubit slot
    specs.  A spec is an angle (J slot in the single variant, Rz slot in the
    two variant), a ``(kind, angle)`` pair, or ``("u", a, b, c)`` for a full
    Euler unit realizing Rz(c) Rx(b) Rz(a).
    """
    if rows > 4:
        raise ValueError("tiles support at most 4 rows")
    if len(layout) != cols:
        raise ValueError("layout must list one entry per column")
    b = _PatternBuilder(rows, variant)
    for entry in layout:
        if isinstance(entry, str) and entry.lower() == "cz":
            if rows < 2:
                raise ValueError("entangling column needs at least two rows")
            b.add_cz(0, 1)
            continue
        if len(entry) != rows:
            raise ValueError("one slot spec per row required")
        for q, spec in enumerate(entry):
            if spec is None:
                continue
            if isinstance(spec, (int, float)):
                kind = "J" if variant == "single" else "RZ"
                b.add_rotation(kind, q, float(spec))
            elif spec[0] == "u":
                _add_unit(b, q, np.asarray(spec[1:], dtype=float))
            else:
                b.add_rotation(spec[0].upper(), q, float(spec[1]))
    return b.finalize()


def _add_unit(b: _PatternBuilder, q: int, zxz: np.ndarray):
    """One full single-qubit unit realizing Rz(c) Rx(b) Rz(a)."""
    a, bb, c = (float(v) for v in zxz)
    if b.variant == "single":
        for ang in (a, bb, c):
            b.add_rotation("J", q, ang)
        b.add_assist(q)
    else:
        b.add_rotation("RZ", q, a)
        b.add_rotation("RX", q, bb)
        b.add_rotation("RZ", q, c)


def euler_zxz(u) -> tuple[float, float, float]:
    """Angles (a, b, c) with u proportional to Rz(c) Rx(b) Rz(a)."""
    u = np.asarray(u, dtype=complex)
    det = np.linalg.det(u)
    v = u * det ** (-0.5)
    b = 2.0 * math.atan2(abs(v[0, 1]), abs(v[0, 0]))
    apc = -2.0 * np.angle(v[0, 0]) if abs(v[0, 0]) > 1e-9 else 0.0
    amc = 2.0 * (np.angle(v[0, 1]) + math.pi / 2) if abs(v[0, 1]) > 1e-9 else 0.0
    a = (apc + amc) / 2.0
    c = (apc - amc) / 2.0
    chk = rotation("z", c) @ rotation("x", b) @ rotation("z", a)
    tr = np.trace(dagger(chk) @ v)
    if abs(abs(tr) - 2.0) > 1e-7:
        raise RuntimeError("Euler decomposition failed to reassemble")
    return a, b, c


# ---------------------------------------------------------------------------
# circuits
# ---------------------------------------------------------------------------

_GATE_KINDS = ("H", "Rx", "Rz", "CZ")


def _is_index(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 0


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
        if self.kind not in ("Rx", "Rz"):
            if self.angle is not None:
                raise ValueError(f"{self.kind} takes no angle")
            return
        if self.angle is None:
            raise ValueError(f"{self.kind} needs an angle")
        if isinstance(self.angle, bool) or not isinstance(self.angle, (int, float)):
            raise ValueError(f"{self.kind} angle must be a real number")
        if not math.isfinite(self.angle):
            raise ValueError(f"{self.kind} angle must be finite, got {self.angle}")

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
        if not _is_index(self.num_qubits) or not 1 <= self.num_qubits <= 4:
            raise ValueError("circuits support 1 to 4 qubits")
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
        doc = json.loads(text)
        if not isinstance(doc, dict) or doc.get("v") != 1:
            raise ValueError("unsupported circuit schema version")
        try:
            gates = tuple(
                CircuitGate(g["kind"], tuple(g["targets"]), g.get("angle")) for g in doc["gates"]
            )
            return cls(doc["qubits"], gates)
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
    the compiled step sequence reveals only the gate-count profile; grid-angle
    circuits compile to grid-angle slots.  ``pad_layers`` appends identity
    unit layers on every qubit.
    """
    n = circuit.num_qubits
    b = _PatternBuilder(n, variant)
    emitted = 0
    for g in circuit.gates:
        if g.kind == "CZ":
            b.add_cz(*g.targets)
        else:
            angles = _UNIT_FILLING[g.kind](g.angle)
            _add_unit(b, g.targets[0], np.asarray(angles, dtype=float))
        emitted += 1
    if emitted == 0:
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


def _spanning_inputs(n: int) -> list[PureState]:
    states = [
        PureState(n, np.eye(2**n, dtype=complex)[k]) for k in range(2**n)
    ]
    plus = np.ones(2**n, dtype=complex)
    states.append(PureState(n, plus))
    ys = np.array([1.0], dtype=complex)
    for _ in range(n):
        ys = np.kron(ys, np.array([1.0, 1j], dtype=complex))
    states.append(PureState(n, ys))
    return states


def verify_pattern(pattern: GatePattern, tol: float = 1e-9) -> VerifyReport:
    """Check the pattern-validity contract: every corrected outcome branch
    realizes ``target`` up to a global phase, and the branches are complete.

    A pattern of more than one slot is checked slot by slot at the operator
    level (``_verify_slotwise``): each slot's branch operators on its own
    qubits, from one Choi input, under every history of earlier outcomes it
    reads.  A failed report's ``detail`` names the slot, its outcome bits and
    the earlier outcomes where it failed.  A pattern of at most one slot is
    enumerated flat on a spanning input set (a slotless one only up to
    ``MAX_FLAT_STEPS`` steps), and its ``detail`` names the outcome bits and
    the input index.
    """
    if len(pattern.slots) > 1:
        return _verify_slotwise(pattern, tol)
    if not pattern.slots and len(pattern.steps) > MAX_FLAT_STEPS:
        raise ValueError("pattern too long for flat enumeration and has no slots")
    n = pattern.num_qubits
    inputs = _spanning_inputs(n)
    worst, where = 0.0, ""
    probs: tuple[float, ...] = ()
    for idx, inp in enumerate(inputs):
        res = run_pattern(init_register(n, inp), pattern, mode="enumerate")
        total = res.total_probability()
        if abs(total - 1.0) > 1e-10:
            return VerifyReport(False, 1.0, probs, "flat", "probabilities do not sum to 1")
        errs = phase_invariant_error(
            np.array([br.corrected.amplitudes for br in res.branches]), pattern.target @ inp.amplitudes
        )
        b = int(np.argmax(errs))
        if errs[b] > worst:
            worst, where = float(errs[b]), f"branch outcomes {res.branches[b].outcomes} on input {idx}"
        if idx == 0:
            probs = tuple(br.probability for br in res.branches)
        del res  # free this input's branches before the next run
    valid = worst <= tol
    return VerifyReport(valid, worst, probs, "flat", "" if valid else f"{where}: error {worst:.3e}")


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
        sets += [negate for i in steps for _, negate in pattern.steps[i].basis_theta.terms]
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
    x = np.empty((m, offsets[-1]), dtype=np.int8)
    z = np.empty_like(x)
    for st, lo, hi in zip(stages, offsets, offsets[1:]):
        bits[list(st.pivots), lo:hi] = np.arange(hi - lo) >> np.arange(len(st.pivots))[:, None] & 1
        plan[:, lo:hi] = np.array(st.steps, dtype=int)[:, None]
        x[:, lo:hi], z[:, lo:hi] = frame_bits(st.frame_in, bits[:, lo:hi])
    choi = np.broadcast_to(np.eye(dim, dtype=complex) / math.sqrt(dim), (offsets[-1], dim, dim))
    states, probs, bits, origin = walk_steps(local_steps, apply_pauli_frame(choi, x, z), bits, plan)
    bounds = np.searchsorted(origin, offsets)  # branches stay in start-row order
    x = np.empty((m, len(states)), dtype=np.int8)
    z = np.empty_like(x)
    for st, lo, hi in zip(stages, bounds, bounds[1:]):
        x[:, lo:hi], z[:, lo:hi] = frame_bits(st.frame_out, bits[:, lo:hi])
    ops = apply_pauli_frame(states, x, z)
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
    """
    stages, local_steps = _stages(pattern)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, st in enumerate(stages):
        groups.setdefault((len(st.qubits), len(st.steps)), []).append(i)
    results = {}
    for members in groups.values():
        results.update(zip(members, _run_stages([stages[i] for i in members], local_steps)))
    worst = 0.0
    product = np.eye(2**pattern.num_qubits, dtype=complex)
    for i, st in enumerate(stages):
        ops, bits, errs, incomplete = results[i]
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
    unit = [m.reshape(-1) / np.linalg.norm(m) for m in (product, pattern.target)]
    err = float(phase_invariant_error(*unit))
    worst = max(worst, err)
    valid = worst <= tol
    detail = "" if valid else f"final corrections disagree with the target: error {err:.3e}"
    return VerifyReport(valid, worst, (), "slotwise", detail)
