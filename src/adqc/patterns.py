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
    """Check the pattern-validity contract by branch enumeration.

    Every corrected branch must reproduce ``target @ input`` up to a global
    phase on a spanning input set, and branch probabilities must sum to one.
    A pattern of more than one slot is verified slot by slot
    (``_verify_slotwise``); one of at most one slot is enumerated flat, which
    runs the same branches, and a slotless one only up to ``MAX_FLAT_STEPS``
    steps.  A failed report's ``detail`` names the slot, outcome bits and
    input index where it failed.
    """
    n = pattern.num_qubits
    inputs = _spanning_inputs(n)
    if len(pattern.slots) > 1:
        return _verify_slotwise(pattern, inputs, tol)
    if not pattern.slots and len(pattern.steps) > MAX_FLAT_STEPS:
        raise ValueError("pattern too long for flat enumeration and has no slots")
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


def _verify_slotwise(pattern: GatePattern, inputs, tol: float) -> VerifyReport:
    """Walk the slots, carrying one corrected state per input.

    Earlier outcomes reach a slot only through the parities of its incoming
    and outgoing frames and its angle terms.  Each slot runs in one batch
    over every input and every history of earlier outcomes on the pivot bits
    of those parities, each started from the carried state under its incoming
    frame; after the outgoing frame every branch must match its input's first
    branch, which is carried on.  The final corrections close the walk as an
    empty last slot, and the carried states must equal ``target @ input``.
    """
    n, k = pattern.num_qubits, len(pattern.steps)
    carried = np.array([inp.amplitudes for inp in inputs])
    expected = carried @ pattern.target.T
    frames_in = ((QubitCorrection(),) * n,) + pattern.slot_boundaries
    stages = list(zip(pattern.slots, pattern.slot_boundaries)) + [(None, pattern.corrections)]
    worst, where = 0.0, ""
    for slot_idx, ((slot, f_out), f_in) in enumerate(zip(stages, frames_in)):
        steps = list(slot.step_indices) if slot else []
        label = f"slot {slot_idx} branches" if slot else "final corrections"
        sets = [s for c in f_in + f_out for s in (c.x_parity, c.z_parity)]
        sets += [negate for i in steps for _, negate in pattern.steps[i].basis_theta.terms]
        pivots = _pivot_bits(sets, set(steps))
        n_hist = 2 ** len(pivots)
        bits = np.zeros((k, len(carried) * n_hist), dtype=np.int8)
        bits[pivots] = np.tile(np.arange(n_hist) >> np.arange(len(pivots))[:, None] & 1, len(carried))
        starts = apply_pauli_frame(np.repeat(carried, n_hist, axis=0), *frame_bits(f_in, bits))
        states, probs, bits, origin = walk_steps(pattern, starts, bits, steps)
        totals = np.bincount(origin, probs, len(starts))
        row = int(np.argmax(np.abs(totals - 1.0)))
        if abs(totals[row] - 1.0) > 1e-9:
            detail = f"{label} probabilities sum to {totals[row]} on input {row // n_hist}"
            return VerifyReport(False, 1.0, (), "slotwise", detail)
        corrected = apply_pauli_frame(states, *frame_bits(f_out, bits))
        carried = corrected[np.searchsorted(origin, np.arange(len(carried)) * n_hist)]
        errs = phase_invariant_error(corrected, carried[origin // n_hist])
        b = int(np.argmax(errs))
        if errs[b] > worst:
            history = {i: int(bits[i, b]) for i in sorted(pivots)}
            worst, where = float(errs[b]), (
                f"{label} disagree after correction: outcomes {bits[steps, b].tolist()}"
                f" after earlier outcomes {history} on input {origin[b] // n_hist}"
            )
        if worst > tol:
            return VerifyReport(False, worst, (), "slotwise", f"{where}, error {worst:.3e}")
    errs = phase_invariant_error(carried, expected / np.linalg.norm(expected, axis=1)[:, None])
    b = int(np.argmax(errs))
    if errs[b] > worst:
        worst, where = float(errs[b]), f"final frame on input {b}"
    valid = worst <= tol
    return VerifyReport(valid, worst, (), "slotwise", "" if valid else f"{where}: error {worst:.3e}")
