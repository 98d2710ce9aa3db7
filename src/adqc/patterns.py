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
from dataclasses import dataclass

import numpy as np

from .core import AncillaSpec, rotation
from .linalg import CZ, H, PAULIS, PureState, apply_pauli_frame, dagger, embed, tensor
from .register import (
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

_XZ_OF = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


# ---------------------------------------------------------------------------
# frozen two-target slot data
# ---------------------------------------------------------------------------

CZ_SLOT_ANCILLA = AncillaSpec(math.pi / 2, math.pi / 2)


def _pauli2(n1: str, n2: str) -> np.ndarray:
    return tensor(PAULIS[n1], PAULIS[n2])


def _pauli_factor(m: np.ndarray, base: np.ndarray) -> tuple[str, str]:
    """Names (P1, P2) with m = phase * (P1 x P2) @ base, |phase| = 1."""
    for n1 in "IXYZ":
        for n2 in "IXYZ":
            cand = _pauli2(n1, n2) @ base
            idx = np.unravel_index(np.argmax(np.abs(cand)), cand.shape)
            c = m[idx] / cand[idx]
            if abs(abs(c) - 1.0) < 1e-9 and np.abs(m - c * cand).max() < 1e-9:
                return n1, n2
    raise RuntimeError("no Pauli factor relates the operators")


def _conjugation_matrix(t: np.ndarray) -> np.ndarray:
    """Binary 4x4 matrix of the frame conjugation (x1,z1,x2,z2) -> t P t^dag."""
    cols = []
    for gen in ("XI", "ZI", "IX", "IZ"):
        m = t @ _pauli2(*gen) @ dagger(t)
        n1, n2 = _pauli_factor(m, np.eye(4, dtype=complex))
        x1, z1 = _XZ_OF[n1]
        x2, z2 = _XZ_OF[n2]
        cols.append((x1, z1, x2, z2))
    return np.array(cols, dtype=int).T % 2


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
    corrections: dict[tuple[int, int], tuple[str, str]]  # (r, s) -> Pauli pair
    conj: np.ndarray
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
    corr = {
        (r, s): _pauli_factor(_slot_branch(labels, r, s), target)
        for r in (0, 1)
        for s in (0, 1)
    }
    return Cz2Spec(labels, target, corr, _conjugation_matrix(target), pre, post)


CZ2_SPECS: dict[str, Cz2Spec] = {v: _build_cz2(v) for v in VARIANTS}


def cz_payload_extra_frame(variant: str) -> tuple[tuple[int, int], tuple[int, int]]:
    """Frame bits ((x1,z1),(x2,z2)) a flipped two-target payload adds, same for
    both outcomes."""
    spec = CZ2_SPECS[variant]
    extras = []
    for s in (0, 1):
        p0 = spec.corrections[(0, s)]
        p1 = spec.corrections[(1, s)]
        bits = []
        for a, b in zip(p0, p1):
            xa, za = _XZ_OF[a]
            xb, zb = _XZ_OF[b]
            bits.append((xa ^ xb, za ^ zb))
        extras.append(tuple(bits))
    if extras[0] != extras[1]:
        raise RuntimeError("payload-flip frame depends on the outcome")
    return extras[0]


# ---------------------------------------------------------------------------
# pattern builder with frame threading
# ---------------------------------------------------------------------------


@dataclass
class _Frame:
    x_set: frozenset[int] = frozenset()
    x_const: int = 0
    z_set: frozenset[int] = frozenset()
    z_const: int = 0


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
        self.frames = [_Frame() for _ in range(num_qubits)]
        self.target = np.eye(2**num_qubits, dtype=complex)
        self.boundary_corrections: list[tuple[QubitCorrection, ...]] = []

    # -- helpers ------------------------------------------------------------

    def _emit(self, step: AdqcStep) -> int:
        self.steps.append(step)
        return len(self.steps) - 1

    def _mark_slot(self, slot: SlotSpec):
        self.slots.append(slot)
        self.boundary_corrections.append(self._corrections())

    def _corrections(self) -> tuple[QubitCorrection, ...]:
        return tuple(
            QubitCorrection(f.x_set, f.x_const, f.z_set, f.z_const)
            for f in self.frames
        )

    def _rotation_label(self, kind: str) -> str:
        return {"J": "J_CANON", "RX": "RX_CANON", "RZ": "RZ_CANON"}[kind]

    # -- slots ----------------------------------------------------------------

    def add_rotation(self, kind: str, q: int, theta_prime: float):
        lab = self._rotation_label(kind)
        fr = self.frames[q]
        anc0 = AncillaSpec(0.0, 0.0)
        zero = AdaptiveAngle.constant(0.0)
        if kind == "J":
            i1 = self._emit(AdqcStep((q,), (lab,), anc0, zero))
            i2 = self._emit(AdqcStep((q,), (lab,), anc0, zero))
            negate = frozenset({i2}) ^ fr.x_set
            sign = -1.0 if fr.x_const else 1.0
            i3 = self._emit(
                AdqcStep(
                    (q,),
                    (lab,),
                    anc0,
                    AdaptiveAngle(((sign * theta_prime, negate),)),
                )
            )
            gate = H @ rotation("z", theta_prime)
            roles = {"gamma": i1, "assist": i2, "theta": i3}
            new = _Frame(
                x_set=fr.z_set ^ frozenset({i1, i3}),
                x_const=fr.z_const,
                z_set=fr.x_set ^ frozenset({i2}),
                z_const=fr.x_const,
            )
            idxs = (i1, i2, i3)
            gneg = frozenset({i1, i2})
        elif kind == "RX":
            i1 = self._emit(AdqcStep((q,), (lab,), anc0, zero))
            negate = fr.z_set
            sign = -1.0 if fr.z_const else 1.0
            i2 = self._emit(
                AdqcStep(
                    (q,), (lab,), anc0, AdaptiveAngle(((sign * theta_prime, negate),))
                )
            )
            gate = rotation("x", theta_prime)
            roles = {"gamma": i1, "theta": i2}
            new = _Frame(
                x_set=fr.x_set ^ frozenset({i1, i2}),
                x_const=fr.x_const,
                z_set=fr.z_set,
                z_const=fr.z_const,
            )
            idxs = (i1, i2)
            gneg = frozenset({i1})
        elif kind == "RZ":
            i1 = self._emit(AdqcStep((q,), (lab,), anc0, zero))
            negate = fr.x_set
            sign = -1.0 if fr.x_const else 1.0
            i2 = self._emit(
                AdqcStep(
                    (q,), (lab,), anc0, AdaptiveAngle(((sign * theta_prime, negate),))
                )
            )
            gate = rotation("z", theta_prime)
            roles = {"gamma": i1, "theta": i2}
            new = _Frame(
                x_set=fr.x_set,
                x_const=fr.x_const,
                z_set=fr.z_set ^ frozenset({i1, i2}),
                z_const=fr.z_const,
            )
            idxs = (i1, i2)
            gneg = frozenset({i1})
        else:
            raise ValueError(f"not a rotation slot kind: {kind}")
        self.frames[q] = new
        self.target = embed(gate, (q,), self.n) @ self.target
        self._mark_slot(
            SlotSpec(
                kind,
                (q,),
                theta_prime,
                idxs,
                roles,
                theta_negate=negate,
                theta_sign=int(sign),
                gamma_negate=gneg,
                labels=(lab,),
            )
        )

    def add_assist(self, q: int):
        if self.variant != "single":
            raise ValueError("assistant slots belong to the single-entangler variant")
        lab = "J_CANON"
        fr = self.frames[q]
        i1 = self._emit(
            AdqcStep((q,), (lab,), AncillaSpec(0.0, 0.0), AdaptiveAngle.constant(0.0))
        )
        self.frames[q] = _Frame(
            x_set=fr.z_set ^ frozenset({i1}),
            x_const=fr.z_const,
            z_set=fr.x_set,
            z_const=fr.x_const,
        )
        self.target = embed(H, (q,), self.n) @ self.target
        self._mark_slot(
            SlotSpec("ASSIST", (q,), None, (i1,), {"assist": i1}, labels=(lab,))
        )

    def add_cz(self, q1: int, q2: int):
        spec = CZ2_SPECS[self.variant]
        for q, kind, ang in spec.pre_fixups:
            self.add_rotation(kind, (q1, q2)[q], ang)
        i = self._emit(
            AdqcStep(
                (q1, q2),
                spec.labels,
                CZ_SLOT_ANCILLA,
                AdaptiveAngle.constant(0.0),
            )
        )
        # conjugate incoming frames through the slot target, then add the
        # outcome-dependent byproduct
        f1, f2 = self.frames[q1], self.frames[q2]
        in_sets = [f1.x_set, f1.z_set, f2.x_set, f2.z_set]
        in_consts = [f1.x_const, f1.z_const, f2.x_const, f2.z_const]
        m = spec.conj
        out_sets, out_consts = [], []
        for row in range(4):
            sset: frozenset[int] = frozenset()
            cbit = 0
            for col in range(4):
                if m[row, col]:
                    sset ^= in_sets[col]
                    cbit ^= in_consts[col]
            out_sets.append(sset)
            out_consts.append(cbit)
        p0 = spec.corrections[(0, 0)]
        p1 = spec.corrections[(0, 1)]
        for qi, (a, b) in enumerate(zip(p0, p1)):
            xa, za = _XZ_OF[a]
            xb, zb = _XZ_OF[b]
            base = 2 * qi
            out_consts[base] ^= xa
            out_consts[base + 1] ^= za
            if xa ^ xb:
                out_sets[base] = out_sets[base] ^ frozenset({i})
            if za ^ zb:
                out_sets[base + 1] = out_sets[base + 1] ^ frozenset({i})
        # a flipped payload multiplies the step unitary by a fixed Pauli pair,
        # tracked through the same sets via the step's payload bit
        extra = cz_payload_extra_frame(self.variant)
        for qi, (ex, ez) in enumerate(extra):
            base = 2 * qi
            if ex:
                out_sets[base] = out_sets[base] ^ frozenset({i + PAYLOAD_BIT})
            if ez:
                out_sets[base + 1] = out_sets[base + 1] ^ frozenset({i + PAYLOAD_BIT})
        self.frames[q1] = _Frame(out_sets[0], out_consts[0], out_sets[1], out_consts[1])
        self.frames[q2] = _Frame(out_sets[2], out_consts[2], out_sets[3], out_consts[3])
        self.target = embed(spec.slot_target, (q1, q2), self.n) @ self.target
        self._mark_slot(
            SlotSpec("CZ2", (q1, q2), None, (i,), {"couple": i}, labels=spec.labels)
        )
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
            corrections=self._corrections(),
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
        if self.kind in ("Rx", "Rz") and self.angle is None:
            raise ValueError(f"{self.kind} needs an angle")
        if isinstance(self.angle, bool) or not isinstance(self.angle, (int, float, type(None))):
            raise ValueError(f"{self.kind} angle must be a real number")

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


def _phase_invariant_error(a: np.ndarray, b: np.ndarray):
    """min over the global phase c of ||a - c b||, for each row of ``a``."""
    ov = np.asarray(a @ b.conj())
    mag = np.abs(ov)
    phase = np.divide(ov, mag, out=np.ones_like(ov), where=mag > 1e-14)
    return np.linalg.norm(a - phase[..., None] * b, axis=-1)


def verify_pattern(pattern: GatePattern, tol: float = 1e-9, max_flat_steps: int = 13) -> VerifyReport:
    """Check the pattern-validity contract by branch enumeration.

    Every corrected branch must reproduce ``target @ input`` up to a global
    phase on a spanning input set, and branch probabilities must sum to one.
    Short patterns are enumerated flat; longer ones are verified slot by slot:
    within each slot all outcome combinations are expanded and shown to agree
    after relative frame correction before collapsing to the zero-outcome
    branch, which carries the induction forward.  A failed report's
    ``detail`` names the slot, outcome bits and input index where it failed.
    """
    n = pattern.num_qubits
    if n > 3:
        raise ValueError("verify_pattern supports patterns on up to 3 qubits")
    worst, where = 0.0, ""
    probs: tuple[float, ...] = ()
    use_flat = len(pattern.steps) <= max_flat_steps
    mode = "flat" if use_flat else "slotwise"
    if not use_flat and not pattern.slots:
        raise ValueError("pattern too long for flat enumeration and has no slots")

    for idx, inp in enumerate(_spanning_inputs(n)):
        expected = pattern.target @ inp.amplitudes
        if use_flat:
            res = run_pattern(init_register(n, inp), pattern, mode="enumerate")
            total = res.total_probability()
            if abs(total - 1.0) > 1e-10:
                return VerifyReport(False, 1.0, probs, mode, "probabilities do not sum to 1")
            errs = _phase_invariant_error(
                np.array([br.corrected.amplitudes for br in res.branches]), expected
            )
            b = int(np.argmax(errs))
            err = float(errs[b])
            at = f"branch outcomes {res.branches[b].outcomes} on input {idx}"
            if idx == 0:
                probs = tuple(br.probability for br in res.branches)
            del res  # free this input's branches before the next run
        else:
            err, perr = _verify_slotwise(pattern, inp, expected, tol, idx)
            if perr:
                return VerifyReport(False, 1.0, probs, mode, perr)
            at = f"final frame on input {idx}"
        if err > worst:
            worst, where = err, at
    valid = worst <= tol
    return VerifyReport(valid, worst, probs, mode, "" if valid else f"{where}: error {worst:.3e}")


def _verify_slotwise(pattern, inp, expected, tol, input_index):
    """Walk the zero-outcome branch, showing at each slot that every outcome
    combination agrees with it after relative frame correction."""
    zeros = np.zeros((len(pattern.steps), 1), dtype=np.int8)
    state = inp.amplitudes
    for slot_idx, (slot, corr) in enumerate(zip(pattern.slots, pattern.slot_boundaries)):
        states, probs, bits = walk_steps(pattern, state[None], zeros, slot.step_indices)
        total = probs.sum()
        if abs(total - 1.0) > 1e-9:
            return 1.0, f"slot {slot_idx} probabilities sum to {total}"
        # frame of each combination relative to the zero-outcome branch, which
        # comes first when it survives pruning; every corrected row equals it
        x, z = frame_bits(corr, bits)
        x0, z0 = frame_bits(corr, zeros)
        rel = apply_pauli_frame(states, x ^ x0, z ^ z0)
        errs = _phase_invariant_error(rel, rel[0])
        b = int(np.argmax(errs))
        if errs[b] > max(tol, 1e-9):
            outs = bits[list(slot.step_indices), b].tolist()
            return 1.0, (
                f"slot {slot_idx} branches disagree after correction: outcomes {outs}"
                f" on input {input_index}, error {errs[b]:.3e}"
            )
        state = rel[0]
    # the remaining representative is the zero-outcome branch; apply its frame
    final = apply_pauli_frame(state[None], *frame_bits(pattern.corrections, zeros))[0]
    return float(_phase_invariant_error(final, expected / np.linalg.norm(expected))), ""
