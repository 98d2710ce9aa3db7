"""Parametrized states, rotations, two-qubit interactions and measurement Kraus pairs.

The canonical interaction is ``D = exp(-i(ax X@X + ay Y@Y + az Z@Z))`` with the
ancilla as the first (most significant) tensor factor.  An entangler dresses D
with single-qubit frames on both sides; measuring the ancilla of a dressed
interaction induces a pair of Kraus branches on the system qubit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    H,
    I2,
    PAULIS,
    S_GATE,
    PureState,
    dagger,
    is_unitary,
    proportionality,
    tensor,
)

TWO_PI = 2.0 * math.pi


def _reduce_angle(a: float) -> float:
    a = float(a) % TWO_PI
    return a + TWO_PI if a < 0 else a


@dataclass(frozen=True)
class AncillaSpec:
    """Prepared-ancilla parameters: the ancilla ket is ``|+_{gamma,delta}>``."""

    gamma: float
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "gamma", _reduce_angle(self.gamma))
        object.__setattr__(self, "delta", _reduce_angle(self.delta))

    def ket(self) -> PureState:
        return param_state("+", self.gamma, self.delta)


@dataclass(frozen=True)
class MeasBasis:
    """Ancilla measurement basis ``{|+_{theta,phi}>, |-_{theta,phi}>}``."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", _reduce_angle(self.theta))
        object.__setattr__(self, "phi", _reduce_angle(self.phi))

    def bra_states(self) -> tuple[PureState, PureState]:
        return (
            param_state("+", self.theta, self.phi),
            param_state("-", self.theta, self.phi),
        )


@dataclass(frozen=True)
class CartanParams:
    """Canonical interaction strengths, each within the Weyl-chamber bound
    [0, pi/4]; single-axis factors like (0, a, 0) are allowed so the
    interaction can be checked against products of its own factors."""

    alpha_x: float
    alpha_y: float = 0.0
    alpha_z: float = 0.0

    def __post_init__(self):
        for name in ("alpha_x", "alpha_y", "alpha_z"):
            a = getattr(self, name)
            if not (-1e-12 <= a <= math.pi / 4 + 1e-12):
                raise ValueError(f"{name}={a} outside the chamber bound [0, pi/4]")


@dataclass(frozen=True)
class LocalFrame:
    """Single-qubit dressings: pre-factors v_*, post-factors w_* (a=ancilla, s=system)."""

    v_s: np.ndarray = field(default_factory=lambda: I2.copy())
    v_a: np.ndarray = field(default_factory=lambda: I2.copy())
    w_s: np.ndarray = field(default_factory=lambda: I2.copy())
    w_a: np.ndarray = field(default_factory=lambda: I2.copy())

    def __post_init__(self):
        for name in ("v_s", "v_a", "w_s", "w_a"):
            m = np.asarray(getattr(self, name), dtype=complex)
            if m.shape != (2, 2) or not is_unitary(m):
                raise ValueError(f"frame factor {name} is not a 2x2 unitary")
            object.__setattr__(self, name, m)


@dataclass(frozen=True)
class Entangler:
    cartan: CartanParams
    frame: LocalFrame = field(default_factory=LocalFrame)
    label: str = "custom"


@dataclass(frozen=True)
class BranchForm:
    """Pauli split of one branch, valid when its I and X parts are phase-orthogonal."""

    f: float
    g: float
    n_parity: int


@dataclass(frozen=True)
class KrausPair:
    """Unnormalized system Kraus branches for the two ancilla outcomes."""

    k_plus: np.ndarray
    k_minus: np.ndarray
    p_plus: float
    p_minus: float
    branch_form: tuple[BranchForm | None, BranchForm | None] = (None, None)


def param_state(sign: str, theta: float, phi: float) -> PureState:
    """``|+_{theta,phi}>`` or ``|-_{theta,phi}>`` depending on sign."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    ph = complex(math.cos(phi), math.sin(phi))
    if sign == "+":
        vec = np.array([c, ph * s], dtype=complex)
    elif sign == "-":
        vec = np.array([s, -ph * c], dtype=complex)
    else:
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return PureState(1, vec)


def rotation(axis: str, theta: float) -> np.ndarray:
    """Rotation ``exp(-i theta P/2)`` about the X or Z axis."""
    axis = axis.lower()
    if axis not in ("x", "z"):
        raise ValueError(f"axis must be 'x' or 'z', got {axis!r}")
    p = PAULIS[axis.upper()]
    return math.cos(theta / 2) * I2 - 1j * math.sin(theta / 2) * p


def weyl_interaction(p: CartanParams) -> np.ndarray:
    """The canonical 4x4 interaction; its three terms commute, so it is the
    product of the three single-axis exponentials."""
    out = np.eye(4, dtype=complex)
    for a, pauli in ((p.alpha_x, "X"), (p.alpha_y, "Y"), (p.alpha_z, "Z")):
        pp = tensor(PAULIS[pauli], PAULIS[pauli])
        out = out @ (math.cos(a) * np.eye(4) - 1j * math.sin(a) * pp)
    return out


def assemble_entangler(e: Entangler) -> np.ndarray:
    """Dressed 4x4 unitary (w_a @ w_s) D (v_a @ v_s), ancilla as first factor."""
    f = e.frame
    return tensor(f.w_a, f.w_s) @ weyl_interaction(e.cartan) @ tensor(f.v_a, f.v_s)


_CZ_CARTAN = CartanParams(math.pi / 4, 0.0, 0.0)
_HHCZ_LOCAL = H @ rotation("z", -math.pi / 2)

_PRESETS: dict[str, Entangler] = {
    # bare canonical interaction, locally equivalent to CZ
    "CZ_CANON": Entangler(_CZ_CARTAN, LocalFrame(), "CZ_CANON"),
    # kernel X^s Rx(.): measurement-side ancilla dressing only
    "RX_CANON": Entangler(_CZ_CARTAN, LocalFrame(w_a=H), "RX_CANON"),
    # kernel Z^s Rz(.): Hadamard-conjugated on the system
    "RZ_CANON": Entangler(_CZ_CARTAN, LocalFrame(v_s=H, w_s=H), "RZ_CANON"),
    # kernel X^s Rx(.) H: the single-entangler workhorse
    "J_CANON": Entangler(_CZ_CARTAN, LocalFrame(v_s=H, w_a=H), "J_CANON"),
    # assembles to exactly (H x H) CZ
    "HHCZ": Entangler(
        _CZ_CARTAN,
        LocalFrame(v_s=_HHCZ_LOCAL, v_a=np.exp(-1j * math.pi / 4) * _HHCZ_LOCAL),
        "HHCZ",
    ),
    # assembles to exactly SWAP CZ
    "SWAPCZ": Entangler(
        CartanParams(math.pi / 4, math.pi / 4, 0.0),
        LocalFrame(w_s=S_GATE, w_a=S_GATE),
        "SWAPCZ",
    ),
}


def preset(label: str) -> Entangler:
    try:
        return _PRESETS[label]
    except KeyError:
        raise KeyError(f"unknown entangler preset {label!r}") from None


def preset_labels() -> tuple[str, ...]:
    return tuple(_PRESETS)


def _contract(entangler_matrix: np.ndarray, anc_ket: np.ndarray, meas_state: np.ndarray) -> np.ndarray:
    e4 = entangler_matrix.reshape(2, 2, 2, 2)  # (a_out, s_out, a_in, s_in)
    return np.einsum("a,aibj,b->ij", meas_state.conj(), e4, anc_ket)


def _branch_form(k: np.ndarray, tol: float = 1e-9) -> BranchForm | None:
    ci = np.trace(k) / 2
    cx = np.trace(PAULIS["X"] @ k) / 2
    if np.abs(k - ci * I2 - cx * PAULIS["X"]).max() > tol:
        return None
    f, g = abs(ci), abs(cx)
    if g < tol:
        return BranchForm(float(f), 0.0, 0)
    if f < tol:
        return BranchForm(0.0, float(g), 0)
    ratio = cx / ci
    if abs(ratio.real) > tol:  # I and X parts not phase-orthogonal
        return None
    return BranchForm(float(f), float(g), 0 if ratio.imag < 0 else 1)


def kraus_pair(e: Entangler, a: AncillaSpec, m: MeasBasis) -> KrausPair:
    """System Kraus branches of the fully assembled entangler, for the literal
    prepared ancilla ket and measurement basis.

    Branch probabilities are quoted for a maximally mixed system input.
    """
    em = assemble_entangler(e)
    anc = a.ket().amplitudes
    bp, bm = m.bra_states()
    kp = _contract(em, anc, bp.amplitudes)
    km = _contract(em, anc, bm.amplitudes)
    return KrausPair(
        kp,
        km,
        float(np.trace(dagger(kp) @ kp).real / 2),
        float(np.trace(dagger(km) @ km).real / 2),
        (_branch_form(kp), _branch_form(km)),
    )


@dataclass(frozen=True)
class BranchReport:
    unitary_plus: bool
    unitary_minus: bool
    one_step_correctable: bool
    correction: str | None = None
    scale: complex | None = None


def branch_analysis(k: KrausPair, tol: float = 1e-9) -> BranchReport:
    """Check unitary-proportionality of each branch and one-step correctability.

    The pair is one-step correctable when ``k_minus = c P k_plus`` for a Pauli P
    and scalar c; after applying P the two branches then act as the same gate,
    so a single outcome-conditioned Pauli correction makes the step
    deterministic (c is a unit phase exactly when the branches are balanced).
    """
    def unitary_prop(m):
        g = dagger(m) @ m
        lam = np.trace(g) / 2
        return abs(lam) > 1e-12 and np.abs(g - lam * I2).max() < tol

    up, um = unitary_prop(k.k_plus), unitary_prop(k.k_minus)
    correction, scale = None, None
    for name, p in PAULIS.items():
        fit = proportionality(k.k_minus, p @ k.k_plus, 1e-12)
        if fit is not None and abs(fit[0]) >= 1e-12 and fit[1] <= tol * max(1.0, abs(fit[0])):
            correction, scale = name, fit[0]
            break
    return BranchReport(up, um, correction is not None, correction, scale)
