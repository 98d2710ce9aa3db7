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
    PAULI_NAMES,
    PAULIS,
    S_GATE,
    TWO_PI,
    X,
    Y,
    Z,
    PureState,
    fit_scale,
    is_unitary,
)

XX, YY, ZZ = (np.kron(p, p) for p in (X, Y, Z))
# Each Pauli, in PAULI_NAMES order, as a signed row permutation: row i of P k
# is _PAULI_SIGNS[p, i] * k[_PAULI_ROWS[p, i]].
_PAULI_STACK = np.stack([PAULIS[name] for name in PAULI_NAMES])
_PAULI_ROWS = np.abs(_PAULI_STACK).argmax(axis=-1)
_PAULI_SIGNS = np.take_along_axis(_PAULI_STACK, _PAULI_ROWS[..., None], axis=-1)
# The unnormalised Bell states Phi+, Phi-, Psi+, Psi- as columns.  They
# diagonalise XX, YY and ZZ together; row k of _BELL_SIGNS holds the
# eigenvalues of (XX, YY, ZZ) on column k.
_BELL = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, -1], [1, -1, 0, 0]], dtype=complex)
_BELL_SIGNS = np.stack([np.diag(_BELL.T @ pp @ _BELL).real / 2 for pp in (XX, YY, ZZ)], axis=1)


def _bell_projectors(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """w |b_k><b_k| v for each normalised Bell state b_k, flattened to (4, 16)."""
    return np.einsum("ik,kj->kij", w @ _BELL, _BELL.T @ v).reshape(4, 16) / 2


_BARE_PROJECTORS = _bell_projectors(np.eye(4), np.eye(4))


def _reduce_angle(a):
    """``a`` modulo 2 pi in [0, 2 pi), a float or elementwise over an array:
    ``%`` rounds a tiny negative ``a`` up to 2 pi, which becomes 0."""
    a = np.remainder(a, TWO_PI)
    a = np.where(a == TWO_PI, 0.0, a)
    return a if a.ndim else float(a)


@dataclass(frozen=True)
class AncillaSpec:
    """Prepared-ancilla parameters: the ancilla ket is ``|+_{gamma,delta}>``."""

    gamma: float
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "gamma", _reduce_angle(self.gamma))
        object.__setattr__(self, "delta", _reduce_angle(self.delta))


@dataclass(frozen=True)
class MeasBasis:
    """Ancilla measurement basis ``{|+_{theta,phi}>, |-_{theta,phi}>}``."""

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "theta", _reduce_angle(self.theta))
        object.__setattr__(self, "phi", _reduce_angle(self.phi))


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


@dataclass(frozen=True, eq=False)
class LocalFrame:
    """Single-qubit dressings: pre-factors v_*, post-factors w_* (a=ancilla, s=system).

    ``bell_projectors`` is derived: the Bell projectors dressed by the frame,
    kron(w_a, w_s) |b_k><b_k| kron(v_a, v_s), flattened to one row per Bell
    state.  Frames compare and hash by identity, since their fields are
    arrays.
    """

    v_s: np.ndarray = field(default_factory=lambda: I2.copy())
    v_a: np.ndarray = field(default_factory=lambda: I2.copy())
    w_s: np.ndarray = field(default_factory=lambda: I2.copy())
    w_a: np.ndarray = field(default_factory=lambda: I2.copy())
    bell_projectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("v_s", "v_a", "w_s", "w_a"):
            m = np.asarray(getattr(self, name), dtype=complex)
            if m.shape != (2, 2) or not is_unitary(m):
                raise ValueError(f"frame factor {name} is not a 2x2 unitary")
            object.__setattr__(self, name, m)
        w, v = np.kron(self.w_a, self.w_s), np.kron(self.v_a, self.v_s)
        object.__setattr__(self, "bell_projectors", _bell_projectors(w, v))


@dataclass(frozen=True)
class Entangler:
    cartan: CartanParams
    frame: LocalFrame = field(default_factory=LocalFrame)
    label: str = "custom"


@dataclass(frozen=True)
class KrausPair:
    """Unnormalized system Kraus branches for the two ancilla outcomes."""

    k_plus: np.ndarray
    k_minus: np.ndarray
    p_plus: float
    p_minus: float


def param_kets(sign: str, theta, phi) -> np.ndarray:
    """Amplitudes of ``|+_{theta,phi}>`` or ``|-_{theta,phi}>``, shape (..., 2)
    for scalar or equal-shape array angles: one row of ``basis_kets``."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    return basis_kets(theta, phi)[..., "+-".index(sign), :]


def basis_kets(theta, phi) -> np.ndarray:
    """The ``|+_{theta,phi}>`` and ``|-_{theta,phi}>`` amplitudes as rows,
    shape (..., 2, 2): row t is measurement outcome t."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    c, s, ph = np.cos(theta / 2), np.sin(theta / 2), np.cos(phi) + 1j * np.sin(phi)
    ps = ph * s
    kets = np.empty(ps.shape + (2, 2), dtype=complex)
    kets[..., 0, 0], kets[..., 0, 1], kets[..., 1, 0], kets[..., 1, 1] = c, ps, s, -ph * c
    return kets


def param_state(sign: str, theta: float, phi: float) -> PureState:
    """``|+_{theta,phi}>`` or ``|-_{theta,phi}>`` depending on sign."""
    return PureState(1, param_kets(sign, theta, phi))


def rotation(axis: str, theta: float) -> np.ndarray:
    """Rotation ``exp(-i theta P/2)`` about the X or Z axis."""
    axis = axis.lower()
    if axis not in ("x", "z"):
        raise ValueError(f"axis must be 'x' or 'z', got {axis!r}")
    p = PAULIS[axis.upper()]
    return math.cos(theta / 2) * I2 - 1j * math.sin(theta / 2) * p


def _strengths(p) -> np.ndarray:
    if isinstance(p, CartanParams):
        p = (p.alpha_x, p.alpha_y, p.alpha_z)
    return np.asarray(p, dtype=float)


def _bell_sum(strengths: np.ndarray, projectors: np.ndarray) -> np.ndarray:
    """sum_k exp(-i a . s_k) projectors[k] for each row a of the strengths."""
    phases = np.exp(-1j * (strengths @ _BELL_SIGNS.T))
    return (phases @ projectors).reshape(strengths.shape[:-1] + (4, 4))


def weyl_interaction(p) -> np.ndarray:
    """The canonical 4x4 interaction of a CartanParams, or one per row of an
    (..., 3) array of (alpha_x, alpha_y, alpha_z) strengths, shape (..., 4, 4).
    Its three terms are diagonal together in the Bell basis, so it is
    sum_k exp(-i a . s_k) |b_k><b_k| with s_k the (XX, YY, ZZ) eigenvalues of
    Bell state b_k."""
    return _bell_sum(_strengths(p), _BARE_PROJECTORS)


def assemble_entangler(e: Entangler, strengths=None) -> np.ndarray:
    """Dressed 4x4 unitary (w_a @ w_s) D (v_a @ v_s), ancilla as first factor:
    the phases of D on the four Bell states times the frame's dressed Bell
    projectors, one (..., 4) @ (4, 16) product.

    ``strengths``, an (..., 3) array, replaces ``e.cartan``: the result is one
    entangler per row, each dressed with the frame of ``e``.
    """
    a = _strengths(e.cartan if strengths is None else strengths)
    return _bell_sum(a, e.frame.bell_projectors)


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


def contract_kraus(entanglers: np.ndarray, kets: np.ndarray, bras: np.ndarray) -> np.ndarray:
    """System Kraus pairs of N measured ancillas: (N, 4, 4) entanglers, (N, 2)
    ancilla kets and (N, 2, 2) measurement states, row t for outcome t, give
    an (N, 2, 2, 2) array, outcome first.  Each ancilla index has two values,
    so both contractions are two-term sums of broadcast products."""
    e = entanglers.reshape(-1, 2, 2, 2, 2)  # (n, a_out, s_out, a_in, s_in)
    ket = kets[:, :, None, None, None]
    m = ket[:, 0] * e[..., 0, :] + ket[:, 1] * e[..., 1, :]  # (n, a_out, s_out, s_in)
    bra = bras.conj()[..., None, None]  # (n, t, a_out, 1, 1)
    return bra[:, :, 0] * m[:, None, 0] + bra[:, :, 1] * m[:, None, 1]


def kraus_pair(e: Entangler, a: AncillaSpec, m: MeasBasis) -> KrausPair:
    """System Kraus branches of the fully assembled entangler, for the literal
    prepared ancilla ket and measurement basis.

    Branch probabilities are quoted for a maximally mixed system input.
    """
    k = contract_kraus(
        assemble_entangler(e)[None],
        param_kets("+", a.gamma, a.delta)[None],
        basis_kets(m.theta, m.phi)[None],
    )[0]
    p = np.einsum("tij,tij->t", k.conj(), k).real / 2
    return KrausPair(k[0], k[1], float(p[0]), float(p[1]))


@dataclass(frozen=True)
class BranchReport:
    unitary_plus: bool
    unitary_minus: bool
    one_step_correctable: bool
    correction: str | None = None
    scale: complex | None = None


def _unitary_proportional(k: np.ndarray, tol: float) -> np.ndarray:
    """K^dag K = lambda I with |lambda| > 1e-12, for each 2x2 K in k.  The Gram
    matrix is a two-term sum over the rows of K."""
    gram = k[..., 0, :, None].conj() * k[..., 0, None, :]
    gram += k[..., 1, :, None].conj() * k[..., 1, None, :]
    lam = (gram[..., 0, 0] + gram[..., 1, 1]) / 2
    gram[..., 0, 0] -= lam
    gram[..., 1, 1] -= lam
    return (np.abs(lam) > 1e-12) & (np.abs(gram).max(axis=(-2, -1)) < tol)


def analyse_kraus(k: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Branch analysis of an (N, 2, 2, 2) stack of Kraus pairs.

    Returns, per row, the unitary-proportionality of each branch ((N, 2) bool:
    K^dag K = lambda I with |lambda| > 1e-12), the index into the bit-ordered
    PAULI_NAMES (X^x Z^z at x + 2 z) of the first Pauli P in that order with
    ``k_minus = c P k_plus`` (-1 for none), and that scale c (nan for none).
    The fit is ``linalg.fit_scale`` with floor 1e-12; it counts when
    |c| >= 1e-12 and the residual is at most tol * max(1, |c|).
    """
    unitary = _unitary_proportional(k, tol)
    n = len(k)
    pk = np.take(k[:, 0], _PAULI_ROWS, axis=1)
    pk *= _PAULI_SIGNS
    pk = pk.reshape(n, 4, 4)
    km = np.broadcast_to(k[:, None, 1].reshape(n, 1, 4), pk.shape)
    c, residual, fitted = fit_scale(km, pk, 1e-12)
    mag = np.abs(c)
    ok = fitted & (mag >= 1e-12) & (residual <= tol * np.maximum(1.0, mag))
    found = ok.any(axis=1)
    correction = np.where(found, np.argmax(ok, axis=1), -1)
    scale = np.where(found, c[np.arange(n), correction], np.nan)
    return unitary, correction, scale


def branch_analysis(k: KrausPair, tol: float = 1e-9) -> BranchReport:
    """Check unitary-proportionality of each branch and one-step correctability.

    The pair is one-step correctable when ``k_minus = c P k_plus`` for a Pauli P
    and scalar c; after applying P the two branches then act as the same gate,
    so a single outcome-conditioned Pauli correction makes the step
    deterministic (c is a unit phase exactly when the branches are balanced).
    """
    unitary, correction, scale = analyse_kraus(np.stack([k.k_plus, k.k_minus])[None], tol)
    c = int(correction[0])
    if c < 0:
        return BranchReport(bool(unitary[0, 0]), bool(unitary[0, 1]), False)
    return BranchReport(
        bool(unitary[0, 0]), bool(unitary[0, 1]), True, PAULI_NAMES[c], complex(scale[0])
    )
