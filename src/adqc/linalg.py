"""Dense complex linear algebra for small multi-qubit states and operators.

Everything works on plain ``numpy`` arrays of dtype complex128.  Qubit index 0
is the leftmost tensor factor, i.e. the most significant bit of a state-vector
index.  Dimensions are capped at 32 (5 qubits): a 4-qubit register plus one
ancilla is the largest object anything downstream needs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_DIM = 32
DEFAULT_TOL = 1e-10

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S_GATE = np.diag([1, 1j]).astype(complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
PAULIS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def num_qubits_of(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if dim != 2**n or not (2 <= dim <= MAX_DIM):
        raise ValueError(f"dimension {dim} is not a power of two in [2, {MAX_DIM}]")
    return n


def tensor(*mats) -> np.ndarray:
    """Kronecker product of one or more operators, left factor most significant."""
    out = np.array([[1.0]], dtype=complex)
    for m in mats:
        m = _as_square(m)
        if out.shape[0] * m.shape[0] > MAX_DIM:
            raise ValueError(f"tensor product exceeds maximum dimension {MAX_DIM}")
        out = np.kron(out, m)
    num_qubits_of(out.shape[0])
    return out


def dagger(m) -> np.ndarray:
    return np.asarray(m, dtype=complex).conj().T


def is_unitary(m, tol: float = 1e-12) -> bool:
    m = _as_square(m)
    return np.abs(m.conj().T @ m - np.eye(m.shape[0])).max() < tol


def fit_scale(a: np.ndarray, b: np.ndarray, floor: float = 0.0):
    """Fit a ~ c*b along the last axis, for every leading index: the scalar c
    read off the largest-magnitude entry of b, the residual max|a - c*b| and
    whether that entry reaches ``floor`` (where it does not, c and the
    residual mean nothing)."""
    idx = np.argmax(np.abs(b), axis=-1)[..., None]
    pivot = np.take_along_axis(b, idx, axis=-1)
    fitted = np.abs(pivot[..., 0]) >= floor
    c = np.take_along_axis(a, idx, axis=-1) / np.where(fitted[..., None], pivot, 1.0)
    return c[..., 0], np.abs(a - c * b).max(axis=-1), fitted


def proportionality(a: np.ndarray, b: np.ndarray, floor: float = 0.0) -> tuple[complex, float] | None:
    """Fit a ~ c*b over all entries (``fit_scale`` on one row): the scalar c
    and the residual, or None when b's largest entry is below ``floor``."""
    c, residual, fitted = fit_scale(np.reshape(a, (1, -1)), np.reshape(b, (1, -1)), floor)
    if not fitted[0]:
        return None
    return complex(c[0]), float(residual[0])


def phase_invariant_error(a: np.ndarray, b: np.ndarray):
    """min over the global phase c of ||a - c b||, for each row of ``a``;
    ``b`` is one vector or one per row."""
    ov = np.asarray(np.einsum("...i,...i->...", a, b.conj()))
    mag = np.abs(ov)
    phase = np.divide(ov, mag, out=np.ones_like(ov), where=mag > 1e-14)
    return np.linalg.norm(a - phase[..., None] * b, axis=-1)


def equal_up_to_global_phase(a, b, tol: float = DEFAULT_TOL) -> bool:
    """True iff a == c*b entrywise for some unit-modulus scalar c.

    The phase candidate is read off the largest-magnitude entry of b; an
    all-zero b matches only an all-zero a.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    fit = proportionality(a, b, tol)
    if fit is None:
        return bool(np.abs(a).max() <= tol)
    c, residual = fit
    return abs(abs(c) - 1.0) <= max(tol, 1e-9) and residual <= tol


_LABEL_KETS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "-": np.array([1, -1], dtype=complex) / np.sqrt(2),
}


@dataclass(frozen=True)
class PureState:
    """Normalized n-qubit state vector, qubit 0 the most significant factor."""

    num_qubits: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != 2**self.num_qubits:
            raise ValueError(
                f"{amps.size} amplitudes for {self.num_qubits} qubit(s)"
            )
        norm = np.linalg.norm(amps)
        if norm < 1e-12:
            raise ValueError("cannot normalize the zero vector")
        object.__setattr__(self, "amplitudes", amps / norm)

    @classmethod
    def unchecked(cls, num_qubits: int, amplitudes: np.ndarray) -> "PureState":
        """Wrap a 1-D unit vector as is: no check, no copy, no renormalisation."""
        out = cls.__new__(cls)
        object.__setattr__(out, "num_qubits", num_qubits)
        object.__setattr__(out, "amplitudes", amplitudes)
        return out

    @classmethod
    def from_vector(cls, vec) -> "PureState":
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        return cls(num_qubits_of(vec.size), vec)

    @classmethod
    def from_label(cls, label: str) -> "PureState":
        """Product state from a string over {0, 1, +, -}, e.g. "0+"."""
        label = label.strip().lstrip("|").rstrip(">⟩")
        if not label or any(ch not in _LABEL_KETS for ch in label):
            raise ValueError(f"unsupported state label {label!r}")
        vec = np.array([1.0], dtype=complex)
        for ch in label:
            vec = np.kron(vec, _LABEL_KETS[ch])
        return cls(len(label), vec)

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.num_qubits, np.outer(self.amplitudes, self.amplitudes.conj()))

    def fidelity(self, other: "PureState") -> float:
        return float(abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on n qubits."""

    num_qubits: int
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = _as_square(self.matrix)
        if m.shape[0] != 2**self.num_qubits:
            raise ValueError(f"shape {m.shape} for {self.num_qubits} qubit(s)")
        if np.abs(m - m.conj().T).max() > 1e-12:
            raise ValueError("matrix is not Hermitian")
        if abs(np.trace(m) - 1.0) > 1e-12:
            raise ValueError("trace is not 1")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise ValueError("matrix has a negative eigenvalue")
        object.__setattr__(self, "matrix", m.astype(complex))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the kept qubit indices (0-based, order preserved)."""
    keep = sorted(set(int(q) for q in keep))
    n = rho.num_qubits
    if not keep:
        raise ValueError("keep set must be nonempty")
    if any(q < 0 or q >= n for q in keep):
        raise ValueError(f"keep indices {keep} out of range for {n} qubit(s)")
    traced = [q for q in range(n) if q not in keep]
    m = rho.matrix.reshape([2] * (2 * n))
    for q in sorted(traced, reverse=True):
        m = np.trace(m, axis1=q, axis2=q + m.ndim // 2)
    k = len(keep)
    return DensityMatrix(k, m.reshape(2**k, 2**k))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    eig = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(0.5 * np.abs(eig).sum())


def apply_op(op, psi, qubits) -> np.ndarray:
    """Apply a k-qubit operator to the given qubits of ``psi``.

    The first axis of ``psi`` is the 2^n-dimensional state index; any further
    axes ride along, so an identity matrix embeds the operator.
    """
    op = _as_square(op)
    qubits = [int(q) for q in qubits]
    k = num_qubits_of(op.shape[0])
    if len(qubits) != k or len(set(qubits)) != k:
        raise ValueError(f"operator on {k} qubit(s) applied to targets {qubits}")
    n = num_qubits_of(psi.shape[0])
    t = psi.reshape((2,) * n + psi.shape[1:])
    t = np.tensordot(op.reshape((2,) * (2 * k)), t, axes=(range(k, 2 * k), qubits))
    return np.moveaxis(t, range(k), qubits).reshape(psi.shape)


def embed(op, qubits, n: int) -> np.ndarray:
    """The 2^n x 2^n matrix of a k-qubit operator acting on the given qubits."""
    return apply_op(op, np.eye(2**n, dtype=complex), qubits)


_PHASE_OF_Y_COUNT = np.array([1, 1j, -1, -1j])
_BIT_PARITY = np.array([bin(i).count("1") & 1 for i in range(MAX_DIM)])


def apply_pauli_frame(states: np.ndarray, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Apply one Pauli string per row of a (B, 2^n, ...) state array, on axis 1.

    ``x`` and ``z`` are (n, B) bit arrays: qubit q of row b gets X^x Z^z, times
    i where both bits are set, so a set pair is Y.  Every factor is a
    permutation and an exact phase in {1, i, -1, -i}, so the result equals the
    dense Kronecker-product matrix applied to each row bit for bit.  Trailing
    axes ride along: a (B, 2^n, 2^n) batch of operators is multiplied on the
    left.
    """
    n, dim = x.shape[0], states.shape[1]
    weights = 1 << np.arange(n - 1, -1, -1)
    src = np.arange(dim) ^ (weights @ x)[:, None]  # row b, index i reads i xor x_b
    z_parity = _BIT_PARITY[src & (weights @ z)[:, None]]
    phase = _PHASE_OF_Y_COUNT[(x & z).sum(axis=0) % 4][:, None] * (1 - 2 * z_parity)
    tail = (1,) * (states.ndim - 2)
    moved = np.take_along_axis(states, src.reshape(src.shape + tail), axis=1)
    return phase.reshape(phase.shape + tail) * moved
