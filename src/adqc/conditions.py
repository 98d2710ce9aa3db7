"""Closed-form admissibility conditions for measurement-driven gate steps.

Covers the parameter constraint that makes both Kraus branches proportional to
unitaries, the branch-coefficient formulas, the interaction-strength relation,
the classification of admissible parameter patterns, and the frame conditions
under which a hidden rotation angle can be absorbed into a later step.

Printed parameter tables are matched on their parameter patterns only; the
expected operator content of every row is recomputed from the Kraus definition,
which is the ground truth throughout this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    AncillaSpec,
    MeasBasis,
    analyse_kraus,
    assemble_entangler,
    basis_kets,
    contract_kraus,
    kraus_pair,
    param_kets,
    preset,
    rotation,
)
from .linalg import I2, PAULIS, TWO_PI, X, dagger, fit_scale, is_unitary, phase_invariant_error


@dataclass(frozen=True)
class ParamPoint:
    """One joint parameter choice: interaction strength plus ancilla/basis angles."""

    alpha_x: float
    ancilla: AncillaSpec
    basis: MeasBasis

    def __post_init__(self):
        if not (-1e-12 <= self.alpha_x <= math.pi / 4 + 1e-12):
            raise ValueError(f"alpha_x={self.alpha_x} outside [0, pi/4]")


class TableCase(Enum):
    T1_IDENTITY = "T1_IDENTITY"
    T1_XROT = "T1_XROT"
    T1_X_A = "T1_X_A"
    T1_X_B = "T1_X_B"
    T2_GENERAL_DELTA0 = "T2_GENERAL_DELTA0"
    T2_MATCHED = "T2_MATCHED"
    NONE = "NONE"


class DegenerateRelationError(ValueError):
    """The interaction-strength relation is singular (0/0 form) at this point."""


class TableVerificationError(RuntimeError):
    """A parameter pattern matched but the computed Kraus pair does not
    reproduce the row's expected operator content: an implementation bug."""


def _constraint(g, d, t, f):
    return np.sin(t) * np.cos(g) * np.sin(f) - np.cos(t) * np.sin(g) * np.sin(d)


def _angles(p: ParamPoint) -> tuple[float, float, float, float]:
    return p.ancilla.gamma, p.ancilla.delta, p.basis.theta, p.basis.phi


def constraint_residual(p: ParamPoint) -> float:
    """sin(theta) cos(gamma) sin(phi) - cos(theta) sin(gamma) sin(delta).

    Zero iff both Kraus branches are proportional to unitaries.
    """
    return float(_constraint(*_angles(p)))


def _uv(g, d, t, f):
    u = np.cos(g) * np.cos(t) + np.sin(g) * np.sin(t) * np.cos(d - f)
    v = np.cos(g) * np.cos(t) - np.sin(g) * np.sin(t) * np.cos(d + f)
    return u, v


# the relation is singular (0/0 form) where its denominator radicand is this small
DEGENERATE_DEN = 1e-12


def _radicands(g, d, t, f):
    """(1 - u^2, floored at 0, and 1 - v^2): the relation's ratio is their quotient."""
    u, v = _uv(g, d, t, f)
    return np.maximum(1.0 - u * u, 0.0), 1.0 - v * v


def _required(num, den):
    return np.arctan((num / den) ** 0.25)


def _relation(ax, num, den):
    return np.tan(ax) ** 2 - np.sqrt(num / den)


def fg_coefficients(p: ParamPoint) -> tuple[float, float, float, float]:
    """(f_plus, f_minus, g_plus, g_minus): the magnitudes of the identity and X
    parts of the two branches.  Requires the constraint to hold within 1e-9."""
    if abs(constraint_residual(p)) > 1e-9:
        raise ValueError("fg_coefficients requires the parameter constraint to hold")
    u, v = _uv(*_angles(p))
    c, s = np.cos(p.alpha_x) / np.sqrt(2), np.sin(p.alpha_x) / np.sqrt(2)
    rt = lambda x: np.sqrt(np.maximum(x, 0.0))
    return tuple(float(x) for x in (c * rt(1 + u), c * rt(1 - u), s * rt(1 - v), s * rt(1 + v)))


def required_alpha_x(a: AncillaSpec, m: MeasBasis) -> float:
    """Interaction strength singled out by tan^2(ax) = sqrt((1-u^2)/(1-v^2)).

    Raises DegenerateRelationError when the denominator radicand vanishes.  The
    returned angle lies in (0, pi/2); it falls inside the chamber [0, pi/4]
    exactly when the ratio is at most one.
    """
    num, den = _radicands(a.gamma, a.delta, m.theta, m.phi)
    if den <= DEGENERATE_DEN:
        raise DegenerateRelationError(
            f"relation denominator vanishes at ancilla={a}, basis={m}"
        )
    return float(_required(num, den))


def relation_residual(p: ParamPoint) -> float:
    """tan^2(alpha_x) - sqrt((1-u^2)/(1-v^2)); zero iff the relation holds."""
    num, den = _radicands(*_angles(p))
    if den <= DEGENERATE_DEN:
        raise DegenerateRelationError("relation denominator vanishes")
    return float(_relation(p.alpha_x, num, den))


# ---------------------------------------------------------------------------
# table classification
# ---------------------------------------------------------------------------

_CZ_ENTANGLER = preset("CZ_CANON")


def _ang_eq(a: float, b: float, tol: float) -> bool:
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d) <= tol


def _expected_rows(case: TableCase, p: ParamPoint) -> tuple[np.ndarray, np.ndarray]:
    """Expected branch operators (up to scale and phase), recomputed from the
    contraction rather than read off any printed table."""
    g, d = p.ancilla.gamma, p.ancilla.delta
    t = p.basis.theta
    if case is TableCase.T1_IDENTITY:
        return I2, X
    if case is TableCase.T1_XROT:
        return rotation("x", t), X @ rotation("x", t)
    if case is TableCase.T1_X_A:
        return X, I2
    if case is TableCase.T1_X_B:
        return rotation("x", math.pi / 2), X @ rotation("x", math.pi / 2)
    if case is TableCase.T2_GENERAL_DELTA0:
        kp = math.cos((t - g) / 2) * I2 - 1j * math.sin((t + g) / 2) * X
        km = math.sin((t - g) / 2) * I2 + 1j * math.cos((t + g) / 2) * X
        return kp, km
    if case is TableCase.T2_MATCHED:
        kp = I2 - 1j * math.sin(g) * math.cos(d) * X
        km = (1j * math.sin(d) - math.cos(g) * math.cos(d)) * X
        return kp, km
    raise ValueError(case)


def _match_case(p: ParamPoint, tol: float) -> TableCase:
    g, d = p.ancilla.gamma, p.ancilla.delta
    t, f = p.basis.theta, p.basis.phi
    z = lambda a: _ang_eq(a, 0.0, tol)
    if z(g) and z(t):
        return TableCase.T1_IDENTITY
    if _ang_eq(g, math.pi, tol) and z(t):
        return TableCase.T1_X_A
    if z(g) and z(f):
        return TableCase.T1_XROT
    if _ang_eq(t, math.pi / 2, tol) and z(f):
        return TableCase.T1_X_B
    if z(t - g) and _ang_eq(f, d, tol):
        return TableCase.T2_MATCHED
    if z(d) and z(f):
        return TableCase.T2_GENERAL_DELTA0
    return TableCase.NONE


def classify_parameters(p: ParamPoint, tol: float = 1e-9) -> TableCase:
    """Match the ancilla/basis parameters against the admissible-row patterns.

    On a match the computed Kraus branches are asserted to reproduce the row's
    operator content (up to scale and global phase): a failure there raises
    TableVerificationError.  Classification uses the canonical entangler at
    alpha_x = pi/4; the point's own alpha_x does not affect the row pattern.
    """
    case = _match_case(p, tol)
    if case is TableCase.NONE:
        return case
    pair = kraus_pair(_CZ_ENTANGLER, p.ancilla, p.basis)
    t = max(tol, 1e-10)
    # each branch k == c*expected for some nonzero c (positive scale times
    # phase); an expected row below the floor admits only a vanishing branch
    k = np.stack([pair.k_plus, pair.k_minus]).reshape(2, 4)
    expected = np.stack(_expected_rows(case, p)).reshape(2, 4)
    c, residual, fitted = fit_scale(k, expected, t)
    mag = np.abs(c)
    reproduces = np.where(fitted, (mag > t) & (residual <= t * np.maximum(1.0, mag)),
                          np.abs(k).max(axis=1) <= t)
    if not reproduces.all():
        raise TableVerificationError(
            f"pattern {case.value} matched at ancilla={p.ancilla}, basis={p.basis} "
            "but the computed branches do not reproduce the expected operators"
        )
    return case


# ---------------------------------------------------------------------------
# frame conditions
# ---------------------------------------------------------------------------


def pauli_components(m) -> dict[str, complex]:
    m = np.asarray(m, dtype=complex)
    return {name: complex(np.trace(dagger(p) @ m) / 2) for name, p in PAULIS.items()}


def vw_form_check(v, w, tol: float = 1e-9) -> bool:
    """True iff v @ w is of the form aI + ibX or aY + bZ up to a global phase.

    These are exactly the products that commute or anticommute with every
    X-axis rotation, i.e. the frames for which a hidden rotation angle can be
    folded into a later rotation step.
    """
    if not (is_unitary(v) and is_unitary(w)):
        raise ValueError("vw_form_check expects unitary factors")
    comp = pauli_components(np.asarray(v) @ np.asarray(w))
    ix_form = abs(comp["Y"]) < tol and abs(comp["Z"]) < tol
    yz_form = abs(comp["I"]) < tol and abs(comp["X"]) < tol
    return ix_form or yz_form


def _hiding_errors(v, w, theta: float, gamma: float) -> list[float]:
    """How far W Rx(theta) V W Rx(gamma) V is from W Rx(theta + pm*gamma) V W V,
    up to a global phase, for pm = +1 and then -1."""
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    lhs = w @ rotation("x", theta) @ v @ w @ rotation("x", gamma) @ v
    return [float(phase_invariant_error(lhs.ravel(), (w @ rotation("x", theta + pm * gamma) @ v @ w @ v).ravel()))
            for pm in (1, -1)]


def l_hiding_residual(v, w, theta: float, gamma: float, s: int) -> float:
    """How far W Rx(theta) V W Rx((-1)^s gamma) V is from W Rx(theta') V W V
    with theta' = theta +/- (-1)^s gamma; the minimum over the two signs.

    Zero means the hidden-angle absorption law holds for this frame at
    (theta, gamma, s).
    """
    return min(_hiding_errors(v, w, theta, (-1.0 if s % 2 else 1.0) * gamma))


def l_hiding_sign(v, w, probe_theta: float = 0.9, probe_gamma: float = 0.7) -> int:
    """The sign in theta' = theta + sign*(-1)^s*gamma realized by this frame,
    or 0 if neither sign makes the absorption law hold."""
    plus, minus = _hiding_errors(v, w, probe_theta, probe_gamma)
    return 1 if plus < 1e-9 else -1 if minus < 1e-9 else 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# Points per array pass.  Every family is drawn and checked in blocks of at
# most this many points, so memory stays bounded at any point count.
SWEEP_BLOCK = 4096


def _blocks(total: int):
    for start in range(0, total, SWEEP_BLOCK):
        yield min(SWEEP_BLOCK, total - start)


def _rejection_sample(rng: np.random.Generator, n: int, draw) -> np.ndarray:
    """The first n accepted columns of ``draw(rng, m) -> (rows, keep)``,
    drawing about twice the shortfall of candidates per round."""
    parts, have = [], 0
    while have < n:
        rows, keep = draw(rng, 2 * (n - have) + 16)
        parts.append(rows[:, keep])
        have += parts[-1].shape[1]
    return np.concatenate(parts, axis=1)[:, :n]


def _draw_constraint(rng: np.random.Generator, m: int):
    """Candidate rows (g, d, t, f, alpha_x): half with delta = phi = 0, half
    with phi solved from the constraint for a random delta, rejected where that
    solution is ill-conditioned or has no real angle."""
    g, t = rng.uniform(0, TWO_PI, (2, m))
    flat = rng.random(m) < 0.5
    d = np.where(flat, 0.0, rng.uniform(0, TWO_PI, m))
    den = np.sin(t) * np.cos(g)
    solvable = np.abs(den) >= 1e-3
    sf = np.divide(np.cos(t) * np.sin(g) * np.sin(d), den, out=np.zeros(m), where=solvable)
    keep = flat | (solvable & (np.abs(sf) <= 1.0))
    f = np.arcsin(np.clip(sf, -1.0, 1.0))  # 0 wherever delta = 0
    ax = rng.uniform(1e-3, math.pi / 4, m)
    return np.stack([g, d, t, f, ax]), keep


def _draw_violating(rng: np.random.Generator, m: int):
    """Candidate rows (g, d, t, f) violating the constraint by more than 0.05."""
    rows = rng.uniform(0.3, TWO_PI - 0.3, (4, m))
    return rows, np.abs(_constraint(*rows)) > 0.05


def sample_constraint_point(rng: np.random.Generator) -> ParamPoint:
    """Random constraint-satisfying point with a random chamber alpha_x."""
    g, d, t, f, ax = _rejection_sample(rng, 1, _draw_constraint)[:, 0]
    return ParamPoint(ax, AncillaSpec(g, d), MeasBasis(t, f))


def _separated(rng: np.random.Generator, low: float, high: float, avoid: np.ndarray, gap: float):
    """Uniform draws on [low, high), one per entry of ``avoid``, redrawn until
    each lies at least ``gap`` from its entry."""
    x = rng.uniform(low, high, avoid.shape)
    close = np.abs(x - avoid) < gap
    while close.any():
        x[close] = rng.uniform(low, high, int(close.sum()))
        close = np.abs(x - avoid) < gap
    return x


def _branches(ax, g, d, t, f, tol: float):
    """``analyse_kraus`` of the bare entangler of strength ax[i] measured at
    row i of the angle arrays."""
    strengths = np.zeros(ax.shape + (3,))
    strengths[:, 0] = ax
    pairs = contract_kraus(
        assemble_entangler(_CZ_ENTANGLER, strengths), param_kets("+", g, d), basis_kets(t, f)
    )
    return analyse_kraus(pairs, tol)


# point families whose rows share the Kraus check
_CONSTRAINT, _VIOLATING, _CORRECTION = range(3)


class _KrausChecks:
    """The Kraus check of every point family, queued in draw order and run
    through ``_branches`` in calls of at most SWEEP_BLOCK rows, so small
    families share one call and memory stays bounded.

    A queued row is (ax, g, d, t, f, family, matches); ``matches`` is whether
    a correction probe's alpha_x matches the relation.  ``tally[2 * family +
    passed]`` counts the checked rows, where a constraint point passes when
    both branches are unitary-proportional, a violating point when they are
    not, and a correction probe when its correctability equals ``matches``.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.parts: list[np.ndarray] = []
        self.queued = 0
        self.tally = np.zeros(6, dtype=int)

    def add(self, family: int, ax, g, d, t, f, matches=False) -> None:
        rows = np.empty((7, len(t)))
        for i, column in enumerate((ax, g, d, t, f, family, matches)):
            rows[i] = column
        self.parts.append(rows)
        self.queued += len(t)
        while self.queued >= SWEEP_BLOCK:
            self._run(SWEEP_BLOCK)

    def finish(self) -> np.ndarray:
        if self.queued:
            self._run(self.queued)
        return self.tally

    def _run(self, n: int) -> None:
        rows = np.concatenate(self.parts, axis=1)
        self.parts, self.queued = [rows[:, n:]], self.queued - n
        ax, g, d, t, f, family, matches = rows[:, :n]
        unitary, correction, scale = _branches(ax, g, d, t, f, self.tol)
        unitary = unitary.all(axis=1)
        correctable = (correction >= 0) & (np.abs(np.abs(scale) - 1.0) <= 1e-7)
        family = family.astype(int)
        passed = np.choose(family, (unitary, ~unitary, correctable == (matches > 0)))
        self.tally += np.bincount(2 * family + passed, minlength=6)


def unitarity_relation_sweep(
    num_points: int = 10_000, seed: int = 0, tol: float = 1e-9
) -> dict:
    """Numerically confirm the two closed-form boundaries on random points.

    For constraint-satisfying points: both branches are unitary-proportional,
    and the strength relation holds at an alpha_x iff that alpha_x equals the
    value singled out by the relation (degenerate denominators excluded).  For
    points violating the constraint by a margin, unitary-proportionality fails.
    Additionally, on the rotation-row family (gamma = 0, phi = delta = 0) the
    pair is one-step correctable iff alpha_x matches the relation: there the
    relation value is always pi/4.

    Each family is drawn as arrays, SWEEP_BLOCK points at a time.  The Kraus
    checks of all families are queued in draw order and run SWEEP_BLOCK rows
    at a time, so a small sweep makes one kernel call.  ``num_points`` below 1
    raises ValueError.
    """
    if num_points < 1:
        raise ValueError(f"the sweep needs at least 1 point, got {num_points}")
    rng = np.random.default_rng(seed)
    checks = _KrausChecks(tol)
    agree = disagree = excluded = 0

    for n in _blocks(num_points):
        g, d, t, f, ax = _rejection_sample(rng, n, _draw_constraint)
        num, den = _radicands(g, d, t, f)
        live = den > DEGENERATE_DEN
        excluded += n - int(live.sum())
        g, d, t, f, ax, num, den = (x[live] for x in (g, d, t, f, ax, num, den))
        ax_req = _required(num, den)
        # relation <-> matching alpha_x, probed at the singled-out value (when
        # it lies in the chamber) and at a well-separated random one
        ax_rand = _separated(rng, 0.0, math.pi / 4, ax_req, 1e-2)
        for probe, probed in ((ax_req, ax_req <= math.pi / 4), (ax_rand, True)):
            holds = np.abs(_relation(probe, num, den)) <= tol
            matches = np.abs(probe - ax_req) <= tol
            hits = (holds == matches) & probed
            agree += int(hits.sum())
            disagree += int(np.sum(probed & ~hits))
        # constraint -> unitary-proportional branches
        checks.add(_CONSTRAINT, ax, g, d, t, f)

    # violating points: unitarity must fail with a clear margin
    n_viol = max(num_points // 10, 1)
    for n in _blocks(n_viol):
        g, d, t, f = _rejection_sample(rng, n, _draw_violating)
        checks.add(_VIOLATING, math.pi / 4, g, d, t, f)

    # rotation-row family: correctable <-> alpha_x matches the relation (pi/4)
    n_corr = max(num_points // 10, 1)
    for n in _blocks(n_corr):
        t = rng.uniform(0.2, math.pi - 0.2, n)
        ax_req = _required(*_radicands(0.0, 0.0, t, 0.0))
        for ax in (np.full(n, math.pi / 4), rng.uniform(0.05, math.pi / 4 - 0.05, n)):
            checks.add(_CORRECTION, ax, 0.0, 0.0, t, 0.0, np.abs(ax - ax_req) <= tol)

    unit_fail, unit_ok, viol_missed, viol_detected, corr_disagree, corr_agree = (
        int(x) for x in checks.finish()
    )
    total_pairs = agree + disagree
    return {
        "points": num_points,
        "excluded_degenerate": excluded,
        "relation_checks": total_pairs,
        "relation_agreements": agree,
        "relation_disagreements": disagree,
        "unitary_on_constraint": unit_ok,
        "nonunitary_on_constraint": unit_fail,
        "violating_points": n_viol,
        "violations_detected": viol_detected,
        "violations_missed": viol_missed,
        "correctability_checks": corr_agree + corr_disagree,
        "correctability_agreements": corr_agree,
        "correctability_disagreements": corr_disagree,
        "agreement_rate": (
            (agree + unit_ok + viol_detected + corr_agree)
            / max(total_pairs + unit_ok + unit_fail + n_viol + corr_agree + corr_disagree, 1)
        ),
    }
