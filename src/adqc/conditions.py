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
    CartanParams,
    Entangler,
    LocalFrame,
    MeasBasis,
    branch_analysis,
    kraus_pair,
    rotation,
)
from .linalg import I2, PAULIS, X, dagger, is_unitary, phase_invariant_error, proportionality

TWO_PI = 2.0 * math.pi


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


def constraint_residual(p: ParamPoint) -> float:
    """sin(theta) cos(gamma) sin(phi) - cos(theta) sin(gamma) sin(delta).

    Zero iff both Kraus branches are proportional to unitaries.
    """
    g, d = p.ancilla.gamma, p.ancilla.delta
    t, f = p.basis.theta, p.basis.phi
    return math.sin(t) * math.cos(g) * math.sin(f) - math.cos(t) * math.sin(g) * math.sin(d)


def _uv(a: AncillaSpec, m: MeasBasis) -> tuple[float, float]:
    g, d, t, f = a.gamma, a.delta, m.theta, m.phi
    u = math.cos(g) * math.cos(t) + math.sin(g) * math.sin(t) * math.cos(d - f)
    v = math.cos(g) * math.cos(t) - math.sin(g) * math.sin(t) * math.cos(d + f)
    return u, v


def fg_coefficients(p: ParamPoint) -> tuple[float, float, float, float]:
    """(f_plus, f_minus, g_plus, g_minus): the magnitudes of the identity and X
    parts of the two branches.  Requires the constraint to hold within 1e-9."""
    if abs(constraint_residual(p)) > 1e-9:
        raise ValueError("fg_coefficients requires the parameter constraint to hold")
    u, v = _uv(p.ancilla, p.basis)
    c, s = math.cos(p.alpha_x), math.sin(p.alpha_x)
    rt = lambda x: math.sqrt(max(x, 0.0))
    f_plus = c / math.sqrt(2) * rt(1 + u)
    f_minus = c / math.sqrt(2) * rt(1 - u)
    g_plus = s / math.sqrt(2) * rt(1 - v)
    g_minus = s / math.sqrt(2) * rt(1 + v)
    return f_plus, f_minus, g_plus, g_minus


def required_alpha_x(a: AncillaSpec, m: MeasBasis) -> float:
    """Interaction strength singled out by tan^2(ax) = sqrt((1-u^2)/(1-v^2)).

    Raises DegenerateRelationError when the denominator radicand vanishes.  The
    returned angle lies in (0, pi/2); it falls inside the chamber [0, pi/4]
    exactly when the ratio is at most one.
    """
    u, v = _uv(a, m)
    num = max(1.0 - u * u, 0.0)
    den = 1.0 - v * v
    if den <= 1e-12:
        raise DegenerateRelationError(
            f"relation denominator vanishes at ancilla={a}, basis={m}"
        )
    return math.atan((num / den) ** 0.25)


def relation_residual(p: ParamPoint) -> float:
    """tan^2(alpha_x) - sqrt((1-u^2)/(1-v^2)); zero iff the relation holds."""
    u, v = _uv(p.ancilla, p.basis)
    num = max(1.0 - u * u, 0.0)
    den = 1.0 - v * v
    if den <= 1e-12:
        raise DegenerateRelationError("relation denominator vanishes")
    return math.tan(p.alpha_x) ** 2 - math.sqrt(num / den)


# ---------------------------------------------------------------------------
# table classification
# ---------------------------------------------------------------------------

_CZ_ENTANGLER = Entangler(CartanParams(math.pi / 4), LocalFrame(), "CZ_CANON")


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

    def reproduces(k, expected) -> bool:
        """k == c*expected for some nonzero c (positive scale times phase)."""
        fit = proportionality(k, expected, t)
        if fit is None:
            return np.abs(k).max() <= t
        return abs(fit[0]) > t and fit[1] <= t * max(1.0, abs(fit[0]))

    if not all(map(reproduces, (pair.k_plus, pair.k_minus), _expected_rows(case, p))):
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


def l_hiding_residual(v, w, theta: float, gamma: float, s: int) -> float:
    """How far W Rx(theta) V W Rx((-1)^s gamma) V is from W Rx(theta') V W V
    with theta' = theta +/- (-1)^s gamma; the minimum over the two signs.

    Zero means the hidden-angle absorption law holds for this frame at
    (theta, gamma, s).
    """
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    sgn = -1.0 if s % 2 else 1.0
    lhs = w @ rotation("x", theta) @ v @ w @ rotation("x", sgn * gamma) @ v
    best = math.inf
    for pm in (1.0, -1.0):
        rhs = w @ rotation("x", theta + pm * sgn * gamma) @ v @ w @ v
        best = min(best, float(phase_invariant_error(lhs.ravel(), rhs.ravel())))
    return best


def l_hiding_sign(v, w, probe_theta: float = 0.9, probe_gamma: float = 0.7) -> int:
    """The sign in theta' = theta + sign*(-1)^s*gamma realized by this frame,
    or 0 if neither sign makes the absorption law hold."""
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    lhs = w @ rotation("x", probe_theta) @ v @ w @ rotation("x", probe_gamma) @ v
    for pm in (1, -1):
        rhs = w @ rotation("x", probe_theta + pm * probe_gamma) @ v @ w @ v
        if phase_invariant_error(lhs.ravel(), rhs.ravel()) < 1e-9:
            return pm
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sample_constraint_point(rng: np.random.Generator) -> ParamPoint:
    """Random constraint-satisfying point with a random chamber alpha_x."""
    while True:
        g, t = rng.uniform(0, TWO_PI, 2)
        if rng.random() < 0.5:
            d, f = 0.0, 0.0
        else:
            d = rng.uniform(0, TWO_PI)
            den = math.sin(t) * math.cos(g)
            if abs(den) < 1e-3:
                continue
            sf = math.cos(t) * math.sin(g) * math.sin(d) / den
            if abs(sf) > 1.0:
                continue
            f = math.asin(sf)
        ax = rng.uniform(1e-3, math.pi / 4)
        return ParamPoint(ax, AncillaSpec(g, d), MeasBasis(t, f))


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
    """
    rng = np.random.default_rng(seed)
    ent = lambda ax: Entangler(CartanParams(ax), LocalFrame(), "sweep")
    agree = 0
    disagree = 0
    excluded = 0
    unit_ok = 0
    unit_fail = 0
    viol_detected = 0
    viol_missed = 0
    corr_agree = 0
    corr_disagree = 0

    for _ in range(num_points):
        p = sample_constraint_point(rng)
        try:
            ax_req = required_alpha_x(p.ancilla, p.basis)
        except DegenerateRelationError:
            excluded += 1
            continue

        # relation <-> matching alpha_x, probed at the singled-out value and at
        # a well-separated random one
        candidates = [min(ax_req, math.pi / 4)] if ax_req <= math.pi / 4 else []
        ax_rand = rng.uniform(0.0, math.pi / 4)
        while abs(ax_rand - ax_req) < 1e-2:
            ax_rand = rng.uniform(0.0, math.pi / 4)
        candidates.append(ax_rand)
        for ax in candidates:
            q = ParamPoint(ax, p.ancilla, p.basis)
            holds = abs(relation_residual(q)) <= tol
            matches = abs(ax - ax_req) <= tol
            if holds == matches:
                agree += 1
            else:
                disagree += 1

        # constraint -> unitary-proportional branches
        pair = kraus_pair(ent(p.alpha_x), p.ancilla, p.basis)
        rep = branch_analysis(pair, tol)
        if rep.unitary_plus and rep.unitary_minus:
            unit_ok += 1
        else:
            unit_fail += 1

    # violating points: unitarity must fail with a clear margin
    n_viol = max(num_points // 10, 1)
    for _ in range(n_viol):
        while True:
            g, d, t = rng.uniform(0.3, TWO_PI - 0.3, 3)
            f = rng.uniform(0.3, TWO_PI - 0.3)
            pt = ParamPoint(math.pi / 4, AncillaSpec(g, d), MeasBasis(t, f))
            if abs(constraint_residual(pt)) > 0.05:
                break
        pair = kraus_pair(ent(math.pi / 4), pt.ancilla, pt.basis)
        rep = branch_analysis(pair, tol)
        if rep.unitary_plus and rep.unitary_minus:
            viol_missed += 1
        else:
            viol_detected += 1

    # rotation-row family: correctable <-> alpha_x matches the relation (pi/4)
    n_corr = max(num_points // 10, 1)
    for _ in range(n_corr):
        t = rng.uniform(0.2, math.pi - 0.2)
        anc = AncillaSpec(0.0)
        bas = MeasBasis(t, 0.0)
        ax_req = required_alpha_x(anc, bas)
        for ax in (math.pi / 4, rng.uniform(0.05, math.pi / 4 - 0.05)):
            pair = kraus_pair(ent(ax), anc, bas)
            rep = branch_analysis(pair, tol)
            correctable = (
                rep.one_step_correctable
                and rep.scale is not None
                and abs(abs(rep.scale) - 1.0) <= 1e-7
            )
            matches = abs(ax - ax_req) <= tol
            if correctable == matches:
                corr_agree += 1
            else:
                corr_disagree += 1

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
