"""Geometric data of the holomorphic tori: modulus, twistor angle, residuals.

Every torus in the quotient manifold descends from a map of the form
(homomorphism) * exp(constant).  For a reduced homomorphism the complex
modulus tau, the twistor rotation angle theta and the translation constant
are forced by the Cauchy-Riemann equations, and the one-parameter central
family D(lambda) sweeps out the rest of the moduli component.

The torus map is written once, as its logarithm, which is affine in (p, q),
and `cr_residual` reads its exact coefficients.  The point at (lam, p, q) is
exp of that logarithm times exp(lam (dp_h4 n3 - dp_h3 n4)).  The
Cauchy-Riemann defect of an affine map with dp h1 = dp h2 = 0 depends on q
alone, so the residual costs one row of floating evaluations per grid value
of q.

A solved torus is one flat `TorusSolution` of h, tau, theta and c0_n2;
the central period 1 / gcd(dp h3, dp h4) is read off h where it is needed.

Combinatorial data stays exact: the homomorphism in integers and the
translation constant c0_n2 n2 as a rational.  tau and theta live in
quadratic extensions, so they are carried in double precision and every
solution is checked numerically through `cr_residual`.  The
evaluation-cycle class is obtained by pulling the three generating 3-forms
back along the evaluation map.  On a reduced torus every pulled-back
1-form has constant coefficients, so each integral is an exact 3x3
determinant times the period of the central family, and the determinants
have a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .homs import HomDerivs
from .nilalg import H3Class, HomologyClass, Rat

__all__ = [
    "CR_GRID",
    "TorusSolution",
    "solve_torus_data",
    "cr_residual",
    "symplectic_area",
    "eval_class_integrate",
]

# The residual is the worst defect over CR_GRID x CR_GRID points of the unit
# square; every printed and checked residual uses this grid.
CR_GRID = 8


@dataclass(frozen=True)
class TorusSolution:
    """A reduced homomorphism together with its forced geometric data.

    tau = tau1 + i tau2 is the modulus, in the upper half-plane.  The
    twistor structure is the rotation [[cos, -sin], [sin, cos]], which
    carries the central directions (n3, n4) to (n1, n2); the complementary
    block is forced to be minus its inverse, which makes the induced 4x4 map
    square to -Id.  The translation constant is c0_n2 n2.
    """

    h: HomDerivs
    tau1: float
    tau2: float
    cos_theta: float
    sin_theta: float
    c0_n2: Fraction

    def __post_init__(self) -> None:
        if not self.tau2 > 0:
            raise ValueError("tau2 must be positive")
        if abs(self.cos_theta ** 2 + self.sin_theta ** 2 - 1.0) > 1e-12:
            raise ValueError("(cos, sin) must lie on the unit circle")

    def theta(self) -> float:
        return math.atan2(self.sin_theta, self.cos_theta)


def solve_torus_data(h: HomDerivs) -> TorusSolution:
    """Solve the Cauchy-Riemann constraints for a reduced homomorphism.

    tau2 is the norm ratio |(dq h1, dq h2)| / |(dp h3, dp h4)|, tau1 is
    dq h3 / dp h3, the rotation is the unique one carrying (dp h3, dp h4)
    to (dq h1, dq h2) / tau2, and the translation constant points along n2
    with coefficient (dq h4 - tau1 dp h4) / dq h1.  Raises ValueError when
    the squared norm of (dq h1, dq h2) or (dp h3, dp h4) passes the largest
    float, as it does once |dp h4| exceeds about 1.34e154.
    """
    if not h.is_reduced():
        raise ValueError("homomorphism must be reduced (dp h1 = dp h2 = 0)")
    if h.dp[2] == 0:
        raise ValueError("dp h3 = 0: modulus is undetermined and the "
                         "component is obstructed")
    if h.dq[0] == 0:
        raise ValueError("dq h1 must be nonzero")
    # h is reduced, so dp is its own Lie column.
    _, _, c, dd = h.dp
    _, (a, b, dq3, dq4) = h.lie
    try:
        norm_a = math.sqrt(float(a * a + b * b))
        norm_z = math.sqrt(float(c * c + dd * dd))
    except OverflowError:
        raise ValueError("a column of the homomorphism is too long for "
                         "a floating tau and theta") from None
    tau2 = norm_a / norm_z
    tau1_exact = Fraction(dq3, c)
    # Rotation taking u = (c, dd) to w / tau2 with w = (a, b); both have the
    # same norm, so cos and sin come from the dot and cross products.
    den = norm_a * norm_z
    cos_theta = float(c * a + dd * b) / den
    sin_theta = float(c * b - dd * a) / den
    return TorusSolution(h, float(tau1_exact), tau2, cos_theta, sin_theta,
                         (dq4 - tau1_exact * dd) / a)


Affine = Tuple[Rat, Rat, Rat]


def _log_coordinates(h: HomDerivs,
                     c0_n2: Fraction) -> Tuple[Affine, Affine, Affine, Affine]:
    """log(torus) = h + C + [h, C]/2 as exact (const, p, q) coefficients.

    C = c0_n2 n2.  The map is affine in (p, q).  h is reduced
    (dp h1 = dp h2 = 0), so w1 and w2 have no p term, and [h, C] is
    -q dq h1 c0_n2 n4.
    """
    (_, _, p3, p4), (a, b, q3, q4) = h.lie
    return (
        (0, 0, a),
        (c0_n2, 0, b),
        (0, p3, q3),
        (0, p4, q4 - a * c0_n2 / 2),
    )


def cr_residual(s: TorusSolution) -> float:
    """Max norm of the Cauchy-Riemann defect on a CR_GRID x CR_GRID grid.

    The defect at (p, q) is psi(du_a - [w, du_a]/2) - du_b + [w, du_b]/2
    where psi is the twistor structure, w the logarithm of the torus,
    du_a = dw/dp and
    du_b = (dw/dq - tau1 dw/dp) / tau2.  Coefficients of w are exact; the
    evaluation mixes in the floating tau and theta.

    w is affine, so du_a and du_b are constant.  [w, X] = (w2 X1 - X2 w1) n4
    reads only w1 and w2, which have no p term, and du_a has no n1 or n2
    part, so [w, du_a] = 0 and psi(du_a) is the rotation of its (n3, n4)
    part into (n1, n2).  The defect is therefore a function of q alone, and
    its maximum over the grid is the maximum over the grid values of q.
    w1 and w2 are rounded from their exact values, as
    float(Fraction) would round them: with q = num / den, const + slope q
    is one integer true division, (cn den + sn num) / (cd den), whose
    integers cn, sn and cd are the same in every row.
    """
    w = _log_coordinates(s.h, s.c0_n2)
    tau1, tau2 = s.tau1, s.tau2
    du_a = [float(dp) for _, dp, _ in w]
    du_b = [(float(dq) - tau1 * dpv) / tau2
            for (_, _, dq), dpv in zip(w, du_a)]
    cos, sin = s.cos_theta, s.sin_theta
    pu = (cos * du_a[2] - sin * du_a[3], sin * du_a[2] + cos * du_a[3],
          0.0, 0.0)
    # The first three defect components are the same in every row.
    fixed = [(pu[k] - du_b[k]) ** 2 for k in range(3)]
    (cn1, sn1, cd1), (cn2, sn2, cd2) = (
        (c.numerator * sl.denominator, sl.numerator * c.denominator,
         c.denominator * sl.denominator)
        for c, _, sl in w[:2])
    worst = 0.0
    for j in range(CR_GRID):
        num, den = (j / (CR_GRID - 1)).as_integer_ratio()
        w1 = (cn1 * den + sn1 * num) / (cd1 * den)
        w2 = (cn2 * den + sn2 * num) / (cd2 * den)
        v4 = du_b[3] - (w2 * du_b[0] - du_b[1] * w1) / 2
        defect = math.sqrt(sum((*fixed, (pu[3] - v4) ** 2)))
        worst = max(worst, defect)
    return worst


def symplectic_area(A: HomologyClass, cos_theta: float,
                    sin_theta: float) -> float:
    """Area of A against the symplectic form with twistor angle theta.

    The form is dt ^ (cos dx + sin dy) + (dz - x dy) ^ (-sin dx + cos dy);
    pairing it with the class gives
    -(cos (a23 + a14) + sin (a13 - a24)).
    """
    return -(cos_theta * (A.a23 + A.a14) + sin_theta * (A.a13 - A.a24))


def eval_class_integrate(s: TorusSolution) -> H3Class:
    """Class of the evaluation cycle by exact pullback integration.

    Pulls the forms dy^dt^g, dx^dt^g and dy^dx^g (g = dz - x dy) back along
    the evaluation map (lam, p, q) -> exp(w) exp(lam (dp_h4 n3 - dp_h3 n4)),
    w the logarithm `_log_coordinates` at (p, q), and integrates over
    [0, 1 / gcd(dp h3, dp h4)] x [0, 1]^2 with the orientation d lam ^ dp ^ dq.
    Every pulled-back 1-form has constant coefficients.  In the
    (d lam, dp, dq) basis, with a, b = dq h1, dq h2:
    - dx = (0, 0, b) and dy = (0, 0, a);
    - dt = (dp h4, dp h3, dq h3);
    - the q^2 terms of g cancel, so g = (-dp h3, dp h4, g_q) with a
      constant g_q that depends on the translation constant.
    Each integrand is therefore a 3x3 determinant times the box volume.
    dx and dy are multiples of dq, so the dq parts of dt and g never reach
    the result, dy^dx^g vanishes, and the other two determinants are
    a (dp h3^2 + dp h4^2) and b (dp h3^2 + dp h4^2).  The class is

        -(dp h3^2 + dp h4^2) / gcd(dp h3, dp h4) (a E134 + b E234),

    independent of the translation constant.  Cycle coefficients carry the
    pairing convention under which the one-component class with invariants
    (1, 0) comes out as +E134 + E234.
    """
    _, _, c, dd = s.h.dp  # reduced, so dd is dp h4
    a, b = s.h.dq[:2]
    scale = Fraction(-(c ** 2 + dd ** 2), math.gcd(c, dd))
    return H3Class(scale * a, scale * b, 0)
