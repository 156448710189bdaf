"""Geometric data of the holomorphic tori: modulus, twistor angle, residuals.

Every torus in the quotient manifold descends from a map of the form
(homomorphism) * exp(constant).  For a reduced homomorphism the complex
modulus tau, the twistor rotation angle theta and the translation constant
are forced by the Cauchy-Riemann equations, and the one-parameter central
family D(lambda) sweeps out the rest of the moduli component.

The torus map is exp of its logarithm h + C + [h, C]/2, C = c0_n2 n2, times
exp(lam (dp_h4 n3 - dp_h3 n4)) at (lam, p, q): a lattice homomorphism
times exp of a constant.  The twistor structure is left-invariant, so the
torus is pseudoholomorphic at one point exactly when it is at every point,
and its Cauchy-Riemann defect is the same at every (p, q).  The residual
is that defect at p = q = 0, formed from the eight integers of h and c0_n2.

The moduli components with label (d, k, l) of one class share, for each
divisor d, the columns (dq h1, dq h2) and (dp h3, dp h4), and so tau2,
theta and the terms of the defect that read only those.  Per label remain
dq h3, dq h4, tau1, c0_n2 and the rest of the defect.  `solve_columns`
forms a divisor's tau2 and rotation from its columns alone, and
`label_solver` its part of the defect once; it returns the per-label
function, which gives tau1, c0_n2 and the residual from (dq h3, dq h4) in
one call.  The central period 1 / gcd(dp h3, dp h4) is read off h where
it is needed.

Combinatorial data stays exact: the homomorphism in integers and the
translation constant c0_n2 n2 as a rational.  tau and theta live in
quadratic extensions, so they are carried in double precision and every
solution is checked numerically through its residual.  The
evaluation-cycle class is obtained by pulling the three generating 3-forms
back along the evaluation map.  On a reduced torus every pulled-back
1-form has constant coefficients, so each integral is an exact 3x3
determinant times the period of the central family, and the determinants
have a closed form.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .homs import HomDerivs
from .nilalg import H3Class, HomologyClass, Rational

__all__ = [
    "solve_columns",
    "label_solver",
    "symplectic_area",
    "eval_class_integrate",
]


def solve_columns(c: int, e: int, a: int, b: int) -> tuple[float, float,
                                                           float]:
    """tau2 = |(a, b)| / |(c, e)| and the rotation (cos theta, sin theta)
    carrying (c, e) to (a, b) / tau2, shared by every torus with columns
    (c, e) = (dp h3, dp h4), c != 0, and (a, b) = (dq h1, dq h2), a != 0.
    Raises ValueError when the squared norm of (a, b) or (c, e) passes the
    largest float, as it does once |dp h4| exceeds about 1.34e154."""
    try:
        norm_a = math.sqrt(float(a * a + b * b))
        norm_z = math.sqrt(float(c * c + e * e))
    except OverflowError:
        raise ValueError("a column of the homomorphism is too long for "
                         "a floating tau and theta") from None
    # Rotation taking u = (c, e) to w / tau2 with w = (a, b); both have the
    # same norm, so cos and sin come from the dot and cross products.
    den = norm_a * norm_z
    return (norm_a / norm_z, float(c * a + e * b) / den,
            float(c * b - e * a) / den)


def _label_terms(a: int, b: int, c: int, e: int, q3: int,
                 z: int) -> tuple[float, int, int]:
    """tau1 = q3 / c, and the numerator and denominator of the translation
    constant c0_n2 = (z - a b / 2 - tau1 e) / a in lowest terms, the
    denominator positive: what a torus does not share with the others of
    its columns, read from its dq h3 = q3 and dq h4 = z."""
    num, den = (2 * z - a * b) * c - 2 * q3 * e, 2 * c * a
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    # + 0.0 turns the -0.0 of 0 / c, c < 0, into 0.0, the float of exact 0.
    return q3 / c + 0.0, num // g, den // g


_RESIDUAL_OVERFLOW = ("the Cauchy-Riemann defect of this torus passes the "
                      "largest float")


def label_solver(c: int, e: int, a: int, b: int, tau2: float, cos: float,
                 sin: float) -> Callable[[int, int],
                                         tuple[float, int, int, float]]:
    """The per-label function of the tori that share the columns (c, e) =
    (dp h3, dp h4) and (a, b) = (dq h1, dq h2), the modulus part tau2 and
    the rotation (cos, sin) of theta.

    It takes dq h3 and dq h4 of one such torus and returns its tau1, the
    numerator and denominator of its c0_n2, by `_label_terms`, and its
    Cauchy-Riemann residual: the norm of the defect at p = q = 0.

    The defect at (p, q) is psi(du_a - [w, du_a]/2) - du_b + [w, du_b]/2
    where psi is the twistor structure, w the logarithm of the torus,
    du_a = dw/dp and du_b = (dw/dq - tau1 dw/dp) / tau2.  With q3, z =
    dq h3, dq h4: w1 = a q, w2 = c0_n2 + b q, w3 = c p + q3 q and
    w4 = e p + (z - a b/2 - a c0_n2/2) q.  [w, X] = (w2 X1 - X2 w1) n4
    reads only w1 and w2, which have no p term, and du_a has no n1 or n2
    part, so [w, du_a] = 0 and psi(du_a) is the rotation of (c, e) into
    (n1, n2).  du_b has n1 and n2 parts b1 = a / tau2 and b2 = b / tau2, so
    the n4 part (c0_n2 + b q) b1 - b2 a q = c0_n2 b1 of [w, du_b] has no q
    either: the defect is one constant vector, and one point gives the
    residual.  Each exact coefficient is rounded correctly, by one integer
    true division of its numerator by its denominator.

    The terms of the residual that read only the shared data are formed
    once, here: du_b's n1 and n2 parts b1, b2 and the two fixed squares of
    the n1 and n2 defect.  The returned function forms the rest.  Each part
    raises ValueError when a square passes the largest float.
    """
    try:
        fc, fe = float(c), float(e)
        # du_b; its n1 and n2 parts have no tau1 term, since dw/dp has none.
        b1, b2 = a / tau2, b / tau2
        fixed = ((cos * fc - sin * fe - b1) ** 2,
                 (sin * fc + cos * fe - b2) ** 2)
    except OverflowError:
        raise ValueError(_RESIDUAL_OVERFLOW) from None

    def label(q3: int, z: int) -> tuple[float, int, int, float]:
        tau1, c0n, c0d = _label_terms(a, b, c, e, q3, z)
        try:
            b3 = (q3 - tau1 * fc) / tau2
            b4 = (((2 * z - a * b) * c0d - a * c0n) / (2 * c0d)
                  - tau1 * fe) / tau2
            squares = (*fixed, b3 ** 2, (b4 - c0n / c0d * b1 / 2) ** 2)
        except OverflowError:
            raise ValueError(_RESIDUAL_OVERFLOW) from None
        return tau1, c0n, c0d, math.sqrt(sum(squares))

    return label


def symplectic_area(A: HomologyClass, cos_theta: float,
                    sin_theta: float) -> float:
    """Area of A against the symplectic form with twistor angle theta.

    The form is dt ^ (cos dx + sin dy) + (dz - x dy) ^ (-sin dx + cos dy);
    pairing it with the class gives
    -(cos (a23 + a14) + sin (a13 - a24)).
    """
    return -(cos_theta * (A.a23 + A.a14) + sin_theta * (A.a13 - A.a24))


def eval_class_integrate(h: HomDerivs) -> H3Class:
    """Class of the evaluation cycle of a solved torus of the reduced
    homomorphism h, by exact pullback integration.

    Pulls the forms dy^dt^g, dx^dt^g and dy^dx^g (g = dz - x dy) back along
    the evaluation map (lam, p, q) -> exp(w) exp(lam (dp_h4 n3 - dp_h3 n4)),
    w the logarithm of the torus at (p, q), and integrates over
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

    independent of the translation constant, so h is all it reads.  Cycle
    coefficients carry the pairing convention under which the
    one-component class with invariants (1, 0) comes out as +E134 + E234.
    """
    _, _, c, dd = h.dp  # reduced, so dd is dp h4
    a, b = h.dq[:2]
    num, den = -(c * c + dd * dd), math.gcd(c, dd)
    return H3Class(Rational(num * a, den), Rational(num * b, den), 0)
