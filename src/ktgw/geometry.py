"""Geometric data of the holomorphic tori: modulus, twistor angle, residuals.

Every torus in the quotient manifold descends from a map of the form
(homomorphism) * exp(constant).  For a reduced homomorphism the complex
modulus tau, the twistor rotation angle theta and the translation constant
are forced by the Cauchy-Riemann equations, and the one-parameter central
family D(lambda) sweeps out the rest of the moduli component.

The torus map is written once, as its logarithm, which is affine in (p, q);
the polynomial group coordinates used by `curve_point` and
`eval_class_integrate` derive from it, and `cr_residual` reads its exact
coefficients directly.  The Cauchy-Riemann defect of an affine map with
dp h1 = dp h2 = 0 depends on q alone, so the residual costs one row of
floating evaluations per grid value of q and no polynomial evaluation.

Combinatorial data stays in exact rationals; tau and theta live in quadratic
extensions, so they are carried in double precision and every solution is
re-validated numerically through `cr_residual`.  The evaluation-cycle class
is obtained by pulling the three generating 3-forms back along the
evaluation map and integrating the resulting polynomial forms exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .homs import HomDerivs, validate
from .nilalg import GroupElem, H3Class, HomologyClass, LieAlgElem

__all__ = [
    "TwistorStructure",
    "TorusModulus",
    "TorusSolution",
    "solve_torus_data",
    "curve_point",
    "cr_residual",
    "symplectic_area",
    "eval_class_integrate",
    "Poly",
]


# ---------------------------------------------------------------------------
# Exact polynomials in (lam, p, q) and their differential forms
# ---------------------------------------------------------------------------

Monomial = Tuple[int, int, int]


class Poly:
    """Polynomial in the variables (lam, p, q) with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, Fraction] | None = None) -> None:
        clean: Dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff:
                    clean[mono] = coeff
        self.terms = clean

    @classmethod
    def const(cls, value) -> "Poly":
        return cls({(0, 0, 0): Fraction(value)})

    @classmethod
    def var(cls, index: int) -> "Poly":
        mono = [0, 0, 0]
        mono[index] = 1
        return cls({tuple(mono): Fraction(1)})

    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
        return Poly(terms)

    def __sub__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, Fraction(0)) - coeff
        return Poly(terms)

    def __neg__(self) -> "Poly":
        return Poly({mono: -coeff for mono, coeff in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        terms: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                terms[mono] = terms.get(mono, Fraction(0)) + c1 * c2
        return Poly(terms)

    def scale(self, value) -> "Poly":
        value = Fraction(value)
        return Poly({m: value * c for m, c in self.terms.items()})

    def diff(self, index: int) -> "Poly":
        terms: Dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[index]
            if e:
                lowered = list(mono)
                lowered[index] = e - 1
                terms[tuple(lowered)] = coeff * e
        return Poly(terms)

    def integrate_box(self, lam_hi: Fraction) -> Fraction:
        """Integral over [0, lam_hi] x [0, 1] x [0, 1]."""
        total = Fraction(0)
        for (i, j, k), coeff in self.terms.items():
            total += coeff * lam_hi ** (i + 1) / ((i + 1) * (j + 1) * (k + 1))
        return total

    def eval(self, lam, p, q):
        total = 0
        for (i, j, k), coeff in self.terms.items():
            total += coeff * lam ** i * p ** j * q ** k
        return total

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"Poly({self.terms!r})"


OneForm = Tuple[Poly, Poly, Poly]


def differential(f: Poly) -> OneForm:
    return (f.diff(0), f.diff(1), f.diff(2))


def form_sub(a: OneForm, b: OneForm) -> OneForm:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def form_scale(f: Poly, a: OneForm) -> OneForm:
    return (f * a[0], f * a[1], f * a[2])


def wedge3(a: OneForm, b: OneForm, c: OneForm) -> Poly:
    """Coefficient of d lam ^ dp ^ dq in a ^ b ^ c."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


# ---------------------------------------------------------------------------
# Torus data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwistorStructure:
    """Orthogonal complex structure in the twistor circle, by its rotation.

    The rotation with matrix [[cos, -sin], [sin, cos]] carries the central
    directions (n3, n4) to (n1, n2); the complementary block is forced to be
    minus its inverse, which makes the induced 4x4 map square to -Id.
    """

    cos_theta: float
    sin_theta: float

    def __post_init__(self) -> None:
        if abs(self.cos_theta ** 2 + self.sin_theta ** 2 - 1.0) > 1e-12:
            raise ValueError("(cos, sin) must lie on the unit circle")

    def theta(self) -> float:
        return math.atan2(self.sin_theta, self.cos_theta)

    def apply(self, v: Tuple[float, float, float, float]) -> Tuple[float, float, float, float]:
        """Action on Lie algebra coordinates (c1, c2, c3, c4)."""
        c, s = self.cos_theta, self.sin_theta
        return (
            c * v[2] - s * v[3],
            s * v[2] + c * v[3],
            -c * v[0] - s * v[1],
            s * v[0] - c * v[1],
        )

    def matrix(self) -> Tuple[Tuple[float, ...], ...]:
        c, s = self.cos_theta, self.sin_theta
        return (
            (0.0, 0.0, c, -s),
            (0.0, 0.0, s, c),
            (-c, -s, 0.0, 0.0),
            (s, -c, 0.0, 0.0),
        )


@dataclass(frozen=True)
class TorusModulus:
    """Point tau = tau1 + i tau2 of the upper half-plane."""

    tau1: float
    tau2: float

    def __post_init__(self) -> None:
        if not self.tau2 > 0:
            raise ValueError("tau2 must be positive")


@dataclass(frozen=True)
class TorusSolution:
    """A reduced homomorphism together with its forced geometric data."""

    h: HomDerivs
    modulus: TorusModulus
    psi: TwistorStructure
    c0: LieAlgElem
    lambda_period: Fraction


def _require_solvable(h: HomDerivs) -> None:
    if not validate(h):
        raise ValueError("not a lattice-compatible homomorphism")
    if not h.is_reduced():
        raise ValueError("homomorphism must be reduced (dp h1 = dp h2 = 0)")
    if h.dp.c3 == 0:
        raise ValueError("dp h3 = 0: modulus is undetermined and the "
                         "component is obstructed")
    if h.dq.c1 == 0:
        raise ValueError("dq h1 must be nonzero")


def solve_torus_data(h: HomDerivs) -> TorusSolution:
    """Solve the Cauchy-Riemann constraints for a reduced homomorphism.

    tau2 is the norm ratio |(dq h1, dq h2)| / |(dp h3, dp h4)|, tau1 is
    dq h3 / dp h3, the rotation is the unique one carrying (dp h3, dp h4)
    to (dq h1, dq h2) / tau2, and the translation constant points along n2
    with coefficient (dq h4 - tau1 dp h4) / dq h1.
    """
    _require_solvable(h)
    a, b = h.dq.c1, h.dq.c2
    c, dd = h.dp.c3, h.dp.c4
    norm_a_sq = a * a + b * b
    norm_z_sq = c * c + dd * dd
    tau2 = math.sqrt(float(norm_a_sq)) / math.sqrt(float(norm_z_sq))
    tau1_exact = h.dq.c3 / c
    # Rotation taking u = (c, dd) to w / tau2 with w = (a, b); both have the
    # same norm, so cos and sin come from the dot and cross products.
    den = math.sqrt(float(norm_a_sq)) * math.sqrt(float(norm_z_sq))
    cos_theta = float(c * a + dd * b) / den
    sin_theta = float(c * b - dd * a) / den
    c0_coeff = (h.dq.c4 - tau1_exact * dd) / a
    period = Fraction(1, math.gcd(int(c), int(dd)))
    return TorusSolution(
        h=h,
        modulus=TorusModulus(float(tau1_exact), tau2),
        psi=TwistorStructure(cos_theta, sin_theta),
        c0=LieAlgElem(0, c0_coeff, 0, 0),
        lambda_period=period,
    )


Affine = Tuple[Fraction, Fraction, Fraction]


def _log_coordinates(h: HomDerivs, c0: LieAlgElem) -> Tuple[Affine, Affine, Affine, Affine]:
    """log(torus) = h + C + [h, C]/2 as exact (const, p, q) coefficients.

    The map is affine in (p, q).  h is reduced (dp h1 = dp h2 = 0), so w1
    and w2 have no p term, and [h, C] is q (dq h2 C1 - dq h1 C2) n4.
    """
    a, b = h.dq.c1, h.dq.c2
    bracket_coeff = (b * c0.c1 - a * c0.c2) / 2
    zero = Fraction(0)
    return (
        (c0.c1, zero, a),
        (c0.c2, zero, b),
        (c0.c3, h.dp.c3, h.dq.c3),
        (c0.c4, h.dp.c4, h.dq.c4 + bracket_coeff),
    )


def _group_map(s: TorusSolution) -> Tuple[Poly, Poly, Poly, Poly]:
    """Coordinates (x, y, z, log t) of exp(w) exp(lam (dp_h4 n3 - dp_h3 n4)).

    w is `_log_coordinates`; the central family shifts only z and log t.
    """
    w1, w2, w3, w4 = (Poly({(0, 1, 0): dp, (0, 0, 1): dq, (0, 0, 0): const})
                      for const, dp, dq in _log_coordinates(s.h, s.c0))
    lam = Poly.var(0)
    z = w4 + (w1 * w2).scale(Fraction(1, 2)) - lam.scale(s.h.dp.c3)
    return w2, w1, z, w3 + lam.scale(s.h.dp.c4)


def curve_point(s: TorusSolution, lam, p, q) -> GroupElem:
    """Point exp(p dp + q dq) exp(c0) exp(lam (dp_h4 n3 - dp_h3 n4)) of the torus."""
    lam, p, q = Fraction(lam), Fraction(p), Fraction(q)
    return GroupElem(*(f.eval(lam, p, q) for f in _group_map(s)))


def _affine_float(const: Fraction, slope: Fraction, q: float) -> float:
    """float(const + slope q), correctly rounded, by one integer division."""
    num, den = q.as_integer_ratio()
    return ((const.numerator * slope.denominator * den
             + slope.numerator * const.denominator * num)
            / (const.denominator * slope.denominator * den))


def cr_residual(s: TorusSolution, grid: int = 8) -> float:
    """Max norm of the Cauchy-Riemann defect over a grid on the unit square.

    The defect at (p, q) is psi(du_a - [w, du_a]/2) - du_b + [w, du_b]/2
    where w is the logarithm of the torus, du_a = dw/dp and
    du_b = (dw/dq - tau1 dw/dp) / tau2.  Coefficients of w are exact; the
    evaluation mixes in the floating tau and theta.

    w is affine, so du_a and du_b are constant.  [w, X] = (w2 X1 - X2 w1) n4
    reads only w1 and w2, which have no p term, and du_a has no n1 or n2
    part, so [w, du_a] = 0.  The defect is therefore a function of q alone,
    and its maximum over the grid x grid points is the maximum over the grid
    values of q.  w1 and w2 are rounded from their exact values, as
    float(Fraction) would round them.
    """
    if grid < 2:
        raise ValueError("grid must be at least 2")
    w = _log_coordinates(s.h, s.c0)
    tau1, tau2 = s.modulus.tau1, s.modulus.tau2
    du_a = [float(dp) for _, dp, _ in w]
    du_b = [(float(dq) - tau1 * dpv) / tau2
            for (_, _, dq), dpv in zip(w, du_a)]
    pu = s.psi.apply(tuple(du_a))
    # The first three defect components are the same in every row.
    fixed = [(pu[k] - du_b[k]) ** 2 for k in range(3)]
    (c1, _, a), (c2, _, b) = w[0], w[1]
    worst = 0.0
    for j in range(grid):
        q = j / (grid - 1)
        w1, w2 = _affine_float(c1, a, q), _affine_float(c2, b, q)
        v4 = du_b[3] - (w2 * du_b[0] - du_b[1] * w1) / 2
        defect = math.sqrt(sum((*fixed, (pu[3] - v4) ** 2)))
        worst = max(worst, defect)
    return worst


def symplectic_area(A: HomologyClass, theta: float) -> float:
    """Area of A against the symplectic form with twistor angle theta.

    The form is dt ^ (cos dx + sin dy) + (dz - x dy) ^ (-sin dx + cos dy);
    pairing it with the class gives
    -(cos (a23 + a14) + sin (a13 - a24)).
    """
    return -(math.cos(theta) * (A.a23 + A.a14)
             + math.sin(theta) * (A.a13 - A.a24))


def eval_class_integrate(s: TorusSolution) -> H3Class:
    """Class of the evaluation cycle by exact pullback integration.

    Pulls the forms dy^dt^g, dx^dt^g and dy^dx^g (g = dz - x dy) back along
    the polynomial evaluation map `_group_map` and integrates over
    [0, lambda_period] x [0, 1]^2 with the orientation d lam ^ dp ^ dq.
    Cycle coefficients carry the pairing convention under which the
    one-component class with invariants (1, 0) comes out as +E134 + E234.
    """
    x, y, z, t = _group_map(s)
    dx, dy, dz, dt = (differential(f) for f in (x, y, z, t))
    gamma = form_sub(dz, form_scale(x, dy))
    raw_134 = wedge3(dy, dt, gamma).integrate_box(s.lambda_period)
    raw_234 = wedge3(dx, dt, gamma).integrate_box(s.lambda_period)
    raw_124 = wedge3(dy, dx, gamma).integrate_box(s.lambda_period)
    return H3Class(-raw_134, -raw_234, -raw_124)
