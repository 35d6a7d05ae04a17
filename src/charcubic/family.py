"""The cubic family kappa_{P,Q,R}(x,y,z) = x^2+y^2+z^2-xyz-Px-Qy-Rz-2.

Critical points are found by solving the gradient system

    2x - yz = P,   2y - xz = Q,   2z - xy = R.

Away from z = +-2 the first two equations are an invertible linear system in
x, y with determinant 4 - z^2; substituting the solution

    x = (2P + Qz)/(4 - z^2),   y = (2Q + Pz)/(4 - z^2)

into the third equation and clearing denominators gives the eliminant

    E(z) = (2z - R)(4 - z^2)^2 - (2P + Qz)(2Q + Pz),

a degree-5 polynomial with leading coefficient 2 for every parameter choice,
so the critical locus is always finite.  The z = +-2 locus is handled by
direct substitution: z = 2e (e = +-1) forces Q = -eP, x = P/2 + ey, and y
then satisfies the monic quadratic y^2 + (eP/2) y + (eR - 4) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from . import univariate as uni
from .matrices import Matrix, char_poly
from .multipoly import MAP_VARS, MultiPoly
from .univariate import _exact, _fraction

SYMBOLIC_VARS = ("x", "y", "z", "P", "Q", "R")


class KappaParams(NamedTuple):
    P: Fraction
    Q: Fraction
    R: Fraction

    @classmethod
    def of(cls, p, q, r):
        return cls(_fraction(p), _fraction(q), _fraction(r))


def as_params(params) -> KappaParams:
    p, q, r = params  # a KappaParams built directly is admitted too
    return KappaParams.of(p, q, r)


def build_kappa(params=None, symbolic: bool = False) -> MultiPoly:
    """The family member as an exact polynomial.

    With symbolic=True the result lives in Q[x,y,z,P,Q,R] and `params` must be
    omitted; otherwise it lives in Q[x,y,z] at the given parameters.
    """
    if symbolic:
        if params is not None:
            raise ValueError("symbolic mode takes no parameter values")
        x, y, z, p, q, r = MultiPoly.gens(*SYMBOLIC_VARS)
        return x**2 + y**2 + z**2 - x * y * z - p * x - q * y - r * z - 2
    if params is None:
        raise ValueError("parameter triple required when symbolic=False")
    p, q, r = as_params(params)
    x, y, z = MultiPoly.gens(*MAP_VARS)
    return x**2 + y**2 + z**2 - x * y * z - p * x - q * y - r * z - 2


def kappa_gradient(params) -> tuple:
    k = build_kappa(params)
    return tuple(k.derivative(v) for v in MAP_VARS)


def eliminant(params) -> list:
    """Ascending coefficients of E(z); degree 5, leading coefficient 2."""
    p, q, r = as_params(params)
    four_minus = [Fraction(4), Fraction(0), Fraction(-1)]
    left = uni.mul([-r, Fraction(2)], uni.mul(four_minus, four_minus))
    right = uni.mul([2 * p, q], [2 * q, p])
    return uni.sub(left, right)


@dataclass(frozen=True)
class CriticalPoint:
    """One critical point of kappa_{P,Q,R}, or a full conjugacy class of them.

    Rational points carry `point`; an algebraic class instead carries the monic
    square-free `min_poly` satisfied by the coordinate named `root_var`,
    together with `parametrization` = polynomials in that root giving (x, y, z).
    `value` is the critical value when rational; otherwise `value_poly` is a
    monic polynomial (with no rational roots) annihilating it.
    """

    multiplicity: int
    point: Optional[tuple] = None
    min_poly: Optional[tuple] = None
    root_var: str = "z"
    parametrization: Optional[tuple] = None
    value: Optional[Fraction] = None
    value_poly: Optional[tuple] = None

    def is_rational(self) -> bool:
        return self.point is not None

    def degree(self) -> int:
        """Number of conjugate points described by this record."""
        return 1 if self.point is not None else uni.degree(list(self.min_poly))

    def weight(self) -> int:
        return self.degree() * self.multiplicity

    def to_jsonable(self) -> dict:
        out = {"multiplicity": self.multiplicity}
        if self.point is not None:
            out["point"] = [str(c) for c in self.point]
        else:
            out["minpoly"] = {"variable": self.root_var,
                              "coefficients_low_to_high": [str(c) for c in self.min_poly]}
            out["parametrization"] = {
                v: [str(c) for c in poly]
                for v, poly in zip(MAP_VARS, self.parametrization)
            }
        if self.value is not None:
            out["value"] = str(self.value)
        else:
            out["value_minpoly"] = [str(c) for c in self.value_poly]
        return out

    def __str__(self):
        if self.point is not None:
            body = "(%s, %s, %s)" % self.point
            return "%s  [multiplicity %d, value %s]" % (body, self.multiplicity, self.value)
        mp = uni.to_string(list(self.min_poly), self.root_var)
        val = str(self.value) if self.value is not None else \
            "root of " + uni.to_string(list(self.value_poly), "v")
        return "%d conjugate points with %s = 0  [multiplicity %d, value %s]" % (
            self.degree(), mp, self.multiplicity, val)


def _kappa_on_curve(params, xs, ys, zs):
    """kappa_{P,Q,R}(x(s), y(s), z(s)) for ascending coefficient lists over
    any ring whose elements add and multiply with Fractions."""
    p, q, r = params
    acc = uni.add(uni.add(uni.mul(xs, xs), uni.mul(ys, ys)), uni.mul(zs, zs))
    acc = uni.sub(acc, uni.mul(uni.mul(xs, ys), zs))
    acc = uni.sub(acc, uni.add(uni.add(uni.scale(xs, p), uni.scale(ys, q)), uni.scale(zs, r)))
    return uni.sub(acc, [Fraction(2)])


def _value_of_class(params, xs, ys, zs, modulus):
    """(value, value_poly) for the conjugacy class cut out by `modulus`.

    The critical value v(s) is computed mod the minimal polynomial; when it is
    a constant the class has one shared rational value.  Otherwise its minimal
    polynomial is the characteristic polynomial of multiplication by v(s) on
    Q[s]/(modulus); any rational roots of that polynomial are not split off
    here (the class description keeps one annihilating polynomial) but are
    split in `critical_values`, which works with root multiplicities.
    """
    v = uni.poly_mod(_kappa_on_curve(params, xs, ys, zs), modulus)
    if uni.degree(v) <= 0:
        return (v[0] if v else Fraction(0)), None
    d = uni.degree(modulus)
    cols = []
    power = [Fraction(1)]
    for _ in range(d):
        col = uni.poly_mod(uni.mul(v, power), modulus)
        cols.append([col[i] if i < len(col) else Fraction(0) for i in range(d)])
        power = uni.poly_mod([Fraction(0)] + power, modulus)
    mult_matrix = Matrix([[cols[j][i] for j in range(d)] for i in range(d)])
    return None, tuple(char_poly(mult_matrix))


def critical_points(params) -> list:
    """Complete solution set of the gradient system, exactly.

    Rational solutions come back as explicit triples; irrational ones as
    conjugacy classes under a square-free factor of the eliminant (or of the
    z = +-2 branch quadratic).  Weights (degree x multiplicity) always sum to
    the eliminant degree 5.  Because the eliminant is monic up to the constant
    leading coefficient 2 and the branch quadratics are monic, the system can
    never acquire a positive-dimensional component.
    """
    params = as_params(params)
    p, q, r = params
    elim = eliminant(params)
    out = []

    # z = +-2 branch: divide the branch roots out of the eliminant first so
    # the generic parametrization below never sees a vanishing denominator.
    rest = elim
    for eps in (1, -1):
        z0 = Fraction(2 * eps)
        m, rest = uni.root_multiplicity(rest, z0)
        if m == 0:
            continue
        quad = [eps * r - 4, Fraction(eps * p, 2), Fraction(1)]
        disc = quad[1] * quad[1] - 4 * quad[0]
        yroots, leftover = uni.rational_roots(quad)
        if disc == 0:
            y0 = yroots[0][0]
            out.append(_rational_point(params, (p / 2 + eps * y0, y0, z0), m))
        elif m != 2:
            raise ArithmeticError("distinct branch roots force a double eliminant "
                                  "root, found multiplicity %d" % m)
        elif yroots:
            for y0, _ in yroots:
                out.append(_rational_point(params, (p / 2 + eps * y0, y0, z0), 1))
        else:
            xs = [p / 2, Fraction(eps)]  # x = P/2 + eps*y
            ys = [Fraction(0), Fraction(1)]
            zs = [z0]
            value, vpoly = _value_of_class(params, xs, ys, zs, leftover)
            out.append(CriticalPoint(multiplicity=1, min_poly=tuple(leftover),
                                     root_var="y", parametrization=(tuple(xs), tuple(ys), tuple(zs)),
                                     value=value, value_poly=vpoly))

    # generic branch: rational roots of the remaining eliminant, then
    # square-free classes for whatever stays irrational
    roots, quotient = uni.rational_roots(rest)
    for z0, m in roots:
        x0 = (2 * p + q * z0) / (4 - z0 * z0)
        y0 = (2 * q + p * z0) / (4 - z0 * z0)
        out.append(_rational_point(params, (x0, y0, z0), m))
    if uni.degree(quotient) > 0:
        for factor, m in uni.squarefree_decomposition(quotient):
            pieces = []
            quads, leftover = uni.split_even_factor(factor)
            pieces.extend(quads)
            if uni.degree(leftover) > 0:
                pieces.append(leftover)
            for piece in pieces:
                out.append(_algebraic_generic_point(params, piece, m))
    return out


def _rational_point(params, pt, multiplicity) -> CriticalPoint:
    value = build_kappa(params).evaluate(dict(zip(MAP_VARS, pt)))
    return CriticalPoint(multiplicity=multiplicity, point=pt, value=_fraction(value))


def _algebraic_generic_point(params, factor, multiplicity) -> CriticalPoint:
    p, q, r = params
    factor = uni.monic(factor)
    # x, y as polynomials in the root: invert 4 - z^2 modulo the factor
    # (coprime because the factor has no root at +-2)
    inv = uni.invert_mod([Fraction(4), Fraction(0), Fraction(-1)], factor)
    xs = uni.poly_mod(uni.mul([2 * p, q], inv), factor)
    ys = uni.poly_mod(uni.mul([2 * q, p], inv), factor)
    zs = [Fraction(0), Fraction(1)]
    value, vpoly = _value_of_class(params, xs, ys, zs, factor)
    return CriticalPoint(multiplicity=multiplicity, min_poly=tuple(factor),
                         root_var="z", parametrization=(tuple(xs), tuple(ys), tuple(zs)),
                         value=value, value_poly=vpoly)


def total_multiplicity(params) -> int:
    return sum(cp.weight() for cp in critical_points(params))


def critical_values(params) -> list:
    """Critical values grouped with total multiplicities.

    Returns a sorted list of (value, total) pairs with rational values first;
    an irrational conjugate class of values appears as (coefficient tuple of
    its monic rational-root-free annihilating polynomial, total).
    """
    return _group_values(critical_points(params))


def _group_values(points) -> list:
    """critical_values of a list of critical points (see critical_values)."""
    grouped = {}
    residual = []
    for cp in points:
        if cp.value is not None:
            grouped[cp.value] = grouped.get(cp.value, 0) + cp.weight()
            continue
        # split any rational eigenvalues of the value class before reporting
        roots, rest = uni.rational_roots(list(cp.value_poly))
        for v, k in roots:
            grouped[v] = grouped.get(v, 0) + k * cp.multiplicity
        if uni.degree(rest) > 0:
            residual.append((tuple(uni.monic(rest)), uni.degree(rest) * cp.multiplicity))
    out = sorted(grouped.items())
    for poly, m in sorted(residual):
        out.append((poly, m))
    return out


def hessian(params, point) -> tuple:
    """(matrix of second partials at the point, nondegeneracy flag).

    The point must be critical; feeding a non-critical point raises ValueError.
    """
    params = as_params(params)
    x0, y0, z0 = map(_fraction, point)
    grad = kappa_gradient(params)
    vals = {"x": x0, "y": y0, "z": z0}
    if any(g.evaluate(vals) != 0 for g in grad):
        raise ValueError("point (%s, %s, %s) is not critical for parameters (%s, %s, %s)"
                         % (x0, y0, z0, *params))
    h = Matrix([[2, -z0, -y0], [-z0, 2, -x0], [-y0, -x0, 2]])
    return h, h.det() != 0


def fiber_is_smooth(params, t) -> bool:
    """Whether the level set kappa_{P,Q,R} = t misses every critical value."""
    t = _exact(t)
    for value, _ in critical_values(as_params(params)):
        if isinstance(value, tuple):
            # a rational t cannot be a root of a rational-root-free polynomial,
            # but check anyway: exactness is cheap
            if uni.eval_at(list(value), t) == 0:
                return False
        elif value == t:
            return False
    return True
