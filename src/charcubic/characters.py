"""Trace coordinates: the dictionary between 2x2 unimodular matrices and
points of the cubic family.

Pairs (A, B) give torus characters (tr A, tr B, tr AB) landing on the fiber
of the parameter-free member at the commutator trace.  Triples (D1, D2, D3)
with D4 = (D1 D2 D3)^-1 give four boundary traces t_i = tr D_i, parameters

    P = -(t1 t2 + t3 t4),  Q = -(t1 t4 + t2 t3),  R = -(t1 t3 + t2 t4),
    S = 2 - t1^2 - t2^2 - t3^2 - t4^2 - t1 t2 t3 t4,

and the sign-reversed point (-tr D1D2, -tr D2D3, -tr D3D1) satisfying
kappa_{P,Q,R} = S exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .family import KappaParams, build_kappa
from .matrices import Matrix
from .multipoly import MultiPoly
from .univariate import _exact, _fraction


class Sl2Matrix:
    """2x2 rational matrix with determinant 1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = map(_fraction, (a, b, c, d))
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be 1, got %s"
                             % (self.a * self.d - self.b * self.c))

    @classmethod
    def identity(cls):
        return cls(1, 0, 0, 1)

    @classmethod
    def from_rows(cls, rows):
        (a, b), (c, d) = rows
        return cls(a, b, c, d)

    def _matrix(self) -> Matrix:
        return Matrix(((self.a, self.b), (self.c, self.d)))

    def __mul__(self, other):
        if not isinstance(other, Sl2Matrix):
            return NotImplemented
        return Sl2Matrix.from_rows((self._matrix() * other._matrix()).rows)

    def inverse(self):
        return Sl2Matrix(self.d, -self.b, -self.c, self.a)

    def trace(self):
        return self.a + self.d

    def __eq__(self, other):
        if not isinstance(other, Sl2Matrix):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __str__(self):
        return "[[%s, %s], [%s, %s]]" % (self.a, self.b, self.c, self.d)

    def __repr__(self):
        return "Sl2Matrix(%s, %s, %s, %s)" % (self.a, self.b, self.c, self.d)


class BoundaryTraces(NamedTuple):
    t1: Fraction
    t2: Fraction
    t3: Fraction
    t4: Fraction


def traces_to_params(traces):
    """(parameters, S) from four boundary traces.

    Rational traces return (KappaParams, Fraction); when any trace is a
    MultiPoly the others may be ring elements too, and a plain (P, Q, R)
    tuple comes back instead of KappaParams.
    """
    traces = tuple(traces)
    generic = any(isinstance(t, MultiPoly) for t in traces)
    t1, t2, t3, t4 = traces if generic else map(_exact, traces)
    p = -(t1 * t2 + t3 * t4)
    q = -(t1 * t4 + t2 * t3)
    r = -(t1 * t3 + t2 * t4)
    s = 2 - t1 * t1 - t2 * t2 - t3 * t3 - t4 * t4 - t1 * t2 * t3 * t4
    return ((p, q, r), s) if generic else (KappaParams.of(p, q, r), _fraction(s))


class TorusCharacter(NamedTuple):
    x: Fraction
    y: Fraction
    z: Fraction
    commutator_trace: Fraction


def torus_character(a: Sl2Matrix, b: Sl2Matrix) -> TorusCharacter:
    """(tr A, tr B, tr AB, tr ABA^-1B^-1); the first three land on the fiber
    of the parameter-free member at the commutator trace (trace identity,
    checked internally)."""
    x = a.trace()
    y = b.trace()
    z = (a * b).trace()
    comm = (a * b * a.inverse() * b.inverse()).trace()
    k = build_kappa((0, 0, 0))
    if k.evaluate({"x": x, "y": y, "z": z}) != comm:
        raise ArithmeticError("trace identity failed; input matrices not unimodular?")
    return TorusCharacter(x=x, y=y, z=z, commutator_trace=comm)


class SphereCharacter(NamedTuple):
    traces: BoundaryTraces
    point: tuple
    params: KappaParams
    s_value: Fraction
    on_surface: bool


def sphere_character(d1: Sl2Matrix, d2: Sl2Matrix, d3: Sl2Matrix) -> SphereCharacter:
    """Boundary traces, surface point, parameters and level for a triple,
    with D4 = (D1 D2 D3)^-1.  The point coordinates carry the sign reversal
    (-tr D1D2, -tr D2D3, -tr D3D1); on_surface reports whether the point
    satisfies kappa_{P,Q,R} = S (a trace identity, so always true — returned
    as a checked flag, not assumed)."""
    d4 = (d1 * d2 * d3).inverse()
    traces = BoundaryTraces(d1.trace(), d2.trace(), d3.trace(), d4.trace())
    point = (-(d1 * d2).trace(), -(d2 * d3).trace(), -(d3 * d1).trace())
    params, s = traces_to_params(traces)
    k = build_kappa(params)
    on_surface = k.evaluate({"x": point[0], "y": point[1], "z": point[2]}) == s
    return SphereCharacter(traces=traces, point=point, params=params,
                           s_value=s, on_surface=on_surface)
