"""The 24 affine lines on a smooth fiber of the parameter-free member.

For each coordinate projection the fiber kappa = t carries eight lines in the
four planes where the projected coordinate equals +-2 or +-sqrt(t+2); their
coefficients live in the algebra generated by rm = sqrt(t-2) and rp =
sqrt(t+2), or in Q itself when both square roots are rational.

Lemma: the section by a plane z = c has quadratic part x^2 - c x y + y^2, so
its lines point at the roots of w^2 - c w + 1 at infinity.  Lines in distinct
parallel planes thus never meet, not even at infinity, and coplanar lines
always do: two distinct lines of one projection meet iff they share the plane
constant.  The class Gram compares those constants; `line_incidence` decides
any pair in the algebra and is the rule's oracle.  `_decidable` is the only
refusal, raised by both at the same levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import univariate as uni
from .family import _kappa_on_curve
from .matrices import Matrix
from .sqrtalgebra import SqrtAlgebraElem, ZeroDivisorError, _sqrt_fraction, instantiation
from .univariate import _fraction


@dataclass(frozen=True)
class Line:
    """An affine line: points base + s * direction, s a free parameter."""

    label: str          # L1 .. L8
    projection: str     # coordinate held constant on the line: "x", "y" or "z"
    t: Fraction
    base: tuple         # three SqrtAlgebraElem
    direction: tuple    # three SqrtAlgebraElem
    plane: str          # human-readable constraint, e.g. "z = 2" or "z = rp"

    def key(self):
        return (self.projection, self.label)

    def to_jsonable(self):
        return {"label": self.label, "projection": self.projection,
                "plane": self.plane,
                "base": [str(c) for c in self.base],
                "direction": [str(c) for c in self.direction]}

    def __str__(self):
        return "%s (%s-projection): %s, base (%s), direction (%s)" % (
            self.label, self.projection, self.plane,
            ", ".join(str(c) for c in self.base),
            ", ".join(str(c) for c in self.direction))


def _elems(t):
    """(zero, one, rm, rp) over t, instantiated into Q when possible."""
    inst = instantiation(t)
    if inst is not None:
        rm = SqrtAlgebraElem(t, inst[0])
        rp = SqrtAlgebraElem(t, inst[1])
    else:
        rm = SqrtAlgebraElem.rm(t)
        rp = SqrtAlgebraElem.rp(t)
    return SqrtAlgebraElem(t, 0), SqrtAlgebraElem(t, 1), rm, rp


def lines_on_fiber(t) -> list:
    """All 24 affine lines on the fiber kappa = t, eight per projection.

    The z-projection list is explicit; the x- and y-projection lines are its
    images under the two cyclic coordinate permutations (which preserve the
    fiber).  Raises ValueError at t = +-2 where the fiber is singular.
    """
    t = _fraction(t)
    if t == 2 or t == -2:
        raise ValueError("fiber at t = %s is singular; no line enumeration" % t)
    zero, one, rm, rp = _elems(t)
    half = Fraction(1, 2)
    a_plus = (rp + rm) * half
    a_minus = (rp - rm) * half
    two = SqrtAlgebraElem(t, 2)

    z_lines = [
        ("L1", (rm, zero, two), (one, one, zero)),
        ("L2", (-rm, zero, two), (one, one, zero)),
        ("L3", (zero, zero, rp), (a_plus, one, zero)),
        ("L4", (zero, zero, rp), (a_minus, one, zero)),
        ("L5", (zero, zero, -rp), (-a_plus, one, zero)),
        ("L6", (zero, zero, -rp), (-a_minus, one, zero)),
        ("L7", (rm, zero, -two), (-one, one, zero)),
        ("L8", (-rm, zero, -two), (-one, one, zero)),
    ]
    # cyclic images: (x,y,z) -> (z,x,y) moves the constant coordinate to x,
    # (x,y,z) -> (y,z,x) moves it to y; both preserve kappa
    out = []
    for proj, shuffle in (("z", lambda v: v),
                          ("x", lambda v: (v[2], v[0], v[1])),
                          ("y", lambda v: (v[1], v[2], v[0]))):
        for label, base, direction in z_lines:
            base = shuffle(base)
            out.append(Line(label, proj, t, base, shuffle(direction),
                            "%s = %s" % (proj, base["xyz".index(proj)])))
    return out


def fiber_residual(line: Line) -> list:
    """kappa(base + s*dir) - t as a univariate polynomial in the line
    parameter s over the algebra: ascending coefficients with trailing zeros
    trimmed, so [] exactly when the line lies on the fiber."""
    x, y, z = ([line.base[i], line.direction[i]] for i in range(3))
    return uni.sub(_kappa_on_curve((0, 0, 0), x, y, z), [SqrtAlgebraElem(line.t, line.t)])


def line_contained_in_fiber(line: Line) -> bool:
    return all(c.is_zero() for c in fiber_residual(line))


def _decidable(t):
    """The one refusal of incidence and the class Gram: they need a rational
    instantiation or a zero-divisor-free algebra, in which all of t-2, t+2
    and (t-2)(t+2) are rational non-squares."""
    if instantiation(t) is not None:
        return
    if (_sqrt_fraction(t - 2) is None and _sqrt_fraction(t + 2) is None
            and _sqrt_fraction((t - 2) * (t + 2)) is None):
        return
    raise ZeroDivisorError(
        "t = %s gives zero divisors without a rational instantiation; "
        "incidence is not decided here" % t)


def line_incidence(a: Line, b: Line) -> int:
    """1 if the two distinct lines meet (in affine space, or at infinity via
    proportional directions), else 0."""
    if a.t != b.t:
        raise ValueError("lines live on different fibers: t = %s vs %s" % (a.t, b.t))
    if a.key() == b.key():
        raise ValueError("incidence needs two distinct lines, got %s twice" % (a.key(),))
    _decidable(a.t)
    u, v = a.direction, b.direction
    cross = (u[1] * v[2] - u[2] * v[1],
             u[2] * v[0] - u[0] * v[2],
             u[0] * v[1] - u[1] * v[0])
    if all(c.is_zero() for c in cross):
        return 1
    w = tuple(b.base[i] - a.base[i] for i in range(3))
    det = cross[0] * w[0] + cross[1] * w[1] + cross[2] * w[2]
    if det.is_zero():
        return 1
    if not det.is_unit():
        raise ZeroDivisorError("triple product %s is a zero divisor at t = %s"
                               % (det, a.t))
    return 0


_CLASS_PAIRS = (("L8", "L5"), ("L7", "L5"), ("L1", "L3"), ("L2", "L3"), ("L5", "L4"))


def class_gram(t) -> Matrix:
    """Gram matrix of the five difference classes (L8-L5, L7-L5, L1-L3,
    L2-L3, L5-L4) of z-projection lines, using self-intersection -1 for every
    line and, for distinct pairs, 1 exactly when they share a plane."""
    return _class_gram(lines_on_fiber(t))


def _class_gram(lns) -> Matrix:
    """class_gram of a fiber from its lines, as lines_on_fiber lists them."""
    zl = {ln.label: ln for ln in lns if ln.projection == "z"}
    _decidable(zl["L1"].t)

    def dot(p, q):
        return -1 if p == q else int(zl[p].base[2] == zl[q].base[2])

    rows = []
    for (a, b) in _CLASS_PAIRS:
        row = []
        for (c, d) in _CLASS_PAIRS:
            row.append(dot(a, c) - dot(a, d) - dot(b, c) + dot(b, d))
        rows.append(row)
    return Matrix(rows)
