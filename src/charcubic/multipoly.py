"""Sparse multivariate polynomials and polynomial self-maps of affine 3-space.

Coefficients are exact rationals (Python ints or fractions.Fraction, mixed
freely).  A polynomial is a dict from packed exponent keys to nonzero
coefficients; exponents pack 16 bits per variable, so monomial products are
single integer additions.  Everything here is immutable in spirit: operations
return new objects and never mutate their operands.

>>> x, y, z = MultiPoly.gens("x", "y", "z")
>>> print(x**2 + y**2 + z**2 - x*y*z - 2)
-x*y*z + x^2 + y^2 + z^2 - 2
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

from .univariate import _join_terms

Coeff = Union[int, Fraction]

_FIELD = 16
_MASK = (1 << _FIELD) - 1
_MAXEXP = _MASK  # per-variable exponent bound imposed by the packing


def _norm_coeff(c: Coeff) -> Coeff:
    """Collapse integral Fractions to plain ints (keeps arithmetic on the fast path)."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


class MultiPoly:
    """A polynomial in a fixed ordered tuple of variables.

    Binary operations require both operands to carry the identical variable
    tuple; mixing variable sets raises ValueError rather than guessing an
    embedding.
    """

    __slots__ = ("vars", "_terms", "_degree")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Coeff] | None = None):
        vs = tuple(variables)
        if len(vs) != len(set(vs)):
            raise ValueError("duplicate variable names: %r" % (vs,))
        if len(vs) * _FIELD > 1024:
            raise ValueError("too many variables")
        self.vars = vs
        packed: dict[int, Coeff] = {}
        if terms:
            n = len(vs)
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != n:
                    raise ValueError("exponent tuple %r does not match variables %r" % (exps, vs))
                if any((not isinstance(e, int)) or e < 0 or e > _MAXEXP for e in exps):
                    raise ValueError("bad exponent tuple %r" % (exps,))
                c = _norm_coeff(c)
                if c:
                    key = self._pack(exps)
                    prev = packed.get(key)
                    c = c if prev is None else _norm_coeff(prev + c)
                    if c:
                        packed[key] = c
                    else:
                        del packed[key]
        self._terms = packed
        self._degree = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _raw(cls, vs: tuple, packed: dict) -> "MultiPoly":
        p = object.__new__(cls)
        p.vars = vs
        p._terms = packed
        p._degree = None
        return p

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls._raw(tuple(variables), {})

    @classmethod
    def const(cls, variables: Sequence[str], c: Coeff) -> "MultiPoly":
        c = _norm_coeff(c)
        return cls._raw(tuple(variables), {0: c} if c else {})

    @classmethod
    def variable(cls, name: str, variables: Sequence[str]) -> "MultiPoly":
        vs = tuple(variables)
        i = vs.index(name)
        return cls._raw(vs, {1 << (_FIELD * i): 1})

    @classmethod
    def gens(cls, *names: str) -> tuple:
        """All generators of Q[names] at once, each knowing the full variable tuple."""
        return tuple(cls.variable(n, names) for n in names)

    # -- packing -------------------------------------------------------------

    @staticmethod
    def _pack(exps: Iterable[int]) -> int:
        key = 0
        shift = 0
        for e in exps:
            key |= e << shift
            shift += _FIELD
        return key

    def _unpack(self, key: int) -> tuple:
        return tuple((key >> (_FIELD * i)) & _MASK for i in range(len(self.vars)))

    def _check_same_vars(self, other: "MultiPoly") -> None:
        if self.vars != other.vars:
            raise ValueError("variable sets differ: %r vs %r" % (self.vars, other.vars))

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def constant_value(self) -> Coeff:
        """The value of a constant polynomial; ValueError if nonconstant."""
        if not self._terms:
            return 0
        if self.is_constant():
            return self._terms[0]
        raise ValueError("polynomial is not constant: %s" % self)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self._degree is None:
            d = -1
            mask, field, nv = _MASK, _FIELD, len(self.vars)
            for key in self._terms:
                t = 0
                for i in range(nv):
                    t += (key >> (field * i)) & mask
                if t > d:
                    d = t
            self._degree = d
        return self._degree

    def coefficient(self, exps: Sequence[int]) -> Coeff:
        return self._terms.get(self._pack(exps), 0)

    def terms(self) -> list:
        """[(exponent tuple, coefficient)] in graded-lex order, leading term first."""
        decoded = [(self._unpack(k), c) for k, c in self._terms.items()]
        decoded.sort(key=lambda t: (sum(t[0]), t[0]), reverse=True)
        return decoded

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            if isinstance(other, (int, Fraction)):
                return self._add_const(other)
            return NotImplemented
        self._check_same_vars(other)
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for k, c in b.items():
            v = out.get(k)
            if v is None:
                out[k] = c
            else:
                v = v + c
                if v:
                    out[k] = v
                else:
                    del out[k]
        return MultiPoly._raw(self.vars, out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            if isinstance(other, (int, Fraction)):
                return self._add_const(-other)
            return NotImplemented
        self._check_same_vars(other)
        out = dict(self._terms)
        for k, c in other._terms.items():
            v = out.get(k)
            if v is None:
                out[k] = -c
            else:
                v = v - c
                if v:
                    out[k] = v
                else:
                    del out[k]
        return MultiPoly._raw(self.vars, out)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def _add_const(self, c: Coeff) -> "MultiPoly":
        if not c:
            return self
        out = dict(self._terms)
        v = out.get(0)
        v = c if v is None else v + c
        if v:
            out[0] = v
        elif 0 in out:
            del out[0]
        return MultiPoly._raw(self.vars, out)

    def __neg__(self):
        return MultiPoly._raw(self.vars, {k: -c for k, c in self._terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if isinstance(other, (int, Fraction)):
                if not other:
                    return MultiPoly._raw(self.vars, {})
                return MultiPoly._raw(self.vars, {k: c * other for k, c in self._terms.items()})
            return NotImplemented
        self._check_same_vars(other)
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, Coeff] = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                v = get(k)
                if v is None:
                    out[k] = ca * cb
                else:
                    v = v + ca * cb
                    if v:
                        out[k] = v
                    else:
                        del out[k]
        return MultiPoly._raw(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base2 = base * base if n > 1 else base
            base = base2
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.vars == other.vars and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    __hash__ = None

    # -- calculus and evaluation ----------------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        i = self.vars.index(name)
        shift = _FIELD * i
        out: dict[int, Coeff] = {}
        for k, c in self._terms.items():
            e = (k >> shift) & _MASK
            if e:
                out[k - (1 << shift)] = _norm_coeff(c * e)
        return MultiPoly._raw(self.vars, out)

    def evaluate(self, values: Mapping[str, Coeff]) -> Coeff:
        """Evaluate at a point; every variable must be assigned a rational."""
        vals = [values[v] for v in self.vars]
        total: Coeff = 0
        for exps, c in [(self._unpack(k), c) for k, c in self._terms.items()]:
            term = c
            for v, e in zip(vals, exps):
                if e:
                    term = term * v**e
            total = total + term
        return _norm_coeff(Fraction(total)) if not isinstance(total, int) else total

    def substitute(self, images: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Plug a polynomial in for every variable.

        All images must share one variable tuple, which becomes the result's.
        """
        try:
            imgs = [images[v] for v in self.vars]
        except KeyError as e:
            raise ValueError("no image for variable %s" % e) from None
        target = imgs[0].vars
        for g in imgs:
            if g.vars != target:
                raise ValueError("images carry mixed variable sets")
        # cache powers per variable; exponents in our maps stay small
        pows: list[dict[int, MultiPoly]] = [dict() for _ in imgs]
        one = MultiPoly.const(target, 1)
        out = MultiPoly.zero(target)
        for exps, c in [(self._unpack(k), c) for k, c in self._terms.items()]:
            term = None
            for i, e in enumerate(exps):
                if not e:
                    continue
                p = pows[i].get(e)
                if p is None:
                    p = imgs[i] ** e
                    pows[i][e] = p
                term = p if term is None else term * p
            if term is None:
                term = one
            out = out + term * c
        return out

    # -- printing ------------------------------------------------------------

    @staticmethod
    def _monomial_str(names: Sequence[str], exps: Sequence[int]) -> str:
        bits = []
        for n, e in zip(names, exps):
            if e == 1:
                bits.append(n)
            elif e > 1:
                bits.append("%s^%d" % (n, e))
        return "*".join(bits)

    def __str__(self) -> str:
        return _join_terms((c, self._monomial_str(self.vars, exps))
                           for exps, c in self.terms())

    def __repr__(self) -> str:
        return "MultiPoly(%r, %s)" % (self.vars, str(self))


MAP_VARS = ("x", "y", "z")


class PolyMap:
    """A polynomial self-map of affine 3-space, as a triple of polynomials in x, y, z.

    Composition convention everywhere: map_compose(f, g) applies g first,
    (f o g)(p) = f(g(p)).
    """

    __slots__ = ("components",)

    def __init__(self, components: Sequence[MultiPoly]):
        comps = tuple(components)
        if len(comps) != 3:
            raise ValueError("a PolyMap needs exactly three components")
        for c in comps:
            if not isinstance(c, MultiPoly) or c.vars != MAP_VARS:
                raise ValueError("components must be polynomials in %s" % (MAP_VARS,))
        self.components = comps

    @classmethod
    def identity(cls) -> "PolyMap":
        return cls(MultiPoly.gens(*MAP_VARS))

    def __call__(self, point: Sequence[Coeff]) -> tuple:
        if len(point) != 3:
            raise ValueError("a point needs three coordinates")
        env = dict(zip(MAP_VARS, point))
        return tuple(c.evaluate(env) for c in self.components)

    def degree(self) -> int:
        return max(c.degree() for c in self.components)

    def component_degrees(self) -> tuple:
        return tuple(c.degree() for c in self.components)

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.components == other.components

    __hash__ = None

    def __str__(self) -> str:
        return "; ".join(str(c) for c in self.components)

    def __repr__(self) -> str:
        return "PolyMap(%s)" % self

    def __matmul__(self, other: "PolyMap") -> "PolyMap":
        return map_compose(self, other)


def map_compose(f: PolyMap, g: PolyMap) -> PolyMap:
    """(f o g)(p) = f(g(p)): substitute g's components into each component of f."""
    env = dict(zip(MAP_VARS, g.components))
    return PolyMap(tuple(c.substitute(env) for c in f.components))


def jacobian_determinant(f: PolyMap) -> MultiPoly:
    """Determinant of the 3x3 matrix of first partials, as a polynomial."""
    rows = [[c.derivative(v) for v in MAP_VARS] for c in f.components]
    (a, b, c), (d, e, g), (h, i, j) = rows
    return a * (e * j - g * i) - b * (d * j - g * h) + c * (d * i - e * h)
