"""Sparse multivariate polynomials and polynomial self-maps of affine 3-space.

Coefficients are exact rationals, stored in content form: a dict of nonzero
int numerators over one positive int denominator that shares no factor with
all of them (1 for the zero polynomial), as FLINT's fmpq_mpoly keeps an
fmpz_mpoly and a content.  Arithmetic therefore runs on ints only, and
Fractions appear only where coefficients and values leave the class.  The
dict maps packed exponent keys to numerators; exponents pack 16 bits per
variable, so monomial products are single integer additions, and a product
whose exponent in some variable would exceed _MAXEXP raises ValueError.
Large products use Kronecker substitution: one variable's exponents become the
digits of a big integer, so CPython's big-integer multiply does the inner
loops (D. Harvey, "Faster polynomial multiplication via multipoint Kronecker
substitution", J. Symbolic Comput. 44, 2009).  Everything here is immutable in
spirit: operations return new objects and never mutate their operands.

>>> x, y, z = MultiPoly.gens("x", "y", "z")
>>> print(x**2 + y**2 + z**2 - x*y*z - 2)
-x*y*z + x^2 + y^2 + z^2 - 2
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional, Sequence, Union

from .univariate import _exact, _join_terms, _rational

Coeff = Union[int, Fraction]

_FIELD = 16
_MASK = (1 << _FIELD) - 1
_MAXEXP = _MASK  # per-variable exponent bound imposed by the packing
# Products with at least this many term pairs take the Kronecker path: the
# measured crossover for products of tau-word map components, whose
# numerators are integers whatever the parameters.
_PACK_PAIRS = 1500


def _max_exponents(terms: dict, nv: int) -> list:
    return [max((k >> (_FIELD * i)) & _MASK for k in terms) for i in range(nv)]


def _mul_dict(a: dict, b: dict) -> dict:
    """Product of two term dicts, one pair of terms at a time."""
    if len(a) > len(b):
        a, b = b, a
    out: dict[int, int] = {}
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
    return out


def _pack_groups(nums: dict, shift: int, width: int) -> tuple:
    """(lo, groups): the terms grouped by every exponent but the one at
    `shift`, each group packed into one int whose slot s holds the
    coefficient of exponent lo + s, where lo is the lowest such exponent."""
    lo = min((k >> shift) & _MASK for k in nums)
    groups: dict[int, int] = {}
    get = groups.get
    for k, c in nums.items():
        e = (k >> shift) & _MASK
        rest = k - (e << shift)
        groups[rest] = get(rest, 0) + (c << (width * (e - lo)))
    return lo, groups


def _pack_var(a: dict, b: dict, nv: int) -> Optional[int]:
    """The variable to pack: the one leaving the fewest group pairs, among
    those where each operand's terms fill at least one in eight of its slots
    (groups times exponent span, so dense operands such as powers of x + y + z
    stay in the dict loop); None when no variable qualifies."""
    best = None
    for i in range(nv):
        shift = _FIELD * i
        keep = ~(_MASK << shift)
        spans = [{(k >> shift) & _MASK for k in t} for t in (a, b)]
        groups = [len({k & keep for k in t}) for t in (a, b)]
        if any(8 * len(t) < n * (max(es) - min(es) + 1)
               for t, n, es in zip((a, b), groups, spans)):
            continue
        pairs = groups[0] * groups[1]
        if best is None or pairs < best[0]:
            best = (pairs, i)
    return None if best is None else best[1]


def _mul_packed(a: dict, b: dict, var: int) -> dict:
    """Product of two nonzero term dicts by Kronecker substitution in the
    variable with index `var`.

    Slots are wide enough for the largest possible coefficient sum, plus a
    sign bit, so the signed slots of the accumulated products read back
    exactly.
    """
    bound = (max(abs(c) for c in a.values()).bit_length()
             + max(abs(c) for c in b.values()).bit_length()
             + min(len(a), len(b)).bit_length() + 2)
    nbytes = (bound + 7) >> 3
    width = nbytes << 3
    shift = _FIELD * var
    lo_a, ga = _pack_groups(a, shift, width)
    lo_b, gb = _pack_groups(b, shift, width)
    gb_items = list(gb.items())
    acc: dict[int, int] = {}
    get = acc.get
    for ra, pa in ga.items():
        for rb, pb in gb_items:
            k = ra + rb
            acc[k] = get(k, 0) + pa * pb
    half = 1 << (width - 1)
    half_bytes = half.to_bytes(nbytes, "little")
    out: dict[int, int] = {}
    for rest, n in acc.items():
        slots = n.bit_length() // width + 1
        # adding `half` to every slot makes each one a plain unsigned digit
        raw = (n + int.from_bytes(half_bytes * slots, "little")).to_bytes(
            slots * nbytes, "little")
        rest += (lo_a + lo_b) << shift
        for e in range(slots):
            c = int.from_bytes(raw[e * nbytes:(e + 1) * nbytes], "little") - half
            if c:
                out[rest + (e << shift)] = c
    return out


class MultiPoly:
    """A polynomial in a fixed ordered tuple of variables.

    Binary operations require both operands to carry the identical variable
    tuple; mixing variable sets raises ValueError rather than guessing an
    embedding.
    """

    __slots__ = ("vars", "_nums", "_den", "_degree")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Coeff] | None = None):
        vs = tuple(variables)
        if len(vs) != len(set(vs)):
            raise ValueError("duplicate variable names: %r" % (vs,))
        if len(vs) * _FIELD > 1024:
            raise ValueError("too many variables")
        coeffs: dict[int, Fraction] = {}
        if terms:
            n = len(vs)
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != n:
                    raise ValueError("exponent tuple %r does not match variables %r" % (exps, vs))
                if any((not isinstance(e, int)) or e < 0 or e > _MAXEXP for e in exps):
                    raise ValueError("bad exponent tuple %r" % (exps,))
                key = self._pack(exps)
                coeffs[key] = coeffs.get(key, 0) + _exact(c)
        den = lcm(*(c.denominator for c in coeffs.values() if c))
        self.vars = vs
        self._nums = {k: c.numerator * (den // c.denominator) for k, c in coeffs.items() if c}
        self._den = den
        self._degree = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _raw(cls, vs: tuple, nums: dict, den: int = 1) -> "MultiPoly":
        """The polynomial nums / den, with the common factor of den and the
        numerators divided out: the one place the content is reduced."""
        if den != 1:
            g = den  # the zero polynomial ends with den 1
            for c in nums.values():
                g = gcd(g, c)
                if g == 1:
                    break
            if g != 1:
                den //= g
                nums = {k: c // g for k, c in nums.items()}
        p = object.__new__(cls)
        p.vars = vs
        p._nums = nums
        p._den = den
        p._degree = None
        return p

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MultiPoly":
        return cls._raw(tuple(variables), {})

    @classmethod
    def const(cls, variables: Sequence[str], c: Coeff) -> "MultiPoly":
        c = _exact(c)
        return cls._raw(tuple(variables), {0: c.numerator} if c else {}, c.denominator)

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
        return not self._nums

    def is_constant(self) -> bool:
        return not self._nums or (len(self._nums) == 1 and 0 in self._nums)

    def constant_value(self) -> Coeff:
        """The value of a constant polynomial; ValueError if nonconstant."""
        if self.is_constant():
            return _rational(self._nums.get(0, 0), self._den)
        raise ValueError("polynomial is not constant: %s" % self)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self._degree is None:
            d = -1
            mask, shifts = _MASK, range(_FIELD, _FIELD * len(self.vars), _FIELD)
            for key in self._nums:
                t = key & mask
                for s in shifts:
                    t += key >> s & mask
                if t > d:
                    d = t
            self._degree = d
        return self._degree

    def coefficient(self, exps: Sequence[int]) -> Coeff:
        return _rational(self._nums.get(self._pack(exps), 0), self._den)

    def terms(self) -> list:
        """[(exponent tuple, coefficient)] in graded-lex order, leading term first."""
        den = self._den
        decoded = [(self._unpack(k), _rational(c, den)) for k, c in self._nums.items()]
        decoded.sort(key=lambda t: (sum(t[0]), t[0]), reverse=True)
        return decoded

    def __len__(self) -> int:
        return len(self._nums)

    def __bool__(self) -> bool:
        return bool(self._nums)

    # -- arithmetic ----------------------------------------------------------

    def _combine(self, other, sign: int):
        """self + sign * other over the least common denominator; the larger
        numerator dict is copied (scaled) and the smaller one folded into it."""
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if not other:
                return self
            other = MultiPoly.const(self.vars, other)
        self._check_same_vars(other)
        den = lcm(self._den, other._den)
        a, ma = self._nums, den // self._den
        b, mb = other._nums, sign * (den // other._den)
        if len(a) < len(b):
            a, ma, b, mb = b, mb, a, ma
        out = dict(a) if ma == 1 else {k: c * ma for k, c in a.items()}
        get = out.get
        for k, c in b.items():
            c *= mb
            v = get(k)
            if v is None:
                out[k] = c
            else:
                v += c
                if v:
                    out[k] = v
                else:
                    del out[k]
        return MultiPoly._raw(self.vars, out, den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def __neg__(self):
        return MultiPoly._raw(self.vars, {k: -c for k, c in self._nums.items()}, self._den)

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if isinstance(other, (int, Fraction)):
                if not other:
                    return MultiPoly._raw(self.vars, {})
                if other == 1:
                    return self
                if other == -1:
                    return -self
                # dividing out gcd(n, den) first keeps the numerators small
                g = gcd(other.numerator, self._den)
                n = other.numerator // g
                return MultiPoly._raw(self.vars, {k: c * n for k, c in self._nums.items()},
                                      self._den // g * other.denominator)
            return NotImplemented
        self._check_same_vars(other)
        a, b = self._nums, other._nums
        if not a or not b:
            return MultiPoly._raw(self.vars, {})
        nv = len(self.vars)
        degree = self.degree() + other.degree()
        if degree > _MAXEXP:
            # total degree is only a bound; check each variable exactly
            for name, ea, eb in zip(self.vars, _max_exponents(a, nv), _max_exponents(b, nv)):
                if ea + eb > _MAXEXP:
                    raise ValueError("exponent of %s in a product would exceed %d"
                                     % (name, _MAXEXP))
        var = _pack_var(a, b, nv) if len(a) * len(b) >= _PACK_PAIRS else None
        out = _mul_dict(a, b) if var is None else _mul_packed(a, b, var)
        p = MultiPoly._raw(self.vars, out, self._den * other._den)
        p._degree = degree  # degrees add over a domain
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return MultiPoly.const(self.vars, 1) if result is None else result

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return (self.vars == other.vars and self._den == other._den
                    and self._nums == other._nums)
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    __hash__ = None

    # -- calculus and evaluation ----------------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        i = self.vars.index(name)
        shift = _FIELD * i
        out: dict[int, int] = {}
        for k, c in self._nums.items():
            e = (k >> shift) & _MASK
            if e:
                out[k - (1 << shift)] = c * e
        return MultiPoly._raw(self.vars, out, self._den)

    def evaluate(self, values: Mapping[str, Coeff]) -> Coeff:
        """Evaluate at a point; every variable must be assigned a rational."""
        vals = [_exact(values[v]) for v in self.vars]
        total: Coeff = 0
        for exps, c in [(self._unpack(k), c) for k, c in self._nums.items()]:
            term = c
            for v, e in zip(vals, exps):
                if e:
                    term = term * v**e
            total = total + term
        return _rational(total, self._den)

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
        for exps, c in [(self._unpack(k), c) for k, c in self._nums.items()]:
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
        return out if self._den == 1 else out * Fraction(1, self._den)

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
