"""Internal univariate polynomial helpers over exact rationals, and `_exact`,
the one rule for admitting a number at every public entry point.

A polynomial is a list of coefficients in ascending degree with no trailing
zeros; [] is the zero polynomial.  Used for the critical-locus eliminant in z:
gcds, square-free splitting, rational roots, and arithmetic mod a factor.
Nothing here is part of the public API.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm as _int_lcm


def _exact(c):
    """c as an exact rational: an int or a Fraction unchanged, a float as the
    Fraction it denotes; nothing else (a str, a Decimal, a bool) is a number.

    >>> _exact(3), _exact(Fraction(1, 3)), _exact(0.5)
    (3, Fraction(1, 3), Fraction(1, 2))
    >>> _exact("1/2")
    Traceback (most recent call last):
    TypeError: not a rational number: '1/2'
    """
    if c.__class__ is int or c.__class__ is Fraction:
        return c
    if c.__class__ is float:
        return Fraction(c)
    raise TypeError("not a rational number: %r" % (c,))


def _fraction(c) -> Fraction:
    """_exact(c) as a Fraction, for the classes that store Fractions."""
    c = _exact(c)
    return c if c.__class__ is Fraction else Fraction(c)


def _rational(num, den: int = 1):
    """num / den as an int when integral, else as a Fraction."""
    if num.__class__ is int:
        if den == 1:
            return num
        q = Fraction(num, den)
    else:
        q = _exact(num) / den
    return q.numerator if q.denominator == 1 else q


def trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def degree(f):
    return len(f) - 1  # -1 for zero


def add(f, g):
    n = max(len(f), len(g))
    return trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)])


def sub(f, g):
    n = max(len(f), len(g))
    return trim([(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0) for i in range(n)])


def scale(f, c):
    if not c:
        return []
    return [ci * c for ci in f]


def mul(f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out)


def divmod_poly(f, g):
    """Quotient and remainder; g must be nonzero."""
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    f = list(f)
    q = [0] * max(0, len(f) - len(g) + 1)
    inv_lead = Fraction(1, 1) / Fraction(g[-1])
    while len(f) >= len(g) and trim(f):
        f = trim(f)
        if len(f) < len(g):
            break
        k = len(f) - len(g)
        c = f[-1] * inv_lead
        q[k] = c
        for i, b in enumerate(g):
            f[k + i] -= c * b
        f.pop()
    return trim(q), trim(f)


def poly_mod(f, m):
    return divmod_poly(f, m)[1]


def exact_div(f, g):
    q, r = divmod_poly(f, g)
    if r:
        raise ValueError("polynomial division was not exact")
    return q


def monic(f):
    if not f:
        return []
    lead = Fraction(f[-1])
    return [Fraction(c) / lead for c in f]


def gcd(f, g):
    while g:
        f, g = g, poly_mod(f, g)
    return monic(f)


def xgcd(f, g):
    """(d, u, v) with u*f + v*g = d, d monic (or zero)."""
    r0, r1 = list(f), list(g)
    u0, u1 = [Fraction(1)], []
    v0, v1 = [], [Fraction(1)]
    while r1:
        q, r = divmod_poly(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, sub(u0, mul(q, u1))
        v0, v1 = v1, sub(v0, mul(q, v1))
    if not r0:
        return [], u0, v0
    lead = Fraction(r0[-1])
    inv = 1 / lead
    return scale(r0, inv), scale(u0, inv), scale(v0, inv)


def invert_mod(g, m):
    """Inverse of g modulo m; ValueError when gcd(g, m) is not constant."""
    d, u, _ = xgcd(g, m)
    if degree(d) != 0:
        raise ValueError("element is not invertible modulo the given polynomial")
    return poly_mod(u, m)


def derivative(f):
    return trim([i * c for i, c in enumerate(f)][1:])


def eval_at(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def squarefree_decomposition(f):
    """Yun's algorithm: [(factor, multiplicity)] with factors monic, square-free,
    pairwise coprime, and f = lead * prod factor^multiplicity."""
    f = monic(f)
    if degree(f) <= 0:
        return []
    df = derivative(f)
    a = gcd(f, df)
    b = exact_div(f, a)
    c = exact_div(df, a)
    d = sub(c, derivative(b))
    out = []
    i = 1
    while degree(b) > 0:
        a = gcd(b, d)
        if degree(a) > 0:
            out.append((a, i))
        b = exact_div(b, a)
        c = exact_div(d, a)
        d = sub(c, derivative(b))
        i += 1
    return out


def root_multiplicity(f, r):
    """(m, q) with f = (z - r)^m * q and q(r) != 0; f must be nonzero."""
    if not f:
        raise ValueError("the zero polynomial vanishes to every order")
    m = 0
    while eval_at(f, r) == 0:
        f = exact_div(f, [-r, 1])
        m += 1
    return m, f


def _divisors(n):
    n = abs(n)
    out = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            out.append(i)
            if i != n // i:
                out.append(n // i)
        i += 1
    return sorted(out)


def rational_roots(f):
    """All rational roots with multiplicities: [(root, mult)], and the root-free quotient."""
    f = trim(f)
    roots = []
    if degree(f) < 1:
        return roots, f
    # roots at zero
    k = 0
    while not f[0]:
        f = f[1:]
        k += 1
    if k:
        roots.append((Fraction(0), k))
    if degree(f) < 1:
        return roots, f
    # clear denominators to a primitive integer polynomial
    den = _int_lcm(*(c.denominator for c in f))
    zf = [c.numerator * (den // c.denominator) for c in f]
    g = _int_gcd(*zf)
    zf = [c // g for c in zf]
    cands = set()
    for p in _divisors(zf[0]):
        for q in _divisors(zf[-1]):
            cands.add(Fraction(p, q))
            cands.add(Fraction(-p, q))
    for r in sorted(cands):
        m, f = root_multiplicity(f, r)
        if m:
            roots.append((r, m))
        if degree(f) < 1:
            break
    return roots, trim(f)


def even_part_split(f):
    """If f(z) = h(z^2), return h; else None."""
    if any(c and i % 2 for i, c in enumerate(f)):
        return None
    return [f[i] for i in range(0, len(f), 2)]


def split_even_factor(f):
    """Split a square-free factor with no rational roots into pieces of the form
    z^2 - r (r a rational non-square) times a leftover, via the z^2 substitution.
    Returns (list of quadratics, leftover); either part may be trivial."""
    h = even_part_split(f)
    if h is None or degree(f) < 4:
        return [], f
    hroots, hrest = rational_roots(h)
    if not hroots:
        return [], f
    quads = []
    rest = f
    for r, m in hroots:
        quad = [-r, Fraction(0), Fraction(1)]
        for _ in range(m):
            rest = exact_div(rest, quad)
            quads.append(quad)
    return quads, trim(rest)


def _join_terms(pairs):
    """Signed-sum text of (coefficient, monomial text) pairs, in the given
    order; "" is the unit monomial, a unit coefficient is elided, zero
    coefficients are skipped, and an empty sum prints as 0."""
    bits = []
    for c, mono in pairs:
        if not c:
            continue
        neg = c < 0
        mag = -c if neg else c
        if not mono:
            body = str(mag)
        else:
            body = mono if mag == 1 else "%s*%s" % (mag, mono)
        if not bits:
            bits.append("-" + body if neg else body)
        else:
            bits.append(("- " if neg else "+ ") + body)
    return " ".join(bits) if bits else "0"


def to_string(f, name="z"):
    """Human-readable form, highest degree first."""
    monos = ["", name] + ["%s^%d" % (name, i) for i in range(2, len(f))]
    return _join_terms(reversed(list(zip(f, monos))))
