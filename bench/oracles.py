"""Independent answers for every operation the benchmark times.

Nothing here imports charcubic.  Each oracle recomputes the expected answer
by a route that does not share the code path under test: point images letter
by letter in plain Fractions instead of composed polynomial maps, homology and
PGL images as products of per-letter matrices, critical points checked by the
gradient, Smith forms by determinantal divisors, and trace identities from
the 2x2 matrices themselves.  The generator formulas and the letter matrices
below are data from the paper, written out once more on purpose.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import gcd, isqrt

TAU = ("tau1", "tau2", "tau3")
GAMMA = ("alpha", "beta", "gamma", "sigma_x", "sigma_y", "sigma_z")
LETTERS = GAMMA + TAU
TOKEN = {"alpha": "a", "beta": "b", "gamma": "g", "sigma_x": "sx",
         "sigma_y": "sy", "sigma_z": "sz", "tau1": "t1", "tau2": "t2",
         "tau3": "t3"}
FOUR_POINTS = ((2, -2, -2), (-2, 2, -2), (-2, -2, 2), (2, 2, 2))
Q_VC = ((-2, 0, 0, 0, 1), (0, -2, 0, 0, 1), (0, 0, -2, 0, 1),
        (0, 0, 0, -2, 1), (1, 1, 1, 1, -2))
ALPHA_GRAM = ((-4, 2, 0, 0, 0), (2, -2, -1, 0, 0), (0, -1, -2, 1, 0),
              (0, 0, 1, -2, 2), (0, 0, 0, 2, -4))
PGL_LETTER = {
    "alpha": ((0, -1), (1, 0)), "beta": ((1, -1), (1, 0)),
    "gamma": ((-1, 0), (0, 1)), "sigma_x": ((1, 0), (0, 1)),
    "sigma_y": ((1, 0), (0, 1)), "sigma_z": ((1, 0), (0, 1)),
    "tau1": ((1, 0), (0, -1)), "tau2": ((1, 0), (2, -1)),
    "tau3": ((1, 2), (0, -1)),
}
# words in the parameter-free letters realising each coordinate permutation
_PERM_WORDS = ((), ("beta",), ("beta", "beta"), ("gamma", "alpha"),
               ("beta", "gamma", "alpha"), ("beta", "beta", "gamma", "alpha"))


# --- the cubic and its generators, pointwise ---------------------------------

def kappa(params, pt):
    p, q, r = params
    x, y, z = pt
    return x * x + y * y + z * z - x * y * z - p * x - q * y - r * z - 2


def gradient(params, pt):
    p, q, r = params
    x, y, z = pt
    return (2 * x - y * z - p, 2 * y - x * z - q, 2 * z - x * y - r)


def letter_image(name, pt, params=(0, 0, 0)):
    x, y, z = pt
    p, q, r = params
    if name == "alpha":
        return (y, x, x * y - z)
    if name == "beta":
        return (y, z, x)
    if name == "gamma":
        return (x, y, x * y - z)
    if name == "sigma_x":
        return (x, -y, -z)
    if name == "sigma_y":
        return (-x, y, -z)
    if name == "sigma_z":
        return (-x, -y, z)
    if name == "tau1":
        return (x, y, x * y - z + r)
    if name == "tau2":
        return (y * z - x + p, y, z)
    if name == "tau3":
        return (x, x * z - y + q, z)
    raise ValueError("unknown letter %r" % name)


def tail_image(tail, pt):
    perm, signs = tail
    return tuple(signs[i] * pt[perm[i]] for i in range(3))


def word_image(letters, tail, pt, params=(0, 0, 0)):
    """Image of a point under letters[0] o ... o letters[-1] o tail."""
    pt = tuple(Fraction(c) for c in pt)
    if tail is not None:
        pt = tail_image(tail, pt)
    for name in reversed(letters):
        pt = letter_image(name, pt, params)
    return pt


def det(rows):
    """Exact determinant by Fraction elimination."""
    a = [[Fraction(e) for e in row] for row in rows]
    n = len(a)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                for k in range(c, n):
                    a[r][k] -= f * a[c][k]
    return out


@lru_cache(maxsize=None)
def letter_sign(name):
    """Jacobian determinant of a generator, by central differences (exact for
    maps of degree at most two)."""
    base = (Fraction(1, 3), Fraction(2, 5), Fraction(3, 7))
    params = (Fraction(1, 2), Fraction(-1, 3), Fraction(2))
    cols = []
    for j in range(3):
        hi = list(base)
        lo = list(base)
        hi[j] += 1
        lo[j] -= 1
        fh = letter_image(name, hi, params if name in TAU else (0, 0, 0))
        fl = letter_image(name, lo, params if name in TAU else (0, 0, 0))
        cols.append([(a - b) / 2 for a, b in zip(fh, fl)])
    return int(det([[cols[j][i] for j in range(3)] for i in range(3)]))


def tail_sign(tail):
    perm, signs = tail
    inversions = sum(1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j])
    return (-1) ** inversions * signs[0] * signs[1] * signs[2]


def word_sign(letters, tail):
    s = 1
    for name in letters:
        s *= letter_sign(name)
    return s * (tail_sign(tail) if tail is not None else 1)


def stabilizer(params):
    """Signed permutations preserving kappa_{P,Q,R}: the cubic term forces an
    even number of sign flips, the linear term P_j = s_i P_i where j = perm[i]."""
    out = []
    for perm in sorted(permutations(range(3))):
        for signs in product((1, -1), repeat=3):
            if signs[0] * signs[1] * signs[2] != 1:
                continue
            if all(params[perm[i]] == signs[i] * params[i] for i in range(3)):
                out.append((perm, signs))
    return out


def tail_text(tail):
    perm, signs = tail
    text = "perm(%s)" % "".join("xyz"[perm[i]] for i in range(3))
    flips = "".join("xyz"[i] for i in range(3) if signs[i] < 0)
    return text + ("flip(%s)" % flips if flips else "")


def word_text(letters, tail=None):
    bits = [TOKEN[name] for name in letters]
    if tail is not None and tail != ((0, 1, 2), (1, 1, 1)):
        bits.append(tail_text(tail))
    return " ".join(bits)


# --- homology and PGL images as products of per-letter matrices -------------

def matmul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0]))) for i in range(len(a)))


def _point_perm_matrix(image_of, sign):
    pts = [tuple(Fraction(c) for c in p) for p in FOUR_POINTS]
    rows = [[0] * 5 for _ in range(5)]
    for i, pt in enumerate(pts):
        rows[pts.index(image_of(pt))][i] = sign
    rows[4][4] = sign
    return tuple(tuple(r) for r in rows)


@lru_cache(maxsize=None)
def letter_homology(name):
    return _point_perm_matrix(lambda pt: letter_image(name, pt), letter_sign(name))


def homology_matrix(letters, tail):
    m = tuple(tuple(int(i == j) for j in range(5)) for i in range(5))
    for name in letters:
        m = matmul(m, letter_homology(name))
    if tail is not None:
        m = matmul(m, _point_perm_matrix(lambda pt: tail_image(tail, pt), tail_sign(tail)))
    return m


def pgl_class(rows):
    (a, b), (c, d) = rows
    g = gcd(gcd(a, b), gcd(c, d))
    entries = [a // g, b // g, c // g, d // g]
    if next(e for e in entries if e) < 0:
        entries = [-e for e in entries]
    return ((entries[0], entries[1]), (entries[2], entries[3]))


def pgl_image(letters, tail):
    m = ((1, 0), (0, 1))
    for name in letters:
        m = matmul(m, PGL_LETTER[name])
    if tail is not None:
        probe = (Fraction(3), Fraction(5), Fraction(7))
        target = tail_image((tail[0], (1, 1, 1)), probe)
        word = next(w for w in _PERM_WORDS if word_image(w, None, probe) == target)
        for name in word:
            m = matmul(m, PGL_LETTER[name])
    return pgl_class(m)


def pgl_chars(rep):
    """(det, images of e1, e2, e1+e2 mod 2 as indices, congruence member)."""
    (a, b), (c, d) = rep
    pts = ((1, 0), (0, 1), (1, 1))
    images = tuple(pts.index(((a * u + b * v) % 2, (c * u + d * v) % 2)) for u, v in pts)
    return a * d - b * c, images, b % 2 == 0 and c % 2 == 0


# --- integer matrices: Smith form by determinantal divisors ------------------

def invariant_factors(rows):
    """Diagonal of the Smith normal form: d_k = g_k / g_{k-1} with g_k the gcd
    of all k x k minors."""
    n, m = len(rows), len(rows[0])
    out = []
    prev = 1
    for k in range(1, min(n, m) + 1):
        g = 0
        for rs in combinations(range(n), k):
            for cs in combinations(range(m), k):
                g = gcd(g, int(det([[rows[i][j] for j in cs] for i in rs])))
        if g == 0:
            out.extend([0] * (min(n, m) - k + 1))
            break
        out.append(g // prev)
        prev = g
    return out


def cokernel_of(rows):
    diag = invariant_factors(rows)
    rank = sum(1 for d in diag if d)
    return len(rows) - rank, [d for d in diag if d > 1]


def check_snf(m, d, u, v):
    """U*M*V = D with U, V unimodular and D the determinantal-divisor diagonal."""
    n, w = len(m), len(m[0])
    diag = invariant_factors(m)
    want = tuple(tuple(diag[i] if i == j else 0 for j in range(w)) for i in range(n))
    return (matmul(matmul(u, m), v) == want
            and tuple(map(tuple, d)) == want
            and abs(det(u)) == 1 and abs(det(v)) == 1)


def monodromy(euler):
    m = ((1, 0), (0, 1))
    for e in euler:
        m = matmul(m, ((0, -1), (1, -e)))
    return m


# --- lines -------------------------------------------------------------------

def is_square(q):
    q = Fraction(q)
    if q < 0:
        return False
    n, d = q.numerator, q.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


def lines_refused(t):
    """The documented refusals: a singular fiber at t = +-2, or zero divisors
    in Q[sqrt(t-2), sqrt(t+2)] without a rational instantiation."""
    t = Fraction(t)
    if t in (2, -2):
        return True
    a, b = is_square(t - 2), is_square(t + 2)
    if a and b:
        return False
    return a or b or is_square((t - 2) * (t + 2))


# --- SL(2) trace identities ----------------------------------------------------

def tr(m):
    return m[0][0] + m[1][1]


def inv2(m):
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def torus_expect(a, b):
    x, y, z = tr(a), tr(b), tr(matmul(a, b))
    comm = tr(matmul(matmul(matmul(a, b), inv2(a)), inv2(b)))
    return x, y, z, comm


def traces_expect(t1, t2, t3, t4):
    p = -(t1 * t2 + t3 * t4)
    q = -(t1 * t4 + t2 * t3)
    r = -(t1 * t3 + t2 * t4)
    s = 2 - t1 * t1 - t2 * t2 - t3 * t3 - t4 * t4 - t1 * t2 * t3 * t4
    return p, q, r, s


def sphere_expect(d1, d2, d3):
    d4 = inv2(matmul(matmul(d1, d2), d3))
    traces = tuple(Fraction(tr(d)) for d in (d1, d2, d3, d4))
    point = tuple(Fraction(-tr(matmul(a, b))) for a, b in ((d1, d2), (d2, d3), (d3, d1)))
    p, q, r, s = traces_expect(*traces)
    return traces, (p, q, r), s, point
