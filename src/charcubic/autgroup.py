"""Polynomial symmetries of the cubic family.

Generator maps, signed permutations, group words, the degree-reduction normal
form for compositions of the three quadratic involutions, and the action on
the four distinguished points of the parameter-free member.

Composition convention everywhere: (f o g)(p) = f(g(p)), and a word
[w1, ..., wk] denotes w1 o w2 o ... o wk, so the rightmost letter acts first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import permutations, product

from .family import as_params, build_kappa
from .multipoly import MAP_VARS, MultiPoly, PolyMap, jacobian_determinant
from .univariate import _exact, _rational

GAMMA_LETTERS = ("alpha", "beta", "gamma", "sigma_x", "sigma_y", "sigma_z")
TAU_LETTERS = ("tau1", "tau2", "tau3")
ALL_LETTERS = GAMMA_LETTERS + TAU_LETTERS

# the four distinguished rational critical points of the parameter-free member
FOUR_POINTS = (
    (Fraction(2), Fraction(-2), Fraction(-2)),
    (Fraction(-2), Fraction(2), Fraction(-2)),
    (Fraction(-2), Fraction(-2), Fraction(2)),
    (Fraction(2), Fraction(2), Fraction(2)),
)

_AXES = "xyz"


class SignedPerm:
    """Monomial linear map: component i is signs[i] * coordinate perm[i].

    perm is a permutation of (0, 1, 2) listing which input coordinate each
    output slot reads; signs is a vector in {+1, -1}^3 applied after the
    permutation.  The textual form matches the word-grammar tail literal,
    e.g. (-y, -x, z) prints as perm(yxz)flip(xy).
    """

    __slots__ = ("perm", "signs")

    def __init__(self, perm=(0, 1, 2), signs=(1, 1, 1)):
        perm = tuple(perm)
        signs = tuple(signs)
        if sorted(perm) != [0, 1, 2]:
            raise ValueError("perm must be a permutation of (0, 1, 2): %r" % (perm,))
        if len(signs) != 3 or any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be three values in {+1, -1}: %r" % (signs,))
        self.perm = perm
        self.signs = signs

    @classmethod
    def identity(cls):
        return cls()

    def is_identity(self):
        return self.perm == (0, 1, 2) and self.signs == (1, 1, 1)

    def to_poly_map(self) -> PolyMap:
        comps = tuple(
            MultiPoly.variable(_AXES[self.perm[i]], MAP_VARS) * self.signs[i]
            for i in range(3))
        return PolyMap(comps)

    def apply(self, point):
        point = tuple(map(_exact, point))
        return tuple(self.signs[i] * point[self.perm[i]] for i in range(3))

    def compose(self, other: "SignedPerm") -> "SignedPerm":
        """self o other as maps (other acts first)."""
        perm = tuple(other.perm[self.perm[i]] for i in range(3))
        signs = tuple(self.signs[i] * other.signs[self.perm[i]] for i in range(3))
        return SignedPerm(perm, signs)

    def inverse(self) -> "SignedPerm":
        perm = [0, 0, 0]
        signs = [1, 1, 1]
        for i in range(3):
            perm[self.perm[i]] = i
            signs[self.perm[i]] = self.signs[i]
        return SignedPerm(tuple(perm), tuple(signs))

    def jacobian_sign(self) -> int:
        sgn = 1
        p = list(self.perm)
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    sgn = -sgn
        return sgn * self.signs[0] * self.signs[1] * self.signs[2]

    def preserves(self, params) -> bool:
        return is_automorphism(self.to_poly_map(), params)

    def __eq__(self, other):
        if not isinstance(other, SignedPerm):
            return NotImplemented
        return self.perm == other.perm and self.signs == other.signs

    def __hash__(self):
        return hash((self.perm, self.signs))

    def __str__(self):
        out = "perm(%s)" % "".join(_AXES[self.perm[i]] for i in range(3))
        flips = "".join(_AXES[i] for i in range(3) if self.signs[i] < 0)
        if flips:
            out += "flip(%s)" % flips
        return out

    def __repr__(self):
        return "SignedPerm(%r, %r)" % (self.perm, self.signs)


# each letter as a ring-generic formula (x, y, z, p, q, r) -> image triple,
# used on polynomials and on points alike
_LETTER_FORMULAS = {
    "alpha": lambda x, y, z, p, q, r: (y, x, x * y - z),
    "beta": lambda x, y, z, p, q, r: (y, z, x),
    "gamma": lambda x, y, z, p, q, r: (x, y, x * y - z),
    "sigma_x": lambda x, y, z, p, q, r: (x, -y, -z),
    "sigma_y": lambda x, y, z, p, q, r: (-x, y, -z),
    "sigma_z": lambda x, y, z, p, q, r: (-x, -y, z),
    "tau1": lambda x, y, z, p, q, r: (x, y, x * y - z + r),
    "tau2": lambda x, y, z, p, q, r: (y * z - x + p, y, z),
    "tau3": lambda x, y, z, p, q, r: (x, x * z - y + q, z),
}


def _formula(name: str, params):
    """The letter's formula, after checking it exists at these parameters."""
    if name in GAMMA_LETTERS and tuple(params) != (0, 0, 0):
        raise ValueError("letter %r is only defined at parameters (0, 0, 0)" % name)
    if name not in _LETTER_FORMULAS:
        raise ValueError("unknown letter %r" % name)
    return _LETTER_FORMULAS[name]


def _after(name: str, f: PolyMap, params) -> PolyMap:
    """generator(name, params) o f, by plugging f's components into the formula."""
    return PolyMap(_formula(name, params)(*f.components, *params))


def generator(name: str, params=(0, 0, 0)) -> PolyMap:
    """The generator map for a letter; quadratic-involution letters take any
    parameters, the parameter-free alphabet requires params = (0, 0, 0)."""
    return _after(name, PolyMap.identity(), as_params(params))


# Jacobian determinant of each generator map (all are constants)
LETTER_SIGNS = {name: jacobian_determinant(generator(name)).constant_value()
                for name in ALL_LETTERS}


@dataclass(frozen=True)
class GroupWord:
    """An ordered tuple of letters followed by a signed permutation, the tail
    (applied first, i.e. rightmost in the composition).  A word built without
    a tail, or with tail None, has the identity tail."""

    letters: tuple
    tail: SignedPerm = None

    def __post_init__(self):
        if isinstance(self.letters, str):
            raise ValueError("a word is a sequence of letters, not the string %r"
                             % self.letters)
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.tail is None:
            object.__setattr__(self, "tail", SignedPerm.identity())
        for name in self.letters:
            if name not in ALL_LETTERS:
                raise ValueError("unknown letter %r" % name)

    @classmethod
    def of(cls, word) -> "GroupWord":
        """A GroupWord unchanged, or a letter sequence as a word without tail."""
        return word if isinstance(word, GroupWord) else cls(word)

    def __len__(self):
        return len(self.letters)

    def is_reduced(self) -> bool:
        """No two consecutive equal quadratic-involution letters."""
        return reduce_tau_word(self.letters) == self.letters

    def __str__(self):
        bits = list(self.letters)
        if not self.tail.is_identity():
            bits.append(str(self.tail))
        return " ".join(bits) if bits else "(empty)"


def reduce_tau_word(letters) -> tuple:
    """Cancel adjacent equal involution letters until none remain."""
    out = []
    for name in letters:
        if out and out[-1] == name and name in TAU_LETTERS:
            out.pop()
        else:
            out.append(name)
    return tuple(out)


def word_to_map(word, params=(0, 0, 0)) -> PolyMap:
    """Compose the word's letters (and trailing signed permutation) in order."""
    params = as_params(params)
    word = GroupWord.of(word)
    f = word.tail.to_poly_map()
    for name in reversed(word.letters):
        f = _after(name, f, params)
    return f


def apply_word(word, point, params=(0, 0, 0)) -> tuple:
    """word_to_map(word, params)(point), int where integral, computed one
    letter formula at a time (rightmost first) on the point itself."""
    params = tuple(_rational(c) for c in as_params(params))
    word = GroupWord.of(word)
    if len(point) != 3:
        raise ValueError("a point needs three coordinates")
    point = word.tail.apply(tuple(_rational(c) for c in point))
    for name in reversed(word.letters):
        point = _formula(name, params)(*point, *params)
    return tuple(_rational(c) for c in point)


def sign_character(word, params=(0, 0, 0)) -> int:
    """Product of the letters' constant Jacobian determinants, times the
    trailing permutation's sign; equals the Jacobian of word_to_map.  Each
    letter must exist at the parameters, as in word_to_map."""
    params = as_params(params)
    word = GroupWord.of(word)
    sign = word.tail.jacobian_sign()
    for name in word.letters:
        _formula(name, params)
        sign *= LETTER_SIGNS[name]
    return sign


def is_automorphism(f: PolyMap, params=(0, 0, 0)) -> bool:
    """Exact polynomial identity kappa o f = kappa."""
    k = build_kappa(as_params(params))
    fx, fy, fz = f.components
    return k.substitute({"x": fx, "y": fy, "z": fz}) == k


# all 48 signed permutations with their maps, in a fixed order
_SIGNED_PERMS = tuple(
    (sp, sp.to_poly_map())
    for sp in (SignedPerm(perm, signs)
               for perm in sorted(permutations((0, 1, 2)))
               for signs in product((1, -1), repeat=3)))


def affine_stabilizer(params) -> list:
    """All signed permutations preserving the family member, by exhaustive
    check of the 48 candidates.  Deterministic order."""
    params = as_params(params)
    return [sp for sp, _ in _SIGNED_PERMS if sp.preserves(params)]


def gamma_to_s4(f) -> tuple:
    """(permutation of the four distinguished points, constant Jacobian sign).

    f is a PolyMap, or a parameter-free word read through apply_word and
    sign_character.  The permutation is a tuple m with f(point_i) =
    point_{m[i]} (0-indexed).  Raises ValueError when an image misses the point
    list or the Jacobian is not a constant +-1; both certify f is not an
    automorphism of the parameter-free member.
    """
    word = None if isinstance(f, PolyMap) else GroupWord.of(f)
    image = f if word is None else partial(apply_word, word)
    images = []
    for pt in FOUR_POINTS:
        q = image(pt)
        if q not in FOUR_POINTS:
            raise ValueError("image %s of %s is not a distinguished point" % (q, pt))
        images.append(FOUR_POINTS.index(q))
    if sorted(images) != [0, 1, 2, 3]:
        raise ValueError("map does not permute the four distinguished points")
    if word is not None:
        return tuple(images), sign_character(word)
    jac = jacobian_determinant(f)
    if not jac.is_constant() or jac.constant_value() not in (1, -1):
        raise ValueError("Jacobian determinant is not a constant +-1: %s" % jac)
    return tuple(images), int(jac.constant_value())


_REPLACED_SLOT_TAU = ("tau2", "tau3", "tau1")  # slot i is rewritten by this letter


def horowitz_decompose(f: PolyMap, params=(0, 0, 0)):
    """Normal form of an automorphism: (letters, tail) with
    f = word_to_map(letters, params) o tail and no two consecutive letters equal.

    Each step peels the unique degree-reducing involution off the left:
    rewriting slot i replaces component i by a product of the other two
    (minus the old component), so the degree can only drop when slot i is the
    strict maximum — for any other slot the new degree is the exact sum of the
    other two component degrees, which already exceeds the maximum.  The loop
    therefore composes only that one candidate.

    The affine residue is looked up among the 48 signed-permutation maps, and
    only the match is checked against the family member (one kappa
    substitution).

    A map outside the group fails loudly: either no slot is a strict maximum,
    the candidate fails to reduce, or the affine residue is not a signed
    permutation preserving the family member.
    """
    params = as_params(params)
    letters = []
    g = f
    while g.degree() > 1:
        degs = g.component_degrees()
        if degs.count(max(degs)) != 1:
            raise ValueError("reduction stalls: tied component degrees %s" % (degs,))
        name = _REPLACED_SLOT_TAU[degs.index(max(degs))]
        candidate = _after(name, g, params)
        if candidate.degree() >= g.degree():
            raise ValueError("reduction stalls at degree %d: "
                             "map is not in the involution-generated group" % g.degree())
        g = candidate
        letters.append(name)
    for tail, tail_map in _SIGNED_PERMS:
        if tail_map == g and tail.preserves(params):
            return tuple(letters), tail
    raise ValueError("affine residue %s does not preserve the family member" % g)


def dehn_twist(name: str, params=(0, 0, 0)) -> PolyMap:
    """The twist X = tau3 o tau1, (x, x^2 y - x z + R x - y + Q, x y - z + R),
    or Y = tau1 o tau2, (y z - x + P, y, y^2 z - x y + P y - z + R)."""
    if name not in ("X", "Y"):
        raise ValueError("twist name must be 'X' or 'Y', got %r" % name)
    return word_to_map(("tau3", "tau1") if name == "X" else ("tau1", "tau2"), params)
