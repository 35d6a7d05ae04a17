"""The 2x2 integer matrix side of the symmetry groups.

Words over the generator alphabet map to classes of integer matrices up to
overall sign (determinant +-1).  Sign-change letters lie in the kernel of this
homomorphism; the quadratic involutions land in the congruence subgroup with
both off-diagonal entries even.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .autgroup import GroupWord
from .matrices import Matrix
from .univariate import _exact


class PglClass:
    """A 2x2 integer matrix up to overall sign, determinant +-1.

    The canonical representative is gcd-reduced with the first nonzero entry
    in row-major order positive.
    """

    __slots__ = ("rep",)

    def __init__(self, rows):
        (a, b), (c, d) = rows
        entries = [_exact(e) for e in (a, b, c, d)]
        if any(e.denominator != 1 for e in entries):
            raise ValueError("entries must be integers: %r" % (rows,))
        entries = [e.numerator for e in entries]
        g = gcd(*entries)
        if g == 0:
            raise ValueError("zero matrix has no class")
        entries = [e // g for e in entries]
        a, b, c, d = entries
        if a * d - b * c not in (1, -1):
            raise ValueError("determinant must be +-1, got %d" % (a * d - b * c))
        first = next(e for e in entries if e)
        if first < 0:
            entries = [-e for e in entries]
        self.rep = ((entries[0], entries[1]), (entries[2], entries[3]))

    @classmethod
    def identity(cls):
        return cls(((1, 0), (0, 1)))

    def det(self) -> int:
        (a, b), (c, d) = self.rep
        return a * d - b * c

    def __mul__(self, other):
        if not isinstance(other, PglClass):
            return NotImplemented
        return PglClass((Matrix(self.rep) * Matrix(other.rep)).rows)

    def __eq__(self, other):
        if not isinstance(other, PglClass):
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def __str__(self):
        (a, b), (c, d) = self.rep
        return "[[%d, %d], [%d, %d]] up to sign" % (a, b, c, d)

    def __repr__(self):
        return "PglClass(%r)" % (self.rep,)


# image of each letter
_LETTER_CLASSES = {name: PglClass(rows) for name, rows in {
    "alpha": ((0, -1), (1, 0)),
    "beta": ((1, -1), (1, 0)),
    "gamma": ((-1, 0), (0, 1)),
    "sigma_x": ((1, 0), (0, 1)),
    "sigma_y": ((1, 0), (0, 1)),
    "sigma_z": ((1, 0), (0, 1)),
    "tau1": ((1, 0), (0, -1)),
    "tau2": ((1, 0), (2, -1)),
    "tau3": ((1, 2), (0, -1)),
}.items()}

# image of each permutation part of a tail; the sign part is in the kernel
_PERM_CLASSES = {perm: PglClass(rows) for perm, rows in {
    (0, 1, 2): ((1, 0), (0, 1)),
    (0, 2, 1): ((1, -1), (0, -1)),
    (1, 0, 2): ((0, 1), (1, 0)),
    (1, 2, 0): ((1, -1), (1, 0)),
    (2, 0, 1): ((0, 1), (-1, 1)),
    (2, 1, 0): ((1, 0), (1, -1)),
}.items()}


def word_to_pgl(word) -> PglClass:
    """Product of the letters' matrices in word order, then the tail's, as a
    class; built from the right, starting at the tail."""
    word = GroupWord.of(word)
    m = _PERM_CLASSES[word.tail.perm]
    for name in reversed(word.letters):
        m = _LETTER_CLASSES[name] * m
    return m


_MOD2_POINTS = ((1, 0), (0, 1), (1, 1))
_MOD2_NAMES = ("e1", "e2", "e1+e2")


class PglCharacters(NamedTuple):
    det: int
    mod2: tuple          # images of the points (e1, e2, e1+e2), as indices
    congruence_member: bool


def pgl_characters(m: PglClass) -> PglCharacters:
    """Determinant, the induced permutation of the three nonzero vectors of
    (Z/2)^2, and membership in the even-off-diagonal congruence subgroup."""
    (a, b), (c, d) = m.rep
    images = []
    for (u, v) in _MOD2_POINTS:
        w = ((a * u + b * v) % 2, (c * u + d * v) % 2)
        images.append(_MOD2_POINTS.index(w))
    return PglCharacters(det=m.det(), mod2=tuple(images),
                         congruence_member=(b % 2 == 0 and c % 2 == 0))


def mod2_cycle_string(perm) -> str:
    """Cycle notation for a permutation of (e1, e2, e1+e2)."""
    seen = set()
    cycles = []
    for i in range(3):
        if i in seen or perm[i] == i:
            seen.add(i)
            continue
        cyc = [i]
        seen.add(i)
        j = perm[i]
        while j not in seen:
            cyc.append(j)
            seen.add(j)
            j = perm[j]
        cycles.append("(" + " ".join(_MOD2_NAMES[k] for k in cyc) + ")")
    return "".join(cycles) if cycles else "identity"
