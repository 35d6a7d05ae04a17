"""The rank-5 middle homology lattice of a smooth fiber.

Automorphisms act through signed permutation matrices of the form
sign * (permutation of the first four coordinates + fixed fifth), read off
from the action on the four distinguished critical points and the constant
Jacobian sign.  Intersection forms are given in the vanishing-cycle basis and
in the alternative five-class basis, with the unimodular change of basis
between them; the boundary 3-manifold's monodromy and first homology round
out the lattice data.
"""

from __future__ import annotations

from typing import NamedTuple

from .autgroup import gamma_to_s4
from .matrices import Matrix, cokernel
from .univariate import _exact

VANISHING_CYCLE_GRAM = Matrix([
    [-2, 0, 0, 0, 1],
    [0, -2, 0, 0, 1],
    [0, 0, -2, 0, 1],
    [0, 0, 0, -2, 1],
    [1, 1, 1, 1, -2],
])

ALPHA_GRAM = Matrix([
    [-4, 2, 0, 0, 0],
    [2, -2, -1, 0, 0],
    [0, -1, -2, 1, 0],
    [0, 0, 1, -2, 2],
    [0, 0, 0, 2, -4],
])

# columns express the vanishing-cycle basis in alpha-coordinates
BASIS_CHANGE = Matrix([
    [0, 0, 1, 0, 0],
    [0, 0, 1, 1, 0],
    [0, 0, 0, 0, -1],
    [-1, -1, 0, 0, 0],
    [-1, 0, 0, 0, 0],
])

_BASIS_ALIASES = {
    "vanishing_cycle": "vanishing_cycle", "vc": "vanishing_cycle",
    "alpha": "alpha",
}


class IntersectionForm(NamedTuple):
    matrix: Matrix
    basis: str


def intersection_form(basis: str = "vanishing_cycle") -> IntersectionForm:
    try:
        basis = _BASIS_ALIASES[basis]
    except KeyError:
        raise ValueError("basis must be 'vanishing_cycle' (or 'vc') or 'alpha', got %r" % basis)
    m = VANISHING_CYCLE_GRAM if basis == "vanishing_cycle" else ALPHA_GRAM
    return IntersectionForm(matrix=m, basis=basis)


def basis_change() -> Matrix:
    return BASIS_CHANGE


def homology_action(f) -> Matrix:
    """The induced 5x5 integer matrix, acting on column vectors.

    f is a PolyMap or a parameter-free word (read letter by letter).  With
    (m, sign) = gamma_to_s4(f), the matrix is sign * (the permutation matrix
    with entries [m[i]][i] = 1, plus a fixed fifth coordinate); pushing
    forward makes it a homomorphism: action(f o g) = action(f) * action(g).
    """
    perm, sign = gamma_to_s4(f)
    rows = [[0] * 5 for _ in range(5)]
    for i in range(4):
        rows[perm[i]][i] = sign
    rows[4][4] = sign
    return Matrix(rows)


def link_monodromy(config) -> Matrix:
    """Monodromy of a cyclic configuration of rational curves at infinity:
    the product of [[0, -1], [1, -e]] over the self-intersection numbers e,
    in list order."""
    config = tuple(map(_exact, config))
    if not config:
        raise ValueError("configuration must list at least one self-intersection number")
    m = Matrix.identity(2)
    for e in config:
        if e.denominator != 1:
            raise ValueError("self-intersection numbers must be integers: %s" % (e,))
        m = m * Matrix([[0, -1], [1, -e.numerator]])
    return m


def link_h1(form=None):
    """First homology of the boundary 3-manifold as (free rank, torsion),
    computed as the cokernel of an intersection form (default: the
    vanishing-cycle Gram matrix)."""
    if form is None:
        form = intersection_form("vanishing_cycle")
    if isinstance(form, IntersectionForm):
        form = form.matrix
    return cokernel(form)
