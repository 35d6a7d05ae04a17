"""Sparse multivariate polynomials and polynomial self-maps."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from charcubic.multipoly import (MAP_VARS, MultiPoly, PolyMap,
                                 jacobian_determinant, map_compose)


def test_ring_identities():
    x, y, z = MultiPoly.gens(*MAP_VARS)
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y + z) ** 2 == x**2 + y**2 + z**2 + 2*x*y + 2*x*z + 2*y*z
    assert x - x == MultiPoly.zero(MAP_VARS)
    assert (x * 0).is_zero()
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x


def test_random_ring_axioms():
    rng = random.Random(11)
    gens = MultiPoly.gens(*MAP_VARS)

    def rand_poly():
        acc = MultiPoly.const(MAP_VARS, rng.randint(-3, 3))
        for _ in range(rng.randint(1, 4)):
            term = MultiPoly.const(MAP_VARS, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for g in gens:
                term = term * g ** rng.randint(0, 2)
            acc = acc + term
        return acc

    for _ in range(120):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)
        assert f + g == g + f
        assert f - g == -(g - f)


def test_degree_and_terms():
    x, y, z = MultiPoly.gens(*MAP_VARS)
    f = x**2 * y - z + 3
    assert f.degree() == 3
    assert f.coefficient((2, 1, 0)) == 1
    assert f.coefficient((0, 0, 1)) == -1
    assert f.coefficient((0, 0, 0)) == 3
    assert f.coefficient((5, 0, 0)) == 0
    assert MultiPoly.zero(MAP_VARS).degree() == -1
    assert MultiPoly.const(MAP_VARS, 7).degree() == 0


def test_constant_value_guard():
    x, _, _ = MultiPoly.gens(*MAP_VARS)
    assert MultiPoly.const(MAP_VARS, Fraction(5, 3)).constant_value() == Fraction(5, 3)
    with pytest.raises(ValueError):
        x.constant_value()


def test_evaluate_substitute_derivative():
    x, y, z = MultiPoly.gens(*MAP_VARS)
    f = x**2 + y**2 + z**2 - x*y*z - 2
    assert f.evaluate({"x": 2, "y": 2, "z": 2}) == 2
    assert f.evaluate({"x": 0, "y": 0, "z": 0}) == -2
    assert f.derivative("x") == 2*x - y*z
    # substitution is a ring homomorphism
    g = f.substitute({"x": y, "y": x, "z": x*y - z})
    assert g == f  # this particular map preserves f
    assert (f * f).substitute({"x": y, "y": x, "z": x*y - z}) == g * g


def test_string_round_trip_shape():
    x, y, z = MultiPoly.gens(*MAP_VARS)
    f = x**2 * y - x*z - y + Fraction(3, 2)
    assert str(f) == "x^2*y - x*z - y + 3/2"
    assert str(MultiPoly.zero(MAP_VARS)) == "0"
    assert str(-x) == "-x"


def test_mixed_variable_sets_rejected():
    x, y, z = MultiPoly.gens(*MAP_VARS)
    w = MultiPoly.variable("w", ("w", "t"))
    with pytest.raises(ValueError):
        _ = x + w


def test_poly_map_compose_and_identity():
    x, y, z = MultiPoly.gens(*MAP_VARS)
    alpha = PolyMap((y, x, x*y - z))
    ident = PolyMap.identity()
    assert map_compose(alpha, alpha) == ident
    assert alpha @ ident == alpha
    assert ident @ alpha == alpha
    # (f o g)(p) == f(g(p)) on sample points
    beta = PolyMap((y, z, x))
    fg = alpha @ beta
    for p in [(1, 2, 3), (0, 0, 0), (Fraction(1, 2), -1, 5)]:
        assert fg(p) == alpha(beta(p))


def test_poly_map_degrees_and_str():
    x, y, z = MultiPoly.gens(*MAP_VARS)
    tx = PolyMap((x, x**2*y - x*z - y, x*y - z))
    assert tx.component_degrees() == (1, 3, 2)
    assert tx.degree() == 3
    assert str(tx) == "x; x^2*y - x*z - y; x*y - z"


def test_jacobian_determinant():
    x, y, z = MultiPoly.gens(*MAP_VARS)
    alpha = PolyMap((y, x, x*y - z))
    assert jacobian_determinant(alpha) == MultiPoly.const(MAP_VARS, 1)
    gamma = PolyMap((x, y, x*y - z))
    assert jacobian_determinant(gamma) == MultiPoly.const(MAP_VARS, -1)
    squash = PolyMap((x, x, z))
    assert jacobian_determinant(squash).is_zero()


def test_float_coefficients_are_stored_exactly():
    # a float coefficient is read as the exact rational it denotes, as Matrix
    # and KappaParams.of read it; no float is ever stored
    f = MultiPoly(MAP_VARS, {(1, 0, 0): 0.5, (0, 0, 0): 0.1})
    assert f.terms() == [((1, 0, 0), Fraction(1, 2)), ((0, 0, 0), Fraction(0.1))]
    assert str(f) == "1/2*x + 3602879701896397/36028797018963968"
    c = MultiPoly.const(MAP_VARS, 0.25)
    assert c.constant_value() == Fraction(1, 4) and type(c.constant_value()) is Fraction
    assert MultiPoly.const(MAP_VARS, 2.0).constant_value() == 2
    assert type(MultiPoly.const(MAP_VARS, 2.0).constant_value()) is int
    for p in (f, c, f * c + f):
        assert all(type(n) is int for n in p._nums.values()) and type(p._den) is int
    with pytest.raises(TypeError):
        _ = f * 0.5
    # strings and Decimals are not numbers, even when they spell one
    for bad in ("1/2", "3", Decimal("0.5")):
        with pytest.raises(TypeError):
            MultiPoly(MAP_VARS, {(1, 0, 0): bad})
        with pytest.raises(TypeError):
            MultiPoly.const(MAP_VARS, bad)
