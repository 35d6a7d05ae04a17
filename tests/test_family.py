"""Critical points, critical values, and smoothness for the cubic family."""

import random
from fractions import Fraction

import pytest

from charcubic import univariate as uni
from charcubic.family import (build_kappa, critical_points, critical_values,
                              eliminant, fiber_is_smooth, hessian,
                              kappa_gradient, total_multiplicity)
from charcubic.matrices import Matrix


def test_build_kappa():
    k0 = build_kappa((0, 0, 0))
    assert k0.evaluate({"x": 2, "y": 2, "z": 2}) == 2
    assert k0.evaluate({"x": 0, "y": 0, "z": 0}) == -2
    k = build_kappa((1, -2, Fraction(1, 3)))
    assert k.evaluate({"x": 1, "y": 1, "z": 1}) == \
        3 - 1 - 1 + 2 - Fraction(1, 3) - 2
    sym = build_kappa(symbolic=True)
    assert sym.degree() == 3
    assert sym.coefficient((1, 1, 1, 0, 0, 0)) == -1
    with pytest.raises(ValueError):
        build_kappa((1, 2, 3), symbolic=True)


def test_eliminant_matches_direct_expansion():
    # closed form: (2z - R)(4 - z^2)^2 - (2P + Qz)(2Q + Pz), degree 5, lead 2
    rng = random.Random(21)
    for _ in range(50):
        p, q, r = (Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        e = eliminant((p, q, r))
        direct = [-(16 * r + 4 * p * q),
                  32 - 2 * p * p - 2 * q * q,
                  8 * r - p * q,
                  -16,
                  -r,
                  2]
        assert e == [Fraction(c) for c in direct]


def test_gradient_zero_exactly_at_critical_points():
    gx, gy, gz = kappa_gradient((0, 0, 0))
    for pt in [(2, 2, 2), (-2, -2, 2), (-2, 2, -2), (2, -2, -2), (0, 0, 0)]:
        vals = dict(zip("xyz", pt))
        assert gx.evaluate(vals) == 0
        assert gy.evaluate(vals) == 0
        assert gz.evaluate(vals) == 0
    assert gx.evaluate({"x": 1, "y": 0, "z": 0}) != 0


def test_critical_data_at_origin_params():
    pts = critical_points((0, 0, 0))
    assert len(pts) == 5
    assert all(cp.is_rational() and cp.multiplicity == 1 for cp in pts)
    got = {cp.point: cp.value for cp in pts}
    assert got == {(2, 2, 2): 2, (-2, -2, 2): 2, (-2, 2, -2): 2,
                   (2, -2, -2): 2, (0, 0, 0): -2}
    values = dict(critical_values((0, 0, 0)))
    assert values == {Fraction(2): 4, Fraction(-2): 1}
    assert total_multiplicity((0, 0, 0)) == 5


def test_critical_data_at_one_zero_zero():
    pts = critical_points((1, 0, 0))
    rational = [cp for cp in pts if cp.is_rational()]
    algebraic = [cp for cp in pts if not cp.is_rational()]
    assert len(rational) == 1
    assert rational[0].point == (Fraction(1, 2), 0, 0)
    assert rational[0].value == Fraction(-9, 4)
    assert sorted(tuple(cp.min_poly) for cp in algebraic) == \
        [(-5, 0, 1), (-3, 0, 1)]
    for cp in algebraic:
        assert cp.multiplicity == 1 and cp.degree() == 2 and cp.weight() == 2
    values = {v: m for v, m in critical_values((1, 0, 0))}
    assert values == {Fraction(-9, 4): 1, Fraction(0): 2, Fraction(4): 2}
    assert total_multiplicity((1, 0, 0)) == 5


def test_algebraic_point_parametrization_satisfies_gradient():
    # each non-rational class reports x, y as polynomials in the root variable;
    # substituting them into the gradient must give 0 mod the minimal polynomial
    for params in [(1, 0, 0), (0, 1, 0), (2, 3, -1), (Fraction(1, 2), 0, 1)]:
        for cp in critical_points(params):
            if cp.is_rational():
                continue
            mp = list(cp.min_poly)
            coords = [list(c) for c in cp.parametrization]
            grads = kappa_gradient(params)
            for g in grads:
                acc = [0]
                for (ex, ey, ez), coeff in g.terms():
                    term = [coeff]
                    for e, coord in zip((ex, ey, ez), coords):
                        for _ in range(e):
                            term = uni.poly_mod(uni.mul(term, coord), mp)
                    acc = uni.add(acc, term)
                assert uni.poly_mod(acc, mp) == []


def test_hessians():
    h, nondegenerate = hessian((0, 0, 0), (2, 2, 2))
    assert h == Matrix([[2, -2, -2], [-2, 2, -2], [-2, -2, 2]])
    assert [type(e) for e in h.rows[0]] == [int, Fraction, Fraction]  # as demos print it
    assert nondegenerate
    h0, nd0 = hessian((0, 0, 0), (0, 0, 0))
    assert h0 == Matrix.identity(3) * 2
    assert nd0
    with pytest.raises(ValueError):
        hessian((0, 0, 0), (1, 1, 1))  # not a critical point
    # at parameters (-1, -1, 1) the critical point (-1, -1, 1) has multiplicity 2
    h2, nd2 = hessian((-1, -1, 1), (-1, -1, 1))
    assert h2.det() == 0
    assert nd2 is False


def test_hessian_error_prints_values_not_reprs():
    with pytest.raises(ValueError) as err:
        hessian((1, 0, 0), (0, 0, 0))
    assert str(err.value) == "point (0, 0, 0) is not critical for parameters (1, 0, 0)"
    with pytest.raises(ValueError) as err:
        hessian((Fraction(1, 2), 0, 0), (0.5, 0, 0))
    assert str(err.value) == "point (1/2, 0, 0) is not critical for parameters (1/2, 0, 0)"


def test_fiber_smoothness():
    assert fiber_is_smooth((0, 0, 0), Fraction(17, 4))
    assert fiber_is_smooth((0, 0, 0), 5)
    assert not fiber_is_smooth((0, 0, 0), 2)
    assert not fiber_is_smooth((0, 0, 0), -2)
    assert not fiber_is_smooth((1, 0, 0), Fraction(-9, 4))


def test_boundary_branch_z_equals_two():
    # Q = -P activates the z = 2 branch; generic R keeps the two branch points
    # distinct, each with multiplicity 1, and the z = 2 factor of the eliminant
    # has multiplicity exactly 2
    pts = critical_points((4, -4, 1))
    on_branch = [cp for cp in pts
                 if (cp.point is not None and cp.point[2] == 2)
                 or (cp.point is None and cp.root_var == "y")]
    assert on_branch, "branch points expected at z = 2"
    assert total_multiplicity((4, -4, 1)) == 5
    e = eliminant((4, -4, 1))
    q, r = uni.divmod_poly(e, [4, -4, 1])  # divide by (z-2)^2
    assert r == []
    assert uni.eval_at(q, 2) != 0


def test_branch_double_root_collapses_to_one_fatter_point():
    # R = 4 + P^2/16 makes the branch quadratic a double root: one critical
    # point of multiplicity >= 2 sits at z = 2
    p = 4
    r = 4 + Fraction(p * p, 16)
    pts = critical_points((p, -p, r))
    fat = [cp for cp in pts if cp.multiplicity >= 2]
    assert len(fat) == 1
    assert fat[0].point is not None and fat[0].point[2] == 2
    assert total_multiplicity((p, -p, r)) == 5


def test_degenerate_corners_still_sum_to_five():
    for params in [(0, 0, 4), (8, -8, 8), (1, -1, 0)]:
        assert total_multiplicity(params) == 5


def test_random_parameters_weight_sum():
    rng = random.Random(22)
    for _ in range(60):
        params = tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 5))
                       for _ in range(3))
        assert total_multiplicity(params) == 5
