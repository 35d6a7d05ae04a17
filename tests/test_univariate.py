"""Dense univariate helpers (ascending coefficient lists)."""

import random
from fractions import Fraction

import pytest

from charcubic import univariate as uni


def rand_poly(rng, max_deg=6):
    return uni.trim([Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                     for _ in range(rng.randint(1, max_deg + 1))])


def test_basic_ops():
    f = [1, 2, 1]            # (1+z)^2
    g = [1, 1]               # 1+z
    assert uni.mul(g, g) == f
    assert uni.add(f, uni.scale(g, -1)) == [0, 1, 1]
    assert uni.degree(f) == 2
    assert uni.degree([]) == -1
    assert uni.trim([0, 0]) == []
    assert uni.eval_at(f, 3) == 16


def test_divmod_invariant():
    rng = random.Random(5)
    for _ in range(150):
        f = rand_poly(rng)
        g = rand_poly(rng)
        if uni.degree(g) < 0:
            continue
        q, r = uni.divmod_poly(f, g)
        assert uni.add(uni.mul(q, g), r) == uni.trim(f)
        assert uni.degree(r) < uni.degree(g)
    with pytest.raises(ZeroDivisionError):
        uni.divmod_poly([1, 1], [0])


def test_exact_div_detects_remainder():
    assert uni.exact_div([1, 2, 1], [1, 1]) == [1, 1]
    with pytest.raises(ValueError):
        uni.exact_div([1, 1, 1], [1, 1])


def test_gcd_and_xgcd():
    rng = random.Random(6)
    for _ in range(100):
        a, b, c = rand_poly(rng, 3), rand_poly(rng, 3), rand_poly(rng, 2)
        f, g = uni.mul(a, c), uni.mul(b, c)
        if uni.degree(c) < 0 or (uni.degree(a) < 0 and uni.degree(b) < 0):
            continue
        d = uni.gcd(f, g)
        assert d[-1] == 1  # monic
        if uni.degree(c) > 0:
            _, r = uni.divmod_poly(d, c)
            assert uni.degree(r) == -1  # the planted common factor divides the gcd
        d2, s, t = uni.xgcd(f, g)
        assert d2 == d
        assert uni.add(uni.mul(s, f), uni.mul(t, g)) == d2


def test_invert_mod():
    m = [1, 0, 1]  # z^2 + 1
    inv = uni.invert_mod([1, 1], m)       # (1+z)^-1 mod z^2+1
    assert uni.poly_mod(uni.mul(inv, [1, 1]), m) == [1]
    with pytest.raises(ValueError):
        uni.invert_mod([1, 0, 1], m)      # not a unit mod itself


def test_squarefree_decomposition():
    # f = (z-1)^2 (z+2)^3
    f = uni.mul(uni.mul([-1, 1], [-1, 1]), uni.mul(uni.mul([2, 1], [2, 1]), [2, 1]))
    parts = uni.squarefree_decomposition(f)
    flat = {}
    for factor, mult in parts:
        if uni.degree(factor) > 0:
            flat[tuple(uni.monic(factor))] = mult
    assert flat == {(-1, 1): 2, (2, 1): 3}
    rebuilt = [Fraction(1)]
    for factor, mult in parts:
        for _ in range(mult):
            rebuilt = uni.mul(rebuilt, factor)
    assert uni.monic(rebuilt) == uni.monic(f)


def test_rational_roots():
    # 2(z - 1/2)^2 (z + 3)(z^2 + 1)
    f = [Fraction(2)]
    for factor in ([Fraction(-1, 2), 1], [Fraction(-1, 2), 1], [3, 1], [1, 0, 1]):
        f = uni.mul(f, factor)
    roots, rest = uni.rational_roots(f)
    assert dict(roots) == {Fraction(1, 2): 2, Fraction(-3): 1}
    assert uni.monic(rest) == [1, 0, 1]
    roots2, rest2 = uni.rational_roots([1, 0, 1])
    assert roots2 == [] and uni.monic(rest2) == [1, 0, 1]


def test_root_multiplicity():
    # (z - 2)^3 (z + 1)
    f = uni.mul(uni.mul([-2, 1], uni.mul([-2, 1], [-2, 1])), [1, 1])
    assert uni.root_multiplicity(f, 2) == (3, [1, 1])
    assert uni.root_multiplicity(f, Fraction(1, 2)) == (0, f)
    with pytest.raises(ValueError):
        uni.root_multiplicity([], 2)


def test_even_split():
    # z^4 - 5 z^2 + 4 = (z^2-1)(z^2-4): even in z, splits in w = z^2
    quads, rest = uni.split_even_factor([4, 0, -5, 0, 1])
    assert sorted(tuple(q) for q in quads) == [(-4, 0, 1), (-1, 0, 1)]
    assert uni.degree(rest) <= 0
    # odd-degree leftover is returned untouched
    quads2, rest2 = uni.split_even_factor([1, 1, 1])
    assert quads2 == [] and rest2 == [1, 1, 1]


def test_to_string():
    assert uni.to_string([Fraction(-3, 2), 0, 1], "z") == "z^2 - 3/2"
    assert uni.to_string([0], "z") == "0"
    assert uni.to_string([-1, 0, Fraction(-1, 2), -1], "v") == "-v^3 - 1/2*v^2 - 1"
    assert uni.to_string([0, 1]) == "z"
