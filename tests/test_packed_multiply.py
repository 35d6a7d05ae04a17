"""The Kronecker-packed multiply against the dict-loop oracle, the content
form of the coefficients against a dict-of-Fractions oracle, and the
exponent-overflow guard."""

import contextlib
import io
from fractions import Fraction
from math import comb, gcd, isqrt
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcubic.autgroup import TAU_LETTERS, word_to_map
from charcubic.cli import run
from charcubic.multipoly import (_MAXEXP, _PACK_PAIRS, MAP_VARS, MultiPoly,
                                 _mul_dict, _mul_packed, _pack_var)
from charcubic.parsing import parse_poly

_INTS = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80))
_COEFFS = st.one_of(
    _INTS,
    st.builds(Fraction, _INTS, st.integers(1, 60)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([2**70, 3**40, 7])))


def _poly(terms):
    return MultiPoly(MAP_VARS, dict(terms))


def _polys(max_exp=4, min_size=1, max_size=12):
    exps = st.tuples(*[st.integers(0, max_exp)] * 3)
    return st.dictionaries(exps, _COEFFS, min_size=min_size, max_size=max_size).map(
        _poly).filter(bool)


def _check_invariant(p):
    """Content form: int numerators over a positive int denominator sharing
    no factor with all of them, 1 for zero; public values int or a proper
    Fraction."""
    assert type(p._den) is int and p._den > 0
    assert all(type(c) is int and c for c in p._nums.values())
    assert gcd(p._den, *p._nums.values()) == 1
    assert p._nums or p._den == 1
    for _, c in p.terms():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c


@settings(max_examples=150, deadline=None)
@given(_polys(), _polys())
def test_packed_matches_the_dict_loop_in_every_variable(f, g):
    want = _mul_dict(f._nums, g._nums)
    for var in range(3):
        got = _mul_packed(f._nums, g._nums, var)
        assert got == want
        assert all(type(c) is int for c in got.values())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_matches_the_dict_loop_just_under_the_field_limit(data):
    # per variable, the highest exponents of the two operands sum to _MAXEXP
    tops = [data.draw(st.integers(6, _MAXEXP - 6)) for _ in range(3)]

    def near(top):
        exps = st.tuples(*[st.integers(t - 6, t) for t in top])
        return data.draw(st.dictionaries(exps, _COEFFS, min_size=1, max_size=8))

    f = _poly(near(tops))
    g = _poly(near([_MAXEXP - t for t in tops]))
    if not f or not g:
        return
    want = _mul_dict(f._nums, g._nums)
    for var in range(3):
        assert _mul_packed(f._nums, g._nums, var) == want
    assert f * g == MultiPoly._raw(MAP_VARS, want, f._den * g._den)


# nonzero coefficients on distinct keys, enough of them that every product
# reaches _PACK_PAIRS
_LARGE_SIZE = isqrt(_PACK_PAIRS - 1) + 1
_LARGE = st.dictionaries(st.tuples(*[st.integers(0, 6)] * 3), _COEFFS.filter(bool),
                         min_size=_LARGE_SIZE, max_size=_LARGE_SIZE + 20).map(_poly)


@settings(max_examples=30, deadline=None)
@given(_LARGE, _LARGE)
def test_large_products_take_the_packed_path_and_agree(f, g):
    assert len(f) * len(g) >= _PACK_PAIRS
    assert _pack_var(f._nums, g._nums, 3) is not None
    with mock.patch("charcubic.multipoly._mul_packed", wraps=_mul_packed) as packed:
        prod = f * g
    assert packed.call_count == 1
    assert prod == MultiPoly._raw(MAP_VARS, _mul_dict(f._nums, g._nums), f._den * g._den)


def test_cancellations_and_single_terms():
    x, y, z = MultiPoly.gens(*MAP_VARS)
    cases = [
        (x + y, x - y),                                     # middle term cancels
        ((x + y) * (y + z), (x - y) * (y - z)),
        (x * y * z * Fraction(3, 7), x**2 + y * z - 5),     # single-term operand
        (MultiPoly.const(MAP_VARS, -4), x**3 - y),
        (x + Fraction(1, 2), x - Fraction(1, 2)),           # content 1/4, result x^2 - 1/4
        (x**2 * Fraction(2, 3) + y, x * Fraction(3, 2) - z * Fraction(1, 6)),
    ]
    for f, g in cases:
        want = _mul_dict(f._nums, g._nums)
        for var in range(3):
            assert _mul_packed(f._nums, g._nums, var) == want
    assert _mul_packed((x + 1)._nums, (x - 1)._nums, 0) == (x**2 - 1)._nums
    # a product with integral coefficients built from rational operands
    half = (x + y) * Fraction(1, 2)
    assert half._den == 2
    prod = MultiPoly._raw(MAP_VARS, _mul_packed(half._nums, (x * 2 - y * 2)._nums, 0),
                          half._den)
    assert prod == x**2 - y**2 and prod._den == 1
    assert all(type(c) is int for _, c in prod.terms())


def test_slots_hold_the_largest_coefficient_sum():
    # (2^k - 1) * (1 + x + ... + x^(m-1)) squared puts m * (2^k - 1)^2 in the
    # middle slot, the most the slot bound allows; every k meets every byte
    # rounding of the slot width
    x = MultiPoly.gens(*MAP_VARS)[0]
    for m in (3, 7, 15):
        ones = sum((x**i for i in range(m)), MultiPoly.zero(MAP_VARS))
        for k in range(1, 40):
            f = ones * (2**k - 1)
            for g in (f, -f):
                assert _mul_packed(f._nums, g._nums, 0) == _mul_dict(f._nums, g._nums)


def test_pack_var_picks_the_fewest_group_pairs_and_skips_sparse_spans():
    x, y, z = MultiPoly.gens(*MAP_VARS)
    # dense in x, one value each of y and z: packing x leaves one group pair
    f = sum((x**i for i in range(30)), MultiPoly.zero(MAP_VARS)) * y * z
    assert _pack_var(f._nums, f._nums, 3) == 0
    g = sum((z**i * y**(i % 3) for i in range(30)), MultiPoly.zero(MAP_VARS))
    assert _pack_var(g._nums, g._nums, 3) == 2
    # exponents 0 and 30000 in every variable: no packing would be dense
    sparse = x**30000 + y**30000 + z**30000 + 1
    assert _pack_var(sparse._nums, sparse._nums, 3) is None
    assert (sparse * sparse).coefficient((0, 30000, 0)) == 2


def test_dense_products_take_the_dict_loop_and_agree():
    # (x + y + z)^30 has 496 terms, one per group whichever variable is
    # packed, so packing would fill 1 slot in 31
    x, y, z = MultiPoly.gens(*MAP_VARS)
    f = (x + y + z) ** 30
    g = f * 3 - x**30
    for a, b in ((f, f), (f, g)):
        assert len(a) * len(b) >= _PACK_PAIRS
        assert _pack_var(a._nums, b._nums, 3) is None
        with mock.patch("charcubic.multipoly._mul_packed", wraps=_mul_packed) as packed, \
                mock.patch("charcubic.multipoly._mul_dict", wraps=_mul_dict) as loop:
            prod = a * b
        assert packed.call_count == 0 and loop.call_count == 1
        assert prod == MultiPoly._raw(MAP_VARS, _mul_dict(a._nums, b._nums), a._den * b._den)
    assert (f * f).coefficient((20, 20, 20)) == comb(60, 20) * comb(40, 20)


@st.composite
def _ops(draw):
    f = draw(_polys(max_exp=3, max_size=6))
    g = draw(_polys(max_exp=3, max_size=6))
    c = draw(_COEFFS)
    return f, g, c


@settings(max_examples=150, deadline=None)
@given(_ops(), st.integers(0, 3))
def test_content_form_survives_any_operation(ops, n):
    f, g, c = ops
    x, y, z = MultiPoly.gens(*MAP_VARS)
    results = [f + g, f - g, f * g, f + c, f - c, c - f, f * c, c * f, f ** n,
               f * Fraction(1, 3) * 3, f - f, f * 0, f + (-f), f.derivative("x"),
               f.derivative("z"), f.substitute({"x": g, "y": x + c, "z": z * c})]
    for p in results:
        _check_invariant(p)


# -- an independent oracle: a dict from exponent tuples to Fractions ----------

def _o_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def _o_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _o_evaluate(a, point):
    total = Fraction(0)
    for e, c in a.items():
        for v, k in zip(point, e):
            c *= Fraction(v) ** k
        total += c
    return total


def _o_substitute(a, images):
    out = {}
    for e, c in a.items():
        term = {(0, 0, 0): Fraction(c)}
        for img, k in zip(images, e):
            for _ in range(k):
                term = _o_mul(term, img)
        out = _o_add(out, term)
    return out


_SMALL_COEFFS = st.one_of(st.integers(-9, 9),
                          st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)))
_ORACLE_POLYS = st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), _SMALL_COEFFS,
                                max_size=5).map(
    lambda d: {e: Fraction(c) for e, c in d.items() if c})


@settings(max_examples=150, deadline=None)
@given(_ORACLE_POLYS, _ORACLE_POLYS, _ORACLE_POLYS,
       st.tuples(*[_SMALL_COEFFS] * 3))
def test_arithmetic_agrees_with_a_fraction_dict_oracle(a, b, c, point):
    f, g, h = _poly(a), _poly(b), _poly(c)
    for got, want in [(f + g, _o_add(a, b)), (f - g, _o_add(a, b, -1)),
                      (f * g, _o_mul(a, b)),
                      (f.substitute({"x": g, "y": h, "z": f}), _o_substitute(a, (b, c, a)))]:
        assert dict(got.terms()) == want
        _check_invariant(got)
    value = f.evaluate(dict(zip(MAP_VARS, point)))
    assert value == _o_evaluate(a, point)
    assert type(value) is int or value.denominator > 1


def test_integer_parameters_keep_integer_coefficients():
    f = word_to_map(("tau1", "tau2", "tau3", "tau1", "tau2"), (1, -2, 3))
    for comp in f.components:
        assert comp.terms()
        assert all(type(c) is int for _, c in comp.terms())
    # integral Fractions count as integers too
    g = word_to_map(TAU_LETTERS, (Fraction(4, 2), Fraction(-3), 0))
    assert all(type(c) is int for comp in g.components for _, c in comp.terms())


def test_product_degree_is_cached_and_exact():
    x, y, z = MultiPoly.gens(*MAP_VARS)
    f = (x * y - z + 3) * (x**2 - y)
    assert f._degree == 4
    assert f.degree() == MultiPoly(MAP_VARS, dict(f.terms())).degree()


def test_exponent_overflow_raises_instead_of_wrapping():
    x, y, z = MultiPoly.gens(*MAP_VARS)
    with pytest.raises(ValueError, match="exponent of x"):
        x**40000 * x**40000
    with pytest.raises(ValueError, match="exponent of x"):
        x**65535 * x
    with pytest.raises(ValueError, match="exponent of y"):
        (x * y**65535) * (y + 1)
    with pytest.raises(ValueError, match="exponent of x"):
        parse_poly("x^70000")
    with pytest.raises(ValueError, match="exponent of z"):
        (z**40000).substitute({"x": x, "y": y, "z": z**2})
    # at the limit itself, and total degree past it with no variable past it
    assert (x**65534 * x).coefficient((_MAXEXP, 0, 0)) == 1
    assert (x**40000 * y**40000).degree() == 80000
    big = (x * y * z) ** 30000 * (x * y * z) ** 35535
    assert big.coefficient((_MAXEXP,) * 3) == 1


def test_cli_reports_exponent_overflow_with_exit_1():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["aut", "check", "--map", "x^70000; y; z"])
    assert code == 1
    assert out.getvalue() == ""
    assert err.getvalue() == "error: exponent of x in a product would exceed 65535\n"
