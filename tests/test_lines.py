"""The 24 lines on a smooth fiber, incidence counts, and the class Gram matrix."""

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcubic import univariate as uni
from charcubic.homology import VANISHING_CYCLE_GRAM
from charcubic.lines import (class_gram, fiber_residual, line_contained_in_fiber,
                             line_incidence, lines_on_fiber)
from charcubic.sqrtalgebra import SqrtAlgebraElem, ZeroDivisorError

T = Fraction(17, 4)


def by_key(t):
    return {(ln.projection, ln.label): ln for ln in lines_on_fiber(t)}


def test_enumeration_shape():
    lns = lines_on_fiber(T)
    assert len(lns) == 24
    assert sorted({ln.projection for ln in lns}) == ["x", "y", "z"]
    labels = [ln.label for ln in lns if ln.projection == "z"]
    assert labels == ["L%d" % i for i in range(1, 9)]


def test_printed_forms_at_17_4():
    lines = by_key(T)
    l1 = lines[("z", "L1")]
    assert str(l1) == "L1 (z-projection): z = 2, base (3/2, 0, 2), direction (1, 1, 0)"
    l3 = lines[("z", "L3")]
    assert l3.base == (0, 0, Fraction(5, 2))
    assert l3.direction == (2, 1, 0)
    l4 = lines[("z", "L4")]
    assert l4.direction == (Fraction(1, 2), 1, 0)   # x = y/2 on z = 5/2
    l7 = lines[("z", "L7")]
    assert l7.base == (Fraction(3, 2), 0, -2)
    assert l7.direction == (-1, 1, 0)


def test_all_lines_contained_in_fiber():
    for t in (T, 5, 3, Fraction(9, 2)):
        for ln in lines_on_fiber(t):
            assert line_contained_in_fiber(ln)
            assert all(c.is_zero() for c in fiber_residual(ln))


def test_perturbed_line_rejected():
    lines = by_key(T)
    l1 = lines[("z", "L1")]
    bumped = type(l1)(label=l1.label, projection=l1.projection, t=l1.t,
                      base=(l1.base[0] + 1, l1.base[1], l1.base[2]),
                      direction=l1.direction, plane=l1.plane)
    assert not line_contained_in_fiber(bumped)


def test_residual_is_trimmed():
    assert fiber_residual(by_key(T)[("z", "L1")]) == []
    assert fiber_residual(by_key(5)[("x", "L4")]) == []


_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_bumps = st.lists(st.tuples(_small, _small, _small, _small), min_size=6, max_size=6)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([T, Fraction(5), Fraction(3), Fraction(-7, 3), Fraction(11)]),
       st.integers(0, 23), _bumps, st.booleans())
def test_residual_agrees_with_direct_evaluation(t, index, bumps, bump):
    ln = lines_on_fiber(t)[index]
    if bump:
        shift = [SqrtAlgebraElem(t, *b) for b in bumps]
        ln = dataclasses.replace(
            ln, base=tuple(c + d for c, d in zip(ln.base, shift[:3])),
            direction=tuple(c + d for c, d in zip(ln.direction, shift[3:])))
    res = fiber_residual(ln)
    assert not res or res[-1]
    for s in range(4):
        x, y, z = (b + s * d for b, d in zip(ln.base, ln.direction))
        direct = x * x + y * y + z * z - x * y * z - 2 - t
        assert uni.eval_at(res, s) == direct


def test_singular_levels_rejected():
    for t in (2, -2):
        with pytest.raises(ValueError):
            lines_on_fiber(t)


def test_incidence_spot_values():
    lines = by_key(T)
    l1 = lines[("z", "L1")]
    l2 = lines[("z", "L2")]
    l3 = lines[("z", "L3")]
    l7 = lines[("z", "L7")]
    # counts are taken on the projective closure: parallel coplanar lines
    # meet at infinity, so translates of one another intersect once
    assert line_incidence(l1, l2) == 1
    # different planes z = 2 vs z = 5/2 with non-proportional directions: skew
    assert line_incidence(l1, l3) == 0
    assert line_incidence(l1, l7) == 0
    with pytest.raises(ValueError):
        line_incidence(l1, l1)  # same line, not a transverse pair
    other_t = by_key(5)[("z", "L1")]
    with pytest.raises(ValueError):
        line_incidence(l1, other_t)  # different fibers


def test_incidence_symmetric():
    lns = lines_on_fiber(T)
    for a in lns[:8]:
        for b in lns[8:16]:
            assert line_incidence(a, b) == line_incidence(b, a)


def test_class_gram_rational_instantiations_agree():
    g1 = class_gram(T)
    g2 = class_gram(5)
    assert g1 == g2 == VANISHING_CYCLE_GRAM


def test_zero_divisor_levels_refuse_incidence():
    # at t = 3, t - 2 = 1 is a square but t + 2 = 5 is not: the algebra has
    # zero divisors and no rational instantiation, so counts are not decided
    with pytest.raises(ZeroDivisorError):
        class_gram(3)
    # fully non-square data (t = 5: only t + 2 non-square; t = 7: t - 2 = 5,
    # t + 2 = 9 ... 9 is square, so pick t = 11: 9 is square again; t = 13:
    # 11, 15, 165 all non-square) stays decidable
    assert class_gram(13) == VANISHING_CYCLE_GRAM


def test_biquadratic_field_case_decidable():
    # t = 5: t - 2 = 3, t + 2 = 7, (t-2)(t+2) = 21, none a rational square,
    # so the algebra is a field and every incidence count is decided
    lns = lines_on_fiber(5)
    seen = set()
    for a in lns[:8]:
        for b in lns[:8]:
            if a.label != b.label:
                seen.add(line_incidence(a, b))
    assert seen <= {0, 1}
