"""The 24 lines on a smooth fiber, incidence counts, and the class Gram matrix."""

import contextlib
import dataclasses
import io
from fractions import Fraction
from functools import cache
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charcubic import cli
from charcubic import lines as lines_module
from charcubic import univariate as uni
from charcubic.autgroup import apply_word
from charcubic.homology import VANISHING_CYCLE_GRAM, homology_action
from charcubic.lines import (class_gram, fiber_residual, line_contained_in_fiber,
                             line_incidence, lines_on_fiber)
from charcubic.matrices import Matrix
from charcubic.sqrtalgebra import SqrtAlgebraElem, ZeroDivisorError, instantiation

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


# the five difference classes of class_gram, as its docstring lists them
_CLASSES = (("L8", "L5"), ("L7", "L5"), ("L1", "L3"), ("L2", "L3"), ("L5", "L4"))


def _incidence_gram(t):
    """The class Gram from line_incidence on the z-lines: the algebra's
    answer, which raises its ZeroDivisorError where it does not decide."""
    zl = {ln.label: ln for ln in lines_on_fiber(t) if ln.projection == "z"}

    @cache
    def meet(p, q):
        return line_incidence(zl[p], zl[q])

    def dot(p, q):
        return -1 if p == q else meet(*sorted((p, q)))

    return Matrix([[dot(a, c) - dot(a, d) - dot(b, c) + dot(b, d) for c, d in _CLASSES]
                   for a, b in _CLASSES])


def _is_rational_square(q):
    n, d = q.numerator, q.denominator
    return n >= 0 and isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


def _refused_by_isqrt_rule(t):
    """No rational instantiation, yet one of t-2, t+2, (t-2)(t+2) is a square."""
    m, p = _is_rational_square(t - 2), _is_rational_square(t + 2)
    return not (m and p) and (m or p or _is_rational_square((t - 2) * (t + 2)))


_q = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_nonzero = _q.filter(bool)
_levels = st.one_of(
    _q,
    _q.map(lambda s: s * s + 2),                      # t - 2 a square
    _q.map(lambda s: s * s - 2),                      # t + 2 a square
    _nonzero.map(lambda u: u / 2 + 2 / u),            # t^2 - 4 a square
    _nonzero.map(lambda v: ((4 / v - v) / 2) ** 2 + 2),  # t - 2 and t + 2 squares
).filter(lambda t: t not in (2, -2))


@settings(max_examples=40, deadline=None)
@given(_levels)
@example(T)
@example(Fraction(3))
@example(Fraction(5))
@example(Fraction(-37, 5))
def test_class_gram_agrees_with_incidence_oracle(t):
    try:
        expected, refusal = _incidence_gram(t), None
    except ZeroDivisorError as exc:
        expected, refusal = None, str(exc)
    assert (refusal is not None) == _refused_by_isqrt_rule(t)
    if refusal is None:
        assert class_gram(t) == expected == VANISHING_CYCLE_GRAM
    else:
        with pytest.raises(ZeroDivisorError) as info:
            class_gram(t)
        assert str(info.value) == refusal


def test_cli_gram_asks_the_algebra_nothing(monkeypatch):
    calls = []
    real = lines_module.line_incidence
    monkeypatch.setattr(lines_module, "line_incidence",
                        lambda a, b: calls.append((a, b)) or real(a, b))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["lines", "--t", "17/4", "--gram"]) == 0
    assert calls == []
    assert "class Gram matrix:" in out.getvalue()


def test_plane_text_names_the_plane_constant():
    for t in (T, 5):
        for ln in lines_on_fiber(t):
            k = "xyz".index(ln.projection)
            assert ln.plane == "%s = %s" % (ln.projection, ln.base[k])
            assert ln.direction[k].is_zero()


def _on_line(ln, point):
    w = [c - b for c, b in zip(point, ln.base)]
    u = ln.direction
    return all(c.is_zero() for c in (w[1] * u[2] - w[2] * u[1],
                                     w[2] * u[0] - w[0] * u[2],
                                     w[0] * u[1] - w[1] * u[0]))


def _class_coords(label):
    """A z-line's class on the basis (H, L1, L3, L5, L7), where H is the
    common class L1+L2 = L3+L4 = L5+L6 = L7+L8 of the four planes."""
    k = int(label[1:])
    v = [0] * 5
    if k % 2:
        v[(k + 1) // 2] = 1
    else:
        v[0], v[k // 2] = 1, -1
    return v


@pytest.mark.parametrize("t", [T, Fraction(257, 16)])
@pytest.mark.parametrize("letter", ["tau2", "tau3"])
def test_letter_action_on_lines_is_its_homology_action(t, letter):
    roots = instantiation(t)
    zl = [ln for ln in lines_on_fiber(t) if ln.projection == "z"]
    image = {}
    for ln in zl:
        points = [tuple((b + s * d).evaluate(*roots) for b, d in zip(ln.base, ln.direction))
                  for s in (0, 1)]
        moved = [apply_word((letter,), pt) for pt in points]
        hits = [m for m in zl if all(_on_line(m, pt) for pt in moved)]
        assert len(hits) == 1
        image[ln.label] = hits[0]
    # the letter swaps the two lines of every plane z = c
    for ln in zl:
        assert image[ln.label].label != ln.label
        assert image[ln.label].base[2] == ln.base[2]
    columns = [[x - y for x, y in zip(_class_coords(a), _class_coords(b))]
               for a, b in _CLASSES]
    moved = [[x - y for x, y in zip(_class_coords(image[a].label),
                                    _class_coords(image[b].label))]
             for a, b in _CLASSES]
    classes = Matrix(columns).transpose()
    # the plane relations leave the five classes one relation, and it is the
    # radical of Q_vc, so the induced map is compared modulo the radical
    radical = Matrix([[1], [1], [1], [1], [2]])
    assert classes * radical == Matrix.zero(5, 1)
    assert VANISHING_CYCLE_GRAM * radical == Matrix.zero(5, 1)
    first_four = Matrix([row[:4] for row in classes.to_lists()])
    assert (first_four.transpose() * first_four).det() != 0
    # classes * action == the pushed-forward classes, column by column
    action = homology_action((letter,))
    assert classes * action == Matrix(moved).transpose()
    assert action == -Matrix.identity(5)
