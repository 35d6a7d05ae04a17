"""One rule for admitting numbers: every public entry point that takes a
number reads it through `univariate._exact`, so an int or a Fraction is taken
as it is, a float is read as the exact rational it denotes, and a str or a
Decimal raises TypeError even when it spells a number."""

import ast
import pathlib
from decimal import Decimal
from fractions import Fraction

import pytest

import charcubic
from charcubic.autgroup import SignedPerm, sign_character, word_to_map
from charcubic.characters import Sl2Matrix, traces_to_params
from charcubic.family import (KappaParams, as_params, build_kappa, critical_points,
                              critical_values, eliminant, fiber_is_smooth, hessian)
from charcubic.homology import link_monodromy
from charcubic.lines import lines_on_fiber
from charcubic.matrices import Matrix
from charcubic.modular import PglClass
from charcubic.multipoly import MAP_VARS, MultiPoly
from charcubic.sqrtalgebra import SqrtAlgebraElem, instantiation

SOURCES = sorted(pathlib.Path(charcubic.__file__).parent.glob("*.py"))


def _sl2(m):
    return (m.a, m.b, m.c, m.d)


def _sqrt(e):
    return (e.t, e.coords())


# (entry point, a call putting the value in, a float that call accepts): 0.1
# where the call meets no domain condition, else a float meeting it (an
# integer, a critical point, squares).  The critical-point search takes 0.5:
# at exactly 0.1, a denominator of 2^55, its rational-root search by trial
# division does not finish (ROADMAP, bounded work on every input).
ENTRY_POINTS = [
    ("MultiPoly", lambda v: MultiPoly(MAP_VARS, {(1, 0, 0): v}).terms(), 0.1),
    ("MultiPoly.const", lambda v: MultiPoly.const(MAP_VARS, v).terms(), 0.1),
    ("MultiPoly.evaluate",
     lambda v: build_kappa((1, 2, 3)).evaluate({"x": v, "y": 1, "z": 2}), 0.1),
    ("PolyMap.__call__", lambda v: word_to_map(("tau1", "alpha"))((v, 1, 2)), 0.1),
    ("SignedPerm.apply", lambda v: SignedPerm((1, 0, 2), (1, -1, 1)).apply((v, 1, 2)), 0.1),
    ("sign_character", lambda v: sign_character(("tau1", "tau2"), (v, 0, 0)), 0.1),
    ("Matrix", lambda v: Matrix([[v, 1], [2, 3]]), 0.1),
    ("Sl2Matrix", lambda v: _sl2(Sl2Matrix(v, 1, -1, 0)), 0.1),
    ("KappaParams.of", lambda v: KappaParams.of(v, 1, 0), 0.1),
    ("as_params", lambda v: as_params((0, v, 0)), 0.1),
    ("KappaParams", lambda v: eliminant(KappaParams(v, 0, 0)), 0.1),
    ("build_kappa", lambda v: build_kappa((0, 0, v)).terms(), 0.1),
    ("eliminant", lambda v: eliminant((v, 0, 0)), 0.1),
    ("critical_points", lambda v: critical_points((v, 0, 0)), 0.5),
    ("critical_values", lambda v: critical_values((0, v, 0)), 0.5),
    ("hessian", lambda v: hessian((0, 0, 0), (v, 2, 2)), 2.0),
    ("fiber_is_smooth", lambda v: fiber_is_smooth((0, 0, 0), v), 0.1),
    ("lines_on_fiber", lambda v: lines_on_fiber(v), 0.1),
    ("instantiation", lambda v: instantiation(v), 4.25),
    ("SqrtAlgebraElem", lambda v: _sqrt(SqrtAlgebraElem(v, 1, v)), 0.1),
    ("SqrtAlgebraElem.evaluate",
     lambda v: SqrtAlgebraElem(3, 1, 2, 3, 4).evaluate(v, 1), 0.1),
    ("PglClass", lambda v: PglClass(((v, 1), (1, 0))).rep, 2.0),
    ("link_monodromy", lambda v: link_monodromy((v, -1)), 2.0),
    ("traces_to_params", lambda v: traces_to_params((v, 1, 1, 1)), 0.1),
]


@pytest.mark.parametrize("call,value", [e[1:] for e in ENTRY_POINTS],
                         ids=[e[0] for e in ENTRY_POINTS])
def test_entry_point_admits_exactly(call, value):
    # repr pins the type of every number in the result as well as its value
    assert repr(call(value)) == repr(call(Fraction(value)))
    for bad in ("1/2", Decimal("0.5")):
        with pytest.raises(TypeError, match="not a rational number"):
            call(bad)


def test_float_evaluation_is_exact():
    point = {"x": 0.1, "y": 0.2, "z": 0.3}
    value = build_kappa((0, 0, 0)).evaluate(point)
    assert value == build_kappa((0, 0, 0)).evaluate({v: Fraction(c) for v, c in point.items()})
    assert value == Fraction(-21817296442075718781117646187660566302631172409131,
                             11692013098647223345629478661730264157247460343808)
    assert type(value) is Fraction
    f = word_to_map(("tau2",))
    assert f((0.1, 0.2, 0.3)) == f((Fraction(0.1), Fraction(0.2), Fraction(0.3)))


def test_float_traces_give_exact_parameters():
    params, s = traces_to_params((0.1, 1, 1, 1))
    exact = traces_to_params((Fraction(0.1), 1, 1, 1))
    assert (params, s) == exact
    assert type(params) is KappaParams
    assert all(type(c) is Fraction for c in (*params, s))
    assert params.P == -(Fraction(0.1) + 1)


def test_one_admission_rule():
    assert len(SOURCES) >= 13
    trees = [(path.name, ast.parse(path.read_text(), str(path))) for path in SOURCES]
    defs = [name for name, tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_exact"]
    assert defs == ["univariate.py"]
    # no other module spells out its own list of number classes
    found = ["%s:%d" % (name, node.lineno)
             for name, tree in trees if name != "univariate.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Tuple)
             and sorted(getattr(e, "id", "") for e in node.elts) == ["Fraction", "float", "int"]]
    assert found == []
