"""Parsers (including fuzzing) and the command-line surface."""

import json
import random
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcubic import cli
from charcubic.autgroup import (ALL_LETTERS, GroupWord, SignedPerm, dehn_twist,
                                word_to_map)
from charcubic.cli import run
from charcubic.multipoly import MAP_VARS, MultiPoly
from charcubic.parsing import (LETTER_TO_TOKEN, ParseError, parse_matrix, parse_poly,
                               parse_poly_map, parse_rational, parse_triple,
                               parse_word, word_tokens)


def test_parse_rational():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("  7 ") == 7
    assert parse_rational("+2/6") == Fraction(1, 3)
    for bad in ("3/0", "1.5", "x", "--2", "3 / 4", "", "1/-2"):
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_parse_triple_and_matrix():
    assert parse_triple("0,-1,1/2") == (0, -1, Fraction(1, 2))
    with pytest.raises(ParseError):
        parse_triple("1,2")
    m = parse_matrix("1,1;0,1")
    assert m.to_lists() == [[1, 1], [0, 1]]
    with pytest.raises(ParseError):
        parse_matrix("1,1;0")  # ragged
    with pytest.raises(ParseError):
        parse_matrix("1,a;0,1")


def test_parse_poly():
    x, y, z = MultiPoly.gens(*MAP_VARS)
    assert parse_poly("x^2*y - x*z - y + 3/2") == \
        x**2 * y - x*z - y + Fraction(3, 2)
    assert parse_poly("-(x - y)*(x + y)") == y*y - x*x
    assert parse_poly("2") == MultiPoly.const(MAP_VARS, 2)
    assert parse_poly("x*-y") == -x*y  # unary minus binds inside products
    for bad in ("x +", "w", "x^-1", "(x", "x 2", "", "x + 1/0", "x**y"):
        with pytest.raises(ParseError):
            parse_poly(bad)


def test_deep_nesting_is_a_parse_error_not_a_recursion_error():
    x = MultiPoly.variable("x", MAP_VARS)
    deep = "(" * 10_000 + "x" + ")" * 10_000
    with pytest.raises(ParseError, match="^parentheses nested more than 100 deep "
                                         "at position 100$"):
        parse_poly(deep)
    assert parse_poly("(" * 100 + "x" + ")" * 100) == x
    # a run of signs is read in a loop, so any number of them parses
    assert parse_poly("-" * 10_000 + "x") == x
    assert parse_poly("-" * 10_001 + "x") == -x
    assert parse_poly("+-" * 5_000 + "(x + 1)^2") == (x + 1) ** 2


def test_cli_refuses_deep_nesting_with_exit_2(capsys):
    deep = "(" * 10_000 + "x" + ")" * 10_000
    assert run(["aut", "check", "--map", deep + "; y; z"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("parse error: parentheses nested more than 100 deep "
                            "at position 100\n")


def test_parse_poly_reports_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("x + q")
    assert "position 4" in str(err.value)
    with pytest.raises(ParseError) as err:
        parse_poly("x ? y")
    assert "position 2" in str(err.value)


def test_poly_print_parse_round_trip():
    rng = random.Random(71)
    gens = MultiPoly.gens(*MAP_VARS)
    for _ in range(120):
        acc = MultiPoly.const(MAP_VARS, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
        for _ in range(rng.randint(1, 5)):
            term = MultiPoly.const(MAP_VARS, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for g in gens:
                term = term * g ** rng.randint(0, 3)
            acc = acc + term
        assert parse_poly(str(acc)) == acc


_small_coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
_small_exps = st.tuples(*[st.integers(0, 3)] * 3)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_small_exps, _small_coeffs, max_size=8))
def test_printed_polynomials_parse_back(terms):
    p = MultiPoly(MAP_VARS, terms)
    assert parse_poly(str(p)) == p


def test_parse_poly_map_and_round_trip():
    pm = parse_poly_map("x; x^2*y - x*z - y; x*y - z")
    assert pm == dehn_twist("X")
    assert parse_poly_map(str(pm)) == pm
    with pytest.raises(ParseError):
        parse_poly_map("x; y")
    with pytest.raises(ParseError):
        parse_poly_map("x; y; w")


def test_parse_word():
    w = parse_word("t3 t1")
    assert w.letters == ("tau3", "tau1")
    assert word_to_map(w) == dehn_twist("X")
    assert parse_word("b^-1").letters == ("beta", "beta")
    assert parse_word("a^-1").letters == ("alpha",)  # involution
    assert parse_word("").letters == ()
    w2 = parse_word("b a sx perm(yxz)flip(xy)")
    assert w2.tail == SignedPerm((1, 0, 2), (-1, -1, 1))
    for bad in ("q7", "perm(xyz) a", "perm(xxz)", "b^-2", "b^2",
                "perm(xyz)flip(xx)", "perm(xy)"):
        with pytest.raises(ParseError):
            parse_word(bad)


def test_every_letter_has_a_token():
    assert set(LETTER_TO_TOKEN) == set(ALL_LETTERS)


def test_word_print_parse_round_trip():
    rng = random.Random(72)
    letters = ("alpha", "beta", "gamma", "sigma_x", "sigma_y", "sigma_z",
               "tau1", "tau2", "tau3")
    perms = ((0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 2, 0))
    for _ in range(100):
        word = GroupWord(
            tuple(rng.choice(letters) for _ in range(rng.randint(0, 6))),
            SignedPerm(rng.choice(perms),
                       rng.choice(((1, 1, 1), (-1, -1, 1), (1, -1, -1)))))
        assert parse_word(word_tokens(word)) == word


def test_parser_fuzzing_never_panics():
    rng = random.Random(73)
    alphabet = string.ascii_letters + string.digits + " +-*/^();,texyz"
    for parser in (parse_rational, parse_poly, parse_poly_map, parse_word,
                   parse_matrix, parse_triple):
        for _ in range(400):
            s = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24)))
            try:
                parser(s)
            except ParseError:
                pass  # the only acceptable failure mode


# --- command-line surface ------------------------------------------------------


def out_of(capsys):
    return capsys.readouterr().out


def test_cli_singular(capsys):
    assert run(["singular", "--params", "0,0,0"]) == 0
    text = out_of(capsys)
    assert "(2, 2, 2)" in text and "(0, 0, 0)" in text
    assert "total multiplicity: 5" in text
    assert run(["singular", "--params", "0,0,0", "--json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["total_multiplicity"] == 5
    assert {"value": "2", "multiplicity": 4} in data["critical_values"]
    assert {"value": "-2", "multiplicity": 1} in data["critical_values"]


def test_cli_homology_action(capsys):
    assert run(["homology", "action", "--word", "g", "--json"]) == 0
    data = json.loads(out_of(capsys))
    minus_i5 = [[-1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert data["matrix"] == minus_i5


def test_cli_decompose(capsys):
    assert run(["aut", "decompose", "--map", "x; x^2*y - x*z - y; x*y - z",
                "--params", "0,0,0", "--json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["word"] == ["tau3", "tau1"]
    assert data["tokens"] == "t3 t1"
    assert data["tail"] == "perm(xyz)"


def test_cli_apply_and_check(capsys):
    assert run(["aut", "apply", "--word", "t3 t1", "--params", "0,0,0"]) == 0
    assert out_of(capsys).strip() == "x; x^2*y - x*z - y; x*y - z"
    assert run(["aut", "apply", "--word", "a", "--point", "1,2,3"]) == 0
    assert out_of(capsys).strip() == "(2, 1, -1)"
    assert run(["aut", "check", "--map", "y; x; x*y - z"]) == 0
    assert "true" in out_of(capsys)
    assert run(["aut", "check", "--map", "x + 1; y; z"]) == 0
    assert "false" in out_of(capsys)


def test_cli_kappa_lines_traces_witness(capsys):
    assert run(["kappa", "eval", "--params", "1,0,0", "--point", "1/2,0,0"]) == 0
    assert out_of(capsys).strip() == "-9/4"
    assert run(["lines", "--t", "17/4", "--gram", "--json"]) == 0
    data = json.loads(out_of(capsys))
    assert len(data["lines"]) == 24
    assert data["class_gram"][0] == [-2, 0, 0, 0, 1]
    assert run(["traces", "--boundary", "2,2,2,2", "--json"]) == 0
    data = json.loads(out_of(capsys))
    assert (data["P"], data["S"]) == ("-8", "-30")
    assert run(["witness", "torus", "--A", "1,1;0,1", "--B", "1,0;1,1",
                "--json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["identity_holds"] is True and data["z"] == "3"
    assert run(["witness", "sphere", "--D1", "1,1;0,1", "--D2", "1,0;1,1",
                "--D3", "0,1;-1,0", "--json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["on_surface"] is True


def test_cli_link_and_snf(capsys):
    assert run(["link", "monodromy", "--euler", "-1,-1,-1", "--json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["matrix"] == [[-1, 0], [0, -1]]
    assert run(["link", "h1", "--json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["free_rank"] == 1 and data["torsion"] == [2, 2]
    assert run(["snf", "--matrix", "2,0;0,3", "--json"]) == 0
    data = json.loads(out_of(capsys))
    assert data["diagonal"] == [1, 6]
    assert data["cokernel"] == {"free_rank": 0, "torsion": [6]}


def test_cli_exit_codes(capsys):
    # domain errors: well-formed input outside an operation's domain
    assert run(["lines", "--t", "2"]) == 1
    assert run(["aut", "decompose", "--map", "x + 1; y; z"]) == 1
    assert run(["witness", "torus", "--A", "1,1;1,1", "--B", "1,0;1,1"]) == 1
    assert run(["snf", "--matrix", "1/2,0;0,1"]) == 1
    capsys.readouterr()
    # parse errors from argparse type validation exit via SystemExit(2)
    for argv in (["kappa", "eval", "--params", "0,0", "--point", "0,0,0"],
                 ["aut", "apply", "--word", "q7"],
                 ["singular", "--params", "a,b,c"],
                 ["aut", "decompose", "--map", "x; y; z", "--verify-unique"],
                 ["nonsense"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_cli_builds_its_parser_once(monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *a, **k):
        built.append(self)
        init(self, *a, **k)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    argvs = [["kappa", "eval", "--params", "1,0,0", "--point", "1/2,0,0"],
             ["singular", "--params", "0,0,0"],
             ["aut", "check", "--map", "y; x; x*y - z"],
             ["aut", "apply", "--word", "a", "--point", "1,2,3"],
             ["aut", "decompose", "--map", "x; x^2*y - x*z - y; x*y - z"],
             ["homology", "action", "--word", "t1 t2 g b"],
             ["homology", "form", "--basis", "alpha"],
             ["homology", "change-of-basis"],
             ["link", "monodromy", "--euler", "-2,-3,-1"],
             ["link", "h1"],
             ["lines", "--t", "17/4"],
             ["traces", "--boundary", "1,2,-3,1/2"],
             ["witness", "torus", "--A", "1,1;0,1", "--B", "2,1;1,1"],
             ["witness", "sphere", "--D1", "1,1;0,1", "--D2", "1,0;-1,1",
              "--D3", "2,1;1,1"],
             ["snf", "--matrix", "2,4,4;-6,6,12;10,-4,-16"],
             ["lines", "--t", "2"],
             ["aut", "apply", "--word", "a t1", "--params", "1,0,0",
              "--point", "0,0,0"]]
    argvs += argvs[:3]
    assert len(argvs) == 20
    assert run(argvs[0]) == 0
    count = len(built)
    for argv in argvs[1:]:
        assert run(argv) in (0, 1), argv
    assert len(built) == count


def test_cli_deterministic_output(capsys):
    run(["singular", "--params", "1,0,0", "--json"])
    first = out_of(capsys)
    run(["singular", "--params", "1,0,0", "--json"])
    assert out_of(capsys) == first
    run(["lines", "--t", "5"])
    a = out_of(capsys)
    run(["lines", "--t", "5"])
    assert out_of(capsys) == a
