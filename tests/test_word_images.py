"""Images of words read letter by letter, against the composed map.

apply_word, and gamma_to_s4 / homology_action on a word, never compose the
word's polynomial map; word_to_map followed by evaluation (or by the map path
of gamma_to_s4 / homology_action) is the reference they must match exactly.
"""

import contextlib
import io
import json
import time
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charcubic.autgroup import (ALL_LETTERS, TAU_LETTERS, GroupWord, SignedPerm,
                                affine_stabilizer, apply_word, gamma_to_s4,
                                word_to_map)
from charcubic.cli import run
from charcubic.homology import homology_action

ALL_TAILS = [SignedPerm(perm, signs) for perm in permutations(range(3))
             for signs in product((1, -1), repeat=3)]
STABLE_TAILS = affine_stabilizer((0, 0, 0))
OTHER_TAILS = [sp for sp in ALL_TAILS if sp not in STABLE_TAILS]
SHORT_WORDS = [w for n in range(3) for w in product(ALL_LETTERS, repeat=n)]

_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_coord = st.one_of(st.integers(-3, 3), _small)


def _word(letters, tail):
    """A plain letter tuple when there is no tail, so GroupWord.of wraps it."""
    return tuple(letters) if tail is None else GroupWord(letters, tail)


def _outcome(fn, arg):
    try:
        return "ok", fn(arg)
    except ValueError as exc:
        return "ValueError", str(exc)


def _same_point(got, want):
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]


def test_group_word_of():
    w = GroupWord(("tau1",), SignedPerm((1, 0, 2)))
    assert GroupWord.of(w) is w
    assert GroupWord.of(["tau2", "alpha"]) == GroupWord(("tau2", "alpha"))
    with pytest.raises(ValueError, match="^unknown letter 'tau4'$"):
        GroupWord.of(("tau1", "tau4"))
    # a bare string is not read as a sequence of one-character letters
    for bad in ("tau1", ""):
        with pytest.raises(ValueError, match="not the string %r$" % bad):
            GroupWord.of(bad)
    with pytest.raises(ValueError, match="not the string 'tau1'$"):
        word_to_map("tau1")


def test_empty_word_normalises_like_the_identity_map():
    point = (Fraction(2), Fraction(1, 2), 3)
    _same_point(apply_word((), point), word_to_map(())(point))
    assert [type(c) for c in apply_word((), point)] == [int, Fraction, int]
    _same_point(apply_word(GroupWord((), SignedPerm((2, 0, 1), (1, -1, 1))), point),
                (3, -2, Fraction(1, 2)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(TAU_LETTERS), max_size=6),
       st.tuples(_small, _small, _small), st.tuples(_coord, _coord, _coord),
       st.one_of(st.none(), st.sampled_from(ALL_TAILS)))
def test_apply_word_matches_the_map_for_tau_words(letters, params, point, tail):
    word = _word(letters, tail)
    _same_point(apply_word(word, point, params), word_to_map(word, params)(point))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(ALL_LETTERS), max_size=6),
       st.tuples(_coord, _coord, _coord),
       st.one_of(st.none(), st.sampled_from(ALL_TAILS)))
def test_apply_word_matches_the_map_at_zero_params(letters, point, tail):
    word = _word(letters, tail)
    _same_point(apply_word(word, point), word_to_map(word)(point))


def test_apply_word_raises_what_the_map_raises():
    for params in ((1, 0, 0), (0, 0, Fraction(1, 2))):
        for word in (("alpha", "tau1"), ("tau2", "sigma_x", "tau3")):
            assert _outcome(lambda w: apply_word(w, (0, 0, 0), params), word) == \
                _outcome(lambda w: word_to_map(w, params)((0, 0, 0)), word)
    # a permutation letter would carry strings through; they are refused
    with pytest.raises(TypeError):
        apply_word(("beta",), ("1", "2", "3"))


def test_word_images_match_the_map_on_short_words_and_stable_tails():
    assert len(SHORT_WORDS) == 91 and len(STABLE_TAILS) == 24
    for letters in SHORT_WORDS:
        for tail in [None] + STABLE_TAILS:
            word = _word(letters, tail)
            f = word_to_map(word)
            assert gamma_to_s4(word) == gamma_to_s4(f)
            assert homology_action(word) == homology_action(f)


def test_non_preserving_tails_fail_alike_on_both_paths():
    assert len(OTHER_TAILS) == 24
    for letters in SHORT_WORDS:
        for tail in OTHER_TAILS:
            word = GroupWord(letters, tail)
            f = word_to_map(word)
            for fn in (gamma_to_s4, homology_action):
                got, want = _outcome(fn, word), _outcome(fn, f)
                assert got[0] == "ValueError" and got == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(ALL_LETTERS), max_size=6),
       st.one_of(st.none(), st.sampled_from(ALL_TAILS)))
def test_word_images_match_the_map_on_random_words(letters, tail):
    word = _word(letters, tail)
    f = word_to_map(word)
    assert _outcome(gamma_to_s4, word) == _outcome(gamma_to_s4, f)
    assert _outcome(homology_action, word) == _outcome(homology_action, f)


# --- long words through the command line --------------------------------------

LONG_WORD = ("tau1", "tau2", "tau3") * 4 + ("tau1", "tau2")
LONG_TEXT = "t1 t2 t3 t1 t2 t3 t1 t2 t3 t1 t2 t3 t1 t2"


def _timed_json(argv):
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = run(argv + ["--json"])
    seconds = time.perf_counter() - start
    assert code == 0
    return json.loads(out.getvalue()), seconds


def _tau_images(letters, params, point):
    """The three involution formulas applied right to left in Fractions."""
    p, q, r = (Fraction(c) for c in params)
    x, y, z = (Fraction(c) for c in point)
    for name in reversed(letters):
        if name == "tau1":
            z = x * y - z + r
        elif name == "tau2":
            x = y * z - x + p
        else:
            y = x * z - y + q
    return x, y, z


def test_long_word_homology_is_read_letter_by_letter():
    assert LONG_TEXT.replace("t", "tau").split() == list(LONG_WORD)
    doc, seconds = _timed_json(["homology", "action", "--word", LONG_TEXT])
    sign = (-1) ** len(LONG_WORD)
    assert doc["matrix"] == [[sign * (i == j) for j in range(5)] for i in range(5)]
    assert seconds < 2.0


def test_long_word_point_image_is_read_letter_by_letter():
    doc, seconds = _timed_json(["aut", "apply", "--word", LONG_TEXT,
                                "--params", "1,-2,3", "--point", "1,2,3"])
    want = _tau_images(LONG_WORD, (1, -2, 3), (1, 2, 3))
    assert [Fraction(c) for c in doc["image"]] == list(want)
    assert seconds < 2.0
