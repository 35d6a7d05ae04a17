"""The 2x2 shadow: classes up to sign, characters, congruence membership."""

import random
from itertools import permutations, product

import pytest

from charcubic.autgroup import GroupWord, SignedPerm, word_to_map
from charcubic.modular import (PglCharacters, PglClass, mod2_cycle_string,
                               pgl_characters, word_to_pgl)


def test_class_normalization():
    assert PglClass([[1, 0], [0, 1]]) == PglClass([[-1, 0], [0, -1]])
    assert PglClass([[2, 0], [0, 2]]) == PglClass.identity()  # gcd reduced
    assert PglClass([[0, -1], [1, 0]]) == PglClass([[0, 1], [-1, 0]])
    with pytest.raises(ValueError):
        PglClass([[1, 1], [1, 1]])  # determinant 0
    with pytest.raises(ValueError):
        PglClass([[2, 0], [0, 1]])  # determinant not +-1 after reduction


def test_generator_images():
    assert word_to_pgl(("tau1",)) == PglClass([[1, 0], [0, -1]])
    assert word_to_pgl(("tau2",)) == PglClass([[1, 0], [2, -1]])
    assert word_to_pgl(("tau3",)) == PglClass([[1, 2], [0, -1]])
    assert word_to_pgl(("alpha",)) == PglClass([[0, -1], [1, 0]])
    assert word_to_pgl(("beta",)) == PglClass([[1, -1], [1, 0]])
    assert word_to_pgl(("gamma",)) == PglClass([[-1, 0], [0, 1]])
    for s in ("sigma_x", "sigma_y", "sigma_z"):
        assert word_to_pgl((s,)) == PglClass.identity()


def test_twist_words():
    assert word_to_pgl(("tau1", "tau2")) == PglClass([[1, 0], [-2, 1]])
    assert word_to_pgl(("tau3", "tau1")) == PglClass([[1, -2], [0, 1]])


def test_multiplicative():
    rng = random.Random(41)
    letters = ("alpha", "beta", "gamma", "tau1", "tau2", "tau3",
               "sigma_x", "sigma_y", "sigma_z")
    for _ in range(80):
        w1 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        w2 = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        assert word_to_pgl(w1 + w2) == word_to_pgl(w1) * word_to_pgl(w2)


def test_characters():
    # every involution letter is diagonal-plus-even off the diagonal, so all
    # their products stay in the congruence subgroup; only the det sees parity
    ch = pgl_characters(word_to_pgl(("tau1",)))
    assert ch == PglCharacters(det=-1, mod2=(0, 1, 2), congruence_member=True)
    ch2 = pgl_characters(word_to_pgl(("tau1", "tau2")))
    assert ch2.det == 1
    assert ch2.congruence_member is True
    assert ch2.mod2 == (0, 1, 2)  # the congruence subgroup is the mod-2 kernel
    ch3 = pgl_characters(word_to_pgl(("beta",)))
    assert mod2_cycle_string(ch3.mod2) == "(e1 e1+e2 e2)"
    assert ch3.congruence_member is False
    # b even but c odd: membership needs both off-diagonal entries even
    assert pgl_characters(PglClass(((1, 0), (1, 1)))).congruence_member is False
    ch4 = pgl_characters(word_to_pgl(("alpha",)))
    assert mod2_cycle_string(ch4.mod2) == "(e1 e2)"


def test_congruence_closure_on_tau_words():
    # tau-words of every length stay in {b, c even}; det tracks the parity
    rng = random.Random(42)
    taus = ("tau1", "tau2", "tau3")
    for _ in range(80):
        n = rng.randint(1, 8)
        word = []
        while len(word) < n:
            c = rng.choice(taus)
            if word and word[-1] == c:
                continue
            word.append(c)
        m = word_to_pgl(tuple(word))
        ch = pgl_characters(m)
        assert ch.congruence_member is True
        assert ch.mod2 == (0, 1, 2)
        assert ch.det == (-1) ** n


def test_mod2_cycle_string():
    assert mod2_cycle_string((0, 1, 2)) == "identity"
    assert mod2_cycle_string((1, 0, 2)) == "(e1 e2)"
    assert mod2_cycle_string((1, 2, 0)) == "(e1 e2 e1+e2)"


def _searched_perm_class(sp):
    """Reference image of a tail: the sign part is in the kernel, and the
    permutation part is matched against short words in the cubic letters by
    composing their maps."""
    target = SignedPerm(sp.perm).to_poly_map()
    for letters in ((), ("beta",), ("beta", "beta"), ("gamma", "alpha"),
                    ("beta", "gamma", "alpha"), ("beta", "beta", "gamma", "alpha")):
        if word_to_map(letters) == target:
            return word_to_pgl(letters)
    raise LookupError("no short word matches %s" % sp)


def test_tail_table_matches_the_word_search_on_all_signed_perms():
    for perm in permutations((0, 1, 2)):
        for signs in product((1, -1), repeat=3):
            sp = SignedPerm(perm, signs)
            assert word_to_pgl(GroupWord((), sp)) == _searched_perm_class(sp)
            assert word_to_pgl(GroupWord(("tau2", "beta"), sp)) == \
                word_to_pgl(("tau2", "beta")) * _searched_perm_class(sp)
