"""The rank-5 representation, intersection forms, and boundary invariants."""

import random

import pytest

from charcubic.autgroup import GAMMA_LETTERS, generator, word_to_map
from charcubic.homology import (ALPHA_GRAM, BASIS_CHANGE, VANISHING_CYCLE_GRAM,
                                basis_change, homology_action,
                                intersection_form, link_h1, link_monodromy)
from charcubic.matrices import Matrix, cokernel, diagonal_of, smith_normal_form

I5 = Matrix.identity(5)


def perm_block(perm):
    rows = [[0] * 5 for _ in range(5)]
    for i, p in enumerate(perm):
        rows[p][i] = 1
    rows[4][4] = 1
    return Matrix(rows)


def test_generator_matrices():
    # the three sign involutions: fixed permutation blocks, sign +1
    assert homology_action(generator("sigma_z")) == perm_block((1, 0, 3, 2))
    assert homology_action(generator("sigma_x")) == perm_block((3, 2, 1, 0))
    assert homology_action(generator("sigma_y")) == perm_block((2, 3, 0, 1))
    assert homology_action(generator("alpha")) == perm_block((1, 0, 2, 3))
    assert homology_action(generator("gamma")) == I5 * (-1)
    b = homology_action(generator("beta"))
    assert b == perm_block((2, 0, 1, 3))
    # columns push forward: the transpose is the row-action literal
    printed = Matrix([[0, 0, 1, 0, 0],
                      [1, 0, 0, 0, 0],
                      [0, 1, 0, 0, 0],
                      [0, 0, 0, 1, 0],
                      [0, 0, 0, 0, 1]])
    assert b.transpose() == printed


def test_action_multiplicative_and_orthogonal():
    rng = random.Random(51)
    q = VANISHING_CYCLE_GRAM
    for _ in range(60):
        w1 = tuple(rng.choice(GAMMA_LETTERS) for _ in range(rng.randint(0, 6)))
        w2 = tuple(rng.choice(GAMMA_LETTERS) for _ in range(rng.randint(0, 6)))
        m1 = homology_action(word_to_map(w1))
        m2 = homology_action(word_to_map(w2))
        m12 = homology_action(word_to_map(w1 + w2))
        assert m12 == m1 * m2
        assert m1.transpose() * q * m1 == q


def test_action_shape_is_signed_permutation_block():
    rng = random.Random(52)
    for _ in range(40):
        w = tuple(rng.choice(GAMMA_LETTERS) for _ in range(rng.randint(1, 7)))
        m = homology_action(word_to_map(w))
        sign = m[4, 4]
        assert sign in (1, -1)
        core = m * sign
        for j in range(5):
            col = [core[i, j] for i in range(5)]
            assert sorted(col) == [0, 0, 0, 0, 1]


def test_intersection_forms():
    vc = intersection_form("vanishing_cycle")
    assert vc.matrix == Matrix([[-2, 0, 0, 0, 1],
                                [0, -2, 0, 0, 1],
                                [0, 0, -2, 0, 1],
                                [0, 0, 0, -2, 1],
                                [1, 1, 1, 1, -2]])
    assert intersection_form("vc").matrix == vc.matrix
    alpha = intersection_form("alpha")
    assert alpha.matrix == Matrix([[-4, 2, 0, 0, 0],
                                   [2, -2, -1, 0, 0],
                                   [0, -1, -2, 1, 0],
                                   [0, 0, 1, -2, 2],
                                   [0, 0, 0, 2, -4]])
    assert vc.matrix.is_symmetric() and alpha.matrix.is_symmetric()
    assert vc.matrix.det() == alpha.matrix.det()
    with pytest.raises(ValueError):
        intersection_form("nope")


def test_basis_change_congruence():
    b = basis_change()
    assert b == BASIS_CHANGE
    assert abs(b.det()) == 1
    assert b.transpose() * ALPHA_GRAM * b == VANISHING_CYCLE_GRAM


def test_smith_form_of_both_gram_matrices():
    for m in (VANISHING_CYCLE_GRAM, ALPHA_GRAM):
        res = smith_normal_form(m)
        assert res.u * m * res.v == res.d
        assert diagonal_of(res.d) == [1, 1, 2, 2, 0]
        assert cokernel(m) == (1, (2, 2))


def test_link_h1():
    assert link_h1() == (1, (2, 2))
    assert link_h1(intersection_form("alpha")) == (1, (2, 2))
    assert link_h1(VANISHING_CYCLE_GRAM) == (1, (2, 2))


def test_link_monodromy():
    assert link_monodromy((-1, -1, -1)) == Matrix([[-1, 0], [0, -1]])
    # a single -1 vertex: [[0, -1], [1, 1]], order six
    m = link_monodromy((-1,))
    assert m == Matrix([[0, -1], [1, 1]])
    p = Matrix.identity(2)
    for _ in range(6):
        p = p * m
    assert p == Matrix.identity(2)
    with pytest.raises(ValueError):
        link_monodromy(())
    with pytest.raises(TypeError):
        link_monodromy(("x",))


def test_tau_words_act_by_global_sign():
    # involution words at params 0 land in {+-identity}: sign = (-1)^length
    rng = random.Random(53)
    taus = ("tau1", "tau2", "tau3")
    for _ in range(30):
        n = rng.randint(1, 7)
        word = []
        while len(word) < n:
            c = rng.choice(taus)
            if word and word[-1] == c:
                continue
            word.append(c)
        m = homology_action(word_to_map(tuple(word)))
        assert m == I5 * ((-1) ** n)
