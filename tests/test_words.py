"""Generators, relations, words, and the involution normal form."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from charcubic.autgroup import (ALL_LETTERS, FOUR_POINTS, GAMMA_LETTERS,
                                TAU_LETTERS, GroupWord, SignedPerm,
                                affine_stabilizer, dehn_twist, gamma_to_s4,
                                generator, horowitz_decompose, is_automorphism,
                                reduce_tau_word, sign_character, word_to_map)
from charcubic.family import build_kappa
from charcubic.multipoly import MAP_VARS, MultiPoly, PolyMap, jacobian_determinant
from charcubic.parsing import parse_poly_map


def rand_params(rng, bound=4, den=3):
    return tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, den))
                 for _ in range(3))


def rand_reduced_word(rng, length):
    letters = []
    while len(letters) < length:
        c = rng.choice(TAU_LETTERS)
        if letters and letters[-1] == c:
            continue
        letters.append(c)
    return tuple(letters)


def test_generator_shapes():
    x, y, z = MultiPoly.gens(*MAP_VARS)
    assert generator("alpha") == PolyMap((y, x, x*y - z))
    assert generator("beta") == PolyMap((y, z, x))
    assert generator("gamma") == PolyMap((x, y, x*y - z))
    assert generator("sigma_z") == PolyMap((-x, -y, z))
    assert generator("tau1", (0, 0, Fraction(1, 2))) == \
        PolyMap((x, y, x*y - z + Fraction(1, 2)))
    assert generator("tau2", (3, 0, 0)) == PolyMap((y*z - x + 3, y, z))
    assert generator("tau3", (0, -1, 0)) == PolyMap((x, x*z - y - 1, z))
    with pytest.raises(ValueError):
        generator("alpha", (1, 0, 0))  # parameter-free letters only at 0,0,0
    with pytest.raises(ValueError):
        generator("nope")


def test_relations():
    ident = PolyMap.identity()
    a = generator("alpha")
    b = generator("beta")
    g = generator("gamma")
    assert a @ a == ident
    assert g @ g == ident
    assert b @ b @ b == ident
    ga = g @ a
    assert ga @ ga == ident
    x, y, z = MultiPoly.gens(*MAP_VARS)
    assert ga == PolyMap((y, x, z))
    for name in ("sigma_x", "sigma_y", "sigma_z"):
        s = generator(name)
        assert s @ s == ident
    # the three sign involutions form a Klein four-group with the identity
    sx, sy, sz = (generator(n) for n in ("sigma_x", "sigma_y", "sigma_z"))
    assert sx @ sy == sz
    assert sy @ sx == sz
    assert sx @ sy @ sz == ident


def test_every_letter_preserves_its_family_member():
    rng = random.Random(31)
    for name in GAMMA_LETTERS:
        assert is_automorphism(generator(name), (0, 0, 0))
    for _ in range(10):
        params = rand_params(rng)
        for name in TAU_LETTERS:
            assert is_automorphism(generator(name, params), params)


def test_taus_move_points_along_fibers():
    rng = random.Random(32)
    for _ in range(40):
        params = rand_params(rng)
        k = build_kappa(params)
        pt = tuple(rng.randint(-3, 3) for _ in range(3))
        val = k.evaluate(dict(zip("xyz", pt)))
        for name in TAU_LETTERS:
            image = generator(name, params)(pt)
            assert k.evaluate(dict(zip("xyz", image))) == val


def test_semidirect_structure():
    # conjugating a sign involution by any parameter-free letter lands back
    # in the sign group
    sigmas = {str(generator(n)) for n in ("sigma_x", "sigma_y", "sigma_z")}
    sigmas.add(str(PolyMap.identity()))
    for name in ("alpha", "beta", "gamma"):
        gmap = generator(name)
        ginv = gmap
        if name == "beta":
            ginv = gmap @ gmap
        for s in ("sigma_x", "sigma_y", "sigma_z"):
            conj = gmap @ generator(s) @ ginv
            assert str(conj) in sigmas


def test_signed_perm_algebra():
    rng = random.Random(33)
    perms = affine_stabilizer((0, 0, 0))
    assert len(perms) == 24
    for _ in range(60):
        u = rng.choice(perms)
        v = rng.choice(perms)
        # compose agrees with map composition
        assert u.compose(v).to_poly_map() == u.to_poly_map() @ v.to_poly_map()
        assert u.compose(u.inverse()).is_identity()
        p = tuple(rng.randint(-5, 5) for _ in range(3))
        assert u.apply(p) == u.to_poly_map()(p)
        jd = jacobian_determinant(u.to_poly_map())
        assert jd.constant_value() == u.jacobian_sign()


def test_stabilizer_orders_by_parameter_case():
    assert len(affine_stabilizer((1, 2, 3))) == 1        # all distinct, nonzero
    assert len(affine_stabilizer((1, 1, 0))) == 2        # two equal, third zero
    assert len(affine_stabilizer((1, 0, 0))) == 4        # one nonzero
    assert len(affine_stabilizer((1, 1, 1))) == 6        # all equal, nonzero
    assert len(affine_stabilizer((0, 0, 0))) == 24       # full group
    # every reported element genuinely preserves the family member
    for params in [(1, 2, 3), (1, 1, 0), (1, 0, 0), (1, 1, 1), (0, 0, 0)]:
        for sp in affine_stabilizer(params):
            assert is_automorphism(sp.to_poly_map(), params)


def test_stabilizer_signs_are_even():
    # the -xyz term forces an even number of sign flips
    for sp in affine_stabilizer((0, 0, 0)):
        flips = sum(1 for s in sp.signs if s < 0)
        assert flips % 2 == 0


def test_gamma_to_s4():
    perm, sign = gamma_to_s4(generator("alpha"))
    assert (perm, sign) == ((1, 0, 2, 3), 1)
    perm, sign = gamma_to_s4(generator("beta"))
    assert (perm, sign) == ((2, 0, 1, 3), 1)
    perm, sign = gamma_to_s4(generator("gamma"))
    assert (perm, sign) == ((0, 1, 2, 3), -1)
    perm, sign = gamma_to_s4(generator("sigma_z"))
    assert (perm, sign) == ((1, 0, 3, 2), 1)
    perm, sign = gamma_to_s4(generator("sigma_x"))
    assert (perm, sign) == ((3, 2, 1, 0), 1)
    perm, sign = gamma_to_s4(generator("sigma_y"))
    assert (perm, sign) == ((2, 3, 0, 1), 1)
    # at params 0 every involution letter fixes the four points pointwise
    # (tau1 there coincides with gamma), so it is accepted with sign -1
    assert gamma_to_s4(generator("tau2")) == ((0, 1, 2, 3), -1)
    # the twists are length-2 words, hence sign +1 and trivial permutation:
    # the representation has finite image and kills them
    assert gamma_to_s4(dehn_twist("X")) == ((0, 1, 2, 3), 1)
    x, y, z = MultiPoly.gens(*MAP_VARS)
    with pytest.raises(ValueError):
        gamma_to_s4(PolyMap((x + 1, y, z)))  # does not permute the four points


def test_four_points_are_the_rational_critical_orbit():
    k0 = build_kappa((0, 0, 0))
    for pt in FOUR_POINTS:
        assert k0.evaluate(dict(zip("xyz", pt))) == 2


def test_word_machinery():
    w = GroupWord(("tau1", "tau2", "tau1"))
    assert len(w) == 3 and w.is_reduced()
    assert not GroupWord(("tau1", "tau1")).is_reduced()
    assert GroupWord(("alpha", "alpha", "tau2")).is_reduced()  # only tau letters cancel
    for letters in product(TAU_LETTERS + ("beta",), repeat=3):
        adjacent = any(a == b and a in TAU_LETTERS for a, b in zip(letters, letters[1:]))
        assert GroupWord(letters).is_reduced() == (not adjacent)
    # a word without a tail has the identity tail, however it was built
    assert w.tail == SignedPerm() and GroupWord(w.letters, None) == w
    assert GroupWord(w.letters, SignedPerm.identity()) == w
    assert hash(GroupWord(w.letters, SignedPerm())) == hash(w)
    assert reduce_tau_word(("tau1", "tau1", "tau2")) == ("tau2",)
    assert reduce_tau_word(("tau1", "tau2", "tau2", "tau1")) == ()
    assert str(GroupWord(())) == "(empty)"
    tail = SignedPerm((1, 0, 2), (-1, -1, 1))
    assert str(GroupWord(("alpha",), tail)) == "alpha perm(yxz)flip(xy)"


def test_word_to_map_and_sign_character():
    rng = random.Random(34)
    assert word_to_map(("tau3", "tau1")) == dehn_twist("X")
    assert word_to_map(("tau1", "tau2")) == dehn_twist("Y")
    for _ in range(25):
        params = rand_params(rng)
        word = rand_reduced_word(rng, rng.randint(1, 5))
        f = word_to_map(word, params)
        assert is_automorphism(f, params)
        assert sign_character(word, params) == (-1) ** len(word)
        # composition law: map of concatenation = composition of maps
        w2 = rand_reduced_word(rng, rng.randint(1, 3))
        assert word_to_map(word + w2, params) == \
            word_to_map(word, params) @ word_to_map(w2, params)


def test_sign_character_checks_its_parameters():
    msg = "^letter 'alpha' is only defined at parameters \\(0, 0, 0\\)$"
    for fn in (sign_character, word_to_map):
        with pytest.raises(ValueError, match=msg):
            fn(("alpha",), (1, 0, 0))
    assert sign_character(("alpha",), (0, 0, 0)) == sign_character(("alpha",)) == 1
    assert sign_character(("tau1",), (1, 0, 0)) == -1
    with pytest.raises(ValueError):
        sign_character(("tau1",), (1, 0))
    with pytest.raises(TypeError, match="not a rational number"):
        sign_character(("tau1",), ("a", "b", "c"))


def test_dehn_twist_shapes():
    x, y, z = MultiPoly.gens(*MAP_VARS)
    p, q, r = Fraction(1), Fraction(-2), Fraction(1, 2)
    tx = dehn_twist("X", (p, q, r))
    assert tx == PolyMap((x, x*x*y - x*z + r*x - y + q, x*y - z + r))
    ty = dehn_twist("Y", (p, q, r))
    assert ty == PolyMap((y*z - x + p, y, y*y*z - x*y + p*y - z + r))
    with pytest.raises(ValueError):
        dehn_twist("Z")


def test_horowitz_round_trip_small():
    rng = random.Random(35)
    for _ in range(60):
        params = rand_params(rng)
        word = rand_reduced_word(rng, rng.randint(1, 6))
        tail = rng.choice(affine_stabilizer(params))
        f = word_to_map(word, params) @ tail.to_poly_map()
        got_word, got_tail = horowitz_decompose(f, params)
        assert got_word == word
        assert got_tail == tail
        # reconstruction law
        assert word_to_map(got_word, params) @ got_tail.to_poly_map() == f


def test_horowitz_verify_unique_agrees(horowitz_oracle):
    rng = random.Random(36)
    for _ in range(10):
        params = rand_params(rng)
        word = rand_reduced_word(rng, 5)
        tail = rng.choice(affine_stabilizer(params))
        f = word_to_map(GroupWord(word, tail), params)
        assert horowitz_oracle(f, params) == horowitz_decompose(f, params) == (word, tail)


def test_horowitz_has_no_second_path():
    with pytest.raises(TypeError):
        horowitz_decompose(generator("tau1"), (0, 0, 0), verify_unique=True)


def test_horowitz_accepts_pure_stabilizer():
    word, tail = horowitz_decompose(generator("sigma_x"))
    assert word == () and tail == SignedPerm((0, 1, 2), (1, -1, -1))


def test_horowitz_rejects_non_members():
    x, y, z = MultiPoly.gens(*MAP_VARS)
    with pytest.raises(ValueError):
        horowitz_decompose(PolyMap((x + 1, y, z)))
    with pytest.raises(ValueError):
        horowitz_decompose(PolyMap((y*z - x + 1, y, z)), params=(0, 0, 0))
    with pytest.raises(ValueError):
        horowitz_decompose(PolyMap((x, y, x*y + z)))  # wrong sign on z


def test_mismatched_parameters_detected():
    # a tau-word built at one parameter triple is not an automorphism at another
    f = word_to_map(("tau1", "tau2"), (1, 2, 3))
    assert not is_automorphism(f, (0, 0, 0))
    with pytest.raises(ValueError):
        horowitz_decompose(f, (0, 0, 0))


def _scanned_tail(g, params):
    """Reference tail of a degree-1 residue: scan all 48 signed permutations,
    keep those preserving the family member, and match the residue."""
    for perm in sorted(permutations((0, 1, 2))):
        for signs in product((1, -1), repeat=3):
            sp = SignedPerm(perm, signs)
            if is_automorphism(sp.to_poly_map(), params) and sp.to_poly_map() == g:
                return sp
    raise ValueError("affine residue %s does not preserve the family member" % g)


@pytest.mark.parametrize("params", [(0, 0, 0), (1, -2, 3), (1, 1, 1)])
def test_tail_lookup_matches_the_stabilizer_scan(params):
    members = affine_stabilizer(params)
    assert members
    for sp in members:
        g = sp.to_poly_map()
        assert horowitz_decompose(g, params) == ((), _scanned_tail(g, params))
        f = word_to_map(GroupWord(("tau1", "tau3"), sp), params)
        assert horowitz_decompose(f, params) == (("tau1", "tau3"), sp)


@pytest.mark.parametrize("residue,params", [("x + 1; y; z", (0, 0, 0)),
                                            ("y; x; z", (1, 2, 3))])
def test_tail_lookup_rejects_what_the_scan_rejects(residue, params):
    g = parse_poly_map(residue)
    with pytest.raises(ValueError) as scanned:
        _scanned_tail(g, params)
    with pytest.raises(ValueError) as looked_up:
        horowitz_decompose(g, params)
    assert str(looked_up.value) == str(scanned.value)
    assert str(scanned.value) == \
        "affine residue %s does not preserve the family member" % residue
