"""The three workloads: seeded inputs, the timed call, and the oracle check.

Each workload is a fixed *template* of slots drawn once from a constant seed,
so every run does the same kinds and sizes of work.  The run seed draws the
concrete inputs inside each slot: relabelings of the involution letters
(which permute coordinates and parameters and so leave the polynomial work
unchanged), parameter values, points, tails, matrices, levels and order.
A pass is one trip through the template with fresh inputs; a run repeats
whole passes, so runs under different seeds measure the same mix.

Every op returns (run, check): run() makes the timed library or CLI call and
returns its raw result; check(result) compares it with the oracle answer.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracles as orc
from charcubic import autgroup, cli, modular, multipoly


@dataclass
class Op:
    kind: str
    label: str                      # canonical text of the inputs, for the digest
    run: Callable[[], object]
    check: Callable[[object], bool]
    tags: dict = field(default_factory=dict)


def run_cli(argv):
    """cli.run in-process with stdout and stderr captured: (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return rc, out.getvalue()


def cli_op(kind, argv, check):
    argv = list(argv)
    return Op(kind, " ".join(argv), lambda: run_cli(argv), check)


# --- seeded draws ------------------------------------------------------------

def frac_text(c):
    return str(Fraction(c))


def triple_text(v):
    return ",".join(frac_text(c) for c in v)


def draw_params(rng, kind):
    """Nonzero entries, so every involution letter carries its constant and a
    slot's polynomial work does not depend on which entries the seed zeroes."""
    if kind == "zero":
        return (Fraction(0),) * 3
    if kind == "int":
        return tuple(Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))) for _ in range(3))
    out = []
    for _ in range(3):
        d = rng.choice((2, 3))
        n = rng.choice([n for n in range(-4, 5) if n and n % d])
        out.append(Fraction(n, d))
    return tuple(out)


def draw_point(rng):
    return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3))


def reduced_tau_word(rng, n):
    out = []
    while len(out) < n:
        c = rng.choice(orc.TAU)
        if not out or out[-1] != c:
            out.append(c)
    return tuple(out)


def any_word(rng, n):
    return tuple(rng.choice(orc.LETTERS) for _ in range(n))


def relabel(rng, letters):
    """Random relabeling of the involution letters and of the sign changes;
    both permute coordinates, so the composed map has the same shape."""
    tau = dict(zip(orc.TAU, rng.sample(orc.TAU, 3)))
    sig = ("sigma_x", "sigma_y", "sigma_z")
    sig = dict(zip(sig, rng.sample(sig, 3)))
    return tuple(tau.get(n, sig.get(n, n)) for n in letters)


def draw_tail(rng, params):
    return rng.choice(orc.stabilizer(params))


def group_word(letters, tail):
    sp = autgroup.SignedPerm(*tail) if tail is not None else None
    return autgroup.GroupWord(letters, sp)


# --- output readers -------------------------------------------------------------

def _fracs(texts):
    return tuple(Fraction(t) for t in texts)


def _text_matrix(lines):
    return tuple(tuple(int(e) for e in ln.split()) for ln in lines if ln.strip())


# --- roundtrip ---------------------------------------------------------------

KINDS = ("zero", "int", "rat")
_SLOT = {"tau1": 2, "tau2": 0, "tau3": 1}   # the coordinate each letter rewrites


def map_degrees(letters):
    """Component degrees of the word's map: each letter replaces its slot by
    the product of the other two components."""
    d = [1, 1, 1]
    for name in reversed(letters):
        i = _SLOT[name]
        d[i] = sum(d) - d[i]
    return tuple(d)


def reduced_words(n):
    """All reduced involution words of length n that start with tau1 (the
    others are relabelings), ordered by the degree of their map."""
    out = [("tau1",)]
    for _ in range(n - 1):
        out = [w + (c,) for w in out for c in orc.TAU if c != w[-1]]
    return sorted(out, key=lambda w: (max(map_degrees(w)), sum(map_degrees(w)), w))


def roundtrip_template():
    """Six shapes per length 4..8, at the 1/12, 3/12, ..., 11/12 quantiles of
    map degree among that length's reduced words.  Parameter kinds go rat,
    int, zero up each length, so the two largest length-8 maps run at integer
    and zero parameters: no single operation takes more than about a second
    and a run averages over many large products instead of one."""
    out = []
    for n in range(4, 9):
        words = reduced_words(n)
        for i in range(6):
            out.append((words[(2 * i + 1) * len(words) // 12], ("rat", "int", "zero")[i % 3]))
    return out


def roundtrip_op(rng, shape, kind):
    letters = relabel(rng, shape)
    params = draw_params(rng, kind)
    tail = draw_tail(rng, params)
    word = group_word(letters, tail)

    def run():
        f = autgroup.word_to_map(word, params)
        return autgroup.horowitz_decompose(f, params)

    def check(res):
        got_letters, got_tail = res
        return (tuple(got_letters) == letters
                and (got_tail.perm, got_tail.signs) == tail)

    label = "roundtrip %s | %s" % (orc.word_text(letters, tail), triple_text(params))
    return Op("roundtrip", label, run, check, {"length": len(letters), "pkind": kind})


def roundtrip_pass(rng, template):
    return [roundtrip_op(rng, shape, kind) for shape, kind in template]


# --- words -------------------------------------------------------------------

def words_template():
    shapes = random.Random("charcubic-bench/words")
    out = []
    for i in range(16):
        out.append(("apply", reduced_tau_word(shapes, 1 + i % 8), KINDS[i % 3], i % 2))
    for i in range(10):
        out.append(("homology", any_word(shapes, 1 + i % 8), "zero", i % 2))
    for i in range(6):
        out.append(("check", reduced_tau_word(shapes, 1 + i), KINDS[i % 3], i % 2))
    for i in range(6):
        out.append(("decompose", reduced_tau_word(shapes, 1 + i), KINDS[i % 3], i % 2))
    for i in range(6):
        out.append(("pgl", any_word(shapes, 1 + (i * 3) % 8), "zero", i % 2))
    # the Jacobian of a long word's map explodes (length 7 at rational
    # parameters: 17 s), so sign queries stay at criterion 4's lengths 1..6,
    # with the longest at the cheaper parameter kinds
    for i in range(6):
        out.append(("sign", reduced_tau_word(shapes, 1 + i), KINDS[(5 - i) % 3], i % 2))
    return out


def _json_flag(as_json):
    return ["--json"] if as_json else []


def apply_op(rng, shape, kind, as_json):
    letters = relabel(rng, shape)
    params = draw_params(rng, kind)
    tail = draw_tail(rng, params) if rng.random() < 0.5 else None
    point = draw_point(rng)
    want = orc.word_image(letters, tail, point, params)
    argv = ["aut", "apply", "--word", orc.word_text(letters, tail),
            "--params", triple_text(params), "--point", triple_text(point)]

    def check(res):
        rc, out = res
        if rc != 0:
            return False
        if as_json:
            return _fracs(json.loads(out)["image"]) == want
        return _fracs(out.strip()[1:-1].split(",")) == want

    return cli_op("aut.apply", argv + _json_flag(as_json), check)


def homology_op(rng, shape, as_json):
    letters = relabel(rng, shape)
    tail = draw_tail(rng, (0, 0, 0)) if rng.random() < 0.5 else None
    want = orc.homology_matrix(letters, tail)
    argv = ["homology", "action", "--word", orc.word_text(letters, tail)]

    def check(res):
        rc, out = res
        if rc != 0:
            return False
        if as_json:
            return tuple(map(tuple, json.loads(out)["matrix"])) == want
        return _text_matrix(out.splitlines()) == want

    return cli_op("homology.action", argv + _json_flag(as_json), check)


def _perturb_certified(letters, params, rng):
    """Whether some point shows that f + (1, 0, 0) breaks the identity.

    kappa(x + 1, y, z) - kappa(x, y, z) = 2x + 1 - y*z - P, so for an
    automorphism f the perturbed map fails exactly where 2 f_x + 1 - f_y f_z
    differs from P.
    """
    for _ in range(8):
        fx, fy, fz = orc.word_image(letters, None, draw_point(rng), params)
        if 2 * fx + 1 - fy * fz != params[0]:
            return True
    return False


def check_op(rng, shape, kind, as_json):
    letters = relabel(rng, shape)
    params = draw_params(rng, kind)
    text = str(autgroup.word_to_map(letters, params))
    want = True
    if rng.random() < 0.5 and _perturb_certified(letters, params, rng):
        first, rest = text.split(";", 1)
        text = "%s + 1;%s" % (first, rest)
        want = False
    argv = ["aut", "check", "--map", text, "--params", triple_text(params)]

    def check(res):
        rc, out = res
        if rc != 0:
            return False
        if as_json:
            return json.loads(out)["automorphism"] is want
        return out.strip() == "automorphism: %s" % ("true" if want else "false")

    return cli_op("aut.check", argv + _json_flag(as_json), check)


def decompose_op(rng, shape, kind, as_json):
    letters = relabel(rng, shape)
    params = draw_params(rng, kind)
    tail = draw_tail(rng, params)
    text = str(autgroup.word_to_map(group_word(letters, tail), params))
    argv = ["aut", "decompose", "--map", text, "--params", triple_text(params)]

    def check(res):
        rc, out = res
        if rc != 0:
            return False
        if as_json:
            doc = json.loads(out)
            return tuple(doc["word"]) == letters and doc["tail"] == orc.tail_text(tail)
        lines = out.splitlines()
        return (lines[0] == "word: " + " ".join(letters)
                and lines[1] == "tail: " + orc.tail_text(tail))

    return cli_op("aut.decompose", argv + _json_flag(as_json), check)


def pgl_op(rng, shape):
    letters = relabel(rng, shape)
    tail = draw_tail(rng, (0, 0, 0)) if rng.random() < 0.5 else None
    want = orc.pgl_image(letters, tail)
    word = group_word(letters, tail)

    def run():
        cls = modular.word_to_pgl(word)
        return cls, modular.pgl_characters(cls)

    def check(res):
        cls, chars = res
        return (cls.rep == want
                and (chars.det, tuple(chars.mod2), chars.congruence_member)
                == orc.pgl_chars(want))

    return Op("modular.pgl", "pgl " + orc.word_text(letters, tail), run, check)


def sign_op(rng, shape, kind):
    letters = relabel(rng, shape)
    params = draw_params(rng, kind)
    tail = draw_tail(rng, params) if rng.random() < 0.5 else None
    want = orc.word_sign(letters, tail)
    word = group_word(letters, tail)

    def run():
        sign = autgroup.sign_character(word, params)
        jac = multipoly.jacobian_determinant(autgroup.word_to_map(word, params))
        return sign, jac

    def check(res):
        sign, jac = res
        return sign == want and jac.is_constant() and jac.constant_value() == want

    label = "sign %s | %s" % (orc.word_text(letters, tail), triple_text(params))
    return Op("autgroup.sign", label, run, check)


def words_pass(rng, template):
    ops = []
    for what, shape, kind, as_json in template:
        if what == "apply":
            ops.append(apply_op(rng, shape, kind, as_json))
        elif what == "homology":
            ops.append(homology_op(rng, shape, as_json))
        elif what == "check":
            ops.append(check_op(rng, shape, kind, as_json))
        elif what == "decompose":
            ops.append(decompose_op(rng, shape, kind, as_json))
        elif what == "pgl":
            ops.append(pgl_op(rng, shape))
        else:
            ops.append(sign_op(rng, shape, kind))
    return ops


# --- fibers ------------------------------------------------------------------

# Tall parameter triples (|n| <= 12, denominator <= 4): the triples at the
# 1/12, 3/12, ..., 11/12 and 99/100 quantiles of `singular --json` time over
# 200 tall triples drawn from random.Random("charcubic-bench/tall"), timed
# with Python 3.11.7 on a 2-core Xeon VM at the commit that added this
# benchmark (17 ms .. 0.98 s; the last sits in the slow trial-division tail).  Fixed, so that every run meets the tail at the same
# rate instead of by luck of the seed.
TALL_PARAMS = (
    ("-2", "-2", "8/3"),
    ("-2", "9/4", "5/2"),
    ("4", "3/2", "-3"),
    ("8", "-5/2", "8/3"),
    ("7/3", "7", "2"),
    ("-1/2", "7/4", "-9"),
    ("6", "-3/4", "7/4"),
)


def fibers_template():
    """Time goes mostly to `singular` and `lines`; by count most queries are
    small ones (traces, kappa, witnesses, links), so the median sits on the
    cli.run floor and the tail on the tall and line queries."""
    out = [("singular", None, i % 2) for i in range(12)]
    out += [("singular_tall", p, i % 2) for i, p in enumerate(TALL_PARAMS)]
    for i, kind in enumerate(("inst", "inst", "inst", "field", "field", "field",
                              "refuse_rm", "refuse_rp", "refuse_prod", "singular_t")):
        out.append(("lines", kind, i % 2))
    out += [("snf", 2 + i % 5, i % 2) for i in range(8)]
    for what in ("torus", "sphere", "traces", "kappa"):
        out += [(what, None, i % 2) for i in range(10)]
    out += [("h1", basis, i % 2) for i, basis in enumerate(("vc", "alpha", "vc", "alpha"))]
    out += [("monodromy", 1 + i % 6, i % 2) for i in range(8)]
    return out


def singular_check(params, as_json):
    params = tuple(Fraction(c) for c in params)

    def rational_ok(pt, value):
        return (all(g == 0 for g in orc.gradient(params, pt))
                and value == orc.kappa(params, pt))

    def check(res):
        rc, out = res
        if rc != 0:
            return False
        weight = 0
        if as_json:
            doc = json.loads(out)
            for cp in doc["critical_points"]:
                m = cp["multiplicity"]
                if "point" in cp:
                    if not rational_ok(_fracs(cp["point"]), Fraction(cp["value"])):
                        return False
                    weight += m
                else:
                    weight += m * (len(cp["minpoly"]["coefficients_low_to_high"]) - 1)
            return weight == 5 and doc["total_multiplicity"] == 5
        for ln in out.splitlines():
            rat = re.match(r"^  \((.+), (.+), (.+)\)  \[multiplicity (\d+), value (.+)\]$", ln)
            alg = re.match(r"^  (\d+) conjugate points with .*\[multiplicity (\d+),", ln)
            if rat:
                if not rational_ok(_fracs(rat.group(1, 2, 3)), Fraction(rat.group(5))):
                    return False
                weight += int(rat.group(4))
            elif alg:
                weight += int(alg.group(1)) * int(alg.group(2))
        return weight == 5 and out.rstrip().endswith("total multiplicity: 5")

    return check


def singular_op(rng, params, as_json):
    argv = ["singular", "--params", triple_text(params)] + _json_flag(as_json)
    return cli_op("singular", argv, singular_check(params, as_json))


def tall_variant(rng, params):
    """Swapping P and Q, or negating both, leaves the z-eliminant
    (2z - R)(4 - z^2)^2 - (2P + Qz)(2Q + Pz) unchanged, so the variant costs
    the same while the points differ."""
    p, q, r = (Fraction(c) for c in params)
    if rng.random() < 0.5:
        p, q = q, p
    if rng.random() < 0.5:
        p, q = -p, -q
    return (p, q, r)


def draw_level(rng, kind):
    if kind == "singular_t":
        return Fraction(rng.choice((2, -2)))
    while True:
        if kind == "inst":
            # t - 2 = u^2 and t + 2 = v^2 with v - u = s, v + u = 4/s
            s = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            u = (4 / s - s) / 2
            t = u * u + 2
        elif kind == "refuse_rm":
            t = Fraction(rng.randint(1, 12), rng.randint(1, 6)) ** 2 + 2
        elif kind == "refuse_rp":
            t = Fraction(rng.randint(1, 12), rng.randint(1, 6)) ** 2 - 2
        elif kind == "refuse_prod":
            # (t - 2)(t + 2) = w^2: t = (a^2 + 4) / (2a) ... times a scale
            a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            t = (a + 4 / a) / 2
        else:
            t = Fraction(rng.randint(-60, 60), rng.randint(1, 7))
        squares = (orc.is_square(t - 2), orc.is_square(t + 2),
                   orc.is_square((t - 2) * (t + 2)))
        if t in (2, -2):
            continue
        if kind == "inst" or (kind == "field" and not any(squares)):
            return t
        if kind == "refuse_rm" and squares == (True, False, False):
            return t
        if kind == "refuse_rp" and squares == (False, True, False):
            return t
        if kind == "refuse_prod" and squares == (False, False, True):
            return t


def _on_fiber(t, base, direction):
    """kappa_0(base + s*direction) = t at four values of s: exact for a cubic in s."""
    return all(orc.kappa((0, 0, 0), tuple(b + s * d for b, d in zip(base, direction))) == t
               for s in range(4))


def lines_op(rng, kind, as_json):
    t = draw_level(rng, kind)
    refused = orc.lines_refused(t)
    rational = orc.is_square(t - 2) and orc.is_square(t + 2)
    argv = ["lines", "--t", frac_text(t), "--gram"] + _json_flag(as_json)

    def check(res):
        rc, out = res
        if refused:
            return rc == 1
        if rc != 0:
            return False
        if as_json:
            doc = json.loads(out)
            lines = [(_fracs(ln["base"]), _fracs(ln["direction"])) if rational else None
                     for ln in doc["lines"]]
            gram = tuple(map(tuple, doc["class_gram"]))
        else:
            body = out.splitlines()
            cut = body.index("class Gram matrix:")
            lines = []
            for ln in body[1:cut]:
                m = re.search(r"base \((.+)\), direction \((.+)\)$", ln)
                lines.append((_fracs(m.group(1).split(", ")), _fracs(m.group(2).split(", ")))
                             if rational else None)
            gram = _text_matrix(body[cut + 1:])
        if len(lines) != 24 or gram != orc.Q_VC:
            return False
        return not rational or all(_on_fiber(t, b, d) for b, d in lines)

    return cli_op("lines", argv, check)


def snf_op(rng, n, as_json):
    m = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
    text = ";".join(",".join(str(e) for e in row) for row in m)
    argv = ["snf", "--matrix", text] + _json_flag(as_json)

    def check(res):
        rc, out = res
        if rc != 0:
            return False
        if as_json:
            doc = json.loads(out)
            return orc.check_snf(m, doc["d"], doc["u"], doc["v"])
        lines = out.splitlines()
        rank, torsion = orc.cokernel_of(m)
        return (lines[0] == "diagonal: " + ", ".join(str(d) for d in orc.invariant_factors(m))
                and lines[1] == "cokernel free rank: %d" % rank
                and lines[2] == "cokernel torsion: %s"
                % (", ".join(str(t) for t in torsion) or "none"))

    return cli_op("snf", argv, check)


def draw_sl2(rng, steps=4):
    m = ((1, 0), (0, 1))
    for _ in range(steps):
        n = rng.randint(-3, 3)
        m = orc.matmul(m, ((1, n), (0, 1)) if rng.random() < 0.5 else ((1, 0), (n, 1)))
    return m


def _mat_text(m):
    return ";".join(",".join(str(e) for e in row) for row in m)


def _text_fields(out):
    """'name = value' and 'name: value' lines, keyed by name."""
    fields = {}
    for ln in out.splitlines():
        key, sep, value = ln.rpartition(" = ") if " = " in ln else ln.partition(": ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def torus_op(rng, as_json):
    a, b = draw_sl2(rng), draw_sl2(rng)
    x, y, z, comm = orc.torus_expect(a, b)
    ok_identity = orc.kappa((0, 0, 0), (x, y, z)) == comm
    argv = ["witness", "torus", "--A", _mat_text(a), "--B", _mat_text(b)] + _json_flag(as_json)

    def check(res):
        rc, out = res
        if rc != 0 or not ok_identity:
            return False
        if as_json:
            doc = json.loads(out)
            got = _fracs((doc["x"], doc["y"], doc["z"], doc["commutator_trace"]))
            return got == (x, y, z, comm) and doc["identity_holds"] is True
        lines = out.splitlines()
        got = _fracs(ln.rsplit("= ", 1)[1] for ln in lines[:4])
        return got == (x, y, z, comm) and lines[4].endswith(": true")

    return cli_op("witness.torus", argv, check)


def sphere_op(rng, as_json):
    ds = [draw_sl2(rng) for _ in range(3)]
    traces, params, s, point = orc.sphere_expect(*ds)
    ok_identity = orc.kappa(params, point) == s
    argv = ["witness", "sphere"]
    for name, d in zip(("--D1", "--D2", "--D3"), ds):
        argv += [name, _mat_text(d)]

    def check(res):
        rc, out = res
        if rc != 0 or not ok_identity:
            return False
        if as_json:
            doc = json.loads(out)
            return (_fracs(doc["boundary"]) == traces
                    and _fracs((doc["P"], doc["Q"], doc["R"], doc["S"])) == params + (s,)
                    and _fracs(doc["point"]) == point and doc["on_surface"] is True)
        lines = out.splitlines()
        pqr = re.match(r"P = (.+), Q = (.+), R = (.+)$", lines[1])
        return (_fracs(lines[0].split("(")[1].rstrip(")").split(", ")) == traces
                and _fracs(pqr.group(1, 2, 3)) == params
                and Fraction(lines[2].split("= ")[1]) == s
                and _fracs(lines[3].split("(")[1].rstrip(")").split(", ")) == point
                and lines[4].endswith(": true"))

    return cli_op("witness.sphere", argv + _json_flag(as_json), check)


def traces_op(rng, as_json):
    ts = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(4))
    want = orc.traces_expect(*ts)
    argv = ["traces", "--boundary", ",".join(frac_text(t) for t in ts)] + _json_flag(as_json)

    def check(res):
        rc, out = res
        if rc != 0:
            return False
        if as_json:
            doc = json.loads(out)
            return _fracs((doc["P"], doc["Q"], doc["R"], doc["S"])) == want
        f = _text_fields(out)
        return _fracs((f["P"], f["Q"], f["R"], f["S"])) == want

    return cli_op("traces", argv, check)


def kappa_op(rng, as_json):
    params, point = draw_point(rng), draw_point(rng)
    want = orc.kappa(params, point)
    argv = ["kappa", "eval", "--params", triple_text(params),
            "--point", triple_text(point)] + _json_flag(as_json)

    def check(res):
        rc, out = res
        if rc != 0:
            return False
        got = json.loads(out)["value"] if as_json else out.strip()
        return Fraction(got) == want

    return cli_op("kappa.eval", argv, check)


def h1_op(rng, basis, as_json):
    rank, torsion = orc.cokernel_of(orc.Q_VC if basis == "vc" else orc.ALPHA_GRAM)
    argv = ["link", "h1", "--basis", basis] + _json_flag(as_json)

    def check(res):
        rc, out = res
        if rc != 0:
            return False
        if as_json:
            doc = json.loads(out)
            return doc["free_rank"] == rank and doc["torsion"] == torsion
        f = _text_fields(out)
        return (f["free rank"] == str(rank)
                and f["torsion"] == (", ".join(str(t) for t in torsion) or "none"))

    return cli_op("link.h1", argv, check)


def monodromy_op(rng, n, as_json):
    euler = tuple(rng.randint(-4, 4) for _ in range(n))
    want = orc.monodromy(euler)
    argv = ["link", "monodromy", "--euler", ",".join(str(e) for e in euler)] + _json_flag(as_json)

    def check(res):
        rc, out = res
        if rc != 0:
            return False
        if as_json:
            return tuple(map(tuple, json.loads(out)["matrix"])) == want
        return _text_matrix(out.splitlines()) == want

    return cli_op("link.monodromy", argv, check)


def fibers_pass(rng, template):
    ops = []
    for what, arg, as_json in template:
        if what == "singular":
            params = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
            ops.append(singular_op(rng, params, as_json))
        elif what == "singular_tall":
            ops.append(singular_op(rng, tall_variant(rng, arg), as_json))
        elif what == "lines":
            ops.append(lines_op(rng, arg, as_json))
        elif what == "snf":
            ops.append(snf_op(rng, arg, as_json))
        elif what == "torus":
            ops.append(torus_op(rng, as_json))
        elif what == "sphere":
            ops.append(sphere_op(rng, as_json))
        elif what == "traces":
            ops.append(traces_op(rng, as_json))
        elif what == "kappa":
            ops.append(kappa_op(rng, as_json))
        elif what == "h1":
            ops.append(h1_op(rng, arg, as_json))
        else:
            ops.append(monodromy_op(rng, arg, as_json))
    return ops


# name -> (template builder, pass builder, tail percentile).  The percentile
# is the highest standard one with at least ten samples beyond it at every
# run length the benchmark makes; it is fixed per workload because
# recomputing it per run moves it with the sample count, across template slots.
WORKLOADS = {
    "roundtrip": (roundtrip_template, roundtrip_pass, 95.0),
    "words": (words_template, words_pass, 99.0),
    "fibers": (fibers_template, fibers_pass, 95.0),
}


def make_pass(name, seed, index, template):
    """The ops of pass `index` under `seed`, in seeded order."""
    rng = random.Random("%s/%d/%d" % (name, seed, index))
    ops = WORKLOADS[name][1](rng, template)
    rng.shuffle(ops)
    return ops
