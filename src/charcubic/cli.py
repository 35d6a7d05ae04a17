"""Command-line front end.

Every subcommand accepts --json for machine-readable output; the default is
aligned human-readable text.  Exit codes: 0 success, 1 domain error (an input
that parses but is outside an operation's domain), 2 parse / usage error.

The argument parser is built once per process, on the first call to `run`,
and reused after that: `run` may be called any number of times in one
process, and each call parses into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import __version__, univariate as uni
from .autgroup import (GroupWord, apply_word, horowitz_decompose,
                       is_automorphism, word_to_map)
from .characters import (BoundaryTraces, Sl2Matrix, sphere_character,
                         torus_character, traces_to_params)
from .family import _group_values, build_kappa, critical_points
from .homology import (basis_change, homology_action, intersection_form,
                       link_h1, link_monodromy)
from .lines import _class_gram, lines_on_fiber
from .matrices import Matrix, _snf_cokernel, smith_normal_form
from .parsing import (ParseError, parse_int_list, parse_matrix, parse_poly_map,
                      parse_rational, parse_triple, parse_word, word_tokens)


def _matrix_lines(m: Matrix) -> list:
    rows = [[str(e) for e in row] for row in m.to_lists()]
    widths = [max(len(row[j]) for row in rows) for j in range(len(rows[0]))]
    return ["  ".join(row[j].rjust(widths[j]) for j in range(len(row)))
            for row in rows]


def _int_rows(m: Matrix) -> list:
    return [[int(e) for e in row] for row in m.to_lists()]


def _emit(args, lines, payload) -> int:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return 0


def _two_by_two(text: str) -> Matrix:
    m = parse_matrix(text)
    if m.shape != (2, 2):
        raise ParseError("expected a 2x2 matrix, got shape %dx%d" % m.shape)
    return m


def _as_sl2(m: Matrix) -> Sl2Matrix:
    # determinant 1 is a domain condition, not a parse condition
    return Sl2Matrix(m[0, 0], m[0, 1], m[1, 0], m[1, 1])


# --- handlers -----------------------------------------------------------------

def _cmd_kappa_eval(args) -> int:
    value = build_kappa(args.params).evaluate(dict(zip("xyz", args.point)))
    return _emit(args, [str(value)],
                 {"params": [str(c) for c in args.params],
                  "point": [str(c) for c in args.point],
                  "value": str(value)})


def _cmd_singular(args) -> int:
    pts = critical_points(args.params)
    values = _group_values(pts)
    lines = ["critical points (%d classes):" % len(pts)]
    lines += ["  " + str(cp) for cp in pts]
    lines.append("critical values:")
    val_json = []
    for value, mult in values:
        if isinstance(value, tuple):
            shown = uni.to_string(list(value), "v")
            val_json.append({"value_minpoly": [str(c) for c in value],
                             "multiplicity": mult})
        else:
            shown = str(value)
            val_json.append({"value": shown, "multiplicity": mult})
        lines.append("  %s  [multiplicity %d]" % (shown, mult))
    total = sum(cp.weight() for cp in pts)
    lines.append("total multiplicity: %d" % total)
    return _emit(args, lines,
                 {"params": [str(c) for c in args.params],
                  "critical_points": [cp.to_jsonable() for cp in pts],
                  "critical_values": val_json,
                  "total_multiplicity": total})


def _cmd_aut_check(args) -> int:
    flag = is_automorphism(parse_poly_map(args.map), args.params)
    return _emit(args, ["automorphism: %s" % ("true" if flag else "false")],
                 {"params": [str(c) for c in args.params],
                  "automorphism": flag})


def _cmd_aut_apply(args) -> int:
    if args.point is not None:
        image = apply_word(args.word, args.point, args.params)
        return _emit(args, ["(%s)" % ", ".join(str(c) for c in image)],
                     {"point": [str(c) for c in args.point],
                      "image": [str(c) for c in image]})
    f = word_to_map(args.word, args.params)
    return _emit(args, [str(f)], {"map": [str(c) for c in f.components]})


def _cmd_aut_decompose(args) -> int:
    letters, tail = horowitz_decompose(parse_poly_map(args.map), args.params)
    tokens = word_tokens(GroupWord(letters, tail))
    lines = ["word: %s" % (" ".join(letters) if letters else "(empty)"),
             "tail: %s" % str(tail),
             "tokens: %s" % (tokens if tokens else "(empty)")]
    return _emit(args, lines,
                 {"word": list(letters), "tail": str(tail), "tokens": tokens})


def _cmd_homology_action(args) -> int:
    m = homology_action(args.word)
    return _emit(args, _matrix_lines(m),
                 {"word": list(args.word.letters), "matrix": _int_rows(m)})


def _cmd_homology_form(args) -> int:
    form = intersection_form(args.basis)
    return _emit(args, ["basis: %s" % form.basis] + _matrix_lines(form.matrix),
                 {"basis": form.basis, "matrix": _int_rows(form.matrix)})


def _cmd_homology_cob(args) -> int:
    b = basis_change()
    lhs = b.transpose() * intersection_form("alpha").matrix * b
    ok = lhs == intersection_form("vanishing_cycle").matrix
    lines = _matrix_lines(b) + ["transports alpha form to vanishing-cycle form: %s"
                                % ("true" if ok else "false")]
    return _emit(args, lines, {"matrix": _int_rows(b), "congruent": ok})


def _cmd_link_monodromy(args) -> int:
    m = link_monodromy(args.euler)
    return _emit(args, _matrix_lines(m),
                 {"euler_numbers": list(args.euler), "matrix": _int_rows(m)})


def _cmd_link_h1(args) -> int:
    form = intersection_form(args.basis)
    free_rank, torsion = link_h1(form)
    desc = " x ".join(["Z"] * free_rank + ["Z/%d" % t for t in torsion]) or "0"
    return _emit(args, ["free rank: %d" % free_rank,
                        "torsion: %s" % (", ".join(str(t) for t in torsion) or "none"),
                        "group: %s" % desc],
                 {"basis": form.basis, "free_rank": free_rank,
                  "torsion": list(torsion)})


def _cmd_lines(args) -> int:
    lns = lines_on_fiber(args.t)
    lines = ["%d lines on the fiber at t = %s:" % (len(lns), args.t)]
    lines += ["  " + str(ln) for ln in lns]
    payload = {"t": str(args.t), "lines": [ln.to_jsonable() for ln in lns]}
    if args.gram:
        g = _class_gram(lns)
        lines.append("class Gram matrix:")
        lines += ["  " + row for row in _matrix_lines(g)]
        payload["class_gram"] = _int_rows(g)
    return _emit(args, lines, payload)


def _cmd_traces(args) -> int:
    t1, t2, t3, t4 = args.boundary
    params, s = traces_to_params(BoundaryTraces(t1, t2, t3, t4))
    p, q, r = params
    return _emit(args, ["P = %s" % p, "Q = %s" % q, "R = %s" % r, "S = %s" % s],
                 {"boundary": [str(c) for c in args.boundary],
                  "P": str(p), "Q": str(q), "R": str(r), "S": str(s)})


def _cmd_witness_torus(args) -> int:
    # torus_character raises unless kappa(x, y, z) = tr [A, B]
    ch = torus_character(_as_sl2(args.A), _as_sl2(args.B))
    return _emit(args, ["x = tr A = %s" % ch.x,
                        "y = tr B = %s" % ch.y,
                        "z = tr AB = %s" % ch.z,
                        "tr [A, B] = %s" % ch.commutator_trace,
                        "kappa(x, y, z) = tr [A, B]: true"],
                 {"x": str(ch.x), "y": str(ch.y), "z": str(ch.z),
                  "commutator_trace": str(ch.commutator_trace),
                  "identity_holds": True})


def _cmd_witness_sphere(args) -> int:
    ch = sphere_character(_as_sl2(args.D1), _as_sl2(args.D2), _as_sl2(args.D3))
    p, q, r = ch.params
    lines = ["boundary traces: (%s)" % ", ".join(str(c) for c in ch.traces),
             "P = %s, Q = %s, R = %s" % (p, q, r),
             "S = %s" % ch.s_value,
             "point: (%s)" % ", ".join(str(c) for c in ch.point),
             "point lies on the surface kappa = S: %s"
             % ("true" if ch.on_surface else "false")]
    return _emit(args, lines,
                 {"boundary": [str(c) for c in ch.traces],
                  "P": str(p), "Q": str(q), "R": str(r), "S": str(ch.s_value),
                  "point": [str(c) for c in ch.point],
                  "on_surface": ch.on_surface})


def _cmd_snf(args) -> int:
    res = smith_normal_form(args.matrix)
    n = min(res.d.shape)
    diag = [int(res.d[i, i]) for i in range(n)]
    free_rank, torsion = _snf_cokernel(res.d)
    lines = ["diagonal: %s" % ", ".join(str(d) for d in diag),
             "cokernel free rank: %d" % free_rank,
             "cokernel torsion: %s" % (", ".join(str(t) for t in torsion) or "none")]
    return _emit(args, lines,
                 {"diagonal": diag,
                  "d": _int_rows(res.d), "u": _int_rows(res.u),
                  "v": _int_rows(res.v),
                  "cokernel": {"free_rank": free_rank, "torsion": list(torsion)}})


# --- argument wiring ----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """No option name starts with a digit, so any token matching -<digit>...
    (negative entries in --euler, --matrix, --params, ...) is a value."""

    def __init__(self, *a, **k):
        super().__init__(*a, **k)
        self._negative_number_matcher = re.compile(r"^-\d")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="charcubic",
        description="Exact workbench for the cubic surface family "
                    "x^2 + y^2 + z^2 - x*y*z - P*x - Q*y - R*z - 2 = 0.")
    parser.add_argument("--version", action="version", version=__version__)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    kappa = sub.add_parser("kappa", help="evaluate family members")
    kappa_sub = kappa.add_subparsers(dest="subcommand", required=True)
    ke = kappa_sub.add_parser("eval", parents=[shared],
                              help="evaluate kappa at a rational point")
    ke.add_argument("--params", type=parse_triple, required=True,
                    metavar="P,Q,R")
    ke.add_argument("--point", type=parse_triple, required=True,
                    metavar="x,y,z")
    ke.set_defaults(handler=_cmd_kappa_eval)

    sing = sub.add_parser("singular", parents=[shared],
                          help="critical points and critical values")
    sing.add_argument("--params", type=parse_triple, required=True,
                      metavar="P,Q,R")
    sing.set_defaults(handler=_cmd_singular)

    aut = sub.add_parser("aut", help="polynomial automorphisms")
    aut_sub = aut.add_subparsers(dest="subcommand", required=True)
    ac = aut_sub.add_parser("check", parents=[shared],
                            help="test whether a map preserves the family member")
    # --map is parsed by the handler, so a map too large to represent exits
    # 1 like any other domain error instead of 2 as a usage error
    ac.add_argument("--map", required=True, metavar='"f1; f2; f3"')
    ac.add_argument("--params", type=parse_triple, default=(0, 0, 0),
                    metavar="P,Q,R")
    ac.set_defaults(handler=_cmd_aut_check)
    aa = aut_sub.add_parser("apply", parents=[shared],
                            help="compose a word into a map, optionally apply it")
    aa.add_argument("--word", type=parse_word, required=True,
                    metavar='"t3 t1"')
    aa.add_argument("--params", type=parse_triple, default=(0, 0, 0),
                    metavar="P,Q,R")
    aa.add_argument("--point", type=parse_triple, default=None,
                    metavar="x,y,z")
    aa.set_defaults(handler=_cmd_aut_apply)
    ad = aut_sub.add_parser("decompose", parents=[shared],
                            help="normal form of a map as a tau-word and tail")
    ad.add_argument("--map", required=True, metavar='"f1; f2; f3"')
    ad.add_argument("--params", type=parse_triple, default=(0, 0, 0),
                    metavar="P,Q,R")
    ad.set_defaults(handler=_cmd_aut_decompose)

    hom = sub.add_parser("homology", help="degree-2 homology representation")
    hom_sub = hom.add_subparsers(dest="subcommand", required=True)
    ha = hom_sub.add_parser("action", parents=[shared],
                            help="5x5 matrix of a parameter-free word")
    ha.add_argument("--word", type=parse_word, required=True, metavar='"g"')
    ha.set_defaults(handler=_cmd_homology_action)
    hf = hom_sub.add_parser("form", parents=[shared],
                            help="intersection form in a chosen basis")
    hf.add_argument("--basis", choices=["vc", "alpha"], default="vc")
    hf.set_defaults(handler=_cmd_homology_form)
    hc = hom_sub.add_parser("change-of-basis", parents=[shared],
                            help="matrix carrying the alpha basis to the "
                                 "vanishing-cycle basis")
    hc.set_defaults(handler=_cmd_homology_cob)

    link = sub.add_parser("link", help="plumbing boundary invariants")
    link_sub = link.add_subparsers(dest="subcommand", required=True)
    lm = link_sub.add_parser("monodromy", parents=[shared],
                             help="product of vertex monodromies")
    lm.add_argument("--euler", type=parse_int_list, required=True,
                    metavar="e1,e2,...")
    lm.set_defaults(handler=_cmd_link_monodromy)
    lh = link_sub.add_parser("h1", parents=[shared],
                             help="first homology of the boundary from the form")
    lh.add_argument("--basis", choices=["vc", "alpha"], default="vc")
    lh.set_defaults(handler=_cmd_link_h1)

    lin = sub.add_parser("lines", parents=[shared],
                         help="the 24 lines on a smooth level-t fiber")
    lin.add_argument("--t", type=parse_rational, required=True)
    lin.add_argument("--gram", action="store_true",
                     help="also print the Gram matrix of the five line classes")
    lin.set_defaults(handler=_cmd_lines)

    tr = sub.add_parser("traces", parents=[shared],
                        help="surface coefficients from four boundary traces")
    tr.add_argument("--boundary", type=_boundary_arg, required=True,
                    metavar="t1,t2,t3,t4")
    tr.set_defaults(handler=_cmd_traces)

    wit = sub.add_parser("witness", help="explicit SL(2) character computations")
    wit_sub = wit.add_subparsers(dest="subcommand", required=True)
    wt = wit_sub.add_parser("torus", parents=[shared],
                            help="trace coordinates of a pair of SL(2) matrices")
    wt.add_argument("--A", type=_two_by_two, required=True, metavar='"a,b;c,d"')
    wt.add_argument("--B", type=_two_by_two, required=True, metavar='"a,b;c,d"')
    wt.set_defaults(handler=_cmd_witness_torus)
    ws = wit_sub.add_parser("sphere", parents=[shared],
                            help="character data of a triple of SL(2) matrices")
    for name in ("D1", "D2", "D3"):
        ws.add_argument("--" + name, type=_two_by_two, required=True,
                        metavar='"a,b;c,d"')
    ws.set_defaults(handler=_cmd_witness_sphere)

    snf = sub.add_parser("snf", parents=[shared],
                         help="Smith normal form of an integer matrix")
    snf.add_argument("--matrix", type=parse_matrix, required=True,
                     metavar='"r1c1,r1c2;r2c1,r2c2"')
    snf.set_defaults(handler=_cmd_snf)
    return parser


def _boundary_arg(s: str) -> tuple:
    parts = s.split(",")
    if len(parts) != 4:
        raise ParseError("expected four comma-separated rationals, got %d part(s)"
                         % len(parts))
    return tuple(parse_rational(p) for p in parts)


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main() -> int:
    return run()


if __name__ == "__main__":
    sys.exit(main())
