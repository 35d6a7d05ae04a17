"""Golden outputs of the command line: every subcommand in text and --json.

Each case records the exit code and stdout byte for byte (and stderr for
domain errors and for parse errors raised by charcubic's own parsers, whose
messages are charcubic's, not argparse's).  The files under
tests/golden/ were captured from the implementation before a refactor and
must not change unless an output change is intended.  To re-capture after a
deliberate change, run

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from charcubic.cli import run

GOLDEN = pathlib.Path(__file__).with_name("golden")

_MAP_X = "x; x^2*y - x*z - y; x*y - z"
_SL2 = ("--D1", "1,1;0,1", "--D2", "1,0;-1,1", "--D3", "2,1;1,1")

# (name, argv); each runs once as text and once with --json
_COMMANDS = [
    ("kappa_eval", ["kappa", "eval", "--params", "1,-2,3", "--point", "1/2,2,-1"]),
    ("singular_origin", ["singular", "--params", "0,0,0"]),
    ("singular_rational", ["singular", "--params", "1,0,0"]),
    ("singular_algebraic", ["singular", "--params", "1,2,3"]),
    ("aut_check_true", ["aut", "check", "--map", _MAP_X]),
    ("aut_check_false", ["aut", "check", "--map", "y; x; z", "--params", "1,2,3"]),
    ("aut_apply_map", ["aut", "apply", "--word", "t3 t1 t2", "--params", "1/2,-1,3"]),
    ("aut_apply_point", ["aut", "apply", "--word", "t1 t2 t3 t1",
                         "--params", "1,-2,3", "--point", "1,1/2,-3"]),
    ("aut_apply_rational", ["aut", "apply", "--word", "t2 t3 t1 perm(zxy)",
                            "--params", "1/3,-2/3,4/3", "--point", "1,-1/2,2"]),
    ("aut_apply_perm", ["aut", "apply", "--word", "perm(yxz)", "--point", "1,2,3"]),
    ("aut_decompose", ["aut", "decompose", "--map", _MAP_X]),
    ("aut_decompose_tail", ["aut", "decompose", "--map",
                            "-y; -x*y^2 + y*z + x; x*y - z"]),
    ("homology_action", ["homology", "action", "--word", "t1 t2 g b"]),
    ("homology_action_tail", ["homology", "action", "--word", "t1 a t3 perm(yxz)flip(xy)"]),
    ("homology_form", ["homology", "form", "--basis", "alpha"]),
    ("homology_cob", ["homology", "change-of-basis"]),
    ("link_monodromy", ["link", "monodromy", "--euler", "-2,-3,-1"]),
    ("link_h1", ["link", "h1", "--basis", "vc"]),
    ("lines_rational", ["lines", "--t", "17/4", "--gram"]),
    ("lines_algebra", ["lines", "--t", "5", "--gram"]),
    ("traces", ["traces", "--boundary", "1,2,-3,1/2"]),
    ("witness_torus", ["witness", "torus", "--A", "1,1;0,1", "--B", "2,1;1,1"]),
    ("witness_sphere", ["witness", "sphere"] + list(_SL2)),
    ("snf", ["snf", "--matrix", "2,4,4;-6,6,12;10,-4,-16"]),
    # exit 1: the residue (y, x, z) does not preserve the member at (1, 2, 3)
    ("err_domain_tail", ["aut", "decompose", "--map", "y; x; z", "--params", "1,2,3"]),
    # exit 1: the tail flips one sign, so (2, -2, -2) leaves the four points
    ("err_domain_points", ["homology", "action", "--word", "t1 perm(xyz)flip(x)"]),
    # exit 1: the letter alpha exists only at parameters (0, 0, 0)
    ("err_domain_letter", ["aut", "apply", "--word", "a t1", "--params", "1,0,0",
                           "--point", "0,0,0"]),
    # exit 1: incidence at t = 3 is not decided (t - 2 is a square, t + 2 is not)
    ("err_domain_gram", ["lines", "--t", "3", "--gram"]),
    # exit 2: a parameter triple with two entries
    ("err_parse", ["singular", "--params", "1,2"]),
    # exit 2: parentheses nested past the parser's bound
    ("err_parse_nesting", ["aut", "check", "--map", "(" * 200 + "x" + ")" * 200 + "; y; z"]),
    # exit 2: the flag that picked a second reduction path is gone
    ("err_usage_verify_unique", ["aut", "decompose", "--map", _MAP_X, "--verify-unique"]),
]

CASES = [(name, argv) for name, argv in _COMMANDS] + \
        [(name + ".json", argv + ["--json"]) for name, argv in _COMMANDS]


def run_case(argv):
    """(exit code, stdout, stderr) of cli.run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _expected(name):
    meta = json.loads((GOLDEN / "cases.json").read_text())[name]
    stdout = (GOLDEN / (name + ".out")).read_bytes()
    err_file = GOLDEN / (name + ".err")
    stderr = err_file.read_bytes() if err_file.exists() else None
    return meta, stdout, stderr


def _subcommands():
    """Every (command[, subcommand]) path of the parser."""
    from charcubic.cli import _build_parser
    out = set()
    for name, sub in _build_parser()._subparsers._group_actions[0].choices.items():
        if sub._subparsers is None:
            out.add((name,))
        else:
            out.update((name, s) for s in sub._subparsers._group_actions[0].choices)
    return out


def test_every_subcommand_has_a_text_and_a_json_case():
    commands = _subcommands()
    assert len(commands) == 15
    for as_json in (False, True):
        argvs = [argv for _, argv in CASES if ("--json" in argv) == as_json]
        assert {c for c in commands for a in argvs if tuple(a[:len(c)]) == c} == commands
    meta = json.loads((GOLDEN / "cases.json").read_text())
    assert {meta[name]["exit"] for name, _ in CASES} == {0, 1, 2}


@pytest.mark.parametrize("name,argv", CASES, ids=[n for n, _ in CASES])
def test_cli_output_matches_golden(name, argv):
    meta, stdout, stderr = _expected(name)
    assert meta["argv"] == argv
    code, out, err = run_case(argv)
    assert code == meta["exit"]
    assert out.encode() == stdout
    if stderr is not None:
        assert err.encode() == stderr


def test_reused_parser_keeps_no_state_between_calls():
    # reversed, usage errors and parse errors raised inside argparse type
    # converters run right before successful calls of other subcommands
    for name, argv in 2 * CASES[::-1]:
        meta, stdout, stderr = _expected(name)
        code, out, err = run_case(argv)
        assert code == meta["exit"], name
        assert out.encode() == stdout, name
        if stderr is not None:
            assert err.encode() == stderr, name


def _capture():
    GOLDEN.mkdir(exist_ok=True)
    meta = {}
    for name, argv in CASES:
        code, out, err = run_case(argv)
        meta[name] = {"argv": argv, "exit": code}
        (GOLDEN / (name + ".out")).write_bytes(out.encode())
        if code == 1 or err.startswith("parse error: "):  # charcubic's messages
            (GOLDEN / (name + ".err")).write_bytes(err.encode())
    (GOLDEN / "cases.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    _capture()
