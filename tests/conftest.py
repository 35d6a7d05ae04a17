"""Shared test oracle and the terminal summary for the acceptance suite.

The `horowitz_oracle` fixture is the brute-force form of Horowitz reduction.
The terminal summary collects the outcome and call duration of every
test_criterion_* test in test_acceptance.py and prints one verdict line per
criterion, with its seconds, after the normal pytest output.
"""

import os

import pytest

from charcubic.autgroup import TAU_LETTERS, affine_stabilizer, generator


def _horowitz_by_brute_force(f, params=(0, 0, 0)):
    """(letters, tail) of f, found by composing all three involutions at every
    step and demanding that exactly one of them lowers the degree: the plain
    path that horowitz_decompose's one-candidate loop must agree with."""
    letters = []
    g = f
    while g.degree() > 1:
        reducers = [(name, generator(name, params) @ g) for name in TAU_LETTERS]
        reducers = [(n, c) for n, c in reducers if c.degree() < g.degree()]
        assert len(reducers) == 1, "%d reducing letters at %s" % (len(reducers), g)
        name, g = reducers[0]
        letters.append(name)
    tails = [sp for sp in affine_stabilizer(params) if sp.to_poly_map() == g]
    assert len(tails) == 1, "affine residue %s is not a stabilizer element" % g
    return tuple(letters), tails[0]


@pytest.fixture
def horowitz_oracle():
    return _horowitz_by_brute_force


_TITLES = {
    1: "critical locus at the origin parameters",
    2: "homology matrices of the six generators",
    3: "finite symmetry representation structure",
    4: "congruence image of twist words",
    5: "word normal form round-trip",
    6: "intersection forms and cokernels",
    7: "link monodromy of the (-1,-1,-1) cycle",
    8: "twenty-four lines and their class Gram",
    9: "torus and sphere trace identities",
    10: "affine stabilizer case orders",
    11: "singular fiber multiplicity total",
}

_RESULTS = {}
_SECONDS = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if not name.startswith("test_criterion_"):
        return
    try:
        num = int(name.split("_")[2])
    except ValueError:
        return
    if report.when == "call":
        _RESULTS[num] = report.outcome
        _SECONDS[num] = report.duration
    elif report.outcome == "failed" and num not in _RESULTS:
        # setup (import/collection) errors count as failures of the criterion
        _RESULTS[num] = "failed"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _RESULTS:
        return
    tr = terminalreporter
    tr.ensure_newline()
    tr.section("acceptance criteria")
    for num in sorted(_RESULTS):
        verdict = "PASS" if _RESULTS[num] == "passed" else "FAIL"
        seconds = "%8.2f s" % _SECONDS[num] if num in _SECONDS else "       - s"
        tr.write_line("criterion %2d  %-42s %s %s"
                      % (num, _TITLES.get(num, "?"), verdict, seconds))
    if 5 in _RESULTS:
        if os.environ.get("CHARCUBIC_ACCEPTANCE_FULL"):
            tr.write_line("criterion 5 ran the full word-length envelope (bulk lengths 1..12).")
        else:
            tr.write_line(
                "note: criterion 5 ran its bulk round-trip at word lengths 1..10 with single\n"
                "      spot words at lengths 9, 10 and 11.  One exact length-12 round trip\n"
                "      takes minutes, so the full length <= 12 envelope (plus a spot word\n"
                "      at 12) only runs when CHARCUBIC_ACCEPTANCE_FULL=1 is set.")
