"""Tests of the benchmark itself: every oracle accepts the library's answer and
rejects a corrupted one, and one pass of each workload runs clean.

    python3 -m pytest bench -q
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles as orc  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from worker import measure, tail  # noqa: E402


def _rng():
    return random.Random("bench-tests")


def _accepts_then_rejects(op, *corruptions):
    result = op.run()
    assert op.check(result), op.label
    for corrupt in corruptions:
        assert not op.check(corrupt(result)), (op.label, corrupt)


def _wrong_exit(res):
    rc, out = res
    return (1 if rc == 0 else 0), out


def _json_edit(edit):
    def corrupt(res):
        rc, out = res
        doc = json.loads(out)
        edit(doc)
        return rc, json.dumps(doc)
    return corrupt


def _text_edit(old, new, count=1):
    def corrupt(res):
        rc, out = res
        assert old in out, (old, out)
        return rc, out.replace(old, new, count)
    return corrupt


def _bump(x):
    return str(Fraction(x) + 1)


# --- library operations ----------------------------------------------------------

def test_roundtrip_oracle_rejects_a_swapped_letter():
    op = wl.roundtrip_op(_rng(), ("tau1", "tau2", "tau3", "tau1"), "rat")

    def swap(res):
        letters, tail = res
        return (letters[1], letters[0]) + tuple(letters[2:]), tail

    def other_tail(res):
        letters, _ = res
        return letters, wl.autgroup.SignedPerm((1, 0, 2), (1, 1, 1))

    _accepts_then_rejects(op, swap, other_tail)


def test_pgl_oracle_rejects_a_perturbed_entry():
    op = wl.pgl_op(_rng(), ("tau2", "alpha", "beta", "sigma_x"))

    class Wrong:
        def __init__(self, rep):
            self.rep = rep

    def perturb(res):
        cls, chars = res
        (a, b), (c, d) = cls.rep
        return Wrong(((a, b + 2), (c, d))), chars

    def wrong_det(res):
        cls, chars = res
        return cls, chars._replace(det=-chars.det)

    _accepts_then_rejects(op, perturb, wrong_det)


def test_sign_oracle_rejects_a_wrong_sign():
    op = wl.sign_op(_rng(), ("tau1", "tau3", "tau2"), "int")
    _accepts_then_rejects(op, lambda res: (-res[0], res[1]), lambda res: (res[0], -res[1]))


# --- CLI operations ------------------------------------------------------------

def test_point_image_oracle_rejects_a_wrong_coordinate():
    for as_json in (0, 1):
        op = wl.apply_op(_rng(), ("tau1", "tau2", "tau3"), "rat", as_json)

        def wrong_coordinate(res):
            rc, out = res
            if as_json:
                doc = json.loads(out)
                doc["image"][1] = _bump(doc["image"][1])
                return rc, json.dumps(doc)
            coords = out.strip()[1:-1].split(", ")
            coords[1] = _bump(coords[1])
            return rc, "(%s)\n" % ", ".join(coords)

        _accepts_then_rejects(op, wrong_coordinate, _wrong_exit)


def test_homology_oracle_rejects_a_perturbed_entry():
    shape = ("alpha", "tau1", "beta", "sigma_y", "tau3")
    for as_json in (0, 1):
        op = wl.homology_op(_rng(), shape, as_json)

        def perturb(res):
            rc, out = res
            if as_json:
                doc = json.loads(out)
                doc["matrix"][2][3] += 1
                return rc, json.dumps(doc)
            rows = [ln.split() for ln in out.splitlines()]
            rows[2][3] = str(int(rows[2][3]) + 1)
            return rc, "\n".join(" ".join(r) for r in rows) + "\n"

        _accepts_then_rejects(op, perturb, _wrong_exit)


def test_check_oracle_rejects_the_wrong_verdict():
    rng = _rng()
    seen = set()
    while len(seen) < 2:
        op = wl.check_op(rng, ("tau1", "tau2"), "int", 0)
        result = op.run()
        assert op.check(result)
        verdict = result[1].strip()
        seen.add(verdict)
        flipped = verdict.replace("true", "x").replace("false", "true").replace("x", "false")
        assert not op.check((0, flipped + "\n"))
        assert not op.check(_wrong_exit(result))
    assert seen == {"automorphism: true", "automorphism: false"}


def test_decompose_oracle_rejects_a_swapped_letter():
    shape = ("tau1", "tau2", "tau3")
    for as_json in (0, 1):
        op = wl.decompose_op(_rng(), shape, "rat", as_json)
        if as_json:
            def swap(res):
                rc, out = res
                doc = json.loads(out)
                doc["word"][0], doc["word"][1] = doc["word"][1], doc["word"][0]
                return rc, json.dumps(doc)
        else:
            first = op.run()[1].splitlines()[0].split()

            def swap(res):
                rc, out = res
                return rc, out.replace(" ".join(first[1:3]), " ".join(first[2:0:-1]), 1)
        _accepts_then_rejects(op, swap, _wrong_exit)


def test_singular_oracle_rejects_a_wrong_point_and_weight():
    op = wl.singular_op(_rng(), (Fraction(0),) * 3, 1)

    def wrong_point(doc):
        pt = next(cp for cp in doc["critical_points"] if "point" in cp)
        pt["point"][0] = _bump(pt["point"][0])

    def wrong_weight(doc):
        doc["critical_points"][0]["multiplicity"] += 1

    _accepts_then_rejects(op, _json_edit(wrong_point), _json_edit(wrong_weight), _wrong_exit)

    op = wl.singular_op(_rng(), (Fraction(1), Fraction(0), Fraction(0)), 0)
    _accepts_then_rejects(op, _text_edit("(1/2, 0, 0)", "(1/2, 1, 0)"),
                          _text_edit("2 conjugate points with z^2 - 3",
                                     "3 conjugate points with z^2 - 3"), _wrong_exit)


def test_lines_oracle_rejects_a_wrong_exit_code_and_gram():
    refused = wl.lines_op(_rng(), "refuse_rm", 0)
    _accepts_then_rejects(refused, _wrong_exit)

    op = wl.lines_op(_rng(), "inst", 1)

    def perturb(doc):
        doc["class_gram"][0][4] = 0

    def off_fiber(doc):
        doc["lines"][5]["base"][0] = _bump(doc["lines"][5]["base"][0])

    def drop_line(doc):
        doc["lines"].pop()

    _accepts_then_rejects(op, _json_edit(perturb), _json_edit(off_fiber),
                          _json_edit(drop_line), _wrong_exit)

    op = wl.lines_op(_rng(), "field", 0)
    _accepts_then_rejects(op, _text_edit("   1   1   1   1  -2", "   1   1   1   0  -2"),
                          _wrong_exit)


def test_refusal_rule():
    assert orc.lines_refused(2) and orc.lines_refused(-2)
    assert not orc.lines_refused(Fraction(17, 4))      # 9/4 and 25/4: rational lines
    assert orc.lines_refused(Fraction(11))             # t - 2 = 9 only
    assert orc.lines_refused(Fraction(7))              # t + 2 = 9 only
    assert orc.lines_refused(Fraction(5, 2))           # (t - 2)(t + 2) = 9/4
    assert not orc.lines_refused(Fraction(5))          # 3, 7, 21: none a square


def test_snf_oracle_rejects_a_perturbed_transform():
    for as_json in (0, 1):
        op = wl.snf_op(_rng(), 4, as_json)
        if as_json:
            def perturb(res):
                rc, out = res
                doc = json.loads(out)
                doc["u"][0][1] += 1
                return rc, json.dumps(doc)
        else:
            def perturb(res):
                rc, out = res
                head, _, rest = out.partition("\n")
                diag = head.split(": ")[1].split(", ")
                diag[0] = str(int(diag[0]) + 1)
                return rc, "diagonal: %s\n%s" % (", ".join(diag), rest)
        _accepts_then_rejects(op, perturb, _wrong_exit)


def test_snf_oracle_matches_known_invariants():
    assert orc.invariant_factors(((2, 4), (6, 8))) == [2, 4]
    assert orc.cokernel_of(orc.Q_VC) == (1, [2, 2])
    assert orc.cokernel_of(orc.ALPHA_GRAM) == (1, [2, 2])
    assert orc.invariant_factors(((1, 2), (2, 4))) == [1, 0]


def test_trace_oracles_reject_wrong_values():
    for as_json in (0, 1):
        torus = wl.torus_op(_rng(), as_json)
        sphere = wl.sphere_op(_rng(), as_json)
        traces = wl.traces_op(_rng(), as_json)
        kappa = wl.kappa_op(_rng(), as_json)
        if as_json:
            def edit(key):
                def change(doc):
                    doc[key] = _bump(doc[key])
                return _json_edit(change)
            _accepts_then_rejects(torus, edit("z"), edit("commutator_trace"), _wrong_exit)
            _accepts_then_rejects(sphere, edit("S"), edit("P"), _wrong_exit)
            _accepts_then_rejects(traces, edit("R"), _wrong_exit)
            _accepts_then_rejects(kappa, edit("value"), _wrong_exit)
        else:
            def bump_line(i):
                def corrupt(res):
                    rc, out = res
                    lines = out.splitlines()
                    head, _, value = lines[i].rpartition(" ")
                    lines[i] = "%s %s" % (head, _bump(value.rstrip(")")))
                    return rc, "\n".join(lines) + "\n"
                return corrupt
            _accepts_then_rejects(torus, bump_line(2), bump_line(3), _wrong_exit)
            _accepts_then_rejects(sphere, bump_line(2), _wrong_exit)
            _accepts_then_rejects(traces, bump_line(3), _wrong_exit)
            _accepts_then_rejects(kappa, bump_line(0), _wrong_exit)


def test_link_oracles_reject_wrong_values():
    h1 = wl.h1_op(_rng(), "alpha", 0)
    _accepts_then_rejects(h1, _text_edit("torsion: 2, 2", "torsion: 2, 4"), _wrong_exit)
    mono = wl.monodromy_op(_rng(), 3, 1)

    def perturb(doc):
        doc["matrix"][1][0] += 1

    _accepts_then_rejects(mono, _json_edit(perturb), _wrong_exit)


def test_oracle_letter_data():
    # central differences recover the generators' constant Jacobians
    assert [orc.letter_sign(n) for n in orc.LETTERS] == [1, 1, -1, 1, 1, 1, -1, -1, -1]
    assert len(orc.stabilizer((0, 0, 0))) == 24
    assert len(orc.stabilizer((1, 2, 3))) == 1
    assert len(orc.stabilizer((1, 1, 1))) == 6


# --- harness ---------------------------------------------------------------------

def test_tail_keeps_its_percentile_and_counts_the_samples_beyond():
    assert tail(list(range(1, 301)), 95.0) == (285, 15)
    assert tail(list(range(1, 301)), 99.0) == (297, 3)
    assert tail(list(range(1, 21)), 95.0) == (19, 1)


def test_speed_adjustment_divides_each_timing_by_its_bracketing_factor(monkeypatch):
    import hostspeed
    import worker
    monkeypatch.setattr(worker, "speed", lambda: 2 * hostspeed.SPEED_NOMINAL_S)
    res = measure("words", 14, 0)
    assert res["speed_factor"] == 2
    assert abs(res["ops_per_s"] / (2 * res["raw_ops_per_s"]) - 1) < 1e-9
    assert abs(res["p50_ms"] * 2 / res["raw_p50_ms"] - 1) < 1e-9


def test_setup_sample_times_the_import_in_a_fresh_interpreter():
    import worker
    seconds, speed_factor = worker.setup_sample()
    assert 0 < seconds < 30 and speed_factor > 0


def test_passes_are_reproducible_from_the_seed():
    template = wl.WORKLOADS["fibers"][0]()
    a = [op.label for op in wl.make_pass("fibers", 7, 0, template)]
    b = [op.label for op in wl.make_pass("fibers", 7, 0, template)]
    c = [op.label for op in wl.make_pass("fibers", 8, 0, template)]
    assert a == b and a != c and len(a) == len(template)


def test_smoke_roundtrip():
    res = measure("roundtrip", 11, 0)
    assert res["passes"] == 1 and res["attempted"] == 30 and res["failed"] == 0


def test_smoke_words_traced_then_restored():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracing.installed_wrappers()
        res = measure("words", 12, 0, tracer)
    finally:
        tracer.restore()
    assert tracing.installed_wrappers() == []
    assert res["failed"] == 0 and res["attempted"] == len(wl.words_template())
    for name in ("cli.run", "parsing", "autgroup.word_to_map", "homology.homology_action",
                 "modular.word_to_pgl", "multipoly.mul"):
        assert tracer.metric(name + ".calls") > 0, name
    assert 0 < tracer.root_s <= res["wall_s"]


def _traced_calls(build_traced):
    template = wl.words_template()
    tracer = tracing.Tracer()
    ops = None if build_traced else wl.make_pass("words", 15, 0, template)
    tracer.install()
    try:
        if build_traced:
            # the words pass derives its map texts with word_to_map
            ops = wl.make_pass("words", 15, 0, template)
            assert not tracer.agg and not tracer.counts
        for i, op in enumerate(ops):
            assert op.check(tracer.run_op(i, op.run)), op.label
    finally:
        tracer.restore()
    return {n: tracer.metric(n + ".calls") for n in
            ("autgroup.word_to_map", "multipoly.mul", "multipoly.substitute", "cli.run")}


def test_traced_counts_exclude_building_a_pass():
    inside = _traced_calls(build_traced=True)
    assert inside == _traced_calls(build_traced=False)
    assert inside["autgroup.word_to_map"] > 0 and inside["cli.run"] > 0


def test_smoke_fibers():
    res = measure("fibers", 13, 0)
    assert res["failed"] == 0 and res["attempted"] == len(wl.fibers_template())
