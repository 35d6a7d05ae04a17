"""Run one workload in this interpreter and print its result as one JSON line.

Started by run.py in a fresh interpreter per workload; not meant to be run by
hand.  One closed-loop client on one thread: each operation starts when the
previous one has been checked.  Whole passes of the workload's template run
until the operations' own time reaches --seconds, so every run covers the
template's mix exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
from hostspeed import factor, speed  # noqa: E402
from workloads import WORKLOADS, make_pass  # noqa: E402

SETUP_REPS = 31


def tail(samples, pct):
    """(value, samples beyond) at the percentile `pct`, by nearest rank.  The
    percentile is fixed per workload so that runs compare like with like; a
    run with fewer than ten samples beyond it says so in its record."""
    xs = sorted(samples)
    k = max(1, math.ceil(pct / 100 * len(xs)))
    return xs[k - 1], len(xs) - k


def median(xs):
    xs = sorted(xs)
    n = len(xs)
    return (xs[(n - 1) // 2] + xs[n // 2]) / 2


# The child reads the clock itself as soon as the import returns (the clock
# is system-wide), so neither interpreter exit nor the way this process waits
# enters the figure; it then times the speed kernel in the same process
# moments later for the sample's speed factor.
SETUP_CHILD = """\
import charcubic
from time import perf_counter
done = perf_counter()
import sys
sys.path.insert(0, %r)
from hostspeed import speed
print(repr(done), repr(sorted(speed() for _ in range(3))[1]))
"""


def setup_sample():
    """(seconds, speed factor) from launching a fresh interpreter until
    `import charcubic` returns: what every CLI call pays before doing any
    work."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    t0 = perf_counter()
    out = subprocess.run([sys.executable, "-c", SETUP_CHILD % str(BENCH)], cwd=ROOT,
                         env=env, check=True, capture_output=True, text=True,
                         timeout=60).stdout.split()
    return float(out[0]) - t0, factor(float(out[1]))


def measure(name, seed, seconds, tracer=None, setup_reps=0):
    """Run whole passes until the operations' own time reaches `seconds`.
    Between passes, and outside every operation's timing, take up to
    `setup_reps` set-up samples, so they spread over the run."""
    template = WORKLOADS[name][0]()
    digest = hashlib.sha256()
    latencies = []      # raw seconds
    adjusted = []       # seconds at the speed kernel's nominal speed
    factors = []
    failures = []
    op_kinds = {}
    by_shape = defaultdict(float)
    setups = []         # (raw seconds, factor)
    attempted = failed = passes = 0
    busy = 0.0
    t_start = perf_counter()
    stride = 1
    while passes == 0 or busy < seconds:
        if len(setups) < setup_reps and passes % stride == 0:
            setups.append(setup_sample())
        ops = make_pass(name, seed, passes, template)
        for op in ops:
            digest.update(op.label.encode() + b"\n")
        # each operation is scaled by the kernel runs just before and after it
        before = speed()
        for op in ops:
            op_id = attempted
            attempted += 1
            op_kinds[op_id] = op.kind
            error = result = None
            t0 = perf_counter()
            try:
                result = tracer.run_op(op_id, op.run) if tracer else op.run()
            except Exception:  # an op that raises is a failure, not the end of the run
                error = traceback.format_exc(limit=2)
            dt = perf_counter() - t0
            after = speed()
            factors.append(factor(before, after))
            before = after
            busy += dt
            latencies.append(dt)
            adjusted.append(dt / factors[-1])
            if op.tags:
                by_shape["roundtrip.len%d.%s.s" % (op.tags["length"], op.tags["pkind"])] += dt
            if error is None:
                try:
                    ok = bool(op.check(result))
                except Exception:
                    ok, error = False, traceback.format_exc(limit=2)
            else:
                ok = False
            if not ok:
                failed += 1
                if len(failures) < 5:
                    failures.append({"kind": op.kind, "input": op.label[:300],
                                     "error": error or "wrong answer"})
        passes += 1
        if passes == 1:
            stride = max(1, int(seconds / busy) // max(1, setup_reps))
    wall = perf_counter() - t_start
    while len(setups) < setup_reps:
        setups.append(setup_sample())
    pct = WORKLOADS[name][2]
    value, beyond = tail(adjusted, pct)
    return {
        "workload": name, "seed": seed, "passes": passes, "ops_per_pass": len(template),
        "attempted": attempted, "failed": failed, "failures": failures,
        "input_digest": digest.hexdigest(), "busy_s": busy, "wall_s": wall,
        "ops_per_s": (attempted - failed) / sum(adjusted),
        "p50_ms": median(adjusted) * 1000,
        "tail_ms": value * 1000, "tail_pct": pct, "tail_beyond": beyond,
        "samples": len(latencies), "speed_factor": median(factors),
        "raw_ops_per_s": (attempted - failed) / busy,
        "raw_p50_ms": median(latencies) * 1000,
        "raw_tail_ms": tail(latencies, pct)[0] * 1000,
        "setup_s": median([dt / f for dt, f in setups]) if setups else None,
        "raw_setup_s": median([dt for dt, _ in setups]) if setups else None,
        "setup_samples": setups,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "by_shape": dict(by_shape), "op_kinds": op_kinds,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--per-layer", default="", help="comma-separated per-layer metric names")
    ap.add_argument("--spans", default=None, help="file for the traced run's spans")
    args = ap.parse_args(argv)

    left = tracing.installed_wrappers()
    if left:
        raise RuntimeError("benchmark wrappers installed before the run: %s" % left)
    if not args.trace:
        res = measure(args.workload, args.seed, args.seconds, setup_reps=SETUP_REPS)
        if tracing.installed_wrappers():
            raise RuntimeError("a wrapper appeared during the untraced run")
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            res = measure(args.workload, args.seed, args.seconds, tracer)
        finally:
            tracer.restore()
        layer = {n: tracer.metric(n) for n in args.per_layer.split(",") if n}
        layer.update({k: v for k, v in res["by_shape"].items() if k in layer})
        layer["trace.wall_s"] = res["wall_s"]
        layer["trace.spanned_s"] = tracer.root_s
        layer["bench.unspanned_s"] = res["wall_s"] - tracer.root_s
        layer["trace.spans_dropped"] = tracer.dropped
        res["per_layer"] = layer
        if args.spans:
            tracer.write_spans(args.spans, res["op_kinds"])
    del res["op_kinds"]
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
