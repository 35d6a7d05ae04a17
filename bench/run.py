"""charcubic benchmark: three seeded workloads through the public API.

    python3 bench/run.py --workload roundtrip|words|fibers|all \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (any directory works; paths are taken from this
file).  Each workload runs in its own fresh interpreter with PYTHONHASHSEED=0,
one after another, as one closed-loop client on one thread.  Every answer is
checked by an oracle in bench/oracles.py that does not use the code path
under test; a wrong answer, an exception or an unexpected exit code counts as
a failure and the run goes on.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, measured with no
wrapper installed.  --trace 1 runs the workload untraced and then traced, and
prints the per-layer metrics: call counts and self time of each layer's
public functions, wrapped from bench/tracing.py, and the tracing overhead as
the ratio of untraced to traced ops_per_s.  The spans go to
.bench_out/spans-<workload>-seed<seed>.jsonl and every run's full record
(machine, commit, input digest, percentiles) to .bench_out/.

All timings are speed-adjusted: on a shared host the machine's speed can
change by up to 1.8x within seconds (seen on a 2-core shared VM with Python
3.11.7), so a small fixed pure-Python kernel that shares no code with
charcubic (bench/hostspeed.py) is timed after every operation and in every
set-up interpreter right after its import, and each timing is scaled to the
kernel's nominal speed by the kernel times next to it.  A change to charcubic moves them as it moves wall time; a
change in machine speed mostly does not.  The raw wall times and the median
speed factor are printed beside them and kept in the record.

setup_s is the median over 31 fresh interpreters, started between
passes of the untraced run, of the time from launch until `import charcubic`
returns, which every CLI call pays.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --workload all runs every workload, one after
another, untraced and then traced, and prints every metric of each, keyed
<workload>.<metric>: one command for a person that runs every oracle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("roundtrip", "words", "fibers")
DEADLINE_S = 170        # one workload run must end within 180 s


def machine_record():
    """nproc, Python, CPU model, 1-minute load and commit, read without
    changing anything."""
    def read(path):
        try:
            return Path(path).read_text()
        except OSError:
            return ""

    model = next((ln.split(":", 1)[1].strip() for ln in read("/proc/cpuinfo").splitlines()
                  if ln.startswith("model name")), "unknown")
    load = read("/proc/loadavg").split()
    head = read(ROOT / ".git" / "HEAD").strip()
    commit = head
    if head.startswith("ref: "):
        ref = head[5:]
        commit = read(ROOT / ".git" / ref).strip() or next(
            (ln.split()[0] for ln in read(ROOT / ".git" / "packed-refs").splitlines()
             if ln.endswith(" " + ref)), "unknown")
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "cpu": model, "load1": float(load[0]) if load else None,
            "commit": commit or "unknown"}


def run_worker(workload, seed, seconds, trace, per_layer, timeout):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--per-layer", ",".join(per_layer),
                "--spans", str(OUT / ("spans-%s-seed%d.jsonl" % (workload, seed)))]
    proc = subprocess.run(cmd, cwd=ROOT, env=dict(os.environ, PYTHONHASHSEED="0"),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("worker for %s exited with %d" % (workload, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(workload, seed, seconds, trace, spec, deadline):
    """({end-to-end metric: value}, {per-layer metric: value} or None, raw
    worker results) for one workload."""
    plain = run_worker(workload, seed, seconds, 0, [], deadline - perf_counter())
    e2e = {m["name"]: plain[m["name"]] for m in spec["end_to_end"]}
    if not trace:
        return e2e, None, [plain]
    names = [m["name"] for m in spec["per_layer"]]
    run_level = ("failed_ratio", "trace.ops_per_s", "trace.untraced_ops_per_s",
                 "trace.overhead_x")
    traced = run_worker(workload, seed, seconds, 1, [n for n in names if n not in run_level],
                        deadline - perf_counter())
    layer = dict(traced["per_layer"])
    layer["failed_ratio"] = (plain["failed"] + traced["failed"]) / (
        plain["attempted"] + traced["attempted"])
    layer["trace.ops_per_s"] = traced["ops_per_s"]
    layer["trace.untraced_ops_per_s"] = plain["ops_per_s"]
    layer["trace.overhead_x"] = plain["ops_per_s"] / traced["ops_per_s"]
    return e2e, {n: layer[n] for n in names}, [plain, traced]


def report(workload, seed, units, e2e, layer, runs, record):
    """Print every metric by name with its unit; write the full record."""
    plain = runs[0]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print("workload %s  seed %d  passes %d x %d ops  input digest %s"
          % (workload, seed, plain["passes"], plain["ops_per_pass"],
             plain["input_digest"][:16]))
    for name, value in list(e2e.items()) + list((layer or {}).items()):
        if name != "failed_ratio":
            print("  %-44s %14.6g %s" % (name, value, units[name]))
    print("  %-44s %14.6g 1   (%d failed of %d)"
          % ("failed_ratio", failed / attempted, failed, attempted))
    print("  tail_ms is p%g, with %d of %d samples beyond it%s"
          % (plain["tail_pct"], plain["tail_beyond"], plain["samples"],
             " (fewer than 10: the run is too short for a steady tail)"
             if plain["tail_beyond"] < 10 else ""))
    print("  speed factor %.4g (kernel time over nominal, median of operations); raw wall"
          " time: ops_per_s %.6g, p50_ms %.6g, tail_ms %.6g, setup_s %.6g"
          % (plain["speed_factor"], plain["raw_ops_per_s"], plain["raw_p50_ms"],
             plain["raw_tail_ms"], plain["raw_setup_s"]))
    if layer:
        print("  tracing overhead: %.4g untraced / %.4g traced ops_per_s = %.3fx"
              % (layer["trace.untraced_ops_per_s"], layer["trace.ops_per_s"],
                 layer["trace.overhead_x"]))
    for run in runs:
        for f in run["failures"]:
            print("  FAILED %s: %s\n    %s" % (f["kind"], f["input"], f["error"].strip()),
                  file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    (OUT / ("%s-seed%d-trace%d.json" % (workload, seed, int(layer is not None)))).write_text(
        json.dumps({"record": record, "end_to_end": e2e, "per_layer": layer, "runs": runs},
                   indent=1))
    print("record " + json.dumps(record))
    return attempted, failed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "charcubic" / "__init__.py").is_file():
        sys.exit("no charcubic sources under %s" % (ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = machine_record()

    attempted = failed = 0
    metrics = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        trace = 1 if args.workload == "all" else args.trace
        deadline = perf_counter() + DEADLINE_S
        e2e, layer, runs = run_one(workload, args.seed, args.seconds, trace, spec, deadline)
        a, f = report(workload, args.seed, units, e2e, layer, runs, record)
        attempted += a
        failed += f
        prefix = workload + "." if args.workload == "all" else ""
        shown = {**e2e, **layer} if args.workload == "all" else (layer if trace else e2e)
        metrics.update({prefix + n: {"value": v, "unit": units[n]} for n, v in shown.items()})
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
