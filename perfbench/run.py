"""Known-answer benchmark for weakhopf: time to verdict on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload check-qq --seed 1 --seconds 20 --trace 0

It imports ``weakhopf`` from ``./src``, generates the workload's inputs from
the seed, and runs the workload's op list repeatedly, as one closed-loop
client in this single process, until ``--seconds`` have passed (at least one
whole pass).  Every op's answer is checked against one known by construction.
The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; per-op times, output digests and instance
statistics go to ``.perfbench-work/<workload>-s<seed>-t<trace>/result.json``.

Times are reported at a reference host pace: each measured time is scaled by
``PACE_REF_S`` over the time a fixed piece of pure-Python work (``pace_sample``)
took next to it, so that a host that runs this process slower for a while
moves both and their ratio stays.

With ``--trace 1`` the untraced window is followed by one traced set-up and
one traced pass, and the metrics are the per-layer ones (see layertrace.py).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layertrace  # noqa: E402
import workloads   # noqa: E402

# Set-up runs once before the window (the warm-up) and again between passes
# until there are SETUP_REPS timed ones and while set-up time stays under
# SETUP_SHARE of the time spent on passes.
SETUP_REPS = 5
SETUP_SHARE = 0.25
# A nominal pace-sample time: reported times are seconds on a host where
# pace_sample takes this long (it takes 6-9 ms on 2 shared cores, CPython 3.11).
PACE_REF_S = 0.006
PACE_SAMPLES_PER_SIDE = 2


def pace_sample():
    """Time one fixed piece of pure-Python work in the package's style.

    Fraction and mod-p arithmetic on a sparse dict, about 6 ms.  It uses no
    weakhopf code, so a change to the package cannot move it; it moves only
    with the speed the host gives this process.
    """
    t0 = time.perf_counter()
    acc, r = {}, 1
    for i in range(1000):
        key = (i % 13, i % 17)
        term = Fraction(i % 7 + 1, i % 5 + 2) * Fraction(i % 3 + 1, i % 11 + 2)
        acc[key] = acc.get(key, 0) + term
        r = (r * (i | 1) + i) % 10007
    return time.perf_counter() - t0


def fresh_import(src):
    """Import weakhopf (and its CLI) from ``src`` anew, executing every module body."""
    for name in [n for n in sys.modules if n == "weakhopf" or n.startswith("weakhopf.")]:
        del sys.modules[name]
    wh = importlib.import_module("weakhopf")
    importlib.import_module("weakhopf.cli")
    if os.path.dirname(os.path.abspath(wh.__file__)) != os.path.join(src, "weakhopf"):
        raise RuntimeError(f"weakhopf imported from {wh.__file__}, not from {src}")
    return wh


def timed_setup(setup, src, seed, workdir):
    """One set-up (import, seeded inputs, pre-building), paced like an op.

    Returns (wh, plan, record).
    """
    gc.collect()
    paces = [pace_sample() for _ in range(PACE_SAMPLES_PER_SIDE)]
    t0 = time.perf_counter()
    wh = fresh_import(src)
    plan = setup(wh, seed, workdir)
    seconds = time.perf_counter() - t0
    paces += [pace_sample() for _ in range(PACE_SAMPLES_PER_SIDE)]
    return wh, plan, {"seconds": seconds, "pace_s": sum(paces) / len(paces)}


def run_op(op, seen_digests, pace_samples=PACE_SAMPLES_PER_SIDE):
    """Time one op, with pace samples just before and just after it.

    The traced pass takes none: the tracer would count their Fraction work.
    """
    gc.collect()
    paces = [pace_sample() for _ in range(pace_samples)]
    t0 = time.perf_counter()
    try:
        payload = op.run()
        error = None
    except Exception as exc:  # a raising op is a failed op, the run goes on
        payload, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    paces += [pace_sample() for _ in range(pace_samples)]
    text, ok = ("", False) if error else op.judge(payload)
    digest = hashlib.sha256(text.encode()).hexdigest()
    # Reports are deterministic: the same op must print the same bytes every pass.
    if seen_digests.setdefault(op.name, digest) != digest:
        ok, error = False, "output differs from the first pass"
    pace = sum(paces) / len(paces) if paces else None
    return {"op": op.name, "seconds": seconds, "pace_s": pace, "pace_samples_s": paces,
            "sha256": digest, "ok": ok, "error": error}


def run_pass(plan, seen_digests, deadline=None, **kwargs):
    """Run the op list in order; stop early once ``deadline`` has passed."""
    records = []
    for op in plan.ops:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        records.append(run_op(op, seen_digests, **kwargs))
    return records


def pass_wall(records):
    return sum(r["seconds"] for r in records)


def paced_op_times(records):
    """Each op's median time over the passes, at the reference pace.

    Every op time is scaled by PACE_REF_S over the mean of the pace samples
    around it, so a host state that lasts longer than the op cancels; the
    median over passes then drops the times that faster switches hit.
    """
    times = {}
    for r in records:
        times.setdefault(r["op"], []).append(r["seconds"] * PACE_REF_S / r["pace_s"])
    return {op: statistics.median(v) for op, v in times.items()}


def paced_setup(setups):
    """Median set-up time at the reference pace; the first set-up is the warm-up."""
    timed = setups[1:] or setups
    return statistics.median(s["seconds"] * PACE_REF_S / s["pace_s"] for s in timed)


def layer_metrics(tr, error_rate, traced_wall, untraced_wall):
    count, group = tr.count, tr.group_time
    counter = lambda name: tr.counters.get(name, 0)
    prefixed = lambda prefix: sum(s[0] for (q, _), s in tr.spans.items() if q.startswith(prefix))
    mono_calls = count("ore.OreAlgebra.mono_mul")
    values = {
        "fields.fraction_ops": (prefixed("fields.Fraction."), "count"),
        "fields.scalar_s": (tr.self_time("fields"), "s"),
        "fields.prime_ops": (prefixed("fields.PrimeElement."), "count"),
        "linalg.vectors_built": (count("linalg.Vector.__init__"), "count"),
        "linalg.matrix_apply_calls": (count("linalg.Matrix.apply"), "count"),
        "linalg.self_s": (tr.self_time("linalg"), "s"),
        "linalg.elim_calls": (count("linalg._rref"), "count"),
        "linalg.elim_nnz": (counter("linalg.elim_nnz"), "count"),
        "linalg.elim_s": (group["linalg.elim"], "s"),
        "bialgebra.multiply_calls": (count("bialgebra.Algebra.multiply"), "count"),
        "bialgebra.counital_calls": (count(*(f"bialgebra.WeakBialgebra.{m}" for m in (
            "eps_t", "eps_s", "eps_t_prime", "eps_s_prime"))), "count"),
        "bialgebra.sweep_s": (group["bialgebra.sweep"], "s"),
        "bialgebra.self_s": (tr.self_time("bialgebra"), "s"),
        "bialgebra.tensor_mul_calls": (count("bialgebra.Algebra.tensor2_mul",
                                             "bialgebra.Algebra.tensor3_mul"), "count"),
        "bialgebra.tensor3_pairs": (counter("bialgebra.tensor3_pairs"), "count"),
        "report.checks": (count("report.AxiomReport.record"), "count"),
        "report.failed_checks": (counter("report.failed_checks"), "count"),
        "report.self_s": (tr.self_time("report"), "s"),
        "specfile.parse_s": (group["specfile.parse"], "s"),
        "specfile.bytes_read": (counter("specfile.bytes_read"), "bytes"),
        "specfile.emit_s": (group["specfile.emit"], "s"),
        "groupoid.build_s": (group["groupoid.build"], "s"),
        "groupoid.factorization_s": (group["groupoid.factorization"], "s"),
        "grouplike.winding_calls": (count("grouplike.winding"), "count"),
        "grouplike.brute_candidates": (counter("grouplike.brute_candidates"), "count"),
        "grouplike.self_s": (tr.self_time("grouplike"), "s"),
        "coderivations.constraint_rows": (counter("coderivations.constraint_rows"), "count"),
        "coderivations.space_s": (group["coderivations.space"], "s"),
        "panov.decide_s": (group["panov.decide"], "s"),
        "panov.self_s": (tr.self_time("panov"), "s"),
        "ore.mono_mul_calls": (mono_calls, "count"),
        "ore.mono_mul_hit_ratio": (counter("ore.mono_mul_hits") / mono_calls if mono_calls else 0.0,
                                   "ratio"),
        "ore.x_times_calls": (count("ore.OreAlgebra.x_times"), "count"),
        "ore.tensor_mul_calls": (count("ore.OreAlgebra.tensor_mul", "ore.OreAlgebra.tensor3_mul"),
                                 "count"),
        "ore.verify_s": (group["ore.verify"], "s"),
        "ore.self_s": (tr.self_time("ore"), "s"),
        "cli.self_s": (tr.self_time("cli"), "s"),
        "error_rate": (error_rate, "ratio"),
        "trace.overhead_ratio": (traced_wall / untraced_wall, "ratio"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "weakhopf", "__init__.py")):
        print("perfbench: no weakhopf sources in ./src; run from the repository root",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, ".perfbench-work", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    sys.path.insert(0, src)
    setup = workloads.WORKLOADS[args.workload]

    # Set-up (import, seeded input generation and pre-building) runs once
    # before the window, then again between passes, so its samples spread
    # over the whole run.  The passes run the plan of the first set-up.
    wh, plan, first = timed_setup(setup, src, args.seed, workdir)
    setups = [first]
    inputs = workloads.describe(plan)

    seen = {}
    deadline = time.perf_counter() + args.seconds
    passes = [run_pass(plan, seen)]   # the first pass always runs whole
    while time.perf_counter() < deadline:
        if not args.trace and (len(setups) <= SETUP_REPS or
                               sum(s["seconds"] for s in setups) <
                               SETUP_SHARE * sum(map(pass_wall, passes))):
            setups.append(timed_setup(setup, src, args.seed, workdir)[2])
        passes.append(run_pass(plan, seen, deadline))
    passes = [p for p in passes if p]
    records = [r for p in passes for r in p]
    walls = [pass_wall(p) for p in passes if len(p) == len(plan.ops)]
    op_times = paced_op_times(records)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "pace_ref_s": PACE_REF_S, "setups": setups,
              "inputs": inputs, "pass_walls_s": walls, "paced_op_s": op_times,
              "verdict_samples": len(records), "passes": passes}
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install(wh)
        try:
            t0 = time.perf_counter()
            traced_plan = setup(wh, args.seed, workdir)
            result["traced_setup_s"] = time.perf_counter() - t0
            traced = run_pass(traced_plan, seen, pace_samples=0)
        finally:
            tracer.uninstall()
        records += traced
        result |= {"traced_pass": traced, "spans": tracer.table()}
    failed = sum(not r["ok"] for r in records)
    result["error_rate"] = failed / len(records)
    if args.trace:
        metrics = layer_metrics(tracer, result["error_rate"], pass_wall(traced),
                                statistics.median(walls))
    else:
        metrics = {
            "setup_s": {"value": paced_setup(setups), "unit": "s"},
            "wall_s": {"value": sum(op_times.values()), "unit": "s"},
            "verdict_p50_s": {"value": statistics.median(op_times.values()), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    result["metrics"] = metrics
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    for r in records:
        if not r["ok"]:
            print(f"WRONG {r['op']}: {r['error'] or 'unexpected answer'}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(passes)} passes, {len(records)} ops, "
          f"{len(setups)} set-ups, {failed} wrong", file=sys.stderr)
    summary = {"correct": failed == 0, "attempted": len(records), "failed": failed,
               "metrics": metrics}
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
