#!/usr/bin/env python3
"""The quadfree benchmark: one workload per run, closed loop, one thread.

    python3 perfbench/run.py --workload sep-small --seed 1 --seconds 20 --trace 0

It imports quadfree from the checkout's ``src/`` and nothing else.  One
client in one process sends each op only after the previous one
returned.  BLAS and OpenMP are pinned to one thread before NumPy loads.

A run sets up five times (fresh import of quadfree, instance pool,
warm-up) and reports the median as ``setup_s``.  It then makes whole
passes over the workload's fixed pool, each in an order drawn from
``--seed``, until ``--seconds`` have passed, so every run measures the
same mix.  Timings are scaled to a nominal machine speed (see
``speed.py``); the wall-clock figures are printed beside them.  Outputs
are checked after the timed region.  With
``--trace 1`` the first half of the time is untraced and the second half
traced, and the per-layer metrics are reported instead; the spans are
written to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("sep-small", "sep-large", "loop", "verify")
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
WARMUP_OPS = 2
# Tail percentile per workload: the highest with at least ten solved ops
# beyond it in a default-length run.
TAIL_PERCENTILE = {"sep-small": 99, "sep-large": 80, "loop": 80, "verify": 80}
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "fail_ratio": "ratio",
    "solved_ratio": "ratio",
    "cut_rel_dev_max": "ratio",
    "loop_iters_mean": "count",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_json(path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def set_up(workload):
    """Import, build the pool and its ops, warm up; returns the wall-clock
    and the speed-scaled duration."""
    import instances
    import program
    import speed

    kernel_s = [speed.timed_kernel() for _ in range(8)]
    start = time.perf_counter()
    mods = program.import_program(ROOT, fresh=True)
    pool = instances.build_pool(workload)
    ops = program.make_ops(workload, pool, mods, OUT / "instances" / workload)
    for op in ops[:WARMUP_OPS]:
        op()
    wall = time.perf_counter() - start
    kernel_s += [speed.timed_kernel() for _ in range(8)]
    return wall, wall * speed.NOMINAL_S / statistics.median(kernel_s), mods, pool, ops


def measure(ops, seconds, rng, call, after=None):
    """Whole passes in seeded order until ``seconds`` have passed.  The
    calibration kernel and ``after`` run between ops, outside their timing.

    Returns [(index, latency_s, kernel samples, result)], the wall time and
    the pass count.
    """
    import speed

    records = []
    passes = 0
    start = time.perf_counter()
    while True:
        for i in rng.permutation(len(ops)):
            t0 = time.perf_counter()
            result = call(len(records), int(i))
            latency = time.perf_counter() - t0
            records.append((int(i), latency, speed.sample_after(latency), result))
            if after:
                after()
        passes += 1
        if time.perf_counter() - start >= seconds:
            return records, time.perf_counter() - start, passes


def matching_reference(pool, reference):
    """Reference entries by pool index, for the instances whose fingerprint
    matches (generation uses BLAS, so another CPU may differ in the last bit)."""
    import instances

    return {
        i: entry
        for i, (inst, entry) in enumerate(zip(pool, reference["instances"]))
        if instances.fingerprint(inst) == entry["fingerprint"]
    }


def evaluate_all(workload, pool, refs, records, mods):
    """Score and check every op; also the cut deviations from the
    reference and the instances whose outcome differs from it."""
    import checks
    import program

    doc_types, doc_codes = program.documented(mods["cli"])
    norms = [checks.lifted_norm(inst.Q, inst.b, inst.c) for inst in pool]
    evals, devs, changed = [], [], set()
    for i, _, _, result in records:
        ev = checks.evaluate(workload, pool[i], result, doc_types, doc_codes, i, norms[i])
        evals.append(ev)
        if i not in refs:
            continue
        dev = checks.cut_deviation(ev.cuts, refs[i]["cuts"])
        if dev is not None:
            devs.append(dev)
        if ev.outcome != refs[i]["outcome"]:
            changed.add(pool[i].key)
    return evals, devs, changed


def speed_factors(records):
    """Per op, the factor that scales its latency to the nominal speed."""
    import speed

    return speed.factors([kernel for _, _, kernel, _ in records])


def scaled_latencies(records):
    """Each op's latency at the nominal machine speed."""
    return [lat * f for (_, lat, _, _), f in zip(records, speed_factors(records))]


def quantile(values, q):
    """Harrell–Davis estimate of the q-quantile: a Beta-weighted mean of the
    order statistics, steadier than any single one when the pool's
    latencies cluster with gaps between instances."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(values)
    n = len(x)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ x)


def end_to_end(workload, setups, records, evals, devs, wall, peak_rss_mb):
    """All nine end-to-end values (None where a metric does not apply),
    and notes giving their bases and the wall-clock figures."""
    import numpy as np

    scaled = scaled_latencies(records)
    is_solved = [ev.status == "solved" for ev in evals]
    solved = [lat for lat, ok in zip(scaled, is_solved) if ok]
    solved_wall = [lat for (_, lat, _, _), ok in zip(records, is_solved) if ok]
    n = len(records)
    failed = sum(ev.status == "failed" for ev in evals)
    pct = TAIL_PERCENTILE[workload]

    values = {
        "setup_s": statistics.median(scaled_s for _, scaled_s in setups),
        "ops_per_s": len(solved) / sum(scaled),
        "op_p50_ms": 1e3 * quantile(solved, 0.5) if solved else None,
        "op_tail_ms": 1e3 * quantile(solved, pct / 100) if solved else None,
        "fail_ratio": failed / n,
        "solved_ratio": len(solved) / n,
        "cut_rel_dev_max": max(devs) if devs else None,
        "loop_iters_mean": statistics.fmean(ev.iterations for ev in evals)
        if workload == "loop" else None,
        "peak_rss_mb": peak_rss_mb,
    }
    beyond = len(solved) - int(np.ceil(pct / 100.0 * len(solved)))
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; "
        f"wall-clock {statistics.median(wall_s for wall_s, _ in setups):.4g}",
        "ops_per_s": f"wall-clock {len(solved) / wall:.4g} over {wall:.1f} s",
        "op_p50_ms": f"n={len(solved)} solved ops; wall-clock "
        + (f"{1e3 * quantile(solved_wall, 0.5):.4g}" if solved else "n/a"),
        "op_tail_ms": f"p{pct}, n={len(solved)}, {beyond} beyond"
        + ("" if beyond >= 10 else ", fewer than 10: run longer")
        + (f"; wall-clock {1e3 * quantile(solved_wall, pct / 100):.4g}" if solved else ""),
        "fail_ratio": f"{failed}/{n}",
        "solved_ratio": f"{len(solved)}/{n}",
    }
    return values, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    os.environ.pop("QUADFREE_SEED", None)
    sys.path.insert(0, str(HERE))

    # NumPy, and every module here that imports it, loads only after the
    # pinning above; hence the imports inside functions.
    import numpy as np
    import program
    import tracing

    try:
        gated = load_json(ROOT / "BENCHMARK.json")["end_to_end"]
        reference = load_json(HERE / "reference" / f"{args.workload}.json")
        setups = []
        for _ in range(SETUP_REPEATS):
            wall_s, scaled_s, mods, pool, ops = set_up(args.workload)
            setups.append((wall_s, scaled_s))
    except (BenchError, program.ProgramMissing) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    rng = np.random.default_rng(args.seed)
    phase = args.seconds / 2 if args.trace else args.seconds
    records, wall, passes = measure(ops, phase, rng, lambda _, i: ops[i]())
    # Read before the checks and the statistics load anything more.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = []
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(mods)
        traced, _, t_passes = measure(
            ops, phase, rng, lambda seq, i: tracer.op_span(seq, ops[i]), after=tracer.settle
        )

    everything = records + traced
    refs = matching_reference(pool, reference)
    evals, devs, changed = evaluate_all(args.workload, pool, refs, everything, mods)
    errors = [(pool[i].key, ev.error) for (i, _, _, _), ev in zip(everything, evals) if ev.error]

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} pool={len(pool)} passes={passes}")
    print(f"# closed loop: 1 client, 1 process, 1 thread; nproc={os.cpu_count()}; "
          + " ".join(f"{v}={os.environ[v]}" for v in BLAS_THREAD_VARS))
    if len(refs) < len(pool):
        print(f"# {len(pool) - len(refs)} instance(s) differ from the reference pool; "
              "they are left out of cut_rel_dev_max")
    if changed:
        print(f"# outcome differs from reference for {len(changed)} instance(s): "
              + ", ".join(sorted(changed)[:8]))
    for key, error in errors[:8]:
        print(f"# check failed: {key}: {error}")

    if args.trace:
        overhead = (sum(scaled_latencies(traced)) / t_passes) / (
            sum(scaled_latencies(records)) / passes
        )
        metrics = tracer.metrics(overhead, speed_factors(traced))
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.tsv")
        for name, m in metrics.items():
            print(f"{name:46s} {m['value']:.6g} {m['unit']}")
    else:
        values, notes = end_to_end(
            args.workload, setups, records, evals, devs, wall, peak_rss_mb
        )
        for name, unit in END_TO_END_UNITS.items():
            shown = "n/a" if values[name] is None else f"{values[name]:.6g}"
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{name:16s} {shown} {unit}{note}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in gated}

    print(json.dumps({
        "correct": not errors,
        "attempted": len(evals),
        "failed": sum(ev.status == "failed" for ev in evals),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
