#!/usr/bin/env python3
"""Record the reference the benchmark compares against.

    python3 perfbench/record_reference.py [workload ...]

Runs every pool instance once with the checkout's quadfree and writes
``perfbench/reference/<workload>.json``: per instance its fingerprint,
signature, canonical case, outcome (a cut, an exit code or an exception
name) and normalised cuts.  Then rewrites ``perfbench/manifest.json``,
which summarises each workload's signature, case and outcome mix next
to the layer table and the thread settings.  Run it only on the commit
whose behaviour is the baseline.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

import run


def case_of(mods, inst) -> str:
    spectral = mods["spectral"]
    qc = spectral.QuadraticConstraint(Q=inst.Q, b=inst.b, c=inst.c, point=inst.point)
    try:
        return spectral.canonicalize(qc).case
    except Exception as exc:  # recorded as the instance's case
        return f"raise:{type(exc).__name__}"


def record(workload: str) -> dict:
    import checks
    import instances
    import program

    mods = program.import_program(run.ROOT)
    pool = instances.build_pool(workload)
    ops = program.make_ops(workload, pool, mods, run.OUT / "instances" / workload)
    doc_types, doc_codes = program.documented(mods["cli"])
    entries = []
    for i, (inst, op) in enumerate(zip(pool, ops)):
        ev = checks.evaluate(workload, inst, op(), doc_types, doc_codes, i)
        if ev.error:
            print(f"{inst.key}: check failed: {ev.error}", file=sys.stderr)
        entries.append({
            "key": inst.key,
            "fingerprint": instances.fingerprint(inst),
            "signature": list(inst.signature),
            "p": inst.dim,
            "point": inst.point_kind,
            "case": case_of(mods, inst),
            "outcome": ev.outcome,
            "status": ev.status,
            "iterations": ev.iterations,
            "cuts": [[float(x) for x in v] for v in ev.cuts],
        })
    return {"workload": workload, "pool_seed": instances.POOL_SEED, "instances": entries}


def summary(reference: dict) -> dict:
    entries = reference["instances"]
    return {
        "pool_size": len(entries),
        "p_range": [min(e["p"] for e in entries), max(e["p"] for e in entries)],
        "signatures": [e["signature"] for e in entries],
        "with_l_zero": sum(e["signature"][2] == 0 for e in entries),
        "with_l_positive": sum(e["signature"][2] > 0 for e in entries),
        "case_mix": dict(sorted(Counter(e["case"] for e in entries).items())),
        "outcome_mix": dict(sorted(Counter(e["outcome"] for e in entries).items())),
        "status_mix": dict(sorted(Counter(e["status"] for e in entries).items())),
    }


def main(argv) -> int:
    for name in run.BLAS_THREAD_VARS:
        os.environ[name] = "1"
    os.environ.pop("QUADFREE_SEED", None)
    import tracing

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    for workload in argv or run.WORKLOADS:
        ref = record(workload)
        path = run.HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
        print(f"{path.name}: {summary(ref)['status_mix']}")

    manifest = {
        "load": "closed loop: 1 client, 1 process, 1 thread; each op starts when the previous returns",
        "nproc": os.cpu_count(),
        "blas_threads": {name: "1" for name in run.BLAS_THREAD_VARS},
        "run": "whole passes over a fixed pool in an order drawn from --seed, until --seconds have passed",
        "timings": "scaled to the speed at which speed.kernel takes 1 ms; wall-clock printed beside",
        "workloads": {},
        "per_layer": {
            name: {"unit": unit, "moves": moves} for name, (unit, moves) in tracing.PER_LAYER.items()
        },
    }
    for workload in run.WORKLOADS:
        ref = json.loads((run.HERE / "reference" / f"{workload}.json").read_text(encoding="utf-8"))
        manifest["workloads"][workload] = {
            "why": why.get(workload, ""),
            "op_tail_percentile": run.TAIL_PERCENTILE[workload],
            **summary(ref),
        }
    (run.HERE / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
