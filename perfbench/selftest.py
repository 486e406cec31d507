#!/usr/bin/env python3
"""Self-test of the benchmark (about two minutes).

    python3 perfbench/selftest.py

* Runs every workload at minimal length, untraced and traced, and
  confirms that each named metric is printed with its unit and that the
  last line is the result object.
* Confirms that deliberately corrupted cuts, from ``separate`` and from
  the ``loop`` output, are caught by the output checks.
* Confirms that a directory holding only ``BENCHMARK.json`` and the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import run

FAILURES = []


def expect(ok: bool, what: str):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def run_bench(root, workload, trace):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )


def check_metrics_printed(bench):
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in run.WORKLOADS:
        for trace, wanted in ((0, units), (1, layer_units)):
            proc = run_bench(run.ROOT, workload, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                expect(False, f"{workload} trace={trace} runs ({proc.stderr.strip()[-200:]})")
                continue
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload} trace={trace}: result keys")
            expect(result["correct"] and result["attempted"] >= 1,
                   f"{workload} trace={trace}: outputs correct")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted, f"{workload} trace={trace}: every metric with its unit")
            if trace == 0:
                table = "\n".join(lines[:-1])
                missing = [
                    name for name, unit in run.END_TO_END_UNITS.items()
                    if not re.search(rf"^{name}\s+\S+ {re.escape(unit)}\b", table, re.M)
                ]
                expect(not missing, f"{workload}: all nine end-to-end metrics printed {missing or ''}")


def check_corruption_caught():
    import checks
    import instances
    import program

    mods = program.import_program(run.ROOT)
    pool = instances.build_pool("sep-small")[:24]
    ops = program.make_ops("sep-small", pool, mods, run.OUT / "selftest")
    flipped = deepened = honest = total = 0
    for i, (inst, op) in enumerate(zip(pool, ops)):
        result = op()
        if result[0] != "cut":
            continue
        _, coef, rhs = result
        total += 1
        args = (inst.Q, inst.b, inst.c, inst.point, inst.rays)
        honest += checks.cut_error(*args, coef, rhs, [i]) is None
        flipped += checks.cut_error(*args, -coef, -rhs, [i]) is not None
        # Move the hyperplane 20 times as far from the apex along every ray.
        excess = float(coef @ inst.point - rhs)
        deepened += checks.cut_error(*args, coef, rhs - 19.0 * excess, [i]) is not None
    expect(honest == total, f"honest cuts pass ({honest}/{total})")
    expect(flipped == total, f"flipped cuts caught by the apex check ({flipped}/{total})")
    expect(deepened > 0, f"deepened cuts caught by the simplex check ({deepened}/{total})")

    loop_pool = instances.build_pool("loop")
    loop_ops = program.make_ops("loop", loop_pool, mods, run.OUT / "selftest")
    doc_types, doc_codes = program.documented(mods["cli"])
    for i, (inst, op) in enumerate(zip(loop_pool, loop_ops)):
        kind, code, text = op()
        if code != 0 or '"cut"' not in text:
            continue
        honest = checks.evaluate_loop(inst, (kind, code, text), doc_types, doc_codes, i)
        lines = text.splitlines()
        rec = json.loads(lines[1])
        excess = float(sum(a * b for a, b in zip(rec["cut"]["coef"], rec["vertex"])) - rec["cut"]["rhs"])
        rec["cut"]["rhs"] -= 19.0 * excess
        lines[1] = json.dumps(rec)
        bad = checks.evaluate_loop(inst, (kind, code, "\n".join(lines)), doc_types, doc_codes, i)
        expect(honest.error is None, f"honest loop {inst.key} passes")
        expect(bad.error is not None, f"corrupted loop cut in {inst.key} caught: {bad.error}")
        break


def check_no_program_fails():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "sep-small", 0)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without the program: exit {proc.returncode}, no result printed")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_corruption_caught()
    check_no_program_fails()
    check_metrics_printed(bench)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
