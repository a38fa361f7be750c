#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at its smallest size.

    python3 e2ebench/selftest.py

Run from the root of a checkout. Builds through run.py. Then, for each
workload, with --smoke and 2-second runs, it checks that:
  * an untraced run prints exactly the end-to-end metrics of BENCHMARK.json
    and a traced run exactly the per-layer ones, each with its unit, and
    that end-to-end values are above 0;
  * failed is 0, so failed_ratio is 0;
  * design.json describes exactly the per-layer metrics of BENCHMARK.json;
  * the traced layer table accounts for the op wall time within 1% (true by
    construction: each op's root span wraps the op), the layer spans below
    the root account for at least 90% of it, and the bypass counters read
    as design.json predicts;
  * a run with --corrupt-reference fails, with MISMATCH lines that name the
    op, the property and the context, so the oracle really compares.
Exits 1 if any check fails.
"""

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["analyze_row", "analyze_columnar", "monitor_refresh"]

failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "2", "--trace", str(trace), "--smoke",
           *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(done.stdout[-2000:], done.stderr[-2000:], sep="\n")
        raise SystemExit(f"run failed ({done.returncode}): {' '.join(cmd)}")
    return json.loads(lines[-1]), done.stdout


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    design = json.loads((HERE / "design.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}

    check({m["name"] for m in design["per_layer"]} == set(layer_units),
          "design.json per_layer names == BENCHMARK.json per_layer names")
    check(set(design["end_to_end"]) == set(e2e_units),
          "design.json end_to_end names == BENCHMARK.json end_to_end names")
    check([w["name"] for w in bench["workloads"]] == WORKLOADS,
          "BENCHMARK.json workloads are " + ", ".join(WORKLOADS))

    traced = {}
    for workload in WORKLOADS:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            result, _ = run(workload, trace)
            metrics = result["metrics"]
            got = {name: m["unit"] for name, m in metrics.items()}
            check(got == units,
                  f"{workload} trace={trace}: metric names and units match")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{workload} trace={trace}: failed_ratio 0 "
                  f"(0 of {result['attempted']})")
            if trace == 0:
                check(all(m["value"] > 0 for m in metrics.values()),
                      f"{workload}: every end-to-end value above 0")
            else:
                traced[workload] = {k: m["value"] for k, m in metrics.items()}
                coverage = metrics["trace.self_time_coverage"]["value"]
                check(abs(coverage - 1) <= 0.01,
                      f"{workload}: span self-times sum to op wall time "
                      f"within 1% ({coverage:.4f})")
                unattributed = metrics["trace.unattributed_ratio"]["value"]
                check(unattributed <= 0.1,
                      f"{workload}: layer spans below the op's root cover "
                      f"at least 90% of its wall time ({unattributed:.4f} "
                      "unattributed)")

        corrupt, text = run(workload, 0, "--corrupt-reference")
        named = [l for l in text.splitlines() if l.startswith("MISMATCH")
                 and " @ " in l]
        check(not corrupt["correct"] and corrupt["failed"] > 0 and named,
              f"{workload}: corrupted reference is caught "
              f"({corrupt['failed']} failed; {named[0] if named else '-'})")

    row, col = traced["analyze_row"], traced["analyze_columnar"]
    for name in ("db.columnar_scans", "db.fused_ratio",
                 "db.partition_union_rewrites"):
        check(row[name] == 0, f"analyze_row bypass: {name} == 0")
    check(col["db.partition_union_rewrites"] > 0,
          "analyze_columnar: db.partition_union_rewrites > 0")

    print(f"\n{len(failures)} check(s) failed" if failures else "\nall passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
