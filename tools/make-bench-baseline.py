#!/usr/bin/env python3
"""Regenerate bench/BENCH_baseline.json from a directory of BENCH_*.json.

Usage:
    tools/make-bench-baseline.py DIR [-o bench/BENCH_baseline.json]

Run the bench binaries with HELIX_BENCH_JSON_DIR=DIR first (see the
README's Observability section), then point this script at DIR. Every
series found is pinned with a (direction, gate, tolerance_pct) chosen by
the policy table below:

  - deterministic simulated-cycle series (fig9/fig10/... geomeans, loop
    counts, signal-latency model constants) gate *hard* with a tight
    tolerance — they only move when behavior changes;
  - wall-clock times gate *warn* with generous tolerance — CI runners
    are noisy;
  - thread-scaling rows (BM_ModelProfileStageThreads) gate *warn*: the
    recorded machine's core count is in the baseline meta, and a 1-core
    CI runner cannot reproduce multicore scaling.

The policy is first-match-wins over (bench, series) regexes.
"""

import argparse
import glob
import json
import os
import re
import sys

# (bench_regex, series_regex, direction, gate, tolerance_pct)
POLICY = [
    # Exact machine-model constants: any drift is a model change.
    (r"signal_latency", r".*", "lower", "hard", 1),
    # Deterministic simulated-cycle speedup geomeans and loop counts.
    (r"fig9_speedups", r".*", "higher", "hard", 5),
    (r"fig10_ablation", r"geomean_HELIX", "higher", "hard", 5),
    (r"fig10_ablation", r".*", "higher", "warn", 10),
    (r"fig11_time_breakdown", r"mean_parallel_pct_H", "higher", "hard", 5),
    (r"fig11_time_breakdown", r".*", "higher", "warn", 15),
    (r"fig12_latency_misestimate", r"geomean_helix", "higher", "hard", 5),
    (r"fig12_latency_misestimate", r".*", "higher", "warn", 10),
    (r"fig13_nesting_levels", r".*", "higher", "warn", 25),
    (r"table1_loop_characteristics", r"loops_.*|loop_.*", "higher", "hard", 5),
    # Dependence precision (deterministic static counts): carried deps and
    # sequential segments must only shrink, range-pruned pairs must only
    # grow — a silent precision regression fails the gate.
    (r"table1_loop_characteristics", r"dep_loop_carried|dep_segments|dep_alias_pairs",
     "lower", "hard", 5),
    (r"table1_loop_characteristics", r"dep_pruned_by_range", "higher", "hard", 5),
    (r"table1_loop_characteristics", r".*", "higher", "warn", 15),
    (r"doacross_baseline", r"geomean_helix", "higher", "hard", 5),
    (r"doacross_baseline", r".*", "higher", "warn", 15),
    (r"data_transfer_fraction", r".*", "lower", "warn", 10),
    (r"model_validation", r"worst_error_pct", "lower", "hard", 25),
    # Compiler microbenchmarks. Deterministic work counters gate hard;
    # the single-thread dispatch-throughput acceptance gate is hard with
    # a generous band (different CI silicon, same order of magnitude);
    # wall-clock and thread-scaling rows only warn.
    (r"pass_performance", r"BM_AnalysisPreservation_0_dom_built",
     "lower", "hard", 10),
    (r"pass_performance", r".*_instrs$", "higher", "hard", 5),
    (r"pass_performance", r"BM_ExecEngineVsTreeWalk_1_items_per_second",
     "higher", "hard", 60),
    (r"pass_performance", r".*_items_per_second", "higher", "warn", 60),
    (r"pass_performance", r"BM_ModelProfileStageThreads_.*",
     "lower", "warn", 100),
    (r"pass_performance", r".*_time$", "lower", "warn", 75),
    (r"pass_performance", r".*", "higher", "warn", 50),
    # Anything new defaults to a warn gate until someone pins it.
    (r".*", r".*", "higher", "warn", 25),
]


def classify(bench, series):
    for bench_re, series_re, direction, gate, tol in POLICY:
        if re.fullmatch(bench_re, bench) and re.fullmatch(series_re, series):
            return direction, gate, tol
    raise AssertionError("POLICY must end with a catch-all")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("dir", help="directory holding BENCH_*.json")
    ap.add_argument("-o", "--output", default="bench/BENCH_baseline.json")
    args = ap.parse_args()

    paths = sorted(glob.glob(os.path.join(args.dir, "BENCH_*.json")))
    paths = [p for p in paths if not p.endswith("BENCH_baseline.json")]
    if not paths:
        sys.exit(f"no BENCH_*.json under {args.dir}")

    meta = {}
    series = []
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        bench = doc["bench"]
        # The newest document's machine metadata wins; good enough — the
        # baseline is refreshed from one machine in one sitting.
        meta = doc.get("meta", meta) or meta
        for s in doc.get("series", []):
            direction, gate, tol = classify(bench, s["name"])
            series.append({
                "bench": bench,
                "name": s["name"],
                "value": s["value"],
                "unit": s.get("unit", ""),
                "direction": direction,
                "gate": gate,
                "tolerance_pct": tol,
            })

    if any(s["bench"] == "pass_performance" and
           s["name"].startswith("BM_ModelProfileStageThreads") for s in series):
        meta = dict(meta)
        meta["scaling_note"] = (
            f"BM_ModelProfileStageThreads rows recorded on a "
            f"cores={meta.get('cores', '?')} machine; the near-linear "
            f"model-profile scaling claim needs a refresh on real "
            f"multicore hardware (ROADMAP item 5)")
    baseline = {"schema": 1, "meta": meta, "series": series}
    with open(args.output, "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")
    hard = sum(1 for s in series if s["gate"] == "hard")
    print(f"{args.output}: {len(series)} series from {len(paths)} benches "
          f"({hard} hard-gated)")


if __name__ == "__main__":
    main()
