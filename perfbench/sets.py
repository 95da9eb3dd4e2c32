"""Untraced benchmark runs over a range of seeds, summarised per metric.

    python3 perfbench/sets.py --workloads c5 c7 --seeds 101-110 [--seconds 20]
        [--sets 2] [--trace-seed 101] [--out perfbench/BENCH_baseline.json]

Runs ``run.py`` once per seed and workload, one run at a time, and reports
for every end-to-end metric the median, the quartiles and the spread
(``statistics.quantiles(values, n=4)``, q3 - q1 over the median) of each
set.  With ``--sets 2`` the seed range runs twice, set B right after set A,
and the shift of B's median from A's is shown beside the bound from
``BENCHMARK.json``.  With ``--out`` the summary, every value and one
traced run per workload are written there as a baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{out.stdout}")
    record = ROOT / "perfbench" / "results" / f"BENCH_{workload}_seed{seed}_trace{trace}.json"
    return json.loads(record.read_text(encoding="utf-8"))


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", type=seed_range, required=True, help="e.g. 101-110")
    p.add_argument("--seconds", type=float)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--trace-seed", type=int)
    p.add_argument("--out")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    labels = "AB"[: args.sets]
    width = len(args.seeds)
    seeds = {lab: [s + i * width for s in args.seeds] for i, lab in enumerate(labels)}

    doc = {"schema": 2, "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in args.workloads:
        sets = {lab: [run_once(name, s, seconds, 0) for s in seeds[lab]] for lab in labels}
        e2e = {}
        for metric, m in bounds.items():
            row = {"unit": m["unit"], "bound": m["bound"]}
            for lab in labels:
                row[lab] = summary([r["result"]["metrics"][metric]["value"] for r in sets[lab]])
            e2e[metric] = row
            line = "  ".join(
                f"{lab}: {row[lab]['median']:.4g} ({row[lab]['iqr_over_median']:.3f})"
                for lab in labels
            )
            if args.sets == 2:
                a, b = row["A"]["median"], row["B"]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                line += f"  B worse by {worse:+.3f} (bound {m['bound']})"
            print(f"{name:10s} {metric:16s} {line}", flush=True)
        raw = {
            lab: {k: summary([r["timed_detail"]["raw_metrics"][k] for r in sets[lab]])
                  for k in sets[lab][0]["timed_detail"]["raw_metrics"]}
            for lab in labels
        }
        for lab in labels:
            print(f"{name:10s} raw {lab}: " + "  ".join(
                f"{k} {v['median']:.4g} ({v['iqr_over_median']:.3f})" for k, v in raw[lab].items()
            ), flush=True)
        entry = {"end_to_end": e2e, "raw_seconds": raw,
                 "provenance": sets[labels[0]][0]["provenance"]}
        if args.trace_seed is not None:
            traced = run_once(name, args.trace_seed, seconds, 1)
            entry["traced"] = traced["result"]["metrics"]
            entry["absent_spans"] = traced["trace_detail"]["absent_spans"]
        doc["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
