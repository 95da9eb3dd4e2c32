"""Benchmark of the private counting pipeline.

    python3 perfbench/run.py --workload tri-large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the run cycles
through the workload's pinned cases for at least ``--seconds`` seconds,
finishing the cycle it is in, and reports the end-to-end metrics named in
``BENCHMARK.json``.  Those timings are *normalised* seconds: a host-speed
gauge (``gauge.py``) is taken around every operation and set-up probe, and
the wall time is scaled by how fast the host ran just then.  On a shared
host whose speed drifts by half within seconds this cancels the drift that
raw wall time carries; the raw seconds are printed and recorded as well.

With ``--trace 1`` it runs a fixed prefix of the cases, whatever
``--seconds`` says, three ways (untraced, traced, traced under
tracemalloc) and reports the per-layer metrics: ``self_s`` and the counts
come from the traced pass, ``peak_bytes`` from the tracemalloc pass, whose
counts must equal the traced pass's.  Every operation is
checked (see ``workloads.check_result``), and so is, once and untimed,
no-noise exactness on every workload graph.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
with provenance is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc

import workloads as wl  # pins BLAS threads, then imports ldpcount
import gauge
from tracer import Tracer

import numpy as np

SETUP_PROBES = 7
RESULTS_DIR = wl.BENCH_DIR / "results"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=0, help="orders the pinned cases")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def load_spec() -> dict:
    with open(wl.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class Runner:
    """Runs and checks operations, keeping every failure for the record."""

    def __init__(self, w: wl.Workload, graphs: dict, pins: dict, exact: dict):
        self.w, self.graphs, self.pins, self.exact = w, graphs, pins, exact
        self.attempted = 0
        self.failures: list[dict] = []

    def run(self, case: int) -> float | None:
        """Seconds the operation took, or None when it raised.

        An operation whose output fails the gate still took its time, so
        its seconds are returned; it is counted as failed all the same.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = wl.run_case(self.w, self.graphs, case)
        except Exception:  # any raise, ResourceLimitError included, is a failure
            self.failures.append({"case": case, "error": traceback.format_exc(limit=3)})
            return None
        seconds = time.perf_counter() - t0
        problems = wl.check_result(self.w, case, result, self.pins, self.exact)
        if problems:
            self.failures.append({"case": case, "error": "; ".join(problems)})
        return seconds


def setup_probe(w: wl.Workload) -> tuple[float, float]:
    """Wall seconds from spawning a fresh interpreter until it has imported
    ldpcount and built the workload's graphs, and the gauge the interpreter
    took right after."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(wl.BENCH_DIR / "setup_probe.py"), w.name],
        cwd=wl.ROOT,
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        rest = proc.stdout.read().split()
    if proc.returncode != 0 or line.strip() != "ready" or len(rest) != 1:
        raise RuntimeError(f"setup probe failed with code {proc.returncode}")
    return seconds, float(rest[0])


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10
    return {
        "value": sorted(samples)[rank - 1],
        "percentile": 100.0 * rank / n,
        "samples": n,
    }


def case_median(cases: list[int], samples: list[float]) -> float:
    """Mean over the cases of the median of each case's samples."""
    by_case: dict[int, list[float]] = {}
    for case, x in zip(cases, samples):
        by_case.setdefault(case, []).append(x)
    return statistics.fmean(statistics.median(xs) for xs in by_case.values())


def timed_run(w, runner, seed: int, seconds: float) -> dict:
    """Whole shuffled cycles over the cases until ``seconds`` have passed.

    Finishing the cycle in flight keeps every run's mix of cases the same.
    Set-up probes are spread over the run, so that like the operations they
    sample the machine's slow and fast spells alike; a first probe only
    warms the file cache and is not kept.  Each operation is normalised by
    the gauges taken just before and just after it (see ``gauge``), each
    set-up probe by the gauge its own interpreter took.

    Cases differ in cost (a C7 trial takes 2 s or 3 s, depending on its
    index), so ``estimate_s_p50`` is the median seconds per estimate of
    each case, averaged over the cases: a median over the pooled samples
    would sit on the edge between the cases' clusters.
    """
    order_rng = random.Random(seed)
    setup_probe(w)
    gauges = [gauge.measure()]
    probes: list[float] = []
    probes_raw: list[float] = []
    cases: list[int] = []
    per_estimate: list[float] = []
    per_estimate_raw: list[float] = []
    busy = busy_raw = 0.0
    estimates = 0

    def probe() -> None:
        took, after = setup_probe(w)
        probes_raw.append(took)
        probes.append(gauge.normalised(took, after))

    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        order = list(range(w.cases))
        order_rng.shuffle(order)
        for case in order:
            elapsed = time.perf_counter() - t0
            if len(probes) < SETUP_PROBES and elapsed >= len(probes) * seconds / SETUP_PROBES:
                probe()
                gauges.append(gauge.measure())
            took = runner.run(case)
            if took is None:
                gauges.append(gauge.measure())
                continue
            gauges.append(gauge.after(took))
            norm = gauge.normalised(took, gauges[-2], gauges[-1])
            cases.append(case)
            per_estimate.append(norm / w.samples_per_op)
            per_estimate_raw.append(took / w.samples_per_op)
            busy += norm
            busy_raw += took
            estimates += w.samples_per_op
    while len(probes) < SETUP_PROBES:
        probe()
    if not per_estimate:
        raise RuntimeError(f"every operation raised; first: {runner.failures[0]['error']}")
    return {
        "measured_s": time.perf_counter() - t0,
        "gauge_chunk_s": gauges,
        "cases": cases,
        "per_estimate_s": per_estimate,
        "per_estimate_raw_s": per_estimate_raw,
        "setup_probes_s": probes,
        "setup_probes_raw_s": probes_raw,
        "metrics": {
            "estimate_s_p50": case_median(cases, per_estimate),
            "trials_per_s": estimates / busy,
            "setup_s": statistics.median(probes),
        },
        "raw_metrics": {
            "estimate_s_p50": case_median(cases, per_estimate_raw),
            "trials_per_s": estimates / busy_raw,
            "setup_s": statistics.median(probes_raw),
            "gauge_chunk_s_p50": statistics.median(gauges),
        },
        "estimate_s_tail": tail(per_estimate),
    }


def traced_setup(w) -> None:
    """Graph generation and oracle counts again, so their spans are recorded."""
    wl.exact_counts(w, wl.build_graphs(w))


def traced_run(w, runner) -> dict:
    """Untraced, traced and tracemalloc passes over the fixed trace cases."""
    cases = range(w.trace_cases)
    timing = Tracer()
    with timing.installed():
        traced_setup(w)
    plain_s = traced_s = 0.0
    for case in cases:  # interleaved so drift hits both sides alike
        plain = runner.run(case)
        with timing.installed():
            traced = runner.run(case)
        if plain is not None and traced is not None:
            plain_s += plain
            traced_s += traced
    memory = Tracer(memory=True)
    tracemalloc.start()
    try:
        with memory.installed():
            traced_setup(w)
            for case in cases:
                runner.run(case)
    finally:
        tracemalloc.stop()
    problems = []
    if memory.repeatable() != timing.repeatable():
        diff = sorted(
            k for k, v in timing.repeatable().items() if memory.repeatable()[k] != v
        )
        problems.append(f"counts differ between traced passes: {diff}")
    metrics = timing.metrics()
    for key, stats in memory.spans.items():
        metrics[f"{key}.peak_bytes"] = stats.peak_bytes
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else 0.0
    return {
        "trace_cases": list(cases),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "absent_spans": timing.absent,
        "peak_bytes_from": "second traced pass under tracemalloc",
        "metrics": metrics,
        "problems": problems,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree
    (the ceiling stops git from reporting an enclosing repository)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=wl.ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(wl.ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    """sha256 over the library's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(wl.SRC.rglob("*.py")):
        h.update(str(path.relative_to(wl.SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": seed,
        "protocol_seed": wl.PROTOCOL_SEED,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "loadavg_start": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"workload {args.workload} is not listed in BENCHMARK.json")
    w = wl.WORKLOADS[args.workload]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "notes": {"why": w.why, "stresses": w.stresses, "bypasses": w.bypasses},
    }
    record["provenance"] = provenance(args.seed)

    graphs = wl.build_graphs(w)
    exact = wl.exact_counts(w, graphs)
    problems = wl.no_noise_problems(w, graphs, exact)
    record["no_noise_exact"] = not problems
    runner = Runner(w, graphs, wl.load_pins(), exact)

    if args.trace:
        traced = traced_run(w, runner)
        problems += traced.pop("problems")
        metrics = traced.pop("metrics")
        record["trace_detail"] = traced
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    else:
        timed = timed_run(w, runner, args.seed, args.seconds)
        metrics = timed.pop("metrics")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        record["timed_detail"] = timed
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]

    missing = [n for n, _ in names if n not in metrics]
    if missing:
        raise RuntimeError(f"benchmark did not compute {missing}")
    failed = len(runner.failures)
    record.update(
        attempted=runner.attempted,
        failed=failed,
        fail_frac=failed / runner.attempted,
        failures=runner.failures,
        problems=problems,
    )
    record["provenance"]["loadavg_end"] = list(os.getloadavg())
    result = {
        "correct": failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names},
    }
    record["result"] = result

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for message in problems + [f["error"] for f in runner.failures]:
        print(f"FAIL: {message}")
    for n, u in names:
        print(f"{n:48s} {metrics[n]!r} {u}")
    if not args.trace:
        for n, v in timed["raw_metrics"].items():
            print(f"raw {n:44s} {v!r}")
    if not args.trace and timed["estimate_s_tail"] is not None:
        t = timed["estimate_s_tail"]
        print(f"estimate_s_tail (p{t['percentile']:.1f} of {t['samples']}) {t['value']!r} s")
    print(f"fail_frac {record['fail_frac']!r}; record in {out.relative_to(wl.ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
