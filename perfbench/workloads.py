"""Workload table, operations and the correctness gate of the benchmark.

Every workload runs a pinned set of *cases* against a fixed input: the
graph comes from the workload seed (``PROTOCOL_SEED``) exactly as the CLI
builds it at its default ``--seed``, and the protocol runs under that same
master seed.  A case is one trial index (estimate workloads) or one
experiment seed (``tri-mc``).  Because the cases never change, the spread
between runs is the machine's, not the input's, and every report can be
checked against a digest pinned in ``pins.json``.  The benchmark's
``--seed`` only permutes the order in which a run visits the cases.

The library is reached only through the public functions of its modules,
looked up at call time so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

# One process, no extra threads: pin the BLAS pool before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS_PATH = BENCH_DIR / "pins.json"

if not (SRC / "ldpcount" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no ldpcount sources under {SRC}")
sys.path.insert(0, str(SRC))

import ldpcount  # noqa: E402
from ldpcount import cycles, experiments, mechanisms, oracles, triangles  # noqa: E402

if Path(ldpcount.__file__).resolve().parent != SRC / "ldpcount":
    raise SystemExit(f"perfbench: imported ldpcount from {ldpcount.__file__}, not {SRC}")

PROTOCOL_SEED = 0
BUDGET = mechanisms.PrivacyBudget(eps0=0.5, eps1=1.0, eps2=1.0, zeta=0.05)
MC_TRIALS = 10


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``cases`` is the pinned set a run cycles through; ``trace_cases`` is the
    fixed prefix a traced run executes, so its counts repeat exactly.
    ``task`` is ``triangles`` or ``cycles`` for one estimate per operation,
    or ``trials`` for one ``run_trials`` call of ``MC_TRIALS`` estimates.
    """

    name: str
    task: str
    gen: str
    k: int | None
    cases: int
    trace_cases: int
    why: str
    stresses: str
    bypasses: str

    @property
    def samples_per_op(self) -> int:
        return MC_TRIALS if self.task == "trials" else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="tri-large",
            task="triangles",
            gen="ba:6400:3",
            k=None,
            cases=4,
            trace_cases=2,
            why=(
                "estimate_triangles on ba:6400:3, one estimate per operation. "
                "Most of the work is in the dense n^2 server layers "
                "(assemble_obfuscated, the unbiased matrix: 9*n^2 bytes) and in "
                "3n substreams per estimate. This is where ROADMAP items 2 and 3 "
                "should show."
            ),
            stresses="mechanisms.assemble_obfuscated, mechanisms.unbiased, mechanisms.substream",
            bypasses="cycles.*, experiments.run_trials",
        ),
        Workload(
            name="tri-mc",
            task="trials",
            gen="ba:400:3",
            k=None,
            cases=4,
            trace_cases=2,
            why=(
                f"run_trials for triangles on ba:400:3, {MC_TRIALS} trials per call. "
                "The matrices are tiny (1.4 MB), so per-trial fixed costs dominate: "
                "generator construction, scalar Laplace draws, relabel, and "
                "per-user Python loops. A memory-only change should not move this "
                "workload, while a per-user vectorization should."
            ),
            stresses="mechanisms.substream, mechanisms.sample_laplace, graphs.relabel, experiments.run_trials",
            bypasses="cycles.*, the dense n^2 memory at scale",
        ),
        Workload(
            name="c5",
            task="cycles",
            gen="ba:200:3",
            k=5,
            cases=4,
            trace_cases=3,
            why=(
                "estimate_odd_cycles with k=5 on ba:200:3. This is the vectorized "
                "k=5 grid route in cycles."
            ),
            stresses="cycles.user_cycle_estimate (k=5 grid route)",
            bypasses="triangles.user_triangle_estimate, the k>=7 DFS route",
        ),
        Workload(
            name="c7",
            task="cycles",
            gen="er:20:0.2",
            k=7,
            cases=2,
            trace_cases=1,
            why=(
                "estimate_odd_cycles with k=7 on er:20:0.2. This is the Python DFS "
                "route. It is a separate code path from C5, and it is what ROADMAP "
                "item 4 targets, so without this workload that route goes "
                "unmeasured."
            ),
            stresses="cycles.user_cycle_estimate (k>=7 DFS route)",
            bypasses="triangles.user_triangle_estimate, the k=5 grid route, dense memory at scale",
        ),
    )
}


def build_graphs(w: Workload) -> dict:
    """The graphs a workload reads, keyed by the master seed they belong to,
    each built the way the CLI and ``run_trials`` build it from that seed."""
    seeds = range(w.cases) if w.task == "trials" else (PROTOCOL_SEED,)
    return {
        s: experiments.make_graph(w.gen, mechanisms.derive_seed(s, "graph"))
        for s in seeds
    }


def run_case(w: Workload, graphs: dict, case: int):
    """One operation: a noisy estimate, or one ``run_trials`` call."""
    if w.task == "trials":
        config = experiments.ExperimentConfig(
            task="triangles",
            trials=MC_TRIALS,
            seed=case,
            gen=w.gen,
            budget=BUDGET,
            threads=1,
        )
        return experiments.run_trials(config)
    graph = graphs[PROTOCOL_SEED]
    if w.task == "triangles":
        return triangles.estimate_triangles(
            graph, BUDGET, PROTOCOL_SEED, "noisy", trial=case
        )
    return cycles.estimate_odd_cycles(
        graph, w.k, BUDGET, PROTOCOL_SEED, "noisy", trial=case
    )


def digest(result) -> str:
    """sha256 of the result's sorted-key JSON document."""
    text = json.dumps(result.to_json_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_result(w: Workload, case: int, result, pins: dict, exact: dict) -> list[str]:
    """Reasons the operation's output is wrong; empty when it passes.

    Estimates must be finite and equal the sum of their per-user parts;
    summaries must be finite and carry the oracle's exact count.  Every
    result must match the digest pinned for its case.
    """
    problems = []
    if w.task == "trials":
        doc = result.to_json_dict()
        bad = [key for key, v in doc.items() if isinstance(v, float) and not math.isfinite(v)]
        if bad:
            problems.append(f"non-finite summary fields {bad}")
        if result.exact != exact[case]:
            problems.append(f"summary exact {result.exact} != oracle {exact[case]}")
    else:
        if not math.isfinite(result.estimate):
            problems.append(f"non-finite estimate {result.estimate}")
        total = math.fsum(result.per_user)
        scale = max(1.0, math.fsum(abs(x) for x in result.per_user))
        if not abs(result.estimate - total) <= 1e-9 * scale:
            problems.append(f"estimate {result.estimate} != sum(per_user) {total}")
    pinned = pins[w.name][case]
    got = digest(result)
    if got != pinned:
        problems.append(f"digest {got} != pinned {pinned}")
    return problems


def exact_counts(w: Workload, graphs: dict) -> dict:
    """Oracle counts per graph seed, for the gate and the exactness check."""
    if w.k is None:
        return {s: oracles.count_triangles(g) for s, g in graphs.items()}
    return {s: oracles.count_cycles(g, w.k) for s, g in graphs.items()}


def no_noise_problems(w: Workload, graphs: dict, exact: dict) -> list[str]:
    """Untimed check: the no-noise estimate equals the exact count on each graph."""
    problems = []
    for s, g in graphs.items():
        if w.k is None:
            report = triangles.estimate_triangles(g, None, s, "no-noise")
        else:
            report = cycles.estimate_odd_cycles(g, w.k, None, s, "no-noise")
        if report.estimate != exact[s]:
            problems.append(
                f"graph seed {s}: no-noise estimate {report.estimate} != exact {exact[s]}"
            )
    return problems
