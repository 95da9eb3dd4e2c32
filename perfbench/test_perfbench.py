"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench

The traced-run test executes every workload's traced run twice (about two
minutes on a 2-core machine).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gauge  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import COUNT_KEYS, Tracer  # noqa: E402

import ldpcount  # noqa: E402
from ldpcount import mechanisms, triangles  # noqa: E402

BUDGET = wl.BUDGET


def traced_metrics(capsys, name: str) -> dict:
    assert run.main(["--workload", name, "--seconds", "1", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_counts_repeat_exactly(capsys, name):
    first = traced_metrics(capsys, name)
    second = traced_metrics(capsys, name)
    exact = [k for k in first if k.endswith(".calls") or k in COUNT_KEYS]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["mechanisms.dense_bytes"] > 0
    assert first["mechanisms.substream.calls"] > 0
    assert "trace.overhead_frac" in first


def test_wrappers_cover_every_binding_and_are_removed():
    original = mechanisms.substream
    descriptor = mechanisms.ObfuscatedGraph.__dict__["unbiased"]
    graph = ldpcount.gen_ba(30, 2, 1)
    tracer = Tracer()
    with tracer.installed():
        assert triangles.substream is mechanisms.substream is ldpcount.substream
        assert triangles.substream is not original
        triangles.estimate_triangles(graph, BUDGET, 3)
    assert triangles.substream is original and ldpcount.substream is original
    assert mechanisms.ObfuscatedGraph.__dict__["unbiased"] is descriptor
    assert tracer.absent == []
    spans = tracer.spans
    # one generator per user for each of the degree, RR and count stages
    assert spans["mechanisms.substream"].calls == 3 * graph.n
    assert spans["mechanisms.unbiased"].calls == 1
    assert spans["triangles.user_triangle_estimate"].calls == graph.n
    assert spans["triangles.estimate_triangles"].calls == 1


def test_self_times_partition_the_root_span():
    graph = ldpcount.gen_ba(200, 3, 1)
    tracer = Tracer()
    with tracer.installed():
        t0 = time.perf_counter()
        triangles.estimate_triangles(graph, BUDGET, 3)
        wall = time.perf_counter() - t0
    self_times = [s.self_s for s in tracer.spans.values()]
    assert min(self_times) >= 0.0
    assert sum(self_times) <= wall
    assert sum(self_times) >= 0.95 * wall


def test_missing_function_is_recorded_absent(monkeypatch):
    monkeypatch.delattr(mechanisms, "sample_laplace")
    tracer = Tracer()
    with tracer.installed():
        triangles.estimate_triangles(ldpcount.gen_ba(30, 2, 1), BUDGET, 3)
    assert tracer.absent == ["mechanisms.sample_laplace"]
    assert tracer.spans["mechanisms.sample_laplace"].calls == 0
    assert tracer.spans["triangles.estimate_triangles"].calls == 1


def test_gate_rejects_wrong_results():
    w = wl.WORKLOADS["c7"]
    good = triangles.EstimateReport(
        estimate=3.0, per_user=(1.0, 2.0), budget=None, seed=0, clipped_users=0,
        mode="noisy",
    )
    pins = {w.name: [wl.digest(good)]}
    assert wl.check_result(w, 0, good, pins, {}) == []
    bad = [
        replace(good, estimate=4.0),
        replace(good, estimate=math.nan, per_user=(math.nan, 2.0)),
        replace(good, clipped_users=1),  # sums fine, digest moved
    ]
    for report in bad:
        assert wl.check_result(w, 0, report, pins, {})


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    t = run.tail([float(x) for x in range(40)])
    assert t == {"value": 29.0, "percentile": 75.0, "samples": 40}


def test_case_median_weighs_cases_equally():
    cases = [0, 1, 0, 1, 0, 1, 1]
    samples = [2.0, 3.0, 2.2, 3.1, 2.1, 3.2, 9.0]
    assert run.case_median(cases, samples) == pytest.approx((2.1 + 3.15) / 2)


def test_normalised_divides_out_host_speed():
    ref = gauge.CHUNK_S
    assert gauge.normalised(2.0, ref, ref) == pytest.approx(2.0)
    # a host running everything at half speed doubles both times
    assert gauge.normalised(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)
    assert gauge.normalised(3.0, ref, 2 * ref) == pytest.approx(2.0)
    assert gauge.normalised(4.0, 2 * ref) == pytest.approx(2.0)
    assert gauge.measure(0.01) > 0.0


def test_refuses_to_run_without_the_library(tmp_path):
    root = Path(wl.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(wl.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "c7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
