import hashlib
import json
from dataclasses import fields, replace

import numpy as np
import pytest

from ldpcount import (
    EstimateReport,
    ExperimentConfig,
    NodeOrdering,
    PrivacyBudget,
    TrialSummary,
    complete_graph,
    error_scaling,
    estimate_odd_cycles,
    estimate_triangles,
    gen_er,
    graph_stats,
    petersen_graph,
    run_trials,
    verify_bounds,
)
from ldpcount.documents import SCHEMA, plain
from ldpcount.experiments import SUMMARY_COLUMNS
from ldpcount.oracles import exact_counts

BUDGET = PrivacyBudget(0.5, 1.0, 1.0, 0.05)


def sorted_digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_ordering_and_budget_documents_pinned():
    o = NodeOrdering(
        phi=np.array([2, 0, 3, 1]),
        noisy_degrees=np.array([1.5, 3.25, -0.5, 2.0]),
        eps0=0.5,
    )
    b = PrivacyBudget(eps0=0.5, eps1=1.0, eps2=0.25, zeta=0.05)
    assert sorted_digest(plain(o)) == (
        "055062ed34a1d80b4fd8fe33acda3b1fc988d36f243b0d36806a88bebf0b9c46"
    )
    assert sorted_digest(plain(b)) == (
        "1d83a440dec81ced7a21dfadf1961e225229c5ff225e2af22d23b5700f3e1721"
    )


# One report of each type the CLI writes; the k = 5 run carries k and walk_sum.
REPORTS = {
    "estimate-triangles": lambda: estimate_triangles(gen_er(10, 0.3, seed=2), BUDGET, 3),
    "estimate-k5": lambda: estimate_odd_cycles(gen_er(12, 0.4, seed=2), 5, BUDGET, 3),
    "trial-summary": lambda: run_trials(ExperimentConfig(
        task="triangles", trials=3, seed=1, gen="er:12:0.3", budget=BUDGET,
        keep_estimates=True,
    )),
    "bounds": lambda: verify_bounds(petersen_graph(), orderings=2, eps0=1.0, seed=0),
    "scaling": lambda: error_scaling(ExperimentConfig(
        task="triangles", trials=2, seed=1, gen="er:{n}:0.4", budget=BUDGET,
    ), [6, 8, 10]),
    "exact-counts": lambda: exact_counts(
        complete_graph(5), cycle_lengths=(3, 5), path_lengths=(2,), monotone_lengths=(4,)
    ),
    "graph-stats": lambda: graph_stats(petersen_graph()),
}


@pytest.mark.parametrize("make", REPORTS.values(), ids=list(REPORTS))
def test_written_document_is_lossless(make):
    report = make()
    doc = report.to_json_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert doc["schema"] == SCHEMA
    held = {f.name for f in fields(report) if getattr(report, f.name) is not None}
    assert held <= set(doc)
    for name in set(doc) - {"schema"}:
        value = getattr(report, name)
        assert doc[name] == plain(value), name
        if isinstance(value, (int, float, str)):
            assert doc[name] == value, name
    if isinstance(report, TrialSummary):
        assert report.estimates is not None
        header, row = report.to_csv().splitlines()
        assert header == ",".join(SUMMARY_COLUMNS)
        assert [float(x) for x in row.split(",")] == [
            getattr(report, c) for c in SUMMARY_COLUMNS
        ]


def test_none_default_fields_left_out_while_none():
    r = EstimateReport(
        estimate=1.0, per_user=(1.0,), budget=None, seed=0, clipped_users=0,
        mode="no-noise",
    )
    doc = r.to_json_dict()
    assert doc["schema"] == SCHEMA
    assert doc["budget"] is None  # no default: written even when None
    assert "k" not in doc and "walk_sum" not in doc
    doc = replace(r, k=5, walk_sum=0.0).to_json_dict()
    assert doc["k"] == 5 and doc["walk_sum"] == 0.0
    s = TrialSummary(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert "estimates" not in s.to_json_dict()
    assert replace(s, estimates=(1.0,)).to_json_dict()["estimates"] == [1.0]


def test_plain_makes_json_builtins():
    s = TrialSummary(1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    value = {10: (1, 2), 2: np.array([0.5]), 3: [s]}
    assert plain(value) == {"10": [1, 2], "2": [0.5], "3": [s.to_json_dict()]}
    assert list(plain(value)) == ["2", "3", "10"]
    assert plain(PrivacyBudget(1.0, 2.0, 3.0, 0.5)) == {
        "eps0": 1.0, "eps1": 2.0, "eps2": 3.0, "zeta": 0.5,
    }
