import hashlib
import json
from dataclasses import replace

import numpy as np

from ldpcount import EstimateReport, NodeOrdering, PrivacyBudget, TrialSummary
from ldpcount.documents import SCHEMA, plain


def sorted_digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_ordering_and_budget_documents_pinned():
    o = NodeOrdering(
        phi=np.array([2, 0, 3, 1]),
        noisy_degrees=np.array([1.5, 3.25, -0.5, 2.0]),
        eps0=0.5,
    )
    b = PrivacyBudget(eps0=0.5, eps1=1.0, eps2=0.25, zeta=0.05)
    assert sorted_digest(o.to_json_dict()) == (
        "055062ed34a1d80b4fd8fe33acda3b1fc988d36f243b0d36806a88bebf0b9c46"
    )
    assert sorted_digest(b.to_json_dict()) == (
        "1d83a440dec81ced7a21dfadf1961e225229c5ff225e2af22d23b5700f3e1721"
    )


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
