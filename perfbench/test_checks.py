"""Self-tests of the answer checks on hand-made answers.

Run from the repository root: ``python3 -m pytest -q perfbench/test_checks.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import check, oversubscribed  # noqa: E402
from worlds import HISTORY, _flow_query, _graph_query, _node_query  # noqa: E402

CAPACITY = {"a": 100.0, "b": 100.0, "c": 100.0}


def _measure(lo, q1, med, q3, hi):
    return {"min": lo, "q1": q1, "median": med, "q3": q3, "max": hi, "mean": med}


def _flows(query, measures):
    return json.dumps(
        {
            "variable": [
                {"src": s, "dst": d, "bandwidth": m}
                for (s, d), m in zip(query.flows, measures)
            ]
        }
    ).encode()


def test_a_feasible_flow_answer_passes():
    query = _flow_query(("a", "b"), HISTORY)
    body = _flows(query, [_measure(40, 45, 50, 55, 60)] * 2)
    assert check(query, body, CAPACITY) is None
    assert not oversubscribed(query, body, CAPACITY)


def test_flow_answers_are_counted_and_ordered():
    query = _flow_query(("a", "b", "c"), HISTORY)
    assert "flow answers" in check(query, _flows(query, [_measure(1, 1, 1, 1, 1)]), CAPACITY)
    out_of_order = [_measure(1, 3, 2, 4, 5)] + [_measure(1, 1, 1, 1, 1)] * 5
    assert "out of order" in check(query, _flows(query, out_of_order), CAPACITY)


def test_non_finite_numbers_fail():
    query = _flow_query(("a", "b"), HISTORY)
    body = _flows(query, [_measure(1, 1, 1, 1, float("inf"))] * 2)
    assert "non-finite" in check(query, body, CAPACITY)


def test_minimums_over_an_access_link_fail():
    # a sends to b and c: 2 x 60 at the min level cannot share 100.
    query = _flow_query(("a", "b", "c"), HISTORY)
    measures = [_measure(60, 60, 60, 60, 60)] * 2 + [_measure(10, 10, 10, 10, 10)] * 4
    assert "flows out of a" in check(query, _flows(query, measures), CAPACITY)


def test_one_flow_above_its_link_fails():
    query = _flow_query(("a", "b"), HISTORY)
    body = _flows(query, [_measure(10, 10, 10, 10, 120)] * 2)
    assert "exceeds its access link" in check(query, body, CAPACITY)


def test_interior_columns_over_a_link_are_counted_not_failed():
    # Feasible per scenario, but each flow's q3 came from another one.
    query = _flow_query(("a", "b", "c"), HISTORY)
    measures = [_measure(10, 20, 30, 70, 80)] * 2 + [_measure(10, 10, 10, 10, 10)] * 4
    body = _flows(query, measures)
    assert check(query, body, CAPACITY) is None
    assert oversubscribed(query, body, CAPACITY)


def test_graph_must_name_every_requested_host():
    query = _graph_query(("a", "b"))
    assert check(query, json.dumps({"nodes": [{"name": "a"}, {"name": "b"}]}).encode(), CAPACITY) is None
    assert "lacks hosts" in check(query, json.dumps({"nodes": [{"name": "a"}]}).encode(), CAPACITY)


def test_node_answer_must_match_and_be_ordered():
    query = _node_query("a")
    good = {"name": "a", "cpu_load": _measure(0, 0, 0, 0, 0), "cpu_available": _measure(1, 1, 1, 1, 1)}
    assert check(query, json.dumps(good).encode(), CAPACITY) is None
    assert "node answer" in check(query, json.dumps({**good, "name": "b"}).encode(), CAPACITY)
