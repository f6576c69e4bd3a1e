"""Self-tests for the benchmark harness.

    python3 -m pytest -q bench/test_bench.py
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from oracles import tree_sum_dims  # noqa: E402
from stats import layer_metrics, quantile, self_times, tail  # noqa: E402
from tracer import RAW_COUNTS, Tracer  # noqa: E402


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond():
    latencies = [float(x) for x in range(100, 0, -1)]
    value, percentile, beyond = tail(latencies)
    assert (percentile, beyond) == (90.0, 10)
    # the estimate sits at the 90th of 100 evenly spaced latencies
    assert 90.0 < value < 91.5
    value, percentile, _ = tail([2.0] * 11)
    assert value == pytest.approx(2.0) and percentile == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        tail(list(range(10)))


def test_quantile_is_smooth_between_clusters():
    # 10 jobs of 1 s and 10 of 3 s: the median lies between the clusters
    assert quantile([1.0] * 10 + [3.0] * 10, 0.5) == pytest.approx(2.0)
    assert quantile([1.0] * 11 + [3.0] * 9, 0.5) < 2.0


def test_self_time_subtracts_covered_child_time():
    spans = [
        ("a.f", 0.0, 10.0, None, "j"),
        ("b.g", 1.0, 4.0, 0, "j"),
        ("c.h", 2.0, 3.0, 1, "j"),
        ("b.g", 5.0, 6.0, 0, "j"),
        ("a.f", 11.0, 12.0, None, "j"),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0, 1.0]


def test_layer_totals_do_not_count_recursion_twice():
    spans = [
        ("qlinalg.solve", 0.0, 4.0, None, "j"),
        ("qlinalg.solve", 1.0, 3.0, 0, "j"),
        ("qlinalg.rref", 1.5, 2.5, 1, "j"),
    ]
    out = layer_metrics(spans, dict.fromkeys(RAW_COUNTS, 0))
    assert out["qlinalg.solve.calls"] == 2
    assert out["qlinalg.solve.s"] == 4.0
    assert out["qlinalg.solve.self_s"] == 3.0
    assert out["qlinalg.rref.self_s"] == 1.0
    assert out["qlinalg.self_s"] == 4.0


def test_rebinding_catches_aliased_imports():
    from operad_forge import chain, qlinalg
    from operad_forge.qlinalg import Matrix
    original = qlinalg.kernel
    assert chain.kernel is original  # chain imports kernel by name
    tracer = Tracer()
    tracer.install()
    try:
        c = chain.ChainComplex({0: 2, 1: 1},
                               {1: Matrix.from_rows([[1], [1]])})
        chain.homology(c)  # untraced: no job set
        assert tracer.spans() == []
        tracer.job = "homology"
        chain.homology(c)
        tracer.job = None
    finally:
        tracer.uninstall()
    assert chain.kernel is original and qlinalg.kernel is original
    out = layer_metrics(tracer.spans(), tracer.acc)
    assert out["chain.homology.calls"] == 1
    assert out["qlinalg.kernel.calls"] > 0
    assert out["qlinalg.rref.calls"] > 0
    assert out["qlinalg.rref.cells"] > 0


def test_tree_sum_oracle_matches_known_counts():
    # (2n - 3)!! binary trees; 1, 4, 26, 236 reduced trees in total
    assert tree_sum_dims({2: {0: 1}}, 6) == {
        2: {0: 1}, 3: {0: 3}, 4: {0: 15}, 5: {0: 105}, 6: {0: 945}}
    all_arities = {k: {0: 1} for k in range(2, 6)}
    assert [sum(d.values()) for d in tree_sum_dims(all_arities, 5).values()] \
        == [1, 4, 26, 236]
