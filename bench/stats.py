"""Statistics shared by the benchmark: the tail-percentile rule and the
per-layer numbers derived from recorded spans."""

from __future__ import annotations

import math

from tracer import LAYERS, function_names

TAIL_BEYOND = 10


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with weights from the
    Beta(p (n + 1), (1 - p) (n + 1)) density over ((i - 1) / n, i / n].
    Job latencies come in clusters (one per kind of job), and a single
    order statistic jumps from cluster to cluster when the quantile falls
    between two; this estimate moves smoothly.
    """
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 16  # midpoint rule inside each interval
    logs = []
    for k in range(n * steps):
        t = (k + 0.5) / (n * steps)
        logs.append((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
    top = max(logs)
    weights = [sum(math.exp(v - top) for v in logs[i * steps:(i + 1) * steps])
               for i in range(n)]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def tail(latencies):
    """Latency at the highest percentile with ``TAIL_BEYOND`` jobs above it.

    With n latencies that is percentile 100 (n - 10) / n.  Returns
    ``(value, percentile, jobs_beyond)``; needs more than 10 latencies.
    """
    n = len(latencies)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} latencies, got {n}")
    p = (n - TAIL_BEYOND) / n
    return quantile(latencies, p), 100.0 * p, TAIL_BEYOND


def self_times(spans):
    """Per span: its duration minus the part covered by its child spans.

    ``spans`` are ``(name, start, end, parent, job)`` tuples whose
    ``parent`` is the index of the enclosing span or None.
    """
    children = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_metrics(spans, acc):
    """Per-function ``calls``, ``s`` and ``self_s``, per-layer ``self_s``
    and the work counts, from spans and raw accumulators.

    ``s`` counts a call only when no enclosing span has the same name,
    so recursion is not counted twice."""
    names = function_names()
    out = {}
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for span, own in zip(spans, self_times(spans)):
        name = span[0]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
        out[f"{name.split('.')[0]}.self_s"] += own
        parent = span[3]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            out[f"{name}.s"] += span[2] - span[1]

    def share(count, name):
        calls = out[f"{name}.calls"]
        return acc[count] / calls if calls else 0.0

    cells = acc["qlinalg.rref.cells"]
    out.update({
        "qlinalg.rref.cells": cells,
        "qlinalg.rref.nonzero_share":
            acc["qlinalg.rref.nonzero"] / cells if cells else 0.0,
        "qlinalg.solve.solved_share":
            share("qlinalg.solve.solved", "qlinalg.solve"),
        "qlinalg.Subspace.contains.true_share":
            share("qlinalg.Subspace.contains.true",
                  "qlinalg.Subspace.contains"),
        "chain.homotopy_solve.unknowns": acc["chain.homotopy_solve.unknowns"],
        "chain.homotopy_solve.equations":
            acc["chain.homotopy_solve.equations"],
        "trees.graph_isomorphisms.hit_share":
            share("trees.graph_isomorphisms.hit", "trees.graph_isomorphisms"),
        "document.dumps.bytes": acc["document.dumps.bytes"],
        "minimal.levels": acc["minimal.levels"],
        "minimal.generator_dim": acc["minimal.generator_dim"],
        "weight.formality_check.witness_share":
            share("weight.formality_check.witness", "weight.formality_check"),
    })
    return out


def merge_counts(accs):
    """Sum raw accumulators from several processes."""
    total = {}
    for acc in accs:
        for key, value in acc.items():
            total[key] = total.get(key, 0) + value
    return total
