"""KickStarter's pull loop and LPA discovery run in the driver, without Spark.

The per-round activations and supersteps pinned below were measured on the
Spark pull loop these replaced; on these streams the numpy loop gave the
same bytes of state, activations and supersteps every round.
"""
from collections import Counter, defaultdict

import numpy as np
import pandas as pd
import pytest

from repro.engine import algorithms as alg
from repro.engine import batch
from repro.experiments.common import batch_states
from repro.graphs.generators import dataset, planted_partition
from repro.graphs.updates import apply_delta, random_edge_delta
from repro.incremental.baselines import _pull_min_jacobi, kickstarter
from repro.layph.community import _cap_sizes, lpa_communities
from repro.metrics import RunStats
from repro.reference import assert_states_close, bfs_reference, sssp_reference

INF = float("inf")

#: (dataset, SF, algorithm) -> per round (activations, supersteps) of the
#: Spark pull loop on four batches of 10 added and 10 deleted edges.
SPARK_COUNTS = {
    ("uk_lite", 0.01, "sssp"): [(8884, 10), (480, 3), (1175, 5), (75, 2)],
    ("uk_lite", 0.01, "bfs"): [(7756, 7), (490, 3), (337, 2), (196, 2)],
    ("wb_lite", 0.005, "sssp"): [(155, 3), (691, 3), (1028, 5), (6805, 8)],
    ("wb_lite", 0.005, "bfs"): [(233, 2), (153, 3), (1194, 4), (826, 5)],
}


@pytest.mark.parametrize("ds, sf, name", list(SPARK_COUNTS), ids=lambda v: str(v))
def test_kickstarter_stream_counts_and_states(no_spark, ds, sf, name):
    algo = alg.ALGORITHMS[name](source=0)
    reference = sssp_reference if name == "sssp" else bfs_reference
    edges, _ = dataset(ds, sf=sf, seed=0)
    x = batch_states(edges, algo)
    counts = []
    for r in range(4):
        delta = random_edge_delta(edges, n_add=10, n_del=10, seed=100 + r)
        x, stats = kickstarter(no_spark, edges, delta, x, algo)
        edges = apply_delta(edges, delta)
        assert_states_close(x, reference(edges, 0), atol=1e-9, rtol=0)
        counts.append((stats.activations, stats.supersteps))
    assert counts == SPARK_COUNTS[(ds, sf, name)]


def _chain():
    edges = pd.DataFrame({"src": [0, 1], "dst": [1, 2], "w": [1.0, 1.0]})
    return edges, pd.Series({0: 0.0, 1: INF, 2: INF})


def test_pull_loop_raises_at_its_cap(monkeypatch):
    edges, x = _chain()
    monkeypatch.setattr(batch, "MAX_SUPERSTEPS", 1)
    with pytest.raises(RuntimeError, match="MAX_SUPERSTEPS=1$"):
        _pull_min_jacobi(edges, x, np.array([1, 2]), alg.sssp(source=0), RunStats())


def test_pull_loop_counts_in_edges_per_round(monkeypatch):
    """Rounds scan {1, 2}, {1, 2}, {2}: five in-edges in three supersteps;
    the third round empties the set at the cap, which is not an error."""
    edges, x = _chain()
    stats = RunStats()
    monkeypatch.setattr(batch, "MAX_SUPERSTEPS", 3)
    out = _pull_min_jacobi(edges, x, np.array([1, 2]), alg.sssp(source=0), stats)
    assert out.to_dict() == {0: 0.0, 1: 1.0, 2: 2.0}
    assert (stats.activations, stats.supersteps) == (5, 3)


def test_pull_loop_replaces_an_unsupported_state():
    """An affected state takes its recomputed value even when that is
    higher: vertex 2's 0.5 has no support and ends at 2."""
    edges, x = _chain()
    x[2] = 0.5
    out = _pull_min_jacobi(edges, x, np.array([1, 2]), alg.sssp(source=0), RunStats())
    assert out.to_dict() == {0: 0.0, 1: 1.0, 2: 2.0}


def _lpa_reference(edges, n_iters):
    """Synchronous LPA over neighbour sets: the most frequent label wins,
    ties go to the smaller label."""
    nbrs = defaultdict(set)
    for s, d in zip(edges.src.tolist(), edges.dst.tolist()):
        nbrs[s].add(d)
        nbrs[d].add(s)
    label = {v: v for v in nbrs}
    for _ in range(n_iters):
        counts = {v: Counter(label[u] for u in ns) for v, ns in nbrs.items()}
        label = {v: min(c, key=lambda lbl: (-c[lbl], lbl)) for v, c in counts.items()}
    ids = sorted(label)
    return pd.DataFrame({"id": ids, "sub": [label[v] for v in ids]}, dtype=np.int64)


def _tie_graph():
    """Two 4-cliques and vertex 20 between them. 20 sees the labels 0 and
    10 once each and joins the smaller; 0→1 and 1→0 are one pair."""
    a = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    b = [(u + 10, v + 10) for u, v in a]
    pairs = a + b + [(1, 0), (1, 20), (20, 11)]
    return pd.DataFrame(pairs, columns=["src", "dst"]).assign(w=1.0)


@pytest.mark.parametrize("kw", [{}, {"K": 60, "n_iters": 5}, {"K": 4, "n_iters": 3}])
def test_lpa_equals_a_dict_reference(kw):
    planted, _ = planted_partition(
        n_vertices=120, community_size_lo=20, community_size_hi=25,
        community_fraction=1.0, intra_out_deg=6.0, inter_edge_fraction=0.03, seed=5,
    )
    uk, _ = dataset("uk_lite", sf=0.003, seed=1)
    for edges in (_tie_graph(), planted, uk):
        want = _cap_sizes(_lpa_reference(edges, kw.get("n_iters", 4)), K=kw.get("K", 1000))
        pd.testing.assert_frame_equal(lpa_communities(edges, **kw), want)
