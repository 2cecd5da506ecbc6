"""A layering with no subgraph is Ingress.

With L_low empty, L_up is the whole graph, Layph's revision messages are
Ingress's (DESIGN.md §1: Layph = Ingress + layered graph) and no upload or
assignment has work. So ``LayphEngine`` on a singleton membership must
equal ``ingress_incremental`` round by round, started from the same
states: byte-equal states, equal activations and equal supersteps. Both
engines keep one rule for exact-zero sum injections (dropped in the
revision), which vertex batches and PHP's unreached vertices produce."""
import pytest

from repro.engine import algorithms as alg
from repro.graphs.generators import dataset
from repro.graphs.updates import apply_delta, random_edge_delta, random_vertex_delta
from repro.incremental.ingress import ingress_incremental
from repro.layph.engine import LayphEngine
from tests.blocks import singletons

ALGOS = {
    "sssp": lambda: alg.sssp(source=0),
    "bfs": lambda: alg.bfs(source=0),
    "pagerank": lambda: alg.pagerank(d=0.85, tol=1e-4),
    "php": lambda: alg.php(source=0, d=0.85, tol=1e-4),
}
STREAMS = {
    "uk_lite-edges": ("uk_lite", 0.003, lambda g, r: random_edge_delta(
        g, n_add=4, n_del=4, seed=60 + r)),
    "wb_lite-vertices": ("wb_lite", 0.002, lambda g, r: random_vertex_delta(
        g, n_add=2, n_del=2, seed=70 + r)),
}


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("name", sorted(ALGOS))
def test_flat_layph_equals_ingress_round_by_round(no_spark, name, stream):
    ds, sf, draw = STREAMS[stream]
    algo = ALGOS[name]()
    edges, membership = dataset(ds, sf=sf, seed=0)
    eng = LayphEngine(no_spark, edges, algo, membership=singletons(membership)).initialize()
    assert len(eng.lg.shortcuts) == 0 and len(eng.lg.interior_ids) == 0

    cur, states = edges, eng.states()
    for r in range(4):
        delta = draw(cur, r)
        got, l_stats = eng.run_delta(delta)
        want, i_stats = ingress_incremental(no_spark, cur, delta, states, algo, tol=algo.tol)
        cur, states = apply_delta(cur, delta), want
        assert got.index.equals(want.index), r
        assert got.to_numpy().tobytes() == want.to_numpy().tobytes(), r
        assert (l_stats.activations, l_stats.supersteps) == (
            i_stats.activations, i_stats.supersteps), r
        assert l_stats.activations > 0, r
