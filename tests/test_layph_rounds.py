"""Multi-round Layph runs in the driver: pinned counts and sum drift."""
import numpy as np
import pytest

from repro.engine import algorithms as alg
from repro.graphs.generators import dataset
from repro.graphs.updates import apply_delta, random_edge_delta, random_vertex_delta
from repro.layph.engine import LayphEngine
from repro.reference import pagerank_reference

#: Offline activations, shortcut rows and per-round ``(activations,
#: supersteps, phase activations)`` of the 3-round run below, the phase
#: activations as ``(layered_update, upload, upper, assign)``. A change here
#: is an algorithm change, and a change of the phase split alone moves work
#: between phases; CHANGES.md logs each re-pin with its old and new values.
GOLDEN = {
    "pagerank": (285457, 3119, [
        (53447, 6, (37138, 11688, 2465, 2156)),
        (122487, 11, (81621, 30718, 7785, 2363)),
        (53457, 7, (29844, 17214, 3975, 2424)),
    ]),
    "sssp": (23866, 3127, [
        (3695, 5, (2105, 68, 110, 1412)),
        (5603, 4, (3390, 184, 178, 1851)),
        (2470, 2, (1288, 66, 34, 1082)),
    ]),
}
PHASES = ("layered_update", "upload", "upper", "assign")


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_counts(no_spark, name):
    edges, membership = dataset("uk_lite", sf=0.003, seed=7)
    algo = alg.pagerank(d=0.85, tol=1e-4) if name == "pagerank" else alg.sssp(source=0)
    eng = LayphEngine(no_spark, edges, algo, membership=membership).initialize()
    cur, rounds = edges, []
    for r in range(3):
        delta = (random_vertex_delta(cur, n_add=2, n_del=2, seed=50 + r) if r == 1
                 else random_edge_delta(cur, n_add=4, n_del=4, seed=40 + r))
        _, stats = eng.run_delta(delta)
        cur = apply_delta(cur, delta)
        phases = tuple(stats.phase_activations[p] for p in PHASES)
        assert sum(phases) == stats.activations
        rounds.append((stats.activations, stats.supersteps, phases))
    assert (eng.offline_stats.activations, len(eng.lg.shortcuts), rounds) == GOLDEN[name]


def test_sum_drift_stays_within_bound_over_20_rounds(no_spark):
    """Each convergence stops with at most ``tol`` unpropagated mass per
    vertex, so after ``r`` rounds the L1 error against the exact solution is
    at most ``(1 + r) · |V| · tol / (1 − d)`` (the benchmark's round check)."""
    edges, membership = dataset("uk_lite", sf=0.003, seed=11)
    algo = alg.pagerank(d=0.85, tol=1e-4)
    eng = LayphEngine(no_spark, edges, algo, membership=membership).initialize()
    cur, ratios = edges, []
    for r in range(1, 21):
        delta = random_edge_delta(cur, n_add=5, n_del=5, seed=300 + r)
        got, _ = eng.run_delta(delta)
        cur = apply_delta(cur, delta)
        want = pagerank_reference(cur, algo.damping)
        l1 = float(np.abs(got.reindex(want.index).to_numpy() - want.to_numpy()).sum())
        bound = (1 + r) * len(want) * algo.tol / (1 - algo.damping)
        ratios.append(l1 / bound)
    assert max(ratios) <= 1.0, ratios
