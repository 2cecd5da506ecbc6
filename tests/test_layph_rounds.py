"""Multi-round Layph runs in the driver: pinned counts and sum drift."""
import hashlib

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
#: between phases. A change of a ``FINGERPRINTS`` digest is a change of a
#: state or a shortcut row, to be re-pinned only with an algorithm change.
#: CHANGES.md logs each re-pin of either with its old and new values.
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

#: sha256 of ``eng.states()`` (its index, then its float64 values) after each
#: round of the run below, and of ``eng.lg.shortcuts`` (its ``sub, entry,
#: dst, w`` columns in table order) after the last round: a refactor keeps
#: both bit for bit.
FINGERPRINTS = {
    "pagerank": ([
        "17dae925f1be72af94ad1dc87fce3e46aaced08bcd2e5389789cb9c02c814df5",
        "0654b871e9cddae4f6a92295aa2955274a34b5d4165eeae5d2ea57a5fe12e853",
        "17083b6a9b2ac9b87a7279f90d63ed9e632cfc5bcf22dce392241a7832055717",
    ], "1e0a0c53be1d1763062a356b9467543ebd2f00588c87e6233260963c58ddb977"),
    "sssp": ([
        "a8cf5356398d891984112bfe7454d08d3244f2169a55a3516b5c224e37ab9d74",
        "5d86863906228d90d7104ef0fba471e8c37c3e37be10199c235d06e0dcc4a99c",
        "00a1646b125d9c759ae670c6858e30b1d636664224a0c12cc08518be982ee003",
    ], "f735d9efffc1c14b35d7a525ed20a0388265e75f35c224aa04d6e25e1f9afea1"),
}


def _sha256(*columns) -> str:
    h = hashlib.sha256()
    for c in columns:
        h.update(np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_counts(no_spark, name):
    edges, membership = dataset("uk_lite", sf=0.003, seed=7)
    algo = alg.pagerank(d=0.85, tol=1e-4) if name == "pagerank" else alg.sssp(source=0)
    eng = LayphEngine(no_spark, edges, algo, membership=membership).initialize()
    cur, rounds, states = edges, [], []
    for r in range(3):
        delta = (random_vertex_delta(cur, n_add=2, n_del=2, seed=50 + r) if r == 1
                 else random_edge_delta(cur, n_add=4, n_del=4, seed=40 + r))
        _, stats = eng.run_delta(delta)
        cur = apply_delta(cur, delta)
        phases = tuple(stats.phase_activations[p] for p in PHASES)
        assert sum(phases) == stats.activations
        rounds.append((stats.activations, stats.supersteps, phases))
        x = eng.states()
        states.append(_sha256(x.index.to_numpy(np.int64), x.to_numpy(np.float64)))
    assert (eng.offline_stats.activations, len(eng.lg.shortcuts), rounds) == GOLDEN[name]
    sc = eng.lg.shortcuts
    shortcuts = _sha256(*(sc[c].to_numpy() for c in ("sub", "entry", "dst", "w")))
    assert (states, shortcuts) == FINGERPRINTS[name]


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
