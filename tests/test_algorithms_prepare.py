"""Algorithm abstraction: preparation, roots, classification (pure pandas)."""
from dataclasses import replace

import numpy as np
import pandas as pd
import pytest

from repro.engine import algorithms as alg
from repro.graphs.generators import dataset
from repro.graphs.schema import degrees


@pytest.fixture(scope="module")
def edges():
    e, _ = dataset("uk_lite", sf=0.004, seed=1)
    return e


@pytest.mark.parametrize("name,agg", [("sssp", "min"), ("bfs", "min"),
                                      ("pagerank", "sum"), ("php", "sum")])
def test_classification(name, agg):
    a = alg.ALGORITHMS[name](source=0)
    assert a.aggregate == agg
    assert a.is_min == (agg == "min")
    assert a.is_sum == (agg == "sum")


def test_sssp_prepare_is_identity(edges):
    out = alg.sssp(source=0).prepare(edges)
    pd.testing.assert_frame_equal(out, edges.reset_index(drop=True))


def test_bfs_prepare_unit_weights(edges):
    out = alg.bfs(source=0).prepare(edges)
    assert (out.w == 1.0).all()
    assert len(out) == len(edges)


@pytest.mark.parametrize("d", [0.3, 0.5, 0.85])
def test_pagerank_prepare_row_mass(edges, d):
    """Per source, prepared weights sum to exactly d (stochasticity)."""
    out = alg.pagerank(d=d).prepare(edges)
    sums = out.groupby("src").w.sum()
    assert np.allclose(sums.to_numpy(), d)


@pytest.mark.parametrize("d", [0.5, 0.8])
def test_php_prepare_row_mass_and_absorbing_source(edges, d):
    src = int(edges.src.iloc[0])
    a = alg.php(source=src, d=d)
    out = a.prepare(edges)
    assert not (out.dst == src).any()  # source absorbs: in-edges dropped
    # sources whose edges don't touch the php source keep full mass d
    deg = degrees(edges).set_index("id")
    full = out.groupby("src").w.sum()
    touch = set(edges[edges.dst == src].src)
    for u in list(full.index)[:50]:
        if u not in touch:
            assert full[u] == pytest.approx(d, rel=1e-9)
        else:
            assert full[u] < d + 1e-12
    _ = deg


def test_sssp_prepare_rejects_negative_weights(edges):
    bad = edges.assign(w=edges.w.where(edges.index != 3, -1.0))
    with pytest.raises(ValueError, match="non-negative"):
        alg.sssp(source=0).prepare(bad)
    with pytest.raises(ValueError, match="non-negative"):
        alg.sssp(source=0).prepare_rows(bad.src.to_numpy(), bad.dst.to_numpy(), bad.w.to_numpy())


@pytest.mark.parametrize("name", ["pagerank", "php"])
def test_prepare_equals_pandas_groupby_weights(edges, name):
    """The numpy preparation gives pandas' per-source degrees and
    (compensated) weight sums bit for bit, on the whole table and on any
    subset of whole source runs."""
    a = alg.pagerank(d=0.85) if name == "pagerank" else alg.php(source=int(edges.src.iloc[0]))
    e = edges.assign(w=edges.w * np.pi)
    out = e.copy()
    if name == "pagerank":
        out["w"] = a.damping / e.groupby("src").size().reindex(e.src).to_numpy()
    else:
        out["w"] = a.damping * e.w.to_numpy() / e.groupby("src").w.sum().reindex(e.src).to_numpy()
        out = out[out.dst != a.source]
    want = out.reset_index(drop=True)
    pd.testing.assert_frame_equal(a.prepare(e), want, check_exact=True)
    runs = e.src.isin(e.src.unique()[::3]).to_numpy()
    s, d, w = a.prepare_rows(e.src.to_numpy()[runs], e.dst.to_numpy()[runs], e.w.to_numpy()[runs])
    part = want[want.src.isin(e.src.unique()[::3])]
    np.testing.assert_array_equal(w, part.w.to_numpy())
    np.testing.assert_array_equal(d, part.dst.to_numpy())


def test_root_messages_rooted():
    a = alg.sssp(source=7)
    m0 = a.root_messages(np.array([1, 7, 9]))
    assert m0.to_dict() == {7: 0.0}


def test_root_messages_uniform():
    a = alg.pagerank(d=0.8)
    m0 = a.root_messages(np.array([1, 2, 3]))
    assert np.allclose(m0.to_numpy(), 0.2) and len(m0) == 3


def test_initial_states_identity():
    a_min = alg.bfs(source=0)
    a_sum = alg.php(source=0, d=0.5)
    assert np.isinf(a_min.initial_states(np.array([1, 2]))).all()
    assert (a_sum.initial_states(np.array([1, 2])) == 0.0).all()


@pytest.mark.parametrize("name", ["sssp", "bfs", "pagerank", "php"])
def test_prepare_idempotent_on_topology(edges, name):
    """prepare() never invents or drops vertices (except PHP's source dst)."""
    a = alg.ALGORITHMS[name](source=0, **({"d": 0.5} if name in ("pagerank", "php") else {}))
    out = a.prepare(edges)
    assert set(out.src) <= set(edges.src)
    assert set(out.dst) <= set(edges.dst)


def test_combine_semantics():
    assert alg.sssp(source=0).combine(np.array([1.0]), np.array([2.0]))[0] == 3.0
    assert alg.pagerank().combine(np.array([2.0]), np.array([0.5]))[0] == 1.0


def test_algorithms_registry_complete():
    assert set(alg.ALGORITHMS) == {"sssp", "bfs", "pagerank", "php"}
    for name, factory in alg.ALGORITHMS.items():
        a = factory(source=0)
        assert a.name == name


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1e-6])
def test_a_tolerance_that_cannot_converge_is_rejected(tol):
    """NaN or +inf would stop every sum message at once, a negative one
    would fire every vertex every superstep."""
    for make in (alg.pagerank, lambda tol: alg.sssp(0, tol=tol)):
        with pytest.raises(ValueError, match="tol"):
            make(tol=tol)
    with pytest.raises(ValueError, match="tol"):
        replace(alg.pagerank(), tol=tol)


def test_a_zero_tolerance_is_accepted():
    assert alg.pagerank(tol=0.0).tol == 0.0
