"""Tests of the benchmark's own logic; none of them starts Spark.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench -q``.
"""
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import run
from checks import check_round
from repro.engine import algorithms as alg
from repro.graphs.generators import fig2_graph
from repro.reference import pagerank_reference, sssp_reference
from streams import WORKLOADS, make_stream
from summary import RoundLog, sum_error_bound, tail_percentile, timing_done
from tracing import TARGETS, Tracer, _owner, aggregate

ROOT = Path(__file__).resolve().parent.parent


# -- tail percentile ---------------------------------------------------------

def test_tail_leaves_ten_rounds_beyond():
    times = [float(i) for i in range(1, 101)]
    pct, v = tail_percentile(times)
    assert (pct, v) == (90.0, 90.0)
    assert sum(t > v for t in times) == 10


def test_tail_at_the_smallest_sample_count_above_the_median():
    times = [float(i) for i in range(21, 0, -1)]  # order must not matter
    pct, v = tail_percentile(times)
    assert v == 11.0 and pct == pytest.approx(100 * 11 / 21)
    assert sum(t > v for t in times) == 10


def test_tail_falls_back_to_median_when_rounds_are_few():
    assert tail_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0)
    assert tail_percentile([float(i) for i in range(20)]) == (50.0, 9.5)


def test_tail_needs_a_sample():
    with pytest.raises(ValueError):
        tail_percentile([])


# -- how long a run measures ---------------------------------------------------

def test_timing_needs_both_the_time_and_the_round_floor():
    assert not timing_done(1, 16.0, 15.0, 2)  # one long round is not enough
    assert not timing_done(2, 14.0, 15.0, 2)
    assert timing_done(2, 16.0, 15.0, 2)
    assert timing_done(30, 15.0, 15.0, 2)


# -- failure accounting --------------------------------------------------------

def test_failed_and_warmup_rounds_count_as_attempted_but_are_not_timed():
    log = RoundLog()
    log.add(round_id=0, timed=False, seconds=5.0, ok=False, cause="warm-up mismatch")
    log.add(round_id=1, timed=True, seconds=1.0, ok=True)
    log.add(round_id=2, timed=True, seconds=2.0, ok=False, cause="L1 error")
    log.add(round_id=3, timed=True, seconds=None, ok=False, cause="raised RuntimeError: x")
    assert log.attempted == 4
    assert [r["cause"] for r in log.failures] == ["warm-up mismatch", "L1 error", "raised RuntimeError: x"]
    assert log.fail_frac == 0.75
    assert [r["round"] for r in log.timed()] == [1, 2]


def test_empty_log_counts_as_failed():
    assert RoundLog().fail_frac == 1.0


# -- correctness gate --------------------------------------------------------------

def test_sum_error_bound_formula():
    assert sum_error_bound(3, 2000, 1e-4, 0.85) == pytest.approx(3 * 2000 * 1e-4 / 0.15)


def _pagerank_case():
    edges, _ = fig2_graph()
    algo = alg.pagerank(d=0.85, tol=1e-4)
    return edges, algo, pagerank_reference(edges, 0.85)


def test_sum_check_accepts_error_within_bound_and_records_it():
    edges, algo, exact = _pagerank_case()
    bound = sum_error_bound(2, len(exact), algo.tol, algo.damping)
    got = exact + bound * 0.9 / len(exact)
    res = check_round(got, edges, algo, deleted=set(), convergences=2)
    assert res["ok"] and res["bound"] == pytest.approx(bound)
    assert res["l1"] == pytest.approx(bound * 0.9)
    assert res["max_abs"] == pytest.approx(bound * 0.9 / len(exact))


def test_sum_check_rejects_error_beyond_bound():
    edges, algo, exact = _pagerank_case()
    bound = sum_error_bound(2, len(exact), algo.tol, algo.damping)
    got = exact.copy()
    got.iloc[0] += 1.5 * bound
    res = check_round(got, edges, algo, deleted=set(), convergences=2)
    assert not res["ok"] and "L1 error" in res["cause"]


def test_min_check_is_exact():
    edges, _ = fig2_graph()
    algo = alg.sssp(source=0)
    exact = sssp_reference(edges, 0)
    assert check_round(exact, edges, algo, deleted=set(), convergences=2)["ok"]
    off = exact.copy()
    off.iloc[3] += 1e-6
    res = check_round(off, edges, algo, deleted=set(), convergences=2)
    assert not res["ok"] and "max abs error" in res["cause"]


def test_min_check_catches_reachability_and_missing_vertices():
    edges, _ = fig2_graph()
    algo = alg.sssp(source=0)
    exact = sssp_reference(edges, 0)
    unreached = exact.copy()
    unreached.iloc[4] = np.inf
    assert "reachability" in check_round(unreached, edges, algo, deleted=set(), convergences=2)["cause"]
    missing = exact.drop(exact.index[5])
    assert "missing" in check_round(missing, edges, algo, deleted=set(), convergences=2)["cause"]
    # A vertex the stream deleted is not compared.
    assert check_round(missing, edges, algo, deleted={int(exact.index[5])}, convergences=2)["ok"]


# -- tracing -------------------------------------------------------------------------

def test_every_target_is_restored_even_when_the_block_raises():
    originals = []
    for module, path, _, _ in TARGETS:
        owner, attr = _owner(module, path)
        originals.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            owner, attr, orig = originals[0]
            assert getattr(owner, attr) is not orig
            raise RuntimeError("boom")
    for owner, attr, orig in originals:
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is orig, f"{owner}.{attr} not restored"


def test_no_target_is_wrapped_twice_in_a_fresh_process():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "from tracing import Tracer, TARGETS, _owner\n"
        "with Tracer().installed():\n"
        "    for m, p, _, _ in TARGETS:\n"
        "        owner, attr = _owner(m, p)\n"
        "        fn = getattr(owner, attr)\n"
        "        assert not hasattr(fn.__wrapped__, '__wrapped__'), (m, p)\n"
    ) % (str(ROOT / "perfbench"), str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


@pytest.fixture
def fake_layer(monkeypatch):
    """A module whose ``outer`` calls ``inner`` through a module lookup."""
    mod = types.ModuleType("perfbench_fake_layer")
    exec(
        "import time\n"
        "def inner(n):\n    time.sleep(0.01)\n    return n\n"
        "def outer(n):\n    time.sleep(0.01)\n    return [inner(i) for i in range(n)]\n",
        mod.__dict__,
    )
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    targets = [
        (mod.__name__, "outer", "fake.outer", lambda a, kw, res, before: {"items": len(res)}),
        (mod.__name__, "inner", "fake.inner", None),
    ]
    return mod, Tracer(targets=targets)


def test_spans_nest_and_self_time_excludes_children(fake_layer):
    mod, tracer = fake_layer
    with tracer.installed():
        mod.outer(2)  # not recording: no spans
        with tracer.recording(7):
            assert mod.outer(3) == [0, 1, 2]
    assert mod.outer.__name__ == "outer" and not hasattr(mod.outer, "__wrapped__")
    names = [s.name for s in tracer.spans]
    assert names == ["fake.inner"] * 3 + ["fake.outer"]
    outer = tracer.spans[-1]
    assert all(s.parent == outer.id and s.round == 7 for s in tracer.spans[:3])
    assert outer.parent is None and outer.counts == {"items": 3}
    children = sum(s.seconds for s in tracer.spans[:3])
    assert outer.self_s == pytest.approx(outer.seconds - children)
    assert 0 < outer.self_s < outer.seconds

    tab = aggregate(tracer.spans, [7])
    assert tab.at["fake.outer", "items"] == 3
    assert tab.at["fake.inner", "s"] == pytest.approx(children)


# -- streams and seeds ----------------------------------------------------------------

def _stream(name, seed, n=3):
    wl = WORKLOADS[name]
    return make_stream(wl.dataset, wl.batch, seed=seed, n_rounds=n, sf=0.01,
                       graph_seed=0, vertex_adds=5, vertex_dels=3)


def test_uk_workloads_replay_one_stream():
    uk = [n for n in WORKLOADS if n.startswith("uk-")]
    assert len(uk) == 4
    digests = {_stream(n, seed=11).digest() for n in uk}
    assert len(digests) == 1


def test_seed_drives_the_stream_on_a_fixed_graph():
    a, b = _stream("uk-sssp-edges", 3), _stream("uk-sssp-edges", 3)
    assert a.digest() == b.digest()
    c = _stream("uk-sssp-edges", 4)
    assert c.edges.equals(a.edges)
    assert not c.deltas[0].added.equals(a.deltas[0].added)


def test_edge_batches_follow_the_current_graph():
    s = _stream("uk-sssp-edges", 0, n=2)
    n = max(5, len(s.edges) // 2000)
    assert len(s.deltas[0].added) == n and len(s.deltas[0].deleted) == n


def test_vertex_batches_add_five_and_delete_three():
    d = _stream("wb-sssp-vertices", 0, n=1).deltas[0]
    assert len(d.added_vertices) == 5 and len(d.deleted_vertices) == 3


# -- BENCHMARK.json agrees with the code -----------------------------------------------

def test_benchmark_json_matches_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_without_the_program_the_command_fails_fast(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uk-sssp-ingress",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout

