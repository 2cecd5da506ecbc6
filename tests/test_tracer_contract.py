"""The benchmark tracer's contract with the program.

``perfbench/tracing.py`` patches functions by the name their caller looks
them up by and reads some of their arguments by position. This runs one
Layph PageRank round, one Layph SSSP round and one Ingress round under the
unchanged tracer, without Spark, and checks that every patched name resolves,
that every span with a counts function got its counts, that the counts read
by position are the ones they name, and that the min caches are traced in
both the set-up and the round. The parameters the tracer reads by position
must also carry the names it assumes.
"""
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from repro.engine import algorithms as alg
from repro.experiments.common import batch_states
from repro.graphs.generators import dataset
from repro.graphs.updates import random_edge_delta
from repro.incremental import ingress
from repro.layph import engine as layph_engine
from repro.layph import shortcuts, upload, upper
from repro.layph.engine import LayphEngine

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

#: Per function, the positions ``perfbench/tracing.py`` reads and the
#: parameter each must be.
POSITIONAL_READS = {
    upper.upper_sum_loop: {1: "up_graph", 2: "x_up"},
    upper.upper_min_loop: {1: "up_graph", 2: "x_up"},
    shortcuts.update_shortcuts: {3: "old_shortcuts"},
    upload.upload_messages: {2: "members", 5: "injections"},
}


@pytest.mark.parametrize("fn", list(POSITIONAL_READS), ids=lambda fn: fn.__name__)
def test_positional_reads_name_their_parameters(fn):
    params = list(inspect.signature(fn).parameters.values())
    for at, name in POSITIONAL_READS[fn].items():
        assert params[at].name == name, (fn.__name__, at)
        assert params[at].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, (fn.__name__, name)


def test_tracer_targets_resolve_and_count(monkeypatch, no_spark):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for module, path, _, _ in tracing.TARGETS:
        owner, attr = tracing._owner(module, path)
        assert callable(getattr(owner, attr)), (module, path)

    edges, membership = dataset("uk_lite", sf=0.003, seed=0)
    delta = random_edge_delta(edges, n_add=4, n_del=4, seed=1)
    pagerank, sssp = alg.pagerank(d=0.85, tol=1e-4), alg.sssp(source=0)
    tracer = tracing.Tracer()  # no SparkContext: no job counts
    lup = {}
    # Installed before the tracer, so the tracer's span wraps this recorder.
    uploads = []
    real_upload = layph_engine.upload_messages
    monkeypatch.setattr(
        layph_engine, "upload_messages",
        lambda *a: uploads.append((a[5], real_upload(*a))) or uploads[-1][1],
    )
    # Each min revision's result, in call order: the Layph SSSP round's, then
    # the Ingress round's.
    revisions = []
    for module in (layph_engine, ingress):
        real = module.min_revision
        monkeypatch.setattr(
            module, "min_revision",
            lambda *a, real=real, **kw: revisions.append(real(*a, **kw)) or revisions[-1],
        )
    with tracer.installed():
        for i, algo in enumerate((pagerank, sssp)):
            with tracer.recording(f"setup-{i}"):
                eng = LayphEngine(no_spark, edges, algo, membership=membership).initialize()
            with tracer.recording(i):
                eng.run_delta(delta)
            lup[algo.name] = eng.lg.sizes()  # L_up of the layered graph the round ran on
            if algo is pagerank:
                members = eng.lg.members  # frozen: the members the upload read
        states = batch_states(edges, sssp)
        with tracer.recording(2):
            # Called through its module, as the benchmark calls it.
            ingress.ingress_incremental(no_spark, edges, delta, states, sssp, tol=sssp.tol)

    counted = {name for *_, name, counts in tracing.TARGETS if counts is not None}
    spans = [s for s in tracer.spans if s.name in counted]
    assert {s.name for s in spans} == counted
    for s in spans:
        assert s.counts and all(v is not None for v in s.counts.values()), s.name
    # The upload reads the member frame and the injections by position.
    upload = [s for s in spans if s.name == "layph.upload.upload_messages"]
    assert any(s.counts["subgraphs"] > 0 for s in upload)
    # On the PageRank round they count what they name: the subgraphs among
    # the member injections, and the uploads returned.
    (span,) = [s for s in upload if s.round == 0]
    ((injections, (_, returned, _)),) = uploads  # the min round uploads nothing
    subs = members.sub_of(injections.index.to_numpy())
    assert span.counts["subgraphs"] == len(np.unique(subs[subs >= 0])) > 0
    assert span.counts["uploads"] == len(returned) > 0
    # Each loop's span reads the L_up edges and states by position: their
    # lengths are the round's L_up edge and vertex counts.
    for kind, algo in (("sum", pagerank), ("min", sssp)):
        (loop,) = [s for s in spans if s.name == f"layph.upper.upper_{kind}_loop"]
        assert loop.counts["lup_edges"] == lup[algo.name]["upper_edges"] > 0, kind
        assert loop.counts["lup_vertices"] == lup[algo.name]["upper_vertices"] > 0, kind
    # On the min path the revision's span counts the reset ids and the seeds
    # it returned.
    min_spans = [s for s in spans if s.name == "incremental.revision.min_revision"]
    assert [s.round for s in min_spans] == [1, 2]
    for s, (reset, seeds, _) in zip(min_spans, revisions, strict=True):
        assert s.counts == {"reset_vertices": len(reset), "seeds": len(seeds)}
    assert any(len(reset) for reset, _, _ in revisions)
    # The min caches are recomputed in the SSSP set-up and again in its round.
    caches = [s.round for s in tracer.spans if s.name == "layph.engine.compute_caches_min"]
    assert caches == ["setup-1", 1]
    names = {s.name for s in tracer.spans}
    assert {"layph.replication.apply_plan", "layph.structure.compute_roles"} <= names
