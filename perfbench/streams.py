"""Workload definitions and the seeded ΔG stream each one replays.

As in the paper's evaluation, a workload runs on one fixed dataset and the
seed draws the random update batches: the graph comes from the dataset's
own generator seed, the stream from ``--seed``. A stream is fixed by
``(dataset, batch kind, seed)`` alone, so every workload on the same
dataset and batch kind replays the identical stream: the three ``uk-*``
workloads differ only in the engine path.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.graphs.generators import dataset
from repro.graphs.updates import (
    GraphDelta,
    apply_delta,
    random_edge_delta,
    random_vertex_delta,
)


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    algo: str  # "sssp" | "pagerank"
    batch: str  # "edges" | "vertices"
    engine: str  # "layph" | "ingress"


WORKLOADS = {
    w.name: w
    for w in [
        Workload("uk-sssp-edges", "uk_lite", "sssp", "edges", "layph"),
        Workload("uk-pagerank-edges", "uk_lite", "pagerank", "edges", "layph"),
        Workload("wb-sssp-vertices", "wb_lite", "sssp", "vertices", "layph"),
        Workload("uk-sssp-ingress", "uk_lite", "sssp", "edges", "ingress"),
        Workload("uk-pagerank-ingress", "uk_lite", "pagerank", "edges", "ingress"),
    ]
}


@dataclass
class Stream:
    edges: pd.DataFrame
    membership: pd.DataFrame
    deltas: list[GraphDelta]

    def digest(self) -> str:
        """Content hash of the graph and every batch, to prove two workloads
        replay the same inputs."""
        h = hashlib.sha256()
        frames = [self.edges, self.membership]
        for d in self.deltas:
            frames += [d.added, d.deleted]
            h.update(np.asarray(d.added_vertices, np.int64).tobytes())
            h.update(np.asarray(d.deleted_vertices, np.int64).tobytes())
        for f in frames:
            h.update(pd.util.hash_pandas_object(f, index=False).to_numpy().tobytes())
        return h.hexdigest()


def edge_batch_size(n_edges: int) -> int:
    """Unit insertions (and as many deletions) per edge batch."""
    return max(5, n_edges // 2000)


def make_stream(
    ds: str, batch: str, *, seed: int, n_rounds: int, sf: float, graph_seed: int,
    vertex_adds: int, vertex_dels: int,
) -> Stream:
    """The dataset graph plus ``n_rounds`` seeded batches, each drawn on the
    graph the previous batches produced."""
    edges, membership = dataset(ds, sf=sf, seed=graph_seed)
    round_seeds = np.random.SeedSequence([seed, 1]).generate_state(n_rounds)
    g = edges
    deltas = []
    for s in round_seeds:
        if batch == "edges":
            n = edge_batch_size(len(g))
            d = random_edge_delta(g, n_add=n, n_del=n, seed=int(s))
        else:
            d = random_vertex_delta(g, n_add=vertex_adds, n_del=vertex_dels, seed=int(s))
        deltas.append(d)
        g = apply_delta(g, d)
    return Stream(edges, membership, deltas)
