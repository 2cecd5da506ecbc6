"""A batch run through the local kernel, one subgraph's shortcut tables
through the engine's own pass, the cell universe the pass once derived
from its tables, and a membership that keeps no subgraph."""
import numpy as np
import pandas as pd

from repro.engine.local import LocalRun, converge, shortcut_pass
from repro.graphs.schema import vertex_ids
from repro.layph.structure import Members


def batch_run(edges, algo, extra_ids=()) -> LocalRun:
    """``converge`` from scratch on ``edges`` at ``algo.tol``: every vertex,
    ``extra_ids`` and the source included, at its initial state, with the
    root messages. Pass ``replace(algo, tol=...)`` for a tighter reference."""
    ids = algo.with_source(np.union1d(vertex_ids(edges), np.asarray(extra_ids, np.int64)))
    return converge(algo.prepare(edges), algo.initial_states(ids), algo.root_messages(ids), algo)


def table_cells(edges, entries, old=None, changed=None) -> Members:
    """Per subgraph, every id the tables name (an old row's entry is only
    looked up), as members in (sub, id) order: the universe the pass took
    from its tables before it took the layered graph's membership."""
    named = [(edges, "src"), (edges, "dst"), (entries, "id"), (old, "dst"),
             (changed, "src"), (changed, "dst")]
    named = [(t, c) for t, c in named if t is not None]
    sub = np.concatenate([np.asarray(t["sub"], np.int64) for t, _ in named])
    ids = np.concatenate([np.asarray(t[c], np.int64) for t, c in named])
    sub, ids = np.unique(np.stack([sub, ids]), axis=1)
    return Members(ids, sub)


def one_block(edges, entries, algo, *, old=None, changed=None, **kw):
    """``shortcut_pass`` on the tables of one subgraph, given without a
    ``sub`` column: that subgraph's ``(entry, dst, w)`` rows and the
    activations."""

    def block(df):
        return None if df is None else df.assign(sub=0)

    tables = [block(edges), pd.DataFrame({"id": np.asarray(entries, np.int64), "sub": 0}),
              block(old), block(changed)]
    sc, acts = shortcut_pass(
        tables[0], tables[1], algo, old=tables[2], changed=tables[3],
        cells=table_cells(*tables), **kw,
    )
    return sc.drop(columns="sub"), acts


def singletons(membership: pd.DataFrame) -> pd.DataFrame:
    """Every vertex its own community: no subgraph has an internal edge, so
    Def. 2 keeps none, the shortcut table is empty and L_up is the whole
    graph."""
    return pd.DataFrame({"id": membership.id.to_numpy(), "sub": np.arange(len(membership))})
