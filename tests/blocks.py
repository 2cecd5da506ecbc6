"""A batch run through the local kernel, one subgraph's shortcut tables
through the engine's own pass, the cell universe the pass once derived
from its tables, a membership that keeps no subgraph, and the upload and
the L_up sum loop called by id."""
import numpy as np
import pandas as pd

from repro.engine import batch
from repro.engine.local import LocalRun, converge, shortcut_pass
from repro.graphs.schema import vertex_ids
from repro.layph.slots import Messages
from repro.layph.structure import Members
from repro.layph.upload import upload_messages
from repro.layph.upper import UpperGraph, upper_sum_loop


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


def upload_by_id(spark, intra, members, is_boundary, states, injections, algo):
    """``upload_messages`` on small non-negative ids, each id its own slot:
    ``intra`` a frame by id, ``states`` an id-indexed Series (a member
    without one starts from the zero state). Returns every member's state
    after the upload, in member order, the uploads and the activations, as
    id-indexed Series and an int."""
    mid = members.id.to_numpy(np.int64)
    inj = injections.index.to_numpy(np.int64)
    ids = np.concatenate([mid, states.index.to_numpy(np.int64), inj])
    x = np.full(int(ids.max(initial=-1)) + 1, algo.zero_state)
    x[states.index.to_numpy(np.int64)] = states.to_numpy(float)
    cells = Members(mid, members["sub"].to_numpy(np.int64), mid)
    table = {c: intra[c].to_numpy() for c in ("src", "dst", "w", "sub")}
    x, up, acts = upload_messages(
        spark, table, members, is_boundary, x, injections, algo, cells, inj)
    return pd.Series(x[mid], index=mid), pd.Series(up.m, index=up.at), acts


def upper_sum_by_id(spark, up, x, pend_orig, pend_sc, entries, algo, *, stats):
    """``upper_sum_loop`` by id: ``up`` a frame (``src, dst, w, etype``),
    ``x`` an id-indexed Series, the pending messages id-indexed Series and
    ``entries`` ids; each id's slot is its position in ``x``. Rows sending
    from outside ``x`` are dropped, the original ones go first, stably.
    Returns the states in ``x``'s order, and the Δcache's ids and values."""
    ids = x.index.to_numpy(np.int64)
    at = np.arange(len(ids))

    def pos(v):
        return batch.positions(x.index, np.asarray(v, np.int64))

    src, dst = pos(up.src), pos(up.dst)
    sends = np.flatnonzero(src >= 0)
    etype = up.etype.to_numpy()[sends]
    sends = sends[np.argsort(etype, kind="stable")]
    g = UpperGraph(at, ids, np.append(at, -1), src[sends], dst[sends],
                   up.w.to_numpy(float)[sends], int(np.count_nonzero(etype == 0)))
    xs, got, dcache = upper_sum_loop(
        spark, g, x.to_numpy(float), Messages(pos(pend_orig.index), pend_orig.to_numpy(float)),
        Messages(pos(pend_sc.index), pend_sc.to_numpy(float)), pos(entries), algo, stats=stats,
    )
    return xs, ids[got], dcache
