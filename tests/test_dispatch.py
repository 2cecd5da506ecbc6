"""The min update of ``update_shortcuts`` over several sparse subgraphs
equals a fresh ``compute_shortcuts`` on the new tables, and runs only the
subgraphs it is given."""
import numpy as np
import pandas as pd

from repro.engine import algorithms as alg
from repro.engine import local
from repro.layph.shortcuts import compute_shortcuts, update_shortcuts
from tests.blocks import table_cells

NAN = float("nan")
ALGO = alg.sssp(source=0)
COLS = ["sub", "entry", "dst", "w"]


def _tables():
    """Sub 0 gains an insert, sub 1 a reweight and a delete; sub 2 has an
    entry but no intra edges; sub 3 appears only in `changed` and has no
    entry; sub 4 has an entry and a change."""
    old_edges = pd.DataFrame(
        {
            "sub": [0, 0, 1, 1, 1, 3, 4],
            "src": [10, 11, 20, 21, 20, 50, 40],
            "dst": [11, 12, 21, 22, 22, 51, 41],
            "w": [1.0, 2.0, 1.0, 1.0, 5.0, 1.0, 1.0],
        }
    )
    changed = pd.DataFrame(
        {
            "sub": [0, 1, 1, 3, 4],
            "src": [10, 20, 21, 50, 40],
            "dst": [12, 21, 22, 51, 42],
            "w_old": [NAN, 1.0, 1.0, 1.0, NAN],  # insert, reweight, delete, ...
            "w_new": [1.5, 0.5, NAN, NAN, 2.0],
        }
    )
    entries = pd.DataFrame({"id": [10, 20, 30, 40], "sub": [0, 1, 2, 4]})
    new_edges = old_edges.merge(
        changed[["src", "dst"]], how="left", indicator=True
    ).query("_merge == 'left_only'").drop(columns="_merge")
    new_edges = pd.concat(
        [new_edges, changed.dropna(subset=["w_new"]).rename(columns={"w_new": "w"})[
            ["sub", "src", "dst", "w"]
        ]],
        ignore_index=True,
    )
    # Sub 2's entry has no old row, as a newly promoted entry.
    old_entries = entries[entries["sub"] != 2]
    old_sc, _ = compute_shortcuts(
        old_edges, old_entries, ALGO, cells=table_cells(old_edges, old_entries)
    )
    return new_edges, entries, old_sc, changed


def _fresh(subs, new_edges, entries, old_sc, changed):
    """Reference: a fresh deduction on the new tables, exact for min rows."""
    entries = entries[entries["sub"].isin(subs)]
    want, _ = compute_shortcuts(new_edges, entries, ALGO, cells=table_cells(new_edges, entries))
    return want


def _assert_typed_empty(got):
    assert len(got) == 0 and list(got.columns) == COLS
    assert got.dtypes.to_dict() == {
        "sub": np.int64, "entry": np.int64, "dst": np.int64, "w": np.float64,
    }


def test_matches_in_process_kernel_on_sparse_tables():
    tables = _tables()
    subs = np.array([3, 0, 2, 1, 2])
    want = _fresh(subs, *tables)
    got, acts = update_shortcuts(None, *tables, ALGO, subs=subs, cells=table_cells(*tables))
    pd.testing.assert_frame_equal(got, want)
    assert acts == 3  # recorded when each subgraph ran its own kernel call
    # Sub 2 ran with an empty edge slice and its entry reaches nothing; sub 3
    # has no entry at all.
    assert set(got["sub"]) == {0, 1}
    # The insert, reweight and delete rows of `changed` all took effect.
    assert got.set_index(["entry", "dst"]).w.to_dict() == {
        (10, 11): 1.0, (10, 12): 1.5, (20, 21): 0.5, (20, 22): 5.0,
    }
    # The caller's tables are untouched, NaN rows included.
    for before, after in zip(_tables(), tables):
        pd.testing.assert_frame_equal(before, after)


def test_subs_outside_the_list_are_not_run():
    tables = _tables()
    want = _fresh([1], *tables)
    got, acts = update_shortcuts(
        None, *tables, ALGO, subs=np.array([1]), cells=table_cells(*tables)
    )
    pd.testing.assert_frame_equal(got, want)
    assert acts == 2  # recorded when each subgraph ran its own kernel call
    assert set(got["sub"]) == {1}
    # Sub 4 has an entry and a change, but is outside this `subs` too.
    got, _ = update_shortcuts(
        None, *tables, ALGO, subs=np.array([0, 1, 2, 3]), cells=table_cells(*tables)
    )
    assert 4 not in set(got["sub"])


def test_empty_output_for_every_subgraph():
    # Sub 2's only entry has no intra edges: the pass runs, but every
    # subgraph's output is empty.
    tables = _tables()
    want = _fresh([2], *tables)
    got, acts = update_shortcuts(
        None, *tables, ALGO, subs=np.array([2]), cells=table_cells(*tables)
    )
    assert acts == 0
    _assert_typed_empty(got)
    pd.testing.assert_frame_equal(got, want)


def test_empty_subs_start_no_spark_job(monkeypatch):
    def kernel(*args, **kwargs):
        raise AssertionError("kernel ran")

    tables = _tables()  # built by the pass, so before it is patched
    monkeypatch.setattr(local, "_pass_chunk", kernel)
    # No Spark session is given; subs that are empty or hold no entry run no
    # pass chunk and return a table typed like a filled one.
    for subs in (np.array([], np.int64), np.array([3, 5])):
        got, acts = update_shortcuts(
            None, *tables, ALGO, subs=subs, cells=table_cells(*tables)
        )
        assert acts == 0
        _assert_typed_empty(got)
