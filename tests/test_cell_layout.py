"""The shortcut pass laid out on the frozen membership equals the pass laid
out on the universe its tables name, and a sum update copies edges only
for the rows that hold an active cell.

The reference universe is the one the pass once derived from its tables
on every call (``tests.blocks.table_cells``): per subgraph, every id the
intra edges, entries, old rows and changed edges name. The membership adds
members no table names and keeps a deleted member; neither may change a
row, a weight or an activation.
"""
import numpy as np
import pandas as pd
import pytest

from repro.engine import algorithms as alg
from repro.engine import local
from repro.engine.local import shortcut_pass
from repro.graphs.generators import dataset
from repro.graphs.updates import random_vertex_delta
from repro.incremental.revision import prepared_edge_diff
from repro.layph import layered
from repro.layph.layered import build_layered, update_layered
from repro.layph.structure import Members
from tests.blocks import table_cells
from tests.test_flattened_pass import _dense_update_sum

COLS = ["sub", "entry", "dst", "w"]
ALGOS = {"sum": lambda: alg.pagerank(d=0.85, tol=1e-6), "min": lambda: alg.sssp(source=0)}


def _edges(sub, rows):
    src, dst, w = zip(*rows)
    return pd.DataFrame({"sub": sub, "src": src, "dst": dst, "w": np.array(w, float)})


# Subgraph 0: entries 0 and 3; member 9 is named by no table. Subgraph 1:
# entries 10 and 14; member 13 is deleted, so its edges change and its old
# rows go. Subgraph 2: entry 20 and member 29, named by no table.
OLD = pd.concat([
    _edges(0, [(0, 1, 0.5), (1, 2, 0.4), (2, 0, 0.3), (3, 2, 0.6), (2, 4, 0.4)]),
    _edges(1, [(10, 11, 0.5), (11, 13, 0.6), (13, 12, 0.7), (14, 13, 0.5), (12, 10, 0.2)]),
    _edges(2, [(20, 21, 0.8), (21, 22, 0.9)]),
], ignore_index=True)
NEW = pd.concat([
    _edges(0, [(0, 1, 0.5), (1, 2, 0.4), (2, 0, 0.3), (3, 2, 0.6), (2, 4, 0.2), (4, 3, 0.5)]),
    _edges(1, [(10, 11, 0.5), (11, 12, 0.3), (12, 10, 0.2), (14, 11, 0.5)]),
    _edges(2, [(20, 21, 0.8), (21, 22, 0.9)]),
], ignore_index=True)
ENTRIES = pd.DataFrame({"id": [0, 3, 10, 14, 20], "sub": [0, 0, 1, 1, 2]})
MEMBERS = pd.DataFrame({
    "id": [0, 1, 2, 3, 4, 9, 10, 11, 12, 13, 14, 20, 21, 22, 29],
    "sub": [0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2],
})


def _membership_cells():
    return Members(MEMBERS.id.to_numpy(np.int64), MEMBERS["sub"].to_numpy(np.int64)).sub_major()


def _changed():
    old, new = (e.drop(columns="sub") for e in (OLD, NEW))
    diff = prepared_edge_diff(old.sort_values(["src", "dst"]), new.sort_values(["src", "dst"]))
    return diff.assign(sub=MEMBERS.set_index("id")["sub"].reindex(diff.src).to_numpy())


def _old_kept_then_fresh(old):
    """The old table as ``update_layered`` leaves it: subgraph 0's rows
    after the others, as if they were fresh and the others kept."""
    return pd.concat([old[old["sub"] != 0], old[old["sub"] == 0]], ignore_index=True)


def _assert_bytes_equal(got, want):
    assert list(got.columns) == COLS and len(got) == len(want)
    for c in COLS:
        assert got[c].to_numpy().tobytes() == want[c].to_numpy().tobytes(), c


def test_membership_cells_are_sub_major_and_cover_more_than_the_tables():
    cells = _membership_cells()
    assert (np.diff(cells.sub) >= 0).all()
    assert all((np.diff(cells.id[cells.sub == s]) > 0).all() for s in (0, 1, 2))
    named = set(table_cells(NEW, ENTRIES, changed=_changed()).id.tolist())
    assert {9, 29} <= set(cells.id.tolist()) - named  # members no table names


@pytest.mark.parametrize("branch", ["sum", "min"])
def test_deduction_on_membership_equals_table_universe(branch):
    algo = ALGOS[branch]()
    want, want_acts = shortcut_pass(OLD, ENTRIES, algo, cells=table_cells(OLD, ENTRIES))
    got, acts = shortcut_pass(OLD, ENTRIES, algo, cells=_membership_cells())
    _assert_bytes_equal(got, want)
    assert acts == want_acts > 0
    assert {9, 29}.isdisjoint(got.dst)


@pytest.mark.parametrize("branch", ["sum", "min"])
def test_update_on_membership_equals_table_universe(branch):
    algo = ALGOS[branch]()
    old, _ = shortcut_pass(OLD, ENTRIES, algo, cells=_membership_cells())
    old = _old_kept_then_fresh(old)
    assert (np.diff(old["sub"].to_numpy()) < 0).any()  # not in sub order
    changed = _changed()
    # The deleted member 13 has old rows and changed edges.
    assert 13 in set(old.dst) and 13 in set(changed.src) | set(changed.dst)
    assert 13 not in set(NEW.src) | set(NEW.dst)
    tables = dict(old=old, changed=changed)
    want, want_acts = shortcut_pass(
        NEW, ENTRIES, algo, cells=table_cells(NEW, ENTRIES, old, changed), **tables
    )
    got, acts = shortcut_pass(NEW, ENTRIES, algo, cells=_membership_cells(), **tables)
    _assert_bytes_equal(got, want)
    assert acts == want_acts > 0


def test_tables_naming_a_non_member_raise():
    cells = Members(np.array([0, 1, 2, 3], np.int64), np.zeros(4, np.int64))
    with pytest.raises(ValueError, match="outside its subgraph"):
        shortcut_pass(OLD[OLD["sub"] == 0], ENTRIES[ENTRIES["sub"] == 0], ALGOS["sum"](),
                      cells=cells)


@pytest.mark.parametrize("name", ["pagerank", "sssp"])
def test_update_layered_passes_equal_table_universe(monkeypatch, no_spark, name):
    """Every pass ``update_layered`` runs, vertex deletions included, gives
    what the same tables give on their own universe."""
    edges, membership = dataset("uk_lite", sf=0.002, seed=0)
    algo = alg.pagerank(d=0.85, tol=1e-10) if name == "pagerank" else alg.sssp(source=0)
    lg, _ = build_layered(no_spark, edges, algo, membership=membership)
    calls = []
    update = layered.update_shortcuts

    def recorded(spark, intra, entries, old, changed, algo, *, subs, cells, tol):
        got = update(spark, intra, entries, old, changed, algo, subs=subs, cells=cells, tol=tol)
        mine = np.isin(entries["sub"], subs)
        entries = {c: np.asarray(entries[c])[mine] for c in ("sub", "id")}
        want = shortcut_pass(
            intra, entries, algo, old=old, changed=changed, tol=tol,
            cells=table_cells(intra, entries, old, changed),
        )
        calls.append((got, want))
        return got

    monkeypatch.setattr(layered, "update_shortcuts", recorded)
    cur, deleted = edges, 0
    for r in range(6):
        delta = random_vertex_delta(cur, n_add=2, n_del=3, seed=40 + r)
        deleted += len(delta.deleted_vertices)
        lg, _, _, _ = update_layered(no_spark, lg, delta, tol=algo.tol)
        cur = lg.base_edges
        members = set(lg.members.id.tolist())
        assert set(lg.shortcuts.dst.tolist()) <= members
    assert deleted > 0 and len(calls) == 6
    for (got, acts), (want, want_acts) in calls:
        _assert_bytes_equal(got, want)
        assert acts == want_acts


def test_sum_update_copies_edges_only_for_live_rows(monkeypatch):
    """Entry 0's row takes a correction above tol; entry 10's takes one
    below tol and entry 20's none: only entry 0's row gets edges, and every
    row comes back as a run of every row gives it."""
    algo = alg.pagerank(d=0.85, tol=1e-3)
    old_e = _edges(0, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 4, 0.5), (10, 11, 0.5),
                       (11, 2, 0.01), (20, 21, 0.5)])
    new_e = old_e.assign(w=np.where((old_e.src == 2) & (old_e.dst == 3), 0.6, old_e.w))
    entries = pd.DataFrame({"id": [0, 10, 20], "sub": 0})
    cells = table_cells(new_e, entries)
    old, _ = shortcut_pass(old_e, entries, algo, cells=cells)
    changed = prepared_edge_diff(old_e.drop(columns="sub"), new_e.drop(columns="sub"))
    changed = changed.assign(sub=0)
    d_10_2 = old.set_index(["entry", "dst"]).w[(10, 2)]
    assert 0 < d_10_2 * 0.1 <= algo.tol < old.set_index(["entry", "dst"]).w[(0, 2)] * 0.1

    copied = []
    propagate = local.batch.propagate

    def counted(x, pend, src, *a, **kw):
        copied.append(len(src))
        return propagate(x, pend, src, *a, **kw)

    monkeypatch.setattr(local.batch, "propagate", counted)
    got, acts = shortcut_pass(new_e, entries, algo, cells=cells, old=old, changed=changed)
    assert copied == [len(new_e)] and copied[0] < len(entries) * len(new_e)

    want, want_acts = _dense_update_sum(
        new_e.drop(columns="sub"), entries.id.to_numpy(), old.drop(columns="sub"),
        changed.drop(columns="sub"), algo.tol,
    )
    pd.testing.assert_frame_equal(
        got.drop(columns="sub").reset_index(drop=True), want, check_exact=True, check_dtype=False
    )
    assert acts == want_acts > 0
    # Entry 10's row kept its sub-tol correction without propagating it.
    row = got[got.entry == 10].set_index("dst").w
    assert row[3] == old.set_index(["entry", "dst"]).w[(10, 3)] + d_10_2 * (0.6 - 0.5)
