"""The per-subgraph dispatch equals the kernel run directly on each
subgraph's rows."""
import numpy as np
import pandas as pd

from repro.layph.dispatch import per_subgraph

NAN = float("nan")


def _in_process(subs, tables, kernel):
    """Reference: the same kernel called directly on each subgraph's rows."""
    outs, acts = {}, 0
    for s in sorted(set(int(v) for v in subs)):
        t = {
            name: df[df["sub"] == s].drop(columns="sub").reset_index(drop=True)
            for name, df in tables.items()
        }
        frames, a = kernel(t)
        acts += a
        for name, f in frames.items():
            f.insert(0, "sub", np.int64(s))
            outs.setdefault(name, []).append(f)
    nonempty = {name: [f for f in fs if len(f)] or fs[:1] for name, fs in outs.items()}
    return {name: pd.concat(fs, ignore_index=True) for name, fs in nonempty.items()}, acts


def _tables():
    return {
        # sub 2 has entries but no intra edges; sub 3 appears only in `changed`.
        "edges": pd.DataFrame(
            {"sub": [0, 0, 1], "src": [10, 11, 20], "dst": [11, 10, 21], "w": [0.5, 0.25, 1.0]}
        ),
        "entries": pd.DataFrame({"sub": [0, 1, 2], "id": [10, 20, 30]}),
        "changed": pd.DataFrame(
            {
                "sub": [0, 1, 3],
                "src": [10, 20, 40],
                "dst": [11, 21, 41],
                "w_old": [NAN, 1.0, 2.0],  # insert, reweight, delete
                "w_new": [0.5, 0.75, NAN],
            }
        ),
    }


def test_matches_in_process_kernel_on_sparse_tables():
    def kernel(t):
        e = t["edges"]
        out = pd.DataFrame(
            {"id": t["entries"].id.to_numpy(np.int64), "wsum": float(e.w.sum())}
        )
        return {"summary": out, "changed": t["changed"]}, len(e) + len(t["changed"])

    tables, subs = _tables(), np.array([3, 0, 2, 1, 2])
    want, want_acts = _in_process(subs, tables, kernel)
    got, acts = per_subgraph(subs, tables, kernel)
    assert acts == want_acts == 6
    assert set(got) == {"summary", "changed"}
    for name in want:
        pd.testing.assert_frame_equal(got[name], want[name])
    # Sub 2 ran with an empty edge frame; sub 3 with no entries at all.
    assert got["summary"].set_index("sub").loc[2, "wsum"] == 0.0
    assert 3 not in set(got["summary"]["sub"])
    # Insert / delete rows keep their NaN through the round trip.
    ch = got["changed"].set_index("sub")
    assert np.isnan(ch.loc[0, "w_old"]) and np.isnan(ch.loc[3, "w_new"])
    assert ch.loc[1, "w_old"] == 1.0
    # The kernel handed back its input frame; the caller's table is untouched.
    pd.testing.assert_frame_equal(_tables()["changed"], tables["changed"])


def test_subs_outside_the_list_are_not_run():
    def kernel(t):
        return {"edges": t["edges"]}, len(t["edges"])

    got, acts = per_subgraph([1], _tables(), kernel)
    assert acts == 1
    assert got["edges"]["sub"].tolist() == [1]


def test_empty_output_for_every_subgraph():
    def kernel(t):
        return {"sc": pd.DataFrame({"entry": pd.Series(dtype=np.int64),
                                    "w": pd.Series(dtype=float)})}, 0

    tables = _tables()
    want, _ = _in_process([0, 1, 2], tables, kernel)
    got, acts = per_subgraph([0, 1, 2], tables, kernel)
    assert acts == 0
    assert list(got["sc"].columns) == ["sub", "entry", "w"] and len(got["sc"]) == 0
    pd.testing.assert_frame_equal(got["sc"], want["sc"])


def test_empty_subs_start_no_spark_job():
    def kernel(t):
        raise AssertionError("kernel ran")

    assert per_subgraph(np.array([], np.int64), _tables(), kernel) == ({}, 0)
