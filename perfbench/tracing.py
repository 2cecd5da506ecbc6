"""Driver-side spans around the calls into each layer's public functions.

The tracer patches each function at the name its caller looks it up by, so
a span covers exactly one call into a layer. Spans are kept in memory and
written out when the run ends; every patched name is restored on exit.

Spark work is attributed with job groups: each span runs its call under a
fresh group, and on exit reads the group's job ids from the status
tracker. A span's jobs include those of its child spans. ``applyInPandas``
kernels run in Python workers the driver cannot see; their time is part
of the calling span.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import time
from dataclasses import dataclass, field

import pandas as pd


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    round: object  # timed round id, or "setup-<i>" for offline builds
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    jobs: list[int] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the time child spans cover (children of one span
        run one after another, never overlapping)."""
        return self.seconds - self.child_s

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent,
            "round": self.round, "start": self.start, "end": self.end,
            "self_s": self.self_s, "spark_jobs": len(self.jobs), **self.counts,
        }


# -- per-call counts --------------------------------------------------------
# Each measure gets (args, kwargs, result, before) where ``before`` is the
# (supersteps, activations) of the RunStats passed in, if any.

def _loop_counts(a, kw, res, before):
    stats = kw["stats"]
    return {
        "supersteps": stats.supersteps - before[0],
        "activations": stats.activations - before[1],
        "lup_vertices": len(a[2]),
        "lup_edges": len(a[1]),
    }


def _superstep_counts(a, kw, res, before):
    stats = res[1]
    return {
        "supersteps": stats.supersteps - before[0],
        "messages": stats.activations - before[1],
    }


def _update_layered_counts(a, kw, res, before):
    return {"affected_subgraphs": len(res[2]), "diff_rows": len(res[1])}


def _update_shortcuts_counts(a, kw, res, before):
    fresh = res[0]
    old = a[3][a[3]["sub"].isin(kw["subs"])]
    m = old.merge(fresh, on=["sub", "entry", "dst"], how="outer", suffixes=("_o", "_n"))
    changed = m.w_o.isna() | m.w_n.isna() | ((m.w_o - m.w_n).abs() > 1e-12)
    return {"rows_rewritten": len(fresh), "rows_changed": int(changed.sum())}


def _upload_counts(a, kw, res, before):
    members, injections = a[2], a[5]
    sub_of = members.set_index("id")["sub"]
    subs = sub_of.reindex(injections.index).dropna().nunique()
    return {"subgraphs": int(subs), "uploads": len(res[1]), "activations": int(res[2])}


def _min_revision_counts(a, kw, res, before):
    return {"reset_vertices": len(res[0]), "seeds": len(res[1])}


def _ingress_counts(a, kw, res, before):
    return {"supersteps": res[1].supersteps, "activations": res[1].activations}


def _compute_shortcuts_counts(a, kw, res, before):
    return {"rows": len(res[0])}


#: (module, attribute path at the call site, span name, counts).
TARGETS = [
    ("repro.layph.engine", "LayphEngine.run_delta", "layph.engine.run_delta", None),
    ("repro.layph.engine", "update_layered", "layph.layered.update_layered", _update_layered_counts),
    ("repro.layph.engine", "upload_messages", "layph.upload.upload_messages", _upload_counts),
    ("repro.layph.engine", "upper_sum_loop", "layph.upper.upper_sum_loop", _loop_counts),
    ("repro.layph.engine", "upper_min_loop", "layph.upper.upper_min_loop", _loop_counts),
    ("repro.layph.engine", "min_revision", "incremental.revision.min_revision", _min_revision_counts),
    ("repro.layph.engine", "compute_caches_min", "layph.engine.compute_caches_min", None),
    ("repro.layph.engine", "build_layered", "layph.layered.build_layered", None),
    ("repro.layph.engine", "converge", "engine.local.converge", None),
    ("repro.layph.layered", "update_shortcuts", "layph.shortcuts.update_shortcuts", _update_shortcuts_counts),
    ("repro.layph.layered", "compute_shortcuts", "layph.shortcuts.compute_shortcuts", _compute_shortcuts_counts),
    ("repro.layph.layered", "apply_plan", "layph.replication.apply_plan", None),
    ("repro.layph.layered", "compute_roles", "layph.structure.compute_roles", None),
    ("repro.layph.layered", "prepared_edge_diff", "incremental.revision.prepared_edge_diff", None),
    ("repro.layph.layered", "apply_delta", "graphs.updates.apply_delta", None),
    ("repro.engine.batch", "superstep_loop", "engine.batch.superstep_loop", _superstep_counts),
    ("repro.incremental.ingress", "ingress_incremental", "incremental.ingress.ingress_incremental", _ingress_counts),
    ("repro.incremental.ingress", "superstep_loop", "engine.batch.superstep_loop", _superstep_counts),
    ("repro.incremental.ingress", "min_revision", "incremental.revision.min_revision", _min_revision_counts),
    ("repro.incremental.ingress", "sum_revision", "incremental.revision.sum_revision", None),
    ("repro.incremental.ingress", "apply_delta", "graphs.updates.apply_delta", None),
    ("repro.incremental.revision", "prepared_edge_diff", "incremental.revision.prepared_edge_diff", None),
]


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        obj = getattr(obj, p)
    return obj, attr


class Tracer:
    """Records spans while ``enabled``; a disabled tracer adds one flag test
    per call. ``sc`` (a SparkContext) may be None, which skips job counts."""

    def __init__(self, sc=None, targets=TARGETS):
        self.sc = sc
        self.targets = targets
        self.spans: list[Span] = []
        self.enabled = False
        self.round: object = None
        self.overhead_s: dict = {}  # round id -> seconds spent in the tracer itself
        self._stack: list[Span] = []
        self._ids = itertools.count()

    # -- patching -------------------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore
        the original objects even if the block raises."""
        # Import every module before patching any: a module imported after
        # its source was patched would hold (and re-wrap) the wrapper.
        sites = [(_owner(module, path), name, counts) for module, path, name, counts in self.targets]
        saved = []
        try:
            for (owner, attr), name, counts in sites:
                orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig, counts))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    @contextlib.contextmanager
    def recording(self, round_id):
        """Trace the calls made inside the block under ``round_id``."""
        self.enabled, self.round = True, round_id
        try:
            yield
        finally:
            self.enabled, self.round = False, None

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            if not self.enabled:
                return fn(*a, **kw)
            t0 = time.perf_counter()
            parent = self._stack[-1] if self._stack else None
            span = Span(next(self._ids), name, parent.id if parent else None, self.round)
            stats = kw.get("stats")
            before = (stats.supersteps, stats.activations) if stats is not None else (0, 0)
            group = f"perfbench-{span.id}"
            self._set_group(group)
            self._stack.append(span)
            span.start = time.perf_counter()
            own = span.start - t0
            try:
                res = fn(*a, **kw)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self._set_group(f"perfbench-{parent.id}" if parent else None)
                span.jobs += self._group_jobs(group)
                if parent is not None:
                    parent.child_s += span.seconds
                    parent.jobs += span.jobs
                self.spans.append(span)
            if counts is not None:
                span.counts = counts(a, kw, res, before)
            own += time.perf_counter() - span.end
            self.overhead_s[span.round] = self.overhead_s.get(span.round, 0.0) + own
            return res

        return wrapper

    # -- Spark job accounting -------------------------------------------------
    def _set_group(self, group: str | None) -> None:
        if self.sc is None:
            return
        if group is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            self.sc.setJobGroup(group, group)

    def _group_jobs(self, group: str) -> list[int]:
        if self.sc is None:
            return []
        return list(self.sc.statusTracker().getJobIdsForGroup(group))

    def tasks(self, job_ids: list[int]) -> int:
        """Tasks over every stage of the given jobs."""
        if self.sc is None:
            return 0
        tracker = self.sc.statusTracker()
        n = 0
        for j in job_ids:
            info = tracker.getJobInfo(j)
            for s in info.stageIds if info else []:
                st = tracker.getStageInfo(s)
                n += st.numTasks if st else 0
        return n


def aggregate(spans: list[Span], rounds: list) -> pd.DataFrame:
    """Per span name: summed seconds, self seconds, jobs and counts over the
    spans recorded under ``rounds``, divided by the number of rounds."""
    keep = set(rounds)
    rows = [
        {"name": s.name, "s": s.seconds, "self_s": s.self_s,
         "spark_jobs": len(s.jobs), **s.counts}
        for s in spans if s.round in keep
    ]
    if not rows or not keep:
        return pd.DataFrame()
    df = pd.DataFrame(rows).groupby("name").sum(numeric_only=True)
    return df / len(keep)


def metric(table: pd.DataFrame, name: str, col: str) -> float:
    """One aggregated value, 0 when the layer never ran."""
    if name not in table.index or col not in table.columns:
        return 0.0
    v = table.at[name, col]
    return 0.0 if pd.isna(v) else float(v)


def ratio(num: float, den: float) -> float:
    return float(num / den) if den else 0.0

