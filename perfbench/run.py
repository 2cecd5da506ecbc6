"""Closed-loop ΔG benchmark of the Layph reproduction.

One client drives a Layph engine, or Ingress, through a seeded stream of
ΔG batches, submitting the next batch when the previous call returns.
Every round is checked against ``repro.reference`` on G ⊕ ΔG outside the
timed region. Run from the repository root:

    python3 perfbench/run.py --workload uk-pagerank-edges --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 15

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. The last line of standard output is one JSON object; the full record
of a run (every round, and every span when traced) goes to ``.bench_work/``.
Pinned inputs live in ``spec.json`` beside this file.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
INPUTS = SPEC["inputs"]

#: Gated end-to-end metrics: (name, unit).
END_TO_END = [
    ("round_p50_s", "s"),
    ("round_tail_s", "s"),
    ("setup_s", "s"),
    ("round_ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
]

_LOOP = ["s", "supersteps", "activations", "spark_jobs", "lup_vertices", "lup_edges", "s_per_superstep"]

#: Per-layer metrics of a traced run: (name, unit). The ``round.*`` counts
#: cover the whole round; they vary too much between seeds to carry a bound.
PER_LAYER = (
    [("round.activations", "count"), ("round.supersteps", "count"),
     ("round.updates_per_s", "1/s"),
     ("layph.engine.run_delta.s", "s"), ("layph.engine.run_delta.self_s", "s")]
    + [(f"layph.engine.phase.{p}_s", "s") for p in ("layered_update", "upload", "upper", "assign")]
    + [("layph.engine.phase.unaccounted_frac", "ratio"), ("layph.engine.compute_caches_min.s", "s")]
    + [(f"layph.upper.{f}.{m}", "s" if m in ("s", "s_per_superstep") else "count")
       for f in ("upper_sum_loop", "upper_min_loop") for m in _LOOP]
    + [("layph.upper.upper_min_loop.self_s", "s")]
    + [(f"engine.batch.superstep_loop.{m}", "s" if m == "s" else "count")
       for m in ("s", "supersteps", "messages", "spark_jobs")]
    + [("layph.layered.update_layered.s", "s"), ("layph.layered.update_layered.self_s", "s")]
    + [(f"layph.layered.update_layered.{m}", "count")
       for m in ("spark_jobs", "affected_subgraphs", "diff_rows")]
    + [("layph.shortcuts.update_shortcuts.s", "s")]
    + [(f"layph.shortcuts.update_shortcuts.{m}", "count")
       for m in ("spark_jobs", "rows_rewritten", "rows_changed")]
    + [("layph.shortcuts.update_shortcuts.useful_ratio", "ratio"),
       ("layph.replication.apply_plan.s", "s"), ("layph.structure.compute_roles.s", "s"),
       ("layph.upload.upload_messages.s", "s")]
    + [(f"layph.upload.upload_messages.{m}", "count")
       for m in ("spark_jobs", "subgraphs", "uploads", "activations")]
    + [("incremental.revision.min_revision.s", "s"),
       ("incremental.revision.min_revision.reset_vertices", "count"),
       ("incremental.revision.min_revision.seeds", "count"),
       ("incremental.revision.sum_revision.s", "s"),
       ("incremental.revision.prepared_edge_diff.s", "s"),
       ("incremental.ingress.ingress_incremental.s", "s"),
       ("incremental.ingress.ingress_incremental.self_s", "s")]
    + [(f"incremental.ingress.ingress_incremental.{m}", "count")
       for m in ("supersteps", "activations", "spark_jobs")]
    + [("graphs.updates.apply_delta.s", "s"),
       ("layph.layered.build_layered.s", "s"), ("layph.layered.build_layered.spark_jobs", "count"),
       ("layph.shortcuts.compute_shortcuts.s", "s"),
       ("layph.shortcuts.compute_shortcuts.spark_jobs", "count"),
       ("layph.shortcuts.compute_shortcuts.rows", "count"),
       ("engine.local.converge.s", "s"), ("engine.local.converge.spark_jobs", "count"),
       ("layering.lup_vertex_share", "ratio"), ("layering.upper_edges", "count"),
       ("layering.shortcut_rows", "count"), ("layering.n_proxies", "count"),
       ("spark.jobs_per_round", "count"), ("spark.tasks_per_round", "count"),
       ("spark.jvm_peak_rss_mb", "MB"),
       ("bench.oracle_s", "s"), ("bench.delta_gen_s", "s"),
       ("bench.tracing_overhead_frac", "ratio")]
)

PER_LAYER_UNITS = dict(PER_LAYER)

#: The span that covers a whole round, per engine.
TOP_SPANS = {"layph": "layph.engine.run_delta", "ingress": "incremental.ingress.ingress_incremental"}

#: Spans of the offline build, averaged per set-up rather than per round.
OFFLINE_SPANS = {"layph.layered.build_layered", "layph.shortcuts.compute_shortcuts", "engine.local.converge"}


# ---------------------------------------------------------------------------
# Process set-up: the program under test, and a Spark that stays in the checkout
# ---------------------------------------------------------------------------

def bootstrap(work: Path) -> None:
    """Put ``src/`` on the path for this process and Spark's Python workers,
    and keep every temporary file under ``work``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {src}/repro not found; run from a full checkout")
    sys.path.insert(0, str(src))
    for d in ("spark", "tmp"):
        (work / d).mkdir(parents=True, exist_ok=True)
    cores = min(INPUTS["spark_cores"], os.cpu_count() or 1)
    old = os.environ.get("PYTHONPATH")
    os.environ.update(
        PYTHONPATH=str(src) + (os.pathsep + old if old else ""),
        PYSPARK_PYTHON=sys.executable,
        PYSPARK_DRIVER_PYTHON=sys.executable,
        SPARK_LOCAL_DIRS=str(work / "spark"),
        TMPDIR=str(work / "tmp"),
        # No hsperfdata files in the system temp directory, from either JVM.
        SPARK_LAUNCHER_OPTS="-XX:-UsePerfData",
        PYSPARK_SUBMIT_ARGS=(
            f"--master local[{cores}] --driver-memory {INPUTS['driver_memory']} "
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
            f"--driver-java-options '-XX:-UsePerfData -Djava.io.tmpdir={work / 'tmp'}' "
            "pyspark-shell"
        ),
    )


def start_spark(work: Path):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(INPUTS["shuffle_partitions"]))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", INPUTS["auto_broadcast_join_threshold"])
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.retainedJobs", "10000")
        .config("spark.ui.retainedStages", "10000")
        .config("spark.sql.warehouse.dir", str(work / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> float:
    """Stop Spark, end the JVM and wait for it. Returns the largest resident
    set of any child process (the JVM) in MB."""
    proc = spark.sparkContext._gateway.proc
    spark.stop()
    proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# The two clients: Layph owns its graph; Ingress is handed it every round
# ---------------------------------------------------------------------------

class LayphClient:
    def __init__(self, spark, stream, algo):
        self.spark, self.stream, self.algo = spark, stream, algo
        self.engine = None

    def setup(self) -> None:
        from repro.layph.engine import LayphEngine

        self.engine = LayphEngine(
            self.spark, self.stream.edges, self.algo, membership=self.stream.membership
        ).initialize()

    def step(self, delta, edges):
        return self.engine.run_delta(delta)

    def health(self) -> dict:
        s = self.engine.lg.sizes()
        return {
            "lup_vertex_share": s["upper_vertices"] / max(1, s["orig_vertices"]),
            "upper_edges": s["upper_edges"],
            "shortcut_rows": s["shortcut_rows"],
            "n_proxies": s["n_proxies"],
        }


class IngressClient:
    def __init__(self, spark, stream, algo):
        self.spark, self.stream, self.algo = spark, stream, algo
        self.states = None

    def setup(self) -> None:
        from repro.experiments.common import batch_states

        self.states = batch_states(self.stream.edges, self.algo)

    def step(self, delta, edges):
        from repro.incremental import ingress

        self.states, stats = ingress.ingress_incremental(
            self.spark, edges, delta, self.states, self.algo, tol=self.algo.tol
        )
        return self.states, stats

    def health(self) -> dict:
        return {}


CLIENTS = {"layph": LayphClient, "ingress": IngressClient}


def make_algo(name: str):
    from repro.engine import algorithms as alg

    if name == "sssp":
        return alg.sssp(source=INPUTS["sssp_source"], tol=INPUTS["tol"])
    return alg.pagerank(d=INPUTS["damping"], tol=INPUTS["tol"])


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(spark, wl, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, replay the stream, check every round. Returns the raw record."""
    from checks import check_round
    from repro.graphs.updates import apply_delta
    from streams import make_stream
    from summary import RoundLog, timing_done
    from tracing import Tracer

    warmup, min_timed = INPUTS["warmup_rounds"], INPUTS["min_timed_rounds"]
    t = time.perf_counter()
    stream = make_stream(
        wl.dataset, wl.batch, seed=seed, sf=INPUTS["sf"], graph_seed=INPUTS["graph_seed"],
        n_rounds=warmup + max(min_timed, math.ceil(INPUTS["stream_rounds_per_second"] * seconds)),
        vertex_adds=INPUTS["vertex_adds"], vertex_dels=INPUTS["vertex_dels"],
    )
    gen_s = time.perf_counter() - t
    algo = make_algo(wl.algo)
    tracer = Tracer(spark.sparkContext) if trace else None

    def recording(round_id, on):
        return tracer.recording(round_id) if on else contextlib.nullcontext()

    client = CLIENTS[wl.engine](spark, stream, algo)
    log = RoundLog()
    setup_times: list[float] = []
    with tracer.installed() if tracer else contextlib.nullcontext():
        # The first set-up is cold: it also starts Spark's Python workers
        # while the JVM is still compiling. It stays out of setup_s.
        t = time.perf_counter()
        client.setup()
        cold_setup_s = time.perf_counter() - t

        g, deleted, spent = stream.edges, set(), 0.0
        for r, delta in enumerate(stream.deltas):
            timed = r >= warmup
            if timed and timing_done(r - warmup, spent, seconds, min_timed):
                break
            traced = tracer is not None and timed
            g_next = apply_delta(g, delta)
            try:
                with recording(r, traced):
                    t = time.perf_counter()
                    states, stats = client.step(delta, g)
                    dt = time.perf_counter() - t
            except Exception as e:  # a raising round ends the stream, with its cause
                traceback.print_exc(file=sys.stderr)
                log.add(round_id=r, timed=timed, seconds=None, ok=False,
                        cause=f"raised {type(e).__name__}: {e}"[:500])
                break
            if timed:
                spent += dt
            deleted |= set(int(v) for v in delta.deleted_vertices)
            t = time.perf_counter()
            chk = check_round(states, g_next, algo, deleted=deleted, convergences=r + 2)
            oracle_s = time.perf_counter() - t
            rec = log.add(
                round_id=r, timed=timed, seconds=dt,
                activations=int(stats.activations), supersteps=int(stats.supersteps),
                updates=int(delta.size), phases=dict(stats.phase_seconds),
                oracle_s=oracle_s, **chk,
            )
            if traced:
                top = [s for s in tracer.spans if s.round == r and s.parent is None]
                rec["spark_tasks"] = sum(tracer.tasks(s.jobs) for s in top)
                rec["health"] = client.health()
            g = g_next

        # setup_s is timed after the rounds, when the JVM is warm, on spare
        # clients the stream never uses. Cheap set-ups repeat until they add
        # up to a measurable time.
        while len(setup_times) < INPUTS["setup_reps"] or (
            sum(setup_times) < INPUTS["setup_min_s"]
            and len(setup_times) < INPUTS["setup_max_reps"]
        ):
            spare = CLIENTS[wl.engine](spark, stream, algo)
            with recording(f"setup-{len(setup_times)}", tracer is not None):
                t = time.perf_counter()
                spare.setup()
                setup_times.append(time.perf_counter() - t)
    return {
        "workload": wl.name, "seed": seed, "trace": trace, "stream": stream.digest(),
        "stream_rounds": len(stream.deltas), "delta_gen_s": gen_s,
        "cold_setup_s": cold_setup_s, "setup_times": setup_times, "log": log, "tracer": tracer,
    }


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------

def end_to_end(raw: dict) -> tuple[dict, dict]:
    """Gated metrics plus the informational extras printed beside them."""
    from summary import tail_percentile

    log = raw["log"]
    timed = log.timed()
    times = [r["seconds"] for r in timed]
    pct, tail = tail_percentile(times) if times else (0.0, 0.0)
    metrics = {
        "round_p50_s": statistics.median(times) if times else 0.0,
        "round_tail_s": tail,
        "setup_s": statistics.median(raw["setup_times"]),
        "round_ok_frac": 1.0 - log.fail_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extras = {
        "round_fail_frac": log.fail_frac,
        "cold_setup_s": raw["cold_setup_s"],
        "round_tail_percentile": pct,
        "timed_rounds": len(times),
        **round_counts(timed),
        "max_abs_error_last": log.rounds[-1].get("max_abs") if log.rounds else None,
        "l1_error_last": log.rounds[-1].get("l1") if log.rounds else None,
    }
    return metrics, extras


def round_counts(timed: list[dict]) -> dict:
    """Whole-round work: mean activations and supersteps per timed round,
    and unit updates applied per second of response time."""
    if not timed:
        return {"round.activations": 0.0, "round.supersteps": 0.0, "round.updates_per_s": 0.0}
    return {
        "round.activations": statistics.fmean(r["activations"] for r in timed),
        "round.supersteps": statistics.fmean(r["supersteps"] for r in timed),
        "round.updates_per_s": sum(r["updates"] for r in timed) / sum(r["seconds"] for r in timed),
    }


def per_layer(raw: dict, wl, jvm_rss_mb: float) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, all means per timed round (offline
    ones per traced set-up)."""
    from tracing import aggregate, metric, ratio

    log, tracer = raw["log"], raw["tracer"]
    timed = log.timed()
    rounds = [r["round"] for r in timed]
    setups = [f"setup-{i}" for i in range(len(raw["setup_times"]))]
    tab = aggregate(tracer.spans, rounds)
    off = aggregate(tracer.spans, setups)

    def mean(key, sub=None):
        vals = [(r.get(key) or {}).get(sub, 0.0) if sub else r.get(key, 0.0) for r in timed]
        return statistics.fmean(vals) if vals else 0.0

    out = round_counts(timed)
    for name, _ in PER_LAYER[len(out):]:
        fn, _, col = name.rpartition(".")
        out[name] = metric(off if fn in OFFLINE_SPANS else tab, fn, col)
    phases = {p: mean("phases", p) for p in ("layered_update", "upload", "upper", "assign")}
    for p, v in phases.items():
        out[f"layph.engine.phase.{p}_s"] = v
    rd = out["layph.engine.run_delta.s"]
    out["layph.engine.phase.unaccounted_frac"] = 1.0 - ratio(sum(phases.values()), rd) if rd else 0.0
    for f in ("upper_sum_loop", "upper_min_loop"):
        n = f"layph.upper.{f}"
        out[f"{n}.s_per_superstep"] = ratio(metric(tab, n, "s"), metric(tab, n, "supersteps"))
    n = "layph.shortcuts.update_shortcuts"
    out[f"{n}.useful_ratio"] = ratio(metric(tab, n, "rows_changed"), metric(tab, n, "rows_rewritten"))
    for k in ("lup_vertex_share", "upper_edges", "shortcut_rows", "n_proxies"):
        out[f"layering.{k}"] = mean("health", k)
    out["spark.jobs_per_round"] = metric(tab, TOP_SPANS[wl.engine], "spark_jobs")
    out["spark.tasks_per_round"] = mean("spark_tasks")
    out["spark.jvm_peak_rss_mb"] = jvm_rss_mb
    oracle = [r["oracle_s"] for r in log.rounds if "oracle_s" in r]
    out["bench.oracle_s"] = statistics.fmean(oracle) if oracle else 0.0
    out["bench.delta_gen_s"] = raw["delta_gen_s"] / max(1, raw["stream_rounds"])
    # Traced round time over the same time less the tracer's own work.
    busy = sum(r["seconds"] for r in timed)
    out["bench.tracing_overhead_frac"] = ratio(busy, busy - sum(tracer.overhead_s.get(r, 0.0) for r in rounds))
    margin = SPEC["tracing"]["phase_margin"]
    unacc = out["layph.engine.phase.unaccounted_frac"]
    extras = {
        "traced_rounds": len(rounds),
        "phase_check": "n/a" if not rd else ("ok" if abs(unacc) <= margin else f"over margin {margin}"),
    }
    return {k: out[k] for k, _ in PER_LAYER}, extras


def write_record(work: Path, raw: dict, metrics: dict, extras: dict) -> Path:
    tag = f"{raw['workload']}-seed{raw['seed']}-trace{int(raw['trace'])}"
    path = work / f"{tag}.json"
    rec = {k: v for k, v in raw.items() if k not in ("log", "tracer")}
    rec.update(metrics=metrics, extras=extras, rounds=raw["log"].rounds)
    if raw["tracer"] is not None:
        rec["spans"] = [s.to_dict() for s in raw["tracer"].spans]
    path.write_text(json.dumps(rec, indent=1, default=float))
    return path


def report(name: str, metrics: dict, units: dict, extras: dict, log) -> None:
    for k, v in metrics.items():
        print(f"{name} {k} = {v:.6g} {units[k]}")
    for k, v in extras.items():
        print(f"{name} {k} = {v}")
    for r in log.failures:
        print(f"{name} FAILED round {r['round']}: {r['cause']}")


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    work = ROOT / ".bench_work"
    bootstrap(work)
    from streams import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = PER_LAYER_UNITS if args.trace else dict(END_TO_END)

    spark = start_spark(work)
    try:
        raws = [run_workload(spark, WORKLOADS[n], args.seed, args.seconds, bool(args.trace))
                for n in names]
    finally:
        jvm_rss_mb = stop_spark(spark)

    results, shown = {}, {}
    for raw in raws:
        wl = WORKLOADS[raw["workload"]]
        metrics, extras = end_to_end(raw)
        if args.trace:
            e2e = {k: v for k, v in extras.items() if k not in PER_LAYER_UNITS}
            metrics, extras = per_layer(raw, wl, jvm_rss_mb)
            extras = {**e2e, **extras}
        extras["record"] = str(write_record(work, raw, metrics, extras).relative_to(ROOT))
        report(wl.name, metrics, units, extras, raw["log"])
        results[wl.name] = (metrics, raw["log"])
        shown[wl.name] = {**metrics, **extras}

    if len(raws) > 1:
        uk = {r["stream"] for r in raws if r["workload"].startswith("uk-")}
        if len(uk) != 1:
            raise SystemExit("perfbench: uk-* workloads replayed different streams")
        if not args.trace:
            for algo in ("sssp", "pagerank"):
                lay, ing = shown[f"uk-{algo}-edges"], shown[f"uk-{algo}-ingress"]
                for k in ("round_p50_s", "round.activations"):
                    r = lay[k] / ing[k] if ing[k] else float("nan")
                    print(f"info {algo} layph/ingress {k} = {r:.4g}")

    logs = [log for _, log in results.values()]
    single = len(results) == 1
    out = {
        "correct": all(not log.failures for log in logs),
        "attempted": sum(log.attempted for log in logs),
        "failed": sum(len(log.failures) for log in logs),
        "metrics": {
            (k if single else f"{wl}.{k}"): {"value": v, "unit": units[k]}
            for wl, (m, _) in results.items() for k, v in m.items()
        },
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
