"""Run the evaluation tables: ``python -m repro.experiments <table> [flags]``.

``<table>`` is a key of :data:`TABLES` (the stem of its file in
``results/``) or ``all``. One table prints its report to stdout. ``all``
runs every table in order, writes each one's output to
``results/<table>.txt`` under the current directory, prints ok or FAILED
per table and exits non-zero if any table failed.

A table takes the flags its entry lists and ``all`` takes ``--sf`` and
``--tol``; passing any other flag is an error. Each entry fixes the
arguments its table runs with, and flags override them. The SparkSession
is started the first time a table uses it, so a table whose loops all run
in the driver (DESIGN.md §5.6) starts no JVM.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys
import traceback
from dataclasses import dataclass, field
from typing import Callable

from repro.experiments import (
    batch_size,
    breakdown,
    datasets_table,
    overall,
    overhead,
    replication,
    threads,
)


@dataclass(frozen=True)
class Table:
    run: Callable  # run(spark, **args) -> what report takes
    report: Callable[..., str]
    flags: tuple[str, ...]  # keys of FLAGS
    args: dict = field(default_factory=dict)


#: Flags of the overall-comparison harness (T2).
OVERALL = ("sf", "tol", "datasets", "algos", "systems")

#: Every evaluation table, headline first (DESIGN.md §4).
TABLES = {
    "T2_overall_main": Table(
        overall.run, overall.report, OVERALL, {"tol": 1e-5, "algos": ["sssp", "pagerank"]}
    ),
    "T2_overall_extra": Table(
        overall.run,
        overall.report,
        OVERALL,
        {"tol": 1e-5, "datasets": ["uk_lite"], "algos": ["bfs", "php"]},
    ),
    "T1_datasets": Table(datasets_table.run, datasets_table.report, ("sf",)),
    "T4_breakdown": Table(breakdown.run, breakdown.report, ("sf", "algos", "tol")),
    "T8_overhead": Table(
        overhead.run,
        lambda frames: overhead.report(*frames),
        ("sf", "rounds"),
        {"rounds": 9, "algo_name": "pagerank"},
    ),
    "T7_replication": Table(
        replication.run,
        replication.report,
        ("sf", "datasets", "algos"),
        {"algos": ["sssp", "pagerank"], "datasets": ["uk_lite", "wb_lite"]},
    ),
    "T6_batch_size": Table(
        batch_size.run,
        batch_size.report,
        ("sf", "algos", "ratios", "systems"),
        {"ratios": [1e-4, 1e-3, 1e-2], "systems": ["ingress", "kickstarter", "graphbolt"]},
    ),
    "T3_vertex_updates": Table(
        overall.run,
        overall.report,
        ("sf", "tol", "datasets", "algos"),
        {
            "tol": 1e-5,
            "delta_kind": "vertices",
            "datasets": ["uk_lite"],
            "algos": ["sssp", "pagerank"],
        },
    ),
    "T5_threads_proxy": Table(
        threads.run, threads.report, ("sf", "threads", "algos"), {"algos": ["sssp", "pagerank"]}
    ),
}

#: Scale factor of every table, unless given.
DEFAULTS = {"sf": 0.015}

#: The flags of ``all``: passed to every table that takes them.
ALL_FLAGS = ("sf", "tol")


def get_spark(master: str | None = None):
    """A SparkSession for a standalone run: Arrow on, broadcast joins off,
    quiet console, on ``master``, else ``SPARK_MASTER``, else the master of
    ``PYSPARK_SUBMIT_ARGS`` (``local[*]`` unless set)."""
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        "--master local[*] --conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("repro-experiments")
    if master := master or os.environ.get("SPARK_MASTER"):
        builder = builder.master(master)
    spark = (
        builder.config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


class LazySpark:
    """Stands in for the SparkSession and starts it on first use.

    A session already running in the process is used instead, and is left
    running by :meth:`stop`; it must run on ``master`` if one is given.
    """

    def __init__(self, master: str | None):
        self._master = master
        self._session = None
        self._started = False

    def __getattr__(self, name):
        if self._session is None:
            from pyspark.sql import SparkSession

            running = SparkSession.getActiveSession()
            if running is None:
                self._session, self._started = get_spark(self._master), True
            elif self._master and running.sparkContext.master != self._master:
                raise RuntimeError(
                    f"a session on {running.sparkContext.master} is already running, "
                    f"not on {self._master}"
                )
            else:
                self._session = running
        return getattr(self._session, name)

    def stop(self) -> None:
        if self._started:
            self._session.stop()


#: Every flag by name: the ``run`` parameter it sets, and its argparse options.
FLAGS = {
    "sf": ("sf", {"type": float, "help": f"scale factor (default {DEFAULTS['sf']})"}),
    "tol": ("tol", {"type": float, "help": "convergence tolerance"}),
    "datasets": ("datasets", {"nargs": "+"}),
    "algos": ("algos", {"nargs": "+"}),
    "systems": ("systems", {"nargs": "+"}),
    "ratios": ("ratios", {"nargs": "+", "type": float, "help": "|ΔG|/|E| ratios (T6)"}),
    "rounds": ("rounds", {"type": int, "help": "incremental rounds (T8)"}),
    "threads": (
        "partition_counts",
        {
            "type": lambda k: [int(k)],
            "metavar": "K",
            "help": "start Spark as local[K] and sweep only K loop partitions (T5)",
        },
    ),
}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run one evaluation table, or all of them into results/.",
        argument_default=argparse.SUPPRESS,
    )
    ap.add_argument("table", choices=[*TABLES, "all"])
    for flag, (_, opts) in FLAGS.items():
        ap.add_argument(f"--{flag}", dest=flag, **opts)
    return ap


def run_table(name: str, spark, given: dict) -> None:
    """Print table ``name``'s report; ``given`` are the flags set."""
    t = TABLES[name]
    flags = {FLAGS[f][0]: v for f, v in given.items() if f in t.flags}
    print(t.report(t.run(spark, **{**DEFAULTS, **t.args, **flags})))


def main(argv: list[str] | None = None) -> int:
    ap = _parser()
    ns = vars(ap.parse_args(argv))
    name = ns.pop("table")
    takes = ALL_FLAGS if name == "all" else TABLES[name].flags
    extra = [f"--{f}" for f in ns if f not in takes]
    if extra:
        ap.error(f"{name} does not take {', '.join(extra)}")
    k = ns.get("threads")  # [K]
    spark = LazySpark(f"local[{k[0]}]" if k else None)
    try:
        if name != "all":
            run_table(name, spark, ns)
            return 0
        os.makedirs("results", exist_ok=True)
        failed = []
        for table in TABLES:
            print(f"=== {table} ===", flush=True)
            try:
                with open(f"results/{table}.txt", "w") as out, contextlib.redirect_stdout(out):
                    run_table(table, spark, ns)
                print("    ok", flush=True)
            except Exception:
                traceback.print_exc()
                print("    FAILED", flush=True)
                failed.append(table)
        return 1 if failed else 0
    finally:
        spark.stop()


if __name__ == "__main__":
    sys.exit(main())
