"""Wall-clock benchmark of runs, sketch layers and served requests.

Usage (from the repository root)::

    python3 perfbench/run.py --workload connectivity-large --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` measures the per-layer metrics (see ``perfbench/README.md``).
Every operation's output is checked against the sequential references in
``repro.graphs.reference``.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is
0 only when every check passed.  Nothing is written outside the checkout:
inputs live in a temporary directory under ``.perfbench-tmp/`` that is
removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench-tmp"

#: Environment switches that select other code paths; the benchmark
#: measures the program as shipped, so it refuses to run under any of them.
GUARDED_ENV = ("REPRO_PARALLEL", "REPRO_SKETCH_PRUNE", "REPRO_CORPUS_DIR")

#: Set-ups per untraced batch run; ``setup_s`` is their median.
SETUP_REPEATS = 7


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; remember why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)


# -- measurement helpers -----------------------------------------------------


def p95(values: list[float]) -> float:
    """Inclusive 95th percentile (close to the largest value for few samples)."""
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS counter (Linux ``clear_refs``)."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


# -- per-layer metrics ---------------------------------------------------------

#: Layers that run while the system is set up, reported per set-up.
SETUP_LAYERS = ("corpus.materialize", "corpus.load", "graphs.build", "cluster.create")

#: Timed layers reported per operation (``<name>_s``).
OP_LAYERS = (
    "runtime.run",
    "runtime.cluster_for",
    "runtime.report_to_dict",
    "core.select_outgoing",
    "core.part_index",
    "core.drr_build",
    "core.drr_merge",
    "core.dynamic_apply",
    "sketch.context_init",
    "sketch.group_sums",
    "sketch.sample",
    "sketch.nonzero_mask",
    "cluster.comm_deliver",
    "cluster.ledger_charge",
)


def layer_metrics(agg: dict, n_ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from :func:`spans.aggregate` output.

    ``agg`` holds a ``"setup"`` phase (one traced set-up) and an ``"op"``
    phase (``n_ops`` traced operations).
    """

    def get(phase: str, name: str) -> dict:
        return agg.get((phase, name), {"ns": 0, "self_ns": 0, "calls": 0,
                                       "counts": {}, "children": {}})

    def per_op(x: float) -> float:
        return x / n_ops

    out: dict[str, tuple[float, str]] = {}
    for name in SETUP_LAYERS:
        out[f"{name}_s"] = (get("setup", name)["ns"] / 1e9, "s/setup")
    out["cluster.creates"] = (float(get("setup", "cluster.create")["calls"]), "count/setup")
    for name in OP_LAYERS:
        out[f"{name}_s"] = (per_op(get("op", name)["ns"] / 1e9), "s/op")
    for name in ("runtime.run", "core.select_outgoing"):
        out[f"{name}_self_s"] = (per_op(get("op", name)["self_ns"] / 1e9), "s/op")
    for name in ("core.select_outgoing", "sketch.context_init", "sketch.group_sums",
                 "sketch.sample", "sketch.nonzero_mask"):
        out[f"{name}_calls"] = (per_op(get("op", name)["calls"]), "count/op")
    out["core.dynamic_updates"] = (per_op(get("op", "core.dynamic_apply")["calls"]), "count/op")
    out["cluster.comm_steps"] = (per_op(get("op", "cluster.comm_deliver")["calls"]), "count/op")
    out["cluster.ledger_charges"] = (
        per_op(get("op", "cluster.ledger_charge")["calls"]), "count/op"
    )
    cluster_for = get("op", "runtime.cluster_for")
    misses = cluster_for["children"].get("cluster.create", 0)
    out["runtime.cluster_cache_hit_ratio"] = (
        1.0 - misses / cluster_for["calls"] if cluster_for["calls"] else 0.0, "ratio"
    )
    ctx = get("op", "sketch.context_init")["counts"]
    bins = get("op", "sketch.group_sums")["counts"].get("bins", 0)
    sample = get("op", "sketch.sample")["counts"]
    out["sketch.incidences"] = (per_op(ctx.get("incidences", 0)), "count/op")
    out["sketch.bins"] = (per_op(bins), "count/op")
    out["sketch.bins_read_ratio"] = (
        sample.get("bins_read", 0) / bins if bins else 0.0, "ratio"
    )
    nonzero = sample.get("nonzero", 0)
    out["sketch.sample_found_ratio"] = (
        sample.get("found", 0) / nonzero if nonzero else 0.0, "ratio"
    )
    return out


SERVICE_METRICS = (
    ("service.server_wall_s", "s"),
    ("service.queue_wait_s", "s"),
    ("service.coalesce_hit_ratio", "ratio"),
    ("service.graph_hit_ratio", "ratio"),
    ("service.worker_skew", "ratio"),
)


# -- batch workloads -----------------------------------------------------------


@dataclass(frozen=True)
class BatchSpec:
    """One batch workload: a large graph and one registered algorithm."""

    algorithm: str
    n: int
    m_per_n: int
    k: int
    corpus: bool


BATCH = {
    # A few huge sketch calls: kernel volume and peak memory dominate.
    "connectivity-large": BatchSpec("connectivity", n=16384, m_per_n=4, k=16, corpus=True),
    # Hundreds of weight-masked selections over shrinking frontiers.
    "mst-large": BatchSpec("mst", n=4096, m_per_n=4, k=16, corpus=False),
}

#: Fewest operations per phase of a run, so a median exists.
MIN_OPS = 3


def run_batch(workload: str, seed: int, seconds: float, traced: bool, tmp: Path) -> Outcome:
    """Time ``Session.run`` on one large graph; check every output."""
    import numpy as np

    import spans
    from repro.corpus.manager import CorpusManager
    from repro.graphs import generators, reference
    from repro.runtime import ClusterConfig, RunConfig, Session

    spec = BATCH[workload]
    out = Outcome()
    config = RunConfig(cluster=ClusterConfig(k=spec.k, partition_seed=seed))
    tracer = spans.Tracer()

    def build_graph():
        graph = generators.gnm_random(spec.n, spec.m_per_n * spec.n, seed=seed)
        return generators.with_unique_weights(graph, seed=seed)

    def setup(i: int) -> Session:
        if spec.corpus:
            manager = CorpusManager(tmp / f"corpus-{i}")
            entry = manager.generate(
                "gnm", {"n": spec.n, "m": spec.m_per_n * spec.n}, seed=seed
            )
            session = Session(f"corpus:{entry.entry_id}", config=config, corpus=manager)
        else:
            session = Session(tracer.span("graphs.build", build_graph), config=config)
        session.cluster_for(session.graph, config.cluster, seed)
        return session

    expected_targets = spans.EXPECTED[workload]
    setup_times = []
    session = None
    for i in range(1 if traced else SETUP_REPEATS):
        session = None
        t0 = time.perf_counter()
        if traced:
            with spans.installed(tracer, expected_targets):
                session = tracer.span("bench.setup", setup, i)
        else:
            session = setup(i)
        setup_times.append(time.perf_counter() - t0)

    graph = session.graph
    if spec.algorithm == "connectivity":
        expected = reference.connected_components(graph)
    else:
        expected = reference.mst_weight(graph)

    def check(result: dict) -> bool:
        if not result.get("converged"):
            return False
        if spec.algorithm == "connectivity":
            return bool(np.array_equal(np.asarray(result["labels"]), expected))
        return math.isclose(result["total_weight"], expected, rel_tol=1e-9)

    def op(run_seed: int) -> dict:
        report = session.run(spec.algorithm, seed=run_seed)
        return report.to_dict(include_timing=False)

    seeds = random.Random(seed * 1_000_003 + 1)  # per-operation run seeds
    times: dict[bool, list[float]] = {False: [], True: []}
    first_traced = None
    reset_peak_rss()
    t_start = time.perf_counter()
    while True:
        trace_this = traced and out.attempted % 2 == 1
        run_seed = seeds.randrange(1 << 31)
        t0 = time.perf_counter()
        if trace_this:
            with spans.installed(tracer, expected_targets):
                envelope = tracer.span("bench.op", op, run_seed)
        else:
            envelope = op(run_seed)
        dt = time.perf_counter() - t0
        times[trace_this].append(dt)
        out.check(check(envelope["result"]),
                  f"{workload} run seed {run_seed}: output differs from the reference")
        if trace_this and first_traced is None:
            first_traced = envelope["ledger"]
        elapsed = time.perf_counter() - t_start
        if out.attempted >= (2 if traced else 1) * MIN_OPS and elapsed + dt > seconds:
            break
    wall = time.perf_counter() - t_start
    peak = peak_rss_mb()

    plain = times[False]
    if not traced:
        out.metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "op_p50_s": (statistics.median(plain), "s"),
            "op_p95_s": (p95(plain), "s"),
            "throughput_ops": (len(plain) / wall, "1/s"),
            "peak_rss_mb": (peak, "MiB"),
        }
        return out

    missing = spans.missing_targets(tracer.fired, workload)
    out.check(not missing, f"wrappers never fired: {', '.join(missing)}")
    phases = {"bench.setup": "setup", "bench.op": "op"}
    agg = spans.aggregate(tracer.spans, lambda root: phases.get(root[3]))
    out.metrics = layer_metrics(agg, len(times[True]))
    out.metrics["cluster.rounds"] = (float(first_traced["rounds"]), "count")
    out.metrics["cluster.total_bits"] = (float(first_traced["total_bits"]), "count")
    for name, unit in SERVICE_METRICS:
        out.metrics[name] = (0.0, unit)
    overhead = statistics.median(times[True]) - statistics.median(plain)
    out.metrics["trace.overhead_s"] = (overhead, "s")
    return out


# -- entry point ---------------------------------------------------------------


def workloads() -> dict:
    import serve

    return {**{name: run_batch for name in BATCH}, "serve-mixed": serve.run_serve}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*BATCH, "serve-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    guarded = {name: os.environ[name] for name in GUARDED_ENV if name in os.environ}
    print("environment: " + ", ".join(f"{n}={guarded.get(n, '<unset>')}" for n in GUARDED_ENV))
    if guarded:
        print(f"error: unset {', '.join(guarded)}: they switch code paths", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still unwinds, so servers are stopped and the
    # temporary directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    try:
        outcome = workloads()[args.workload](
            args.workload, args.seed, args.seconds, bool(args.trace), tmp
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    print(f"  error_rate = {rate:.6g} ({outcome.failed} of {outcome.attempted} failed)")
    for error in outcome.errors:
        print(f"  FAILED: {error}")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
