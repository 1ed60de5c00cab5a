"""Structural benchmarks: the lemmas the theorem costs are assembled from.

Lemma 1 (proxy-routing load concentration), Lemma 2 (sketch sampling
success and construction throughput), Lemma 6 (DRR tree depth), Lemma 7
(Boruvka phase counts).
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.registry import register_benchmark
from repro.bench.suites.common import session_for
from repro.cluster.cluster import KMachineCluster
from repro.cluster.comm import CommStep
from repro.cluster.ledger import RoundLedger
from repro.cluster.topology import ClusterTopology
from repro.core.drr import build_drr_forest
from repro.core.labels import PartIndex, initial_labels
from repro.core.outgoing import OutgoingSelection
from repro.core.proxy import proxy_of_labels
from repro.graphs import generators
from repro.sketch.edgespace import decode_slot, incident_slots_and_signs
from repro.sketch.l0 import SketchContext, SketchSpec
from repro.util.rng import SeedStream

# -- Lemma 1: proxy routing load concentration -------------------------------


@register_benchmark(
    "proxy_load_concentration",
    title="Lemma 1: proxy-routing link load concentrates at n/k^2",
    group="structure",
    cells=[{"n_parts": n, "k": 16} for n in (4_000, 16_000, 64_000, 256_000)],
    quick_cells=[{"n_parts": n, "k": 16} for n in (4_000, 16_000)],
    seed=0,
)
def _proxy_load(cell: dict, seed: int) -> dict:
    n, k = cell["n_parts"], cell["k"]
    part_machine = np.arange(n, dtype=np.int64) % k
    proxies = proxy_of_labels(SeedStream(n), np.arange(n, dtype=np.int64), k)
    topo = ClusterTopology(k=k, bandwidth_bits=1)  # load measured in messages
    led = RoundLedger(topo)
    step = CommStep(led, "lemma1")
    step.add(part_machine, proxies, 1)
    step.deliver()
    off = led.load_total[~np.eye(k, dtype=bool)]
    mean = float(off.mean())
    return {
        "max_link_msgs": int(off.max()),
        "mean_link_msgs": mean,
        "max_over_mean": float(off.max() / mean),
    }


# -- Lemma 2: sketch sampling success and construction throughput ------------


def _success_rate(n, m, split_frac, trials, reps, graph_seed):
    g = generators.gnm_random(n, m, seed=graph_seed)
    owners = np.concatenate([g.edges_u, g.edges_v])
    others = np.concatenate([g.edges_v, g.edges_u])
    slots, signs = incident_slots_and_signs(n, owners, others)
    cut = int(split_frac * n)
    group = np.where(owners < cut, 0, 1).astype(np.int64)
    crossing = {
        (int(u), int(v)) for u, v in zip(g.edges_u, g.edges_v) if (u < cut) != (v < cut)
    }
    ok = valid = 0
    for seed in range(trials):
        spec = SketchSpec.for_graph(n, seed=seed, repetitions=reps, hash_family="prf")
        ctx = SketchContext(spec, slots, signs)
        res = ctx.group_sums(group, 2).sample()
        if res.found[0]:
            ok += 1
            lo, hi = decode_slot(n, np.array([res.slots[0]]))
            valid += int((int(lo[0]), int(hi[0])) in crossing)
    return ok / trials, (valid / ok if ok else 0.0)


@register_benchmark(
    "sketch_success_rate",
    title="Lemma 2: l0-sampling success rate vs sketch repetitions",
    group="structure",
    cells=[
        {"repetitions": r, "n": 512, "m": 2048, "trials": 40} for r in (1, 2, 4, 6, 8)
    ],
    quick_cells=[
        {"repetitions": r, "n": 256, "m": 1024, "trials": 12} for r in (1, 4, 8)
    ],
    seed=99,
)
def _sketch_success(cell: dict, seed: int) -> dict:
    rate, validity = _success_rate(
        cell["n"],
        cell["m"],
        split_frac=0.3,
        trials=cell["trials"],
        reps=cell["repetitions"],
        graph_seed=seed,
    )
    return {"success_rate": float(rate), "validity": float(validity)}


@register_benchmark(
    "sketch_throughput",
    title="Lemma 2: sketch-construction throughput (the simulator hot path)",
    group="structure",
    cells=[{"n": 4096, "m": 25_000, "repetitions": 6, "groups": 997}],
    quick_cells=[{"n": 1024, "m": 6_000, "repetitions": 6, "groups": 97}],
    seed=5,
)
def _sketch_throughput(cell: dict, seed: int) -> dict:
    # Wall time is the headline here: record only the sketch hot path —
    # the context, and the walk the two queries run (the bundle scatters
    # nothing until queried) — not the graph/incidence setup.
    n = cell["n"]
    g = generators.gnm_random(n, cell["m"], seed=seed)
    owners = np.concatenate([g.edges_u, g.edges_v])
    others = np.concatenate([g.edges_v, g.edges_u])
    slots, signs = incident_slots_and_signs(n, owners, others)
    group = (owners % cell["groups"]).astype(np.int64)
    spec = SketchSpec.for_graph(
        n, seed=seed, repetitions=cell["repetitions"], hash_family="prf"
    )
    t0 = time.perf_counter()
    ctx = SketchContext(spec, slots, signs)
    bundle = ctx.group_sums(group, cell["groups"])
    bundle.nonzero_mask()
    bundle.sample()
    wall = time.perf_counter() - t0
    return {
        "n_groups": int(bundle.n_groups),
        "incidences": int(slots.size),
        "_wall_time_s": wall,
    }


# -- Lemma 6: DRR tree depth -------------------------------------------------


def _ring_forest(n, seed):
    g = generators.cycle_graph(n)
    cl = KMachineCluster.create(g, k=4, seed=seed)
    labels = initial_labels(n)
    parts = PartIndex.build(labels, cl.partition)
    c = parts.n_components
    nxt = (parts.comp_labels + 1) % n
    sel = OutgoingSelection(
        parts=parts,
        comp_proxy=np.zeros(c, dtype=np.int64),
        sketch_nonzero=np.ones(c, dtype=bool),
        found=np.ones(c, dtype=bool),
        slot=np.zeros(c, dtype=np.int64),
        internal_vertex=parts.comp_labels.copy(),
        foreign_vertex=nxt.copy(),
        neighbor_label=nxt.copy(),
        edge_weight=np.full(c, np.nan),
    )
    return build_drr_forest(parts, sel, SeedStream(seed))


@register_benchmark(
    "drr_depth",
    title="Lemma 6 / Figure 2: DRR tree depth stays O(log n) on ring topologies",
    group="structure",
    cells=[{"n": n, "n_seeds": 12} for n in (256, 1024, 4096, 16384, 65536)],
    quick_cells=[{"n": n, "n_seeds": 4} for n in (256, 1024)],
    seed=0,
)
def _drr_depth(cell: dict, seed: int) -> dict:
    n = cell["n"]
    depths = [_ring_forest(n, 1000 * n + seed + s).max_depth for s in range(cell["n_seeds"])]
    # No log-derived metrics here: libm last-ulp drift across machines
    # would trip the exact perf gate; bounds are recomputed by consumers.
    return {
        "mean_depth": float(np.mean(depths)),
        "max_depth": int(np.max(depths)),
    }


# -- Lemma 7: Boruvka phase counts -------------------------------------------


@register_benchmark(
    "phase_count",
    title="Lemma 7: Boruvka phase counts stay within 12 log2 n",
    group="structure",
    cells=[
        {"family": fam, "n": n, "k": 8, "n_seeds": 3}
        for fam in ("gnm_m3n", "path", "powerlaw")
        for n in (512, 2048, 8192)
    ],
    quick_cells=[
        {"family": fam, "n": n, "k": 8, "n_seeds": 2}
        for fam in ("gnm_m3n", "path")
        for n in (256, 512)
    ],
    seed=0,
)
def _phase_count(cell: dict, seed: int) -> dict:
    n, fam = cell["n"], cell["family"]
    phases = []
    shrink = []
    for s in range(cell["n_seeds"]):
        if fam == "gnm_m3n":
            g = generators.gnm_random(n, 3 * n, seed=seed + s)
        elif fam == "path":
            g = generators.path_graph(n)
        elif fam == "powerlaw":
            g = generators.powerlaw_preferential(n, 2, seed=seed + s)
        else:
            raise ValueError(f"unknown family {fam!r}")
        r = session_for(g, seed=seed + s, k=cell["k"]).run("connectivity")
        assert r.result["converged"]
        phases.append(r.result["phases"])
        for st in r.phase_stats:
            if st["components_start"] > 1:
                shrink.append(st["components_end"] / st["components_start"])
    return {
        "mean_phases": float(np.mean(phases)),
        "max_phases": int(np.max(phases)),
        "mean_shrink": float(np.mean(shrink)),
    }
