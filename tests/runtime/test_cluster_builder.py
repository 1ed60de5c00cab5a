"""One cluster constructor: the cache key, the builder and the sweep worker.

``Session.cluster_for`` (the in-process cache), ``_worker_cluster`` (the
per-process memo of ``sweep(processes=N)``) and uncached factory sweeps
all build through ``_build_cluster`` and key on ``_cluster_key``.  These
tests pin that the three paths agree: a cache hit or memo hit must be
exactly the cluster a fresh build would produce, and a pooled grid point
must report the same envelope as an in-process run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import generators
from repro.runtime import ClusterConfig, RunConfig
from repro.runtime import session as session_mod
from repro.runtime.session import (
    Session,
    _build_cluster,
    _cluster_key,
    _sweep_worker,
    _worker_cluster,
)


def _graph(seed: int = 5, n: int = 90, weighted: bool = False):
    g = generators.gnm_random(n, 3 * n, seed=seed)
    return generators.with_unique_weights(g, seed=seed) if weighted else g


@pytest.fixture(autouse=True)
def _fresh_worker_memo():
    # The memo is process-global; isolate every test from the others.
    session_mod._WORKER_CLUSTERS.clear()
    yield
    session_mod._WORKER_CLUSTERS.clear()


def _same_cluster(a, b) -> bool:
    return (
        a.k == b.k
        and a.partition.seed == b.partition.seed
        and np.array_equal(a.partition.home, b.partition.home)
        and a.topology == b.topology
        and np.array_equal(a.inc_machine, b.inc_machine)
    )


@pytest.mark.parametrize(
    ("partition_seed", "run_seed", "expected"),
    [(None, 7, 7), (3, 7, 3)],
    ids=["run-seed-default", "pinned-partition-seed"],
)
def test_cluster_key_resolves_partition_seed(partition_seed, run_seed, expected):
    cc = ClusterConfig(k=4, partition_seed=partition_seed)
    key = _cluster_key(cc, run_seed)
    assert key[1] == expected
    assert key == (4, expected, cc.bandwidth_multiplier, None, cc.partition)


@pytest.mark.parametrize("epoch", [0, 1, 3])
def test_cluster_for_builds_what_the_builder_builds(epoch):
    g = _graph()
    cc = ClusterConfig(k=4)
    cached = Session(g).cluster_for(g, cc, 2, epoch=epoch)
    assert _same_cluster(cached, _build_cluster(g, cc, 2, epoch=epoch))


def test_epochs_move_placement():
    g = _graph()
    cc = ClusterConfig(k=4)
    homes = {_build_cluster(g, cc, 2, epoch=e).partition.home.tobytes() for e in range(3)}
    assert len(homes) == 3


def test_builder_pins_topology_only_for_absolute_bandwidth():
    g = _graph()
    pinned = _build_cluster(g, ClusterConfig(k=4, bandwidth_bits=512), 1)
    assert pinned.topology.bandwidth_bits == 512
    default = _build_cluster(g, ClusterConfig(k=4), 1)
    assert default.topology.bandwidth_bits != 512


def test_worker_memo_hits_on_equal_graph_content():
    cfg = RunConfig(cluster=ClusterConfig(k=4))
    first = _worker_cluster(_graph(), cfg, 1)
    first.ledger.charge_rounds("probe", 3, total_bits=100)
    # A distinct Graph object with the same bytes (as a pickled payload
    # arrives in a pool worker) is the same grid point.
    again = _worker_cluster(_graph(), cfg, 1)
    assert again is first
    assert again.ledger.total_rounds == 0 and again.ledger.total_bits == 0


def test_worker_memo_misses_on_distinct_cluster_shape():
    g = _graph()
    base = _worker_cluster(g, RunConfig(cluster=ClusterConfig(k=4)), 1)
    assert _worker_cluster(g, RunConfig(cluster=ClusterConfig(k=5)), 1) is not base
    assert _worker_cluster(g, RunConfig(cluster=ClusterConfig(k=4)), 2) is not base
    assert _worker_cluster(_graph(seed=6), RunConfig(cluster=ClusterConfig(k=4)), 1) is not base
    # A pinned partition seed makes distinct run seeds one grid point.
    pinned = RunConfig(cluster=ClusterConfig(k=4, partition_seed=9))
    assert _worker_cluster(g, pinned, 1) is _worker_cluster(g, pinned, 2)


def test_worker_memo_matches_a_fresh_build():
    g = _graph()
    cfg = RunConfig(cluster=ClusterConfig(k=4, bandwidth_bits=1024))
    assert _same_cluster(_worker_cluster(g, cfg, 3), _build_cluster(g, cfg.cluster, 3))


def test_worker_memo_is_bounded_lru():
    g = _graph()
    cfg = RunConfig(cluster=ClusterConfig(k=4))
    first = _worker_cluster(g, cfg, 0)
    for seed in range(1, session_mod._WORKER_CLUSTER_CAP + 1):
        _worker_cluster(g, cfg, seed)
    assert len(session_mod._WORKER_CLUSTERS) == session_mod._WORKER_CLUSTER_CAP
    assert _worker_cluster(g, cfg, 0) is not first  # evicted, then rebuilt


@pytest.mark.parametrize("algorithm", ["connectivity", "mst", "rep"])
def test_sweep_worker_matches_session_run(algorithm):
    g = _graph(weighted=algorithm == "mst")
    cfg = RunConfig(seed=4, cluster=ClusterConfig(k=4))
    local = Session(g, config=cfg).run(algorithm, seed=4)
    pooled = _sweep_worker((g, algorithm, cfg.to_dict(), 4))
    assert pooled.to_json(include_timing=False) == local.to_json(include_timing=False)


def test_factory_sweep_matches_cached_sweep():
    # ns= grids build uncached through _build_cluster; a fixed-graph grid
    # goes through cluster_for.  Same graph, same seeds: same envelopes.
    cfg = RunConfig(cluster=ClusterConfig(k=4, bandwidth_bits=2048))
    built = Session(config=cfg).sweep(
        "connectivity", ns=(90,), graph_factory=lambda n: _graph(n=n), seeds=(0, 1)
    )
    cached = Session(_graph(), config=cfg).sweep("connectivity", seeds=(0, 1))
    assert [r.to_json(include_timing=False) for r in built] == [
        r.to_json(include_timing=False) for r in cached
    ]
