"""Repository-wide property-based tests (hypothesis).

These tie invariants across layers: ledger accounting identities under
arbitrary traffic, sketch linearity under arbitrary regroupings, and
DRR forest laws under arbitrary pointer configurations.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.comm import CommStep
from repro.cluster.ledger import RoundLedger
from repro.cluster.topology import ClusterTopology
from repro.core.drr import build_drr_forest
from repro.core.labels import PartIndex, initial_labels
from repro.core.outgoing import OutgoingSelection
from repro.cluster.partition import random_vertex_partition
from repro.sketch.edgespace import incident_slots_and_signs
from repro.sketch.l0 import SketchContext, SketchSpec
from repro.util.bits import ceil_div
from repro.util.rng import SeedStream

from dense_sketch import dense


@given(
    k=st.integers(min_value=2, max_value=8),
    bw=st.integers(min_value=1, max_value=1000),
    msgs=st.lists(
        st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(0, 10_000)),
        max_size=60,
    ),
)
@settings(max_examples=60, deadline=None)
def test_ledger_accounting_identities(k, bw, msgs):
    """rounds = ceil(max offdiag / bw); totals conserve; diagonal free."""
    led = RoundLedger(ClusterTopology(k=k, bandwidth_bits=bw))
    step = CommStep(led, "prop")
    expected = np.zeros((k, k), dtype=np.int64)
    for s, d, b in msgs:
        s, d = s % k, d % k
        step.add(s, d, b)
        if s != d:
            expected[s, d] += b
    rounds = step.deliver()
    assert rounds == ceil_div(int(expected.max(initial=0)), bw)
    assert led.total_bits == int(expected.sum())
    assert led.sent_bits.sum() == led.received_bits.sum() == led.total_bits
    assert np.array_equal(led.load_total, expected)


@given(
    n_groups=st.integers(min_value=1, max_value=6),
    n_edges=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=999),
)
@settings(max_examples=30, deadline=None)
def test_sketch_aggregation_associativity(n_groups, n_edges, seed):
    """aggregate(aggregate(x, f), g) == aggregate(x, g o f) entrywise."""
    n = 32
    rng = np.random.default_rng(seed)
    edges = set()
    for _ in range(n_edges):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    owners, others = [], []
    for u, v in edges:
        owners += [u, v]
        others += [v, u]
    owners = np.array(owners, dtype=np.int64) if owners else np.empty(0, np.int64)
    others = np.array(others, dtype=np.int64) if others else np.empty(0, np.int64)
    slots, signs = incident_slots_and_signs(n, owners, others)
    spec = SketchSpec.for_graph(n, seed=seed, repetitions=2)
    ctx = SketchContext(spec, slots, signs)
    group = (owners % n_groups).astype(np.int64) if owners.size else np.empty(0, np.int64)
    base = dense(ctx.group_sums(group, n_groups))
    f = rng.integers(0, max(1, n_groups // 2 + 1), n_groups).astype(np.int64)
    n_mid = int(f.max(initial=0)) + 1
    g_map = rng.integers(0, 2, n_mid).astype(np.int64)
    two_step = base.aggregate(f, n_mid).aggregate(g_map, 2)
    one_step = base.aggregate(g_map[f], 2)
    assert np.array_equal(two_step.counts, one_step.counts)
    assert np.array_equal(two_step.sums, one_step.sums)
    assert np.array_equal(two_step.fps, one_step.fps)


@given(
    n=st.integers(min_value=2, max_value=64),
    seed=st.integers(min_value=0, max_value=999),
    edge_frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=40, deadline=None)
def test_drr_forest_laws(n, seed, edge_frac):
    """For any pointer configuration: acyclic, rank-increasing, depth-consistent."""
    rng = np.random.default_rng(seed)
    partition = random_vertex_partition(n, 2, seed)
    labels = initial_labels(n)
    parts = PartIndex.build(labels, partition)
    c = parts.n_components
    found = rng.random(c) < edge_frac
    nbr = (parts.comp_labels + 1 + rng.integers(0, max(1, n - 1), c)) % n
    nbr_ok = nbr != parts.comp_labels
    found &= nbr_ok
    sel = OutgoingSelection(
        parts=parts,
        comp_proxy=np.zeros(c, dtype=np.int64),
        sketch_nonzero=found.copy(),
        found=found.copy(),
        slot=np.zeros(c, dtype=np.int64),
        internal_vertex=parts.comp_labels.copy(),
        foreign_vertex=nbr.astype(np.int64),
        neighbor_label=nbr.astype(np.int64),
        edge_weight=np.full(c, np.nan),
    )
    forest = build_drr_forest(parts, sel, SeedStream(seed ^ 0xD22))
    # Rank-increasing parents, consistent depths, roots where not found.
    for ci in range(c):
        p = forest.parent[ci]
        if p >= 0:
            assert (forest.ranks[p], forest.comp_labels[p]) > (
                forest.ranks[ci],
                forest.comp_labels[ci],
            )
            assert forest.depth[ci] == forest.depth[p] + 1
        else:
            assert forest.depth[ci] == 0
        if not found[ci]:
            assert forest.parent[ci] == -1
    # Non-merging components are exactly the roots among found=False plus
    # higher-ranked endpoints; at least one root always exists.
    assert (forest.parent < 0).any()
