"""Tests for the l0 sketch: linearity, recovery, zero detection (Lemma 2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.edgespace import decode_slot, incident_slots_and_signs
from repro.sketch.l0 import SketchContext, SketchSpec

from dense_sketch import dense


def sketch_of_vertex_set(n, edges, vertex_set, spec):
    """Sketch of sum of incidence vectors over ``vertex_set`` (test helper)."""
    owners, others = [], []
    for u, v in edges:
        owners += [u, v]
        others += [v, u]
    owners = np.array(owners, dtype=np.int64)
    others = np.array(others, dtype=np.int64)
    slots, signs = incident_slots_and_signs(n, owners, others)
    ctx = SketchContext(spec, slots, signs)
    group = np.where(np.isin(owners, list(vertex_set)), 0, 1)
    return ctx.group_sums(group, 2)


class TestSpec:
    def test_for_graph_defaults(self):
        spec = SketchSpec.for_graph(100, seed=1)
        assert spec.levels >= 14
        assert spec.message_bits > 0

    def test_rejects_huge_n(self):
        with pytest.raises(ValueError, match="2\\^20"):
            SketchSpec.for_graph((1 << 20) + 1, seed=0)

    def test_rejects_bad_reps(self):
        with pytest.raises(ValueError):
            SketchSpec.for_graph(10, seed=0, repetitions=0)

    def test_fingerprint_base_in_field(self):
        spec = SketchSpec.for_graph(50, seed=3)
        for rep in range(spec.repetitions):
            r = spec.fingerprint_base(rep)
            assert 2 <= r < (1 << 61) - 1


class TestZeroDetection:
    def test_zero_vector_is_zero(self):
        # A complete graph summed over ALL vertices cancels every edge.
        n = 12
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        spec = SketchSpec.for_graph(n, seed=4)
        b = sketch_of_vertex_set(n, edges, set(range(n)), spec)
        agg = dense(b).aggregate(np.array([0, 0]), 1)
        assert not agg.nonzero_mask()[0]

    def test_nonzero_vector_detected(self):
        n = 10
        edges = [(0, 5)]
        spec = SketchSpec.for_graph(n, seed=5)
        b = sketch_of_vertex_set(n, edges, {0}, spec)
        assert b.nonzero_mask()[0]

    def test_empty_incidences(self):
        spec = SketchSpec.for_graph(10, seed=6)
        ctx = SketchContext(spec, np.empty(0, np.uint64), np.empty(0, np.int64))
        b = ctx.group_sums(np.empty(0, np.int64), 3)
        assert not b.nonzero_mask().any()
        assert not b.sample().found.any()


class TestRecovery:
    def test_single_edge_recovered_exactly(self):
        n = 16
        spec = SketchSpec.for_graph(n, seed=7)
        b = sketch_of_vertex_set(n, [(3, 11)], {3}, spec)
        res = b.sample()
        assert res.found[0]
        lo, hi = decode_slot(n, np.array([res.slots[0]]))
        assert (int(lo[0]), int(hi[0])) == (3, 11)
        assert res.signs[0] == 1  # 3 (inside) is the smaller endpoint

    def test_sign_indicates_internal_endpoint(self):
        n = 16
        spec = SketchSpec.for_graph(n, seed=8)
        b = sketch_of_vertex_set(n, [(3, 11)], {11}, spec)
        res = b.sample()
        assert res.found[0]
        assert res.signs[0] == -1  # 11 (inside) is the larger endpoint

    def test_recovered_edge_is_outgoing(self):
        n = 64
        rng = np.random.default_rng(9)
        edges = set()
        while len(edges) < 150:
            u, v = rng.integers(0, n, 2)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        edges = sorted(edges)
        s = set(range(n // 2))
        crossing = {(u, v) for u, v in edges if (u in s) != (v in s)}
        for seed in range(5):
            spec = SketchSpec.for_graph(n, seed=100 + seed)
            b = sketch_of_vertex_set(n, edges, s, spec)
            res = b.sample()
            assert res.found[0]
            lo, hi = decode_slot(n, np.array([res.slots[0]]))
            assert (int(lo[0]), int(hi[0])) in crossing

    def test_success_rate_high(self):
        # Lemma 2 is a w.h.p. statement; with 6 repetitions the empirical
        # success rate over distinct seeds must be near-perfect.
        n = 64
        rng = np.random.default_rng(10)
        edges = set()
        while len(edges) < 200:
            u, v = rng.integers(0, n, 2)
            if u != v:
                edges.add((min(u, v), max(u, v)))
        s = set(range(20))
        ok = 0
        trials = 40
        for seed in range(trials):
            spec = SketchSpec.for_graph(n, seed=1000 + seed)
            ok += int(sketch_of_vertex_set(n, sorted(edges), s, spec).sample().found[0])
        assert ok >= trials - 2


class TestLinearity:
    def test_add_equals_union_of_disjoint_sets(self):
        n = 20
        edges = [(0, 10), (1, 11), (2, 12), (0, 1), (10, 11)]
        spec = SketchSpec.for_graph(n, seed=11)
        owners, others = [], []
        for u, v in edges:
            owners += [u, v]
            others += [v, u]
        owners = np.array(owners)
        others = np.array(others)
        slots, signs = incident_slots_and_signs(n, owners, others)
        ctx = SketchContext(spec, slots, signs)
        # Three groups: A = {0,1,2}, B = {10,11,12}, rest.
        group = np.where(
            np.isin(owners, [0, 1, 2]), 0, np.where(np.isin(owners, [10, 11, 12]), 1, 2)
        )
        b3 = dense(ctx.group_sums(group, 3))
        merged = b3.aggregate(np.array([0, 0, 1]), 2)
        # A u B covers all edges' endpoints -> the union sketch is zero.
        assert not merged.nonzero_mask()[0]
        # Direct single-group construction must agree entrywise.
        direct = ctx.group_sums(np.where(group == 2, 1, 0), 2)
        assert np.array_equal(direct.counts[0], merged.counts[0])
        assert np.array_equal(direct.sums[0], merged.sums[0])
        assert np.array_equal(direct.fps[0], merged.fps[0])

    def test_bundle_add(self):
        n = 12
        spec = SketchSpec.for_graph(n, seed=12)
        b1 = sketch_of_vertex_set(n, [(0, 5)], {0}, spec)
        b2 = sketch_of_vertex_set(n, [(1, 6)], {1}, spec)
        s = dense(b1).add(dense(b2))
        assert np.array_equal(s.counts, b1.counts + b2.counts)

    def test_add_rejects_spec_mismatch(self):
        n = 12
        b1 = sketch_of_vertex_set(n, [(0, 5)], {0}, SketchSpec.for_graph(n, seed=1))
        b2 = sketch_of_vertex_set(n, [(0, 5)], {0}, SketchSpec.for_graph(n, seed=2))
        with pytest.raises(ValueError):
            dense(b1).add(dense(b2))

    def test_aggregate_rejects_bad_map(self):
        n = 12
        b = sketch_of_vertex_set(n, [(0, 5)], {0}, SketchSpec.for_graph(n, seed=1))
        with pytest.raises(ValueError):
            dense(b).aggregate(np.array([0]), 1)  # needs 2 entries


class TestMaskRestriction:
    def test_mask_drops_incidences(self):
        # MST elimination sketches only the incidences under the bound:
        # dropped slots vanish from the sketch.
        n = 16
        spec = SketchSpec.for_graph(n, seed=13)
        owners = np.array([0, 7, 0, 9])
        others = np.array([7, 0, 9, 0])
        slots, signs = incident_slots_and_signs(n, owners, others)
        group = np.zeros(4, dtype=np.int64)
        group[np.isin(owners, [7, 9])] = 1
        # Drop the (0,9) edge entirely.
        keep = ~np.isin(np.arange(4), [2, 3])
        ctx = SketchContext(spec, slots[keep], signs[keep])
        b = ctx.group_sums(group[keep], 2)
        res = b.sample()
        assert res.found[0]
        lo, hi = decode_slot(n, np.array([res.slots[0]]))
        assert (int(lo[0]), int(hi[0])) == (0, 7)


@pytest.mark.parametrize("family", ["polynomial", "prf"])
def test_hash_families_both_recover(family):
    n = 32
    spec = SketchSpec.for_graph(n, seed=21, hash_family=family)
    owners = np.array([2, 30])
    others = np.array([30, 2])
    slots, signs = incident_slots_and_signs(n, owners, others)
    ctx = SketchContext(spec, slots, signs)
    b = ctx.group_sums(np.array([0, 1]), 2)
    res = b.sample()
    assert res.found.all()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_edges=st.integers(min_value=1, max_value=60),
    split=st.integers(min_value=1, max_value=31),
)
@settings(max_examples=25, deadline=None)
def test_property_recovery_is_always_a_true_crossing_edge(seed, n_edges, split):
    """Whatever the sketch recovers is a genuine cut edge with correct side info.

    (Recovery may fail — that's the w.h.p. part — but it must never
    fabricate an edge: the fingerprint check filters collisions.)
    """
    n = 32
    rng = np.random.default_rng(seed)
    edges = set()
    for _ in range(n_edges):
        u, v = rng.integers(0, n, 2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    if not edges:
        return
    s = set(range(split))
    crossing = {(u, v) for u, v in edges if (u in s) != (v in s)}
    spec = SketchSpec.for_graph(n, seed=seed ^ 0xABCD)
    b = sketch_of_vertex_set(n, sorted(edges), s, spec)
    res = b.sample()
    assert bool(b.nonzero_mask()[0]) == bool(crossing)
    if res.found[0]:
        lo, hi = decode_slot(n, np.array([res.slots[0]]))
        e = (int(lo[0]), int(hi[0]))
        assert e in crossing
        inside = e[0] if res.signs[0] == 1 else e[1]
        assert inside in s
