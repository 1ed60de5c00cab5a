"""Additional l0-sketch behaviours: spec identity, zero-graph, large groups."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketch.edgespace import incident_slots_and_signs
from repro.sketch.l0 import SketchContext, SketchSpec


def make_ctx(n, edges, spec):
    owners, others = [], []
    for u, v in edges:
        owners += [u, v]
        others += [v, u]
    owners = np.array(owners, dtype=np.int64) if owners else np.empty(0, np.int64)
    others = np.array(others, dtype=np.int64) if others else np.empty(0, np.int64)
    slots, signs = incident_slots_and_signs(n, owners, others)
    return SketchContext(spec, slots, signs), owners


class TestSpecIdentity:
    def test_same_seed_same_randomness(self):
        n = 24
        spec = SketchSpec.for_graph(n, seed=5)
        ctx1, _ = make_ctx(n, [(0, 5), (3, 9)], spec)
        ctx2, _ = make_ctx(n, [(0, 5), (3, 9)], spec)
        reps = range(spec.repetitions)
        for a, b in zip(ctx1._tables(reps, None), ctx2._tables(reps, None)):
            assert np.array_equal(a, b)

    def test_different_seed_different_randomness(self):
        n = 24
        edges = [(0, 5), (3, 9), (1, 2)]
        ctx1, _ = make_ctx(n, edges, SketchSpec.for_graph(n, seed=5))
        ctx2, _ = make_ctx(n, edges, SketchSpec.for_graph(n, seed=6))
        reps = range(ctx1.spec.repetitions)
        assert not np.array_equal(ctx1._tables(reps, None)[1], ctx2._tables(reps, None)[1])

    def test_message_bits_polylog(self):
        small = SketchSpec.for_graph(64, seed=1).message_bits
        large = SketchSpec.for_graph(4096, seed=1).message_bits
        # Bits grow with log n (levels), far slower than n.
        assert small < large < small * 3

    def test_n_incidences(self):
        spec = SketchSpec.for_graph(16, seed=2)
        ctx, _ = make_ctx(16, [(0, 1), (2, 3)], spec)
        assert ctx.n_incidences == 4


class TestGroupShapes:
    def test_group_indices_must_match_incidences(self):
        spec = SketchSpec.for_graph(16, seed=3)
        ctx, _ = make_ctx(16, [(0, 1)], spec)
        with pytest.raises(ValueError):
            ctx.group_sums(np.array([0]), 1)  # 2 incidences, 1 index

    def test_empty_groups_are_zero(self):
        spec = SketchSpec.for_graph(16, seed=4)
        ctx, owners = make_ctx(16, [(0, 1)], spec)
        group = np.zeros(owners.size, dtype=np.int64)
        b = ctx.group_sums(group, 5)  # groups 1..4 receive nothing
        nz = b.nonzero_mask()
        assert not nz[1:].any()

    def test_many_groups_vectorized(self):
        n = 128
        rng = np.random.default_rng(5)
        edges = {(int(min(u, v)), int(max(u, v))) for u, v in rng.integers(0, n, (400, 2)) if u != v}
        spec = SketchSpec.for_graph(n, seed=5, hash_family="prf")
        ctx, owners = make_ctx(n, sorted(edges), spec)
        group = (owners % 50).astype(np.int64)
        b = ctx.group_sums(group, 50)
        res = b.sample()
        # Groups are scattered vertex classes: most have outgoing edges.
        assert res.found.sum() >= 25
        # Every recovery is verified; spot-check endpoint membership.
        for gi in np.nonzero(res.found)[0][:10]:
            slot = int(res.slots[gi])
            lo, hi = slot // n, slot % n
            inside = lo if res.signs[gi] == 1 else hi
            assert inside % 50 == gi


class TestSampleResultInvariants:
    def test_not_found_entries_are_sentinels(self):
        spec = SketchSpec.for_graph(16, seed=6)
        ctx, owners = make_ctx(16, [(0, 1)], spec)
        b = ctx.group_sums(np.zeros(owners.size, dtype=np.int64), 3)
        res = b.sample()
        for gi in range(3):
            if not res.found[gi]:
                assert res.slots[gi] == -1
                assert res.signs[gi] == 0
