"""Integration tests for the Theorem-2 MST algorithm."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import KMachineCluster
from repro.core import mst, outgoing
from repro.core.mst import minimum_spanning_tree_distributed
from repro.graphs import generators as gen
from repro.graphs import reference as ref
from repro.sketch.edgespace import decode_slot


def run(g, k=8, seed=5, **kw):
    cl = KMachineCluster.create(g, k=k, seed=seed)
    return cl, minimum_spanning_tree_distributed(cl, seed=seed, **kw)


def edge_set(us, vs):
    return set(zip(np.minimum(us, vs).tolist(), np.maximum(us, vs).tolist()))


class TestCorrectness:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exact_mst_on_unique_weights(self, seed):
        g = gen.with_unique_weights(gen.gnm_random(120, 420, seed=seed), seed=seed)
        _, res = run(g, seed=seed)
        assert res.certified
        kr = ref.kruskal_mst(g)
        assert edge_set(res.edges_u, res.edges_v) == edge_set(g.edges_u[kr], g.edges_v[kr])
        assert res.total_weight == pytest.approx(ref.mst_weight(g, kr))

    def test_forest_on_disconnected(self):
        g = gen.with_unique_weights(gen.planted_components(100, 4, seed=4), seed=4)
        _, res = run(g, seed=4)
        kr = ref.kruskal_mst(g)
        assert res.n_edges == kr.size == g.n - 4
        assert res.total_weight == pytest.approx(ref.mst_weight(g, kr))

    def test_tree_input_returns_all_edges(self):
        g = gen.with_unique_weights(gen.random_spanning_tree(80, seed=5), seed=5)
        _, res = run(g, seed=5)
        assert res.n_edges == 79
        assert edge_set(res.edges_u, res.edges_v) == edge_set(g.edges_u, g.edges_v)

    def test_duplicate_weights_still_spanning(self):
        # Without unique weights the MST may be non-unique; the output must
        # still be a minimum-weight spanning forest.
        g = gen.gnm_random(90, 300, seed=6).with_weights(
            np.ones(300, dtype=np.float64)
        )
        _, res = run(g, seed=6)
        assert res.n_edges == g.n - 1
        assert res.total_weight == pytest.approx(float(g.n - 1))

    @pytest.mark.parametrize("k", [2, 4, 16])
    def test_various_k(self, k):
        g = gen.with_unique_weights(gen.gnm_random(100, 350, seed=7), seed=7)
        _, res = run(g, k=k, seed=7)
        kr = ref.kruskal_mst(g)
        assert res.total_weight == pytest.approx(ref.mst_weight(g, kr))


class TestOutputModes:
    def test_strict_costs_more_on_star(self):
        # Theorem 2(b): the strict output criterion forces Omega~(n/k) —
        # on a star, the centre's home machine must learn every edge.
        g = gen.with_unique_weights(gen.star_graph(2000), seed=8)
        _, relaxed = run(g, k=8, seed=8, output="relaxed")
        _, strict = run(g, k=8, seed=8, output="strict")
        assert strict.rounds > relaxed.rounds
        assert strict.total_weight == pytest.approx(relaxed.total_weight)

    def test_invalid_output_mode(self):
        g = gen.with_unique_weights(gen.path_graph(10), seed=9)
        cl = KMachineCluster.create(g, k=2, seed=9)
        with pytest.raises(ValueError, match="output"):
            minimum_spanning_tree_distributed(cl, output="both")

    def test_owner_machines_valid(self):
        g = gen.with_unique_weights(gen.gnm_random(80, 240, seed=10), seed=10)
        cl, res = run(g, seed=10)
        assert res.owner_machine.min(initial=0) >= 0
        assert res.owner_machine.max(initial=0) < cl.k


class TestEliminationLoop:
    def test_fixed_budget_mode_uncertified(self):
        g = gen.with_unique_weights(gen.gnm_random(100, 400, seed=11), seed=11)
        _, res = run(g, seed=11, strict_elimination_budget=2)
        # With only 2 elimination iterations per phase the MWOE is not
        # certified, but the result must still be a spanning tree.
        assert res.n_edges == g.n - 1
        kr = ref.kruskal_mst(g)
        assert res.total_weight >= ref.mst_weight(g, kr) - 1e-9

    def test_elimination_iterations_logarithmic(self):
        g = gen.with_unique_weights(gen.gnm_random(300, 1500, seed=12), seed=12)
        _, res = run(g, seed=12)
        worst = max(s.elimination_iterations for s in res.phase_stats)
        assert worst <= 4 * np.log2(300) + 8

    def test_phase_stats_certified_counts(self):
        g = gen.with_unique_weights(gen.gnm_random(100, 300, seed=13), seed=13)
        _, res = run(g, seed=13)
        for s in res.phase_stats:
            assert s.mwoe_uncertified == 0  # fixpoint mode certifies everything

    def test_finished_components_sketch_nothing_on_negative_weights(self, monkeypatch):
        # Weights -1..-m: every outgoing edge of a certified component is
        # lighter than 0, so a finished component must be excluded by its
        # bound itself, not by the sign of its weights.  Every sketch
        # context a selection builds may hold only incidences owned by
        # components still active in the elimination loop.
        base = gen.with_unique_weights(gen.gnm_random(120, 420, seed=3), seed=3)
        g = base.with_weights(-base.weights)
        contexts = []

        class SpyContext(outgoing.SketchContext):
            def __init__(self, spec, slots, signs):
                super().__init__(spec, slots, signs)
                contexts.append((self.slots, self.signs))

        calls = []
        real_select = mst.select_outgoing_edges

        def spy_select(cluster, shared, labels, phase, **kwargs):
            before = len(contexts)
            sel = real_select(cluster, shared, labels, phase, **kwargs)
            calls.append((phase, labels.copy(), sel, contexts[before:]))
            return sel

        monkeypatch.setattr(outgoing, "SketchContext", SpyContext)
        monkeypatch.setattr(mst, "select_outgoing_edges", spy_select)
        _, res = run(g, seed=3)

        assert res.certified
        kr = ref.kruskal_mst(g)
        assert edge_set(res.edges_u, res.edges_v) == edge_set(g.edges_u[kr], g.edges_v[kr])
        assert res.total_weight == pytest.approx(ref.mst_weight(g, kr))
        phase, checked = None, 0
        for call_phase, labels, sel, ctxs in calls:
            if call_phase != phase:
                phase, active = call_phase, np.ones(sel.parts.n_components, dtype=bool)
            finished = sel.parts.comp_labels[~active]
            checked += finished.size
            for slots, signs in ctxs:
                lo, hi = decode_slot(g.n, slots)
                owners = np.where(signs > 0, lo, hi)
                assert not np.isin(labels[owners], finished).any()
            active &= sel.sketch_nonzero
        assert checked > 0  # components did finish before later iterations

    def test_elimination_narrows_the_carried_live_set(self, monkeypatch):
        # Each phase starts from every cross-component incidence; every
        # later iteration's live set is the previous iteration's kept
        # index, and keeps exactly those of its incidences under the bound.
        g = gen.with_unique_weights(gen.gnm_random(120, 420, seed=6), seed=6)
        calls = []
        real_select = mst.select_outgoing_edges

        def spy_select(cluster, shared, labels, phase, **kwargs):
            sel = real_select(cluster, shared, labels, phase, **kwargs)
            calls.append((cluster, labels.copy(), phase, kwargs, sel))
            return sel

        monkeypatch.setattr(mst, "select_outgoing_edges", spy_select)
        _, res = run(g, seed=6)
        assert res.certified
        prev = None
        narrowed = 0
        for cluster, labels, phase, kwargs, sel in calls:
            live = kwargs["inc_live"]
            if prev is None or prev[0] != phase:
                cross = labels[cluster.inc_owner] != labels[cluster.inc_other]
                assert np.array_equal(live, np.flatnonzero(cross))
            else:
                assert live is prev[1].inc_kept
            comp = sel.parts.comp_of_part[sel.parts.part_of_vertex[cluster.inc_owner[live]]]
            bound = kwargs["weight_bound_per_comp"]
            assert np.array_equal(sel.inc_kept, live[cluster.inc_weight[live] < bound[comp]])
            narrowed += int(sel.inc_kept.size < live.size)
            prev = (phase, sel)
        assert narrowed > 0


@given(
    n=st.integers(min_value=10, max_value=80),
    extra=st.integers(min_value=0, max_value=120),
    seed=st.integers(min_value=0, max_value=500),
)
@settings(max_examples=10, deadline=None)
def test_property_mst_weight_matches_kruskal(n, extra, seed):
    m = min(n - 1 + extra, n * (n - 1) // 2)
    base = gen.gnm_random(n, m, seed=seed)
    g = gen.with_unique_weights(base, seed=seed)
    cl = KMachineCluster.create(g, k=4, seed=seed)
    res = minimum_spanning_tree_distributed(cl, seed=seed)
    kr = ref.kruskal_mst(g)
    assert res.total_weight == pytest.approx(ref.mst_weight(g, kr))
