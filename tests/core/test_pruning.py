"""Property suite: late-phase incidence pruning is byte-invisible.

``select_outgoing_edges`` drops component-internal incidence pairs before
sketching and sketches only occupied components; the docstring of
:func:`repro.core.outgoing._sketch_components` proves this exact.  The
reference oracle here is the unpruned pipeline — sketch every incidence
per part, then ``aggregate`` parts into components — swapped in through
that one seam, so the pruned and reference paths must agree on every
output byte — selections, ledger charges, and full-run envelopes — across
graph families x seeds x phase depths.  Hypothesis drives the
family/seed/phase axes; any counterexample it finds is a hole in the
cancellation proof, not measurement noise.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import generators as gen
from repro.cluster.cluster import KMachineCluster
from repro.cluster.shared_random import SharedRandomness
from repro.core import outgoing
from repro.core.labels import initial_labels
from repro.core.outgoing import select_outgoing_edges
from repro.graphs.graph import Graph
from repro.runtime import ClusterConfig, RunConfig, Session
from repro.sketch.l0 import SketchContext

#: name -> graph factory; spans dense random, high-diameter, and
#: multi-component families (the late-phase shapes differ in each).
FAMILIES = {
    "gnm": lambda seed: gen.gnm_random(96, 288, seed=seed),
    "cycle": lambda seed: gen.cycle_graph(90),
    "lollipop": lambda seed: gen.lollipop(clique_size=24, path_len=56),
    "disjoint": lambda seed: gen.disjoint_union(
        [gen.path_graph(30), gen.cycle_graph(30), gen.gnm_random(30, 60, seed=seed)]
    ),
}


def _part_then_aggregate(spec, cluster, labels, parts, inc_part, bound, inc_cross):
    """The reference oracle: every incidence sketched per part, parts summed.

    Same signature and answers as ``outgoing._sketch_components``; no
    internal-pair filter, no occupied-component relabel.
    """
    del labels, inc_cross  # the oracle sketches internal pairs too
    mask = None
    if bound is not None:
        mask = cluster.inc_weight < bound[parts.comp_of_part[inc_part]]
    ctx = SketchContext(spec, cluster.inc_slot, cluster.inc_sign)
    part_bundle = ctx.group_sums(inc_part, parts.n_parts, mask=mask)
    comp_bundle = part_bundle.aggregate(parts.comp_of_part, parts.n_components)
    return comp_bundle.nonzero_mask(), comp_bundle.sample()


@contextlib.contextmanager
def _reference_pipeline():
    """Route every selection (and so every run) through the oracle."""
    calls = []

    def oracle(*args):
        calls.append(1)
        return _part_then_aggregate(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(outgoing, "_sketch_components", oracle)
        yield
    assert calls, "the reference oracle never ran"


def _both(fn) -> tuple:
    """``fn()`` under the reference oracle, then on the production path."""
    with _reference_pipeline():
        reference = fn()
    return reference, fn()


def _selection_state(sel) -> tuple:
    """Every output byte of a selection, as comparable objects."""
    return (
        sel.parts.comp_labels.tobytes(),
        sel.comp_proxy.tobytes(),
        sel.sketch_nonzero.tobytes(),
        sel.found.tobytes(),
        sel.slot.tobytes(),
        sel.internal_vertex.tobytes(),
        sel.foreign_vertex.tobytes(),
        sel.neighbor_label.tobytes(),
        sel.edge_weight.tobytes(),
    )


def _ledger_state(cluster) -> list:
    """The charge stream: label, rounds, and bits of every step, in order."""
    return [(s.label, s.rounds, s.total_bits) for s in cluster.ledger.steps]


def _merge(labels: np.ndarray, sel) -> np.ndarray:
    """Deterministic label merge along found edges (pointer-jumped union).

    Not the production merge rule — any coherent merge works here; the
    point is to reach deeper phases with realistic multi-vertex
    components so the pruned fraction is non-trivial.
    """
    parent = np.arange(labels.max() + 1, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ci in np.nonzero(sel.found)[0]:
        a = find(int(sel.parts.comp_labels[ci]))
        b = find(int(sel.neighbor_label[ci]))
        if a != b:
            parent[max(a, b)] = min(a, b)
    return np.array([find(int(l)) for l in labels], dtype=np.int64)


@given(
    family=st.sampled_from(sorted(FAMILIES)),
    seed=st.integers(min_value=0, max_value=50),
    phases=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_selection_bytes_identical_across_phases(family, seed, phases):
    """Pruned == reference at every phase of a Boruvka-style label evolution."""
    g = FAMILIES[family](seed)
    labels = initial_labels(g.n)
    for phase in range(1, phases + 1):

        def select():
            cl = KMachineCluster.create(g, k=4, seed=seed)
            shared = SharedRandomness(master_seed=seed, n=g.n, k=4)
            sel = select_outgoing_edges(cl, shared, labels, phase=phase)
            return sel, _selection_state(sel), _ledger_state(cl)

        (_, ref_state, ref_ledger), (sel, state, ledger) = _both(select)
        assert ref_state == state, f"selection diverged at phase {phase}"
        assert ref_ledger == ledger, f"ledger charges diverged at phase {phase}"
        labels = _merge(labels, sel)
        if np.unique(labels).size == 1:
            break


@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=15, deadline=None)
def test_selection_identical_under_weight_bound(seed):
    """The MST path: per-component weight bounds prune asymmetrically."""
    g = gen.with_unique_weights(gen.gnm_random(80, 240, seed=seed), seed=seed)
    labels = (np.arange(g.n, dtype=np.int64) % 8) * (g.n // 8)
    labels = np.sort(labels)  # 8 components, canonical smallest-member labels
    n_comp = np.unique(labels).size
    rng = np.random.default_rng(seed)
    bound = rng.uniform(0.2, 1.0, size=n_comp)

    def select():
        cl = KMachineCluster.create(g, k=4, seed=seed)
        shared = SharedRandomness(master_seed=seed, n=g.n, k=4)
        return _selection_state(
            select_outgoing_edges(
                cl, shared, labels, phase=2, weight_bound_per_comp=bound, want_weights=True
            )
        )

    reference, pruned = _both(select)
    assert reference == pruned


@pytest.mark.parametrize("algorithm", ["connectivity", "mst"])
@given(family=st.sampled_from(sorted(FAMILIES)), seed=st.integers(min_value=0, max_value=20))
@settings(max_examples=10, deadline=None)
def test_full_run_envelopes_identical(algorithm, family, seed):
    """End to end: the reference oracle and production give the same bytes."""
    g = FAMILIES[family](seed)
    if algorithm == "mst":
        g = gen.with_unique_weights(g, seed=seed)
    cfg = RunConfig(seed=seed, cluster=ClusterConfig(k=4))
    reference, pruned = _both(
        lambda: Session(g, config=cfg).run(algorithm).to_json(include_timing=False)
    )
    assert reference == pruned


def _with_isolated(g, extra: int):
    """``g`` plus ``extra`` isolated vertices (components with no incidence)."""
    return Graph.from_edges(g.n + extra, g.edges_u, g.edges_v, g.weights)


@pytest.mark.parametrize(
    "situation", ["mostly_empty", "none_survive", "all_occupied", "mostly_occupied"]
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compaction_matches_reference(situation, seed, monkeypatch):
    """Sketching only occupied components is byte-invisible on both sides of the rule.

    ``mostly_empty``: a third of the vertices are isolated and most of the
    rest get a ``-inf`` bound, so fewer than half the components hold an
    incidence and the relabelled grid is taken.  ``none_survive``: every
    bound is ``-inf`` and no sketch context is built at all.
    ``all_occupied``: phase 1 of a graph without isolated vertices, where
    the full grid is kept.  ``mostly_occupied``: a seventh of the vertices
    are isolated, too few for a relabel to halve the grid, so the full grid
    is kept there as well.
    """
    g = gen.with_unique_weights(gen.gnm_random(60, 180, seed=seed), seed=seed)
    if situation in ("mostly_empty", "mostly_occupied"):
        g = _with_isolated(g, 30 if situation == "mostly_empty" else 10)
    labels = initial_labels(g.n)
    rng = np.random.default_rng(seed)
    bound = None
    if situation == "mostly_empty":
        bound = np.where(rng.random(g.n) < 0.2, np.inf, -np.inf)
    elif situation == "none_survive":
        bound = np.full(g.n, -np.inf)
    grids = []
    real_group_sums = SketchContext.group_sums

    def spy_group_sums(self, group_idx, n_groups, mask=None):
        grids.append(n_groups)
        return real_group_sums(self, group_idx, n_groups, mask)

    monkeypatch.setattr(SketchContext, "group_sums", spy_group_sums)

    def select():
        grids.clear()
        cl = KMachineCluster.create(g, k=4, seed=seed)
        shared = SharedRandomness(master_seed=seed, n=g.n, k=4)
        sel = select_outgoing_edges(
            cl,
            shared,
            labels,
            phase=1,
            weight_bound_per_comp=bound,
            want_weights=bound is not None,
        )
        return sel, _selection_state(sel), _ledger_state(cl)

    (_, *reference), (sel, *pruned) = _both(select)
    assert reference == pruned
    occupied = int(np.count_nonzero(sel.sketch_nonzero))
    if situation == "mostly_empty":
        assert 0 < occupied and grids == [occupied] and 2 * occupied <= g.n
    elif situation == "none_survive":
        assert grids == [] and occupied == 0
    elif situation == "all_occupied":
        assert grids == [g.n] and occupied == g.n
    else:
        assert grids == [g.n] and 2 * occupied > g.n and occupied < g.n
