"""Property-test hardening of the sketch stack (ISSUE 3 satellite).

Hypothesis-driven invariants of :mod:`repro.sketch.l0` and
:mod:`repro.sketch.field` — the three contracts the adversarial scenario
engine leans on:

* **Linearity** — ``sketch(A) + sketch(B) == sketch(A (+) B)`` for signed
  incidence multisets; it is exactly what lets proxies combine part
  sketches (Lemma 2) no matter how hostile the partition is.
* **Sample soundness** — any slot a sketch recovers for a vertex set S is
  a *real* edge of the graph crossing S, with the sign identifying the
  internal endpoint.
* **Field exactness** — ``modp_scatter_sum`` (the 30-bit-split scatter
  underlying all fingerprint aggregation) agrees with big-int arithmetic,
  and the mulmod/addmod ring identities hold on arbitrary field elements.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators
from repro.sketch.edgespace import decode_slot, incident_slots_and_signs
from repro.sketch.field import MERSENNE_P, addmod, mulmod, submod
from repro.sketch.l0 import SketchContext, SketchSpec

from dense_sketch import dense, modp_scatter_sum

felt = st.integers(min_value=0, max_value=MERSENNE_P - 1)


# --------------------------------------------------------------------------
# Field identities
# --------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(felt, min_size=1, max_size=40),
    signs=st.data(),
    n_bins=st.integers(min_value=1, max_value=5),
)
def test_modp_scatter_sum_matches_bigint(values, signs, n_bins):
    vals = np.array(values, dtype=np.uint64)
    sgn = np.array(
        [signs.draw(st.sampled_from([-1, 1])) for _ in values], dtype=np.int64
    )
    idx = np.array(
        [signs.draw(st.integers(min_value=0, max_value=n_bins - 1)) for _ in values],
        dtype=np.int64,
    )
    out = modp_scatter_sum(vals, sgn, idx, n_bins)
    for b in range(n_bins):
        expected = sum(
            int(s) * int(v) for v, s, i in zip(values, sgn, idx) if i == b
        ) % MERSENNE_P
        assert int(out[b]) == expected


@settings(max_examples=100, deadline=None)
@given(a=felt, b=felt, c=felt)
def test_mulmod_distributes_over_addmod(a, b, c):
    left = mulmod(a, addmod(b, c))
    right = addmod(mulmod(a, b), mulmod(a, c))
    assert int(left) == int(right)


@settings(max_examples=100, deadline=None)
@given(a=felt, b=felt)
def test_submod_is_additive_inverse(a, b):
    assert int(addmod(submod(a, b), b)) == a


@settings(max_examples=50, deadline=None)
@given(values=st.lists(felt, min_size=1, max_size=64))
def test_scatter_sum_of_value_and_negation_is_zero(values):
    # sum(v) + sum(-v) == 0 (mod p), bin-wise — the cancellation the
    # incidence-vector sign convention relies on.
    vals = np.array(values * 2, dtype=np.uint64)
    sgn = np.array([1] * len(values) + [-1] * len(values), dtype=np.int64)
    idx = np.zeros(vals.size, dtype=np.int64)
    out = modp_scatter_sum(vals, sgn, idx, 1)
    assert int(out[0]) == 0


# --------------------------------------------------------------------------
# Sketch linearity
# --------------------------------------------------------------------------


def _context_for(g, spec):
    owner = np.concatenate([g.edges_u, g.edges_v])
    other = np.concatenate([g.edges_v, g.edges_u])
    slots, sgns = incident_slots_and_signs(g.n, owner, other)
    return SketchContext(spec, slots, sgns), owner


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=8, max_value=40),
    split=st.integers(min_value=1, max_value=7),
)
def test_sketch_linearity_group_sum_equals_part_sum(seed, n, split):
    # sketch(A) + sketch(B) == sketch(A (+) B): sketching each vertex as
    # its own group and aggregating must equal sketching the merged
    # grouping directly, entry for entry.
    g = generators.gnm_random(n, min(2 * n, n * (n - 1) // 2), seed=seed)
    if g.m == 0:
        return
    spec = SketchSpec.for_graph(g.n, seed=seed, repetitions=2)
    ctx, owner = _context_for(g, spec)
    labels = (np.arange(g.n, dtype=np.int64) * 2654435761 + split) % split
    per_vertex = ctx.group_sums(owner, g.n)
    merged_direct = ctx.group_sums(labels[owner], split)
    merged_via_aggregate = dense(per_vertex).aggregate(labels, split)
    assert np.array_equal(merged_direct.counts, merged_via_aggregate.counts)
    assert np.array_equal(merged_direct.sums, merged_via_aggregate.sums)
    assert np.array_equal(merged_direct.fps, merged_via_aggregate.fps)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=8, max_value=40),
)
def test_sketch_add_equals_concatenated_incidences(seed, n):
    # Splitting the incidence list in half, sketching each half, and
    # adding the bundles must equal the one-shot sketch (machine-local
    # sketches summed at a proxy == global sketch).
    g = generators.gnm_random(n, min(2 * n, n * (n - 1) // 2), seed=seed)
    if g.m == 0:
        return
    spec = SketchSpec.for_graph(g.n, seed=seed, repetitions=2)
    owner = np.concatenate([g.edges_u, g.edges_v])
    other = np.concatenate([g.edges_v, g.edges_u])
    slots, sgns = incident_slots_and_signs(g.n, owner, other)
    cut = slots.size // 2
    whole = SketchContext(spec, slots, sgns).group_sums(owner, g.n)
    left = SketchContext(spec, slots[:cut], sgns[:cut]).group_sums(owner[:cut], g.n)
    right = SketchContext(spec, slots[cut:], sgns[cut:]).group_sums(owner[cut:], g.n)
    combined = dense(left).add(dense(right))
    assert np.array_equal(whole.counts, combined.counts)
    assert np.array_equal(whole.sums, combined.sums)
    assert np.array_equal(whole.fps, combined.fps)


# --------------------------------------------------------------------------
# Sample soundness
# --------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=8, max_value=48),
    subset_bits=st.integers(min_value=1, max_value=2**20 - 1),
)
def test_sample_returns_a_real_crossing_edge(seed, n, subset_bits):
    g = generators.gnm_random(n, min(3 * n, n * (n - 1) // 2), seed=seed)
    if g.m == 0:
        return
    in_set = np.array([(subset_bits >> (v % 20)) & 1 for v in range(n)], dtype=bool)
    if not in_set.any() or in_set.all():
        return
    spec = SketchSpec.for_graph(g.n, seed=seed, repetitions=4)
    ctx, owner = _context_for(g, spec)
    group = in_set[owner].astype(np.int64)  # group 1 = the vertex set S
    bundle = ctx.group_sums(group, 2)
    sample = bundle.sample()
    if not sample.found[1]:
        return  # sampling may fail; soundness is about what IS returned
    slot = int(sample.slots[1])
    x, y = decode_slot(g.n, slot)
    x, y = int(x), int(y)
    # (x, y) must be an actual edge of G...
    edge_keys = set(
        (int(u), int(v)) for u, v in zip(g.edges_u, g.edges_v)
    )
    assert (min(x, y), max(x, y)) in edge_keys
    # ...crossing the cut (one endpoint in S, one outside)...
    assert bool(in_set[x]) != bool(in_set[y])
    # ...with the sign naming the internal endpoint (+1: smaller id inside).
    sign = int(sample.signs[1])
    assert sign == (1 if in_set[min(x, y)] else -1)
