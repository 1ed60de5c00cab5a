"""Differential suite: the lazy repetition walk equals the dense queries.

``SketchBundle.nonzero_mask``/``sample`` read one walk over the
repetitions that sketches a repetition only for the groups still *open*
(not yet both found and known nonzero), compacted, with the level axis cut
at each pass's deepest incidence; once the rest of the walk is small, one
pass takes every remaining repetition.  The reference is the dense
``(G, R, L)`` grid with the eager queries (``tests/dense_sketch.py``).
Hypothesis drives both hash families, R in {1, 2, 6}, group counts and
incidence layouts, on both sides of the batching rule; the forced cases
pin the open/closed bookkeeping through the ``_tables`` seam.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch import l0
from repro.sketch.field import MERSENNE_P
from repro.sketch.l0 import SketchContext, SketchSpec

from dense_sketch import assert_same_answers, dense

#: Forced batching rules: one pass per repetition, the default, everything in one pass.
_RULES = {"per_rep": 0, "default": l0._BATCH_WORK, "one_pass": 1 << 62}


def _incidences(rng: np.random.Generator, n: int, m: int, mirrored: bool):
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    if mirrored:
        owners, others = np.concatenate([u, v]), np.concatenate([v, u])
        signs = np.where(owners < others, 1, -1).astype(np.int64)
    else:
        owners, others = u, v
        signs = rng.choice([-1, 1], size=m).astype(np.int64)
    lo, hi = np.minimum(owners, others), np.maximum(owners, others)
    return (lo * n + hi).astype(np.uint64), signs


def _passes(ctx: SketchContext) -> list[tuple[range, np.ndarray]]:
    """Record ``(repetitions, incidence indices)`` of every ``_tables`` call."""
    calls = []
    real = ctx._tables

    def spy(reps, inc, powers=None):
        calls.append((reps, np.arange(ctx.n_incidences) if inc is None else inc.copy()))
        return real(reps, inc, powers)

    ctx._tables = spy
    return calls


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 1 << 30),
    family=st.sampled_from(["polynomial", "prf"]),
    reps=st.sampled_from([1, 2, 6]),
    n=st.integers(2, 200),
    m=st.sampled_from([0, 1, 5, 40, 300, 1500]),
    mirrored=st.booleans(),
    n_groups=st.integers(1, 60),
    rule=st.sampled_from(sorted(_RULES)),
)
def test_walk_equals_dense_queries(seed, family, reps, n, m, mirrored, n_groups, rule):
    rng = np.random.default_rng(seed)
    slots, signs = _incidences(rng, n, m, mirrored)
    spec = SketchSpec.for_graph(n, seed=seed, repetitions=reps, hash_family=family)
    gi = rng.integers(0, n_groups, size=slots.size).astype(np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(l0, "_BATCH_WORK", _RULES[rule])
        bundle = SketchContext(spec, slots, signs).group_sums(gi, n_groups)
        reference = dense(SketchContext(spec, slots, signs).group_sums(gi, n_groups))
        assert_same_answers(bundle, reference)


@pytest.mark.parametrize("family", ["polynomial", "prf"])
def test_both_sides_of_the_batching_rule_at_the_default(family):
    # 3000 mirrored incidences x 6 repetitions start above 2^14, so pass 0
    # runs alone and the tail batches once the open incidences shrink;
    # 40 incidences are batched from the start.
    rng = np.random.default_rng(1)
    for m, first in ((1500, range(0, 1)), (20, range(0, 6))):
        slots, signs = _incidences(rng, 1000, m, True)
        spec = SketchSpec.for_graph(1000, seed=m, hash_family=family)
        gi = rng.integers(0, 200, size=slots.size).astype(np.int64)
        ctx = SketchContext(spec, slots, signs)
        calls = _passes(ctx)
        bundle = ctx.group_sums(gi, 200)
        assert calls == []  # binding the grouping scatters nothing
        assert_same_answers(bundle, dense(SketchContext(spec, slots, signs).group_sums(gi, 200)))
        assert calls[0][0] == first
        assert calls[-1][0].stop <= spec.repetitions
        if m == 1500:
            assert len(calls) < spec.repetitions  # the tail went into one pass
            assert calls[-1][0].stop - calls[-1][0].start > 1


def _forced_ctx(spec: SketchSpec, slots, signs, force):
    """A context whose ``_tables`` output ``force(reps, idx, depths, fp)`` edits in place."""
    ctx = SketchContext(spec, slots, signs)
    real = ctx._tables

    def forced(reps, inc, powers=None):
        depths, fp = real(reps, inc, powers)
        idx = np.arange(ctx.n_incidences) if inc is None else inc
        force(reps, idx, depths, fp)
        return depths, fp

    ctx._tables = forced
    return ctx


@pytest.mark.parametrize("rule", sorted(_RULES))
@pytest.mark.parametrize("reps", [1, 3])
def test_found_with_a_zero_level0_fingerprint_stays_open_for_nonzero_only(rule, reps):
    # Group 0 holds slots a and d, both +1.  In repetition 0, a sits at the
    # deepest level and d at level 0 with its fingerprint forced to -r^a,
    # so level 0 cancels to fingerprint 0 (count 2) while the deepest
    # level verifies a: found, but not known nonzero.  In later
    # repetitions the depths swap, so a revisit that overwrote the sample
    # would report d.
    n = 64
    a, d = 3 * n + 9, 5 * n + 40
    slots = np.array([a, d, 7 * n + 8], dtype=np.uint64)
    signs = np.array([1, 1, 1], dtype=np.int64)
    spec = SketchSpec.for_graph(n, seed=5, repetitions=reps)
    deepest = spec.levels - 1
    neg_ra = (MERSENNE_P - pow(spec.fingerprint_base(0), a, MERSENNE_P)) % MERSENNE_P

    def force(rng_reps, idx, depths, fp):
        for row, rep in enumerate(rng_reps):
            deep, shallow = (0, 1) if rep == 0 else (1, 0)
            depths[row, idx == deep] = deepest
            depths[row, idx == shallow] = 0
            if rep == 0:
                fp[row, idx == 1] = neg_ra

    groups = np.array([0, 0, 1], dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(l0, "_BATCH_WORK", _RULES[rule])
        ctx = _forced_ctx(spec, slots, signs, force)
        calls = _passes(ctx)
        bundle = ctx.group_sums(groups, 2)
        sample = bundle.sample()
        walk = list(calls)
        assert_same_answers(bundle, dense(ctx.group_sums(groups, 2)))
    assert sample.found[0] and sample.slots[0] == a and sample.signs[0] == 1
    # With one repetition the forced zero is the only level-0 reading.
    assert bundle.nonzero_mask()[0] == (reps > 1)
    if reps > 1 and rule == "per_rep":
        # Group 0 was revisited for its nonzero bit, which repetition 1
        # settles; group 1 (settled at repetition 0) was not.
        assert [list(inc) for _, inc in walk] == [[0, 1, 2], [0, 1]]


@pytest.mark.parametrize("family", ["polynomial", "prf"])
def test_a_failing_first_candidate_falls_back_to_the_next_verified(family):
    # Group 0 holds a, b (+1) and c (-1) at the deepest level and a, b
    # (-1) at level 0: every level above 0 reads count 1 with id-sum
    # a + b - c, a false candidate preferred (deepest first), while level
    # 0 holds -c alone.  The sample must skip every false candidate and
    # take the verified one.
    n = 128
    a, b, c = 3 * n + 9, 5 * n + 40, 2 * n + 7
    slots = np.array([a, b, c, a, b, 9 * n + 1], dtype=np.uint64)
    signs = np.array([1, 1, -1, -1, -1, 1], dtype=np.int64)
    spec = SketchSpec.for_graph(n, seed=2, repetitions=2, hash_family=family)

    def force(reps, idx, depths, fp):
        depths[:, idx < 3] = spec.levels - 1
        depths[:, (idx == 3) | (idx == 4)] = 0

    ctx = _forced_ctx(spec, slots, signs, force)
    groups = np.array([0, 0, 0, 0, 0, 1], dtype=np.int64)
    bundle = ctx.group_sums(groups, 2)
    reference = dense(ctx.group_sums(groups, 2))
    assert (reference.counts[0, :, 1:] == 1).all()
    assert_same_answers(bundle, reference)
    sample = bundle.sample()
    assert sample.found[0] and sample.slots[0] == c and sample.signs[0] == -1


@pytest.mark.parametrize("rule", sorted(_RULES))
def test_all_cancelling_groups_stay_open_through_every_repetition(rule):
    # Group 0 holds slot s with +1 and -1: the zero vector.  It is never
    # found and never nonzero, so every repetition visits it; group 1's
    # single incidence settles at repetition 0.
    n = 50
    s = 4 * n + 11
    slots = np.array([s, s, 9 * n + 30], dtype=np.uint64)
    signs = np.array([1, -1, -1], dtype=np.int64)
    spec = SketchSpec.for_graph(n, seed=8, repetitions=6)
    groups = np.array([0, 0, 1], dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(l0, "_BATCH_WORK", _RULES[rule])
        ctx = SketchContext(spec, slots, signs)
        calls = _passes(ctx)
        bundle = ctx.group_sums(groups, 2)
        nonzero, sample = bundle.nonzero_mask(), bundle.sample()
    assert list(nonzero) == [False, True]
    assert list(sample.found) == [False, True]
    assert sample.slots[0] == -1 and sample.signs[0] == 0
    covered = [rep for reps, _ in calls for rep in reps]
    assert covered == list(range(6))  # every repetition, in order, once
    if rule == "per_rep":
        assert [list(inc) for _, inc in calls] == [[0, 1, 2]] + [[0, 1]] * 5


def test_settled_groups_are_never_revisited_and_bins_are_compacted():
    # Single-incidence groups settle at repetition 0 (level 0 holds one
    # +-1 slot whose fingerprint verifies); only the cancelling group's
    # incidences come back, as the only bin group of the later passes,
    # with the level axis cut at the pass's deepest incidence.
    n = 300
    rng = np.random.default_rng(2)
    singles = np.unique(rng.integers(0, n * n, size=40)).astype(np.uint64)
    s = np.uint64(17 * n + 4)
    slots = np.concatenate([singles, [s, s]]).astype(np.uint64)
    signs = np.concatenate([np.ones(singles.size), [1, -1]]).astype(np.int64)
    groups = np.concatenate([np.arange(singles.size), [singles.size] * 2]).astype(np.int64)
    spec = SketchSpec.for_graph(n, seed=3, repetitions=4)
    ctx = SketchContext(spec, slots, signs)
    shapes = []
    real_bins = ctx._bins

    def spy_bins(reps, inc, grp, n_groups, levels=None, powers=None):
        out = real_bins(reps, inc, grp, n_groups, levels, powers)
        depths = ctx._tables(reps, inc)[0]
        shapes.append((n_groups, out[0].shape, int(depths.max()) + 1))
        return out

    ctx._bins = spy_bins
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(l0, "_BATCH_WORK", 0)
        bundle = ctx.group_sums(groups, singles.size + 1)
        sample = bundle.sample()
    assert sample.found[: singles.size].all() and not sample.found[-1]
    assert len(shapes) == 4
    g0, shape0, deepest0 = shapes[0]
    assert g0 == singles.size + 1 and shape0 == (g0, 1, deepest0)
    for g, shape, deepest in shapes[1:]:
        assert g == 1 and shape == (1, 1, deepest)


def test_walk_runs_once_and_dense_grid_is_separate():
    # Both queries read one cached walk; materializing the dense grid
    # afterwards (the benchmark's bin counters) leaves the answers alone,
    # and the grid is the full (G, R, L) one the counters always read.
    n = 128
    rng = np.random.default_rng(4)
    slots, signs = _incidences(rng, n, 200, True)
    spec = SketchSpec.for_graph(n, seed=4)
    gi = rng.integers(0, 30, size=slots.size).astype(np.int64)
    ctx = SketchContext(spec, slots, signs)
    calls = _passes(ctx)
    bundle = ctx.group_sums(gi, 30)
    nonzero, sample = bundle.nonzero_mask(), bundle.sample()
    walk_calls = len(calls)
    assert bundle.nonzero_mask() is nonzero and bundle.sample() is sample
    assert len(calls) == walk_calls
    c, fps = bundle.counts, bundle.fps
    assert c.shape == (30, spec.repetitions, spec.levels)
    assert len(calls) == walk_calls + 1 and calls[-1][0] == range(spec.repetitions)
    assert bundle.counts is c  # cached
    # The counters' definitions over the grid agree with the walk.
    assert np.any(fps[:, :, 0] != 0, axis=1).tobytes() == nonzero.tobytes()
    reference = dense(bundle)
    assert_same_answers(bundle, reference)
    assert (reference.counts == c).all()


def test_no_incidences_answers_without_a_pass():
    spec = SketchSpec.for_graph(16, seed=1)
    ctx = SketchContext(spec, np.empty(0, np.uint64), np.empty(0, np.int64))
    calls = _passes(ctx)
    bundle = ctx.group_sums(np.empty(0, np.int64), 3)
    assert not bundle.nonzero_mask().any()
    sample = bundle.sample()
    assert not sample.found.any() and (sample.slots == -1).all() and (sample.signs == 0).all()
    assert calls == []
