"""Property suite: lazy fingerprint reduction is byte-invisible.

Sketch bins keep fingerprints as exact signed 30-bit-half int64
accumulators and reduce mod p only at the bins a query reads; ``sample``
verifies candidates from the context's power table instead of a fresh
powmod.  Reduction mod p commutes with the integer sums, so every query
must return exactly what the eager implementation did.  The eager
``nonzero_mask``/``sample`` live on here, verbatim, as the oracle: they
read canonical ``fps`` and verify with ``powmod``.  Both the lazy
repetition walk and the tests' dense reference bundle are held to it.
Hypothesis drives the family / seed / incidence-layout / filter axes; any
counterexample is a hole in the commuting-sums argument, not noise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.edgespace import max_slot_bits
from repro.sketch import l0
from repro.sketch.field import MERSENNE_P, powmod
from repro.sketch.l0 import (
    SampleResult,
    SketchContext,
    SketchSpec,
    _digit_count,
    _digit_table,
    _slot_power_table,
    _slot_powers,
)

import dense_sketch
from dense_sketch import DenseBundle, dense

_P = np.uint64(MERSENNE_P)


# --------------------------------------------------------------------------
# Eager oracle (the pre-lazy query path, verbatim over canonical fps)
# --------------------------------------------------------------------------


def _eager_nonzero_mask(bundle) -> np.ndarray:
    return np.any(bundle.fps[:, :, 0] != 0, axis=1)


def _eager_sample(bundle) -> SampleResult:
    g, r, l = bundle.counts.shape
    c = bundle.counts
    cand = np.abs(c) == 1
    slots_all = bundle.sums * c  # c in {-1,+1} on candidate cells
    n2 = np.int64(bundle.spec.n) * np.int64(bundle.spec.n)
    cand &= (slots_all >= 0) & (slots_all < n2)
    found = np.zeros(g, dtype=bool)
    out_slot = np.full(g, -1, dtype=np.int64)
    out_sign = np.zeros(g, dtype=np.int64)
    if not cand.any():
        return SampleResult(found, out_slot, out_sign)
    gi, ri, li = np.nonzero(cand)
    slots = slots_all[gi, ri, li].astype(np.uint64)
    signs = c[gi, ri, li]
    fps = bundle.fps[gi, ri, li]
    bits = max_slot_bits(bundle.spec.n)
    bases = np.array(
        [bundle.spec.fingerprint_base(rep) for rep in range(r)], dtype=np.uint64
    )
    expected = powmod(bases[ri], slots, max_exp_bits=bits)
    neg = signs < 0
    exp_signed = expected.copy()
    exp_signed[neg] = (_P - expected[neg]) % _P
    ok = fps == exp_signed
    if not ok.any():
        return SampleResult(found, out_slot, out_sign)
    gi, ri, li, slots, signs = gi[ok], ri[ok], li[ok], slots[ok], signs[ok]
    order = np.lexsort(((l - 1 - li), ri, gi))
    gi_o = gi[order]
    first = np.ones(gi_o.size, dtype=bool)
    first[1:] = gi_o[1:] != gi_o[:-1]
    pick = order[first]
    found[gi[pick]] = True
    out_slot[gi[pick]] = slots[pick].astype(np.int64)
    out_sign[gi[pick]] = signs[pick]
    return SampleResult(found, out_slot, out_sign)


def _bigint_fps(ctx: SketchContext, gi, n_groups: int, mask=None) -> np.ndarray:
    """Canonical fingerprints by Python-int accumulation, one bin at a time."""
    spec = ctx.spec
    r, l = spec.repetitions, spec.levels
    depths = ctx._tables(range(r), None)[0]
    out = [[[0] * l for _ in range(r)] for _ in range(n_groups)]
    for i in range(ctx.n_incidences):
        if mask is not None and not mask[i]:
            continue
        slot, sign = int(ctx.slots[i]), int(ctx.signs[i])
        for rep in range(r):
            term = sign * pow(spec.fingerprint_base(rep), slot, MERSENNE_P)
            for lev in range(int(depths[rep, i]) + 1):
                out[int(gi[i])][rep][lev] += term
    return np.array(
        [[[v % MERSENNE_P for v in row] for row in rep] for rep in out], dtype=np.uint64
    ).reshape(n_groups, r, l)


def _assert_queries_match_eager(bundle) -> None:
    """Lazy queries == eager oracle; the four-argument rebuild agrees too."""
    fps = bundle.fps
    assert fps.dtype == np.uint64 and (fps < _P).all()
    want_mask = _eager_nonzero_mask(bundle)
    want = _eager_sample(bundle)
    rebuilt = DenseBundle(bundle.spec, bundle.counts, bundle.sums, fps)
    for b in (bundle, rebuilt):
        assert b.fps.tobytes() == fps.tobytes()
        assert b.nonzero_mask().tobytes() == want_mask.tobytes()
        got = b.sample()
        assert got.found.tobytes() == want.found.tobytes()
        assert got.slots.tobytes() == want.slots.tobytes()
        assert got.signs.tobytes() == want.signs.tobytes()


def _incidences(rng: np.random.Generator, n: int, m: int, mirrored: bool):
    u = rng.integers(0, n, size=m)
    v = rng.integers(0, n, size=m)
    if mirrored:
        # The cluster layout: concat(u, v) owners against concat(v, u).
        owners, others = np.concatenate([u, v]), np.concatenate([v, u])
        signs = np.where(owners < others, 1, -1).astype(np.int64)
    else:
        owners, others = u, v
        signs = rng.choice([-1, 1], size=m).astype(np.int64)
    lo, hi = np.minimum(owners, others), np.maximum(owners, others)
    return (lo * n + hi).astype(np.uint64), signs


# --------------------------------------------------------------------------
# Properties
# --------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 1 << 30),
    family=st.sampled_from(["polynomial", "prf"]),
    n=st.integers(2, 96),
    m=st.integers(0, 48),
    mirrored=st.booleans(),
    n_groups=st.integers(1, 6),
    filtered=st.booleans(),
)
def test_lazy_queries_match_eager(seed, family, n, m, mirrored, n_groups, filtered):
    rng = np.random.default_rng(seed)
    slots, signs = _incidences(rng, n, m, mirrored)
    spec = SketchSpec.for_graph(n, seed=seed, repetitions=3, hash_family=family)
    ctx = SketchContext(spec, slots, signs)
    gi = rng.integers(0, n_groups, size=slots.size).astype(np.int64)
    mask = rng.random(slots.size) < 0.7 if filtered else None
    # A filtered sketch is the sketch of the filtered incidence list.
    sub = ctx if mask is None else SketchContext(spec, slots[mask], signs[mask])
    sub_gi = gi if mask is None else gi[mask]

    bundle = sub.group_sums(sub_gi, n_groups)
    assert bundle.fps.tobytes() == _bigint_fps(ctx, gi, n_groups, mask).tobytes()
    _assert_queries_match_eager(bundle)

    n_out = int(rng.integers(1, 4))
    gm = rng.integers(0, n_out, size=n_groups).astype(np.int64)
    merged = dense(bundle).aggregate(gm, n_out)
    assert merged.fps.tobytes() == _bigint_fps(ctx, gm[gi], n_out, mask).tobytes()
    _assert_queries_match_eager(merged)
    _assert_queries_match_eager(sub.group_sums(gm[sub_gi], n_out))

    other = dense(
        ctx.group_sums(rng.integers(0, n_groups, size=slots.size).astype(np.int64), n_groups)
    )
    total = dense(bundle).add(other)
    assert total.fps.tobytes() == ((bundle.fps + other.fps) % _P).tobytes()
    _assert_queries_match_eager(total)
    hand_built = DenseBundle(spec, bundle.counts, bundle.sums, bundle.fps)
    _assert_queries_match_eager(hand_built.add(other))


def test_power_table_tracks_each_pass(monkeypatch):
    # Every pass of the walk builds one table for its own repetitions,
    # sized to the slots it evaluates: a tiny context gets narrow digit
    # rows, a large one's first pass the two n-wide rows [r^j; (r^n)^j]
    # (n a power of two) of repetition 0 alone, and the later passes over
    # the open groups only narrower ones.
    n = 512
    rng = np.random.default_rng(7)
    spec = SketchSpec.for_graph(n, seed=1)
    tiny = SketchContext(spec, *_incidences(rng, n, 3, True))
    big = SketchContext(spec, *_incidences(rng, n, 3000, True))
    tables = []
    real = l0._slot_power_table

    def spy(spec_, evals, reps=None):
        table = real(spec_, evals, reps)
        tables.append((evals, reps, table))
        return table

    monkeypatch.setattr(l0, "_slot_power_table", spy)
    for ctx, want in ((tiny, [(3, range(6), (9, 6, 4))]), (big, [(3000, range(1), (2, 1, n))])):
        tables.clear()
        groups = rng.integers(0, 500, size=ctx.n_incidences).astype(np.int64)
        bundle = ctx.group_sums(groups, 500)
        assert bundle.sample().found.any()
        walk = list(tables)
        _assert_queries_match_eager(bundle)
        # 18 slot bits: 9 base-4 digits for 3 slots, 2 base-512 ones for 3000.
        assert [(e, r, t.shape) for e, r, t in walk[: len(want)]] == want
        for evals, reps, table in walk[1:]:
            assert evals < walk[0][0] and table.shape[2] <= n and reps.start >= 1
    first = walk[0][2]
    base = spec.fingerprint_base(0)
    for digit, row_base in enumerate((base, pow(base, n, MERSENNE_P))):
        assert [int(v) for v in first[digit, 0, :40]] == [
            pow(row_base, j, MERSENNE_P) for j in range(40)
        ]


def _bigint_powers(spec: SketchSpec, reps: np.ndarray, slots: np.ndarray) -> list[int]:
    return [
        pow(spec.fingerprint_base(int(rep)), int(slot), MERSENNE_P)
        for rep, slot in zip(reps, slots)
    ]


#: The digit counts the size rule picks over all frontier sizes: a larger
#: D with the same digit width is never cheaper, so those never appear.
_RULE_DIGITS = {64: {1, 2, 3, 4, 6}, 100: {1, 2, 3, 4, 5, 7}}


@pytest.mark.parametrize("n", [64, 100])  # a power of two and not
def test_slot_powers_match_bigint_at_every_digit_count(n):
    spec = SketchSpec.for_graph(n, seed=n, repetitions=3)
    bits = max_slot_bits(n)
    rng = np.random.default_rng(n)
    slots = np.concatenate(
        [[0, 1, n * n - 1], rng.integers(0, n * n, size=200)]
    ).astype(np.uint64)
    reps = rng.integers(0, 3, size=slots.size)
    want = _bigint_powers(spec, reps, slots)
    for digits in range(1, bits + 1):
        table = _digit_table(spec, digits)
        width = 1 << -(-bits // digits)
        assert table.shape == (digits, 3, width)
        assert [int(v) for v in _slot_powers(table, reps, slots)] == want
        # A table of a sub-range of repetitions indexes them from 0.
        tail = _digit_table(spec, digits, range(1, 3))
        assert tail.shape == (digits, 2, width)
        late = reps >= 1
        got = _slot_powers(tail, reps[late] - 1, slots[late])
        assert [int(v) for v in got] == [w for w, keep in zip(want, late) if keep]
    # The tables the size rule builds, swept over frontier sizes that make
    # it pick every digit count it ever picks.
    picked = set()
    for evals in [*range(300), *(1 << k for k in range(9, bits + 2))]:
        picked.add(_digit_count(bits, evals))
    assert picked == _RULE_DIGITS[n]
    for digits in picked:
        evals = next(e for e in range(1 << (bits + 1)) if _digit_count(bits, e) == digits)
        table = _slot_power_table(spec, evals)
        assert table.shape[:2] == (digits, 3)
        assert [int(v) for v in _slot_powers(table, reps, slots)] == want


@pytest.mark.parametrize("n", [1 << 12, 1 << 14])
def test_size_rule_keeps_the_n_wide_table_for_large_frontiers(n):
    # The phase-1 calls of the large benchmark graphs (E = m = 4n slots)
    # get D = 2 digits of width n: the table every call built before.
    bits = max_slot_bits(n)
    assert _digit_count(bits, 4 * n) == 2
    assert 1 << -(-bits // 2) == n


def test_dense_bundle_verifies_through_a_candidate_sized_table(monkeypatch):
    n = 300
    rng = np.random.default_rng(3)
    spec = SketchSpec.for_graph(n, seed=9, repetitions=4)
    ctx = SketchContext(spec, *_incidences(rng, n, 80, True))
    groups = rng.integers(0, 6, size=ctx.n_incidences).astype(np.int64)
    bundle = ctx.group_sums(groups, 6)
    hand_built = DenseBundle(spec, bundle.counts, bundle.sums, bundle.fps)
    built = []
    real = dense_sketch._slot_power_table

    def spy(spec_, evals):
        built.append(evals)
        return real(spec_, evals)

    monkeypatch.setattr(dense_sketch, "_slot_power_table", spy)
    got, want = hand_built.sample(), bundle.sample()
    c = bundle.counts
    slots = bundle.sums * c
    candidates = ((np.abs(c) == 1) & (slots >= 0) & (slots < n * n)).sum()
    assert built == [candidates]  # one table, sized to the candidates
    assert want.found.any()
    for a, b in zip((got.found, got.slots, got.signs), (want.found, want.slots, want.signs)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("family", ["polynomial", "prf"])
@pytest.mark.parametrize("m", [3, 300])
def test_forced_false_candidates_are_rejected(family, m):
    # Group 0 holds slots a + b - c with every incidence forced to the
    # deepest level: every (repetition, level) bin reads c == 1 and an
    # in-range id-sum, yet no bin is one-sparse.  The fingerprint check
    # must reject every such candidate, from a narrow table (m = 3) and
    # from a wide one (m = 300): both walks are one batched pass over
    # 3 + m slots.
    n = 256
    a, b, c = 3 * n + 9, 5 * n + 40, 2 * n + 7
    rng = np.random.default_rng(m)
    filler, filler_signs = _incidences(rng, n, m, False)
    slots = np.concatenate([np.array([a, b, c], dtype=np.uint64), filler])
    signs = np.concatenate([np.array([1, 1, -1], dtype=np.int64), filler_signs])
    spec = SketchSpec.for_graph(n, seed=11, repetitions=4, hash_family=family)
    bits = max_slot_bits(n)
    assert 1 << -(-bits // _digit_count(bits, 3 + m)) == (4 if m == 3 else 64)
    ctx = SketchContext(spec, slots, signs)
    real = ctx._tables

    def forced(reps, inc, powers=None):  # adversarial override: the first three at max depth
        depths, fp = real(reps, inc, powers)
        idx = np.arange(ctx.n_incidences) if inc is None else inc
        depths[:, idx < 3] = spec.levels - 1
        return depths, fp

    ctx._tables = forced
    groups = np.concatenate([np.zeros(3, dtype=np.int64), np.ones(m, dtype=np.int64)])
    bundle = ctx.group_sums(groups, 2)
    assert (bundle.counts[0] == 1).all()
    assert (bundle.sums[0] == a + b - c).all()
    assert not bundle.sample().found[0]
    _assert_queries_match_eager(bundle)


def test_large_scatter_matches_eager():
    # ~17k incidences, far past the property suite's sizes, whole and
    # filtered: the lazily reduced halves must still give the bigint
    # fingerprints, and the walk the eager query answers.
    n = 1024
    rng = np.random.default_rng(5)
    slots, signs = _incidences(rng, n, 8192 + 500, True)
    spec = SketchSpec.for_graph(n, seed=3, repetitions=3)
    ctx = SketchContext(spec, slots, signs)
    assert ctx.n_incidences > 2 * 8192
    gi = rng.integers(0, 40, size=slots.size).astype(np.int64)
    mask = rng.random(slots.size) < 0.9
    filtered = SketchContext(spec, slots[mask], signs[mask]).group_sums(gi[mask], 40)
    for m, bundle in ((None, ctx.group_sums(gi, 40)), (mask, filtered)):
        assert bundle.fps.tobytes() == _bigint_fps(ctx, gi, 40, m).tobytes()
        _assert_queries_match_eager(bundle)


# --------------------------------------------------------------------------
# Group-id validation
# --------------------------------------------------------------------------


def _small_bundle() -> tuple[SketchContext, DenseBundle]:
    n = 16
    slots = np.array([1 * n + 3, 2 * n + 5, 4 * n + 9], dtype=np.uint64)
    ctx = SketchContext(SketchSpec.for_graph(n, seed=2), slots, np.array([1, -1, 1]))
    return ctx, dense(ctx.group_sums(np.array([0, 1, 2]), 3))


@pytest.mark.parametrize("gm", [[0, -1, 1], [0, 2, 1], [-5, 0, 0]])
def test_aggregate_rejects_out_of_range_ids(gm):
    _, bundle = _small_bundle()
    with pytest.raises(ValueError, match=r"group_map entries must lie in \[0, 2\)"):
        bundle.aggregate(np.array(gm), 2)


@pytest.mark.parametrize("gi", [[0, -1, 1], [0, 3, 1]])
def test_group_sums_rejects_out_of_range_ids(gi):
    # Checked eagerly, before any query runs the walk.
    ctx, _ = _small_bundle()
    with pytest.raises(ValueError, match=r"group_idx entries must lie in \[0, 3\)"):
        ctx.group_sums(np.array(gi), 3)


def test_in_range_ids_still_accepted():
    ctx, bundle = _small_bundle()
    assert bundle.aggregate(np.array([1, 1, 0]), 2).n_groups == 2
    empty = SketchContext(ctx.spec, np.array([], dtype=np.uint64), np.array([], dtype=np.int64))
    assert empty.group_sums(np.array([], dtype=np.int64), 0).n_groups == 0
