"""Property suite: lazy fingerprint reduction is byte-invisible.

:class:`SketchBundle` keeps fingerprints as exact signed 30-bit-half int64
accumulators and reduces mod p only at the bins a query reads; ``sample``
verifies candidates from the context's power table instead of a fresh
powmod.  Reduction mod p commutes with the integer sums, so every query
must return exactly what the eager implementation did.  The eager
``nonzero_mask``/``sample`` live on here, verbatim, as the oracle: they
read canonical ``fps`` and verify with ``powmod``.  Hypothesis drives the
family / seed / incidence-layout / mask axes; any counterexample is a hole
in the commuting-sums argument, not noise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketch.edgespace import max_slot_bits
from repro.sketch.field import MERSENNE_P, powmod
from repro.sketch import l0
from repro.sketch.l0 import (
    SampleResult,
    SketchBundle,
    SketchContext,
    SketchSpec,
    _digit_count,
    _digit_table,
    _slot_power_table,
    _slot_powers,
)

_P = np.uint64(MERSENNE_P)


# --------------------------------------------------------------------------
# Eager oracle (the pre-lazy query path, verbatim over canonical fps)
# --------------------------------------------------------------------------


def _eager_nonzero_mask(bundle: SketchBundle) -> np.ndarray:
    return np.any(bundle.fps[:, :, 0] != 0, axis=1)


def _eager_sample(bundle: SketchBundle) -> SampleResult:
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
    out = [[[0] * l for _ in range(r)] for _ in range(n_groups)]
    for i in range(ctx.n_incidences):
        if mask is not None and not mask[i]:
            continue
        slot, sign = int(ctx.slots[i]), int(ctx.signs[i])
        for rep in range(r):
            term = sign * pow(spec.fingerprint_base(rep), slot, MERSENNE_P)
            for lev in range(int(ctx.depths[rep, i]) + 1):
                out[int(gi[i])][rep][lev] += term
    return np.array(
        [[[v % MERSENNE_P for v in row] for row in rep] for rep in out], dtype=np.uint64
    ).reshape(n_groups, r, l)


def _assert_queries_match_eager(bundle: SketchBundle) -> None:
    """Lazy queries == eager oracle; the four-argument rebuild agrees too."""
    fps = bundle.fps
    assert fps.dtype == np.uint64 and (fps < _P).all()
    want_mask = _eager_nonzero_mask(bundle)
    want = _eager_sample(bundle)
    rebuilt = SketchBundle(bundle.spec, bundle.counts, bundle.sums, fps)
    assert rebuilt.powers is None  # a hand-built bundle verifies directly
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
    masked=st.booleans(),
)
def test_lazy_queries_match_eager(seed, family, n, m, mirrored, n_groups, masked):
    rng = np.random.default_rng(seed)
    slots, signs = _incidences(rng, n, m, mirrored)
    spec = SketchSpec.for_graph(n, seed=seed, repetitions=3, hash_family=family)
    ctx = SketchContext(spec, slots, signs)
    gi = rng.integers(0, n_groups, size=slots.size).astype(np.int64)
    mask = rng.random(slots.size) < 0.7 if masked else None

    bundle = ctx.group_sums(gi, n_groups, mask=mask)
    assert bundle.powers is ctx.powers
    assert bundle.fps.tobytes() == _bigint_fps(ctx, gi, n_groups, mask).tobytes()
    _assert_queries_match_eager(bundle)

    n_out = int(rng.integers(1, 4))
    gm = rng.integers(0, n_out, size=n_groups).astype(np.int64)
    merged = bundle.aggregate(gm, n_out)
    assert merged.powers is ctx.powers
    assert merged.fps.tobytes() == _bigint_fps(ctx, gm[gi], n_out, mask).tobytes()
    _assert_queries_match_eager(merged)

    other = ctx.group_sums(rng.integers(0, n_groups, size=slots.size).astype(np.int64), n_groups)
    total = bundle.add(other)
    assert total.fps.tobytes() == ((bundle.fps + other.fps) % _P).tobytes()
    _assert_queries_match_eager(total)
    # A table-less left operand picks the table up from the right one.
    hand_built = SketchBundle(spec, bundle.counts, bundle.sums, bundle.fps)
    assert hand_built.add(other).powers is other.powers
    _assert_queries_match_eager(hand_built.add(other))


def test_power_table_tracks_the_frontier():
    # One verification path, with a table sized to the frontier: a tiny
    # context gets narrow digit rows, a large one the two n-wide rows
    # [r^j; (r^n)^j] (n a power of two) that every context used to build.
    n = 512
    rng = np.random.default_rng(7)
    spec = SketchSpec.for_graph(n, seed=1)
    tiny = SketchContext(spec, *_incidences(rng, n, 3, True))
    big = SketchContext(spec, *_incidences(rng, n, 1000, True))
    assert tiny.powers.shape == (9 * 6, 4)  # 18 slot bits in 9 base-4 digits
    assert big.powers.shape == (2 * 6, n)
    bases = [spec.fingerprint_base(rep) for rep in range(6)]
    r_n = [pow(b, n, MERSENNE_P) for b in bases]
    for row, base in enumerate(bases + r_n):
        assert [int(v) for v in big.powers[row, :40]] == [
            pow(base, j, MERSENNE_P) for j in range(40)
        ]
    for ctx in (tiny, big):
        groups = rng.integers(0, 5, size=ctx.n_incidences).astype(np.int64)
        bundle = ctx.group_sums(groups, 5)
        assert bundle.powers is ctx.powers
        assert bundle.sample().found.any()
        _assert_queries_match_eager(bundle)


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
        assert table.shape == (3 * digits, width)
        assert [int(v) for v in _slot_powers(spec, table, reps, slots)] == want
    # The tables the size rule builds, swept over frontier sizes that make
    # it pick every digit count it ever picks.
    picked = set()
    for evals in [*range(300), *(1 << k for k in range(9, bits + 2))]:
        picked.add(_digit_count(bits, evals))
    assert picked == _RULE_DIGITS[n]
    for digits in picked:
        evals = next(e for e in range(1 << (bits + 1)) if _digit_count(bits, e) == digits)
        table = _slot_power_table(spec, evals)
        assert table.shape[0] == 3 * digits
        assert [int(v) for v in _slot_powers(spec, table, reps, slots)] == want


@pytest.mark.parametrize("n", [1 << 12, 1 << 14])
def test_size_rule_keeps_the_n_wide_table_for_large_frontiers(n):
    # The phase-1 calls of the large benchmark graphs (E = m = 4n slots)
    # get D = 2 digits of width n: the table every call built before.
    bits = max_slot_bits(n)
    assert _digit_count(bits, 4 * n) == 2
    assert 1 << -(-bits // 2) == n


def test_hand_built_bundle_verifies_through_an_on_demand_table(monkeypatch):
    n = 300
    rng = np.random.default_rng(3)
    spec = SketchSpec.for_graph(n, seed=9, repetitions=4)
    ctx = SketchContext(spec, *_incidences(rng, n, 80, True))
    groups = rng.integers(0, 6, size=ctx.n_incidences).astype(np.int64)
    bundle = ctx.group_sums(groups, 6)
    hand_built = SketchBundle(spec, bundle.counts, bundle.sums, bundle.fps)
    assert hand_built.powers is None
    built = []
    real = l0._slot_power_table

    def spy(spec_, evals):
        built.append(evals)
        return real(spec_, evals)

    monkeypatch.setattr(l0, "_slot_power_table", spy)
    got, want = hand_built.sample(), bundle.sample()
    c = bundle.counts
    slots = bundle.sums * c
    candidates = ((np.abs(c) == 1) & (slots >= 0) & (slots < n * n)).sum()
    assert built == [candidates]  # one table, sized to the candidates
    assert hand_built.powers is None
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
    # from a wide one (m = 300).
    n = 256
    a, b, c = 3 * n + 9, 5 * n + 40, 2 * n + 7
    rng = np.random.default_rng(m)
    filler, filler_signs = _incidences(rng, n, m, False)
    slots = np.concatenate([np.array([a, b, c], dtype=np.uint64), filler])
    signs = np.concatenate([np.array([1, 1, -1], dtype=np.int64), filler_signs])
    spec = SketchSpec.for_graph(n, seed=11, repetitions=4, hash_family=family)
    ctx = SketchContext(spec, slots, signs)
    assert ctx.powers.shape == ((4 * 8, 4) if m == 3 else (4 * 3, 64))
    ctx.depths[:, :3] = spec.levels - 1  # adversarial override
    groups = np.concatenate([np.zeros(3, dtype=np.int64), np.ones(m, dtype=np.int64)])
    bundle = ctx.group_sums(groups, 2)
    assert (bundle.counts[0] == 1).all()
    assert (bundle.sums[0] == a + b - c).all()
    assert not bundle.sample().found[0]
    _assert_queries_match_eager(bundle)


def test_large_scatter_matches_eager():
    # One serial scatter over ~17k incidences, far past the property
    # suite's sizes, with and without a mask: the lazily reduced halves
    # must still give the bigint fingerprints and the eager query answers.
    n = 1024
    rng = np.random.default_rng(5)
    slots, signs = _incidences(rng, n, 8192 + 500, True)
    spec = SketchSpec.for_graph(n, seed=3, repetitions=3)
    ctx = SketchContext(spec, slots, signs)
    assert ctx.n_incidences > 2 * 8192
    gi = rng.integers(0, 40, size=slots.size).astype(np.int64)
    mask = rng.random(slots.size) < 0.9
    for m in (None, mask):
        bundle = ctx.group_sums(gi, 40, mask=m)
        assert bundle.fps.tobytes() == _bigint_fps(ctx, gi, 40, m).tobytes()
        _assert_queries_match_eager(bundle)


# --------------------------------------------------------------------------
# Group-id validation
# --------------------------------------------------------------------------


def _small_bundle() -> tuple[SketchContext, SketchBundle]:
    n = 16
    slots = np.array([1 * n + 3, 2 * n + 5, 4 * n + 9], dtype=np.uint64)
    ctx = SketchContext(SketchSpec.for_graph(n, seed=2), slots, np.array([1, -1, 1]))
    return ctx, ctx.group_sums(np.array([0, 1, 2]), 3)


@pytest.mark.parametrize("gm", [[0, -1, 1], [0, 2, 1], [-5, 0, 0]])
def test_aggregate_rejects_out_of_range_ids(gm):
    _, bundle = _small_bundle()
    with pytest.raises(ValueError, match=r"group_map entries must lie in \[0, 2\)"):
        bundle.aggregate(np.array(gm), 2)


@pytest.mark.parametrize("gi", [[0, -1, 1], [0, 3, 1]])
@pytest.mark.parametrize("masked", [False, True])
def test_group_sums_rejects_out_of_range_ids(gi, masked):
    ctx, _ = _small_bundle()
    mask = np.array([True, False, True]) if masked else None
    with pytest.raises(ValueError, match=r"group_idx entries must lie in \[0, 3\)"):
        ctx.group_sums(np.array(gi), 3, mask=mask)


def test_in_range_ids_still_accepted():
    ctx, bundle = _small_bundle()
    assert bundle.aggregate(np.array([1, 1, 0]), 2).n_groups == 2
    empty = SketchContext(ctx.spec, np.array([], dtype=np.uint64), np.array([], dtype=np.int64))
    assert empty.group_sums(np.array([], dtype=np.int64), 0).n_groups == 0
