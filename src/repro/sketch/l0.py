"""Linear l0-sampling graph sketches (Section 2.3 of the paper, after [2, 17, 32]).

A sketch of a vector ``a in {-1,0,1}^(n^2)`` (an incidence vector, or a sum
of incidence vectors of a vertex set) consists of ``R`` independent
repetitions; each repetition assigns every edge slot a geometric *level*
(slot reaches level ``l`` with probability ``2^-l``) using a hash drawn
from a Theta(log n)-wise independent family, and maintains per level the
triple

* ``c`` — sum of surviving coefficients (signed count),
* ``s`` — sum of ``coefficient * slot_id`` (exact, signed),
* ``f`` — fingerprint ``sum coefficient * r^slot_id mod p`` with
  ``p = 2^61 - 1`` and per-repetition random base ``r``.

The triples are **linear** in the underlying vector, so the sketch of a
component is the entrywise sum of the sketches of its parts — the property
Lemma 2 exploits to combine part sketches at a proxy machine without
looking at any edges.

A level holding exactly one surviving slot (coefficient ``+-1``) is
recoverable: ``c in {-1, +1}`` and ``slot = c * s``; the fingerprint check
``f === c * r^slot (mod p)`` rejects multi-slot collisions with error
probability ``< 2^40 / 2^61`` per cell.  The zero vector is detected via
the level-0 fingerprints of all repetitions (level 0 retains every slot).

Exactness
---------
All accumulation is integer-exact in int64.  :meth:`SketchSpec.for_graph`
checks only ``n <= 2^20``, so slot ids fit in 40 bits; the accumulators
are exact as long as every final bin value stays below ``2^63`` in
magnitude (intermediate wraparound of the int64 sums cancels), which for
id-sums means fewer than ``2^63 / n^2 >= 2^23`` same-sign incidences per
bin and for the 30-bit fingerprint halves fewer than ``2^32``.  Neither
bound is checked at run time.

Fingerprints are accumulated split into 30-bit halves, ``f === lo +
hi * 2^30 (mod p)``, and are *kept* that way: :class:`SketchBundle`
stores the exact signed int64 pair, :meth:`SketchBundle.aggregate` and
:meth:`SketchBundle.add` sum the halves directly, and the canonical
mod-p value is formed only at read — level 0 in
:meth:`SketchBundle.nonzero_mask`, the ``|count| == 1`` candidates in
:meth:`SketchBundle.sample`, and the materializing
:attr:`SketchBundle.fps`.  Reduction mod p commutes with integer sums, so
reading late yields the bytes eager reduction did (DESIGN.md §9.1).

Fingerprint powers ``r^slot`` come from a base-``2^w`` digit table
(:func:`_slot_power_table`) whose shape is chosen from the number of
slots a call evaluates, so a late, small frontier pays for a few narrow
rows rather than a table over all of ``[0, n)``.  Every table yields the
canonical representative of the same field element, so the choice never
shows in the output bytes.

The segment reductions run through :mod:`repro.sketch.kernels` —
``np.bincount`` on the 30-bit halves (bit-exact in float64 below the 2^53
horizon, with an automatic ``np.add.at`` fallback above it) and sort +
``reduceat`` for row aggregation — which return the same integers the
original ``np.add.at`` scatters produced, only an order of magnitude
faster (DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sketch.edgespace import max_slot_bits
from repro.sketch.field import MERSENNE_P, addmod, mulmod
from repro.sketch.kernels import group_rows, segment_sum
from repro.sketch.kwise import batch_values
from repro.util.rng import derive_seed

__all__ = ["SketchSpec", "SketchContext", "SketchBundle", "SampleResult"]

_P = np.uint64(MERSENNE_P)
_LOW30 = np.int64((1 << 30) - 1)
_MASK31 = np.uint64((1 << 31) - 1)


#: max|weight| of a low 30-bit half times a +-1 sign.
_MAX_LO = (1 << 30) - 1
#: max|weight| of the high half of a value in [0, p), p = 2^61 - 1.
_MAX_HI_FP = (MERSENNE_P - 1) >> 30


def _count_levels_above(h: np.ndarray, levels: int) -> np.ndarray:
    """``#{j in [0, levels): h < (p >> j)}`` for hash values ``h < p``.

    ``h < p >> j  <=>  h + 1 < 2^(61-j)  <=>  bitlength(h+1) <= 61 - j``,
    so the count is ``clip(62 - bitlength(h+1), 0, levels)``.  The bit
    length comes from ``np.frexp`` of the float64 value with an exact
    one-bit correction: conversion can only round *up*, bumping the
    exponent exactly when ``v`` lands on a power of two it is strictly
    below, which the integer shift test detects — a few O(1) passes
    instead of a per-level comparison sweep or an E * log(levels) binary
    search.
    """
    v = h + np.uint64(1)  # <= 2^61
    _, exponent = np.frexp(v.astype(np.float64))  # v = m * 2^e, m in [0.5, 1)
    bl = exponent.astype(np.int64)  # bitlength(v), possibly one too high
    # Exact correction: true bitlength is e-1 iff v < 2^(e-1).
    bl -= (v >> (bl - 1).astype(np.uint64)) == 0
    return np.clip(np.int64(62) - bl, 0, levels)


def _modp_scatter_sum(values: np.ndarray, signs: np.ndarray, idx: np.ndarray, n_out: int) -> np.ndarray:
    """Exact ``sum_j signs[j] * values[j] mod p`` grouped by ``idx``.

    ``values`` are in ``[0, p)``; a direct uint64 scatter would wrap mod
    2^64 (not mod p) once more than 8 values land in a bin.  Splitting
    each value into 30-bit halves keeps both signed accumulators exact
    (see :mod:`repro.sketch.kernels` for the float64 horizon and the
    int64 fallback).
    """
    v = values.astype(np.int64)
    acc_lo = segment_sum((v & _LOW30) * signs, idx, n_out, max_abs=_MAX_LO)
    acc_hi = segment_sum((v >> np.int64(30)) * signs, idx, n_out, max_abs=_MAX_HI_FP)
    return _combine_halves(acc_lo, acc_hi)


def _combine_halves(acc_lo: np.ndarray, acc_hi: np.ndarray) -> np.ndarray:
    """Recombine signed 30-bit-split accumulators into values mod p.

    ``hi * 2^30 mod p`` needs no general mulmod: with ``hi = h1*2^31 + h0``
    and ``2^61 === 1``, it is ``h1 + h0*2^30 < 2^64`` — two shifts and an
    add, folded by the addmod.
    """
    lo_m = (acc_lo % np.int64(MERSENNE_P)).astype(np.uint64)
    hi_m = (acc_hi % np.int64(MERSENNE_P)).astype(np.uint64)
    hi_shifted = (hi_m >> np.uint64(31)) + ((hi_m & _MASK31) << np.uint64(30))
    return addmod(hi_shifted, lo_m)


@dataclass(frozen=True)
class SketchSpec:
    """Parameters of one *phase sketch matrix* L_j (Section 2.3).

    A fresh spec (new ``seed``) is drawn for every phase of the
    connectivity algorithm and for every elimination iteration of the MST
    algorithm — mirroring the paper's per-phase sketch matrices.

    Attributes
    ----------
    n:
        Number of vertices (slot universe is ``[0, n^2)``).
    repetitions:
        Independent l0-sampler copies; each succeeds with constant
        probability, so failure decays geometrically.
    levels:
        Geometric levels per repetition (``max_slot_bits(n) + 2``
        by default, enough to isolate a single surviving slot).
    seed:
        Randomness key (level hashes and fingerprint bases derive from it).
    hash_family:
        ``'polynomial'`` for provable Theta(log n)-wise independence,
        ``'prf'`` for the fast keyed-PRF path (see DESIGN.md).
    """

    n: int
    repetitions: int
    levels: int
    seed: int
    hash_family: str = "polynomial"

    @staticmethod
    def for_graph(
        n: int,
        seed: int,
        repetitions: int = 6,
        hash_family: str = "polynomial",
    ) -> "SketchSpec":
        """Standard spec for an n-vertex graph."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if n > (1 << 20):
            raise ValueError(
                "n > 2^20 would overflow exact int64 id-sum accounting; "
                "see SketchSpec docstring"
            )
        if repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        levels = max(4, max_slot_bits(n) + 2)
        return SketchSpec(
            n=n, repetitions=repetitions, levels=levels, seed=seed, hash_family=hash_family
        )

    @property
    def message_bits(self) -> int:
        """Bits one sketch occupies on a link (honest information content).

        Per level: count (<= 64 bits), id-sum (2*log2 n + overhead, charged
        64), fingerprint (61 bits, charged 64).  This is O(log^2 n) bits
        total, matching Lemma 2's O(polylog n).
        """
        return self.repetitions * self.levels * 3 * 64

    def fingerprint_base(self, rep: int) -> int:
        """The random evaluation point r for repetition ``rep`` (in [2, p))."""
        r = derive_seed(self.seed, 0xF1, rep) % (MERSENNE_P - 2) + 2
        return r


class SketchBundle:
    """Sketches of ``G`` groups: triples of shape ``(G, R, L)``.

    Supports the two linear operations the algorithms need: entrywise
    addition (:meth:`add`) and regrouping (:meth:`aggregate`), plus the
    query operations :meth:`sample` and :meth:`nonzero_mask`.

    Fingerprints live unreduced as the exact signed int64 halves
    ``fps_lo``/``fps_hi`` (``f === fps_lo + fps_hi * 2^30 mod p``); only
    the bins a query reads are reduced (module docstring, "Exactness").
    ``SketchBundle(spec, counts, sums, fps)`` takes canonical ``fps`` in
    ``[0, p)`` and splits them into such a pair.  ``powers`` is the
    fingerprint power table of the context that built the bundle
    (:func:`_slot_power_table`); a hand-built bundle has ``None`` and
    :meth:`sample` builds a table sized to its candidates instead.
    """

    def __init__(
        self, spec: SketchSpec, counts: np.ndarray, sums: np.ndarray, fps: np.ndarray
    ) -> None:
        f = np.asarray(fps, dtype=np.uint64).astype(np.int64)  # < p < 2^63
        self._set(spec, counts, sums, f & _LOW30, f >> np.int64(30), None)

    @classmethod
    def _from_halves(
        cls,
        spec: SketchSpec,
        counts: np.ndarray,
        sums: np.ndarray,
        fps_lo: np.ndarray,
        fps_hi: np.ndarray,
        powers: np.ndarray | None,
    ) -> "SketchBundle":
        bundle = cls.__new__(cls)
        bundle._set(spec, counts, sums, fps_lo, fps_hi, powers)
        return bundle

    def _set(self, spec, counts, sums, fps_lo, fps_hi, powers) -> None:
        self.spec = spec
        self.counts = counts  # int64 (G, R, L)
        self.sums = sums  # int64 (G, R, L), exact signed slot-id sums
        self.fps_lo = fps_lo  # int64 (G, R, L), exact low-half accumulators
        self.fps_hi = fps_hi  # int64 (G, R, L), exact high-half accumulators
        self.powers = powers  # uint64 (D*R, 2^w) power table, or None

    @property
    def fps(self) -> np.ndarray:
        """Canonical fingerprints, uint64 ``(G, R, L)`` in ``[0, p)``."""
        return _combine_halves(self.fps_lo, self.fps_hi)

    @property
    def n_groups(self) -> int:
        """Number of sketched groups."""
        return int(self.counts.shape[0])

    def add(self, other: "SketchBundle") -> "SketchBundle":
        """Entrywise sum (sketch linearity; groups must align)."""
        if other.spec != self.spec:
            raise ValueError("cannot add sketches with different specs")
        if other.counts.shape != self.counts.shape:
            raise ValueError("group shapes differ")
        return SketchBundle._from_halves(
            self.spec,
            self.counts + other.counts,
            self.sums + other.sums,
            self.fps_lo + other.fps_lo,
            self.fps_hi + other.fps_hi,
            self.powers if self.powers is not None else other.powers,
        )

    def aggregate(self, group_map: np.ndarray, n_out: int) -> "SketchBundle":
        """Sum rows into ``n_out`` new groups: row g -> group_map[g].

        This is the proxy-side combination of Lemma 2: summing the part
        sketches of a component yields the component sketch.
        """
        gm = np.asarray(group_map, dtype=np.int64)
        if gm.shape != (self.n_groups,):
            raise ValueError("group_map must have one entry per group")
        _check_group_ids(gm, n_out, "group_map")
        # Every field is an exact int64 accumulator (fingerprints as their
        # unreduced halves), so regrouping is plain integer row sums: sort
        # + reduceat over the leading axis (np.add.at's integers, vectorized).
        return SketchBundle._from_halves(
            self.spec,
            group_rows(self.counts, gm, n_out),
            group_rows(self.sums, gm, n_out),
            group_rows(self.fps_lo, gm, n_out),
            group_rows(self.fps_hi, gm, n_out),
            self.powers,
        )

    # -- queries -----------------------------------------------------------

    def nonzero_mask(self) -> np.ndarray:
        """Per group: True if the sketched vector is (w.h.p.) nonzero.

        Level 0 of every repetition retains all slots, so the vector is
        zero iff every repetition's level-0 fingerprint vanishes.  A false
        'zero' requires all R level-0 fingerprints of a nonzero polynomial
        to vanish simultaneously.
        """
        level0 = _combine_halves(self.fps_lo[:, :, 0], self.fps_hi[:, :, 0])
        return np.any(level0 != 0, axis=1)

    def sample(self) -> "SampleResult":
        """Recover one surviving slot per group where possible.

        Scans all (repetition, level) cells for verified one-sparse
        recoveries and returns, per group, the recovery from the deepest
        valid level of the first succeeding repetition (deep levels have
        the fewest survivors, giving the closest-to-uniform choice).
        """
        g, r, l = self.counts.shape
        c = self.counts
        found = np.zeros(g, dtype=bool)
        out_slot = np.full(g, -1, dtype=np.int64)
        out_sign = np.zeros(g, dtype=np.int64)
        gi, ri, li = np.nonzero((c == 1) | (c == -1))
        signs = c[gi, ri, li]
        slots = self.sums[gi, ri, li] * signs  # slot = c * s on candidate cells
        n2 = np.int64(self.spec.n) * np.int64(self.spec.n)
        inside = np.flatnonzero((slots >= 0) & (slots < n2))
        gi, ri, li, slots, signs = (a[inside] for a in (gi, ri, li, slots, signs))
        if gi.size == 0:
            return SampleResult(found, out_slot, out_sign)
        slots = slots.astype(np.uint64)
        # Verify every candidate in one batch: reduce just its fingerprint
        # bin, and read r^slot from the context's power table (a bundle
        # without one builds a table sized to its candidates).
        fps = _combine_halves(self.fps_lo[gi, ri, li], self.fps_hi[gi, ri, li])
        powers = self.powers
        if powers is None:
            powers = _slot_power_table(self.spec, gi.size)
        expected = _slot_powers(self.spec, powers, ri, slots)
        neg = signs < 0
        exp_signed = expected.copy()
        exp_signed[neg] = (_P - expected[neg]) % _P
        ok = fps == exp_signed
        if not ok.any():
            return SampleResult(found, out_slot, out_sign)
        gi, ri, li, slots, signs = gi[ok], ri[ok], li[ok], slots[ok], signs[ok]
        # Order candidates: repetition ascending, level descending; take the
        # first per group.
        order = np.lexsort(((l - 1 - li), ri, gi))
        gi_o = gi[order]
        first = np.ones(gi_o.size, dtype=bool)
        first[1:] = gi_o[1:] != gi_o[:-1]
        pick = order[first]
        found[gi[pick]] = True
        out_slot[gi[pick]] = slots[pick].astype(np.int64)
        out_sign[gi[pick]] = signs[pick]
        return SampleResult(found, out_slot, out_sign)


def _check_group_ids(ids: np.ndarray, n: int, name: str) -> None:
    """Reject group ids outside ``[0, n)`` (they would wrap or corrupt rows)."""
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= n):
        raise ValueError(
            f"{name} entries must lie in [0, {n}), got range "
            f"[{int(ids.min())}, {int(ids.max())}]"
        )


@dataclass(frozen=True)
class SampleResult:
    """Per-group l0-sample outcome.

    Attributes
    ----------
    found:
        ``bool[G]``; True where a verified recovery succeeded.
    slots:
        ``int64[G]``; recovered canonical slot id (-1 where not found).
    signs:
        ``int64[G]``; +1 if the *smaller* slot endpoint lies inside the
        sketched vertex set, -1 if the larger one does, 0 where not found.
    """

    found: np.ndarray
    slots: np.ndarray
    signs: np.ndarray


class SketchContext:
    """Per-phase randomness evaluated once over a fixed incidence list.

    The graph's incidence list (slot, sign) never changes; only the group
    assignment (component labels) and the sketch randomness (per phase) do.
    ``SketchContext`` therefore precomputes, per repetition, each
    incidence's sampling level and fingerprint contribution, after which
    *any* grouping can be sketched with three scatter-adds
    (:meth:`group_sums`).  This keeps per-phase work O(R * E) with small
    constants — the optimization that makes large sweeps feasible.

    In model terms each machine computes this context restricted to its own
    incidences; because the computation is pointwise over incidences, the
    global precomputation used here is exactly the union of the local ones
    (no information crosses machines).

    The context's fingerprint power table is sized to the slots it
    evaluates (:func:`_slot_power_table`), and :meth:`group_sums` hands it
    to every bundle it builds, so :meth:`SketchBundle.sample` verifies
    candidates from the same table.
    """

    def __init__(self, spec: SketchSpec, slots: np.ndarray, signs: np.ndarray) -> None:
        self.spec = spec
        self.slots = np.asarray(slots, dtype=np.uint64)
        self.signs = np.asarray(signs, dtype=np.int64)
        if self.slots.shape != self.signs.shape or self.slots.ndim != 1:
            raise ValueError("slots and signs must be 1-D of equal length")
        r, l = spec.repetitions, spec.levels
        bits = max_slot_bits(spec.n)
        # Per-slot work (hash, depth, fingerprint power) depends only on
        # the slot id.  Clusters build incidence lists as two mirrored
        # halves — concat(u, v) owners against concat(v, u) others — so
        # the slot array is typically the same block twice; detecting that
        # (one vectorized compare) halves the whole construction, and the
        # results are expanded back to per-incidence arrays unchanged.
        e = self.slots.size
        half = e // 2
        mirrored = e >= 2 and e % 2 == 0 and np.array_equal(self.slots[:half], self.slots[half:])
        eval_slots = self.slots[:half] if mirrored else self.slots
        # All repetitions batch into one (R, E) hash evaluation: per-rep
        # randomness (coefficients / PRF keys) is derived exactly as the
        # per-rep loop did, only the field arithmetic is 2-D.
        seeds = [derive_seed(spec.seed, 0x1E, rep) for rep in range(r)]
        self.powers = _slot_power_table(spec, eval_slots.size)
        reps = np.arange(r, dtype=np.int64)[:, None]
        # Descending thresholds T[l] = p >> l; depth = (#thresholds > h) - 1
        # with #{j < L: h < p >> j} = clip(61 - floor(log2(h + 1)), 0, L)
        # (see _count_levels_above) — a handful of passes independent of
        # L, replacing the per-level searchsorted of the per-repetition loop.
        # The (R, E) hash values are freed before the (R, E) fingerprint
        # powers are built, so the two never coexist in memory.
        h = batch_values(seeds, bits + 4, spec.hash_family, eval_slots)
        depths = np.clip(_count_levels_above(h, l) - 1, 0, l - 1)
        del h
        fp = _slot_powers(spec, self.powers, reps, eval_slots[None, :])
        if mirrored:
            depths = np.concatenate([depths, depths], axis=1)
            fp = np.concatenate([fp, fp], axis=1)
        self.depths = depths
        self.fp_contrib = fp

    @property
    def n_incidences(self) -> int:
        """Number of (slot, sign) incidences in the context."""
        return int(self.slots.size)

    def group_sums(
        self,
        group_idx: np.ndarray,
        n_groups: int,
        mask: np.ndarray | None = None,
    ) -> SketchBundle:
        """Sketch every group: incidence i contributes to group ``group_idx[i]``.

        ``mask`` (optional) drops incidences — used by the MST edge
        elimination, which zeroes out slots whose edge weight exceeds the
        current threshold (Section 3.1).
        """
        gi = np.asarray(group_idx, dtype=np.int64)
        if gi.shape != self.slots.shape:
            raise ValueError("group_idx must have one entry per incidence")
        _check_group_ids(gi, n_groups, "group_idx")
        r, l = self.spec.repetitions, self.spec.levels
        if mask is None:
            g_sel, sign_sel, slots_sel = gi, self.signs, self.slots
            d, f = self.depths, self.fp_contrib
        else:
            sel = np.asarray(mask, dtype=bool)
            g_sel, sign_sel, slots_sel = gi[sel], self.signs[sel], self.slots[sel]
            d, f = self.depths[:, sel], self.fp_contrib[:, sel]
        # Incidence at depth d lives in levels 0..d; accumulate into the
        # flat (group, repetition, depth) bin — all repetitions at once —
        # then suffix-sum over the level axis.  Bins never mix repetitions,
        # so each receives at most e_sel incidences (the exactness bound
        # the bincount kernel checks against).
        e_sel = g_sel.size
        size = n_groups * r * l
        shape = (n_groups, r, l)
        flat = (
            (g_sel[None, :] * np.int64(r) + np.arange(r, dtype=np.int64)[:, None]) * np.int64(l)
            + d
        ).ravel()

        def scatter(weights: np.ndarray, max_abs: int) -> np.ndarray:
            tiled = np.broadcast_to(weights, (r, e_sel)).ravel() if weights.ndim == 1 else weights.ravel()
            return segment_sum(tiled, flat, size, max_abs=max_abs, max_count=e_sel).reshape(shape)

        counts = scatter(sign_sel, 1)
        # Id-sums: one scatter with max|w| = n^2 - 1.  Within the float64
        # horizon this is a single exact bincount; far beyond it (huge
        # incidence lists on huge n) the kernel falls back to the int64
        # np.add.at reference — exact either way.
        slot_signed = slots_sel.view(np.int64) * sign_sel  # slots < n^2 < 2^63: view-safe
        sums = scatter(slot_signed, max(1, int(self.spec.n) ** 2 - 1))
        f64 = f.view(np.int64)  # values < p < 2^63: reinterpret, no copy
        fps_lo = scatter((f64 & _LOW30) * sign_sel[None, :], _MAX_LO)
        fps_hi = scatter((f64 >> np.int64(30)) * sign_sel[None, :], _MAX_HI_FP)
        del flat, slot_signed  # free the (R, E) temporaries before the cumsums
        # Suffix-cumulative over levels: level l = sum over depths >= l.
        counts = np.flip(np.cumsum(np.flip(counts, axis=2), axis=2), axis=2)
        sums = np.flip(np.cumsum(np.flip(sums, axis=2), axis=2), axis=2)
        fps_lo = np.flip(np.cumsum(np.flip(fps_lo, axis=2), axis=2), axis=2)
        fps_hi = np.flip(np.cumsum(np.flip(fps_hi, axis=2), axis=2), axis=2)
        return SketchBundle._from_halves(self.spec, counts, sums, fps_lo, fps_hi, self.powers)


def _fingerprint_bases(spec: SketchSpec) -> np.ndarray:
    """The R fingerprint bases ``r`` of ``spec`` as ``uint64[R]``."""
    return np.array(
        [spec.fingerprint_base(rep) for rep in range(spec.repetitions)], dtype=np.uint64
    )


def _digit_count(bits: int, evals: int) -> int:
    """Digits D of the cheapest table for ``evals`` exponents of ``bits`` bits.

    A table of D digit rows, each ``2^w`` wide with ``w = ceil(bits/D)``,
    costs ``D * 2^w`` mulmods to build (per repetition) and ``D - 1``
    mulmods per evaluated exponent; D minimises the sum (``min`` keeps the
    smallest D on a tie).  A larger D with the same digit width is never
    cheaper, so only the smallest D of each width is ever picked.
    """
    return min(range(1, bits + 1), key=lambda d: d * (1 << -(-bits // d)) + (d - 1) * evals)


def _digit_table(spec: SketchSpec, digits: int) -> np.ndarray:
    """The ``(D*R, 2^w)`` base-``2^w`` digit table of ``spec``'s bases.

    Row ``i*R + rep`` holds ``(r_rep^(2^(w*i)))^j`` for ``j < 2^w``, with
    ``w = ceil(max_slot_bits(n) / D)``, so ``r^slot`` is the product of
    one entry per base-``2^w`` digit of ``slot`` (:func:`_slot_powers`).
    The ``D*R`` row bases come from Python bigint ``pow`` (at that size
    numpy is pure dispatch overhead); every row then doubles together in
    one stacked :func:`_power_table` pass.
    """
    w = -(-max_slot_bits(spec.n) // digits)
    bases = [int(b) for b in _fingerprint_bases(spec)]
    rows = [pow(b, 1 << (w * i), MERSENNE_P) for i in range(digits) for b in bases]
    return _power_table(np.array(rows, dtype=np.uint64), 1 << w)


def _slot_power_table(spec: SketchSpec, evals: int) -> np.ndarray:
    """The fingerprint power table sized to ``evals`` evaluated slots.

    The table's build cost tracks the frontier: a late MST elimination
    call over a few hundred slots gets a few narrow digit rows, a phase-1
    call over the whole graph gets ``D = 2`` rows of width ``2^w >= n``
    (exactly ``[r^j; (r^n)^j]`` when n is a power of two).  Every choice
    yields the canonical representative of the same field element
    ``r^slot mod p``, so it is invisible in the output bytes.
    """
    return _digit_table(spec, _digit_count(max_slot_bits(spec.n), evals))


def _slot_powers(
    spec: SketchSpec, powers: np.ndarray, reps: np.ndarray, slots: np.ndarray
) -> np.ndarray:
    """``r_rep^slot mod p``, elementwise over broadcast ``reps`` and ``slots``.

    ``powers`` is a :func:`_digit_table`: ``r^slot`` is the product over
    the D base-``2^w`` digits ``s_i`` of ``slot`` of the row-``i`` entries
    ``(r^(2^(w*i)))^(s_i)`` — D gathers and ``D - 1`` mulmods.
    """
    r = spec.repetitions
    width = powers.shape[1]
    w = np.uint64(width.bit_length() - 1)
    mask = np.uint64(width - 1)
    out = powers[reps, (slots & mask).astype(np.int64)]
    for i in range(1, powers.shape[0] // r):
        digit = ((slots >> (w * np.uint64(i))) & mask).astype(np.int64)
        out = mulmod(out, powers[reps + i * r, digit])
    return out


def _power_table(bases: np.ndarray, size: int) -> np.ndarray:
    """``table[i, j] = bases[i]^j mod p`` for ``j < size``, by doubling.

    ``bases`` is ``uint64[B]`` (the ``D*R`` digit-row bases of
    :func:`_digit_table`); O(B * size) field multiplications across
    O(log size) vectorized passes, all B rows doubling together.  The
    per-doubling step values ``base^(2^k)`` are maintained as Python ints
    (B bigint mulmods beat a whole numpy dispatch at that size).
    """
    bases = np.atleast_1d(np.asarray(bases, dtype=np.uint64))
    r = bases.shape[0]
    if size < 1:
        return np.ones((r, 1), dtype=np.uint64)
    table = np.ones((r, 1), dtype=np.uint64)
    step = [int(b) for b in bases]  # bases^(table width) at each doubling
    while table.shape[1] < size:
        ext = mulmod(table, np.array(step, dtype=np.uint64)[:, None])
        table = np.concatenate([table, ext], axis=1)
        step = [s * s % MERSENNE_P for s in step]
    return table[:, :size]
