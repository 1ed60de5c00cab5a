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
looking at any edges.  The simulator uses linearity once, to sketch each
component's incidences directly (:mod:`repro.core.outgoing`); the explicit
part-sum operations, with the dense queries, live on as the tests'
reference (``tests/dense_sketch.py``).

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
hi * 2^30 (mod p)``, and are *kept* that way in the bins: the canonical
mod-p value is formed only at read — level 0 for the nonzero test, the
``|count| == 1`` candidates for the sample, and the materializing
:attr:`SketchBundle.fps`.  Reduction mod p commutes with integer sums, so
reading late yields the bytes eager reduction did (DESIGN.md §9.1).

Lazy repetitions
----------------
A query needs, per group, the first repetition whose level-0 fingerprint
is nonzero and the first holding a verified candidate; repetitions are
independent, so the ones after both are settled cannot change an answer.
:meth:`SketchContext._walk` therefore sketches repetition by repetition,
hashing, powering and scattering only the incidences of groups still
open, and batches the rest of the walk into one pass once it is small
(``_BATCH_WORK``).  The dense ``(G, R, L)`` grid is built only when a
caller reads :attr:`SketchBundle.counts` and its siblings.

Fingerprint powers ``r^slot`` come from a base-``2^w`` digit table
(:func:`_slot_power_table`) built per pass for the pass's repetitions,
its shape chosen from the number of slots the pass evaluates, so a late,
small frontier pays for a few narrow rows rather than a table over all of
``[0, n)``.  Every table yields the canonical representative of the same
field element, so the choice never shows in the output bytes.

The segment reductions run through :mod:`repro.sketch.kernels` —
``np.bincount`` on the 30-bit halves (bit-exact in float64 below the 2^53
horizon, with an automatic ``np.add.at`` fallback above it) — which
return the same integers the original ``np.add.at`` scatters produced,
only an order of magnitude faster (DESIGN.md §9).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sketch.edgespace import max_slot_bits
from repro.sketch.field import MERSENNE_P, addmod, mulmod
from repro.sketch.kernels import segment_sum
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
    """The sketches of ``G`` groups over one context, answered lazily.

    :meth:`SketchContext.group_sums` binds a context to a grouping and
    scatters nothing.  :meth:`nonzero_mask` and :meth:`sample` read one
    walk over the repetitions (:meth:`SketchContext._walk`), which
    sketches a repetition only for the groups it can still answer (module
    docstring, "Lazy repetitions").  The walk runs once per bundle, and
    both queries return its arrays: the same objects on every call.

    ``counts``, ``sums``, ``fps_lo``, ``fps_hi`` and ``fps`` are the dense
    ``(G, R, L)`` grid over every repetition and level, built on first
    access and cached.  No query reads it: it stays for callers that count
    bins from the outside (the benchmark's span counters read ``counts``
    and ``fps``) and is the grid the tests' dense reference queries run on.
    """

    def __init__(self, ctx: "SketchContext", group_idx: np.ndarray, n_groups: int) -> None:
        self.spec = ctx.spec
        self.n_groups = n_groups
        self._ctx = ctx
        self._groups = group_idx
        self._answers: tuple[np.ndarray, SampleResult] | None = None
        self._grid: tuple[np.ndarray, ...] | None = None

    def _dense(self) -> tuple[np.ndarray, ...]:
        if self._grid is None:
            reps, levels = self.spec.repetitions, self.spec.levels
            self._grid = self._ctx._bins(range(reps), None, self._groups, self.n_groups, levels)
        return self._grid

    @property
    def counts(self) -> np.ndarray:
        """Signed survivor counts, int64 ``(G, R, L)``."""
        return self._dense()[0]

    @property
    def sums(self) -> np.ndarray:
        """Exact signed slot-id sums, int64 ``(G, R, L)``."""
        return self._dense()[1]

    @property
    def fps_lo(self) -> np.ndarray:
        """Exact low-half fingerprint accumulators, int64 ``(G, R, L)``."""
        return self._dense()[2]

    @property
    def fps_hi(self) -> np.ndarray:
        """Exact high-half fingerprint accumulators, int64 ``(G, R, L)``."""
        return self._dense()[3]

    @property
    def fps(self) -> np.ndarray:
        """Canonical fingerprints, uint64 ``(G, R, L)`` in ``[0, p)``."""
        return _combine_halves(self.fps_lo, self.fps_hi)

    def nonzero_mask(self) -> np.ndarray:
        """Per group: True if the sketched vector is (w.h.p.) nonzero.

        Level 0 of every repetition retains all slots, so the vector is
        zero iff every repetition's level-0 fingerprint vanishes.  A false
        'zero' requires all R level-0 fingerprints of a nonzero polynomial
        to vanish simultaneously.
        """
        return self._walk()[0]

    def sample(self) -> "SampleResult":
        """Recover one surviving slot per group where possible.

        Per group, the verified one-sparse recovery from the deepest valid
        level of the first succeeding repetition (deep levels have the
        fewest survivors, giving the closest-to-uniform choice).
        """
        return self._walk()[1]

    def _walk(self) -> tuple[np.ndarray, "SampleResult"]:
        if self._answers is None:
            self._answers = self._ctx._walk(self._groups, self.n_groups)
        return self._answers


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


#: Work (open incidences x repetitions left) at or below which the walk
#: sketches every remaining repetition in one pass: below it, the fixed
#: cost of a pass outweighs the incidences an early stop would skip.
_BATCH_WORK = 1 << 14


class SketchContext:
    """Per-phase sketch randomness over a fixed incidence list.

    The graph's incidence list (slot, sign) never changes; only the group
    assignment (component labels) and the sketch randomness (per phase) do.
    Construction only validates the list and detects mirrored halves.  Each
    incidence's per-repetition sampling depth and fingerprint power
    (:meth:`_tables`) are evaluated by the queries, and only for the
    repetitions that can still change an answer (:meth:`_walk`).

    In model terms each machine computes this randomness restricted to its
    own incidences; because the computation is pointwise over incidences,
    the global evaluation used here is exactly the union of the local ones
    (no information crosses machines).

    Each pass of the walk builds a fingerprint power table for its own
    repetitions, sized to the slots it evaluates (:func:`_slot_power_table`),
    and checks its candidates against the same table.
    """

    def __init__(self, spec: SketchSpec, slots: np.ndarray, signs: np.ndarray) -> None:
        self.spec = spec
        self.slots = np.asarray(slots, dtype=np.uint64)
        self.signs = np.asarray(signs, dtype=np.int64)
        if self.slots.shape != self.signs.shape or self.slots.ndim != 1:
            raise ValueError("slots and signs must be 1-D of equal length")
        # Per-slot work (hash, depth, fingerprint power) depends only on
        # the slot id.  Clusters build incidence lists as two mirrored
        # halves — concat(u, v) owners against concat(v, u) others — so
        # the slot array is typically the same block twice; detecting that
        # (one vectorized compare) halves every pass over all incidences,
        # and the results are expanded back to per-incidence arrays.
        e = self.slots.size
        half = e // 2
        self._mirrored = (
            e >= 2 and e % 2 == 0 and np.array_equal(self.slots[:half], self.slots[half:])
        )
        self._eval_slots = self.slots[:half] if self._mirrored else self.slots

    @property
    def n_incidences(self) -> int:
        """Number of (slot, sign) incidences in the context."""
        return int(self.slots.size)

    def group_sums(self, group_idx: np.ndarray, n_groups: int) -> SketchBundle:
        """Sketch every group: incidence i contributes to group ``group_idx[i]``.

        The group ids are checked here; the bundle scatters nothing until
        a query reads it.
        """
        gi = np.asarray(group_idx, dtype=np.int64)
        if gi.shape != self.slots.shape:
            raise ValueError("group_idx must have one entry per incidence")
        _check_group_ids(gi, n_groups, "group_idx")
        return SketchBundle(self, gi, n_groups)

    def _tables(
        self, reps: range, inc: np.ndarray | None, powers: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Depths and fingerprint powers of incidences ``inc`` in repetitions ``reps``.

        ``inc`` indexes the incidence list (``None``: every incidence);
        ``powers`` is a digit table of ``reps`` (default: one sized to the
        evaluated slots).  Returns int64 sampling depths in ``[0, L)`` and
        uint64 powers ``r_rep^slot mod p``, both ``(len(reps), len(inc))``.
        Every pass of the walk and the dense grid read depths and powers
        through this one method.
        """
        spec = self.spec
        slots = self._eval_slots if inc is None else self.slots[inc]
        # The requested repetitions batch into one 2-D hash evaluation;
        # per-repetition randomness (coefficients / PRF keys) is derived
        # from (seed, rep) alone, so a repetition's values never depend on
        # which others share the pass.
        seeds = [derive_seed(spec.seed, 0x1E, rep) for rep in reps]
        h = batch_values(seeds, max_slot_bits(spec.n) + 4, spec.hash_family, slots)
        # Descending thresholds T[l] = p >> l; depth = (#thresholds > h) - 1
        # (see _count_levels_above) — a handful of passes independent of L.
        # The hash values are freed before the powers are built, so the
        # two never coexist in memory.
        depths = np.clip(_count_levels_above(h, spec.levels) - 1, 0, spec.levels - 1)
        del h
        if powers is None:
            powers = _slot_power_table(spec, slots.size, reps)
        rows = np.arange(len(reps), dtype=np.int64)[:, None]
        fp = _slot_powers(powers, rows, slots[None, :])
        if inc is None and self._mirrored:
            depths = np.concatenate([depths, depths], axis=1)
            fp = np.concatenate([fp, fp], axis=1)
        return depths, fp

    def _bins(
        self,
        reps: range,
        inc: np.ndarray | None,
        groups: np.ndarray,
        n_groups: int,
        levels: int | None = None,
        powers: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Suffix-summed ``(group, repetition, level)`` bins of one pass.

        ``groups[j]`` is the group of incidence ``inc[j]`` (``inc=None``:
        of incidence j).  Returns int64 counts, id-sums and the two
        fingerprint-half accumulators, each ``(n_groups, len(reps),
        levels)``.  ``levels=None`` cuts the level axis at the pass's
        deepest incidence: every bin above it is zero, so no query misses
        it (a zero count is never a candidate).  ``powers`` goes to
        :meth:`_tables`.
        """
        d, f = self._tables(reps, inc, powers)
        r, e = d.shape
        l = levels if levels is not None else int(d.max(initial=0)) + 1
        signs = self.signs if inc is None else self.signs[inc]
        slots = self.slots if inc is None else self.slots[inc]
        # Incidence at depth d lives in levels 0..d; accumulate into the
        # flat (group, repetition, depth) bin — all of the pass's
        # repetitions at once — then suffix-sum over the level axis.  Bins
        # never mix repetitions, so each receives at most e incidences
        # (the exactness bound the bincount kernel checks against).
        size = n_groups * r * l
        shape = (n_groups, r, l)
        flat = (
            (groups[None, :] * np.int64(r) + np.arange(r, dtype=np.int64)[:, None]) * np.int64(l)
            + d
        ).ravel()
        del d

        def scatter(weights: np.ndarray, max_abs: int) -> np.ndarray:
            tiled = np.broadcast_to(weights, (r, e)).ravel() if weights.ndim == 1 else weights.ravel()
            acc = segment_sum(tiled, flat, size, max_abs=max_abs, max_count=e).reshape(shape)
            # Suffix-cumulative over levels: level l = sum over depths >= l.
            return np.flip(np.cumsum(np.flip(acc, axis=2), axis=2), axis=2)

        counts = scatter(signs, 1)
        # Id-sums: one scatter with max|w| = n^2 - 1.  Within the float64
        # horizon this is a single exact bincount; far beyond it (huge
        # incidence lists on huge n) the kernel falls back to the int64
        # np.add.at reference — exact either way.
        sums = scatter(slots.view(np.int64) * signs, max(1, int(self.spec.n) ** 2 - 1))
        f64 = f.view(np.int64)  # values < p < 2^63: reinterpret, no copy
        fps_lo = scatter((f64 & _LOW30) * signs, _MAX_LO)
        fps_hi = scatter((f64 >> np.int64(30)) * signs, _MAX_HI_FP)
        return counts, sums, fps_lo, fps_hi

    def _walk(self, groups: np.ndarray, n_groups: int) -> tuple[np.ndarray, SampleResult]:
        """Nonzero mask and sample of every group, one repetition pass at a time.

        A group is *open* until it is both found and known nonzero.  Pass
        by pass, in repetition order, only the open groups' incidences are
        hashed, powered and scattered, with the open groups compacted to
        dense pass-local ids; once the rest of the walk is small
        (``_BATCH_WORK``), one pass takes every remaining repetition.  A
        group's nonzero bit is set by the first repetition whose level-0
        fingerprint is nonzero, its sample by the first repetition holding
        a verified candidate — repetitions are independent and read in
        order, so skipping the ones after both are settled changes no
        answer (DESIGN.md §9.1).
        """
        reps = self.spec.repetitions
        nonzero = np.zeros(n_groups, dtype=bool)
        out = SampleResult(
            np.zeros(n_groups, dtype=bool),
            np.full(n_groups, -1, dtype=np.int64),
            np.zeros(n_groups, dtype=np.int64),
        )
        inc = None  # incidences of the open groups (None: all of them)
        ids = np.arange(n_groups)  # group of each pass-local id
        rep = 0
        while rep < reps and groups.size:
            stop = reps if groups.size * (reps - rep) <= _BATCH_WORK else rep + 1
            pass_reps = range(rep, stop)
            evals = self._eval_slots.size if inc is None else inc.size
            powers = _slot_power_table(self.spec, evals, pass_reps)
            counts, sums, lo, hi = self._bins(pass_reps, inc, groups, ids.size, powers=powers)
            nonzero[ids] |= np.any(_combine_halves(lo[:, :, 0], hi[:, :, 0]) != 0, axis=1)
            got = _first_recovery(self.spec, powers, counts, sums, lo, hi)
            new = got.found & ~out.found[ids]
            out.found[ids[new]] = True
            out.slots[ids[new]] = got.slots[new]
            out.signs[ids[new]] = got.signs[new]
            del counts, sums, lo, hi, got, powers
            rep = stop
            keep = ~(out.found[ids] & nonzero[ids])[groups]
            if rep == reps or not keep.any():
                break
            # Compact: the open groups that still hold an incidence, densely.
            groups = groups[keep]
            inc = np.flatnonzero(keep) if inc is None else inc[keep]
            occupied = np.zeros(ids.size, dtype=bool)
            occupied[groups] = True
            groups = (np.cumsum(occupied) - 1)[groups]
            ids = ids[occupied]
        return nonzero, out


def _first_recovery(
    spec: SketchSpec,
    powers: np.ndarray,
    counts: np.ndarray,
    sums: np.ndarray,
    fps_lo: np.ndarray,
    fps_hi: np.ndarray,
) -> SampleResult:
    """Per group of one pass, the recovery :meth:`SketchBundle.sample` wants.

    ``powers`` is the pass's digit table, one row per repetition of its
    bins.  Every ``|count| == 1`` cell with an in-range slot is a
    candidate, verified against ``r^slot`` from ``powers`` after reducing
    just its fingerprint bin; per group the first verified candidate in
    (repetition ascending, level descending) order wins.
    """
    g, _, l = counts.shape
    found = np.zeros(g, dtype=bool)
    out_slot = np.full(g, -1, dtype=np.int64)
    out_sign = np.zeros(g, dtype=np.int64)
    # Scanning the level axis reversed lists each group's candidates in
    # preference order.
    gi, ri, li = np.nonzero(((counts == 1) | (counts == -1))[:, :, ::-1])
    li = (l - 1) - li
    signs = counts[gi, ri, li]
    slots = sums[gi, ri, li] * signs  # slot = c * s on candidate cells
    n2 = np.int64(spec.n) * np.int64(spec.n)
    inside = np.flatnonzero((slots >= 0) & (slots < n2))
    gi, ri, li, slots, signs = (a[inside] for a in (gi, ri, li, slots, signs))
    if gi.size == 0:
        return SampleResult(found, out_slot, out_sign)
    slots = slots.astype(np.uint64)
    expected = _slot_powers(powers, ri, slots)
    neg = signs < 0
    expected[neg] = (_P - expected[neg]) % _P
    pick = np.flatnonzero(_combine_halves(fps_lo[gi, ri, li], fps_hi[gi, ri, li]) == expected)
    head = np.ones(pick.size, dtype=bool)
    head[1:] = gi[pick[1:]] != gi[pick[:-1]]
    pick = pick[head]
    found[gi[pick]] = True
    out_slot[gi[pick]] = slots[pick].astype(np.int64)
    out_sign[gi[pick]] = signs[pick]
    return SampleResult(found, out_slot, out_sign)


def _digit_count(bits: int, evals: int) -> int:
    """Digits D of the cheapest table for ``evals`` exponents of ``bits`` bits.

    A table of D digit rows, each ``2^w`` wide with ``w = ceil(bits/D)``,
    costs ``D * 2^w`` mulmods to build (per repetition) and ``D - 1``
    mulmods per evaluated exponent; D minimises the sum (``min`` keeps the
    smallest D on a tie).  A larger D with the same digit width is never
    cheaper, so only the smallest D of each width is ever picked.
    """
    return min(range(1, bits + 1), key=lambda d: d * (1 << -(-bits // d)) + (d - 1) * evals)


def _digit_table(spec: SketchSpec, digits: int, reps: range | None = None) -> np.ndarray:
    """The ``(D, len(reps), 2^w)`` base-``2^w`` digit table of the bases of ``reps``.

    ``reps`` defaults to every repetition.  Entry ``[i, j]`` is the row
    ``(r^(2^(w*i)))^k`` for ``k < 2^w`` of ``r = r_{reps[j]}``, with
    ``w = ceil(max_slot_bits(n) / D)``, so ``r^slot`` is the product of
    one entry per base-``2^w`` digit of ``slot`` (:func:`_slot_powers`).
    The row bases come from Python bigint ``pow`` (at that size numpy is
    pure dispatch overhead); every row then doubles together in one
    stacked :func:`_power_table` pass.
    """
    reps = range(spec.repetitions) if reps is None else reps
    w = -(-max_slot_bits(spec.n) // digits)
    bases = [spec.fingerprint_base(rep) for rep in reps]
    rows = [pow(b, 1 << (w * i), MERSENNE_P) for i in range(digits) for b in bases]
    table = _power_table(np.array(rows, dtype=np.uint64), 1 << w)
    return table.reshape(digits, len(reps), 1 << w)


def _slot_power_table(spec: SketchSpec, evals: int, reps: range | None = None) -> np.ndarray:
    """The fingerprint power table of ``reps`` sized to ``evals`` slots per repetition.

    The table's build cost tracks the slots it serves: a late MST
    elimination call, or a late pass of the repetition walk, over a few
    hundred slots gets a few narrow digit rows; a phase-1 pass over the
    whole graph gets ``D = 2`` rows of width ``2^w >= n`` (exactly
    ``[r^j; (r^n)^j]`` when n is a power of two).  Both the build and the
    evaluation cost scale with ``len(reps)``, so D depends on ``evals``
    alone.  Every choice yields the canonical representative of the same
    field element ``r^slot mod p``, so it is invisible in the output bytes.
    """
    return _digit_table(spec, _digit_count(max_slot_bits(spec.n), evals), reps)


def _slot_powers(powers: np.ndarray, rows: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """``r^slot mod p`` of table repetition ``rows``, elementwise over broadcast ``rows`` and ``slots``.

    ``powers`` is a :func:`_digit_table` and ``rows`` index its second
    axis: ``r^slot`` is the product over the D base-``2^w`` digits
    ``s_i`` of ``slot`` of the entries ``(r^(2^(w*i)))^(s_i)`` — D
    gathers and ``D - 1`` mulmods.
    """
    width = powers.shape[2]
    w = np.uint64(width.bit_length() - 1)
    mask = np.uint64(width - 1)
    out = powers[0, rows, (slots & mask).astype(np.int64)]
    for i in range(1, powers.shape[0]):
        digit = ((slots >> (w * np.uint64(i))) & mask).astype(np.int64)
        out = mulmod(out, powers[i, rows, digit])
    return out


def _power_table(bases: np.ndarray, size: int) -> np.ndarray:
    """``table[i, j] = bases[i]^j mod p`` for ``j < size``, by doubling.

    ``bases`` is ``uint64[B]`` (the digit-row bases of
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
