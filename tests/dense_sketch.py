"""Dense reference sketches: the eager ``(G, R, L)`` query path, kept as an oracle.

Production answers ``nonzero_mask``/``sample`` through the lazy
repetition walk of :class:`repro.sketch.l0.SketchContext`, which never
builds the full grid.  This module keeps what the walk replaced, for the
tests to compare against:

* :class:`DenseBundle` — sketches of ``G`` groups as four exact int64
  ``(G, R, L)`` grids (counts, id-sums, fingerprint halves), with the two
  linear operations of Lemma 2 (:meth:`DenseBundle.add`,
  :meth:`DenseBundle.aggregate`) and the dense queries, which read every
  repetition of every group.
* :func:`dense` — a lazy bundle's materialized grid as a ``DenseBundle``.
* :func:`group_rows` — the sort + ``reduceat`` row aggregation behind
  ``aggregate``.
* :func:`modp_scatter_sum` — the 30-bit-split mod-p scatter.

A filtered sketch (the old ``group_sums(mask=)``) is the sketch of the
filtered incidence list: depths and powers depend on the slot alone, so
``SketchContext(spec, slots[mask], signs[mask]).group_sums(gi[mask], G)``
gives the same bins.
"""

from __future__ import annotations

import numpy as np

from repro.sketch.field import MERSENNE_P
from repro.sketch.kernels import segment_sum
from repro.sketch.l0 import (
    _LOW30,
    _MAX_HI_FP,
    _MAX_LO,
    SampleResult,
    SketchBundle,
    SketchContext,
    SketchSpec,
    _check_group_ids,
    _combine_halves,
    _slot_power_table,
    _slot_powers,
)

_P = np.uint64(MERSENNE_P)


def group_rows(rows: np.ndarray, group_of_row: np.ndarray, n_out: int) -> np.ndarray:
    """Sum leading-axis ``rows`` into ``n_out`` groups (exact int64).

    ``out[g] = sum(rows[group_of_row == g], axis=0)``; groups nobody maps
    to stay zero.  Equivalent to ``np.add.at(out, group_of_row, rows)``
    with int64 arithmetic, via a stable argsort and one ``reduceat`` pass.
    """
    out = np.zeros((n_out,) + rows.shape[1:], dtype=np.int64)
    if group_of_row.size == 0:
        return out
    order = np.argsort(group_of_row, kind="stable")
    sorted_groups = group_of_row[order]
    boundary = np.empty(sorted_groups.size, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_groups[1:], sorted_groups[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    out[sorted_groups[starts]] = np.add.reduceat(rows[order], starts, axis=0)
    return out


def modp_scatter_sum(values: np.ndarray, signs: np.ndarray, idx: np.ndarray, n_out: int) -> np.ndarray:
    """Exact ``sum_j signs[j] * values[j] mod p`` grouped by ``idx``.

    ``values`` are in ``[0, p)``; splitting each into 30-bit halves keeps
    both signed accumulators exact, and ``_combine_halves`` reduces them.
    """
    v = values.astype(np.int64)
    acc_lo = segment_sum((v & _LOW30) * signs, idx, n_out, max_abs=_MAX_LO)
    acc_hi = segment_sum((v >> np.int64(30)) * signs, idx, n_out, max_abs=_MAX_HI_FP)
    return _combine_halves(acc_lo, acc_hi)


class DenseBundle:
    """Sketches of ``G`` groups: exact int64 triples of shape ``(G, R, L)``.

    Fingerprints live unreduced as the signed halves ``fps_lo``/``fps_hi``
    (``f === fps_lo + fps_hi * 2^30 mod p``).  ``DenseBundle(spec, counts,
    sums, fps)`` takes canonical ``fps`` in ``[0, p)``.  :meth:`sample`
    verifies its candidates through a power table sized to them.
    """

    def __init__(
        self, spec: SketchSpec, counts: np.ndarray, sums: np.ndarray, fps: np.ndarray
    ) -> None:
        f = np.asarray(fps, dtype=np.uint64).astype(np.int64)  # < p < 2^63
        self._set(spec, counts, sums, f & _LOW30, f >> np.int64(30))

    @classmethod
    def from_halves(cls, spec, counts, sums, fps_lo, fps_hi) -> "DenseBundle":
        bundle = cls.__new__(cls)
        bundle._set(spec, counts, sums, fps_lo, fps_hi)
        return bundle

    def _set(self, spec, counts, sums, fps_lo, fps_hi) -> None:
        self.spec = spec
        self.counts = counts
        self.sums = sums
        self.fps_lo = fps_lo
        self.fps_hi = fps_hi

    @property
    def fps(self) -> np.ndarray:
        """Canonical fingerprints, uint64 ``(G, R, L)`` in ``[0, p)``."""
        return _combine_halves(self.fps_lo, self.fps_hi)

    @property
    def n_groups(self) -> int:
        return int(self.counts.shape[0])

    def add(self, other: "DenseBundle") -> "DenseBundle":
        """Entrywise sum (sketch linearity; groups must align)."""
        if other.spec != self.spec:
            raise ValueError("cannot add sketches with different specs")
        if other.counts.shape != self.counts.shape:
            raise ValueError("group shapes differ")
        return DenseBundle.from_halves(
            self.spec,
            self.counts + other.counts,
            self.sums + other.sums,
            self.fps_lo + other.fps_lo,
            self.fps_hi + other.fps_hi,
        )

    def aggregate(self, group_map: np.ndarray, n_out: int) -> "DenseBundle":
        """Sum rows into ``n_out`` new groups: row g -> group_map[g] (Lemma 2)."""
        gm = np.asarray(group_map, dtype=np.int64)
        if gm.shape != (self.n_groups,):
            raise ValueError("group_map must have one entry per group")
        _check_group_ids(gm, n_out, "group_map")
        return DenseBundle.from_halves(
            self.spec,
            group_rows(self.counts, gm, n_out),
            group_rows(self.sums, gm, n_out),
            group_rows(self.fps_lo, gm, n_out),
            group_rows(self.fps_hi, gm, n_out),
        )

    def nonzero_mask(self) -> np.ndarray:
        """True where any repetition's level-0 fingerprint is nonzero."""
        level0 = _combine_halves(self.fps_lo[:, :, 0], self.fps_hi[:, :, 0])
        return np.any(level0 != 0, axis=1)

    def sample(self) -> SampleResult:
        """Deepest verified level of the first succeeding repetition, per group."""
        g, r, l = self.counts.shape
        c = self.counts
        found = np.zeros(g, dtype=bool)
        out_slot = np.full(g, -1, dtype=np.int64)
        out_sign = np.zeros(g, dtype=np.int64)
        gi, ri, li = np.nonzero((c == 1) | (c == -1))
        signs = c[gi, ri, li]
        slots = self.sums[gi, ri, li] * signs
        n2 = np.int64(self.spec.n) * np.int64(self.spec.n)
        inside = np.flatnonzero((slots >= 0) & (slots < n2))
        gi, ri, li, slots, signs = (a[inside] for a in (gi, ri, li, slots, signs))
        if gi.size == 0:
            return SampleResult(found, out_slot, out_sign)
        slots = slots.astype(np.uint64)
        fps = _combine_halves(self.fps_lo[gi, ri, li], self.fps_hi[gi, ri, li])
        powers = _slot_power_table(self.spec, gi.size)
        expected = _slot_powers(powers, ri, slots)
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


def dense(bundle: SketchBundle) -> DenseBundle:
    """The materialized grid of a lazy bundle."""
    return DenseBundle.from_halves(
        bundle.spec, bundle.counts, bundle.sums, bundle.fps_lo, bundle.fps_hi
    )


def dense_group_sums(
    ctx: SketchContext, group_idx: np.ndarray, n_groups: int, mask: np.ndarray | None = None
) -> DenseBundle:
    """The dense sketch of every group, over the incidences ``mask`` keeps."""
    gi = np.asarray(group_idx, dtype=np.int64)
    if mask is not None:
        sel = np.asarray(mask, dtype=bool)
        ctx = SketchContext(ctx.spec, ctx.slots[sel], ctx.signs[sel])
        gi = gi[sel]
    return dense(ctx.group_sums(gi, n_groups))


def assert_same_answers(bundle: SketchBundle, reference: DenseBundle) -> None:
    """The lazy walk's answers equal the dense queries', byte for byte."""
    want_nonzero, want = reference.nonzero_mask(), reference.sample()
    got = bundle.sample()
    assert bundle.nonzero_mask().tobytes() == want_nonzero.tobytes()
    assert got.found.tobytes() == want.found.tobytes()
    assert got.slots.tobytes() == want.slots.tobytes()
    assert got.signs.tobytes() == want.signs.tobytes()
