"""Exact segment-reduction kernels for the sketch hot path.

The sketch scatter-adds (the bins of a ``SketchContext`` pass) were
originally written with ``np.add.at`` — the slowest scatter primitive
NumPy offers (an unbuffered, per-element inner loop).  This module
provides the drop-in exact replacement:

* :func:`segment_sum` — ``np.bincount`` with float64 weights.  A float64
  accumulator holds every integer of magnitude ``<= 2^53`` exactly, so a
  bincount over signed weights is *bit-exact* (not merely close) whenever
  ``contributions * max|weight| <= 2^53``: every partial sum along the
  reduction is an integer below the exactness horizon, and float64
  addition of exactly-representable integers with an exactly-representable
  sum is exact regardless of order.  Callers split wide values into 30-bit
  halves first (the same split the mod-p fingerprint accumulation already
  used for int64 overflow safety), which caps ``max|weight|`` at
  ``2^31 - 1`` and admits ~4M contributions per call — far beyond every
  grid in the benchmark registry.  Inputs beyond the horizon fall back to
  ``np.add.at`` automatically, so exactness never depends on the caller
  checking bounds.

It returns *identical integers* to the ``np.add.at`` reference (pinned by
the hypothesis suite in ``tests/sketch/test_kernels.py``), which is what
keeps the perf gate's byte-exact metric contract intact across the
vectorization (DESIGN.md §9).  Production never regroups accumulated
sketch rows (it sketches at component granularity directly), so the sort
+ ``reduceat`` row aggregation lives on only in the tests' dense
reference (``tests/dense_sketch.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["F64_EXACT", "segment_sum"]

#: Largest integer magnitude float64 represents exactly (2^53).
F64_EXACT = 1 << 53


def segment_sum(
    weights: np.ndarray,
    idx: np.ndarray,
    size: int,
    *,
    max_abs: int,
    max_count: int | None = None,
) -> np.ndarray:
    """Exact ``int64[size]`` with ``out[b] = sum(weights[idx == b])``.

    Parameters
    ----------
    weights:
        Signed int64 contributions with ``|w| <= max_abs``.
    idx:
        Flat bin ids in ``[0, size)``, one per weight.
    size:
        Number of output bins.
    max_abs:
        Caller-supplied bound on ``|weights|`` (callers know it statically
        — e.g. ``2^30 - 1`` for a low half); it is what makes the float64
        exactness check cheap.
    max_count:
        Optional bound on the number of contributions any single bin can
        receive (defaults to ``weights.size``).  A sketch pass gives the
        per-repetition incidence count here: bins are (group, repetition,
        depth) cells, so contributions never cross repetitions.
    """
    count = weights.size if max_count is None else max_count
    if count * max(1, max_abs) <= F64_EXACT:
        # Every partial sum is an integer of magnitude <= count * max_abs
        # <= 2^53: exact in float64, so the cast back is lossless.
        return np.bincount(idx, weights=weights, minlength=size).astype(np.int64)
    acc = np.zeros(size, dtype=np.int64)
    np.add.at(acc, idx, weights)
    return acc
