"""Linear graph sketches: l0-sampling over edge-incidence vectors.

Implements the sketching substrate of Section 2.3 — the tool that lets a
component find an outgoing edge with O(polylog n) bits of communication:

* :mod:`repro.sketch.field` — F_{2^61-1} arithmetic (NumPy-vectorized).
* :mod:`repro.sketch.kwise` — d-wise independent polynomial hashing and the
  keyed-PRF fast path.
* :mod:`repro.sketch.edgespace` — the incidence-vector slot encoding and
  its +-1 sign convention.
* :mod:`repro.sketch.l0` — sketch construction, one-sparse recovery with
  fingerprint verification and zero-vector detection, evaluated one
  repetition at a time for the groups still unanswered.
"""

from repro.sketch.edgespace import decode_slot, encode_slot, incident_slots_and_signs
from repro.sketch.field import MERSENNE_P, addmod, mulmod, poly_eval, powmod, submod
from repro.sketch.kwise import HashFamily, PolynomialHash, SplitMix64Hash, make_hash
from repro.sketch.l0 import SampleResult, SketchBundle, SketchContext, SketchSpec

__all__ = [
    "HashFamily",
    "MERSENNE_P",
    "PolynomialHash",
    "SampleResult",
    "SketchBundle",
    "SketchContext",
    "SketchSpec",
    "SplitMix64Hash",
    "addmod",
    "decode_slot",
    "encode_slot",
    "incident_slots_and_signs",
    "make_hash",
    "mulmod",
    "poly_eval",
    "powmod",
    "submod",
]
