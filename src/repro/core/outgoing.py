"""Outgoing-edge selection via combined linear sketches (Section 2.4).

One invocation implements the paper's per-phase selection step:

1. every machine builds the summed sketch of each component part it hosts
   (local computation over its own incidences — free);
2. parts ship their sketches to the component's random proxy machine
   (Lemma 1 traffic, charged through the load-matrix accounting);
3. each proxy sums its parts' sketches into the component sketch and
   samples one outgoing edge (Lemma 2);
4. the proxy resolves the *foreign* endpoint's current component label by
   querying that vertex's home machine (computable locally from the shared
   partition hash), one query/reply per component.

For the MST algorithm the same routine runs with a per-component weight
bound: incidences whose edge weight meets/exceeds the bound are zeroed out
before sketching (Section 3.1's edge-elimination), and the reply to the
label query additionally carries the sampled edge's weight.

Late-phase pruning
------------------
The step drops *component-internal* incidence pairs before sketching and
sketches only the active frontier, grouping directly at component
granularity, over only the components that keep an incidence.  These
shortcuts are exact — the resulting component answers are byte-identical
to sketching every incidence per part and summing parts into components
(proof in :func:`_sketch_components`), so every downstream decision and
ledger charge is the paper's; only the kernel work shrinks with the
frontier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import KMachineCluster
from repro.cluster.comm import CommStep
from repro.cluster.shared_random import SharedRandomness
from repro.core.labels import PartIndex
from repro.core.proxy import parts_to_proxies, proxy_of_labels
from repro.sketch.edgespace import decode_slot
from repro.sketch.l0 import SampleResult, SketchContext, SketchSpec
from repro.util.bits import bits_for_id

__all__ = ["OutgoingSelection", "select_outgoing_edges"]


@dataclass(frozen=True)
class OutgoingSelection:
    """Per-component outcome of one selection step (arrays indexed by component).

    Attributes
    ----------
    parts:
        The :class:`PartIndex` the step ran on.
    comp_proxy:
        ``int64[C]``; the proxy machine of each component this iteration.
    sketch_nonzero:
        ``bool[C]``; True where the (possibly weight-restricted) component
        sketch is nonzero — i.e. an outgoing edge exists w.h.p.
    found:
        ``bool[C]``; True where one-sparse recovery produced a verified edge.
    slot:
        ``int64[C]``; sampled canonical edge slot (-1 where not found).
    internal_vertex / foreign_vertex:
        ``int64[C]``; the sampled edge's endpoint inside / outside the
        component (-1 where not found).
    neighbor_label:
        ``int64[C]``; current label of the foreign endpoint's component.
    edge_weight:
        ``float64[C]``; sampled edge weight (NaN unless requested & found).
    inc_kept:
        ``int64``; increasing indices of the incidences the step sketched
        (cross-component and lighter than the bound), or None where no
        sketch step produced the selection.
    """

    parts: PartIndex
    comp_proxy: np.ndarray
    sketch_nonzero: np.ndarray
    found: np.ndarray
    slot: np.ndarray
    internal_vertex: np.ndarray
    foreign_vertex: np.ndarray
    neighbor_label: np.ndarray
    edge_weight: np.ndarray
    inc_kept: np.ndarray | None = None


def select_outgoing_edges(
    cluster: KMachineCluster,
    shared: SharedRandomness,
    labels: np.ndarray,
    phase: int,
    *,
    iteration: int = 0,
    sketch_seed: int | None = None,
    parts: PartIndex | None = None,
    inc_part: np.ndarray | None = None,
    repetitions: int = 6,
    hash_family: str = "prf",
    weight_bound_per_comp: np.ndarray | None = None,
    want_weights: bool = False,
    inc_live: np.ndarray | None = None,
) -> OutgoingSelection:
    """Run one sketch-sample-resolve step; charges the cluster ledger.

    Parameters
    ----------
    cluster, shared, labels, phase:
        Run state.  ``labels`` is the current component label per vertex.
    iteration:
        Sub-iteration rho (fresh proxy hash per Lemma 5's requirement).
    sketch_seed:
        Seed of the sketch matrix; defaults to the phase matrix
        ``shared.sketch_seed(phase)``.  MST elimination passes a fresh
        seed per elimination round.
    parts:
        Pre-built :class:`PartIndex` (labels unchanged since built);
        recomputed if omitted.
    inc_part:
        Pre-computed ``parts.part_of_vertex[cluster.inc_owner]`` (must
        belong to ``parts``); recomputed if omitted.  Callers that run
        several selections against one part structure — MST elimination
        iterations, connectivity retry phases — pass it to skip the
        per-call gather.
    repetitions / hash_family:
        Sketch parameters (see :class:`~repro.sketch.l0.SketchSpec`).
    weight_bound_per_comp:
        ``float64[C]`` aligned with ``parts.comp_labels``: incidences with
        ``weight >= bound`` are excluded from the sketch (MST elimination).
        ``+inf`` (or None) keeps everything; ``-inf`` drops every
        incidence of the component.
    want_weights:
        If True, label-query replies carry the edge weight (64 extra bits).
    inc_live:
        Increasing ``int64`` indices of the incidences that may still be
        sketched: the cross-component ones (``labels[cluster.inc_owner] !=
        labels[cluster.inc_other]``, computed if omitted) or any subset
        that still holds every incidence this step keeps.  Connectivity
        computes it once per label change; MST elimination passes the
        previous iteration's ``inc_kept``, because within a phase every
        component's bound only falls, so the kept set only shrinks.
    """
    n, k = cluster.n, cluster.k
    if parts is None:
        parts = PartIndex.build(labels, cluster.partition)
    seed = shared.sketch_seed(phase) if sketch_seed is None else sketch_seed
    spec = SketchSpec.for_graph(n, seed, repetitions=repetitions, hash_family=hash_family)
    shared.charge_sketch_seed_distribution(cluster.ledger, phase)
    if inc_part is None:
        inc_part = parts.part_of_vertex[cluster.inc_owner]
    bound = None
    if weight_bound_per_comp is not None:
        bound = np.asarray(weight_bound_per_comp, dtype=np.float64)
        if bound.shape != (parts.n_components,):
            raise ValueError("weight_bound_per_comp must align with components")

    # 1-2. Part sketches are local computation (free); ship them to the
    # component proxies (Lemma 1 pattern).
    stream = shared.proxy_stream(phase, iteration)
    comp_proxy = proxy_of_labels(stream, parts.comp_labels, k)
    part_proxy = comp_proxy[parts.comp_of_part]
    parts_to_proxies(
        cluster,
        f"sketch-to-proxy:phase-{phase}-it-{iteration}",
        parts.part_machine,
        part_proxy,
        spec.message_bits,
    )

    # 3. Proxy-side combination and sampling (Lemma 2).
    c = parts.n_components
    if inc_live is None:
        inc_live = np.flatnonzero(labels[cluster.inc_owner] != labels[cluster.inc_other])
    nonzero, sample, kept = _sketch_components(spec, cluster, parts, inc_part, bound, inc_live)
    found = sample.found

    internal = np.full(c, -1, dtype=np.int64)
    foreign = np.full(c, -1, dtype=np.int64)
    neighbor_label = np.full(c, -1, dtype=np.int64)
    weight = np.full(c, np.nan, dtype=np.float64)
    if found.any():
        idx = np.nonzero(found)[0]
        lo, hi = decode_slot(n, sample.slots[idx])
        sign = sample.signs[idx]
        internal[idx] = np.where(sign > 0, lo, hi)
        foreign[idx] = np.where(sign > 0, hi, lo)

        # 4. Resolve the foreign endpoint's label (and weight, for MST):
        # proxy -> home(foreign) query, then the reply re-runs the schedule.
        foreign_home = cluster.partition.home[foreign[idx]]
        query_bits = bits_for_id(n * n) + bits_for_id(n)
        reply_bits = bits_for_id(n) + (64 if want_weights else 0)
        q = CommStep(cluster.ledger, f"label-query:phase-{phase}-it-{iteration}")
        q.add(comp_proxy[idx], foreign_home, query_bits)
        q.deliver()
        r = CommStep(cluster.ledger, f"label-reply:phase-{phase}-it-{iteration}")
        r.add(foreign_home, comp_proxy[idx], reply_bits)
        r.deliver()
        neighbor_label[idx] = labels[foreign[idx]]
        if want_weights:
            eu, ev = np.minimum(internal[idx], foreign[idx]), np.maximum(
                internal[idx], foreign[idx]
            )
            weight[idx] = _edge_weights(cluster, eu, ev)

    return OutgoingSelection(
        parts=parts,
        comp_proxy=comp_proxy,
        sketch_nonzero=nonzero,
        found=found,
        slot=sample.slots,
        internal_vertex=internal,
        foreign_vertex=foreign,
        neighbor_label=neighbor_label,
        edge_weight=weight,
        inc_kept=kept,
    )


def _sketch_components(
    spec: SketchSpec,
    cluster: KMachineCluster,
    parts: PartIndex,
    inc_part: np.ndarray,
    bound: np.ndarray | None,
    live: np.ndarray,
) -> tuple[np.ndarray, SampleResult, np.ndarray]:
    """Nonzero mask and sample of every component's sketch (Lemma 2).

    The component sketch sums its parts' sketches over the component's
    incidences (those lighter than ``bound``, when given).  Only the live
    frontier is sketched: the incidences of ``live`` lighter than their
    component's bound, whose index is returned third.  They are grouped
    directly by component, over only the occupied components under an
    order-preserving dense relabel; the relabel runs only when it at
    least halves the grid.  **Exactness proof** — the answers are
    byte-identical to sketching every incidence per part and summing
    parts into components:

    1. *Internal pairs cancel.*  An edge ``{u, v}`` with
       ``labels[u] == labels[v]`` appears as two incidences carrying the
       same canonical slot with opposite signs (the min-endpoint owner
       gets +1).  Equal slots receive the same per-repetition sampling
       depth and the same fingerprint power ``r^slot``, so at component
       granularity — where both incidences land in the same group — every
       accumulator sees ``+x`` and ``-x`` of the *same exact integer*:
       counts and id-sums are exact signed int64, and the fingerprint
       accumulators are exact signed sums of 30-bit halves reduced to the
       canonical representative mod ``p = 2^61 - 1``.  Dropping the pair
       changes no accumulator value.  Under an MST weight bound both
       halves share the owner component, hence the same bound and the
       same edge weight, so they are always kept or dropped *together* —
       surviving internal incidences still cancel pairwise.
    2. *Part grouping commutes with aggregation.*  Sketch linearity:
       grouping incidences by part and then summing parts into components
       produces exact int64 counts/sums and canonical mod-p fingerprints
       of the same residues as grouping the incidences by component
       directly, so the part-level pass can be skipped.
    3. *Empty components answer without a sketch.*  A component none of
       whose incidences survives has an all-zero row: every count, id-sum
       and fingerprint half is 0.  ``nonzero_mask`` reads its level-0
       fingerprints as 0 (``False``) and ``sample`` finds no
       ``|count| == 1`` cell (``found=False``, ``slot=-1``, ``sign=0``) —
       deterministically, not w.h.p.  Every other row sums only its own
       component's incidences, and ``sample`` picks per group from that
       group's cells alone, so sketching just the occupied components and
       scattering the answers back gives the same bytes.  When no
       incidence survives at all (the MST's certifying last iteration) no
       context is built.
    4. *A carried live set loses nothing.*  ``live`` holds every
       cross-component incidence (point 1), or an earlier iteration's
       kept index of the same phase.  Its bounds were pointwise at least
       the current ones (a component's bound only falls to a sampled
       edge's weight, lighter than the bound it was sampled under, or to
       ``-inf``), so every incidence kept now was kept then.

    Every downstream consumer (nonzero test, sample, label queries) reads
    only these answers, and every ledger charge depends only on the
    part/proxy structure and ``spec.message_bits`` — never on sketch
    *contents* — so selections, rounds, and RunReport envelopes equal the
    part-level pipeline's.  Pinned against that pipeline, kept as the
    reference oracle, by ``tests/core/test_pruning.py``.
    """
    kept = live
    comp = parts.comp_of_part[inc_part[live]]
    if bound is not None:
        keep = cluster.inc_weight[live] < bound[comp]
        kept, comp = live[keep], comp[keep]
    n_comp = parts.n_components
    nonzero = np.zeros(n_comp, dtype=bool)
    out = SampleResult(
        np.zeros(n_comp, dtype=bool),
        np.full(n_comp, -1, dtype=np.int64),
        np.zeros(n_comp, dtype=np.int64),
    )
    if comp.size == 0:
        return nonzero, out, kept
    ctx = SketchContext(spec, cluster.inc_slot[kept], cluster.inc_sign[kept])
    occupied = np.zeros(n_comp, dtype=bool)
    occupied[comp] = True
    n_occ = int(np.count_nonzero(occupied))
    if 2 * n_occ > n_comp:
        bundle = ctx.group_sums(comp, n_comp)
        return bundle.nonzero_mask(), bundle.sample(), kept
    dense = np.cumsum(occupied) - 1  # component -> rank among occupied ones
    bundle = ctx.group_sums(dense[comp], n_occ)
    ids = np.flatnonzero(occupied)
    nonzero[ids] = bundle.nonzero_mask()
    sample = bundle.sample()
    out.found[ids] = sample.found
    out.slots[ids] = sample.slots
    out.signs[ids] = sample.signs
    return nonzero, out, kept


def _edge_weights(cluster: KMachineCluster, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Weights of edges given by canonical endpoint arrays (vectorized lookup).

    The home machine of either endpoint knows the weight locally; this is
    the content of the label-query reply, so no extra communication is
    charged here.
    """
    g = cluster.graph
    key = g.edges_u * np.int64(g.n) + g.edges_v
    q = us * np.int64(g.n) + vs
    pos = np.searchsorted(key, q)
    pos = np.clip(pos, 0, key.size - 1)
    if not np.all(key[pos] == q):
        raise KeyError("sampled slot does not correspond to a graph edge")
    return g.weights[pos]
