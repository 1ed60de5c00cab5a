"""The corpus generator contract, pinned over *every* registered family.

This is the ISSUE-9 headline harness: the pisek-style contract
(SNIPPETS.md Snippet 1) says a generator must self-describe, be
deterministic, and respect its seed — and :mod:`repro.corpus.families`
promises all three for every family in the repository, including the
plain random families that previously had no registry entry enforcing
any of it.  Four guarantees, each parametrized over the full registry:

* byte-determinism — same ``(params, seed)`` produce byte-identical edge
  arrays across two independent generator invocations;
* the seed contract — seeded families produce distinct graphs across
  seeds, unseeded ones normalize every seed to 0 *by construction*;
* listing round-trip — ``describe()`` output parses back through
  :func:`~repro.corpus.families.parse_spec` to the same family and the
  same normalized params, so ``repro corpus list`` speaks the exact
  language ``repro corpus gen`` accepts;
* consumer equivalence — a memory-mapped corpus load runs
  ``connectivity``/``mst`` to a :class:`RunReport` byte-identical
  (``include_timing=False``) to the in-memory build of the same family.

:func:`~repro.corpus.families.sized_graph` is the one graph identity for
inputs named by family and size; :class:`TestSizedGraph` pins the bytes
every caller (service, scenarios, CLI) builds through it.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.cli import _build_graph, build_parser
from repro.corpus.families import (
    CORPUS_FAMILIES,
    SIZED_FAMILIES,
    CorpusFamily,
    get_family,
    parse_spec,
    sized_graph,
)
from repro.corpus.manager import CorpusManager, edge_digest
from repro.runtime import ClusterConfig, RunConfig, Session
from repro.scenarios.registry import Scenario
from repro.service.protocol import RunRequest
from repro.util.rng import derive_seed

FAMILIES = tuple(sorted(CORPUS_FAMILIES))
SEEDED = tuple(name for name in FAMILIES if CORPUS_FAMILIES[name].seeded)
UNSEEDED = tuple(name for name in FAMILIES if not CORPUS_FAMILIES[name].seeded)


def _edge_bytes(g) -> tuple[bytes, bytes, bytes, int]:
    return g.edges_u.tobytes(), g.edges_v.tobytes(), g.weights.tobytes(), g.n


class TestRegistryShape:
    def test_registry_keys_match_entry_names(self):
        for name, fam in CORPUS_FAMILIES.items():
            assert isinstance(fam, CorpusFamily)
            assert fam.name == name
            assert fam.summary, f"{name} needs a human-readable summary"

    def test_every_generator_module_family_is_registered(self):
        # The satellite fix: the random families must sit under the same
        # registry contract as the worst-case ones.  Spot the full set so
        # a new generator cannot land without a corpus entry.
        expected = {
            "path", "cycle", "star", "complete", "tree", "grid",
            "gnm", "gnp", "geometric", "powerlaw", "random_tree",
            "planted_components", "planted_cut", "diameter2", "lower_bound",
            "lollipop", "barbell", "expander_bridge", "disjoint_cliques",
            "star_of_paths",
        }
        assert set(CORPUS_FAMILIES) == expected

    def test_shape_families_are_unseeded(self):
        # Only the expander construction draws randomness among the
        # worst-case families; adding a seeded one must be a conscious
        # change here too.
        assert set(UNSEEDED) == {
            "path", "cycle", "star", "complete", "tree", "grid", "lower_bound",
            "lollipop", "barbell", "disjoint_cliques", "star_of_paths",
        }

    def test_random_families_are_seeded(self):
        for name in ("gnm", "gnp", "geometric", "powerlaw", "random_tree",
                     "planted_components", "planted_cut", "diameter2"):
            assert CORPUS_FAMILIES[name].seeded, f"{name} must declare seeded=True"

    def test_every_family_declares_weighted(self):
        for name in FAMILIES:
            params = {p.name for p in CORPUS_FAMILIES[name].params}
            assert "weighted" in params, f"{name} lost the implicit weighted param"

    def test_unknown_family_lists_available_names(self):
        with pytest.raises(KeyError, match="gnm"):
            get_family("moebius")

    @pytest.mark.parametrize("family", FAMILIES)
    def test_default_grid_cells_normalize(self, family):
        fam = CORPUS_FAMILIES[family]
        for cell in fam.grid or ({},):
            normalized = fam.normalize(cell)
            assert set(normalized) == {p.name for p in fam.params}


class TestDeterminism:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_same_inputs_same_bytes_across_instances(self, family, seed):
        fam = CORPUS_FAMILIES[family]
        a = fam.generate(None, seed)
        b = fam.generate(None, seed)
        assert _edge_bytes(a) == _edge_bytes(b)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_weighted_variant_is_deterministic(self, family):
        fam = CORPUS_FAMILIES[family]
        a = fam.generate({"weighted": True}, 3)
        b = fam.generate({"weighted": True}, 3)
        assert a.weighted and b.weighted
        assert a.weights.tobytes() == b.weights.tobytes()


class TestSeedContract:
    @pytest.mark.parametrize("family", UNSEEDED)
    def test_unseeded_families_normalize_every_seed_to_zero(self, family):
        fam = CORPUS_FAMILIES[family]
        baseline = _edge_bytes(fam.generate(None, 0))
        for seed in (1, 9, 12345):
            assert fam.normalize_seed(seed) == 0
            assert _edge_bytes(fam.generate(None, seed)) == baseline

    @pytest.mark.parametrize("family", SEEDED)
    def test_seeded_families_consume_the_seed(self, family):
        fam = CORPUS_FAMILIES[family]
        a = fam.generate(None, 0)
        b = fam.generate(None, 9)
        assert fam.normalize_seed(9) == 9
        assert _edge_bytes(a) != _edge_bytes(b), (
            f"{family} declares seeded=True but ignored the seed"
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_unknown_params_are_rejected(self, family):
        with pytest.raises(ValueError, match="no parameter"):
            CORPUS_FAMILIES[family].normalize({"bogus_knob": 1})


class TestListingRoundTrip:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_describe_round_trips_through_parse_spec(self, family):
        fam = CORPUS_FAMILIES[family]
        parsed_fam, parsed_params = parse_spec(fam.describe())
        assert parsed_fam is fam
        assert parsed_params == fam.normalize({})

    @pytest.mark.parametrize("family", FAMILIES)
    def test_grid_cells_round_trip(self, family):
        fam = CORPUS_FAMILIES[family]
        for cell in fam.grid or ({},):
            line = fam.describe(cell)
            parsed_fam, parsed_params = parse_spec(line)
            assert parsed_fam is fam
            assert parsed_params == fam.normalize(cell)

    def test_seeded_flag_mismatch_is_rejected(self):
        with pytest.raises(ValueError, match="seeded"):
            parse_spec("path n=64 seeded=true")

    def test_malformed_spec_items_are_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_spec("gnm n")
        with pytest.raises(ValueError, match="duplicate"):
            parse_spec("gnm n=8 n=9")
        with pytest.raises(ValueError, match="empty"):
            parse_spec("   ")


class TestConsumerEquivalence:
    """Memory-mapped loads are indistinguishable from in-memory builds."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_mmap_graph_matches_in_memory_arrays(self, family, tmp_path):
        fam = CORPUS_FAMILIES[family]
        manager = CorpusManager(tmp_path)
        entry = manager.generate(fam, None, 5)
        mapped = manager.load(entry.entry_id)
        assert isinstance(mapped.edges_u, np.memmap)
        mem = fam.generate(None, 5)
        assert mapped.n == mem.n and mapped.m == mem.m
        for attr in ("indptr", "indices", "edge_ids", "edges_u", "edges_v", "weights"):
            assert getattr(mapped, attr).tobytes() == getattr(mem, attr).tobytes(), attr
        assert mapped.weighted == mem.weighted

    @pytest.mark.parametrize(
        ("family", "params", "algorithm"),
        [
            ("gnm", {"n": 96, "m": 288}, "connectivity"),
            ("gnm", {"n": 96, "m": 288, "weighted": True}, "mst"),
            ("expander_bridge", {"n": 80}, "connectivity"),
            ("planted_components", {"n": 90, "n_components": 3}, "connectivity"),
            ("lower_bound", {"bits": 24}, "connectivity"),
        ],
    )
    def test_run_report_byte_identical(self, family, params, algorithm, tmp_path):
        fam = CORPUS_FAMILIES[family]
        manager = CorpusManager(tmp_path)
        entry = manager.generate(fam, params, 2)
        config = RunConfig(seed=4, cluster=ClusterConfig(k=4))

        with Session(config=config, corpus=manager) as session:
            served = session.run(algorithm, f"corpus:{entry.entry_id}")
        with Session(config=config) as session:
            reference = session.run(algorithm, fam.generate(params, 2))

        a = json.dumps(served.to_dict(include_timing=False), sort_keys=True)
        b = json.dumps(reference.to_dict(include_timing=False), sort_keys=True)
        assert a == b


#: Graph digests of every sized family at n=60, recorded before the
#: service, scenario and CLI construction paths were merged into
#: ``sized_graph``: (family, seed, weighted) -> digest.
PINNED_DIGESTS = {
    ("gnm", 0, False): "601359ec4f62c76c",
    ("gnm", 0, True): "3f65084039175a77",
    ("gnm", 7, False): "65c5170f0ff6b1a4",
    ("gnm", 7, True): "bb5008f8f321a395",
    ("path", 0, False): "4f0eaca085c72f22",
    ("path", 0, True): "d9af2ecde3c5c26c",
    ("path", 7, False): "4f0eaca085c72f22",
    ("path", 7, True): "314d2d367716bcb9",
    ("cycle", 0, False): "13fe457f77352e7f",
    ("cycle", 0, True): "c75cb9e7202f3846",
    ("cycle", 7, False): "13fe457f77352e7f",
    ("cycle", 7, True): "2d55668ddcdd303f",
    ("star", 0, False): "1b97187a4c09cbbe",
    ("star", 0, True): "486688c5e70f9126",
    ("star", 7, False): "1b97187a4c09cbbe",
    ("star", 7, True): "899223a0cb700b2f",
    ("grid", 0, False): "759132eeab9b375c",
    ("grid", 0, True): "f226732dc3d767e4",
    ("grid", 7, False): "759132eeab9b375c",
    ("grid", 7, True): "bbf90cf4d2191346",
    ("powerlaw", 0, False): "b1d7b0b8c203a6d5",
    ("powerlaw", 0, True): "e7865912ec3e016e",
    ("powerlaw", 7, False): "c4fc68869d5c2c1e",
    ("powerlaw", 7, True): "01d1ad033892656e",
    ("geometric", 0, False): "8e429f24bb292641",
    ("geometric", 0, True): "192855d8e1b93d10",
    ("geometric", 7, False): "a22c169241119da9",
    ("geometric", 7, True): "b37893fe6dddb6b1",
    ("lollipop", 0, False): "c619c1572b4701af",
    ("lollipop", 0, True): "f43ec8ceb4da472a",
    ("lollipop", 7, False): "c619c1572b4701af",
    ("lollipop", 7, True): "3dd7d1094fdeea33",
    ("barbell", 0, False): "1d61ba0478690084",
    ("barbell", 0, True): "bbb96b844d47af20",
    ("barbell", 7, False): "1d61ba0478690084",
    ("barbell", 7, True): "e07e4bab7906da42",
    ("expander_bridge", 0, False): "8779260c6e8829fb",
    ("expander_bridge", 0, True): "b697ece6921954b0",
    ("expander_bridge", 7, False): "bb6c14b8c05d221e",
    ("expander_bridge", 7, True): "5e9165b478897714",
    ("disjoint_cliques", 0, False): "0f362747360f8974",
    ("disjoint_cliques", 0, True): "b6f473f7f29e5a2c",
    ("disjoint_cliques", 7, False): "0f362747360f8974",
    ("disjoint_cliques", 7, True): "01ed6172f425b08b",
    ("star_of_paths", 0, False): "fab7c21ff7e776e5",
    ("star_of_paths", 0, True): "864619986df0b245",
    ("star_of_paths", 7, False): "fab7c21ff7e776e5",
    ("star_of_paths", 7, True): "404c8c1f47911221",
}


def _digest(g) -> str:
    edges = edge_digest(g.edges_u, g.edges_v, g.weights if g.weighted else None)
    return hashlib.sha256(f"{g.n};{edges}".encode()).hexdigest()[:16]


class TestSizedGraph:
    #: Requested sizes; builders round to their own granularity (clique
    #: splits, path arm counts) but must track the request monotonically.
    LADDER = (12, 24, 40, 60, 100, 137, 200)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("family", SIZED_FAMILIES)
    def test_every_path_builds_the_pinned_bytes(self, family, seed, weighted):
        # The service and scenarios derive the graph seed from the run
        # seed; the CLI takes it verbatim, so hand it the derived one.
        served = RunRequest(
            algorithm="connectivity", family=family, n=60, seed=seed, weighted=weighted
        ).build_graph()
        scenario = Scenario("pin", "pin", family=family, weighted=weighted)
        argv = ["run", "connectivity", "--graph", family, "--n", "60",
                "--graph-seed", str(derive_seed(seed, 0x5CE0))]
        argv += ["--weighted"] if weighted else []
        cli = _build_graph(build_parser().parse_args(argv), seed)
        built = (served, scenario.make_graph(60, seed), cli)
        assert [_digest(g) for g in built] == [PINNED_DIGESTS[family, seed, weighted]] * 3

    # grid rounds n to the nearest square, which can exceed the request.
    @pytest.mark.parametrize("family", [f for f in SIZED_FAMILIES if f != "grid"])
    def test_vertex_count_monotone_and_near_request(self, family):
        sizes = [sized_graph(family, n, 3).n for n in self.LADDER]
        assert all(a <= b for a, b in zip(sizes, sizes[1:])), (
            f"{family} vertex counts not monotone over {self.LADDER}: {sizes}"
        )
        for n, got in zip(self.LADDER, sizes):
            assert n // 2 <= got <= n, f"{family} at requested n={n} produced {got} vertices"

    def test_unknown_family_lists_available_names(self):
        with pytest.raises(KeyError, match="available: gnm, path"):
            sized_graph("moebius", 40, 0)
        with pytest.raises(KeyError, match="lollipop"):
            sized_graph("lower_bound", 40, 0)  # registered, but not sized by n
