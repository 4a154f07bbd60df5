"""Unit and smoke tests for the simulation harness."""

from dataclasses import replace

import pytest

from repro.core.query import FieldQuery
from repro.sim.experiment import Experiment, ExperimentConfig
from repro.sim.presets import get_preset
from repro.workload.corpus import CorpusConfig, SyntheticCorpus

TINY = ExperimentConfig(
    num_nodes=20,
    num_articles=120,
    num_queries=600,
    num_authors=60,
)


@pytest.fixture(scope="module")
def tiny_corpus():
    return SyntheticCorpus(
        CorpusConfig(
            num_articles=TINY.num_articles,
            num_authors=TINY.num_authors,
            seed=TINY.corpus_seed,
        )
    )


def run(config, corpus=None):
    return Experiment(config, corpus=corpus).run()


class TestConfig:
    def test_defaults_are_paper_setup(self):
        config = ExperimentConfig()
        assert config.num_nodes == 500
        assert config.num_articles == 10_000
        assert config.num_queries == 50_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scheme": "bogus"},
            {"cache": "bogus"},
            {"substrate": "bogus"},
            {"num_nodes": 0},
            {"cache": "lru0"},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)

    def test_scaled(self):
        scaled = ExperimentConfig().scaled(0.01)
        assert scaled.num_nodes == 5
        assert scaled.num_articles == 100
        assert scaled.num_queries == 500


class TestRun:
    def test_all_searches_succeed(self, tiny_corpus):
        result = run(TINY, tiny_corpus)
        assert result.searches == TINY.num_queries
        assert result.found == result.searches

    def test_result_validates(self, tiny_corpus):
        result = run(TINY, tiny_corpus)
        result.validate()

    def test_no_cache_means_no_cache_activity(self, tiny_corpus):
        result = run(TINY, tiny_corpus)
        assert result.cache_hits == 0
        assert result.cache_bytes_total == 0
        assert result.avg_cached_keys_per_node == 0

    def test_deterministic(self, tiny_corpus):
        first = run(TINY, tiny_corpus)
        second = run(TINY, tiny_corpus)
        assert first.avg_interactions == second.avg_interactions
        assert first.normal_bytes_total == second.normal_bytes_total
        assert first.nonindexed_queries == second.nonindexed_queries

    def test_interactions_at_least_two(self, tiny_corpus):
        """Every lookup needs at least index + file interactions."""
        result = run(TINY, tiny_corpus)
        assert result.avg_interactions >= 2.0

    def test_hotspot_percentages(self, tiny_corpus):
        result = run(TINY, tiny_corpus)
        assert result.node_query_percentages
        assert result.node_query_percentages[0] >= result.node_query_percentages[-1]
        # Fan-out: percentages sum to more than 100% (Fig 15 note).
        assert sum(result.node_query_percentages) > 100.0

    def test_lookup_phase_never_runs_the_xpath_parser(self, tiny_corpus):
        """Answers hold canonical keys, which ``FieldQuery.parse`` decodes
        directly: the general xmlq parser is for user-typed text only."""
        experiment = Experiment(TINY, corpus=tiny_corpus)
        experiment.populate()
        # Earlier tests parsed the same keys: start from a cold memo so
        # the run has misses, the path that used to reach the parser.
        experiment.service.schema.__dict__.pop(FieldQuery._PARSE_CACHE_ATTR, None)
        counts = experiment.run().perf_counters
        assert counts["xpath_parses"] == 0
        assert counts["field_parse_cache_misses"] > 0
        assert counts["field_parse_calls"] == (
            counts["field_parse_cache_hits"] + counts["field_parse_cache_misses"]
        )

    def test_selection_decodes_an_entry_once_not_once_per_answer(self):
        """The paper's cell returns ~74 entries per answer.  Selection
        reads a known entry from the memo without calling ``parse``, so
        parse calls are first sights only (148 per lookup before)."""
        experiment = Experiment(replace(get_preset("paper"), num_queries=500))
        experiment.populate()
        experiment.service.schema.__dict__.pop(FieldQuery._PARSE_CACHE_ATTR, None)
        counts = experiment.run().perf_counters
        assert counts["engine_searches"] == 500
        assert 0 < counts["field_parse_calls"] <= 20 * counts["engine_searches"]
        assert counts["xpath_parses"] == 0

    def test_shared_corpus_must_match(self, tiny_corpus):
        with pytest.raises(ValueError):
            Experiment(replace(TINY, num_articles=50), corpus=tiny_corpus)

    def test_index_storage_accounted(self, tiny_corpus):
        result = run(TINY, tiny_corpus)
        assert result.index_storage_bytes > 0
        assert result.article_bytes > result.index_storage_bytes


class TestCachePolicies:
    def test_single_cache_improves_over_none(self, tiny_corpus):
        none = run(TINY, tiny_corpus)
        single = run(replace(TINY, cache="single"), tiny_corpus)
        assert single.avg_interactions < none.avg_interactions
        assert single.hit_ratio > 0
        assert single.nonindexed_queries <= none.nonindexed_queries

    def test_lru_bounded_by_capacity(self, tiny_corpus):
        result = run(replace(TINY, cache="lru10"), tiny_corpus)
        assert result.max_cached_keys <= 10

    def test_lru_hit_ratio_grows_with_capacity(self, tiny_corpus):
        small = run(replace(TINY, cache="lru10"), tiny_corpus)
        large = run(replace(TINY, cache="lru30"), tiny_corpus)
        assert large.hit_ratio >= small.hit_ratio

    def test_multi_creates_more_cache_traffic(self, tiny_corpus):
        multi = run(replace(TINY, cache="multi"), tiny_corpus)
        single = run(replace(TINY, cache="single"), tiny_corpus)
        assert multi.cache_bytes_total >= single.cache_bytes_total
        assert multi.avg_cached_keys_per_node >= single.avg_cached_keys_per_node


class TestSchemes:
    def test_flat_fewest_interactions(self, tiny_corpus):
        results = {
            scheme: run(replace(TINY, scheme=scheme), tiny_corpus)
            for scheme in ("simple", "flat", "complex")
        }
        assert results["flat"].avg_interactions < results["simple"].avg_interactions
        assert (
            results["simple"].avg_interactions
            < results["complex"].avg_interactions
        )

    def test_flat_generates_most_traffic(self, tiny_corpus):
        results = {
            scheme: run(replace(TINY, scheme=scheme), tiny_corpus)
            for scheme in ("simple", "flat", "complex")
        }
        assert (
            results["flat"].normal_bytes_per_query
            > results["simple"].normal_bytes_per_query
        )

    def test_flat_costs_most_index_storage(self, tiny_corpus):
        simple = run(TINY, tiny_corpus)
        flat = run(replace(TINY, scheme="flat"), tiny_corpus)
        assert flat.index_storage_bytes > simple.index_storage_bytes


class TestSubstrates:
    def test_interactions_substrate_independent(self, tiny_corpus):
        """The layering claim: indexing behaviour does not depend on the
        substrate, only routing cost does."""
        config = replace(TINY, num_nodes=12, bits=32)
        results = {
            substrate: run(replace(config, substrate=substrate), tiny_corpus)
            for substrate in ("ideal", "chord", "kademlia", "pastry", "can")
        }
        interactions = {
            round(result.avg_interactions, 6) for result in results.values()
        }
        assert len(interactions) == 1
        assert results["chord"].avg_dht_hops > results["ideal"].avg_dht_hops

    def test_shortcut_top_n_reduces_interactions(self, tiny_corpus):
        base = run(TINY, tiny_corpus)
        boosted = run(replace(TINY, shortcut_top_n=20), tiny_corpus)
        assert boosted.avg_interactions < base.avg_interactions
