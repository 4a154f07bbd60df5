"""Unit tests for the memoizing runner."""

from dataclasses import replace

import pytest

from repro.sim.experiment import ExperimentConfig
from tests.sim.runner import cached_cells, clear_cache, run_cached

TINY = ExperimentConfig(
    num_nodes=10, num_articles=60, num_queries=200, num_authors=30
)


@pytest.fixture(autouse=True)
def isolated_cache():
    clear_cache()
    yield
    clear_cache()


class TestMemoization:
    def test_same_config_returns_same_object(self):
        first = run_cached(TINY)
        second = run_cached(TINY)
        assert first is second

    def test_different_cells_computed_separately(self):
        simple = run_cached(TINY)
        flat = run_cached(replace(TINY, scheme="flat"))
        assert simple is not flat
        assert len(cached_cells()) == 2

    def test_corpus_shared_across_cells(self):
        run_cached(TINY)
        run_cached(replace(TINY, cache="single"))
        from tests.sim import runner

        assert len(runner._corpora) == 1

    def test_clear_cache(self):
        run_cached(TINY)
        clear_cache()
        assert cached_cells() == []
