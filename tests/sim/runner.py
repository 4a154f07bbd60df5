"""Memoizing experiment runner shared by the benchmark harness, and the
evaluation grid it runs.

Several figures read different columns of the same (scheme, cache) grid
cell; :func:`run_cached` computes each cell once per process and shares
the corpus object across cells with identical corpus parameters, so the
whole harness costs one pass over the grid.
"""

from __future__ import annotations

from dataclasses import replace

from repro.sim.experiment import Experiment, ExperimentConfig
from repro.sim.metrics import ExperimentResult
from repro.sim.presets import CACHE_POLICIES_FIG12, PAPER_CONFIG, SCHEMES
from repro.workload.corpus import CorpusConfig, SyntheticCorpus

_results: dict[ExperimentConfig, ExperimentResult] = {}
_corpora: dict[tuple[int, int, int], SyntheticCorpus] = {}


def _shared_corpus(config: ExperimentConfig) -> SyntheticCorpus:
    key = (config.num_articles, config.num_authors, config.corpus_seed)
    corpus = _corpora.get(key)
    if corpus is None:
        corpus = SyntheticCorpus(
            CorpusConfig(
                num_articles=config.num_articles,
                num_authors=config.num_authors,
                seed=config.corpus_seed,
            )
        )
        _corpora[key] = corpus
    return corpus


def run_cached(config: ExperimentConfig) -> ExperimentResult:
    """Run (or recall) the experiment for a grid cell."""
    result = _results.get(config)
    if result is None:
        experiment = Experiment(config, corpus=_shared_corpus(config))
        result = experiment.run()
        _results[config] = result
    return result


def cached_cells() -> list[ExperimentConfig]:
    """Configurations computed so far (for reporting)."""
    return list(_results)


def clear_cache() -> None:
    """Drop memoized results and corpora (tests use this for isolation)."""
    _results.clear()
    _corpora.clear()


def paper_grid(
    schemes: tuple[str, ...] = SCHEMES,
    caches: tuple[str, ...] = CACHE_POLICIES_FIG12,
    base: ExperimentConfig = PAPER_CONFIG,
) -> list[ExperimentConfig]:
    """Every (scheme, cache) cell of the evaluation grid."""
    return [
        replace(base, scheme=scheme, cache=cache)
        for scheme in schemes
        for cache in caches
    ]
