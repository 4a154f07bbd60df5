"""Figure 9: popularity distributions follow power laws.

The paper plots request probability against popularity rank for BibFinder
authors, NetBib authors, BibFinder articles, and CiteSeer citations, and
observes that "all probabilities follow roughly a power-law".

Methodology is reproduced end to end for the BibFinder series: a
BibFinder-sized query log (9,108 entries) is *generated*, then *parsed
and summarized* (``tests/workload/logs.py``), and the per-author and
per-title request probabilities extracted from it are fitted with the
paper's own method -- least squares on log-log axes.  The NetBib and
CiteSeer series come from their corresponding synthetic models.
"""

import random

from conftest import emit
from repro.analysis.tables import format_table
from repro.workload.corpus import CorpusConfig, SyntheticCorpus
from repro.workload.popularity import PowerLawPopularity, ZipfPopularity
from tests.analysis.powerlaw import fit_power_law
from tests.workload.logs import generate_query_log, parse_query_log, summarize_log


def build_series():
    """Four (name, rank-ordered request probabilities) series."""
    series = {}

    # BibFinder: a 9,108-query log generated, parsed, and summarized --
    # the full pipeline the paper applied to the real log.
    corpus = SyntheticCorpus(
        CorpusConfig(num_articles=5_000, num_authors=2_000, seed=41)
    )
    log = generate_query_log(corpus, volume=9_108, seed=99)
    summary = summarize_log(parse_query_log(log))
    series["BibFinder authors (from log)"] = summary.popularity_series("author")
    series["BibFinder articles (from log)"] = summary.popularity_series("title")

    # NetBib authors: 5,924 queries drawn from a Zipf author model.
    netbib = ZipfPopularity(1_500, s=0.8)
    rng = random.Random(101)
    counts: dict[int, int] = {}
    for _ in range(5_924):
        rank = netbib.sample(rng)
        counts[rank] = counts.get(rank, 0) + 1
    ordered = sorted(counts.values(), reverse=True)
    series["NetBib authors"] = [count / 5_924 for count in ordered]

    # CiteSeer: citation counts of the top-10,000 articles.
    citeseer = PowerLawPopularity.for_population(10_000)
    rng = random.Random(102)
    counts = {}
    for _ in range(50_000):
        rank = citeseer.sample(rng)
        counts[rank] = counts.get(rank, 0) + 1
    ordered = sorted(counts.values(), reverse=True)
    series["CiteSeer articles"] = [count / 50_000 for count in ordered]
    return series


def test_fig09_popularity_distributions_are_power_laws(benchmark):
    series = benchmark.pedantic(build_series, rounds=1, iterations=1)
    rows = []
    fits = {}
    for name, probabilities in series.items():
        ranks = list(range(1, len(probabilities) + 1))
        fit = fit_power_law(ranks, probabilities)
        fits[name] = fit
        rows.append(
            [name, len(probabilities), round(fit.k, 4), round(fit.alpha, 3),
             round(fit.r_squared, 3)]
        )
    emit(
        "fig09_popularity",
        format_table(
            ["series", "distinct items", "k", "alpha", "R^2"],
            rows,
            title=(
                "Figure 9 -- popularity distributions (log-log least-squares "
                "fits of p_i = k / i^alpha; paper: all roughly power laws)"
            ),
        ),
    )
    for name, fit in fits.items():
        assert fit.is_power_law, f"{name} did not fit a power law: {fit}"
        assert 0.3 <= fit.alpha <= 2.5, f"implausible exponent for {name}: {fit}"
    # A few items dominate every log: head far above the median.
    for name, probabilities in series.items():
        median = probabilities[len(probabilities) // 2]
        assert probabilities[0] >= 20 * median, name
