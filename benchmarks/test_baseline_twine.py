"""Baseline comparison: key-to-key indexing vs INS/Twine replication.

Section II of the paper argues the contrast qualitatively: "Unlike
Twine, we do not replicate data at multiple locations; we rather provide
a key-to-key service ... For improved scalability, index entries are
further organized hierarchically."  This bench quantifies it on an
identical corpus, substrate, and workload:

- Twine stores the complete description once per strand (10 copies per
  record with singles+pairs), so its storage dwarfs every index scheme;
- in exchange, Twine answers any strand-shaped query in exactly two
  interactions -- including author+year, which no paper scheme indexes;
- Twine's responses carry full descriptions (like *flat*), so its
  traffic sits at the flat end of the spectrum.
"""


from conftest import REDUCED, cell, emit
from repro.analysis.tables import format_table
from repro.core.fields import ARTICLE_SCHEMA
from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.net.transport import SimulatedTransport
from repro.storage.store import DHTStorage
from repro.workload.popularity import PowerLawPopularity
from repro.workload.querygen import QueryGenerator
from tests.baselines.twine import TwineResolver
from tests.sim.runner import _shared_corpus


def run_twine():
    corpus = _shared_corpus(REDUCED)
    ring = IdealRing(REDUCED.bits)
    for index in range(REDUCED.num_nodes):
        ring.add_node(hash_key(f"node-{index}", REDUCED.bits))
    transport = SimulatedTransport()
    resolver = TwineResolver(
        ARTICLE_SCHEMA, DHTStorage(ring), DHTStorage(ring), transport
    )
    for record in corpus.records:
        resolver.insert_record(record)
    generator = QueryGenerator(
        corpus,
        PowerLawPopularity.for_population(len(corpus)),
        seed=REDUCED.query_seed,
    )
    outcome = resolver.run_workload(generator.generate(REDUCED.num_queries))
    return resolver, outcome


def test_baseline_twine_vs_index_schemes(benchmark):
    resolver, twine = benchmark.pedantic(run_twine, rounds=1, iterations=1)
    schemes = {
        scheme: cell(scheme, "none", base=REDUCED)
        for scheme in ("simple", "flat", "complex")
    }
    rows = []
    for name, result in schemes.items():
        rows.append(
            [
                name,
                f"{result.index_storage_bytes / 1e6:.1f} MB",
                round(result.avg_interactions, 2),
                int(result.normal_bytes_per_query),
                result.nonindexed_queries,
            ]
        )
    rows.append(
        [
            "twine (strands<=2)",
            f"{resolver.storage_bytes() / 1e6:.1f} MB",
            round(twine.avg_interactions, 2),
            int(twine.normal_bytes_per_query),
            0,
        ]
    )
    emit(
        "baseline_twine",
        format_table(
            ["system", "metadata storage", "interactions", "normal B/q",
             "non-indexed errors"],
            rows,
            title=(
                "INS/Twine replication vs key-to-key indexes "
                f"({REDUCED.num_articles:,} articles, "
                f"{REDUCED.num_queries:,} queries)"
            ),
        ),
    )

    assert twine.found == twine.searches
    # Twine is flat-shaped: two interactions, always.
    assert twine.avg_interactions == 2.0
    # The paper's storage claim: replicating descriptions on every strand
    # resolver costs more than any key-to-key scheme -- multiples of the
    # hierarchical schemes, and clearly above even flat (which already
    # stores full MSDs per query key, but only once per key-value pair).
    for result in schemes.values():
        assert resolver.storage_bytes() > 1.3 * result.index_storage_bytes
    assert resolver.storage_bytes() > 2 * schemes["simple"].index_storage_bytes
    # Twine's responses carry full descriptions: traffic at the flat end.
    assert twine.normal_bytes_per_query > (
        schemes["simple"].normal_bytes_per_query * 0.5
    )
    # What replication buys: the author+year queries that cost every
    # indexing scheme ~2,500 recoverable errors are ordinary strands.
    assert schemes["simple"].nonindexed_queries > 0
