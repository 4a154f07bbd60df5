"""Exhaustive correctness matrix: scheme x cache policy x query shape.

Every combination of the paper's three indexing schemes, its six cache
configurations, and every indexed query shape must locate every record.
This is the search-totality guarantee the evaluation relies on, pinned
as an explicit matrix on the Figure 1 corpus.  The matrix also
cross-checks the observability layer: the per-lookup node touches
reconstructed from a trace must equal the TrafficMeter's Figure 15
aggregates, independently accumulated.
"""

from collections import Counter

import pytest

from repro.core.cache import CachePolicy
from repro.core.engine import LookupEngine
from repro.core.fields import ARTICLE_SCHEMA
from repro.core.query import FieldQuery
from repro.core.scheme import complex_scheme, flat_scheme, simple_scheme
from repro.core.service import IndexService
from repro.dht.idspace import hash_key
from repro.dht.ring import IdealRing
from repro.net.transport import SimulatedTransport
from repro.obs.reader import TraceEvent, group_lookups
from repro.obs.tracer import Tracer
from repro.sim.experiment import Experiment, ExperimentConfig
from repro.storage.store import DHTStorage
from tests.obs.spans import visited_nodes

SCHEMES = {
    "simple": simple_scheme,
    "flat": flat_scheme,
    "complex": complex_scheme,
}
POLICIES = ["none", "multi", "single", "lru10", "lru20", "lru30"]
SHAPES = [
    ("author",),
    ("title",),
    ("conf",),
    ("year",),
    ("author", "title"),
    ("conf", "year"),
    ("author", "year"),   # non-indexed: exercises generalization
    ("author", "conf"),   # indexed only by complex
]


@pytest.mark.parametrize("scheme_name", SCHEMES)
@pytest.mark.parametrize("policy_name", POLICIES)
def test_matrix_cell(scheme_name, policy_name, paper_records):
    ring = IdealRing(64)
    for index in range(16):
        ring.add_node(hash_key(f"peer-{index}", 64))
    policy, capacity = CachePolicy.parse(policy_name)
    service = IndexService(
        ARTICLE_SCHEMA,
        SCHEMES[scheme_name](),
        DHTStorage(ring),
        DHTStorage(ring),
        SimulatedTransport(),
        cache_policy=policy,
        cache_capacity=capacity,
    )
    for record in paper_records:
        service.insert_record(record)
    engine = LookupEngine(service, user="user:matrix")

    for repetition in range(2):  # second pass exercises warmed caches
        for record in paper_records:
            for shape in SHAPES:
                query = FieldQuery.of_record(record, shape)
                trace = engine.search(query, record)
                service.transport.meter.end_query()
                assert trace.found, (scheme_name, policy_name, shape, repetition)
                assert trace.result_msd == FieldQuery.msd_of(record).key()
                # Bounded work: deepest chain (4) + one generalization
                # detour (1) + never more.
                assert trace.interactions <= 5


@pytest.mark.parametrize("scheme_name", SCHEMES)
@pytest.mark.parametrize("policy_name", ["none", "single", "multi"])
def test_trace_reconstructs_traffic_meter_counts(
    scheme_name, policy_name, paper_records
):
    """Per-lookup node touches from the trace == TrafficMeter aggregates.

    The meter accumulates Figure 15's queries-touched counts message by
    message; the trace records the resolution chain lookup by lookup.
    Reconstructing the meter's view from the trace (and vice versa: the
    trace's interaction count from the meter-backed SearchTrace) must
    agree exactly -- two independent accounting paths, one truth.
    """
    ring = IdealRing(64)
    for index in range(16):
        ring.add_node(hash_key(f"peer-{index}", 64))
    policy, capacity = CachePolicy.parse(policy_name)
    transport = SimulatedTransport()
    service = IndexService(
        ARTICLE_SCHEMA,
        SCHEMES[scheme_name](),
        DHTStorage(ring),
        DHTStorage(ring),
        transport,
        cache_policy=policy,
        cache_capacity=capacity,
    )
    for record in paper_records:
        service.insert_record(record)
    tracer = Tracer()
    transport.bind_tracer(tracer)
    engine = LookupEngine(service, user="user:xcheck", tracer=tracer)

    searches = 0
    for repetition in range(2):
        for record in paper_records:
            for shape in SHAPES:
                query = FieldQuery.of_record(record, shape)
                trace = engine.search(query, record)
                transport.meter.end_query()
                assert trace.found
                searches += 1

    spans = group_lookups(
        TraceEvent.from_line(line) for line in tracer.jsonl_lines()
    )
    assert len(spans) == searches

    reconstructed: Counter[str] = Counter()
    for span in spans:
        for node in visited_nodes(span):
            reconstructed[service.endpoint_name(node)] += 1
    assert dict(reconstructed) == transport.meter.query_counts_by_node()


def test_trace_reconstructs_traffic_in_kernel_mode():
    """The cross-check holds with overlapping lookups on the kernel.

    Concurrent mode keeps one touched-node set per lookup (the engine
    points the meter at it before each resume); reconstructing those
    sets from the exported trace events must land on the same aggregate
    counts.
    """
    config = ExperimentConfig(
        cache="single",
        num_nodes=16,
        num_articles=80,
        num_queries=150,
        num_authors=32,
        concurrency=4,
        latency_model="uniform:5:50",
        trace=True,
    )
    experiment = Experiment(config)
    result = experiment.run()
    spans = group_lookups(
        TraceEvent.from_line(line)
        for line in experiment.tracer.jsonl_lines()
    )
    assert len(spans) == result.searches

    reconstructed: Counter[str] = Counter()
    for span in spans:
        for node in visited_nodes(span):
            reconstructed[experiment.service.endpoint_name(node)] += 1
    assert (
        dict(reconstructed)
        == experiment.transport.meter.query_counts_by_node()
    )


def test_matrix_interactions_never_increase_with_cache(paper_records):
    """For every (scheme, shape), warm-cache searches cost <= cold ones."""
    for scheme_name, scheme_builder in SCHEMES.items():
        ring = IdealRing(64)
        for index in range(16):
            ring.add_node(hash_key(f"peer-{index}", 64))
        service = IndexService(
            ARTICLE_SCHEMA,
            scheme_builder(),
            DHTStorage(ring),
            DHTStorage(ring),
            SimulatedTransport(),
            cache_policy=CachePolicy.SINGLE,
        )
        for record in paper_records:
            service.insert_record(record)
        engine = LookupEngine(service, user="user:m2")
        for record in paper_records:
            for shape in SHAPES:
                query = FieldQuery.of_record(record, shape)
                cold = engine.search(query, record)
                warm = engine.search(query, record)
                service.transport.meter.end_query()
                assert warm.interactions <= cold.interactions, (
                    scheme_name, shape,
                )
