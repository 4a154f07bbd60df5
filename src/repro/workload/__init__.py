"""Workload generation: corpus, popularity, and query models (Section V).

The paper's workload has three ingredients, each with a module here:

- a bibliographic **corpus** (DBLP's 115,879 article entries, reduced to
  the 10,000 most popular articles for simulation) --
  :mod:`repro.workload.corpus` generates a synthetic corpus with
  realistic field cardinalities and sharing;
- an article **popularity** model fitted to BibFinder/NetBib/CiteSeer
  logs: a power law with CCDF ``1 - 0.063 * i**0.3`` over ranks --
  :mod:`repro.workload.popularity`;
- a **query structure** model taken from BibFinder's query log
  (Figure 7): author 60%, title 20%, year 10%, author+title 5%,
  author+year 5% -- :mod:`repro.workload.querygen`.

The query-log and query-trace models that re-derive these parameters
for Figures 7 and 9 are evaluation code and live in ``tests/workload/``.
"""

from repro.workload.corpus import CorpusConfig, SyntheticCorpus
from repro.workload.popularity import (
    PAPER_CCDF_COEFFICIENT,
    PAPER_CCDF_EXPONENT,
    PowerLawPopularity,
    ZipfPopularity,
)
from repro.workload.querygen import (
    BIBFINDER_STRUCTURE,
    QueryGenerator,
    QueryStructureModel,
    WorkloadQuery,
)

__all__ = [
    "CorpusConfig",
    "SyntheticCorpus",
    "PAPER_CCDF_COEFFICIENT",
    "PAPER_CCDF_EXPONENT",
    "PowerLawPopularity",
    "ZipfPopularity",
    "BIBFINDER_STRUCTURE",
    "QueryGenerator",
    "QueryStructureModel",
    "WorkloadQuery",
]
