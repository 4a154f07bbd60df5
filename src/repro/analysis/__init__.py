"""Analysis utilities: percentiles, quantile collectors, table rendering.

The response-time percentiles of the experiment driver, the loadgen's
mergeable latency sketches, and the aligned text tables the command-line
tools print.  The figure benchmarks' power-law fits, CCDF and rank
curves and bar charts live with them in ``tests/analysis/``.
"""

from repro.analysis.stats import ExactQuantiles, LogBucketQuantiles, percentile
from repro.analysis.tables import format_table

__all__ = [
    "ExactQuantiles",
    "LogBucketQuantiles",
    "percentile",
    "format_table",
]
