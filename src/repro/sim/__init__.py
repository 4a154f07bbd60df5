"""Simulation harness: the paper's experimental setup (Section V-E).

"Our experiments simulate a P2P network of 500 nodes, on top of which a
distributed bibliographic database storing 10,000 articles is
implemented.  ...  Each simulation consists of sequentially feeding the
indexing network with 50,000 queries from our query generator."

- :mod:`repro.sim.experiment` -- configuration and the experiment driver
  (build substrate -> storage -> index service -> feed queries);
- :mod:`repro.sim.kernel` -- the discrete-event kernel (virtual clock)
  that concurrent-mode runs schedule message deliveries and retry
  backoff timers on;
- :mod:`repro.sim.metrics` -- the result record with every measurement
  the paper's figures report;
- :mod:`repro.sim.presets` -- the paper's named configurations and
  smaller smoke-test presets.

The figure benchmarks' memoizing grid runner lives in ``tests/sim/``.
"""

from repro.sim.experiment import Experiment, ExperimentConfig
from repro.sim.kernel import EventKernel, KernelError
from repro.sim.metrics import ExperimentResult
from repro.sim.presets import (
    CACHE_POLICIES_FIG11,
    CACHE_POLICIES_FIG12,
    CHURN_CONFIG,
    CHURN_SMOKE_CONFIG,
    CONCURRENT_CONFIG,
    PAPER_CONFIG,
    RESTART_CHAOS_CONFIG,
    RESTART_CHAOS_SMOKE_CONFIG,
    SCHEMES,
    SMOKE_CONFIG,
)

__all__ = [
    "Experiment",
    "ExperimentConfig",
    "ExperimentResult",
    "EventKernel",
    "KernelError",
    "CACHE_POLICIES_FIG11",
    "CACHE_POLICIES_FIG12",
    "CHURN_CONFIG",
    "CHURN_SMOKE_CONFIG",
    "CONCURRENT_CONFIG",
    "PAPER_CONFIG",
    "RESTART_CHAOS_CONFIG",
    "RESTART_CHAOS_SMOKE_CONFIG",
    "SCHEMES",
    "SMOKE_CONFIG",
]
