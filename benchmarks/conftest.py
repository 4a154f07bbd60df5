"""Shared infrastructure for the figure/table reproduction benches.

Every bench reproduces one artifact of the paper's evaluation at the
paper's scale (500 nodes, 10,000 articles, 50,000 queries).  Grid cells
are memoized process-wide (see ``tests/sim/runner.py``), so the whole
harness pays for each (scheme, cache policy) combination exactly once.

Each bench renders the same rows/series the paper plots and stores the
text under ``benchmarks/results/`` for inclusion in EXPERIMENTS.md, then
asserts the paper's qualitative shape (who wins, roughly by how much,
where the crossovers are).
"""

from __future__ import annotations

import pathlib
from dataclasses import replace

import pytest

from repro.sim.experiment import ExperimentConfig
from tests.sim.runner import run_cached

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: The paper's simulation setup (Section V-E).
PAPER = ExperimentConfig()

#: Reduced setup for the ablations that sweep extra dimensions.
REDUCED = ExperimentConfig(
    num_nodes=200, num_articles=4_000, num_queries=20_000, num_authors=1_600
)


def cell(scheme: str, cache: str, base: ExperimentConfig = PAPER, **overrides):
    """Run (or recall) one grid cell at the paper's scale."""
    return run_cached(replace(base, scheme=scheme, cache=cache, **overrides))


def emit(name: str, text: str) -> str:
    """Print a rendered figure and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}\n")
    return text


@pytest.fixture
def paper_config():
    return PAPER


@pytest.fixture
def reduced_config():
    return REDUCED
