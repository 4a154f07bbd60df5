"""Unit tests for the experiment presets, the registry, and grids."""

import pytest

from repro.sim.experiment import ExperimentConfig
from repro.sim.presets import (
    ADVERSARIAL_CONFIG,
    CACHE_POLICIES_CACHED,
    CACHE_POLICIES_FIG11,
    CACHE_POLICIES_FIG12,
    PAPER_CONFIG,
    PRESETS,
    SCHEMES,
    SMOKE_CONFIG,
    get_preset,
    preset_names,
    register_preset,
)
from tests.sim.runner import paper_grid


class TestPresets:
    def test_paper_setup(self):
        assert PAPER_CONFIG.num_nodes == 500
        assert PAPER_CONFIG.num_articles == 10_000
        assert PAPER_CONFIG.num_queries == 50_000
        assert PAPER_CONFIG.substrate == "ideal"

    def test_schemes_order_matches_paper(self):
        assert SCHEMES == ("simple", "flat", "complex")

    def test_fig11_omits_multi_cache(self):
        """The paper omits multi-cache from Figure 11."""
        assert "multi" not in CACHE_POLICIES_FIG11
        assert "multi" in CACHE_POLICIES_FIG12

    def test_cached_policies_exclude_none(self):
        assert "none" not in CACHE_POLICIES_CACHED

    def test_lru_capacities_are_the_papers(self):
        for policies in (CACHE_POLICIES_FIG11, CACHE_POLICIES_FIG12):
            assert {"lru10", "lru20", "lru30"} <= set(policies)

    def test_smoke_config_is_small(self):
        assert SMOKE_CONFIG.num_queries < PAPER_CONFIG.num_queries
        assert SMOKE_CONFIG.num_nodes < PAPER_CONFIG.num_nodes


class TestRegistry:
    def test_every_registered_preset_constructs(self):
        """The registry smoke test: each named cell validates and its
        derived plans (faults, chaos, adversary) build."""
        for name in preset_names():
            config = get_preset(name)
            assert isinstance(config, ExperimentConfig), name
            config.fault_plan()
            config.adversary_plan()

    def test_known_names_are_registered(self):
        expected = {
            "paper", "smoke", "churn", "churn-smoke", "concurrent",
            "web-scale", "web-scale-smoke", "restart-chaos",
            "restart-chaos-smoke", "range-queries", "range-queries-smoke",
            "adversarial", "adversarial-smoke",
        }
        assert expected <= set(preset_names())

    def test_aliases_point_into_the_registry(self):
        assert get_preset("paper") is PAPER_CONFIG
        assert get_preset("adversarial") is ADVERSARIAL_CONFIG

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="paper"):
            get_preset("no-such-cell")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            register_preset("paper", ExperimentConfig())

    def test_names_are_sorted(self):
        assert preset_names() == sorted(PRESETS)

    def test_smoke_cells_shrink_their_parents(self):
        for name in preset_names():
            if not name.endswith("-smoke"):
                continue
            parent = get_preset(name.removesuffix("-smoke"))
            assert get_preset(name).num_queries < parent.num_queries, name


class TestAdversarialPreset:
    def test_attack_mix(self):
        assert ADVERSARIAL_CONFIG.adversary_poisoners == 30
        assert ADVERSARIAL_CONFIG.adversary_liars == 15
        assert ADVERSARIAL_CONFIG.adversary_sybil_joins == 20
        assert ADVERSARIAL_CONFIG.adversary_eclipse_victims == 6
        assert ADVERSARIAL_CONFIG.replication == 3

    def test_verification_defaults_off(self):
        """The driver flips verify_signatures per cell; the preset is
        the undefended baseline."""
        assert ADVERSARIAL_CONFIG.verify_signatures is False

    def test_plan_seed_follows_churn_seed(self):
        plan = ADVERSARIAL_CONFIG.adversary_plan()
        assert plan.seed == ADVERSARIAL_CONFIG.churn_seed
        assert not plan.is_zero


class TestGrid:
    def test_full_grid_size(self):
        grid = paper_grid()
        assert len(grid) == len(SCHEMES) * len(CACHE_POLICIES_FIG12)

    def test_grid_cells_unique(self):
        grid = paper_grid()
        assert len(set(grid)) == len(grid)

    def test_grid_respects_base(self):
        grid = paper_grid(base=SMOKE_CONFIG)
        assert all(cell.num_queries == SMOKE_CONFIG.num_queries for cell in grid)

    def test_grid_subsets(self):
        grid = paper_grid(schemes=("flat",), caches=("none", "single"))
        assert len(grid) == 2
        assert all(cell.scheme == "flat" for cell in grid)
