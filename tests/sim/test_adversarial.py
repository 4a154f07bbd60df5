"""Adversarial experiment cells: attack impact, defense, determinism.

Covers the "lookups under attack" axis end to end: the adversary
population recruits deterministically inside the simulator, an
undefended run delivers poisoned results and loses lookups, switching
verification on catches every forgery (poisoned results drop to zero,
success recovers through trusted-replica failover), and both cells are
bit-reproducible under the fixed chaos seed.
"""

from dataclasses import replace

import pytest

from repro.sim.experiment import Experiment, ExperimentConfig
from repro.sim.presets import ADVERSARIAL_SMOKE_CONFIG

#: A cell small enough for unit tests but adversarial enough that the
#: attack measurably hurts and the defense measurably recovers.
TINY_ATTACK = ExperimentConfig(
    cache="single",
    replication=3,
    num_nodes=40,
    num_articles=300,
    num_queries=800,
    num_authors=120,
    fault_drop_probability=0.01,
    churn_seed=11,
    adversary_poisoners=5,
    adversary_liars=2,
    adversary_sybil_joins=3,
    adversary_eclipse_victims=1,
)


def run(config):
    result = Experiment(config).run()
    # Normalize the two fields that vary run to run within one process:
    # wall clock, and perf counters whose process-global parse caches
    # warm up across runs.  Everything else must compare bit-for-bit.
    return replace(result, runtime_seconds=0.0, perf_counters={})


@pytest.fixture(scope="module")
def undefended():
    return run(TINY_ATTACK)


@pytest.fixture(scope="module")
def defended():
    return run(replace(TINY_ATTACK, verify_signatures=True))


class TestConfig:
    def test_adversary_fields_validated(self):
        with pytest.raises(ValueError):
            ExperimentConfig(adversary_poisoners=-1)
        with pytest.raises(ValueError):
            ExperimentConfig(adversary_eclipse_victims=-1)

    def test_benign_config_has_no_adversary(self):
        config = ExperimentConfig()
        assert not config.has_adversary
        assert config.adversary_plan().is_zero

    def test_verify_alone_still_builds(self):
        """verify_signatures without attackers is a valid (boring) cell."""
        config = replace(
            TINY_ATTACK,
            adversary_poisoners=0, adversary_liars=0,
            adversary_sybil_joins=0, adversary_eclipse_victims=0,
            verify_signatures=True,
        )
        result = run(config)
        assert result.poisoned_results == 0
        assert result.verify_failures == 0


class TestUndefendedRun(object):
    def test_attack_degrades_success(self, undefended):
        assert undefended.success_rate < 0.95

    def test_poisoned_results_delivered(self, undefended):
        assert undefended.poisoned_results > 0
        assert undefended.poisoned_result_rate > 0.0
        assert undefended.forged_answers > 0

    def test_population_accounting(self, undefended):
        plan = TINY_ATTACK
        assert undefended.sybil_joins == plan.adversary_sybil_joins
        assert undefended.adversarial_nodes == (
            plan.adversary_poisoners
            + plan.adversary_liars
            + plan.adversary_sybil_joins
        )
        assert undefended.eclipsed_nodes == plan.adversary_eclipse_victims

    def test_no_verification_machinery_ran(self, undefended):
        assert undefended.verify_failures == 0
        assert undefended.low_trust_peers == 0

    def test_result_validates(self, undefended):
        undefended.validate()


class TestDefendedRun:
    def test_success_recovers(self, undefended, defended):
        assert defended.success_rate > undefended.success_rate
        assert defended.success_rate >= 0.95

    def test_no_poisoned_results_survive(self, defended):
        assert defended.poisoned_results == 0
        assert defended.poisoned_result_rate == 0.0

    def test_forgeries_are_caught_and_failed_over(self, defended):
        assert defended.verify_failures > 0
        assert defended.service_failovers > 0

    def test_forgers_lose_trust(self, defended):
        assert defended.low_trust_peers > 0

    def test_result_validates(self, defended):
        defended.validate()


class TestDeterminism:
    def test_undefended_cell_reproduces(self, undefended):
        again = run(TINY_ATTACK)
        assert again == undefended

    def test_defended_cell_reproduces(self, defended):
        again = run(replace(TINY_ATTACK, verify_signatures=True))
        assert again == defended

    def test_seed_changes_the_population(self):
        a = run(replace(TINY_ATTACK, num_queries=200, churn_seed=11))
        b = run(replace(TINY_ATTACK, num_queries=200, churn_seed=12))
        assert a != b


class TestBenignTransparency:
    def test_zero_adversary_matches_plain_chaos_run(self):
        """Dropping the adversary fields reproduces the pre-adversary
        pipeline bit for bit (same transport class, same draws)."""
        benign = replace(
            TINY_ATTACK,
            adversary_poisoners=0, adversary_liars=0,
            adversary_sybil_joins=0, adversary_eclipse_victims=0,
        )
        result = run(benign)
        assert result.adversarial_nodes == 0
        assert result.poisoned_results == 0
        assert result.eclipse_drops == 0
        assert result.success_rate > 0.95
        assert result == run(benign)


class TestSmokePreset:
    def test_smoke_preset_shows_the_gap(self):
        """The CI cell: measurable attack, measurable recovery."""
        off = run(ADVERSARIAL_SMOKE_CONFIG)
        on = run(replace(ADVERSARIAL_SMOKE_CONFIG, verify_signatures=True))
        assert off.poisoned_results > 0
        assert on.poisoned_results == 0
        assert on.success_rate > off.success_rate
