"""Scenario-configuration tests."""

import pytest

from repro.experiments.scenarios import (
    BACKGROUND_SHARES,
    CONGESTION_FACTORS,
    INPUT_RATE_FACTORS,
    QUEUE_FACTORS,
    RTT2_SWEEP,
    ScenarioConfig,
    severity_grid,
)
from repro.netsim.qdisc import QdiscFidelityError


class TestScenarioConfig:
    def test_defaults_match_table2_bold(self):
        config = ScenarioConfig()
        assert config.input_rate_factor == INPUT_RATE_FACTORS[0] == 1.5
        assert config.queue_factor == QUEUE_FACTORS[0] == 0.5
        assert config.background_share == BACKGROUND_SHARES[0] == 0.5
        assert config.congestion_factor == CONGESTION_FACTORS[0] == 0.2
        assert config.rtt_1 == config.rtt_2 == 0.035

    def test_limiter_rate_scales_inversely_with_factor(self):
        soft = ScenarioConfig(input_rate_factor=1.3)
        hard = ScenarioConfig(input_rate_factor=2.5)
        assert hard.limiter_rate_bps < soft.limiter_rate_bps

    def test_noncommon_limiter_sees_half_load(self):
        common = ScenarioConfig(limiter="common")
        split = ScenarioConfig(limiter="noncommon")
        assert split.limiter_rate_bps < common.limiter_rate_bps

    def test_congestion_shrinks_noncommon_bandwidth(self):
        idle = ScenarioConfig(congestion_factor=0.2)
        jammed = ScenarioConfig(congestion_factor=1.15)
        assert jammed.noncommon_bandwidth_bps < idle.noncommon_bandwidth_bps

    def test_protocol_derived_from_app(self):
        assert ScenarioConfig(app="netflix").protocol == "tcp"
        assert ScenarioConfig(app="zoom").protocol == "udp"

    def test_with_functional_update(self):
        base = ScenarioConfig()
        changed = base.with_(rtt_2=0.120)
        assert changed.rtt_2 == 0.120
        assert base.rtt_2 == 0.035

    def test_rejects_unknown_app(self):
        with pytest.raises(ValueError):
            ScenarioConfig(app="friendster")

    def test_rejects_weak_factor_with_limiter(self):
        with pytest.raises(ValueError):
            ScenarioConfig(input_rate_factor=0.9)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(limiter="perflow", shaper="dual_tbf"), "fluid per-flow"),
            (dict(limiter="common", shaper="red"), "no hybrid implementation"),
            (dict(limiter="noncommon", shaper="codel"), "no hybrid implementation"),
        ],
    )
    def test_rejects_shaper_without_hybrid_twin(self, kwargs, message):
        with pytest.raises(QdiscFidelityError, match=message):
            ScenarioConfig(fidelity="hybrid", **kwargs)

    def test_same_shapers_are_accepted_where_a_twin_exists(self):
        # The same shapers are fine at packet fidelity.
        ScenarioConfig(limiter="perflow", shaper="dual_tbf")
        ScenarioConfig(limiter="common", shaper="red")
        ScenarioConfig(limiter="perflow", shaper="tbf", fidelity="hybrid")

    def test_rejects_shaper_without_placement(self):
        with pytest.raises(ValueError, match="limiter placement"):
            ScenarioConfig(limiter=None, shaper="tbf")

    def test_rtt_sweep_matches_paper(self):
        assert RTT2_SWEEP == (0.010, 0.015, 0.025, 0.035, 0.060, 0.120)


class TestSeverityGrid:
    def test_grid_size(self):
        cells = list(severity_grid("zoom", seeds=range(2)))
        assert len(cells) == len(INPUT_RATE_FACTORS) * len(QUEUE_FACTORS) * 2

    def test_grid_covers_all_combinations(self):
        cells = list(severity_grid("netflix", seeds=[0]))
        combos = {(c.input_rate_factor, c.queue_factor) for c in cells}
        assert len(combos) == len(INPUT_RATE_FACTORS) * len(QUEUE_FACTORS)
