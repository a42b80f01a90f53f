"""Supply controllers: fixed cap, constant growth, volume response."""

from fractions import Fraction
from typing import NamedTuple

import pytest

from progmoney.registry import SupplyStats
from progmoney.report import report_for
from progmoney.sim import Simulation
from progmoney.sim_types import Role
from progmoney.supply import (
    ConstantGrowth,
    FixedCapGeometric,
    SupplyDirective,
    VolumeResponsive,
    issuance,
)


def stats(live=0, volume=0):
    return SupplyStats(live_supply=live, tx_volume=volume)


class Point(NamedTuple):
    period: int
    supply: int
    mint: int
    burn: int
    volume: int


def trajectory(sim):
    """The run's trajectory, one point per period, as its report reads it."""
    return [Point(*map(int, row.split("|"))) for row in report_for(sim).trajectory]


def supply_sim(
    rule, periods, initial_supply=0, periods_per_year=1, period_ticks=1, allowance=None
):
    """A central bank alone under `rule`, run for `periods` supply periods.

    The initial supply is minted into the bank's treasury at tick 0, and
    `trajectory(sim)` gives one point per period.
    """
    sim = Simulation(
        seed=8,
        scenario_name="supply",
        year_ticks=periods_per_year * period_ticks,
        period_ticks=period_ticks,
    )
    sim.add_host("central", Role.CENTRAL_BANK, "HOME")
    if allowance is not None:
        sim.registry.authorize_issuer("central", allowance)
    sim.supply_rule = rule
    sim.supply_issuer = "central"
    if initial_supply > 0:
        sim.schedule_script(0, ("MINT", "central", str(initial_supply)))
    sim.run_until(periods * period_ticks)
    return sim


class TestIssuance:
    def test_fixed_cap_brute_force_bound(self):
        # oracle: direct summation of floor(r0 / 2^(t//H)) over 200 periods
        rule = FixedCapGeometric(50, 10)
        total = 0
        previous = None
        for t in range(200):
            directive = issuance(rule, t, stats())
            assert directive.burn == 0
            if previous is not None:
                assert directive.mint <= previous  # monotone non-increasing
            previous = directive.mint
            oracle = 50 // (2 ** (t // 10))
            assert directive.mint == oracle
            total += directive.mint
        assert total == 970
        assert total <= 2 * 50 * 10

    def test_constant_growth_definition(self):
        directive = issuance(ConstantGrowth(Fraction(2, 100)), 0, stats(live=1_000_000))
        assert directive.mint == 20_000
        assert directive.burn == 0

    def test_constant_growth_sub_year_periods(self):
        directive = issuance(
            ConstantGrowth(Fraction(2, 100)), 0, stats(live=1_000_000), periods_per_year=4
        )
        assert directive.mint == 5_000

    def test_volume_responsive_at_target_equals_base(self):
        rule = VolumeResponsive(Fraction(2, 100), Fraction(1, 2), 1000)
        directive = issuance(rule, 0, stats(live=1_000_000, volume=1000))
        base = issuance(ConstantGrowth(Fraction(2, 100)), 0, stats(live=1_000_000))
        assert directive.mint == base.mint

    def test_volume_responsive_reacts(self):
        rule = VolumeResponsive(Fraction(2, 100), Fraction(1, 2), 1000)
        hot = issuance(rule, 0, stats(live=1_000_000, volume=2000))
        cold = issuance(rule, 0, stats(live=1_000_000, volume=0))
        assert hot.mint > 20_000
        assert cold.burn > 0 or cold.mint < 20_000

    def test_deflation_clamped_to_treasury(self):
        # 1% of a 1,000,000 supply is due, but the treasury holds only 200
        sim = Simulation(seed=8, scenario_name="deflate", year_ticks=1, period_ticks=1)
        sim.add_host("central", Role.CENTRAL_BANK, "HOME")
        sim.add_host("alice", Role.CONSUMER, "HOME")
        sim.supply_rule = ConstantGrowth(Fraction(-1, 100))
        sim.supply_issuer = "central"
        sim.schedule_script(0, ("MINT", "central", "200"))
        sim.schedule_script(0, ("ISSUE", "central", "alice", "999800"))
        sim.run_until(1)
        point = trajectory(sim)[0]
        assert point.burn == 200
        assert point.mint == 0

    def test_directive_never_both(self):
        with pytest.raises(ValueError):
            SupplyDirective(mint=5, burn=5)

    def test_rule_invariants(self):
        with pytest.raises(ValueError):
            FixedCapGeometric(0, 10)
        with pytest.raises(ValueError):
            ConstantGrowth(Fraction(-2, 1))
        with pytest.raises(ValueError):
            VolumeResponsive(Fraction(1, 100), Fraction(1, 2), 0)


class TestRunSupply:
    def test_zero_rate_flat(self):
        sim = supply_sim(ConstantGrowth(Fraction(0)), 5, initial_supply=1_000)
        assert [p.supply for p in trajectory(sim)] == [1_000] * 5
        assert sim.registry.audit() == []

    def test_two_percent_ten_years_close_to_compound(self):
        # closed form computed exactly with Fraction arithmetic
        sim = supply_sim(ConstantGrowth(Fraction(2, 100)), 10, initial_supply=1_000_000)
        exact = Fraction(1_000_000) * Fraction(51, 50) ** 10
        drift = exact - trajectory(sim)[-1].supply
        assert 0 <= drift <= 10  # cumulative flooring, one unit per period max
        assert trajectory(sim)[-1].supply == 1_218_991

    def test_growth_within_t_units_every_period(self):
        sim = supply_sim(ConstantGrowth(Fraction(2, 100)), 10, initial_supply=1_000_000)
        for t, point in enumerate(trajectory(sim), start=1):
            exact = Fraction(1_000_000) * Fraction(51, 50) ** t
            assert 0 <= exact - point.supply <= t

    def test_deflation_halves_supply(self):
        sim = supply_sim(ConstantGrowth(Fraction(-1, 2)), 3, initial_supply=100)
        assert [p.supply for p in trajectory(sim)] == [50, 25, 12]
        assert [p.burn for p in trajectory(sim)] == [50, 25, 13]
        assert sim.registry.fold.burned == 88
        assert sim.registry.audit() == []

    def test_full_deflation_burns_everything_then_stops(self):
        sim = supply_sim(ConstantGrowth(Fraction(-1)), 3, initial_supply=100)
        assert [p.supply for p in trajectory(sim)] == [0, 0, 0]
        assert sim.registry.fold.burned == 100
        assert sim.registry.live_supply == 0
        assert sim.registry.audit() == []

    def test_directives_appear_in_ledger_one_to_one(self):
        sim = supply_sim(FixedCapGeometric(50, 2), 6, initial_supply=0)
        mints = [r for r in sim.registry.records if r.kind.value == "MINT"]
        assert [r.amounts[0] for r in mints] == [p.mint for p in trajectory(sim) if p.mint]

    def test_allowance_exceeded(self):
        # the registry refuses the mint; the run observes that and goes on
        sim = supply_sim(ConstantGrowth(Fraction(0)), 1, initial_supply=100, allowance=10)
        assert "0|central|mint_refused|value=100 error=UnauthorizedIssuer" in sim.observations
        assert not any("|mint|" in line for line in sim.observations)
        assert sim.registry.records == []
        assert [p.supply for p in trajectory(sim)] == [0]

    @pytest.mark.parametrize("periods", [200, 2000])
    def test_minting_period_walks_no_wallet(self, monkeypatch, periods):
        # only a burn reads the treasury, so a period that mints reads no
        # wallet out of the simulation's index
        walks = []
        walk = Simulation.holdings

        def counted(sim, owner):
            walks.append(owner)
            return walk(sim, owner)

        monkeypatch.setattr(Simulation, "holdings", counted)
        sim = supply_sim(FixedCapGeometric(5, 100_000), periods, initial_supply=1000)
        assert [p.mint for p in trajectory(sim)] == [5] * periods
        assert walks == []

    def test_trajectory_export_format(self):
        sim = supply_sim(FixedCapGeometric(4, 1), 3, initial_supply=0)
        text = "\n".join(report_for(sim).trajectory)
        assert text.splitlines() == ["0|4|4|0|0", "1|6|2|0|0", "2|7|1|0|0"]
