"""Money-supply controllers instructing the central bank each period.

Three rule variants:

  FIXED_CAP_GEOMETRIC  — issuance floor(r0 / 2^floor(t/H)) per period, which
                         halves every H periods and caps cumulative mint at
                         2*r0*H.
  CONSTANT_GROWTH      — mint floor(S_t * k / periods_per_year) per period;
                         negative k burns from the central bank's treasury,
                         clamped at its holdings.
  VOLUME_RESPONSIVE    — constant growth with the effective yearly rate
                         k_t = k0 + alpha * (V_t - v_star) / v_star, where
                         V_t is the transfer volume of the last window.

Controllers are pure functions of (rule, period, stats); the simulation
executes each period's directive as ledger MINT/BURN records.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .registry import SupplyStats


@dataclass(frozen=True)
class FixedCapGeometric:
    issuance_start: int  # minor units minted in period 0 (r0 > 0)
    halving_periods: int  # H > 0

    def __post_init__(self) -> None:
        if self.issuance_start <= 0 or self.halving_periods <= 0:
            raise ValueError("issuance_start and halving_periods must be positive")


@dataclass(frozen=True)
class ConstantGrowth:
    rate_per_year: Fraction  # k >= -1

    def __post_init__(self) -> None:
        if self.rate_per_year < -1:
            raise ValueError("rate_per_year must be >= -1")


@dataclass(frozen=True)
class VolumeResponsive:
    base_rate: Fraction  # k0
    sensitivity: Fraction  # alpha
    target_volume: int  # v_star > 0, minor units per window

    def __post_init__(self) -> None:
        if self.target_volume <= 0:
            raise ValueError("target_volume must be positive")


SupplyRule = Union[FixedCapGeometric, ConstantGrowth, VolumeResponsive]


@dataclass(frozen=True)
class SupplyDirective:
    mint: int = 0
    burn: int = 0

    def __post_init__(self) -> None:
        if self.mint < 0 or self.burn < 0 or (self.mint > 0 and self.burn > 0):
            raise ValueError("directive must mint or burn, never both")


def _growth_directive(supply: int, rate: Fraction, periods_per_year: int) -> SupplyDirective:
    scaled = rate / periods_per_year
    delta = (supply * scaled.numerator) // scaled.denominator
    if delta >= 0:
        return SupplyDirective(mint=delta)
    # a volume-responsive rate can fall below -100%/yr; no burn exceeds supply
    return SupplyDirective(burn=min(-delta, supply))


def issuance(
    rule: SupplyRule, period: int, stats: SupplyStats, periods_per_year: int = 1
) -> SupplyDirective:
    """The directive for `period` given the registry's latest statistics."""
    if period < 0:
        raise ValueError("period must be >= 0")
    if isinstance(rule, FixedCapGeometric):
        mint = rule.issuance_start >> (period // rule.halving_periods)
        return SupplyDirective(mint=mint)
    if isinstance(rule, ConstantGrowth):
        return _growth_directive(stats.live_supply, rule.rate_per_year, periods_per_year)
    deviation = Fraction(stats.tx_volume - rule.target_volume, rule.target_volume)
    effective = rule.base_rate + rule.sensitivity * deviation
    return _growth_directive(stats.live_supply, effective, periods_per_year)
