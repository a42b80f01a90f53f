"""Holdings-utility metrics: diminishing marginal utility of money.

Utility of a holding h is ln(1 + h) — the +1 keeps zero holdings defined
while preserving strict monotonicity and concavity — and a population's
utility is the sum over holdings.  `equality_check` confirms by exhaustive
search that for a fixed total the most-equal split maximizes total utility.
"""

from __future__ import annotations

import math
from typing import Iterable

MAX_TOTAL = 10_000
MAX_OWNERS = 6


class ScaleExceeded(ValueError):
    pass


def log_utility(holdings: Iterable[int]) -> float:
    """Sum of ln(1 + h) over holdings, in double precision."""
    total = 0.0
    for h in holdings:
        if h < 0:
            raise ValueError(f"holdings must be non-negative, got {h}")
        total += math.log1p(h)
    return total


def format_utility(value: float) -> str:
    """Fixed 4-decimal rendering used in reports and golden files."""
    return f"{value:.4f}"


def equal_split(total: int, owners: int) -> tuple[int, ...]:
    """The canonical most-equal allocation (larger shares first)."""
    base, extra = divmod(total, owners)
    return tuple(base + 1 if i < extra else base for i in range(owners))


def _allocations(total: int, owners: int) -> Iterable[tuple[int, ...]]:
    if owners == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _allocations(total - first, owners - 1):
            yield (first, *rest)


def equality_check(total: int, owners: int) -> tuple[int, ...]:
    """Exhaustively search all allocations of `total` over `owners`.

    Returns the utility-maximizing allocation and verifies it is the
    most-equal split (all components within 1 of each other).  Desk scale
    only: bounded by MAX_TOTAL and MAX_OWNERS.
    """
    if total < 0 or owners <= 0:
        raise ValueError("total must be >= 0 and owners > 0")
    if total > MAX_TOTAL or owners > MAX_OWNERS:
        raise ScaleExceeded(f"T <= {MAX_TOTAL} and n <= {MAX_OWNERS} only")
    table = [math.log1p(h) for h in range(total + 1)]
    best: tuple[int, ...] = ()
    best_utility = -1.0
    for allocation in _allocations(total, owners):
        utility = sum(table[h] for h in allocation)
        if utility > best_utility:
            best_utility = utility
            best = allocation
    if max(best) - min(best) > 1:
        raise AssertionError(f"maximizer {best} is not a most-equal split")
    return best
