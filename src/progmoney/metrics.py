"""Holdings-utility metrics: diminishing marginal utility of money.

Utility of a holding h is ln(1 + h) — the +1 keeps zero holdings defined
while preserving strict monotonicity and concavity — and a population's
utility is the sum over holdings.  The report prints it for the final
balances.
"""

from __future__ import annotations

import math
from typing import Iterable


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
