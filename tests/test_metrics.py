"""Log-utility metrics and the equal-split optimality check."""

import math
from typing import Iterable

import pytest

from progmoney.metrics import format_utility, log_utility

MAX_TOTAL = 10_000
MAX_OWNERS = 6


class ScaleExceeded(ValueError):
    pass


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


class TestLogUtility:
    def test_zero_holding_is_zero(self):
        assert log_utility([0]) == 0.0

    def test_two_equal_holdings(self):
        # frozen from a reference calculator: 2*ln(101)
        assert format_utility(log_utility([100, 100])) == "9.2302"

    def test_concentration_loses_utility(self):
        # frozen: ln(201); concavity puts it below the even split
        assert format_utility(log_utility([200, 0])) == "5.3033"
        assert log_utility([200, 0]) < log_utility([100, 100])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_utility([-1])

    def test_strictly_increasing(self):
        for h in range(0, 1001):
            assert math.log1p(h + 1) > math.log1p(h)

    def test_strictly_concave_second_difference(self):
        for h in range(1, 1001):
            second = math.log1p(h + 1) - 2 * math.log1p(h) + math.log1p(h - 1)
            assert second < 0

    def test_rendering_is_fixed_width(self):
        assert format_utility(0.0) == "0.0000"
        assert format_utility(9.23024) == "9.2302"


class TestEqualityCheck:
    def test_ten_over_two(self):
        assert equality_check(10, 2) == (5, 5)

    def test_nine_over_two_ties(self):
        best = equality_check(9, 2)
        assert sorted(best, reverse=True) == [5, 4]
        assert log_utility([5, 4]) == log_utility([4, 5])

    def test_zero_total(self):
        assert equality_check(0, 3) == (0, 0, 0)
        assert log_utility(equality_check(0, 3)) == 0.0

    def test_scale_limits(self):
        with pytest.raises(ScaleExceeded):
            equality_check(10_001, 2)
        with pytest.raises(ScaleExceeded):
            equality_check(10, 7)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            equality_check(-1, 2)
        with pytest.raises(ValueError):
            equality_check(10, 0)

    def test_equal_split_helper(self):
        assert equal_split(10, 3) == (4, 3, 3)
        assert equal_split(9, 3) == (3, 3, 3)
        assert sum(equal_split(200, 6)) == 200

    def test_matches_equal_split_small_grid(self):
        for total in range(0, 40):
            for owners in (2, 3):
                best = equality_check(total, owners)
                assert sum(best) == total
                assert max(best) - min(best) <= 1
                assert math.isclose(
                    log_utility(best), log_utility(equal_split(total, owners))
                )
