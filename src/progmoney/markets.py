"""Negotiation venues: rate-seeking delegation and a continuous double auction.

The rate board is the advertised per-year interest rate of each bank; a unit
carrying MOVE_TO_BEST_RATE on TICK observes the board and, one tick later,
transfers itself to the strictly best bank through the normal transfer path,
so every prohibition the unit carries still applies.

The auction book matches with price-time priority: an incoming order trades
against the best opposite resting orders while prices cross, always at the
resting order's price; partial remainders rest.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Optional

from . import policy as pol
from .money import MoneyUnit, TransferOutcome, transfer
from .registry import Registry


class Side(Enum):
    BID = "BID"
    ASK = "ASK"


class InvalidOrder(ValueError):
    pass


@dataclass(frozen=True)
class Order:
    side: Side
    price: int
    qty: int
    owner: str
    seq: int


@dataclass(frozen=True)
class Trade:
    price: int
    qty: int
    buyer: str
    seller: str


@dataclass(frozen=True)
class OrderBook:
    bids: tuple[Order, ...] = ()  # sorted by (-price, seq)
    asks: tuple[Order, ...] = ()  # sorted by (price, seq)


def _insert(orders: tuple[Order, ...], order: Order, descending: bool) -> tuple[Order, ...]:
    key = (lambda o: (-o.price, o.seq)) if descending else (lambda o: (o.price, o.seq))
    out = list(orders)
    bisect.insort(out, order, key=key)  # after every order of an equal key
    return tuple(out)


def cda_submit(book: OrderBook, order: Order) -> tuple[OrderBook, list[Trade]]:
    """Match `order` against `book`; returns the new book and the trades."""
    if order.price <= 0 or order.qty <= 0:
        raise InvalidOrder(f"price and qty must be positive: {order}")
    bid = order.side is Side.BID
    own, opposite = (book.bids, list(book.asks)) if bid else (book.asks, list(book.bids))

    def crosses(resting: Order) -> bool:
        return resting.price <= order.price if bid else resting.price >= order.price

    trades: list[Trade] = []
    remaining = order.qty
    while remaining > 0 and opposite and crosses(opposite[0]):
        best = opposite[0]
        qty = min(remaining, best.qty)
        buyer, seller = (order.owner, best.owner) if bid else (best.owner, order.owner)
        trades.append(Trade(best.price, qty, buyer, seller))
        remaining -= qty
        if qty == best.qty:
            opposite.pop(0)
        else:
            opposite[0] = replace(best, qty=best.qty - qty)
    if remaining > 0:
        own = _insert(own, replace(order, qty=remaining), descending=bid)
    if bid:
        return OrderBook(bids=own, asks=tuple(opposite)), trades
    return OrderBook(bids=tuple(opposite), asks=own), trades


RateBoard = dict[str, Fraction]


def select_best_rate(board: RateBoard, current_bank: Optional[str] = None) -> Optional[str]:
    """The bank to move to, or None to stay.

    Picks the argmax rate (ties to the lexicographically smallest bank id)
    and requires a strict improvement over the current bank's advertised
    rate; an empty board means stay.
    """
    if not board:
        return None
    best_bank = min(board, key=lambda bank: (-board[bank], bank))
    if current_bank in board and board[best_bank] <= board[current_bank]:
        return None
    return best_bank


def delegated_move(
    unit: MoneyUnit,
    target_bank: str,
    ctx: pol.EvalContext,
    registry: Registry,
) -> TransferOutcome:
    """Deposit `unit` at `target_bank` through the normal transfer path."""
    return transfer(unit, target_bank, ctx, registry)


def interest_payment(value: int, rate: Fraction, periods_per_year: int) -> int:
    """floor(value * rate / periods_per_year) in minor units."""
    scaled = rate / periods_per_year
    return (value * scaled.numerator) // scaled.denominator
