"""Double auction matching and rate-seeking delegation."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from progmoney.markets import (
    InvalidOrder,
    Order,
    OrderBook,
    Side,
    Trade,
    cda_submit,
    interest_payment,
    select_best_rate,
)


def bid(price, qty, owner="b", seq=0):
    return Order(Side.BID, price, qty, owner, seq)


def ask(price, qty, owner="s", seq=0):
    return Order(Side.ASK, price, qty, owner, seq)


def brute_force_submit(book: OrderBook, order: Order):
    """Independent oracle: scan the opposite side in (price, seq) order."""
    resting = list(book.asks if order.side is Side.BID else book.bids)
    remaining = order.qty
    trades = []
    while remaining > 0:
        if order.side is Side.BID:
            candidates = [o for o in resting if o.price <= order.price]
            if not candidates:
                break
            best = min(candidates, key=lambda o: (o.price, o.seq))
        else:
            candidates = [o for o in resting if o.price >= order.price]
            if not candidates:
                break
            best = min(candidates, key=lambda o: (-o.price, o.seq))
        qty = min(remaining, best.qty)
        if order.side is Side.BID:
            trades.append(Trade(best.price, qty, order.owner, best.owner))
        else:
            trades.append(Trade(best.price, qty, best.owner, order.owner))
        remaining -= qty
        resting.remove(best)
        if qty < best.qty:
            resting.append(replace(best, qty=best.qty - qty))
    if order.side is Side.BID:
        bids = list(book.bids)
        if remaining:
            bids.append(replace(order, qty=remaining))
        bids.sort(key=lambda o: (-o.price, o.seq))
        asks = sorted(resting, key=lambda o: (o.price, o.seq))
    else:
        asks = list(book.asks)
        if remaining:
            asks.append(replace(order, qty=remaining))
        asks.sort(key=lambda o: (o.price, o.seq))
        bids = sorted(resting, key=lambda o: (-o.price, o.seq))
    return OrderBook(tuple(bids), tuple(asks)), trades


class TestCdaSubmit:
    def test_partial_fill_at_resting_price(self):
        # derived by hand: ASK 100x5 resting, BID 105x3 incoming
        book = OrderBook(asks=(ask(100, 5, "s", 1),))
        new_book, trades = cda_submit(book, bid(105, 3, "b", 2))
        assert trades == [Trade(100, 3, "b", "s")]
        assert new_book.asks == (ask(100, 2, "s", 1),)
        assert new_book.bids == ()

    def test_no_cross_rests(self):
        book = OrderBook(asks=(ask(100, 5, "s", 1),))
        new_book, trades = cda_submit(book, bid(95, 3, "b", 2))
        assert trades == []
        assert new_book.bids == (bid(95, 3, "b", 2),)

    def test_time_priority(self):
        book = OrderBook(asks=(ask(100, 1, "s1", 1), ask(100, 1, "s2", 2)))
        _, trades = cda_submit(book, bid(100, 1, "b", 3))
        assert trades == [Trade(100, 1, "b", "s1")]

    def test_price_priority_over_time(self):
        # resting asks sorted by (price, seq): the later-but-cheaper ask wins
        book = OrderBook(asks=(ask(99, 1, "s2", 2), ask(101, 1, "s1", 1)))
        _, trades = cda_submit(book, bid(105, 1, "b", 3))
        assert trades == [Trade(99, 1, "b", "s2")]

    def test_incoming_ask_matches_best_bid(self):
        book = OrderBook(bids=(bid(105, 2, "b1", 1), bid(103, 2, "b2", 2)))
        new_book, trades = cda_submit(book, ask(100, 3, "s", 3))
        assert trades == [Trade(105, 2, "b1", "s"), Trade(103, 1, "b2", "s")]
        assert new_book.bids == (bid(103, 1, "b2", 2),)

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            cda_submit(OrderBook(), bid(0, 1))
        with pytest.raises(InvalidOrder):
            cda_submit(OrderBook(), ask(10, 0))

    def test_submit_is_pure(self):
        book = OrderBook(asks=(ask(100, 5, "s", 1),))
        cda_submit(book, bid(105, 3, "b", 2))
        assert book.asks == (ask(100, 5, "s", 1),)

    def test_conservation_of_quantity(self):
        rng = random.Random(3)
        for _ in range(200):
            book, order = random_book_and_order(rng)
            resting_before = sum(o.qty for o in book.bids + book.asks)
            new_book, trades = cda_submit(book, order)
            resting_after = sum(o.qty for o in new_book.bids + new_book.asks)
            traded = sum(t.qty for t in trades)
            assert resting_before + order.qty == resting_after + 2 * traded
            assert all(o.qty > 0 for o in new_book.bids + new_book.asks)

    def test_equivalence_with_brute_force_oracle(self):
        rng = random.Random(77)
        for _ in range(1000):
            book, order = random_book_and_order(rng)
            got_book, got_trades = cda_submit(book, order)
            want_book, want_trades = brute_force_submit(book, order)
            assert got_trades == want_trades
            assert got_book == want_book


def random_book_and_order(rng):
    seq = 0
    bids, asks = [], []
    for _ in range(rng.randrange(0, 20)):
        seq += 1
        side = rng.choice([Side.BID, Side.ASK])
        order = Order(side, rng.randrange(90, 111), rng.randrange(1, 8), f"o{seq}", seq)
        (bids if side is Side.BID else asks).append(order)
    bids.sort(key=lambda o: (-o.price, o.seq))
    asks.sort(key=lambda o: (o.price, o.seq))
    seq += 1
    incoming = Order(
        rng.choice([Side.BID, Side.ASK]),
        rng.randrange(90, 111),
        rng.randrange(1, 8),
        "taker",
        seq,
    )
    return OrderBook(tuple(bids), tuple(asks)), incoming


class TestSelectBestRate:
    def test_strict_improvement(self):
        board = {"A": Fraction(1, 100), "B": Fraction(2, 100)}
        assert select_best_rate(board, "A") == "B"

    def test_tie_means_stay(self):
        board = {"A": Fraction(2, 100), "B": Fraction(2, 100)}
        assert select_best_rate(board, "A") is None

    def test_empty_board_stays(self):
        assert select_best_rate({}) is None
        assert select_best_rate({}, "A") is None

    def test_no_current_bank_takes_argmax(self):
        board = {"B": Fraction(2, 100), "A": Fraction(1, 100)}
        assert select_best_rate(board, None) == "B"

    def test_argmax_tie_breaks_lexicographically(self):
        board = {"zeta": Fraction(3, 100), "alpha": Fraction(3, 100)}
        assert select_best_rate(board, None) == "alpha"

    def test_already_at_best_stays(self):
        board = {"A": Fraction(5, 100), "B": Fraction(2, 100)}
        assert select_best_rate(board, "A") is None


class TestInterest:
    def test_floor_per_period(self):
        assert interest_payment(10_000, Fraction(2, 100), 1) == 200
        assert interest_payment(10_000, Fraction(2, 100), 2) == 100
        assert interest_payment(999, Fraction(2, 100), 1) == 19
        assert interest_payment(10, Fraction(1, 100), 4) == 0
