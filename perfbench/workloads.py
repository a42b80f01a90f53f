"""Seeded scenario generators for the three benchmark economies.

Each generator turns a workload seed into ordinary `.scn` text plus the
simulation seed the program is run with.  The program never sees the
workload seed; it receives only the scenario text and the simulation seed,
exactly as `progmoney run <file> --seed N` would.

Seeds choose who trades with whom, at which tick and for how much.  The
shape of each economy (host counts, number of purchases, share of vetoed
purchases, tick span) is fixed, so every seed costs about the same and the
spread across seeds stays small.

Every workload carries a small supply rule and a few auction orders, so
each layer of the program has work on each workload and its per-layer
numbers stay comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    text: str
    sim_seed: int
    until: int


def _sim_seed(name: str, seed: int) -> int:
    return random.Random(f"{name}:{seed}:sim").randrange(1, 2**31)


def _scenario(sections: dict[str, list[str]]) -> str:
    out = []
    for section, lines in sections.items():
        out.append(f"[{section}]")
        out.extend(lines)
        out.append("")
    return "\n".join(out)


def _script(events: list[tuple[int, str]]) -> list[str]:
    # stable sort: same-tick events keep generation order
    return [f"{tick} {action}" for tick, action in sorted(events, key=lambda e: e[0])]


# -- retail -------------------------------------------------------------

RETAIL_TOWNS = 32
RETAIL_CONSUMERS = 2  # per town; each town has one vendor
RETAIL_ROUNDS = 6
RETAIL_VETO_SHARE = 0.15  # of the consumers' purchases
RETAIL_UNTIL = 16
RETAIL_PRICES = (50, 120, 250, 400, 600, 800, 1500, 2500)
RETAIL_BUYBACK_PRICES = (300, 700, 1200, 2000)


def retail(seed: int) -> Workload:
    """Taxed retail with buy-backs: money circulates, provenance grows.

    Consumers trade only with the vendor of their own town.  Every round
    each consumer buys once and the vendor buys back once, so each seed has
    the same amount of trade.  Provenance grows exponentially with the
    rounds of circulation, so one large town would make the cost swing from
    seed to seed; many small towns keep that spread to a few percent.  The
    seed decides prices, who sells back to whom, and which purchases are
    vetoed.
    """
    rng = random.Random(f"retail:{seed}")
    hosts = ["central = CENTRAL_BANK HOME"]
    events: list[tuple[int, str]] = []
    towns = []
    for t in range(RETAIL_TOWNS):
        consumers = [f"c{t}_{i}" for i in range(RETAIL_CONSUMERS)]
        vendor = f"v{t}"
        towns.append((consumers, vendor))
        hosts += [f"{c} = CONSUMER HOME" for c in consumers] + [f"{vendor} = VENDOR HOME"]
        events += [(0, f"ISSUE central {c} 40000 retail") for c in consumers]
        events.append((0, f"ISSUE central {vendor} 10000 retail"))
    hosts += ["tax_authority = TAX_AUTHORITY HOME", "government = LAW_SERVER HOME"]

    purchases = [
        (r, t, i)
        for r in range(RETAIL_ROUNDS)
        for t in range(RETAIL_TOWNS)
        for i in range(RETAIL_CONSUMERS)
    ]
    vetoed = set(rng.sample(purchases, round(len(purchases) * RETAIL_VETO_SHARE)))
    for r in range(RETAIL_ROUNDS):
        tick = 1 + r * (RETAIL_UNTIL - 2) // RETAIL_ROUNDS
        for t, (consumers, vendor) in enumerate(towns):
            prices = rng.sample(RETAIL_PRICES, len(consumers))
            for i, (buyer, price) in enumerate(zip(consumers, prices)):
                # every consumer is unlicensed, so both categories are vetoed
                category = "sale"
                if (r, t, i) in vetoed:
                    category = rng.choice(("weapons", "stolen_goods"))
                events.append((tick, f"BUY {buyer} {vendor} {price} {category}"))
            buyback = rng.choice(RETAIL_BUYBACK_PRICES)
            events.append((tick + 1, f"BUY {vendor} {rng.choice(consumers)} {buyback} sale"))
    vendors = [vendor for _, vendor in towns]
    # a small auction between vendors; crossing prices settle as trades
    for _ in range(6):
        tick = rng.randint(1, RETAIL_UNTIL - 2)
        seller, buyer = rng.sample(vendors, 2)
        price = rng.randint(90, 110)
        events.append((tick, f"ORDER ASK {price} {rng.randint(1, 4)} {seller}"))
        events.append((tick + 1, f"ORDER BID {price + 5} {rng.randint(1, 4)} {buyer}"))

    text = _scenario(
        {
            "sim": [
                "name = retail",
                f"until = {RETAIL_UNTIL}",
                "year_ticks = 360",
                "period_ticks = 5",
                "latency = 1 2",
                "currency = SIM",
            ],
            "hosts": hosts,
            "law": [
                "sale = legal 1/5",
                "trade = legal 0/1",
                "weapons = licence_required 1/5",
                "stolen_goods = illegal 0/1",
            ],
            "supply": [
                "issuer = central",
                "allowance = 1000000000000",
                "rule = CONSTANT_GROWTH 1/100",
            ],
            "policies": ["retail = sales_tax 1/5 + legality + tamper_notify"],
            "script": _script(events),
        }
    )
    return Workload("retail", text, _sim_seed("retail", seed), RETAIL_UNTIL)


# -- holding ------------------------------------------------------------

HOLDING_HOSTS = 20
HOLDING_UNITS_PER_HOST = 5
HOLDING_UNTIL = 200
HOLDING_CONTACT_TICKS = 60
HOLDING_MOVERS = 2


def holding(seed: int) -> Workload:
    """Idle money under TICK rules: per-tick upkeep with short provenance."""
    rng = random.Random(f"holding:{seed}")
    holders = [f"h{i:02d}" for i in range(HOLDING_HOSTS)]
    hosts = ["central = CENTRAL_BANK HOME"]
    hosts += [f"{h} = CONSUMER HOME" for h in holders]
    hosts += ["government = LAW_SERVER HOME"]

    events: list[tuple[int, str]] = []
    for h in holders:
        for _ in range(HOLDING_UNITS_PER_HOST):
            events.append((0, f"ISSUE central {h} {rng.randint(100, 5000)} held"))
        # contact well inside the deadline, so no unit lapses
        tick = rng.randint(20, 40)
        while tick < HOLDING_UNTIL:
            events.append((tick, f"CONTACT {h}"))
            tick += rng.randint(35, 50)
    # a few holders travel: a move at home is harmless, a move abroad
    # zeroises their units late in the run under the jurisdiction rule
    for h in rng.sample(holders, 2 * HOLDING_MOVERS):
        events.append((rng.randint(10, HOLDING_UNTIL - 30), f"MOVE_HOST {h} HOME"))
    for h in rng.sample(holders, HOLDING_MOVERS):
        tick = rng.randint(HOLDING_UNTIL - 20, HOLDING_UNTIL - 10)
        events.append((tick, f"MOVE_HOST {h} ABROAD"))
    # resting, non-crossing orders: the book is used, no money moves
    for i in range(10):
        side, price = ("BID", rng.randint(50, 90)) if i % 2 else ("ASK", rng.randint(110, 150))
        tick, owner = rng.randint(1, HOLDING_UNTIL - 1), rng.choice(holders)
        events.append((tick, f"ORDER {side} {price} 1 {owner}"))

    text = _scenario(
        {
            "sim": [
                "name = holding",
                f"until = {HOLDING_UNTIL}",
                "year_ticks = 360",
                "period_ticks = 40",
                "latency = 1 1",
                "currency = SIM",
            ],
            "hosts": hosts,
            "law": ["sale = legal 1/5"],
            "supply": [
                "issuer = central",
                "allowance = 1000000000000",
                "rule = CONSTANT_GROWTH 2/100",
            ],
            "policies": [
                f"held = annual_contact {HOLDING_CONTACT_TICKS} + expiry 1000 + jurisdiction HOME"
            ],
            "script": _script(events),
        }
    )
    return Workload("holding", text, _sim_seed("holding", seed), HOLDING_UNTIL)


# -- ledger -------------------------------------------------------------

LEDGER_BUYERS = 40
LEDGER_VENDORS = 8
LEDGER_UNITS = 1200
LEDGER_ILLEGAL_SHARE = 0.05
LEDGER_ORDERS = 200
LEDGER_REPLAYS = 100
LEDGER_UNTIL = 5


def ledger(seed: int) -> Workload:
    """A burst of issues, taxed spends, auction trades and replays."""
    rng = random.Random(f"ledger:{seed}")
    buyers = [f"b{i:02d}" for i in range(LEDGER_BUYERS)]
    vendors = [f"v{i}" for i in range(LEDGER_VENDORS)]
    hosts = ["central = CENTRAL_BANK HOME"]
    hosts += [f"{b} = CONSUMER HOME" for b in buyers]
    hosts += [f"{v} = VENDOR HOME" for v in vendors]
    hosts += [
        "tax_authority = TAX_AUTHORITY HOME",
        "government = LAW_SERVER HOME",
        "mallory = ADVERSARY HOME",
    ]

    events: list[tuple[int, str]] = []
    units: list[tuple[str, int]] = []
    for i in range(LEDGER_UNITS):
        owner, value = buyers[i % LEDGER_BUYERS], rng.randint(20, 200) * 5
        units.append((owner, value))
        events.append((0, f"ISSUE central {owner} {value} retail"))
    # one purchase per issued unit, priced at its value, in random order;
    # the buyer's wallet decides which units pay
    rng.shuffle(units)
    illegal = set(rng.sample(range(LEDGER_UNITS), round(LEDGER_UNITS * LEDGER_ILLEGAL_SHARE)))
    for i, (owner, value) in enumerate(units):
        category = "stolen_goods" if i in illegal else "sale"
        vendor = rng.choice(vendors)
        events.append((1 + i * 3 // LEDGER_UNITS, f"BUY {owner} {vendor} {value} {category}"))
    for _ in range(LEDGER_ORDERS):
        side = rng.choice(("BID", "ASK"))
        events.append(
            (rng.randint(1, LEDGER_UNTIL - 1),
             f"ORDER {side} {rng.randint(95, 105)} {rng.randint(1, 3)} {rng.choice(vendors)}")
        )
    for _ in range(LEDGER_REPLAYS // 5):
        events.append((rng.randint(1, LEDGER_UNTIL), "REPLAY mallory 5"))

    text = _scenario(
        {
            "sim": [
                "name = ledger",
                f"until = {LEDGER_UNTIL}",
                "year_ticks = 360",
                "period_ticks = 1",
                "latency = 1 1",
                "currency = SIM",
            ],
            "hosts": hosts,
            "law": ["sale = legal 1/5", "trade = legal 0/1", "stolen_goods = illegal 0/1"],
            "supply": [
                "issuer = central",
                "allowance = 1000000000000",
                "rule = CONSTANT_GROWTH 36/100",
            ],
            "policies": ["retail = sales_tax 1/5 + legality + tamper_notify"],
            "script": _script(events),
        }
    )
    return Workload("ledger", text, _sim_seed("ledger", seed), LEDGER_UNTIL)


GENERATORS = {"retail": retail, "holding": holding, "ledger": ledger}


def generate(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)
