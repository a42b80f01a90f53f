"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints one `ACCEPTANCE nn <name>: PASS|FAIL` line (visible with
``pytest -s`` or in the failure report).  Every expected value is either
trivially derivable or computed by an independent oracle inside the test.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Optional

from progmoney import money, policy as pol
from progmoney.cli import LEDGER_FILE, OBSERVATIONS_FILE, REPORT_FILE, run_cli
from progmoney.crypto import KeyDirectory
from progmoney.fiscal import expiry_policy, sales_tax_policy
from progmoney.metrics import log_utility
from progmoney.money import PolicyForbids, UnitState, mint, transfer, verify_integrity, zeroise
from progmoney.registry import RecordKind, Registry
from progmoney.report import report_for
from progmoney.sim import Simulation
from progmoney.sim_types import LawEntry, LawStatus, Role
from progmoney.supply import ConstantGrowth, FixedCapGeometric, issuance

from test_markets import brute_force_submit, random_book_and_order
from test_metrics import equal_split
from test_policy import CORPUS
from test_supply import supply_sim, trajectory

SCENARIO_DIR = (
    Path(__file__).resolve().parents[1] / "src" / "progmoney" / "data" / "scenarios"
)


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


def fresh_world(seed=2024, issuers=("central",), others=()):
    rng = random.Random(seed)
    directory = KeyDirectory()
    registry = Registry(directory, rng=rng)
    keys = {}
    for key_id in issuers:
        keys[key_id] = directory.create(key_id, rng)
        registry.authorize_issuer(key_id, 10**15)
    for key_id in others:
        keys[key_id] = directory.create(key_id, rng)
    return rng, directory, registry, keys


def test_01_conservation_mixed_scenario(tmp_path):
    with criterion(1, "conservation over a >=10,000-event mixed run"):
        started = time.perf_counter()
        rng, directory, registry, keys = fresh_world(
            seed=101, others=("alice", "bob", "carol", "tax_authority")
        )
        bank = keys["central"]
        owners = ["central", "alice", "bob", "carol"]
        taxed = pol.compile_policy(sales_tax_policy(Fraction(1, 5)))
        plain = pol.EMPTY_POLICY
        active: dict[str, money.MoneyUnit] = {}
        # the model's own expiry per unit id: pieces keep their unit's, and
        # a merge the earlier of its parents'; the policies set no deadline
        expiry_of: dict[str, Optional[int]] = {}

        def adopt(unit, expiry):
            active[unit.id] = unit
            expiry_of[unit.id] = expiry

        def retire(unit):
            active.pop(unit.id, None)

        tick = 0
        while len(registry.records) < 10_000:
            tick += 1
            roll = rng.random()
            ids = sorted(active)
            if roll < 0.12 or len(ids) < 4:
                policy = taxed if rng.random() < 0.3 else plain
                expiry = tick + rng.randrange(5, 60) if rng.random() < 0.3 else None
                unit = mint(bank, rng.randrange(10, 20_000), "SIM", policy, registry, at=tick)
                adopt(unit, expiry)
            elif roll < 0.55:
                unit = active[rng.choice(ids)]
                expiry = expiry_of[unit.id]
                if expiry is not None and tick > expiry:
                    zeroise(unit, "expiry", registry, at=tick)
                    retire(unit)
                    continue
                ctx = pol.EvalContext(
                    amount=unit.value,
                    category="sale" if rng.random() < 0.5 else None,
                    now=tick,
                    expiry=expiry,
                )
                outcome = transfer(unit, rng.choice(owners), ctx, registry)
                retire(unit)
                for piece in outcome.all_units():
                    adopt(piece, expiry)
            elif roll < 0.74:
                unit = active[rng.choice(ids)]
                if unit.value < 2:
                    continue
                a, b = money.split(unit, rng.randrange(1, unit.value), registry, at=tick)
                retire(unit)
                adopt(a, expiry_of[unit.id])
                adopt(b, expiry_of[unit.id])
            elif roll < 0.92:
                groups: dict[tuple, list] = {}
                for uid in ids:
                    unit = active[uid]
                    groups.setdefault((unit.owner, unit.lineage.origin), []).append(unit)
                mergeable = [g for g in groups.values() if len(g) >= 2]
                if not mergeable:
                    continue
                a, b = rng.choice(mergeable)[:2]
                merged = money.merge(a, b, registry, at=tick)
                retire(a)
                retire(b)
                expiries = [e for e in (expiry_of[a.id], expiry_of[b.id]) if e is not None]
                adopt(merged, min(expiries, default=None))
            else:
                unit = active[rng.choice(ids)]
                reason = rng.choice(["tamper", "jurisdiction", "expiry"])
                zeroise(unit, reason, registry, at=tick)
                retire(unit)
        live = registry.live_supply
        assert registry.fold.minted - registry.fold.burned == live
        assert registry.audit() == []
        # the CLI structural audit agrees
        ledger_path = tmp_path / "ledger.txt"
        ledger_path.write_text(registry.export() + "\n", encoding="utf-8")
        assert run_cli(["audit", str(ledger_path)]) == 0
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_02_double_spend_replays():
    with criterion(2, "1,000 adversarial replays, zero acceptances"):
        started = time.perf_counter()
        sim = Simulation(seed=11, scenario_name="replay")
        sim.add_host("central", Role.CENTRAL_BANK, "HOME")
        sim.add_host("alice", Role.CONSUMER, "HOME")
        sim.add_host("bob", Role.VENDOR, "HOME")
        sim.add_host("mallory", Role.ADVERSARY, "HOME")
        sim.law["sale"] = LawEntry(LawStatus.LEGAL, Fraction(1, 5))
        sim.schedule_script(0, ("ISSUE", "central", "alice", "1000", "empty"))
        sim.schedule_script(1, ("BUY", "alice", "bob", "1000", "sale"))
        sim.schedule_script(2, ("REPLAY", "mallory", "1000"))
        sim.run_until(3)
        rejected = [line for line in sim.observations if "|double_spend|" in line]
        accepted = [line for line in sim.observations if "|replay_accepted|" in line]
        other = [line for line in sim.observations if "|replay_rejected|" in line]
        assert len(rejected) == 1000  # every rejection logged as a double spend
        assert accepted == []
        assert other == []
        assert sim.registry.audit() == []
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_03_sales_tax_500_randomized_purchases():
    with criterion(3, "sales tax exact over 500 randomized purchases"):
        rng = random.Random(303)
        prices = [rng.randrange(1, 5_000) for _ in range(500)]
        sim = Simulation(seed=33, scenario_name="tax500")
        sim.add_host("central", Role.CENTRAL_BANK, "HOME")
        sim.add_host("alice", Role.CONSUMER, "HOME")
        sim.add_host("bob", Role.VENDOR, "HOME")
        sim.add_host("tax_authority", Role.TAX_AUTHORITY, "HOME")
        sim.law["sale"] = LawEntry(LawStatus.LEGAL, Fraction(1, 5))
        sim.policies["retail"] = pol.compile_policy(sales_tax_policy(Fraction(1, 5)))
        for i, price in enumerate(prices):
            tick = i // 10  # ten purchases per tick keeps upkeep cheap
            sim.schedule_script(tick, ("ISSUE", "central", "alice", str(price), "retail"))
            sim.schedule_script(tick, ("BUY", "alice", "bob", str(price), "sale"))
        sim.run_until(len(prices) // 10 + 1)
        expected_tax = sum(p // 5 for p in prices)
        expected_vendor = sum(p - p // 5 for p in prices)
        balances = report_for(sim).balances
        assert balances["tax_authority"] == expected_tax
        assert balances["bob"] == expected_vendor
        assert balances["alice"] == 0
        assert sim.registry.audit() == []


def test_04_tamper_always_zeroises():
    with criterion(4, "100 single-byte policy mutations all detected and burned"):
        rng, directory, registry, keys = fresh_world(seed=404)
        bank = keys["central"]
        source = sales_tax_policy(Fraction(1, 5))
        units = [
            mint(bank, rng.randrange(1, 10_000), "SIM", pol.compile_policy(source), registry, at=0)
            for _ in range(100)
        ]
        total_value = sum(u.value for u in units)
        detected = zeroised = 0
        for unit in units:
            text = unit.policy.source_canonical
            pos = rng.randrange(len(text))
            replacement = chr((ord(text[pos]) + 1 - 32) % 95 + 32)  # printable, != original
            mutated = text[:pos] + replacement + text[pos + 1 :]
            unit.policy = pol.PolicyProgram(unit.policy.rules, mutated)
            if not verify_integrity(unit, directory).ok:
                detected += 1
                zeroise(unit, "tamper", registry, at=1)
                if unit.state is UnitState.ZEROISED:
                    zeroised += 1
        assert detected == 100
        assert zeroised == 100
        assert registry.fold.burned == total_value
        assert registry.fold.minted - registry.fold.burned == registry.live_supply
        assert registry.audit() == []


def test_04_tamper_zeroises_after_a_warm_check(monkeypatch):
    # criterion 4 as written, with each unit verified once before it is
    # mutated, so every lineage node and policy check is already cached
    def mint_and_verify(bank, value, currency, policy, registry, **kwargs):
        unit = money.mint(bank, value, currency, policy, registry, **kwargs)
        assert verify_integrity(unit, registry.directory).ok
        return unit

    monkeypatch.setitem(globals(), "mint", mint_and_verify)
    test_04_tamper_always_zeroises()


def test_05_jurisdiction_and_annual_contact():
    with criterion(5, "foreign host and missed annual contact both zeroise on time"):
        sim = Simulation(seed=55, scenario_name="borders", year_ticks=30, period_ticks=30)
        sim.add_host("central", Role.CENTRAL_BANK, "HOME")
        sim.add_host("dave", Role.CONSUMER, "HOME")
        sim.add_host("frank", Role.CONSUMER, "HOME")
        sim.add_host("government", Role.LAW_SERVER, "HOME")
        sim.policies["homebound"] = pol.compile_policy(
            'OBLIGATION ON TICK IF location != "HOME" DO ZEROISE, NOTIFY "government";'
        )
        sim.policies["declared"] = pol.compile_policy(
            'OBLIGATION ON TICK IF last_contact > 30 DO ZEROISE, NOTIFY "government";'
        )
        sim.schedule_script(0, ("ISSUE", "central", "dave", "700", "homebound"))
        sim.schedule_script(0, ("ISSUE", "central", "frank", "400", "declared"))
        sim.schedule_script(10, ("MOVE_HOST", "dave", "PANAMA"))
        sim.run_until(40)
        burns = {
            rec.reason: rec.at
            for rec in sim.registry.records
            if rec.kind is RecordKind.BURN
        }
        assert burns["jurisdiction"] <= 11  # moved at 10, zeroised within 1 tick
        assert burns["contact"] == 31  # not contacted for YEAR_TICKS+1
        assert sim.registry.fold.burned == 1100
        assert sim.registry.audit() == []


def test_06_supply_rules():
    with criterion(6, "constant growth matches compounding; fixed cap bounded"):
        # constant growth: 2%/yr over 10 years within 10 minor units of S0*1.02^10
        sim = supply_sim(ConstantGrowth(Fraction(2, 100)), 10, initial_supply=1_000_000)
        exact = Fraction(1_000_000) * Fraction(51, 50) ** 10
        assert abs(exact - trajectory(sim)[-1].supply) <= 10
        # fixed cap: brute-force summation oracle over 200 periods
        oracle_total = sum(50 // (2 ** (t // 10)) for t in range(200))
        rule = FixedCapGeometric(50, 10)
        stats = sim.registry.supply_stats((0, 0))
        controller_total = sum(
            issuance(rule, t, stats).mint for t in range(200)
        )
        assert controller_total == oracle_total
        assert controller_total <= 1_000


def test_07_expiry_soundness():
    with criterion(7, "no transfer past expiry across a 1,000-event run"):
        rng, directory, registry, keys = fresh_world(
            seed=707, others=("alice", "bob", "carol")
        )
        bank = keys["central"]
        owners = ["central", "alice", "bob", "carol"]
        expiry_of = {}
        units = []
        for i in range(150):
            deadline = rng.randrange(20, 120)
            policy = pol.compile_policy(expiry_policy(deadline))
            unit = mint(bank, rng.randrange(10, 5_000), "SIM", policy, registry, at=0)
            assert unit.policy.deadline == deadline
            expiry_of[unit.id] = deadline
            units.append(unit)
        expired_value = 0
        forbidden = 0
        for tick in range(1, 140):
            for unit in units:
                if unit.state is not UnitState.ACTIVE:
                    continue
                ctx = pol.EvalContext(amount=unit.value, now=tick, expiry=expiry_of[unit.id])
                # let the unit's own TICK rule decide whether it is dead
                decision = pol.evaluate(unit.policy, pol.EventKind.TICK, ctx)
                dead = [
                    ob
                    for ob in decision.obligations
                    if isinstance(ob, pol.ZeroiseObligation)
                ]
                if dead:
                    assert tick > expiry_of[unit.id]
                    expired_value += unit.value
                    zeroise(unit, dead[0].reason, registry, at=tick)
                elif rng.random() < 0.08:
                    try:
                        transfer(unit, rng.choice(owners), ctx, registry)
                    except PolicyForbids:
                        forbidden += 1
        assert len(registry.records) >= 1_000
        for rec in registry.records:
            if rec.kind is RecordKind.TRANSFER:
                deadline = expiry_of.get(rec.unit_ids[0])
                if deadline is not None:
                    assert rec.at <= deadline
        burned_by_expiry = sum(
            rec.amounts[0]
            for rec in registry.records
            if rec.kind is RecordKind.BURN and rec.reason == "expiry"
        )
        assert burned_by_expiry == expired_value
        assert registry.audit() == []


def test_08_log_utility_equal_split():
    with criterion(8, "equal split maximizes log utility for all T<=200, n in {2,3}"):
        started = time.perf_counter()
        table = [math.log1p(h) for h in range(201)]
        for total in range(201):
            # n = 2: exhaustive scan
            best2 = max(table[a] + table[total - a] for a in range(total + 1))
            even2 = log_utility(equal_split(total, 2))
            assert math.isclose(best2, even2, rel_tol=1e-12, abs_tol=1e-12)
            # n = 3: exhaustive scan
            best3 = -1.0
            for a in range(total + 1):
                base = table[a]
                for b in range(total - a + 1):
                    utility = base + table[b] + table[total - a - b]
                    if utility > best3:
                        best3 = utility
            even3 = log_utility(equal_split(total, 3))
            assert math.isclose(best3, even3, rel_tol=1e-12, abs_tol=1e-12)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_09_cda_matches_brute_force():
    with criterion(9, "matching equals the brute-force oracle on 1,000 books"):
        from progmoney.markets import cda_submit

        rng = random.Random(909)
        for _ in range(1000):
            book, order = random_book_and_order(rng)
            got_book, got_trades = cda_submit(book, order)
            want_book, want_trades = brute_force_submit(book, order)
            assert got_trades == want_trades
            assert got_book == want_book


def test_10_determinism_of_shipped_scenarios(tmp_path):
    with criterion(10, "same seed reruns are byte-identical for every scenario"):
        scenarios = sorted(SCENARIO_DIR.glob("*.scn"))
        assert len(scenarios) >= 10
        for scn in scenarios:
            first = tmp_path / f"{scn.stem}-a"
            second = tmp_path / f"{scn.stem}-b"
            assert run_cli(["run", str(scn), "--seed", "42", "--out", str(first)]) == 0
            assert run_cli(["run", str(scn), "--seed", "42", "--out", str(second)]) == 0
            for name in (OBSERVATIONS_FILE, LEDGER_FILE, REPORT_FILE):
                assert (first / name).read_bytes() == (second / name).read_bytes(), (
                    f"{scn.stem}/{name} differs between identical runs"
                )


def test_11_parser_round_trip_and_precedence():
    with criterion(11, "round-trip fixpoint on the corpus; precedence table holds"):
        assert len(CORPUS) >= 30
        for source in CORPUS:
            program = pol.parse(source)
            reparsed = pol.parse(program.source_canonical)
            assert reparsed.rules == program.rules
            assert reparsed.source_canonical == program.source_canonical
        # all 8 subsets of {prohibition, obligation, permission} on one event
        import itertools

        prohibition = "PROHIBITION ON RECEIVE IF amount > 0;"
        obligation = 'OBLIGATION ON RECEIVE IF amount > 0 DO PAY 1/10 TO "t";'
        permission = "PERMISSION ON RECEIVE IF amount > 0;"
        ctx = pol.EvalContext(amount=100)
        for has_p, has_o, has_perm in itertools.product([False, True], repeat=3):
            sources = [
                s
                for flag, s in (
                    (has_p, prohibition),
                    (has_o, obligation),
                    (has_perm, permission),
                )
                if flag
            ]
            decision = pol.evaluate(
                pol.compile_policy("\n".join(sources)), pol.EventKind.RECEIVE, ctx
            )
            if has_p:
                assert not decision.permitted
                assert decision.obligations == ()
            elif has_o:
                assert decision.permitted
                assert len(decision.obligations) == 1
            else:
                assert decision.permitted
                assert decision.obligations == ()
