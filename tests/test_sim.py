"""The discrete-event environment: clock, messaging, upkeep, delegation."""

from fractions import Fraction
from pathlib import Path

import pytest

from progmoney.cli import LEDGER_FILE, OBSERVATIONS_FILE, run_cli
from progmoney.registry import parse_ledger_line
from progmoney.report import render_report, report_for
from progmoney.scenario import build_simulation, load_scenario, run_scenario
from progmoney.sim import Message, SimEvent, Simulation
from progmoney.sim_types import LawStatus, Role, SchedulePast, UnknownCategory, UnknownHost
from progmoney.supply import ConstantGrowth

SCENARIO_DIR = (
    Path(__file__).resolve().parents[1] / "src" / "progmoney" / "data" / "scenarios"
)


def basic_sim(seed=1, **kwargs):
    sim = Simulation(seed=seed, scenario_name="test", **kwargs)
    sim.add_host("central", Role.CENTRAL_BANK, "HOME")
    sim.add_host("alice", Role.CONSUMER, "HOME")
    sim.add_host("bob", Role.VENDOR, "HOME")
    sim.add_host("tax_authority", Role.TAX_AUTHORITY, "HOME")
    sim.add_host("government", Role.LAW_SERVER, "HOME")
    sim.law.add("sale", LawStatus.LEGAL, Fraction(1, 5))
    return sim


class TestClock:
    def test_same_tick_events_run_in_seq_order(self):
        sim = basic_sim()
        sim.schedule(SimEvent(2, 2, "script", "sim", ("MOVE_HOST", "alice", "B")))
        sim.schedule(SimEvent(2, 1, "script", "sim", ("MOVE_HOST", "alice", "A")))
        sim.run_until(3)
        moves = [line for line in sim.observations if "move_host" in line]
        assert moves[0].endswith("location=A")
        assert moves[1].endswith("location=B")
        assert sim.hosts["alice"].location == "B"

    def test_caller_events_sharing_a_seq_are_not_compared_beyond_it(self):
        # schedule() takes any seq, so two events can tie on (at, seq); the
        # queue must not fall through to comparing their payloads
        sim = basic_sim()
        for body in ("first", "second"):
            message = Message("alice", body, sim.directory.sign("alice", body.encode()))
            sim.schedule(SimEvent(2, 1, "deliver", "bob", (message,)))
        sim.run_until(3)
        bodies = sorted(line.rsplit("body=", 1)[1] for line in sim.observations if "body=" in line)
        assert bodies == ["first", "second"]

    def test_schedule_past_rejected(self):
        sim = basic_sim()
        sim.run_until(5)
        with pytest.raises(SchedulePast):
            sim.schedule(SimEvent(4, 99, "script", "sim", ("CONTACT", "alice")))

    def test_run_until_past_rejected(self):
        sim = basic_sim()
        sim.run_until(5)
        with pytest.raises(SchedulePast):
            sim.run_until(3)

    def test_same_seed_same_log(self):
        first = basic_sim(seed=42)
        first.schedule_script(0, ("ISSUE", "central", "alice", "1000", "empty"))
        first.run_until(10)
        second = basic_sim(seed=42)
        second.schedule_script(0, ("ISSUE", "central", "alice", "1000", "empty"))
        second.run_until(10)
        assert first.observations == second.observations
        assert first.registry.export() == second.registry.export()

    def test_observation_ticks_non_decreasing(self):
        sim = basic_sim()
        sim.schedule_script(0, ("ISSUE", "central", "alice", "500", "empty"))
        sim.schedule_script(3, ("BUY", "alice", "bob", "500", "sale"))
        sim.run_until(8)
        ticks = [int(line.split("|", 1)[0]) for line in sim.observations]
        assert ticks == sorted(ticks)

    def test_no_event_loss(self):
        sim = basic_sim()
        sim.schedule_script(0, ("ISSUE", "central", "alice", "500", "empty"))
        sim.schedule_script(2, ("BUY", "alice", "bob", "500", "sale"))
        sim.schedule_script(20, ("CONTACT", "alice"))  # beyond the horizon
        sim.run_until(10)
        pending = len(sim._queue)
        assert sim.scheduled_count == sim.executed_count + pending
        assert pending == 1


class TestMessaging:
    def test_fixed_latency_delivery(self):
        sim = basic_sim(latency=(1, 1))
        sim.run_until(0)
        sent_at = sim.now
        sim.send("alice", "bob", "hello")
        sim.run_until(sent_at + 2)
        deliveries = [line for line in sim.observations if "|message|" in line]
        assert len(deliveries) == 1
        assert deliveries[0].startswith(f"{sent_at + 1}|bob|")

    def test_spoofed_message_dropped(self):
        sim = basic_sim()
        sim.add_host("mallory", Role.ADVERSARY, "HOME")
        sim.schedule_script(0, ("SPOOF", "mallory", "alice", "government"))
        sim.run_until(3)
        assert any("|bad_signature|" in line for line in sim.observations)
        assert not any("|message|" in line for line in sim.observations)

    def test_same_tick_sends_deliver_in_order(self):
        sim = basic_sim(latency=(1, 1))
        sim.run_until(0)
        sim.send("alice", "bob", "first")
        sim.send("alice", "bob", "second")
        sim.run_until(2)
        bodies = [
            line.rsplit("body=", 1)[1]
            for line in sim.observations
            if "|message|" in line
        ]
        assert bodies == ["first", "second"]

    def test_unknown_host(self):
        sim = basic_sim()
        with pytest.raises(UnknownHost):
            sim.send("alice", "nobody", "hi")

    def test_zero_latency_messages_are_not_lost(self):
        # a zero-latency notify emitted during upkeep lands next drain
        sim = basic_sim(latency=(0, 0))
        sim.add_policy(
            "chatty", 'OBLIGATION ON TICK IF now == 2 DO NOTIFY "government";'
        )
        sim.schedule_script(0, ("ISSUE", "central", "alice", "100", "chatty"))
        sim.run_until(4)
        assert any("|message|" in line for line in sim.observations)
        assert sim.scheduled_count == sim.executed_count + len(sim._queue)


class TestLawAndAttestation:
    def test_law_lookup(self):
        sim = basic_sim()
        sim.law.add("weapons", LawStatus.LICENCE_REQUIRED, Fraction(1, 10))
        entry = sim.query_law("weapons")
        assert entry.status is LawStatus.LICENCE_REQUIRED
        assert entry.tax_rate == Fraction(1, 10)

    def test_unknown_category(self):
        sim = basic_sim()
        with pytest.raises(UnknownCategory):
            sim.query_law("mystery")

    def test_attestation_tracks_location(self):
        sim = basic_sim()
        att = sim.attest("alice")
        assert att.location == "HOME"
        sim.hosts["alice"].location = "ABROAD"
        assert sim.attest("alice").location == "ABROAD"

    def test_attestation_verifies_for_third_parties(self):
        from progmoney.crypto import verify_attestation

        sim = basic_sim()
        assert verify_attestation(sim.directory, sim.attest("bob"))


class TestUpkeep:
    def test_tampered_unit_zeroises_same_tick(self):
        sim = basic_sim()
        sim.add_policy("taxed", 'OBLIGATION ON RECEIVE IF category == "sale" DO PAY 1/5 TO "tax_authority";')
        sim.schedule_script(0, ("ISSUE", "central", "alice", "400", "taxed"))
        sim.schedule_script(3, ("TAMPER", "alice"))
        sim.run_until(3)
        assert any("|tamper_detected|" in line for line in sim.observations)
        zeroises = [line for line in sim.observations if "|zeroise|" in line]
        assert len(zeroises) == 1 and zeroises[0].startswith("3|")
        assert "reason=tamper" in zeroises[0]
        assert sim.registry.total_burned == 400
        assert sim.registry.audit() == []

    def test_jurisdiction_zeroise_within_one_tick(self):
        sim = basic_sim()
        sim.add_policy("homebound", 'OBLIGATION ON TICK IF location != "HOME" DO ZEROISE, NOTIFY "government";')
        sim.schedule_script(0, ("ISSUE", "central", "alice", "700", "homebound"))
        sim.schedule_script(5, ("MOVE_HOST", "alice", "PANAMA"))
        sim.run_until(6)
        zeroises = [line for line in sim.observations if "|zeroise|" in line]
        assert len(zeroises) == 1
        assert zeroises[0].startswith("5|alice|")
        assert "reason=jurisdiction" in zeroises[0]

    def test_withheld_attestation_triggers_attest_fail(self):
        sim = basic_sim()
        sim.add_policy("homebound", 'OBLIGATION ON ATTEST_FAIL DO ZEROISE, NOTIFY "government";')
        sim.schedule_script(0, ("ISSUE", "central", "alice", "300", "homebound"))
        sim.schedule_script(4, ("WITHHOLD", "alice", "on"))
        sim.run_until(5)
        assert any(line.startswith("4|alice|attest_fail") for line in sim.observations)
        zeroises = [line for line in sim.observations if "|zeroise|" in line]
        assert zeroises and "reason=attest_fail" in zeroises[0]

    def test_annual_contact_refresh(self):
        sim = basic_sim(year_ticks=10, period_ticks=10)
        sim.add_policy("declared", 'OBLIGATION ON TICK IF last_contact > 10 DO ZEROISE, NOTIFY "government";')
        sim.schedule_script(0, ("ISSUE", "central", "alice", "100", "declared"))
        sim.schedule_script(0, ("ISSUE", "central", "bob", "100", "declared"))
        sim.schedule_script(8, ("CONTACT", "bob"))
        sim.run_until(12)
        zeroises = [line for line in sim.observations if "|zeroise|" in line]
        assert len(zeroises) == 1
        assert zeroises[0].startswith("11|alice|")
        assert "reason=contact" in zeroises[0]
        assert sim.balance_of("bob") == 100

    def test_expiry_forbids_then_burns(self):
        sim = basic_sim()
        sim.add_policy(
            "stimulus",
            "PROHIBITION ON TRANSFER_REQUEST IF now > 5;\nOBLIGATION ON TICK IF now > 5 DO ZEROISE;",
        )
        sim.schedule_script(0, ("ISSUE", "central", "alice", "100", "stimulus"))
        sim.schedule_script(6, ("BUY", "alice", "bob", "100", "sale"))
        sim.run_until(7)
        assert any("|forbidden|" in line for line in sim.observations)
        zeroises = [line for line in sim.observations if "|zeroise|" in line]
        assert zeroises and "reason=expiry" in zeroises[0]
        assert zeroises[0].startswith("6|")
        assert sim.forbidden_count == 1

    def test_tick_pay_obligation_executes(self):
        # a demurrage-style levy: 10% to the tax authority at tick 3
        sim = basic_sim()
        sim.add_policy(
            "levied",
            'OBLIGATION ON TICK IF now == 3 DO PAY 1/10 TO "tax_authority";',
        )
        sim.schedule_script(0, ("ISSUE", "central", "alice", "500", "levied"))
        sim.run_until(4)
        assert sim.balance_of("tax_authority") == 50
        assert sim.balance_of("alice") == 450
        assert sim.registry.audit() == []

    def test_tampered_unit_zeroises_when_spent(self):
        # tamper and spend inside the same tick, before upkeep runs
        sim = basic_sim()
        sim.add_policy("taxed", 'OBLIGATION ON RECEIVE IF category == "sale" DO PAY 1/5 TO "tax_authority";')
        sim.schedule_script(0, ("ISSUE", "central", "alice", "300", "taxed"))
        sim.schedule_script(2, ("TAMPER", "alice"))
        sim.schedule_script(2, ("BUY", "alice", "bob", "300", "sale"))
        sim.run_until(2)
        assert any("|insufficient_funds|" in line for line in sim.observations)
        zeroises = [line for line in sim.observations if "|zeroise|" in line]
        assert len(zeroises) == 1 and "reason=tamper" in zeroises[0]
        assert sim.balance_of("bob") == 0
        assert sim.registry.total_burned == 300

    def test_unit_expiry_read_from_policy(self):
        sim = basic_sim()
        sim.add_policy(
            "stimulus",
            "PROHIBITION ON TRANSFER_REQUEST IF now > 5;\nOBLIGATION ON TICK IF now > 5 DO ZEROISE;",
        )
        sim.schedule_script(0, ("MINT", "central", "100", "stimulus"))
        sim.run_until(0)
        unit = next(iter(sim.units.values()))
        assert unit.expiry == 5


class TestBuy:
    def test_exact_change_and_tax(self):
        sim = basic_sim()
        sim.add_policy("taxed", 'OBLIGATION ON RECEIVE IF category == "sale" DO PAY 1/5 TO "tax_authority";')
        sim.schedule_script(0, ("ISSUE", "central", "alice", "300", "taxed"))
        sim.schedule_script(0, ("ISSUE", "central", "alice", "300", "taxed"))
        sim.schedule_script(2, ("BUY", "alice", "bob", "450", "sale"))
        sim.run_until(3)
        assert sim.balance_of("alice") == 150
        assert sim.balance_of("bob") == 360  # 450 - floor(450/5)
        assert sim.balance_of("tax_authority") == 90
        assert sim.registry.audit() == []

    def test_insufficient_funds(self):
        sim = basic_sim()
        sim.schedule_script(0, ("ISSUE", "central", "alice", "100", "empty"))
        sim.schedule_script(1, ("BUY", "alice", "bob", "500", "sale"))
        sim.run_until(2)
        assert any("|insufficient_funds|" in line for line in sim.observations)
        assert sim.balance_of("alice") == 100

    def test_unknown_category_is_config_error(self):
        sim = basic_sim()
        sim.schedule_script(0, ("ISSUE", "central", "alice", "100", "empty"))
        sim.schedule_script(1, ("BUY", "alice", "bob", "100", "contraband"))
        with pytest.raises(UnknownCategory):
            sim.run_until(2)


class TestDelegation:
    def delegation_sim(self):
        sim = Simulation(seed=3, scenario_name="delegation", year_ticks=20, period_ticks=10)
        sim.add_host("central", Role.CENTRAL_BANK, "HOME")
        sim.add_host("judy", Role.CONSUMER, "HOME")
        sim.add_host("bank_a", Role.BANK, "HOME")
        sim.add_host("bank_b", Role.BANK, "HOME")
        sim.add_host("government", Role.LAW_SERVER, "HOME")
        sim.add_policy("seeker", "OBLIGATION ON TICK DO MOVE_TO_BEST_RATE;")
        return sim

    def test_one_tick_decision_latency(self):
        sim = self.delegation_sim()
        sim.schedule_script(0, ("ISSUE", "central", "judy", "1000", "seeker"))
        sim.schedule_script(0, ("MINT", "bank_b", "5000", "seeker"))
        sim.schedule_script(4, ("RATE", "bank_b", "2/100"))
        sim.run_until(6)
        moves = [line for line in sim.observations if "|delegated_move|" in line]
        assert len(moves) == 1
        assert moves[0].startswith("5|judy|")  # rate seen at 4, move lands at 5
        transfer_ticks = [
            rec.at
            for rec in sim.registry.records
            if rec.kind.value == "TRANSFER" and rec.parties[1] == "bank_b"
        ]
        assert transfer_ticks == [5]

    def test_no_churn_without_board_changes(self):
        sim = self.delegation_sim()
        sim.schedule_script(0, ("ISSUE", "central", "judy", "1000", "seeker"))
        sim.schedule_script(0, ("MINT", "bank_a", "5000", "seeker"))
        sim.schedule_script(2, ("RATE", "bank_a", "1/100"))
        sim.run_until(30)
        moves = [line for line in sim.observations if "|delegated_move|" in line]
        assert len(moves) == 1  # the initial deposit, then zero churn

    def test_moves_to_strictly_better_rate(self):
        sim = self.delegation_sim()
        sim.schedule_script(0, ("ISSUE", "central", "judy", "1000", "seeker"))
        sim.schedule_script(0, ("MINT", "bank_a", "5000", "seeker"))
        sim.schedule_script(0, ("MINT", "bank_b", "5000", "seeker"))
        sim.schedule_script(2, ("RATE", "bank_a", "1/100"))
        sim.schedule_script(2, ("RATE", "bank_b", "1/100"))
        sim.schedule_script(8, ("RATE", "bank_b", "3/100"))
        sim.run_until(12)
        moves = [line for line in sim.observations if "|delegated_move|" in line]
        assert [line.split("target=")[1].split()[0] for line in moves] == [
            "bank_a",
            "bank_b",
        ]

    def test_owner_restriction_beats_best_rate(self):
        sim = self.delegation_sim()
        sim.add_host("shark", Role.BANK, "HOME", category="arms_lender")
        sim.add_policy(
            "picky",
            'PROHIBITION ON TRANSFER_REQUEST IF category == "arms_lender";\n'
            "OBLIGATION ON TICK DO MOVE_TO_BEST_RATE;",
        )
        sim.schedule_script(0, ("ISSUE", "central", "judy", "1000", "picky"))
        sim.schedule_script(2, ("RATE", "shark", "9/100"))
        sim.schedule_script(2, ("RATE", "bank_a", "1/100"))
        sim.run_until(8)
        assert any("|move_forbidden|" in line for line in sim.observations)
        moved = [line for line in sim.observations if "|delegated_move|" in line]
        assert moved == []  # the best rate is prohibited, so no move at all
        assert sim.balance_of("judy") == 1000

    def test_interest_accrues_via_merge(self):
        sim = self.delegation_sim()
        sim.schedule_script(0, ("ISSUE", "central", "judy", "10000", "seeker"))
        sim.schedule_script(0, ("MINT", "bank_b", "100000", "seeker"))
        sim.schedule_script(2, ("RATE", "bank_b", "2/100"))
        sim.run_until(10)
        interest = [line for line in sim.observations if "|interest|" in line]
        assert len(interest) == 1
        # 2%/year over 2 periods/year on 10000 = 100 per period
        assert "amount=100" in interest[0]
        merges = [rec for rec in sim.registry.records if rec.kind.value == "MERGE"]
        assert merges
        assert sim.registry.audit() == []

    def test_realized_rate_non_decreasing_on_improving_board(self):
        sim = self.delegation_sim()
        sim.schedule_script(0, ("ISSUE", "central", "judy", "1000", "seeker"))
        sim.schedule_script(2, ("RATE", "bank_a", "1/100"))
        sim.schedule_script(6, ("RATE", "bank_b", "2/100"))
        sim.schedule_script(10, ("RATE", "bank_a", "4/100"))
        sim.run_until(15)
        realized = []
        deposit_holders = []
        for line in sim.observations:
            if "|delegated_move|" in line:
                rate = Fraction(line.rsplit("rate=", 1)[1])
                realized.append(rate)
        assert realized == sorted(realized)
        assert len(realized) == 3


class TestSupplyInSim:
    def test_growth_rule_mints_each_period(self):
        sim = Simulation(seed=2, scenario_name="supply", year_ticks=10, period_ticks=10)
        sim.add_host("central", Role.CENTRAL_BANK, "HOME")
        sim.supply_rule = ConstantGrowth(Fraction(2, 100))
        sim.supply_issuer = "central"
        sim.schedule_script(0, ("MINT", "central", "1000000", "empty"))
        sim.run_until(100)
        assert sim.registry.live_supply == 1_218_991
        assert len(sim.trajectory) == 10
        assert sim.registry.audit() == []

    def test_deflation_clamp_logged_when_treasury_short(self):
        sim = Simulation(seed=2, scenario_name="deflate", year_ticks=5, period_ticks=5)
        sim.add_host("central", Role.CENTRAL_BANK, "HOME")
        sim.add_host("alice", Role.CONSUMER, "HOME")
        sim.supply_rule = ConstantGrowth(Fraction(-1, 2))
        sim.supply_issuer = "central"
        # nearly everything circulates: treasury 100 against a 500 burn demand
        sim.schedule_script(0, ("MINT", "central", "100", "empty"))
        sim.schedule_script(1, ("ISSUE", "central", "alice", "900", "empty"))
        sim.run_until(5)
        assert any("|supply_clamp|" in line for line in sim.observations)
        burns = [line for line in sim.observations if "|supply_burn|" in line]
        assert burns and "amount=100" in burns[0]
        assert sim.registry.audit() == []

    def test_trajectory_observations_match_points(self):
        sim = Simulation(seed=2, scenario_name="supply", year_ticks=4, period_ticks=4)
        sim.add_host("central", Role.CENTRAL_BANK, "HOME")
        sim.supply_rule = ConstantGrowth(Fraction(1, 10))
        sim.supply_issuer = "central"
        sim.schedule_script(0, ("MINT", "central", "1000", "empty"))
        sim.run_until(12)
        rows = [line for line in sim.observations if "|trajectory|" in line]
        assert len(rows) == len(sim.trajectory) == 3


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.scn")))
def test_balances_match_the_report(name):
    # the simulation reads holdings from the live registry; the report
    # rebuilds them by replaying the exported ledger
    sim = run_scenario(load_scenario(str(SCENARIO_DIR / name)), seed=7)
    lines = render_report(report_for(sim)).splitlines()
    reported = {
        key[len("balance."):]: int(value)
        for key, value in (line.split(" = ", 1) for line in lines if line.startswith("balance."))
    }
    assert set(reported) >= set(sim.hosts)
    for host_id in sim.hosts:
        assert sim.balance_of(host_id) == reported[host_id], host_id


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.scn")))
def test_unit_store_is_the_live_set(name):
    cfg = load_scenario(str(SCENARIO_DIR / name))
    sim = build_simulation(cfg, seed=7)
    for tick in range(cfg.until + 1):
        sim.run_until(tick)
        live = sim.registry.live_units()
        assert set(sim.units) == set(live), tick
        for uid, unit in sim.units.items():
            assert (unit.owner, unit.value) == live[uid], (tick, uid)


def taxed_scenario(policy: str, script: str) -> str:
    return (
        "[sim]\nname = taxed\nuntil = 6\nyear_ticks = 20\nperiod_ticks = 10\n"
        "[hosts]\ncentral = CENTRAL_BANK HOME\ntaker = CONSUMER HOME\n"
        "maker = VENDOR HOME\nbank_a = BANK HOME\ntax_authority = TAX_AUTHORITY HOME\n"
        f"[policies]\ntaxed = {policy}\n[script]\n{script}"
    )


def run_cli_scenario(tmp_path, text: str):
    """Run `text` through `progmoney run`; returns (observation lines, ledger lines)."""
    scenario, out = tmp_path / "taxed.scn", tmp_path / "out"
    scenario.write_text(text, encoding="utf-8")
    assert run_cli(["run", str(scenario), "--seed", "7", "--out", str(out)]) == 0
    assert run_cli(["audit", str(out / LEDGER_FILE)]) == 0
    return (
        (out / OBSERVATIONS_FILE).read_text(encoding="utf-8").splitlines(),
        (out / LEDGER_FILE).read_text(encoding="utf-8").splitlines(),
    )


ONE_TRADE = "0 ISSUE central taker 1000 taxed\n2 ORDER ASK 100 1 maker\n3 ORDER BID 100 1 taker\n"


@pytest.mark.parametrize(
    "policy, script, refusal",
    [
        (
            "sales_tax 3/5 issuance + sales_tax 3/5 issuance",
            "0 ISSUE central taker 1000 taxed\n",
            "|central|forbidden|unit=u1 category=issuance error=ObligationUnpayable",
        ),
        (
            "sales_tax 3/5 trade + sales_tax 3/5 trade",
            ONE_TRADE,
            "|taker|forbidden|unit=u2 category=trade error=ObligationUnpayable",
        ),
        (
            "rate_seeker + sales_tax 3/5 deposit + sales_tax 3/5 deposit",
            "0 ISSUE central taker 1000 taxed\n2 RATE bank_a 1/100\n",
            "|taker|move_failed|unit=u1 error=ObligationUnpayable",
        ),
    ],
    ids=["issue", "trade_settlement", "delegated_move"],
)
def test_unpayable_taxes_are_refused_not_a_crash(tmp_path, policy, script, refusal):
    # the two rules together pay 6/5 of the unit, more than it is worth
    observations, _ = run_cli_scenario(tmp_path, taxed_scenario(policy, script))
    assert any(refusal in line for line in observations)


@pytest.mark.parametrize(
    "policy, refusal",
    [
        ("rate_seeker + sales_tax 3/5 deposit + sales_tax 3/5 deposit", "move_failed"),
        ("rate_seeker + owner_restriction deposit", "move_forbidden"),
    ],
    ids=["move_failed", "move_forbidden"],
)
def test_refused_move_waits_for_a_new_rate(tmp_path, policy, refusal):
    def moves(script):
        observations, _ = run_cli_scenario(tmp_path, taxed_scenario(policy, script))
        return [
            (int(tick), event)
            for tick, host, event, _ in (line.split("|") for line in observations)
            if host == "taker" and event.startswith("move_")
        ]

    script = "0 ISSUE central taker 1000 taxed\n2 RATE bank_a 1/100\n"
    assert moves(script) == [(2, "move_planned"), (3, refusal)]
    # a new rate clears the refusal, so the move is tried once more
    assert moves(script + "4 RATE bank_a 2/100\n") == [
        (2, "move_planned"), (3, refusal), (4, "move_planned"), (5, refusal)
    ]


def test_issue_and_trade_taxes_are_observed(tmp_path):
    observations, ledger = run_cli_scenario(
        tmp_path, taxed_scenario("sales_tax 1/5 issuance + sales_tax 1/10 trade", ONE_TRADE)
    )
    records = [parse_ledger_line(line) for line in ledger]
    taxes = [
        (rec.unit_ids[0], rec.amounts[0])
        for rec in records
        if rec.kind.value == "TRANSFER" and rec.parties[1] == "tax_authority"
    ]
    assert [amount for _, amount in taxes] == [200, 10]
    paid = [line for line in observations if "|pay_obligation|" in line]
    assert [line.split("|", 3)[3] for line in paid] == [
        f"unit={uid} to=tax_authority amount={amount}" for uid, amount in taxes
    ]
