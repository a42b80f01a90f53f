"""The discrete-event environment: clock, messaging, upkeep, delegation."""

from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from progmoney.cli import LEDGER_FILE, OBSERVATIONS_FILE, run_cli
from progmoney.registry import RecordKind, parse_ledger_line
from progmoney.report import render_report, report_for
from progmoney.scenario import build_simulation, load_scenario, parse_scenario, run_scenario
from progmoney.sim import Simulation
from progmoney.sim_types import LawStatus, Role, SchedulePast, UnknownCategory, UnknownHost
from progmoney.supply import ConstantGrowth

SCENARIO_DIR = (
    Path(__file__).resolve().parents[1] / "src" / "progmoney" / "data" / "scenarios"
)


@pytest.fixture
def scheduled(monkeypatch):
    """Every (at, call, args) `Simulation._schedule` queues, in order."""
    calls = []
    schedule = Simulation._schedule

    def counted(sim, at, call, *args):
        schedule(sim, at, call, *args)
        calls.append((at, call, args))

    monkeypatch.setattr(Simulation, "_schedule", counted)
    return calls


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
        # a later tick queued first still runs last; one tick runs in queue order
        sim = basic_sim()
        sim.schedule_script(3, ("MOVE_HOST", "alice", "C"))
        sim.schedule_script(2, ("MOVE_HOST", "alice", "A"))
        sim.schedule_script(2, ("MOVE_HOST", "alice", "B"))
        sim.run_until(3)
        moves = [line for line in sim.observations if "move_host" in line]
        assert [line.rsplit("=", 1)[1] for line in moves] == ["A", "B", "C"]
        assert moves[1].startswith("2|") and moves[2].startswith("3|")
        assert sim.hosts["alice"].location == "C"

    def test_schedule_past_rejected(self):
        sim = basic_sim()
        sim.run_until(5)
        with pytest.raises(SchedulePast):
            sim.schedule_script(4, ("CONTACT", "alice"))

    def test_unknown_action_fails_when_scheduled(self):
        sim = basic_sim()
        with pytest.raises(KeyError):
            sim.schedule_script(0, ("NOPE",))
        assert sim._queue == []

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

    def test_no_event_loss(self, scheduled):
        sim = basic_sim()
        sim.schedule_script(0, ("ISSUE", "central", "alice", "500", "empty"))
        sim.schedule_script(2, ("BUY", "alice", "bob", "500", "sale"))
        sim.schedule_script(20, ("CONTACT", "alice"))  # beyond the horizon
        sim.run_until(10)
        pending = len(sim._queue)
        assert len(scheduled) == sim.executed_count + pending
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

    def test_zero_latency_messages_are_not_lost(self, scheduled):
        # a zero-latency notify emitted during upkeep lands next drain
        sim = basic_sim(latency=(0, 0))
        sim.add_policy(
            "chatty", 'OBLIGATION ON TICK IF now == 2 DO NOTIFY "government";'
        )
        sim.schedule_script(0, ("ISSUE", "central", "alice", "100", "chatty"))
        sim.run_until(4)
        assert any("|message|" in line for line in sim.observations)
        assert len(scheduled) == sim.executed_count + len(sim._queue)


class TestRandomStreams:
    """Keys, latencies and tamper positions each come from their own stream."""

    ADVERSARY = (SCENARIO_DIR / "adversary.scn").read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "edit",
        [
            ("[law]", "carol = CONSUMER HOME\n\n[law]"),  # one more key drawn
            ("6 TAMPER", "5 SPOOF mallory bob government\n6 TAMPER"),  # one more latency
        ],
        ids=["extra_host", "extra_send"],
    )
    def test_tamper_position_ignores_other_draws(self, edit):
        def tampers(text):
            sim = run_scenario(parse_scenario(text), seed=7)
            return [line for line in sim.observations if "|tamper|" in line]

        assert tampers(self.ADVERSARY) == ["6|alice|tamper|unit=u2 pos=79"]
        assert tampers(self.ADVERSARY.replace(*edit)) == tampers(self.ADVERSARY)

    def test_latency_ignores_key_draws(self):
        def deliveries(extra_hosts):
            sim = basic_sim(latency=(1, 9))
            for name in extra_hosts:
                sim.add_host(name, Role.CONSUMER, "HOME")
            sim.run_until(0)
            for _ in range(5):
                sim.send("alice", "bob", "hello")
            sim.run_until(10)
            return [line for line in sim.observations if "|message|" in line]

        assert len(deliveries(())) == 5
        assert deliveries(("carol", "dave")) == deliveries(())


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
        assert sim.registry.fold.burned == 400
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
        assert report_for(sim).balances["bob"] == 100

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
        assert report_for(sim).forbidden_count == 1

    def test_tick_pay_obligation_executes(self):
        # a demurrage-style levy: 10% to the tax authority at tick 3
        sim = basic_sim()
        sim.add_policy(
            "levied",
            'OBLIGATION ON TICK IF now == 3 DO PAY 1/10 TO "tax_authority";',
        )
        sim.schedule_script(0, ("ISSUE", "central", "alice", "500", "levied"))
        sim.run_until(4)
        balances = report_for(sim).balances
        assert balances["tax_authority"] == 50
        assert balances["alice"] == 450
        assert sim.registry.audit() == []

    def test_tick_levy_pays_no_tax_on_itself(self):
        # a levy is an obligation payment: the RECEIVE tax does not apply to it
        sim = basic_sim()
        sim.add_host("x", Role.CONSUMER, "HOME")
        sim.add_host("y", Role.CONSUMER, "HOME")
        sim.add_policy(
            "levied",
            'OBLIGATION ON TICK IF now == 3 DO PAY 1/10 TO "x";\n'
            'OBLIGATION ON RECEIVE DO PAY 1/10 TO "y";',
        )
        sim.schedule_script(0, ("MINT", "central", "1000", "levied"))
        sim.run_until(4)
        balances = report_for(sim).balances
        assert balances["x"] == 100
        assert balances["y"] == 0
        assert balances["central"] == 900
        assert sim.registry.audit() == []

    def test_refused_tick_levy_changes_nothing(self):
        sim = basic_sim()
        sim.add_policy(
            "levied",
            'OBLIGATION ON TICK IF now == 3 DO PAY 1/10 TO "tax_authority";\n'
            'PROHIBITION ON TRANSFER_REQUEST IF category == "obligation";',
        )
        sim.schedule_script(0, ("MINT", "central", "1000", "levied"))
        sim.run_until(4)
        (unit_id,) = sim.registry.holdings("central")
        assert sim.units[unit_id].value == 1000
        assert [r.kind for r in sim.registry.records] == [RecordKind.MINT]
        assert f"3|central|obligation_blocked|unit={unit_id} error=PolicyForbids" in (
            sim.observations
        )

    @pytest.mark.parametrize(
        "rule, script",
        [
            (
                'OBLIGATION ON ATTEST_FAIL IF home == "HOME" DO ZEROISE, NOTIFY "government";',
                ("WITHHOLD", "alice", "on"),
            ),
            ('OBLIGATION ON TAMPER IF home == "HOME" DO NOTIFY "government";', ("TAMPER", "alice")),
            (
                'OBLIGATION ON TICK IF home == "HOME" AND location != "HOME" '
                'DO ZEROISE, NOTIFY "government";',
                ("MOVE_HOST", "alice", "ABROAD"),
            ),
        ],
        ids=["attest_fail", "tamper", "tick"],
    )
    def test_conditioned_zeroise_notice_is_sent(self, rule, script):
        # the condition reads the unit's home, which the notice is evaluated with
        sim = basic_sim()
        sim.add_policy("p", rule)
        sim.schedule_script(0, ("ISSUE", "central", "alice", "300", "p"))
        sim.schedule_script(3, script)
        sim.run_until(4)
        upkeep = [line for line in sim.observations if line.startswith("3|alice|")]
        assert [line.split("|")[2] for line in upkeep][-2:] == ["zeroise", "notify"]
        assert upkeep[-1] == "3|alice|notify|target=government"
        assert any(
            line.startswith("4|government|message|sender=alice body=zeroise ")
            for line in sim.observations
        )

    def test_attest_fail_notice_names_its_event(self):
        sim = basic_sim()
        sim.add_policy("p", 'OBLIGATION ON ATTEST_FAIL DO NOTIFY "government";')
        sim.schedule_script(0, ("ISSUE", "central", "alice", "300", "p"))
        sim.schedule_script(3, ("WITHHOLD", "alice", "on"))
        sim.run_until(4)
        assert "3|alice|notify|target=government" in sim.observations
        assert "4|government|message|sender=alice body=attest_fail unit=u1" in sim.observations
        assert report_for(sim).balances["alice"] == 300

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
        assert report_for(sim).balances["bob"] == 0
        assert sim.registry.fold.burned == 300

    def test_unit_expiry_read_from_policy(self):
        sim = basic_sim()
        sim.add_policy(
            "stimulus",
            "PROHIBITION ON TRANSFER_REQUEST IF now > 5;\nOBLIGATION ON TICK IF now > 5 DO ZEROISE;",
        )
        sim.schedule_script(0, ("MINT", "central", "100", "stimulus"))
        sim.run_until(0)
        unit = next(iter(sim.units.values()))
        assert unit.policy.deadline == 5
        assert sim._eval_ctx(sim.hosts["central"], unit).expiry == 5

    def test_unit_without_a_birth_origin_is_zeroised_as_tamper(self):
        sim = basic_sim()
        sim.add_policy("p", 'OBLIGATION ON TAMPER IF home == NONE DO NOTIFY "government";')
        sim.schedule_script(0, ("MINT", "central", "100", "p"))
        sim.run_until(0)
        unit = next(iter(sim.units.values()))
        unit.lineage = replace(unit.lineage, origin=None)  # a forged MINT
        # moving the holder wakes its units for the next upkeep
        sim.schedule_script(1, ("MOVE_HOST", "central", "HOME"))
        sim.run_until(2)
        assert "1|central|tamper_detected|unit=u1 problems=2" in sim.observations
        assert "1|central|zeroise|unit=u1 reason=tamper value=100" in sim.observations
        # with no origin there is no home to evaluate the TAMPER rule against
        assert "1|central|notify|target=government" in sim.observations
        assert sim.units == {}


class TestReceiveObligations:
    """The recipient carries out a RECEIVE decision's obligations as upkeep does a TICK's."""

    def test_issue_reports_the_value_issued(self):
        sim = basic_sim()
        sim.add_policy("p", 'OBLIGATION ON RECEIVE DO ZEROISE, NOTIFY "government";')
        # the recipient holds nothing of a unit its RECEIVE rule zeroised
        assert sim.act_issue("central", "alice", "100", "p") is None
        assert sim.observations[-1] == "0|central|issue|unit=u1 to=alice value=100"
        kept = sim.act_issue("central", "alice", "50")
        assert kept is not None and kept.owner == "alice" and kept.value == 50

    def test_zeroise_sends_the_zeroise_notice(self):
        sim = basic_sim()
        sim.add_policy("p", 'OBLIGATION ON RECEIVE DO ZEROISE, NOTIFY "government";')
        sim.schedule_script(0, ("ISSUE", "central", "alice", "100", "p"))
        sim.run_until(2)
        assert [line for line in sim.observations if line.startswith("0|alice|")] == [
            "0|alice|zeroise|unit=u1 reason=policy value=100",
            "0|alice|notify|target=government",
        ]
        assert [line for line in sim.observations if "|government|" in line] == [
            "1|government|message|sender=alice body=zeroise unit=u1 reason=policy value=100"
        ]
        assert sim.registry.fold.burned == 100
        assert sim.units == {}
        assert sim.registry.audit() == []

    def test_nothing_runs_after_a_zeroise(self):
        sim = basic_sim()
        sim.add_policy(
            "p",
            'OBLIGATION ON RECEIVE DO ZEROISE;\nOBLIGATION ON RECEIVE DO NOTIFY "government";',
        )
        sim.schedule_script(0, ("ISSUE", "central", "alice", "100", "p"))
        sim.run_until(2)
        # the only notice is the zeroise's, sent once
        assert [line for line in sim.observations if "|government|" in line] == [
            "1|government|message|sender=alice body=zeroise unit=u1 reason=policy value=100"
        ]

    def test_taxed_receipt_notifies_on_what_is_left(self):
        sim = basic_sim()
        sim.add_policy(
            "p",
            'OBLIGATION ON RECEIVE DO NOTIFY "government";\n'
            'OBLIGATION ON RECEIVE DO PAY 1/5 TO "tax_authority";',
        )
        sim.schedule_script(0, ("ISSUE", "central", "alice", "100", "p"))
        sim.run_until(2)
        # the payments are written first, then the recipient's notice on the rest
        assert [line for line in sim.observations if line.startswith("0|alice|")] == [
            "0|alice|pay_obligation|unit=u2 to=tax_authority amount=20",
            "0|alice|notify|target=government",
        ]
        assert "1|government|message|sender=alice body=receive unit=u3" in sim.observations

    def test_move_to_best_rate_is_planned(self):
        sim = Simulation(seed=3, scenario_name="delegation")
        sim.add_host("central", Role.CENTRAL_BANK, "HOME")
        sim.add_host("judy", Role.CONSUMER, "HOME")
        sim.add_host("bank_a", Role.BANK, "HOME")
        sim.add_policy("seeker", "OBLIGATION ON RECEIVE DO MOVE_TO_BEST_RATE;")
        sim.schedule_script(0, ("RATE", "bank_a", "1/100"))
        sim.schedule_script(0, ("ISSUE", "central", "judy", "1000", "seeker"))
        sim.run_until(3)
        assert "0|judy|move_planned|unit=u1 target=bank_a" in sim.observations
        assert "1|judy|delegated_move|unit=u1 target=bank_a rate=1/100" in sim.observations
        # the bank's own receipt plans nothing: the deposit is already at the best rate
        assert [line for line in sim.observations if "|move_planned|" in line] == [
            "0|judy|move_planned|unit=u1 target=bank_a"
        ]
        assert report_for(sim).balances["bank_a"] == 1000
        assert sim.deposits == set(sim.registry.holdings("bank_a"))

    def test_deposit_zeroised_on_receipt_is_not_kept(self):
        sim = Simulation(seed=3, scenario_name="delegation")
        sim.add_host("central", Role.CENTRAL_BANK, "HOME")
        sim.add_host("judy", Role.CONSUMER, "HOME")
        sim.add_host("bank_a", Role.BANK, "HOME")
        sim.add_policy(
            "p",
            "OBLIGATION ON TICK DO MOVE_TO_BEST_RATE;\n"
            'OBLIGATION ON RECEIVE IF category == "deposit" DO ZEROISE;',
        )
        sim.schedule_script(0, ("RATE", "bank_a", "1/100"))
        sim.schedule_script(0, ("ISSUE", "central", "judy", "1000", "p"))
        sim.run_until(2)
        assert "1|bank_a|zeroise|unit=u1 reason=policy value=1000" in sim.observations
        assert sim.deposits == set()


def three_hosts(policy: str = "") -> Simulation:
    """central keeps 2 units, alice holds 3 and bob 2, all minted at tick 0."""
    sim = Simulation(seed=1, scenario_name="test")
    sim.add_host("central", Role.CENTRAL_BANK, "HOME")
    sim.add_host("alice", Role.CONSUMER, "HOME")
    sim.add_host("bob", Role.VENDOR, "HOME")
    sim.add_policy("p", policy)
    for value in (70, 80):
        sim.schedule_script(0, ("MINT", "central", str(value), "p"))
    for holder, values in (("alice", (100, 200, 300)), ("bob", (40, 50))):
        for value in values:
            sim.schedule_script(0, ("ISSUE", "central", holder, str(value), "p"))
    return sim


def units_held(sim: Simulation) -> dict[str, set[str]]:
    return {h: set(sim.registry.holdings(h)) for h in ("central", "alice", "bob")}


def never_attesting(how: str, policy: str) -> tuple[Simulation, str]:
    """`three_hosts`, with one host that never attests: alice withholding, or an adversary."""
    sim = three_hosts(policy)
    if how == "withhold":
        sim.schedule_script(0, ("WITHHOLD", "alice", "on"))
        return sim, "alice"
    sim.add_host("mallory", Role.ADVERSARY, "HOME")
    for value in (60, 90):
        sim.schedule_script(0, ("ISSUE", "central", "mallory", str(value), "p"))
    return sim, "mallory"


class TestAttestationPerHost:
    def test_one_attestation_per_host_and_tick(self, monkeypatch):
        upkept = []
        upkeep_unit = Simulation._upkeep_unit
        monkeypatch.setattr(
            Simulation,
            "_upkeep_unit",
            lambda self, host, unit: upkept.append(host.id) or upkeep_unit(self, host, unit),
        )
        sim = three_hosts()
        sim.run_until(4)
        assert {h: len(ids) for h, ids in units_held(sim).items()} == {
            "central": 2, "alice": 3, "bob": 2
        }
        # the units are visited when placed at tick 0; with no TICK rule
        # nothing they hold can change with time, so none is due again
        assert sorted(upkept) == ["alice"] * 3 + ["bob"] * 2 + ["central"] * 2

    @pytest.mark.parametrize("how", ["withhold", "adversary"])
    def test_never_attesting_host_reaches_every_unit(self, how):
        sim, failing = never_attesting(how, "OBLIGATION ON TICK IF now > 1 DO ZEROISE;")
        sim.run_until(1)
        held = {h: sim.registry.holdings(h) for h in sim.hosts}
        sim.run_until(3)
        # every unit of the host writes attest_fail every tick and never
        # runs its TICK rules; every other host's unit zeroises at tick 2
        assert [line for line in sim.observations if "|attest_fail|" in line] == [
            f"{t}|{failing}|attest_fail|unit={uid}" for t in range(4) for uid in held[failing]
        ]
        zeroised = [
            (t, h, details.split()[0])
            for t, h, event, details in (line.split("|") for line in sim.observations)
            if event == "zeroise"
        ]
        assert zeroised == [
            ("2", h, f"unit={uid}") for h in sorted(held) if h != failing for uid in held[h]
        ]
        assert sim.registry.holdings(failing) == held[failing]

    @pytest.mark.parametrize("how", ["withhold", "adversary"])
    def test_never_attesting_host_runs_attest_fail_rules(self, how):
        sim, failing = never_attesting(how, "OBLIGATION ON ATTEST_FAIL DO ZEROISE;")
        sim.run_until(0)
        held = [line.split("unit=")[1] for line in sim.observations if "|attest_fail|" in line]
        upkeep = [
            line.split("|")
            for line in sim.observations
            if "|attest_fail|" in line or "|zeroise|" in line
        ]
        # at tick 0 each of the host's units writes attest_fail, then its
        # ATTEST_FAIL rule zeroises it; no other host's unit runs the rule
        assert len(held) == {"withhold": 3, "adversary": 2}[how]
        assert [event for _, _, event, _ in upkeep] == ["attest_fail", "zeroise"] * len(held)
        for (t1, h1, _, failed), (t2, h2, _, zeroise) in zip(upkeep[::2], upkeep[1::2]):
            assert (t1, h1) == (t2, h2) == ("0", failing)
            assert zeroise.startswith(f"{failed} reason=attest_fail value=")
        sim.run_until(2)
        assert sim.registry.holdings(failing) == []
        assert sim.registry.fold.burned == {"withhold": 600, "adversary": 150}[how]

    def test_move_abroad_zeroises_every_unit_of_the_host(self):
        sim = three_hosts('OBLIGATION ON TICK IF location != "HOME" DO ZEROISE;')
        sim.run_until(2)
        before = units_held(sim)
        sim.schedule_script(3, ("MOVE_HOST", "alice", "ABROAD"))
        sim.run_until(4)
        zeroises = [line for line in sim.observations if "|zeroise|" in line]
        assert sorted(line.split("|")[3].split()[0] for line in zeroises) == sorted(
            f"unit={uid}" for uid in before["alice"]
        )
        assert all(line.startswith("3|alice|") for line in zeroises)
        assert all("reason=jurisdiction" in line for line in zeroises)
        after = units_held(sim)
        assert after == {"central": before["central"], "alice": set(), "bob": before["bob"]}


def every_tick_upkeep(self: Simulation) -> None:
    """The upkeep loop without wake-up ticks: every live unit of every host, every tick."""
    pairs = [
        (host_id, uid) for host_id in sorted(self.hosts) for uid in self.registry.holdings(host_id)
    ]
    for host_id, uid in pairs:
        if self.registry.owner_of(uid) == host_id:
            self._upkeep_unit(self.hosts[host_id], self.units[uid])


@pytest.fixture(params=["wake_up", "every_tick"])
def upkeep(request, monkeypatch):
    """Run the test under the wake-up schedule and under the every-tick loop."""
    if request.param == "every_tick":
        monkeypatch.setattr(Simulation, "_upkeep", every_tick_upkeep)
    return request.param


class TestWakeUp:
    """Upkeep visits a unit only when its upkeep can do something."""

    def test_now_equals_rule_notifies_once(self, upkeep):
        sim = basic_sim()
        sim.add_policy("p", 'OBLIGATION ON TICK IF now == 3 DO NOTIFY "government";')
        sim.schedule_script(0, ("ISSUE", "central", "alice", "100", "p"))
        sim.run_until(8)
        assert [line for line in sim.observations if "|notify|" in line] == [
            "3|alice|notify|target=government"
        ]

    def test_tick_levy_pays_every_tick(self, upkeep):
        sim = basic_sim()
        sim.add_policy("levied", 'OBLIGATION ON TICK DO PAY 1/100 TO "tax_authority";')
        sim.schedule_script(0, ("MINT", "central", "1000", "levied"))
        sim.run_until(5)
        paid = [line for line in sim.observations if "|central|pay_obligation|" in line]
        assert [int(line.split("|")[0]) for line in paid] == list(range(6))
        assert report_for(sim).balances["central"] == 1000 - 10 - 9 - 9 - 9 - 9 - 9

    def test_withhold_off_runs_tick_rules_that_same_tick(self, upkeep):
        sim = basic_sim()
        sim.add_policy("p", "OBLIGATION ON TICK IF now > 2 DO ZEROISE;")
        sim.schedule_script(0, ("ISSUE", "central", "alice", "100", "p"))
        sim.schedule_script(2, ("WITHHOLD", "alice", "on"))
        sim.schedule_script(6, ("WITHHOLD", "alice", "off"))
        sim.run_until(8)
        withheld = [line for line in sim.observations if "|alice|attest_fail|" in line]
        assert [int(line.split("|")[0]) for line in withheld] == [2, 3, 4, 5]
        zeroises = [line for line in sim.observations if "|zeroise|" in line]
        assert len(zeroises) == 1 and zeroises[0].startswith("6|alice|")

    def test_idle_units_are_not_visited(self, upkeep, monkeypatch):
        upkept = []
        upkeep_unit = Simulation._upkeep_unit
        monkeypatch.setattr(
            Simulation,
            "_upkeep_unit",
            lambda self, host, unit: upkept.append(self.now) or upkeep_unit(self, host, unit),
        )
        sim = three_hosts('OBLIGATION ON TICK IF last_contact > 4 DO NOTIFY "government";')
        sim.schedule_script(3, ("CONTACT", "bob"))
        sim.run_until(12)
        per_tick = {t: upkept.count(t) for t in sorted(set(upkept))}
        if upkeep == "every_tick":
            assert per_tick == {t: 7 for t in range(13)}
        else:
            # every unit when placed at 0, bob's 2 at their contact, then
            # each unit every tick once its last_contact exceeds 4 (5 for
            # the others, 8 for bob's); bob's units also keep the wake-up
            # their first visit set for 5, stale since the contact
            assert per_tick == {0: 7, 3: 2, 5: 7, 6: 5, 7: 5, 8: 7, 9: 7, 10: 7, 11: 7, 12: 7}


def artifacts_of(sim: Simulation) -> tuple[list[str], str, str]:
    return sim.observations, sim.registry.export(), render_report(report_for(sim))


@pytest.mark.parametrize("seed", [1, 2, 7])
@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.scn")))
def test_wake_up_upkeep_matches_every_tick_upkeep(monkeypatch, name, seed):
    path = str(SCENARIO_DIR / name)
    woken = artifacts_of(run_scenario(load_scenario(path), seed=seed))
    monkeypatch.setattr(Simulation, "_upkeep", every_tick_upkeep)
    assert artifacts_of(run_scenario(load_scenario(path), seed=seed)) == woken


class TestBuy:
    def test_exact_change_and_tax(self):
        sim = basic_sim()
        sim.add_policy("taxed", 'OBLIGATION ON RECEIVE IF category == "sale" DO PAY 1/5 TO "tax_authority";')
        sim.schedule_script(0, ("ISSUE", "central", "alice", "300", "taxed"))
        sim.schedule_script(0, ("ISSUE", "central", "alice", "300", "taxed"))
        sim.schedule_script(2, ("BUY", "alice", "bob", "450", "sale"))
        sim.run_until(3)
        balances = report_for(sim).balances
        assert balances["alice"] == 150
        assert balances["bob"] == 360  # 450 - floor(450/5)
        assert balances["tax_authority"] == 90
        assert sim.registry.audit() == []

    def test_insufficient_funds(self):
        sim = basic_sim()
        sim.schedule_script(0, ("ISSUE", "central", "alice", "100", "empty"))
        sim.schedule_script(1, ("BUY", "alice", "bob", "500", "sale"))
        sim.run_until(2)
        assert any("|insufficient_funds|" in line for line in sim.observations)
        assert report_for(sim).balances["alice"] == 100

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
        assert report_for(sim).balances["judy"] == 1000

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
    def test_supply_mints_fund_the_issuer_bank_s_interest(self):
        # a bank that issues the supply pays interest out of what it minted:
        # supply mints and script mints take one path, so they are fungible
        sim = Simulation(seed=3, scenario_name="supply_bank", year_ticks=20, period_ticks=10)
        sim.add_host("central", Role.CENTRAL_BANK, "HOME")
        sim.add_host("judy", Role.CONSUMER, "HOME")
        sim.add_host("bank", Role.BANK, "HOME")
        sim.add_policy("seeker", "OBLIGATION ON TICK DO MOVE_TO_BEST_RATE;")
        sim.set_issuer_allowance("bank", 10**9)
        sim.supply_rule = ConstantGrowth(Fraction(2, 100))
        sim.supply_issuer = "bank"
        sim.supply_policy_name = "seeker"
        sim.schedule_script(0, ("ISSUE", "central", "judy", "10000", "seeker"))
        sim.schedule_script(2, ("RATE", "bank", "2/100"))
        sim.run_until(20)
        # at tick 10 interest comes before the period's supply mint
        assert any(line.startswith("10|bank|interest_unfunded|") for line in sim.observations)
        assert any(line.startswith("20|bank|interest|") for line in sim.observations)
        assert not any(line.startswith("20|bank|interest_unfunded|") for line in sim.observations)
        assert sim.registry.audit() == []

    def test_supply_mint_is_evaluated_with_its_policy_deadline(self):
        sim = Simulation(seed=2, scenario_name="supply", year_ticks=10, period_ticks=10)
        sim.add_host("central", Role.CENTRAL_BANK, "HOME")
        sim.add_host("government", Role.LAW_SERVER, "HOME")
        sim.add_policy("dated", 'OBLIGATION ON TICK IF expiry == 50 DO NOTIFY "government";')
        sim.supply_rule = ConstantGrowth(Fraction(2, 100))
        sim.supply_issuer = "central"
        sim.supply_policy_name = "dated"
        sim.schedule_script(0, ("MINT", "central", "1000000", "empty"))
        sim.run_until(11)
        [minted] = [line for line in sim.observations if "|supply_mint|" in line]
        assert minted.startswith("10|central|supply_mint|unit=u2 ")
        # the unit's first upkeep is the next tick's
        assert "11|central|notify|target=government" in sim.observations
        assert sim._eval_ctx(sim.hosts["central"], sim.units["u2"]).expiry == 50
    def test_growth_rule_mints_each_period(self):
        sim = Simulation(seed=2, scenario_name="supply", year_ticks=10, period_ticks=10)
        sim.add_host("central", Role.CENTRAL_BANK, "HOME")
        sim.supply_rule = ConstantGrowth(Fraction(2, 100))
        sim.supply_issuer = "central"
        sim.schedule_script(0, ("MINT", "central", "1000000", "empty"))
        sim.run_until(100)
        assert sim.registry.live_supply == 1_218_991
        assert len(report_for(sim).trajectory) == 10
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
        assert [row.split("|", 1)[0] for row in rows] == ["4", "8", "12"]
        # each row's supply is the fold's minted - burned after its directive
        assert report_for(sim).trajectory[-1].split("|")[1] == str(sim.registry.live_supply)


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.scn")))
def test_balances_match_the_report(name):
    # the simulation's units held by each host, as the registry's holdings
    # index names them, against the balances the report reads from the fold
    sim = run_scenario(load_scenario(str(SCENARIO_DIR / name)), seed=7)
    lines = render_report(report_for(sim)).splitlines()
    reported = {
        key[len("balance."):]: int(value)
        for key, value in (line.split(" = ", 1) for line in lines if line.startswith("balance."))
    }
    assert set(reported) >= set(sim.hosts)
    for host_id in sim.hosts:
        assert sum(u.value for u in sim.active_units_of(host_id)) == reported[host_id], host_id


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.scn")))
def test_one_lineage_node_per_committed_record(name):
    sim = run_scenario(load_scenario(str(SCENARIO_DIR / name)), seed=7)
    nodes, todo = set(), [unit.lineage for unit in sim.units.values()]
    while todo:
        node = todo.pop()
        if node not in nodes:
            nodes.add(node)
            todo.extend(node.parents)
    records = [node.record for node in nodes]
    assert len({id(record) for record in records}) == len(nodes)
    assert all(sim.registry.records[record.seq] is record for record in records)


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.scn")))
def test_unit_store_is_the_live_set(name):
    cfg = load_scenario(str(SCENARIO_DIR / name))
    sim = build_simulation(cfg, seed=7)
    for tick in range(cfg.until + 1):
        sim.run_until(tick)
        live = sim.registry.fold.live
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
