"""The standard policy pack: generator output and end-to-end behavior."""

from fractions import Fraction
from pathlib import Path

import pytest

from progmoney import fiscal, policy as pol
from progmoney.fiscal import (
    BadRate,
    annual_contact_policy,
    expiry_policy,
    jurisdiction_policy,
    legality_policy,
    owner_restriction_policy,
    rate_seeking_policy,
    sales_tax_policy,
    tamper_notify_policy,
)
from progmoney.policy import EvalContext, EventKind, compile_policy, evaluate
from progmoney.sim_types import LawEntry, LawStatus, LawTable

PACK_DIR = Path(__file__).resolve().parents[1] / "src" / "progmoney" / "data" / "policies"


def law_table():
    law: LawTable = {
        "cake": LawEntry(LawStatus.LEGAL, Fraction(1, 5)),
        "weapons": LawEntry(LawStatus.LICENCE_REQUIRED, Fraction(1, 5)),
        "stolen_goods": LawEntry(LawStatus.ILLEGAL, Fraction(0, 1)),
    }
    return law


class TestSalesTax:
    def test_emits_spec_rule(self):
        source = sales_tax_policy(Fraction(1, 5))
        assert source == (
            'OBLIGATION ON RECEIVE IF category == "sale" DO PAY 1/5 TO "tax_authority";'
        )

    @pytest.mark.parametrize(
        "price,tax", [(1000, 200), (999, 199), (1, 0), (5, 1)]
    )
    def test_floor_carve_out(self, price, tax):
        checked = compile_policy(sales_tax_policy(Fraction(1, 5)))
        decision = evaluate(
            checked, EventKind.RECEIVE, EvalContext(amount=price, category="sale")
        )
        assert decision.obligations[0].amount == tax

    def test_zero_rate(self):
        checked = compile_policy(sales_tax_policy(Fraction(0)))
        decision = evaluate(
            checked, EventKind.RECEIVE, EvalContext(amount=1000, category="sale")
        )
        assert decision.obligations[0].amount == 0

    def test_bad_rate(self):
        with pytest.raises(BadRate):
            sales_tax_policy(Fraction(6, 5))
        with pytest.raises(BadRate):
            sales_tax_policy(Fraction(-1, 5))


class TestLegality:
    def test_generated_rules(self):
        source = legality_policy(law_table())
        checked = compile_policy(source)
        forbid = lambda ctx: not evaluate(checked, EventKind.TRANSFER_REQUEST, ctx).permitted
        assert forbid(EvalContext(category="stolen_goods"))
        assert forbid(EvalContext(category="weapons"))
        assert not forbid(EvalContext(category="weapons", licence="arms_permit"))
        assert not forbid(EvalContext(category="cake"))

    def test_legal_categories_emit_nothing(self):
        assert legality_policy({"cake": LawEntry(LawStatus.LEGAL, Fraction(1, 5))}) == ""


class TestAnnualContact:
    def test_thresholds(self):
        checked = compile_policy(annual_contact_policy(360))
        # contacted at 0, now 361: age 361 -> zeroise
        stale = evaluate(
            checked, EventKind.TICK, EvalContext(now=361, last_contact=361)
        )
        assert any(isinstance(o, pol.ZeroiseObligation) for o in stale.obligations)
        # contacted at 300, now 361: age 61 -> fine
        fresh = evaluate(
            checked, EventKind.TICK, EvalContext(now=361, last_contact=61)
        )
        assert fresh.obligations == ()

    def test_notify_accompanies_zeroise(self):
        checked = compile_policy(annual_contact_policy(360))
        decision = evaluate(
            checked, EventKind.TICK, EvalContext(now=400, last_contact=400)
        )
        kinds = [type(o).__name__ for o in decision.obligations]
        assert kinds == ["ZeroiseObligation", "NotifyObligation"]

    def test_positive_year_required(self):
        with pytest.raises(ValueError):
            annual_contact_policy(0)


class TestJurisdiction:
    def test_foreign_location_zeroises(self):
        checked = compile_policy(jurisdiction_policy("HOME"))
        abroad = evaluate(
            checked, EventKind.TICK, EvalContext(location="PANAMA", home="HOME")
        )
        zeroises = [o for o in abroad.obligations if isinstance(o, pol.ZeroiseObligation)]
        assert zeroises and zeroises[0].reason == "jurisdiction"

    def test_home_location_fine(self):
        checked = compile_policy(jurisdiction_policy("HOME"))
        at_home = evaluate(
            checked, EventKind.TICK, EvalContext(location="HOME", home="HOME")
        )
        assert at_home.obligations == ()

    def test_withheld_attestation_zeroises(self):
        checked = compile_policy(jurisdiction_policy("HOME"))
        decision = evaluate(checked, EventKind.ATTEST_FAIL, EvalContext())
        zeroises = [o for o in decision.obligations if isinstance(o, pol.ZeroiseObligation)]
        assert zeroises and zeroises[0].reason == "attest_fail"


class TestOwnerRestriction:
    def test_banned_category_forbidden(self):
        checked = compile_policy(owner_restriction_policy(["arms"]))
        banned = evaluate(
            checked, EventKind.TRANSFER_REQUEST, EvalContext(category="arms")
        )
        assert not banned.permitted
        fine = evaluate(
            checked, EventKind.TRANSFER_REQUEST, EvalContext(category="cake")
        )
        assert fine.permitted

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            owner_restriction_policy([])


class TestExpiry:
    def test_inclusive_deadline(self):
        checked = compile_policy(expiry_policy(100))
        at_deadline = evaluate(
            checked, EventKind.TRANSFER_REQUEST, EvalContext(now=100)
        )
        assert at_deadline.permitted
        past = evaluate(checked, EventKind.TRANSFER_REQUEST, EvalContext(now=101))
        assert not past.permitted

    def test_tick_zeroise_past_deadline(self):
        checked = compile_policy(expiry_policy(100))
        decision = evaluate(checked, EventKind.TICK, EvalContext(now=101))
        zeroises = [o for o in decision.obligations if isinstance(o, pol.ZeroiseObligation)]
        assert zeroises and zeroises[0].reason == "expiry"


class TestPackFiles:
    def test_shipped_pack_matches_builders(self):
        generated = {
            "sales_tax.pol": sales_tax_policy(Fraction(1, 5)),
            "legality.pol": legality_policy(law_table()),
            "annual_contact.pol": annual_contact_policy(360),
            "jurisdiction.pol": jurisdiction_policy("HOME"),
            "owner_restriction.pol": owner_restriction_policy(["arms"]),
            "expiry.pol": expiry_policy(360),
            "rate_seeker.pol": rate_seeking_policy(),
            "tamper_notify.pol": tamper_notify_policy(),
        }
        for name, source in generated.items():
            shipped = (PACK_DIR / name).read_text(encoding="utf-8")
            assert shipped == source + "\n", name

    def test_every_pack_file_compiles(self):
        for path in sorted(PACK_DIR.glob("*.pol")):
            compile_policy(path.read_text(encoding="utf-8"))

    def test_compose_concatenates(self):
        combined = fiscal.compose(
            sales_tax_policy(Fraction(1, 5)), "", rate_seeking_policy()
        )
        checked = compile_policy(combined)
        assert len(checked.rules) == 2


class TestScenarioOutcome:
    def test_outcome_reconciles_with_registry(self):
        from progmoney.registry import RecordKind
        from progmoney.report import report_for
        from progmoney.sim import Simulation
        from progmoney.sim_types import Role

        sim = Simulation(seed=5, scenario_name="outcome")
        sim.add_host("central", Role.CENTRAL_BANK, "HOME")
        sim.add_host("alice", Role.CONSUMER, "HOME")
        sim.add_host("bob", Role.VENDOR, "HOME")
        sim.add_host("tax_authority", Role.TAX_AUTHORITY, "HOME")
        sim.law["sale"] = LawEntry(LawStatus.LEGAL, Fraction(1, 5))
        sim.law["stolen_goods"] = LawEntry(LawStatus.ILLEGAL, Fraction(0, 1))
        sim.policies["retail"] = compile_policy(
            fiscal.compose(sales_tax_policy(Fraction(1, 5)), legality_policy(law_table()))
        )
        sim.schedule_script(0, ("ISSUE", "central", "alice", "1000", "retail"))
        sim.schedule_script(1, ("BUY", "alice", "bob", "600", "sale"))
        sim.schedule_script(2, ("BUY", "alice", "bob", "100", "stolen_goods"))
        sim.schedule_script(3, ("TAMPER", "alice"))
        sim.run_until(4)
        report = report_for(sim)
        assert report.tax_collected == 120  # floor(600/5)
        assert report.forbidden_count == 1
        assert report.balances["bob"] == 480
        burns = [rec.reason for rec in sim.registry.records if rec.kind is RecordKind.BURN]
        assert burns == ["tamper"]
        assert report.live_supply == sum(report.balances.values()) == sim.registry.live_supply
        assert sum(report.burns_by_reason.values()) == sim.registry.fold.burned
        assert sim.registry.audit() == []
