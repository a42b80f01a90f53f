"""Scenario file parsing and the shipped scenario set."""

from fractions import Fraction
from pathlib import Path

import pytest

from progmoney.cli import run_cli
from progmoney.scenario import (
    ScenarioError,
    build_policy_source,
    load_scenario,
    parse_scenario,
    run_scenario,
)
from progmoney.sim_types import LawStatus, LawTable
from progmoney.supply import ConstantGrowth, FixedCapGeometric

SCENARIO_DIR = (
    Path(__file__).resolve().parents[1] / "src" / "progmoney" / "data" / "scenarios"
)

MINIMAL = """
[sim]
name = minimal
until = 5

[hosts]
central = CENTRAL_BANK HOME
alice = CONSUMER HOME

[law]
sale = legal 1/5

[policies]
plain = empty

[script]
0 ISSUE central alice 100 plain
"""


# hosts and a policy for script lines to refer to; a script line here is line 8
WORLD = (
    "[hosts]\ncentral = CENTRAL_BANK HOME\nalice = CONSUMER HOME\nbob = VENDOR HOME\n"
    "[policies]\nretail = sales_tax 1/5\n[script]\n"
)


class TestParsing:
    def test_minimal_scenario(self):
        cfg = parse_scenario(MINIMAL)
        assert cfg.name == "minimal"
        assert cfg.until == 5
        assert [h.id for h in cfg.hosts] == ["central", "alice"]
        assert cfg.law == [("sale", LawStatus.LEGAL, Fraction(1, 5))]
        assert cfg.script == [(0, ("ISSUE", "central", "alice", "100", "plain"))]

    def test_comments_and_blanks_ignored(self):
        cfg = parse_scenario("# header\n\n" + MINIMAL + "\n# tail\n")
        assert cfg.name == "minimal"

    def test_unknown_section(self):
        with pytest.raises(ScenarioError) as exc_info:
            parse_scenario("[wonky]\nx = 1\n")
        assert "line 1" in str(exc_info.value)

    def test_content_before_section(self):
        with pytest.raises(ScenarioError):
            parse_scenario("x = 1\n")

    def test_unknown_role(self):
        with pytest.raises(ScenarioError):
            parse_scenario("[hosts]\nx = WIZARD HOME\n")

    def test_duplicate_host(self):
        with pytest.raises(ScenarioError):
            parse_scenario("[hosts]\na = CONSUMER HOME\na = VENDOR HOME\n")

    def test_unknown_script_action(self):
        with pytest.raises(ScenarioError):
            parse_scenario("[script]\n0 DANCE alice\n")

    def test_script_line_needs_tick(self):
        with pytest.raises(ScenarioError):
            parse_scenario("[script]\nBUY alice bob 1 sale\n")

    def test_bad_fraction(self):
        with pytest.raises(ScenarioError):
            parse_scenario("[law]\nsale = legal 1/0\n")

    def test_host_attributes(self):
        cfg = parse_scenario(
            "[hosts]\ncarol = CONSUMER HOME licence=arms_permit\n"
            "shark = BANK HOME category=arms_lender\n"
        )
        assert cfg.hosts[0].licence == "arms_permit"
        assert cfg.hosts[1].category == "arms_lender"

    def test_supply_rules(self):
        cfg = parse_scenario(
            "[supply]\nissuer = central\nallowance = 500\nrule = FIXED_CAP 50 10\n"
        )
        assert cfg.supply_issuer == "central"
        assert cfg.supply_allowance == 500
        assert cfg.supply_rule == FixedCapGeometric(50, 10)
        growth = parse_scenario("[supply]\nissuer = c\nrule = CONSTANT_GROWTH 2/100\n")
        assert growth.supply_rule == ConstantGrowth(Fraction(2, 100))

    @pytest.mark.parametrize(
        "text, line_no",
        [
            ("[hosts]\nalice = CONSUMER HOME\n[script]\n0 BUY alice\n", 4),
            ("[script]\n0 CONTACT alice bob\n", 2),
            ("[supply]\nissuer = central\nallowance = lots\n", 3),
            ("[sim]\nlatency = 3 1\n", 2),
            ("[sim]\nlatency = -1 1\n", 2),
            ("[sim]\nname = x\nyear_ticks = 0\n", 3),
            ("[sim]\nperiod_ticks = 0\n", 2),
            ("[sim]\nuntil = -1\n", 2),
            (WORLD + "2 BUY alice zed 10 sale\n", 8),
            (WORLD + "2 BUY alice bob ten sale\n", 8),
            (WORLD + "0 ISSUE central alice -5 retail\n", 8),
            (WORLD + "0 ISSUE central alice 5 nopolicy\n", 8),
            (WORLD + "2 RATE central 1/0\n", 8),
            (WORLD + "2 RATE central half\n", 8),
            (WORLD + "2 RATE central 0.5\n", 8),
            (WORLD + "0 CONTACT ghost\n", 8),
        ],
        ids=[
            "too_few_args",
            "too_many_args",
            "allowance",
            "latency_reversed",
            "latency_negative",
            "year_ticks_zero",
            "period_ticks_zero",
            "until_negative",
            "unknown_host",
            "price_not_a_number",
            "negative_amount",
            "unknown_policy",
            "rate_over_zero",
            "rate_not_a_fraction",
            "rate_decimal_point",
            "contact_unknown_host",
        ],
    )
    def test_bad_line_fails_at_load(self, tmp_path, text, line_no):
        with pytest.raises(ScenarioError) as exc_info:
            parse_scenario(text)
        assert exc_info.value.line_no == line_no
        path = tmp_path / "bad.scn"
        path.write_text(text, encoding="utf-8")
        assert run_cli(["run", str(path), "--out", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[sim]\nfoo = 1\n", "line 2: unknown [sim] key 'foo'"),
            (
                "[supply]\nrule = FIXED_CAP\n",
                "line 2: expected 'rule = FIXED_CAP issuance_start halving_periods',"
                " got 0 arguments",
            ),
            (
                # hosts declared after the script; "retail" fits as a
                # category but not as a host
                "[script]\n0 MINT central 5\n1 BUY alice bob 10 retail\n"
                "2 MINT central 5 retail\n3 RATE central 1/2\n4 MINT central 5 nopolicy\n"
                "5 BUY alice retail 10 sale\n6 MINT central 0\n" + WORLD.split("[script]")[0],
                "line 6: MINT policy_name must be a declared policy, got 'nopolicy'",
            ),
        ],
        ids=["unknown_sim_key", "supply_rule_without_arguments", "first_bad_script_argument"],
    )
    def test_error_message_names_the_line_once(self, text, message):
        with pytest.raises(ScenarioError) as exc_info:
            parse_scenario(text)
        assert str(exc_info.value) == message

    def test_supply_rule_requires_issuer(self):
        with pytest.raises(ScenarioError):
            run_scenario(
                parse_scenario("[supply]\nrule = CONSTANT_GROWTH 1/100\n"), seed=0
            )


class TestPolicyBuilders:
    def law(self):
        law = LawTable()
        law.add("stolen_goods", LawStatus.ILLEGAL, Fraction(0, 1))
        return law

    def test_composition(self):
        source = build_policy_source("sales_tax 1/5 + legality", self.law(), 360)
        assert "PAY 1/5" in source
        assert "stolen_goods" in source

    def test_each_builder(self):
        for spec in (
            "empty",
            "sales_tax 1/5",
            "sales_tax 1/5 cake",
            "legality",
            "annual_contact",
            "annual_contact 100",
            "jurisdiction HOME",
            "owner_restriction arms,drugs",
            "expiry 100",
            "rate_seeker",
            "tamper_notify",
        ):
            build_policy_source(spec, self.law(), 360)

    def test_unknown_builder(self):
        with pytest.raises(ScenarioError):
            build_policy_source("mystery 1", self.law(), 360)

    def test_bad_builder_arguments(self):
        with pytest.raises(ScenarioError):
            build_policy_source("jurisdiction", self.law(), 360)
        with pytest.raises(ScenarioError):
            build_policy_source("expiry not_a_number", self.law(), 360)
        with pytest.raises(ScenarioError):
            build_policy_source("sales_tax 7/5", self.law(), 360)


class TestShippedScenarios:
    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scn")), ids=lambda p: p.stem)
    def test_runs_clean(self, path):
        cfg = load_scenario(str(path))
        sim = run_scenario(cfg, seed=7)
        assert sim.registry.audit() == []
        registry = sim.registry
        assert registry.total_minted - registry.total_burned == registry.live_supply

    def test_sales_tax_outcome(self):
        sim = run_scenario(load_scenario(str(SCENARIO_DIR / "sales_tax.scn")), seed=7)
        # prices 1000, 999, 37 at rate 1/5
        assert sim.balance_of("tax_authority") == 200 + 199 + 7
        assert sim.balance_of("bob") == 800 + 800 + 30
        assert sim.balance_of("alice") == 0

    def test_legality_outcome(self):
        sim = run_scenario(load_scenario(str(SCENARIO_DIR / "legality.scn")), seed=7)
        assert sim.forbidden_count == 2  # stolen goods + unlicensed weapons
        # carol's licensed weapons purchase and alice's cake both complete
        assert sim.balance_of("bob") == 200
        assert sim.balance_of("fence") == 0

    def test_jurisdiction_outcome(self):
        sim = run_scenario(load_scenario(str(SCENARIO_DIR / "jurisdiction.scn")), seed=7)
        burns = [rec for rec in sim.registry.records if rec.kind.value == "BURN"]
        assert {rec.reason for rec in burns} == {"jurisdiction", "attest_fail"}
        assert sim.registry.total_burned == 1000

    def test_annual_contact_outcome(self):
        sim = run_scenario(load_scenario(str(SCENARIO_DIR / "annual_contact.scn")), seed=7)
        assert sim.balance_of("frank") == 0  # never contacted, zeroised at 361
        assert sim.balance_of("grace") == 600  # contacted at 300
        burns = [rec for rec in sim.registry.records if rec.kind.value == "BURN"]
        assert [rec.at for rec in burns] == [361]

    def test_expiry_outcome(self):
        sim = run_scenario(load_scenario(str(SCENARIO_DIR / "expiry.scn")), seed=7)
        # henry spent at the inclusive deadline; iris was vetoed after it;
        # all stimulus value ends burned (the policy travels to the vendor)
        assert sim.forbidden_count == 1
        transfers = [rec for rec in sim.registry.records if rec.kind.value == "TRANSFER"]
        assert all(rec.at <= 15 for rec in transfers if rec.parties[1] == "bob")
        burn_total = sum(
            rec.amounts[0]
            for rec in sim.registry.records
            if rec.kind.value == "BURN" and rec.reason == "expiry"
        )
        assert burn_total == 1000

    def test_supply_growth_outcome(self):
        sim = run_scenario(load_scenario(str(SCENARIO_DIR / "supply_growth.scn")), seed=7)
        assert sim.registry.live_supply == 1_218_991

    def test_supply_cap_outcome(self):
        sim = run_scenario(load_scenario(str(SCENARIO_DIR / "supply_cap.scn")), seed=7)
        assert sim.registry.total_minted == 970
        assert sim.registry.total_minted <= 1000

    def test_delegation_outcome(self):
        sim = run_scenario(load_scenario(str(SCENARIO_DIR / "delegation.scn")), seed=7)
        moves = [line for line in sim.observations if "|delegated_move|" in line]
        targets = [line.split("target=")[1].split()[0] for line in moves]
        assert targets == ["bank_b", "bank_a"]
        assert any("|interest|" in line for line in sim.observations)

    def test_vat_chain_outcome(self):
        sim = run_scenario(load_scenario(str(SCENARIO_DIR / "vat_chain.scn")), seed=7)
        # stage 1: 10000 sale pays 1000; stage 2: 5000 sale pays 500
        assert sim.balance_of("tax_authority") == 1000 + 500
        assert sim.balance_of("maker") == 4500
        assert sim.balance_of("retailer") == 9000 - 5000
        assert sim.registry.audit() == []

    def test_adversary_outcome(self):
        sim = run_scenario(load_scenario(str(SCENARIO_DIR / "adversary.scn")), seed=7)
        double_spends = [line for line in sim.observations if "|double_spend|" in line]
        assert len(double_spends) == 5
        assert not any("|replay_accepted|" in line for line in sim.observations)
        assert any("|tamper_detected|" in line for line in sim.observations)
        assert any("|bad_signature|" in line for line in sim.observations)
