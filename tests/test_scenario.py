"""Scenario file parsing and the shipped scenario set."""

from fractions import Fraction
from pathlib import Path

import pytest

from progmoney.cli import run_cli
from progmoney.report import report_for
from progmoney.scenario import (
    ScenarioError,
    build_policy_source,
    build_simulation,
    load_scenario,
    parse_scenario,
    run_scenario,
)
from progmoney.sim_types import Host, LawStatus, LawTable, Role
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
        assert cfg.hosts == [
            Host("carol", "HOME", Role.CONSUMER, licence="arms_permit"),
            Host("shark", "HOME", Role.BANK, category="arms_lender"),
        ]
        # a run holds hosts of its own: editing one leaves the config as it was
        sim = build_simulation(cfg, seed=1)
        assert list(sim.hosts.values()) == cfg.hosts
        sim.hosts["carol"].licence = None
        assert cfg.hosts[0].licence == "arms_permit"

    def test_supply_rules(self):
        cfg = parse_scenario(
            "[hosts]\ncentral = CENTRAL_BANK HOME\n"
            "[supply]\nissuer = central\nallowance = 500\nrule = FIXED_CAP 50 10\n"
        )
        assert cfg.supply_issuer == "central"
        assert cfg.supply_allowance == 500
        assert cfg.supply_rule == FixedCapGeometric(50, 10)
        growth = parse_scenario(
            "[hosts]\nc = CENTRAL_BANK HOME\n[supply]\nissuer = c\nrule = CONSTANT_GROWTH 2/100\n"
        )
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
            (WORLD + "1 ORDER BUY 5 1 alice\n", 8),
            (WORLD + "2 WITHHOLD alice yes\n", 8),
            (WORLD + "1 TAMPER alice -100\n", 8),
            (WORLD + "1 REPLAY alice -1\n", 8),
            ("[hosts]\nali,ce = CONSUMER HOME\n", 2),
            ("[hosts]\ncentral = CENTRAL_BANK HOME\nali|ce = CONSUMER HOME\n", 3),
            # [supply] names checked once every host and policy is declared
            ("[supply]\nissuer = nobody\n[hosts]\ncentral = CENTRAL_BANK HOME\n", 2),
            (WORLD.replace("[script]\n", "[supply]\npolicy = nosuch\n"), 8),
            # a rule or allowance needs an issuer to run it
            ("[supply]\nrule = CONSTANT_GROWTH 2/100\n", 2),
            ("[hosts]\ncentral = CENTRAL_BANK HOME\n[supply]\nallowance = 500\n", 4),
            # only an issuer may mint, and an allowance is never negative
            (WORLD + "1 MINT alice 100 retail\n", 8),
            (WORLD + "1 ISSUE bob alice 100 retail\n", 8),
            (WORLD.replace("[script]\n", "[supply]\nissuer = alice\nrule = FIXED_CAP 5 10\n"), 8),
            (WORLD.replace("[script]\n", "[supply]\nissuer = central\nallowance = -5\n"), 9),
            # a tick before the start, or a category the law does not know
            (WORLD + "-1 ISSUE central alice 5\n", 8),
            (WORLD + "1 BUY alice bob 5 nosuchcat\n", 8),
            # policy text quotes host ids, categories and builder arguments
            ('[hosts]\nta"x = TAX_AUTHORITY HOME\n', 2),
            ("[hosts]\ncentral = CENTRAL_BANK HOME\nal ice = CONSUMER HOME\n", 3),
            ('[law]\nca"ke = illegal 0/1\n[policies]\nlawful = legality\n', 2),
            (WORLD.replace("sales_tax 1/5", 'sales_tax 1/5 sale ta"x'), 6),
            # a report line splits on whitespace, and the origin body a mint
            # signs on "|": its currency and home are the issuer's
            ("[sim]\nname = my scen\n", 2),
            ("[sim]\nname = x\ncurrency = S|M\n", 3),
            ("[sim]\ncurrency = S M\n", 2),
            ("[hosts]\ncentral = CENTRAL_BANK HO|ME\n", 2),
            (WORLD + "1 MOVE_HOST central HO|ME\n", 8),
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
            "order_side_unknown",
            "withhold_flag_unknown",
            "tamper_index_negative",
            "replay_count_negative",
            "host_id_comma",
            "host_id_pipe",
            "supply_issuer_undeclared",
            "supply_policy_undeclared",
            "supply_rule_without_issuer",
            "supply_allowance_without_issuer",
            "mint_by_consumer",
            "issue_by_vendor",
            "supply_issuer_not_an_issuer",
            "supply_allowance_negative",
            "script_tick_negative",
            "buy_category_undeclared",
            "host_id_quote",
            "host_id_whitespace",
            "law_category_quote",
            "policy_builder_argument_quote",
            "sim_name_whitespace",
            "sim_currency_pipe",
            "sim_currency_whitespace",
            "host_location_pipe",
            "move_host_location_pipe",
        ],
    )
    def test_bad_line_fails_at_load(self, tmp_path, text, line_no):
        with pytest.raises(ScenarioError) as exc_info:
            parse_scenario(text)
        assert exc_info.value.line_no == line_no
        path = tmp_path / "bad.scn"
        path.write_text(text, encoding="utf-8")
        assert run_cli(["run", str(path), "--out", str(tmp_path / "out")]) == 1

    def test_supply_issuer_with_allowance_may_mint(self, tmp_path):
        # an allowance makes any declared host an issuer, up to the allowance
        text = WORLD.replace("[script]\n", "[supply]\nissuer = alice\nallowance = 100\n[script]\n")
        path = tmp_path / "ok.scn"
        path.write_text(text + "1 MINT alice 60\n2 ISSUE alice bob 40\n", encoding="utf-8")
        assert run_cli(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        log = (tmp_path / "out" / "observations.log").read_text(encoding="utf-8")
        assert "2|alice|issue|unit=u2 to=bob value=40" in log

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
                # hosts and the law declared after the script; "retail"
                # fits as a category but not as a host
                "[script]\n0 MINT central 5\n1 BUY alice bob 10 retail\n"
                "2 MINT central 5 retail\n3 RATE central 1/2\n4 MINT central 5 nopolicy\n"
                "5 BUY alice retail 10 sale\n6 MINT central 0\n" + WORLD.split("[script]")[0]
                + "[law]\nretail = legal 0/1\n",
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
            "sales_tax 1/5 cake tax_office",
            "legality",
            "annual_contact",
            "annual_contact 100",
            "jurisdiction HOME",
            "owner_restriction arms,drugs",
            "expiry 100",
            "rate_seeker",
            "tamper_notify",
            "tamper_notify gov",
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
        # more arguments than the builder takes fail too, never dropped
        for spec in (
            "sales_tax 1/5 + tamper_notify gov extra",
            "sales_tax 1/5 sale tax_authority extra",
            "legality extra",
            "expiry 100 7",
            "rate_seeker now",
            "jurisdiction HOME ABROAD",
            "empty extra",
        ):
            with pytest.raises(ScenarioError):
                build_policy_source(spec, self.law(), 360)

    @pytest.mark.parametrize(
        "policy", ["sales_tax 1/5 + tamper_notify gov extra", "sales_tax 1/5 sale tax|man"]
    )
    def test_bad_builder_run_is_exit_1_and_writes_nothing(self, tmp_path, policy):
        # an extra argument, and a payee the ledger line cannot carry
        path = tmp_path / "bad.scn"
        path.write_text(WORLD.replace("sales_tax 1/5", policy), encoding="utf-8")
        assert run_cli(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rate", ["0.2", "1e-1", "-1/5", "1/0", "fifth"])
    def test_sales_tax_rate_is_a_scenario_fraction(self, tmp_path, rate):
        # the rate reads like [law], [supply] and RATE fractions: num/den or an integer
        with pytest.raises(ScenarioError):
            build_policy_source(f"sales_tax {rate}", self.law(), 360)
        path = tmp_path / "bad.scn"
        path.write_text(WORLD.replace("sales_tax 1/5", f"sales_tax {rate}"), encoding="utf-8")
        assert run_cli(["run", str(path), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    def test_sales_tax_rate_compiles_as_written(self):
        source = build_policy_source("sales_tax 1/5", self.law(), 360)
        assert 'DO PAY 1/5 TO "tax_authority";' in source
        assert "PAY 1/1 TO" in build_policy_source("sales_tax 1", self.law(), 360)


class TestShippedScenarios:
    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scn")), ids=lambda p: p.stem)
    def test_runs_clean(self, path):
        cfg = load_scenario(str(path))
        sim = run_scenario(cfg, seed=7)
        assert sim.registry.audit() == []
        registry = sim.registry
        assert registry.fold.minted - registry.fold.burned == registry.live_supply

    def test_sales_tax_outcome(self):
        sim = run_scenario(load_scenario(str(SCENARIO_DIR / "sales_tax.scn")), seed=7)
        # prices 1000, 999, 37 at rate 1/5
        balances = report_for(sim).balances
        assert balances["tax_authority"] == 200 + 199 + 7
        assert balances["bob"] == 800 + 800 + 30
        assert balances["alice"] == 0

    def test_legality_outcome(self):
        sim = run_scenario(load_scenario(str(SCENARIO_DIR / "legality.scn")), seed=7)
        assert report_for(sim).forbidden_count == 2  # stolen goods + unlicensed weapons
        # carol's licensed weapons purchase and alice's cake both complete
        balances = report_for(sim).balances
        assert balances["bob"] == 200
        assert balances["fence"] == 0

    def test_jurisdiction_outcome(self):
        sim = run_scenario(load_scenario(str(SCENARIO_DIR / "jurisdiction.scn")), seed=7)
        burns = [rec for rec in sim.registry.records if rec.kind.value == "BURN"]
        assert {rec.reason for rec in burns} == {"jurisdiction", "attest_fail"}
        assert sim.registry.fold.burned == 1000

    def test_annual_contact_outcome(self):
        sim = run_scenario(load_scenario(str(SCENARIO_DIR / "annual_contact.scn")), seed=7)
        balances = report_for(sim).balances
        assert balances["frank"] == 0  # never contacted, zeroised at 361
        assert balances["grace"] == 600  # contacted at 300
        burns = [rec for rec in sim.registry.records if rec.kind.value == "BURN"]
        assert [rec.at for rec in burns] == [361]

    def test_expiry_outcome(self):
        sim = run_scenario(load_scenario(str(SCENARIO_DIR / "expiry.scn")), seed=7)
        # henry spent at the inclusive deadline; iris was vetoed after it;
        # all stimulus value ends burned (the policy travels to the vendor)
        assert report_for(sim).forbidden_count == 1
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
        assert sim.registry.fold.minted == 970
        assert sim.registry.fold.minted <= 1000

    def test_delegation_outcome(self):
        sim = run_scenario(load_scenario(str(SCENARIO_DIR / "delegation.scn")), seed=7)
        moves = [line for line in sim.observations if "|delegated_move|" in line]
        targets = [line.split("target=")[1].split()[0] for line in moves]
        assert targets == ["bank_b", "bank_a"]
        assert any("|interest|" in line for line in sim.observations)

    def test_vat_chain_outcome(self):
        sim = run_scenario(load_scenario(str(SCENARIO_DIR / "vat_chain.scn")), seed=7)
        # stage 1: 10000 sale pays 1000; stage 2: 5000 sale pays 500
        balances = report_for(sim).balances
        assert balances["tax_authority"] == 1000 + 500
        assert balances["maker"] == 4500
        assert balances["retailer"] == 9000 - 5000
        assert sim.registry.audit() == []

    def test_adversary_outcome(self):
        sim = run_scenario(load_scenario(str(SCENARIO_DIR / "adversary.scn")), seed=7)
        double_spends = [line for line in sim.observations if "|double_spend|" in line]
        assert len(double_spends) == 5
        assert not any("|replay_accepted|" in line for line in sim.observations)
        assert any("|tamper_detected|" in line for line in sim.observations)
        assert any("|bad_signature|" in line for line in sim.observations)
