"""Golden artifacts: the exact bytes every shipped scenario produces, frozen.

Byte-determinism across reruns is covered elsewhere; this pins the output
FORMAT across code changes.  If an edit legitimately changes the artifact
formats, rerun the scenarios and update the digests and excerpts here.
"""

import hashlib
from pathlib import Path

import pytest

from progmoney import report
from progmoney.registry import Registry
from progmoney.report import render_report, report_for
from progmoney.scenario import load_scenario, run_scenario

SCENARIO_DIR = (
    Path(__file__).resolve().parents[1] / "src" / "progmoney" / "data" / "scenarios"
)
SEED = 7

# scenario -> SHA-256 of (observations, ledger export, rendered report) at SEED
GOLDEN = {
    "adversary.scn": (
        "c6b054131800c1cca34b8340d985ff1343aac28768b47fd86052d5399ae0fa1b",
        "cdaebbcc09bab61f10715221d04091c5392d80ec5f743c92be893ac305e3f1dd",
        "94e510e67f9e09a3d4a7ab7331e13b1fbd0450d2957b1a226c5f64324d30dea0",
    ),
    "annual_contact.scn": (
        "3837e15812446b094ad66238cf3f9a8c271e7025d690f87d2448711345aa2f60",
        "30761caa5da3ae45ad2f18e92f9875748e2aa9541a4d3609366d07104c2ba3b9",
        "0b228c10f9c44bef785392471397b87cde7fdce0d6d731454644576f120883c9",
    ),
    "delegation.scn": (
        "25ed47785d8d9147984cf3a5a92862519968273d6a29013be88c8eb21c87a6da",
        "4f78200815f72c6f363ea0b5525dc37775ae247bb8b27dfd52c31e783b8c02d1",
        "5e2edf679663d6d2892b12121a247f125e43f6dc938f8366d1a0a0417b83a87a",
    ),
    "expiry.scn": (
        "e60c6a0a9a8e4863451ae90e3e2006695be61c7f3e21e0f867c8501b8407302f",
        "45dd5109be4c8728c99ffd71e4f39d66293dc3d3d9facd37c16b58a4093b506d",
        "2dbac77bcb8439ba9f7ceb68820c4e67bebea05a8debc4a135e1362783103ee8",
    ),
    "jurisdiction.scn": (
        "952ac83eb1a4c111d2db7bc0ae7f21137daa7b70d2289db2536f5ac1670f24c4",
        "9d44430bc1fa3d3e20d37a5e9dc740f7e0942e5a17671b32a061b919174ff7e5",
        "052104d297408972f896bb03455506f84af653c30a9f8a2d5c2ea067c607bc2c",
    ),
    "legality.scn": (
        "cd8e180b0954d202e2816f59e785c9c28386ef0c1aa34384dd0ba07f2ea44cbc",
        "29e05f6e2e2535b2a00d1c135714836714fb522c9670b6520eed30b3be1c0938",
        "6352ab5401e89b0b01a53227e894a89f334f6f2c649dc65f07ece790e14a26f0",
    ),
    "market.scn": (
        "96dfead79de50b5597ccc8679304c8bd6cb028ba727c1daff07c943ae5fb1d7f",
        "b046ea950f8d06cb022dc770a9ebea96f39317194c5f822aa38a6b99a6f5bf58",
        "f6849c99788acc3470812b1244a1f313be501b6bc75b299959744fd998b83268",
    ),
    "mixed.scn": (
        "8c9fe0eb322a4abc1d01fcf246726fba3992544f5e171443f03abe67052aef0f",
        "a9395a2b8511cf60f6bc97541bc654361b23ce06a07a83b1c209b60edb33b816",
        "628a5f421bb4a1db2f3048ca1db80855bc01ea813196ce82c3254fd9e6c51a3f",
    ),
    "sales_tax.scn": (
        "ad7f523801ab231ccccfb025b00c4a7b02ad8dd749807e44b342f0df936eee75",
        "744bf63976de256dd756760e00087b8474caa47eaa4968716ce73bfea4625a65",
        "9c6dd24e1ce454dda5b1c224b73e4bb9e999cde2ee1189bacbc0fea14919802a",
    ),
    "supply_cap.scn": (
        "c794fb431953c879c641cfc29179ee362db6c55bdb172290cd613972f804f4dd",
        "b2e20c0ea68f7423bdced3c2218e9c3a6db7e50c72e95f081134fce369867fc7",
        "768a9b583c5974ecc7b2839fa401fa2ada2220f49613ff647680059e4e3874d6",
    ),
    "supply_growth.scn": (
        "eab6fa054b13b30b011163d3ed433eb07555f25f0455e58e551297482bf7a449",
        "bf2a83e9849a9dcd1066355ce371101570fd8a8baf6e9db1e1900fde43f9be9d",
        "51dcdbeeae8138f60f74365223c875011ff7a57752fd04a264eb425af1da5567",
    ),
    "vat_chain.scn": (
        "59f6c06c4f33881dff35819a9e37f8221e814414e19feb07bdf89d5780f43486",
        "de74e72b65c64990c8dea5ed47fbc209f34e114acd62873f305e14197618b8fa",
        "a8dff83be0f26bbe6698a6892ce263d6d3e0de1be2e2632a58d0260b43f030f9",
    ),
}

LEDGER_EXCERPT = [
    "0|0|MINT|u1|1000|central|-",
    "1|0|TRANSFER|u1|1000|central,alice|-",
    "2|2|TRANSFER|u1|1000|alice,bob|-",
    "3|2|SPLIT|u1,u2,u3|1000,200,800|bob,tax_authority,bob|-",
    "4|4|MINT|u4|999|central|-",
]

OBS_EXCERPT = [
    "2|sim|law_query|category=sale status=legal",
    "2|bob|pay_obligation|unit=u2 to=tax_authority amount=200",
    "2|alice|transfer_complete|unit=u1 to=bob amount=1000 category=sale",
]


def run_golden(name: str = "sales_tax.scn"):
    sim = run_scenario(load_scenario(str(SCENARIO_DIR / name)), seed=SEED)
    obs = "\n".join(sim.observations)
    ledger = sim.registry.export()
    report = render_report(report_for(sim))
    return obs, ledger, report


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_shipped_scenario_has_digests():
    assert sorted(GOLDEN) == sorted(p.name for p in SCENARIO_DIR.glob("*.scn"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_artifacts_are_golden(name):
    assert tuple(sha(text) for text in run_golden(name)) == GOLDEN[name]


def test_observation_log_is_golden():
    obs, _, _ = run_golden()
    for line in OBS_EXCERPT:
        assert line in obs.splitlines()
    assert sha(obs) == GOLDEN["sales_tax.scn"][0]


def test_ledger_export_is_golden():
    _, ledger, _ = run_golden()
    assert ledger.splitlines()[: len(LEDGER_EXCERPT)] == LEDGER_EXCERPT
    assert sha(ledger) == GOLDEN["sales_tax.scn"][1]


def test_report_is_golden():
    _, _, report = run_golden()
    assert "tax_collected = 406" in report
    assert "utility_total = 13.4058" in report
    assert sha(report) == GOLDEN["sales_tax.scn"][2]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_live_report_reads_no_export(name, monkeypatch):
    sim = run_scenario(load_scenario(str(SCENARIO_DIR / name)), seed=SEED)

    def refuse(*_args):
        raise AssertionError("the live report must fold the registry's records")

    monkeypatch.setattr(Registry, "export", refuse)
    monkeypatch.setattr(report, "parse_ledger_line", refuse)
    assert sha(render_report(report_for(sim))) == GOLDEN[name][2]
