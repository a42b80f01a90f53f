"""The registry's live fold, read by the report and the supply statistics, against its ledger."""

from pathlib import Path

import pytest

from progmoney.metrics import log_utility
from progmoney.registry import RecordKind, parse_ledger_line, replay_records
from progmoney.report import _observed, _parse_details, build_report, render_report, report_for
from progmoney.scenario import load_scenario, run_scenario

SCENARIO_DIR = (
    Path(__file__).resolve().parents[1] / "src" / "progmoney" / "data" / "scenarios"
)
SCENARIOS = sorted(p.name for p in SCENARIO_DIR.glob("*.scn"))


def given(rec):
    """(owner, amount) of each unit `rec` gives away: a TRANSFER's unit, and
    each SPLIT child owned by someone other than the requester."""
    if rec.kind is RecordKind.TRANSFER:
        return [(rec.parties[1], rec.amounts[0])]
    if rec.kind is RecordKind.SPLIT:
        requester = rec.parties[0]
        return [(o, a) for o, a in zip(rec.parties[1:], rec.amounts[1:]) if o != requester]
    return []


def report_from_records(sim):
    """The report folded the way it was before the fold kept totals: a replay
    of `sim.registry.records`, then one loop over them for tax and burns."""
    report, roles = _observed(sim.observations)
    records = sim.registry.records
    replayed, errors = replay_records(records)
    assert errors == []
    report.minted, report.burned = replayed.minted, replayed.burned
    report.live_supply = sum(v for _, v in replayed.live.values())
    balances = {host: 0 for host in roles}
    for owner, value in replayed.live.values():
        balances[owner] = balances.get(owner, 0) + value
    report.balances = dict(sorted(balances.items()))
    burns = {}
    for rec in records:
        for owner, amount in given(rec):
            if roles.get(owner) == "TAX_AUTHORITY":
                report.tax_collected += amount
        if rec.kind is RecordKind.BURN:
            reason = rec.reason or "unspecified"
            burns[reason] = burns.get(reason, 0) + rec.amounts[0]
    report.burns_by_reason = dict(sorted(burns.items()))
    report.utility_total = log_utility(report.balances.values())
    return report


class Unreadable(list):
    """A ledger that appends and counts, but fails any reader that walks it."""

    def __iter__(self):
        raise AssertionError("a reader walked the ledger's records")


@pytest.mark.parametrize("seed", [1, 2, 7])
@pytest.mark.parametrize("name", SCENARIOS)
def test_live_report_equals_the_rebuilt_one(name, seed):
    sim = run_scenario(load_scenario(str(SCENARIO_DIR / name)), seed=seed)
    records = sim.registry.records
    # the export parses back to exactly the records the registry folded
    assert [parse_ledger_line(rec.line()) for rec in records] == records
    rebuilt = build_report(sim.observations, sim.registry.export().splitlines())
    live = render_report(report_for(sim))
    assert render_report(rebuilt) == live
    assert render_report(report_from_records(sim)) == live


@pytest.mark.parametrize("name", SCENARIOS)
def test_supply_stats_equal_a_sum_over_records(name):
    sim = run_scenario(load_scenario(str(SCENARIO_DIR / name)), seed=7)
    registry = sim.registry
    records = registry.records
    supply = sum(r.amounts[0] for r in records if r.kind is RecordKind.MINT) - sum(
        r.amounts[0] for r in records if r.kind is RecordKind.BURN
    )
    assert supply == registry.live_supply
    transfers = [(r.at, amount) for r in records for _, amount in given(r)]
    for lo in range(registry.now + 1):
        for hi in range(lo, registry.now + 1):
            stats = registry.supply_stats((lo, hi))
            assert stats.live_supply == supply
            assert stats.tx_volume == sum(a for at, a in transfers if lo <= at <= hi), (lo, hi)


@pytest.mark.parametrize("name", SCENARIOS)
def test_finished_run_is_read_without_its_records(name):
    sim = run_scenario(load_scenario(str(SCENARIO_DIR / name)), seed=7)
    registry = sim.registry
    window = (0, registry.now)
    before = render_report(report_for(sim)), registry.supply_stats(window)
    registry.records = Unreadable(registry.records)
    assert (render_report(report_for(sim)), registry.supply_stats(window)) == before


def test_message_body_parses_back_whole():
    # the body is the last detail and holds spaces and '=' of its own; it
    # gives the message no unit, reason or value keys
    sim = run_scenario(load_scenario(str(SCENARIO_DIR / "mixed.scn")), seed=7)
    line = "13|government|message|sender=dave body=zeroise unit=u4 reason=jurisdiction value=800"
    assert line in sim.observations
    assert _parse_details(line.split("|", 3)[3]) == {
        "sender": "dave",
        "body": "zeroise unit=u4 reason=jurisdiction value=800",
    }
