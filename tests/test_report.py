"""Reports: the live fold over a run's records against the rebuild from its export."""

from pathlib import Path

import pytest

from progmoney.registry import parse_ledger_line
from progmoney.report import build_report, render_report, report_for
from progmoney.scenario import load_scenario, run_scenario

SCENARIO_DIR = (
    Path(__file__).resolve().parents[1] / "src" / "progmoney" / "data" / "scenarios"
)
SCENARIOS = sorted(p.name for p in SCENARIO_DIR.glob("*.scn"))


@pytest.mark.parametrize("seed", [1, 2, 7])
@pytest.mark.parametrize("name", SCENARIOS)
def test_live_report_equals_the_rebuilt_one(name, seed):
    sim = run_scenario(load_scenario(str(SCENARIO_DIR / name)), seed=seed)
    records = sim.registry.records
    # what `report_for` folds is exactly what the export parses back to
    assert [parse_ledger_line(rec.line()) for rec in records] == records
    rebuilt = build_report(sim.observations, sim.registry.export().splitlines())
    assert render_report(rebuilt) == render_report(report_for(sim))
