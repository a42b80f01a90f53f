"""Scenario reports, built from the observation log and the ledger's records.

A report folds two inputs: the observation lines, for the scenario, seed,
event counts, host roles and trajectory, and the ledger's records, replayed
for supply, balances, tax and burns.  `build_report` parses the two text
files the CLI writes and folds them; `report_for` folds a live run's
observations and `registry.records` directly — the same records `export()`
writes, which a test pins equal to the parsed export — so recomputing a
report from disk reproduces the live run's report byte for byte, and every
number can be cross-checked against the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .metrics import format_utility, log_utility
from .registry import LedgerRecord, RecordKind, parse_ledger_line, replay_records
from .sim import Simulation


@dataclass
class Report:
    scenario: str = "scenario"
    seed: int = 0
    live_supply: int = 0
    minted: int = 0
    burned: int = 0
    tax_collected: int = 0
    forbidden_count: int = 0
    utility_total: float = 0.0
    burns_by_reason: dict[str, int] = field(default_factory=dict)
    balances: dict[str, int] = field(default_factory=dict)
    event_counts: dict[str, int] = field(default_factory=dict)
    trajectory: list[str] = field(default_factory=list)  # "period|supply|mint|burn|volume"


def _parse_details(details: str) -> dict[str, str]:
    out = {}
    for chunk in details.split():
        if "=" in chunk:
            key, value = chunk.split("=", 1)
            out[key] = value
    return out


def _observed(obs_lines: list[str]) -> tuple[Report, dict[str, str]]:
    """The report's observation fold, and each declared host's role."""
    report = Report()
    roles: dict[str, str] = {}
    for line in obs_lines:
        parts = line.split("|", 3)
        if len(parts) != 4:
            continue
        _tick, _host, event, details = parts
        report.event_counts[event] = report.event_counts.get(event, 0) + 1
        try:
            if event == "config":
                info = _parse_details(details)
                report.scenario = info.get("scenario", report.scenario)
                report.seed = int(info.get("seed", "0"))
            elif event == "host":
                info = _parse_details(details)
                roles[info["id"]] = info["role"]
            elif event == "forbidden":
                report.forbidden_count += 1
            elif event == "trajectory":
                info = _parse_details(details)
                report.trajectory.append(
                    f"{info['period']}|{info['supply']}|{info['mint']}"
                    f"|{info['burn']}|{info['volume']}"
                )
        except KeyError as exc:
            raise ValueError(f"observation {line!r} lacks {exc}") from None
    report.event_counts = dict(sorted(report.event_counts.items()))
    return report, roles


def _settled(report: Report, roles: dict[str, str], records: list[LedgerRecord]) -> Report:
    """`report` completed by the ledger fold: replay, balances, tax and burns."""
    replayed, errors = replay_records(records)
    if errors:
        raise ValueError("cannot report on a corrupt ledger: " + "; ".join(errors))
    assert replayed is not None
    report.minted = replayed.minted
    report.burned = replayed.burned
    report.live_supply = sum(v for _, v in replayed.live.values())

    balances: dict[str, int] = {host: 0 for host in roles}
    for owner, value in replayed.live.values():
        balances[owner] = balances.get(owner, 0) + value
    report.balances = dict(sorted(balances.items()))

    tax_hosts = {host for host, role in roles.items() if role == "TAX_AUTHORITY"}
    for rec in records:
        if rec.kind is RecordKind.TRANSFER and rec.parties[1] in tax_hosts:
            report.tax_collected += rec.amounts[0]
        elif rec.kind is RecordKind.BURN:
            reason = rec.reason or "unspecified"
            report.burns_by_reason[reason] = (
                report.burns_by_reason.get(reason, 0) + rec.amounts[0]
            )
    report.burns_by_reason = dict(sorted(report.burns_by_reason.items()))
    report.utility_total = log_utility(report.balances.values())
    return report


def build_report(obs_lines: list[str], ledger_lines: list[str]) -> Report:
    """The report of a run's written observation log and ledger export."""
    report, roles = _observed(obs_lines)
    records = [parse_ledger_line(line) for line in ledger_lines if line.strip()]
    return _settled(report, roles, records)


def report_for(sim: Simulation) -> Report:
    """The report of a live run, folded from its own records: no export, no parse."""
    report, roles = _observed(sim.observations)
    return _settled(report, roles, sim.registry.records)


def render_report(report: Report) -> str:
    lines = [
        f"scenario = {report.scenario}",
        f"seed = {report.seed}",
        f"live_supply = {report.live_supply}",
        f"minted = {report.minted}",
        f"burned = {report.burned}",
        f"tax_collected = {report.tax_collected}",
        f"forbidden_count = {report.forbidden_count}",
        f"utility_total = {format_utility(report.utility_total)}",
    ]
    lines.extend(f"burn.{reason} = {v}" for reason, v in report.burns_by_reason.items())
    lines.extend(f"balance.{host} = {v}" for host, v in report.balances.items())
    lines.extend(f"events.{event} = {v}" for event, v in report.event_counts.items())
    lines.extend(f"trajectory.{i} = {row}" for i, row in enumerate(report.trajectory))
    return "\n".join(lines) + "\n"
