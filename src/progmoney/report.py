"""Scenario reports, built from the observation log and a fold of the ledger.

A report reads two inputs: the observation lines, for the scenario, seed,
event counts, host roles and trajectory, and a `LedgerFold` of the ledger,
for supply, balances, tax and burns.  `build_report` parses the two text
files the CLI writes and replays the parsed records into a fold;
`report_for` reads a live run's observations and the registry's own live
fold, `registry.fold`, and replays nothing.  `Registry.audit` checks that
live fold against a replay of the registry's records, and a test pins the
live report equal to the one rebuilt from the export, so recomputing a
report from disk reproduces the live run's report byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .metrics import format_utility, log_utility
from .registry import LedgerFold, parse_ledger_line, replay_records
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
    """An observation's `key=value` details; a message `body`, always last, is kept whole."""
    head, has_body, body = f" {details}".partition(" body=")
    out = {}
    for chunk in head.split():
        if "=" in chunk:
            key, value = chunk.split("=", 1)
            out[key] = value
    if has_body:
        out["body"] = body
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


def _settled(report: Report, roles: dict[str, str], fold: LedgerFold) -> Report:
    """`report` completed from a ledger fold: supply, balances, tax and burns."""
    report.minted = fold.minted
    report.burned = fold.burned
    report.live_supply = sum(v for _, v in fold.live.values())

    balances: dict[str, int] = {host: 0 for host in roles}
    for owner, value in fold.live.values():
        balances[owner] = balances.get(owner, 0) + value
    report.balances = dict(sorted(balances.items()))

    report.tax_collected = sum(
        amount for owner, amount in fold.received.items() if roles.get(owner) == "TAX_AUTHORITY"
    )
    burns: dict[str, int] = {}
    for reason, amount in fold.burns.items():
        reason = reason or "unspecified"
        burns[reason] = burns.get(reason, 0) + amount
    report.burns_by_reason = dict(sorted(burns.items()))
    report.utility_total = log_utility(report.balances.values())
    return report


def build_report(obs_lines: list[str], ledger_lines: list[str]) -> Report:
    """The report of a run's written observation log and ledger export."""
    report, roles = _observed(obs_lines)
    records = [parse_ledger_line(line) for line in ledger_lines if line.strip()]
    replayed, errors = replay_records(records)
    if errors:
        raise ValueError("cannot report on a corrupt ledger: " + "; ".join(errors))
    assert replayed is not None
    return _settled(report, roles, replayed)


def report_for(sim: Simulation) -> Report:
    """The report of a live run, read from the registry's live fold: no replay, no parse."""
    report, roles = _observed(sim.observations)
    return _settled(report, roles, sim.registry.fold)


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
