"""Scenario files: line-oriented configuration plus a tick-stamped script.

Format (UTF-8, "#" comments):

    [sim]
    name = sales_tax
    until = 40
    year_ticks = 360
    period_ticks = 360
    latency = 1 1
    currency = SIM

    [hosts]
    alice = CONSUMER HOME
    arms_bank = BANK HOME category=arms_lender licence=none

    [law]
    cake = legal 1/5
    weapons = licence_required 1/5
    stolen_goods = illegal 0/1

    [supply]
    issuer = central
    allowance = 1000000000
    rule = CONSTANT_GROWTH 2/100

    [policies]
    retail = sales_tax 1/5 + legality

    [script]
    0 ISSUE central alice 1000 retail
    1 BUY alice bob 1000 cake

Script action names, argument counts and argument kinds are those of the
handlers in `sim.ACTIONS`: a script tick must not be negative nor above
`until`, the last tick the run processes (checked once the whole file is
read, so [sim] may follow [script]), a host,
policy or BUY category argument must be declared in the file, a number
must parse, and a MINT or ISSUE must name an issuer.
An issuer is a BANK or CENTRAL_BANK host, or the [supply] issuer when it is
given an allowance; a [supply] issuer that is neither, or a negative
allowance, fails at load too.  A script line that does not fit one fails
at load, and so does a '"' in what policy builders quote: a host id, a
[law] category or a [policies] value.  A host may not take the
registry's key id, no host id, [law] category or [policies] name
may repeat, and no [policies] line may take the name "empty", the
built-in policy that a MINT, an ISSUE or [supply] names by default.  Each
[policies] value is expanded and compiled once the whole file is read, so
an error in it names its line; so does a PAY payee or NOTIFY target in it
that is not a declared host, a builder's default authority (`government`,
`tax_authority`) included.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from typing import Callable, Optional, get_args, get_type_hints

from . import fiscal
from .markets import Side
from .policy import (
    PARTY_NAME_RULE,
    CheckFailure,
    ParseError,
    PolicyProgram,
    compile_policy,
    is_party_name,
)
from .registry import REGISTRY_KEY
from .sim import ACTIONS, Simulation
from .sim_types import ISSUER_ROLES, ArgKind, Host, LawEntry, LawStatus, Role, parse_fraction
from .supply import ConstantGrowth, FixedCapGeometric, SupplyRule, VolumeResponsive


def _params(handler) -> tuple[int, tuple[tuple[str, Optional[ArgKind]], ...]]:
    """(required count, (name, kind) of each argument) of a script action handler.

    `self` is left out; an argument annotated plainly `str` has no kind.
    """
    params = list(inspect.signature(handler, eval_str=True).parameters.values())[1:]
    kinds = tuple((p.name, next(iter(get_args(p.annotation)[1:]), None)) for p in params)
    return sum(p.default is p.empty for p in params), kinds


_PARAMS = {name: _params(handler) for name, handler in ACTIONS.items()}


class ScenarioError(ValueError):
    def __init__(self, message: str, line_no: Optional[int] = None) -> None:
        where = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{where}{message}")
        self.line_no = line_no


@dataclass
class ScenarioConfig:
    name: str = "scenario"
    until: int = 10
    year_ticks: int = 360
    period_ticks: Optional[int] = None
    latency: tuple[int, int] = (1, 1)
    currency: str = "SIM"
    hosts: dict[str, Host] = field(default_factory=dict)  # id -> host, in file order
    law: dict[str, LawEntry] = field(default_factory=dict)  # [law] category -> entry
    supply_issuer: Optional[str] = None
    supply_allowance: Optional[int] = None
    supply_rule: Optional[SupplyRule] = None
    supply_policy: str = "empty"
    policies: dict[str, PolicyProgram] = field(default_factory=dict)  # name -> compiled
    script: list[tuple[int, tuple[str, ...]]] = field(default_factory=list)


def _parse_fraction(text: str, line_no: int) -> Fraction:
    try:
        return parse_fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioError(f"bad fraction {text!r}: {exc}", line_no) from None


def parse_scenario(text: str) -> ScenarioConfig:
    cfg = ScenarioConfig()
    script_line_nos: list[int] = []  # the file line of each cfg.script entry
    supply_lines: dict[str, int] = {}  # [supply] key -> the file line that last set it
    policy_lines: dict[str, tuple[str, int]] = {}  # name -> (builder spec, file line)
    section = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("sim", "hosts", "law", "supply", "policies", "script"):
                raise ScenarioError(f"unknown section [{section}]", line_no)
            continue
        if section is None:
            raise ScenarioError("content before any [section]", line_no)
        if section == "script":
            _parse_script_line(cfg, line, line_no)
            script_line_nos.append(line_no)
            continue
        if "=" not in line:
            raise ScenarioError("expected 'key = value'", line_no)
        key, value = (part.strip() for part in line.split("=", 1))
        if section == "sim":
            _parse_sim_entry(cfg, key, value, line_no)
        elif section == "hosts":
            _parse_host_entry(cfg, key, value, line_no)
        elif section == "law":
            _parse_law_entry(cfg, key, value, line_no)
        elif section == "supply":
            _parse_supply_entry(cfg, key, value, line_no)
            supply_lines[key] = line_no
        elif section == "policies":
            if key == "empty":
                raise ScenarioError("[policies] name 'empty' is reserved", line_no)
            if '"' in value:
                raise ScenarioError(f"[policies] value {value!r} holds a '\"'", line_no)
            if key in policy_lines:
                raise ScenarioError(f"duplicate [policies] name {key!r}", line_no)
            policy_lines[key] = (value, line_no)
    # builders read [law] and year_ticks, and a policy names hosts, all of
    # which may follow the [policies] lines
    for name, (spec, line_no) in policy_lines.items():
        try:
            program = compile_policy(build_policy_source(spec, cfg.law, cfg.year_ticks))
        except (ScenarioError, ParseError, CheckFailure) as exc:
            raise ScenarioError(str(exc), line_no) from None
        for party in program.parties:
            if party not in cfg.hosts:
                raise ScenarioError(f"[policies] {name!r} names undeclared host {party!r}", line_no)
        cfg.policies[name] = program
    # hosts and policies may be declared after the lines that name them;
    # "empty" is the policy every Simulation starts with
    policies = {"empty"} | cfg.policies.keys()
    if cfg.supply_issuer is None:
        for key, value in (("rule", cfg.supply_rule), ("allowance", cfg.supply_allowance)):
            if value is not None:
                raise ScenarioError(f"[supply] {key} without an issuer", supply_lines[key])
    elif cfg.supply_issuer not in cfg.hosts:
        raise ScenarioError(f"undeclared issuer {cfg.supply_issuer!r}", supply_lines["issuer"])
    issuers = {spec.id for spec in cfg.hosts.values() if spec.role in ISSUER_ROLES}
    if cfg.supply_allowance is not None:
        issuers.add(cfg.supply_issuer)
    if cfg.supply_issuer is not None and cfg.supply_issuer not in issuers:
        raise ScenarioError(
            f"[supply] issuer {cfg.supply_issuer!r} is not a BANK or CENTRAL_BANK"
            " and has no allowance",
            supply_lines["issuer"],
        )
    if cfg.supply_policy not in policies:
        raise ScenarioError(f"undeclared policy {cfg.supply_policy!r}", supply_lines["policy"])
    for line_no, (tick, _) in zip(script_line_nos, cfg.script):
        if tick > cfg.until:
            raise ScenarioError(f"script tick {tick} is after until = {cfg.until}", line_no)
    _check_script_args(cfg, script_line_nos, issuers, policies)
    return cfg


# integer [sim] keys -> the least value each may take
_SIM_INT_LEAST = {"until": 0, "year_ticks": 1, "period_ticks": 1}


def _parse_sim_entry(cfg: ScenarioConfig, key: str, value: str, line_no: int) -> None:
    if key in ("name", "currency"):
        # a report line splits on whitespace, an observation line and the
        # origin body a mint signs on "|"
        if value.split() != [value] or "|" in value:
            raise ScenarioError(f"[sim] {key} {value!r} must be one word without '|'", line_no)
        setattr(cfg, key, value)
        return
    if key != "latency" and key not in _SIM_INT_LEAST:
        raise ScenarioError(f"unknown [sim] key {key!r}", line_no)
    try:
        if key == "latency":
            lo, hi = (int(part) for part in value.split())
            if not 0 <= lo <= hi:
                raise ValueError(f"latency wants 0 <= lo <= hi, got {lo} {hi}")
            cfg.latency = (lo, hi)
        else:
            number, least = int(value), _SIM_INT_LEAST[key]
            if number < least:
                raise ValueError(f"must be at least {least}, got {number}")
            setattr(cfg, key, number)
    except ValueError as exc:
        raise ScenarioError(f"bad [sim] value for {key!r}: {exc}", line_no) from None


def _parse_host_entry(cfg: ScenarioConfig, key: str, value: str, line_no: int) -> None:
    parts = value.split()
    if len(parts) < 2:
        raise ScenarioError("host wants 'ROLE LOCATION [k=v ...]'", line_no)
    try:
        role = Role(parts[0])
    except ValueError:
        raise ScenarioError(f"unknown role {parts[0]!r}", line_no) from None
    if not is_party_name(key):
        raise ScenarioError(f"host id {key!r} {PARTY_NAME_RULE}", line_no)
    if key == REGISTRY_KEY:  # the registry's key signs every ledger line
        raise ScenarioError(f"host id {key!r} is the registry's key id", line_no)
    if key in cfg.hosts:
        raise ScenarioError(f"duplicate host {key!r}", line_no)
    if "|" in parts[1]:  # an issuer's location is a field of the origin it signs
        raise ScenarioError(f"host location {parts[1]!r} holds a '|'", line_no)
    spec = Host(id=key, location=parts[1], role=role)
    for extra in parts[2:]:
        if "=" not in extra:
            raise ScenarioError(f"bad host attribute {extra!r}", line_no)
        attr, attr_value = extra.split("=", 1)
        if attr == "licence":
            spec.licence = None if attr_value in ("none", "-") else attr_value
        elif attr == "category":
            spec.category = attr_value
        else:
            raise ScenarioError(f"unknown host attribute {attr!r}", line_no)
    cfg.hosts[key] = spec


def _parse_law_entry(cfg: ScenarioConfig, key: str, value: str, line_no: int) -> None:
    parts = value.split()
    if len(parts) != 2:
        raise ScenarioError("law wants 'status num/den'", line_no)
    try:
        status = LawStatus(parts[0])
    except ValueError:
        raise ScenarioError(f"unknown law status {parts[0]!r}", line_no) from None
    if '"' in key:
        raise ScenarioError(f"[law] category {key!r} holds a '\"'", line_no)
    if key in cfg.law:
        raise ScenarioError(f"duplicate [law] category {key!r}", line_no)
    cfg.law[key] = LawEntry(status, _parse_fraction(parts[1], line_no))


# supply rule name -> the rule it builds, None for none; its arguments are
# the rule's fields, by their annotations, in order: each an int or a Fraction
_SUPPLY_RULES: dict[str, Optional[type[SupplyRule]]] = {
    "NONE": None,
    "FIXED_CAP": FixedCapGeometric,
    "CONSTANT_GROWTH": ConstantGrowth,
    "VOLUME_RESPONSIVE": VolumeResponsive,
}


def _parse_supply_entry(cfg: ScenarioConfig, key: str, value: str, line_no: int) -> None:
    if key == "issuer":
        cfg.supply_issuer = value
        return
    if key == "allowance":
        if not _is_non_negative_int(value):
            raise ScenarioError(f"bad [supply] allowance {value!r}", line_no)
        cfg.supply_allowance = int(value)
        return
    if key == "policy":
        cfg.supply_policy = value
        return
    if key != "rule":
        raise ScenarioError(f"unknown [supply] key {key!r}", line_no)
    kind, *args = value.split() or [""]
    if kind not in _SUPPLY_RULES:
        raise ScenarioError(f"unknown supply rule {kind!r}", line_no)
    rule = _SUPPLY_RULES[kind]
    wanted = get_type_hints(rule) if rule is not None else {}  # field name -> type
    if len(args) != len(wanted):
        usage = " ".join((kind, *wanted))
        raise ScenarioError(f"expected 'rule = {usage}', got {len(args)} arguments", line_no)
    try:
        values = [
            int(arg) if t is int else _parse_fraction(arg, line_no)
            for t, arg in zip(wanted.values(), args)
        ]
        cfg.supply_rule = None if rule is None else rule(*values)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"bad supply rule: {exc}", line_no) from None


def _parse_script_line(cfg: ScenarioConfig, line: str, line_no: int) -> None:
    parts = line.split()
    if not _is_non_negative_int(parts[0]):
        raise ScenarioError(f"script line must start with a tick >= 0: {parts[0]!r}", line_no)
    tick = int(parts[0])
    if len(parts) < 2 or parts[1] not in _PARAMS:
        raise ScenarioError(f"unknown script action {parts[1] if len(parts) > 1 else ''!r}", line_no)
    required, params = _PARAMS[parts[1]]
    if not required <= len(parts) - 2 <= len(params):
        wanted = required if required == len(params) else f"{required} to {len(params)}"
        raise ScenarioError(
            f"{parts[1]} wants {wanted} arguments, got {len(parts) - 2}", line_no
        )
    cfg.script.append((tick, tuple(parts[1:])))


def _check_script_args(
    cfg: ScenarioConfig,
    line_nos: list[int],
    issuers: set[str],
    policies: set[str],
) -> None:
    """Check the kind of every script argument against the declared names.

    A script repeats its hosts, policies and amounts, so the kind test runs
    once per distinct value of an argument position; the lines are read
    again only to report the first one holding a value that failed it.
    """
    fits = {
        ArgKind.HOST: cfg.hosts.__contains__,
        ArgKind.ISSUER: issuers.__contains__,
        ArgKind.POLICY: policies.__contains__,
        ArgKind.CATEGORY: cfg.law.__contains__,
        ArgKind.INT: _is_non_negative_int,
        ArgKind.POSITIVE_INT: _is_positive_int,
        ArgKind.FRACTION: _is_fraction,
        ArgKind.SIDE: _SIDES.__contains__,
        ArgKind.FLAG: _FLAGS.__contains__,
        ArgKind.LOCATION: lambda text: "|" not in text,
    }
    rows = defaultdict(list)
    for _, args in cfg.script:
        rows[args[0]].append(args)
    misfits = set()  # (action, position, text) that failed its kind test
    for action, same in rows.items():
        # one column per argument position; an omitted optional argument reads None
        columns = list(zip_longest(*same))[1:]
        for pos, ((_, kind), column) in enumerate(zip(_PARAMS[action][1], columns), start=1):
            if kind is not None:
                test = fits[kind]
                misfits.update(
                    (action, pos, text)
                    for text in set(column)
                    if text is not None and not test(text)
                )
    if not misfits:
        return
    for line_no, (_, args) in zip(line_nos, cfg.script):
        for pos, text in enumerate(args[1:], start=1):
            if (args[0], pos, text) in misfits:
                name, kind = _PARAMS[args[0]][1][pos - 1]
                raise ScenarioError(f"{args[0]} {name} must be {kind.value}, got {text!r}", line_no)


_SIDES = frozenset(side.value for side in Side)
_FLAGS = frozenset(("on", "off"))


def _is_non_negative_int(text: str) -> bool:
    try:
        return int(text) >= 0
    except ValueError:
        return False


def _is_positive_int(text: str) -> bool:
    try:
        return int(text) > 0
    except ValueError:
        return False


def _is_fraction(text: str) -> bool:
    try:
        parse_fraction(text)
    except (ValueError, ZeroDivisionError):
        return False
    return True


# -- policy builders -----------------------------------------------------


# builder -> fn(law, year_ticks, *arguments) -> policy source; a builder
# takes exactly the arguments its signature binds
_BUILDERS: dict[str, Callable[..., str]] = {
    "empty": lambda law, year: "",
    "sales_tax": lambda law, year, rate, category="sale", authority=fiscal.TAX_AUTHORITY: (
        fiscal.sales_tax_policy(parse_fraction(rate), category, authority)
    ),
    "legality": lambda law, year: fiscal.legality_policy(law),
    "annual_contact": lambda law, year, ticks=None: fiscal.annual_contact_policy(
        year if ticks is None else int(ticks)
    ),
    "jurisdiction": lambda law, year, home: fiscal.jurisdiction_policy(home),
    "owner_restriction": lambda law, year, banned: fiscal.owner_restriction_policy(
        banned.split(",")
    ),
    "expiry": lambda law, year, deadline: fiscal.expiry_policy(int(deadline)),
    "rate_seeker": lambda law, year: fiscal.rate_seeking_policy(),
    "tamper_notify": lambda law, year, authority=fiscal.GOVERNMENT: (
        fiscal.tamper_notify_policy(authority)
    ),
}
_BUILDER_SIGNATURES = {name: inspect.signature(build) for name, build in _BUILDERS.items()}


def build_policy_source(spec: str, law: dict[str, LawEntry], year_ticks: int) -> str:
    """Expand a '[policies]' value: '+'-joined builder invocations."""
    sources = []
    for chunk in spec.split("+"):
        parts = chunk.split()
        if not parts:
            raise ScenarioError(f"empty policy builder in {spec!r}")
        builder, args = parts[0], parts[1:]
        if builder not in _BUILDERS:
            raise ScenarioError(f"unknown policy builder {builder!r}")
        try:
            _BUILDER_SIGNATURES[builder].bind(law, year_ticks, *args)
        except TypeError:
            raise ScenarioError(f"wrong number of arguments for builder {builder!r}") from None
        try:
            sources.append(_BUILDERS[builder](law, year_ticks, *args))
        except (ValueError, ZeroDivisionError) as exc:  # fiscal.BadRate is a ValueError
            raise ScenarioError(f"bad arguments for builder {builder!r}: {exc}") from None
    return fiscal.compose(*sources)


# -- building and running -------------------------------------------------


def build_simulation(cfg: ScenarioConfig, seed: int) -> Simulation:
    sim = Simulation(
        seed=seed,
        scenario_name=cfg.name,
        year_ticks=cfg.year_ticks,
        period_ticks=cfg.period_ticks,
        latency=cfg.latency,
        currency=cfg.currency,
    )
    # add_host makes the run's own Host, so a run never edits the config's
    for spec in cfg.hosts.values():
        sim.add_host(
            spec.id,
            spec.role,
            spec.location,
            licence=spec.licence,
            category=spec.category,
        )
    sim.law = dict(cfg.law)
    sim.policies.update(cfg.policies)
    if cfg.supply_rule is not None:
        sim.supply_rule = cfg.supply_rule
        sim.supply_issuer = cfg.supply_issuer
        sim.supply_policy_name = cfg.supply_policy
    if cfg.supply_issuer is not None and cfg.supply_allowance is not None:
        sim.registry.authorize_issuer(cfg.supply_issuer, cfg.supply_allowance)
    for tick, parts in cfg.script:
        sim.schedule_script(tick, parts)
    return sim


def run_scenario(cfg: ScenarioConfig, seed: int) -> Simulation:
    sim = build_simulation(cfg, seed)
    sim.run_until(cfg.until)
    return sim


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())
