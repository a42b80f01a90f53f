"""Deterministic discrete-event environment for the money sandbox.

One logical clock in integer ticks.  Each kind of randomness (key
material, message latency, tamper positions) comes from its own generator
seeded from the scenario seed, so a fixed (scenario, seed) pair reproduces
a byte-identical observation log, and one more draw of one kind never
moves the draws of another.

Each tick runs three phases in fixed order:

  1. queued calls, in (tick, seq) order — script actions, message
     deliveries, delegated moves;
  2. unit upkeep of the units due this tick, in (host id, unit id) order —
     integrity check (free for a unit unchanged since its last sound
     check), then TICK policy evaluation and its obligations; a host that
     withholds its location attestation, or is an adversary, runs its
     units' ATTEST_FAIL rules instead of their TICK rules.  A unit is due
     when it is placed (mint, split, merge, transfer, payment, interest),
     tampered with, or its host moves, contacts its government or starts
     or stops withholding; it stays due every tick while its upkeep runs
     ATTEST_FAIL rules or TICK obligations, and otherwise sleeps until the
     next tick at which one of its TICK comparisons of `now` or
     `last_contact` can flip.  A unit woken during upkeep or the period
     boundary is due the next tick;
  3. period boundary work — bank interest accrual and the supply rule.

Observations are "tick|host|event|details" lines and are the authoritative
trace a report is rebuilt from.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, Optional

from . import markets, money, policy as pol, supply as supply_mod
from .crypto import KeyDirectory, Signature
# unused here; perfbench/tracing.py wraps sim's bindings of these by name
from .crypto import attest_location, verify_attestation  # noqa: F401
from .markets import Order, OrderBook, RateBoard, Side, cda_submit, select_best_rate
from .money import MoneyUnit, TransferOutcome, UnitState
from .registry import DoubleSpend, Registry, RegistryError
from .sim_types import (
    ISSUER_ROLES,
    CategoryArg,
    FlagArg,
    FractionArg,
    Host,
    HostArg,
    IntArg,
    IssuerArg,
    LawEntry,
    LawTable,
    LocationArg,
    PolicyArg,
    PositiveIntArg,
    Role,
    SchedulePast,
    SideArg,
    UnknownHost,
    parse_fraction,
)

DEFAULT_ISSUER_ALLOWANCE = 10**15


class Simulation:
    def __init__(
        self,
        seed: int = 0,
        scenario_name: str = "adhoc",
        year_ticks: int = 360,
        period_ticks: Optional[int] = None,
        latency: tuple[int, int] = (1, 1),
        currency: str = "SIM",
    ) -> None:
        # one stream per kind of draw, so a draw of one kind never shifts
        # another; string seeds do not depend on the string-hash seed
        self._key_rng = random.Random(f"keys:{seed}")
        self._latency_rng = random.Random(f"latency:{seed}")
        self._tamper_rng = random.Random(f"tamper:{seed}")
        self.seed = seed
        self.scenario_name = scenario_name
        self.year_ticks = year_ticks
        self.period_ticks = year_ticks if period_ticks is None else period_ticks
        self.latency = latency
        self.currency = currency
        self.directory = KeyDirectory()
        self.registry = Registry(self.directory, rng=self._key_rng)
        self.hosts: dict[str, Host] = {}
        self.units: dict[str, MoneyUnit] = {}
        self.law = LawTable()
        self.policies: dict[str, pol.PolicyProgram] = {"empty": pol.EMPTY_POLICY}
        self.rate_board: RateBoard = {}
        # (unit id, target) moves refused under the current rate board
        self._refused_moves: set[tuple[str, str]] = set()
        self.book = OrderBook()
        self.supply_rule: Optional[supply_mod.SupplyRule] = None
        self.supply_issuer: Optional[str] = None
        self.supply_policy_name = "empty"
        self.deposits: set[str] = set()
        self.withholding: set[str] = set()
        self.now = 0
        self.observations: list[str] = []
        self.executed_count = 0
        # (at, seq, call, args), run as call(self, *args); `_schedule` draws
        # each seq, so no two entries tie and heapq compares only the ints
        self._queue: list[tuple[int, int, Callable[..., object], tuple]] = []
        self._event_seq = 0
        self._order_seq = 0
        self._config_observed = False
        # tick -> ids of the units whose upkeep is due then (see `_wake`)
        self._wakes: dict[int, set[str]] = {}
        # the first tick whose upkeep has not begun
        self._next_upkeep = 0

    # -- observations ----------------------------------------------------

    def obs(self, host: str, event: str, **details) -> None:
        rendered = " ".join(f"{k}={v}" for k, v in details.items())
        self.observations.append(f"{self.now}|{host}|{event}|{rendered}")

    def _observe_config(self) -> None:
        if self._config_observed:
            return
        self._config_observed = True
        self.obs(
            "sim",
            "config",
            scenario=self.scenario_name,
            seed=self.seed,
            year_ticks=self.year_ticks,
            period_ticks=self.period_ticks,
            latency=f"{self.latency[0]}:{self.latency[1]}",
            currency=self.currency,
        )
        for host_id in sorted(self.hosts):
            host = self.hosts[host_id]
            self.obs(
                "sim",
                "host",
                id=host.id,
                role=host.role.value,
                location=host.location,
                licence=host.licence or "-",
                category=host.category,
            )

    # -- setup -----------------------------------------------------------

    def add_host(
        self,
        host_id: str,
        role: Role,
        location: str,
        licence: Optional[str] = None,
        category: str = "deposit",
    ) -> Host:
        self.directory.create(host_id, self._key_rng)
        host = Host(
            id=host_id,
            location=location,
            role=role,
            licence=licence,
            category=category,
        )
        self.hosts[host_id] = host
        if role in ISSUER_ROLES:
            self.registry.authorize_issuer(host_id, DEFAULT_ISSUER_ALLOWANCE)
        return host

    def host(self, host_id: str) -> Host:
        try:
            return self.hosts[host_id]
        except KeyError:
            raise UnknownHost(host_id) from None

    def add_policy(self, name: str, source: str) -> pol.PolicyProgram:
        program = pol.compile_policy(source)
        self.policies[name] = program
        return program

    def set_issuer_allowance(self, host_id: str, allowance: int) -> None:
        self.registry.authorize_issuer(host_id, allowance)

    # -- core services ---------------------------------------------------

    def query_law(self, category: str) -> LawEntry:
        entry = self.law.query(category)
        self.obs("sim", "law_query", category=category, status=entry.status.value)
        return entry

    def _schedule(self, at: int, call: Callable[..., object], *args) -> None:
        """Queue `call(self, *args)` for tick `at`, after all queued there so far."""
        if at < self.now:
            raise SchedulePast(f"cannot schedule at {at}, now is {self.now}")
        self._event_seq += 1
        heapq.heappush(self._queue, (at, self._event_seq, call, args))

    def schedule_script(self, at: int, parts: tuple[str, ...]) -> None:
        self._schedule(at, ACTIONS[parts[0]], *parts[1:])

    def send(self, frm: str, to: str, body: str, claimed_sender: Optional[str] = None) -> None:
        """Deliver a signed message after a latency draw; bad claims get dropped."""
        self.host(frm)
        self.host(to)
        claimed = claimed_sender or frm
        sig = self.directory.sign(frm, body.encode())
        latency = self._latency_rng.randint(*self.latency)
        self._schedule(self.now + latency, Simulation._deliver, to, claimed, body, sig)

    # -- the clock ---------------------------------------------------------

    def run_until(self, tick: int) -> list[str]:
        """Process every tick from now through `tick` inclusive."""
        if tick < self.now:
            raise SchedulePast(f"cannot run to {tick}, now is {self.now}")
        self._observe_config()
        while self.now <= tick:
            self.registry.now = max(self.registry.now, self.now)
            self._drain_events()
            self._upkeep()
            if self.now > 0 and self.now % self.period_ticks == 0:
                self._period_boundary()
            self.now += 1
        return self.observations

    def _drain_events(self) -> None:
        # <= so a zero-latency send from the upkeep phase (which runs after
        # this drain) still executes at the very next drain
        queue = self._queue
        while queue and queue[0][0] <= self.now:
            _, _, call, args = heapq.heappop(queue)
            self.executed_count += 1
            call(self, *args)

    def _deliver(self, target: str, claimed_sender: str, body: str, sig: Signature) -> None:
        if not self.directory.verify(claimed_sender, body.encode(), sig):
            self.obs(target, "bad_signature", claimed=claimed_sender)
            return
        self.obs(target, "message", sender=claimed_sender, body=body)

    # -- holdings ---------------------------------------------------------
    # The registry's live set is the one record of who holds what; `units`
    # maps each live id to its unit object.  Mint, split, merge, burn and
    # transfer each go through one wrapper below, which places the units
    # the operation made and drops the ones it consumed, so `units` always
    # holds exactly the registry's live ids.

    def _place_unit(self, unit: MoneyUnit) -> None:
        self.units[unit.id] = unit
        self._wake(unit.id)
        if unit.owner not in self.hosts:
            self.obs("sim", "orphan_unit", unit=unit.id, owner=unit.owner)

    def _consume_unit(self, unit: MoneyUnit) -> None:
        del self.units[unit.id]
        self.deposits.discard(unit.id)

    def _mint(self, issuer: Host, value: int, policy_name: str) -> MoneyUnit:
        """The one mint path: a unit of `issuer`'s, at home where `issuer` is now."""
        policy = self.policies[policy_name]
        unit = money.mint(
            issuer.id, value, self.currency, policy, self.registry, self.now, issuer.location
        )
        self._place_unit(unit)
        return unit

    def _split(self, unit: MoneyUnit, amount: int) -> tuple[MoneyUnit, MoneyUnit]:
        carved, rest = money.split(unit, amount, self.registry, self.now)
        self._consume_unit(unit)
        self._place_unit(carved)
        self._place_unit(rest)
        return carved, rest

    def _merge(self, a: MoneyUnit, b: MoneyUnit) -> MoneyUnit:
        merged = money.merge(a, b, self.registry, self.now)
        self._consume_unit(a)
        self._consume_unit(b)
        self._place_unit(merged)
        return merged

    def _burn(self, unit: MoneyUnit, reason: str) -> None:
        money.zeroise(unit, reason, self.registry, self.now)
        self._consume_unit(unit)

    def _transfer(
        self,
        licensee: Host,
        unit: MoneyUnit,
        to: str,
        category: str,
        location: Optional[str],
    ) -> TransferOutcome | ValueError:
        """Move `unit` whole to `to`, evaluated under `licensee`'s licence.

        Returns the outcome, or the refusal (the policy forbids, the taxes
        exceed the unit's value, or the registry refuses), in which case
        nothing has changed.  On success `to` is the host named in each
        payment and notice line, and carries out what RECEIVE leaves owed.
        """
        ctx = self._eval_ctx(licensee, unit, location, category, to)
        try:
            outcome = money.transfer(unit, to, ctx, self.registry)
        except (money.PolicyForbids, money.ObligationUnpayable, RegistryError) as refusal:
            return refusal
        # the unit left its holder (and its bank, if a deposit); what it
        # became is placed again, payments before the received unit
        self._consume_unit(unit)
        for placed in outcome.all_units():
            self._place_unit(placed)
        for payee, paid in outcome.payments:
            self.obs(to, "pay_obligation", unit=paid.id, to=payee, amount=paid.value)
        self._dispatch_notifications(to, outcome.notifications)
        if outcome.owed:
            host = self.hosts[to]
            self._execute_obligations(host, outcome.received, outcome.owed, pol.EventKind.RECEIVE)
        return outcome

    def _forbidden(
        self, host_id: str, unit: MoneyUnit, category: str, refusal: ValueError, **details
    ) -> None:
        # a refusal other than the policy's own veto names its error
        if not isinstance(refusal, money.PolicyForbids):
            details["error"] = type(refusal).__name__
        self.obs(host_id, "forbidden", unit=unit.id, category=category, **details)

    def _dispatch_notifications(self, frm: str, notifications: list[tuple[str, str]]) -> None:
        for target, body in notifications:
            if target in self.hosts and frm in self.hosts:
                self.send(frm, target, body)
                self.obs(frm, "notify", target=target)
            else:
                self.obs(frm, "notify_undeliverable", target=target)

    def active_units_of(self, host_id: str) -> list[MoneyUnit]:
        self.host(host_id)
        return [self.units[uid] for uid in self.registry.holdings(host_id)]

    # -- upkeep -----------------------------------------------------------
    # A unit's upkeep writes nothing while the head of its lineage is already
    # verified, its host neither withholds nor is an adversary, and its TICK
    # decision carries no obligations.  Only a mutation of the unit or its
    # host, or time reaching a tick at which a TICK comparison of `now` or
    # `last_contact` flips, can end that, so each unit is visited only at the
    # ticks `_wakes` names: the flip tick its last visit found, the next tick
    # if that visit did anything, and the first upkeep after each mutation
    # that touched it.  A stale or extra wake-up costs one idle visit.

    def _wake(self, unit_id: str, at: Optional[int] = None) -> None:
        """Make `unit_id` due at tick `at`, or at the first upkeep not yet begun."""
        tick = max(self.now, self._next_upkeep) if at is None else at
        due = self._wakes.get(tick)
        if due is None:
            self._wakes[tick] = {unit_id}
        else:
            due.add(unit_id)

    def _wake_units_of(self, host_id: str) -> None:
        for uid in self.registry.holdings(host_id):
            self._wake(uid)

    def _upkeep(self) -> None:
        self._next_upkeep = self.now + 1
        owner_of = self.registry.owner_of
        # this tick's due units in (host, unit) order; ids consumed or held
        # by no host since they were woken are dropped
        due = sorted(
            (owner, uid)
            for uid in self._wakes.pop(self.now, ())
            if (owner := owner_of(uid)) in self.hosts
        )
        for host_id, uid in due:
            # an earlier unit's upkeep this tick may have moved or consumed it
            if owner_of(uid) == host_id:
                at = self._upkeep_unit(self.hosts[host_id], self.units[uid])
                if at is not None:
                    self._wake(uid, at)

    def _upkeep_unit(self, host: Host, unit: MoneyUnit) -> Optional[int]:
        """Run one unit's upkeep; returns the tick its next one is due, None for never."""
        integrity = money.verify_integrity(unit, self.directory)
        if not integrity:
            self._tampered(host, unit, len(integrity.problems))
            return None

        if host.id in self.withholding or host.role is Role.ADVERSARY:
            # its host proves no location, so ATTEST_FAIL rules run instead of TICK rules
            ctx = self._eval_ctx(host, unit)
            decision = pol.evaluate(unit.policy, pol.EventKind.ATTEST_FAIL, ctx)
            self.obs(host.id, "attest_fail", unit=unit.id)
            self._execute_obligations(host, unit, decision.obligations, pol.EventKind.ATTEST_FAIL)
            return self.now + 1
        ctx = self._eval_ctx(host, unit, location=host.location)
        decision = pol.evaluate(unit.policy, pol.EventKind.TICK, ctx)
        if decision.obligations:
            self._execute_obligations(host, unit, decision.obligations, pol.EventKind.TICK)
            return self.now + 1
        return unit.policy.next_tick_change(self.now, unit.last_contact)

    def _eval_ctx(
        self,
        host: Host,
        unit: MoneyUnit,
        location: Optional[str] = None,
        category: Optional[str] = None,
        counterparty: Optional[str] = None,
    ) -> pol.EvalContext:
        """The context `unit` is evaluated in under `host`'s licence."""
        origin = unit.lineage.origin  # None on a forged MINT, which upkeep zeroises
        return pol.EvalContext(
            amount=unit.value,
            category=category,
            counterparty=counterparty,
            location=location,
            now=self.now,
            expiry=unit.policy.deadline,
            last_contact=self.now - unit.last_contact,
            licence=host.licence,
            home=None if origin is None else origin.home,
        )

    def _zeroise(self, host_id: str, unit: MoneyUnit, reason: str, obligations) -> None:
        """Burn `unit`, then tell the target of each NOTIFY obligation in `obligations`."""
        value = unit.value
        self._burn(unit, reason)
        self.obs(host_id, "zeroise", unit=unit.id, reason=reason, value=value)
        body = f"zeroise unit={unit.id} reason={reason} value={value}"
        notes = [(ob.target, body) for ob in obligations if isinstance(ob, pol.NotifyObligation)]
        self._dispatch_notifications(host_id, notes)

    def _tampered(self, host: Host, unit: MoneyUnit, problems: int | str) -> None:
        """Zeroise `unit`, which failed its integrity check; notify per its TAMPER rules."""
        self.obs(host.id, "tamper_detected", unit=unit.id, problems=problems)
        decision = pol.evaluate(unit.policy, pol.EventKind.TAMPER, self._eval_ctx(host, unit))
        self._zeroise(host.id, unit, "tamper", decision.obligations)

    def _execute_obligations(
        self, host: Host, unit: Optional[MoneyUnit], obligations, event: pol.EventKind
    ) -> None:
        """Carry out `unit`'s obligations from an `event` decision until it is gone.

        The one place a RECEIVE, TICK or ATTEST_FAIL NOTIFY, ZEROISE or MOVE_TO_BEST_RATE
        runs.  A notice names `event`; a ZEROISE sends every target the zeroise notice.
        """
        current = unit
        for ob in obligations:
            if current is None or current.state is not UnitState.ACTIVE:
                break
            if isinstance(ob, pol.PayObligation):
                current = self._pay_obligation(host, current, ob)
            elif isinstance(ob, pol.NotifyObligation):
                body = f"{event.value.lower()} unit={current.id}"
                self._dispatch_notifications(host.id, [(ob.target, body)])
            elif isinstance(ob, pol.ZeroiseObligation):
                self._zeroise(host.id, current, ob.reason, obligations)
                current = None
            elif isinstance(ob, pol.MoveToBestRateObligation):
                self._plan_delegated_move(host, current)

    def _pay_obligation(
        self, host: Host, unit: MoneyUnit, ob: pol.PayObligation
    ) -> Optional[MoneyUnit]:
        """Pay `ob` out of `unit` and return what is left; a refused levy changes nothing."""
        if ob.amount <= 0:
            return unit
        if ob.amount > unit.value:
            self.obs(host.id, "obligation_unpayable", unit=unit.id, amount=ob.amount)
            return unit
        ctx = self._eval_ctx(host, unit, location=host.location)
        try:
            paid, rest = money.pay(unit, ob, ctx, self.registry, self.now)
        except money.PolicyForbids as refusal:
            self.obs(host.id, "obligation_blocked", unit=unit.id, error=type(refusal).__name__)
            return unit
        self._consume_unit(unit)
        self._place_unit(paid)
        if rest is not None:
            self._place_unit(rest)
        self.obs(host.id, "pay_obligation", unit=paid.id, to=ob.payee, amount=paid.value)
        return rest

    # -- delegation --------------------------------------------------------

    def _current_bank_of(self, host: Host, unit_id: str) -> Optional[str]:
        if host.role is Role.BANK and unit_id in self.deposits:
            return host.id
        return None

    def _plan_delegated_move(self, host: Host, unit: MoneyUnit) -> None:
        if host.role in (Role.BANK, Role.CENTRAL_BANK) and unit.id not in self.deposits:
            return  # a bank's own treasury stays put
        target = select_best_rate(self.rate_board, self._current_bank_of(host, unit.id))
        if target is None or target == host.id or (unit.id, target) in self._refused_moves:
            return
        self._schedule(self.now + 1, Simulation._execute_delegated_move, unit.id)
        self.obs(host.id, "move_planned", unit=unit.id, target=target)

    def _execute_delegated_move(self, unit_id: str) -> None:
        owner = self.registry.owner_of(unit_id)
        if owner not in self.hosts:
            return  # moved to a non-host, or consumed, since the move was planned
        holder, unit = self.hosts[owner], self.units[unit_id]
        # re-check under the board as it stands now (it may have moved on)
        target = select_best_rate(self.rate_board, self._current_bank_of(holder, unit_id))
        if target is None:
            return
        # board keys come only from act_rate, which names a host; hosts stay
        outcome = self._transfer(holder, unit, target, self.hosts[target].category, holder.location)
        if not isinstance(outcome, TransferOutcome):
            self._refused_moves.add((unit_id, target))
            if isinstance(outcome, money.PolicyForbids):
                self.obs(holder.id, "move_forbidden", unit=unit_id, target=target)
            else:
                self.obs(holder.id, "move_failed", unit=unit_id, error=type(outcome).__name__)
            return
        # a RECEIVE obligation may have zeroised what the bank received
        if outcome.received is not None and outcome.received.state is UnitState.ACTIVE:
            self.deposits.add(outcome.received.id)
        self.obs(
            holder.id,
            "delegated_move",
            unit=unit_id,
            target=target,
            rate=self.rate_board[target],
        )

    # -- period boundary ---------------------------------------------------

    def _period_boundary(self) -> None:
        self._accrue_interest()
        if self.supply_rule is not None and self.supply_issuer is not None:
            self._apply_supply_rule()

    def _accrue_interest(self) -> None:
        periods_per_year = max(1, self.year_ticks // self.period_ticks)
        for bank_id in sorted(self.hosts):
            bank = self.hosts[bank_id]
            if bank.role is not Role.BANK:
                continue
            rate = self.rate_board.get(bank_id)
            if not rate or rate <= 0:
                continue
            for uid in self.registry.holdings(bank_id):
                if uid not in self.deposits:
                    continue
                deposit = self.units[uid]
                interest = markets.interest_payment(
                    deposit.value, rate, periods_per_year
                )
                if interest <= 0:
                    continue
                funding = self._treasury_piece(bank, deposit, interest)
                if funding is None:
                    self.obs(bank_id, "interest_unfunded", unit=uid, amount=interest)
                    continue
                merged = self._merge(deposit, funding)
                self.deposits.add(merged.id)
                self.obs(
                    bank_id, "interest", unit=uid, merged=merged.id, amount=interest
                )

    def _treasury_piece(
        self, bank: Host, deposit: MoneyUnit, amount: int
    ) -> Optional[MoneyUnit]:
        for uid in self.registry.holdings(bank.id):
            if uid in self.deposits:
                continue
            unit = self.units[uid]
            if not money.fungible(unit, deposit) or unit.value < amount:
                continue
            if unit.value == amount:
                return unit
            return self._split(unit, amount)[0]
        return None

    def _apply_supply_rule(self) -> None:
        """Run this period's supply directive and observe its trajectory row.

        The statistics and the trajectory's supply come from the registry's
        fold, minted - burned and the window's per-tick volume, so a period
        reads no ledger record.  Only a burning period walks the issuer's
        wallet: the clamp to its treasury is the treasury's only reader.
        """
        assert self.supply_rule is not None and self.supply_issuer is not None
        issuer = self.host(self.supply_issuer)
        period = self.now // self.period_ticks - 1
        lo = 0 if period == 0 else self.now - self.period_ticks + 1
        stats = self.registry.supply_stats((lo, self.now))
        periods_per_year = max(1, self.year_ticks // self.period_ticks)
        directive = supply_mod.issuance(
            self.supply_rule, period, stats, periods_per_year=periods_per_year
        )
        minted = burned = 0
        if directive.mint > 0:
            unit = self._mint(issuer, directive.mint, self.supply_policy_name)
            minted = directive.mint
            self.obs(issuer.id, "supply_mint", unit=unit.id, amount=minted)
        elif directive.burn > 0:
            treasury_total = sum(
                u.value for u in self.active_units_of(issuer.id) if u.id not in self.deposits
            )
            burn = min(directive.burn, treasury_total)
            if directive.burn > treasury_total:
                self.obs(
                    issuer.id,
                    "supply_clamp",
                    requested=directive.burn,
                    treasury=treasury_total,
                )
            if burn > 0:
                burned = self._burn_from_treasury(issuer, burn)
                self.obs(issuer.id, "supply_burn", amount=burned, requested=burn)
        fold = self.registry.fold
        self.obs(
            "sim",
            "trajectory",
            period=period,
            supply=fold.minted - fold.burned,
            mint=minted,
            burn=burned,
            volume=stats.tx_volume,
        )

    def _burn_from_treasury(self, issuer: Host, amount: int) -> int:
        burned = 0
        for unit in self.active_units_of(issuer.id):
            if burned >= amount:
                break
            if unit.id in self.deposits:
                continue
            need = amount - burned
            if unit.value > need:
                unit = self._split(unit, need)[0]
            value = unit.value
            self._burn(unit, "supply")
            burned += value
        return burned

    # -- script actions ------------------------------------------------------

    def act_mint(
        self, bank_id: IssuerArg, value: PositiveIntArg, policy_name: PolicyArg = "empty"
    ) -> MoneyUnit:
        unit = self._mint(self.host(bank_id), int(value), policy_name)
        self.obs(bank_id, "mint", unit=unit.id, value=unit.value, policy=policy_name)
        return unit

    def act_issue(
        self,
        bank_id: IssuerArg,
        recipient: HostArg,
        value: PositiveIntArg,
        policy_name: PolicyArg = "empty",
    ) -> Optional[MoneyUnit]:
        unit = self.act_mint(bank_id, value, policy_name)
        bank = self.host(bank_id)
        target = self.host(recipient)
        # the recipient's licence at the bank's location; the unit was
        # minted now, so last_contact is 0
        outcome = self._transfer(target, unit, recipient, "issuance", bank.location)
        if not isinstance(outcome, TransferOutcome):
            self._forbidden(bank_id, unit, "issuance", outcome)
            return None
        # the value issued: a RECEIVE obligation may have zeroised the unit since
        self.obs(bank_id, "issue", unit=unit.id, to=recipient, value=int(value))
        received = outcome.received
        return received if received is not None and received.state is UnitState.ACTIVE else None

    def act_buy(
        self, buyer_id: HostArg, vendor_id: HostArg, price: PositiveIntArg, category: CategoryArg
    ) -> None:
        buyer, vendor = self.host(buyer_id), self.host(vendor_id)
        amount = int(price)
        entry = self.query_law(category)
        payment = self._gather_payment(buyer, amount)
        if payment is None:
            self.obs(buyer_id, "insufficient_funds", price=amount, category=category)
            return
        outcome = self._transfer(buyer, payment, vendor_id, category, buyer.location)
        if isinstance(outcome, money.PolicyForbids):
            on, status = outcome.event.value, entry.status.value
            self._forbidden(buyer_id, payment, category, outcome, on=on, status=status)
            return
        if not isinstance(outcome, TransferOutcome):
            self.obs(buyer_id, "buy_failed", error=type(outcome).__name__)
            return
        self.obs(
            buyer_id,
            "transfer_complete",
            unit=payment.id,
            to=vendor_id,
            amount=amount,
            category=category,
        )

    def _gather_payment(self, buyer: Host, amount: int) -> Optional[MoneyUnit]:
        """Assemble one unit worth exactly `amount` from the units the buyer holds."""
        pool: list[MoneyUnit] = []
        total = 0
        for unit in self.active_units_of(buyer.id):
            # a unit failing integrity zeroises the moment it is touched
            if not money.verify_integrity(unit, self.directory):
                self._tampered(buyer, unit, "spend")
                continue
            pool.append(unit)
            total += unit.value
            if total >= amount:
                break
        if total < amount:
            return None
        if not all(money.fungible(u, pool[0]) for u in pool):
            self.obs(buyer.id, "mixed_funds", needed=amount)
            return None
        if total > amount:
            last = pool.pop()
            keep = amount - sum(u.value for u in pool)
            pool.append(self._split(last, keep)[0])
        merged = pool[0]
        for unit in pool[1:]:
            merged = self._merge(merged, unit)
        return merged

    def act_contact(self, host_id: HostArg) -> None:
        host = self.host(host_id)
        touched = 0
        for unit in self.active_units_of(host_id):
            unit.last_contact = self.now
            self._wake(unit.id)
            touched += 1
        self.obs(host_id, "contact", units=touched)

    def act_move_host(self, host_id: HostArg, location: LocationArg) -> None:
        host = self.host(host_id)
        host.location = location
        self._wake_units_of(host_id)
        self.obs(host_id, "move_host", location=location)

    def act_tamper(self, host_id: HostArg, index: IntArg = "0") -> None:
        """Flip one character of a held unit's canonical policy text."""
        host = self.host(host_id)
        units = self.active_units_of(host_id)
        if not units:
            self.obs(host_id, "tamper_noop", reason="no_units")
            return
        unit = units[min(int(index), len(units) - 1)]
        source = unit.policy.source_canonical
        if not source:
            self.obs(host_id, "tamper_noop", reason="empty_policy")
            return
        pos = self._tamper_rng.randrange(len(source))
        old = source[pos]
        new = "X" if old != "X" else "Y"
        mutated = source[:pos] + new + source[pos + 1 :]
        unit.policy = pol.PolicyProgram(unit.policy.rules, mutated)
        self._wake(unit.id)
        self.obs(host_id, "tamper", unit=unit.id, pos=pos)

    def act_replay(self, adversary_id: HostArg, count: IntArg = "1") -> None:
        self.host(adversary_id)
        request = self.registry.last_request
        if request is None:
            self.obs(adversary_id, "replay_noop", reason="nothing_captured")
            return
        asked, sender_sig = request
        for _ in range(int(count)):
            try:
                self.registry.endorse(asked, sender_sig)
                self.obs(adversary_id, "replay_accepted", kind=asked.kind.value)
            except DoubleSpend:
                self.obs(adversary_id, "double_spend", kind=asked.kind.value)
            except RegistryError as exc:
                self.obs(adversary_id, "replay_rejected", error=type(exc).__name__)

    def act_rate(self, bank_id: HostArg, rate: FractionArg) -> None:
        self.host(bank_id)
        self.rate_board[bank_id] = parse_fraction(rate)
        self._refused_moves.clear()
        self.obs(bank_id, "rate", rate=self.rate_board[bank_id])

    def act_order(
        self, side: SideArg, price: PositiveIntArg, qty: PositiveIntArg, owner: HostArg
    ) -> None:
        self.host(owner)
        self._order_seq += 1
        order = Order(Side(side), int(price), int(qty), owner, self._order_seq)
        self.book, trades = cda_submit(self.book, order, at=self.now)
        self.obs(owner, "order", side=side, price=price, qty=qty)
        for trade in trades:
            self.obs(
                "sim",
                "trade",
                price=trade.price,
                qty=trade.qty,
                buyer=trade.buyer,
                seller=trade.seller,
            )
            self._settle_trade(trade)

    def _settle_trade(self, trade) -> None:
        buyer = self.host(trade.buyer)
        cost = trade.price * trade.qty
        payment = self._gather_payment(buyer, cost)
        if payment is None:
            self.obs(trade.buyer, "settlement_failed", cost=cost)
            return
        outcome = self._transfer(buyer, payment, trade.seller, "trade", buyer.location)
        if not isinstance(outcome, TransferOutcome):
            self._forbidden(trade.buyer, payment, "trade", outcome)
            return
        self.obs(trade.buyer, "settled", to=trade.seller, amount=cost)

    def act_withhold(self, host_id: HostArg, flag: FlagArg = "on") -> None:
        self.host(host_id)
        if flag == "on":
            self.withholding.add(host_id)
        else:
            self.withholding.discard(host_id)
        self._wake_units_of(host_id)
        self.obs(host_id, "withhold", flag=flag)

    def act_spoof(self, adversary_id: HostArg, victim_id: HostArg, target_id: HostArg) -> None:
        """Send a message claiming to be someone else; drops on receipt."""
        self.host(victim_id)
        self.send(adversary_id, target_id, "spoofed", claimed_sender=victim_id)
        self.obs(adversary_id, "spoof", victim=victim_id, target=target_id)


# script action name -> handler; the scenario loader checks each script
# line's name, argument count and argument kinds against this table
ACTIONS: dict[str, Callable[..., object]] = {
    "MINT": Simulation.act_mint,
    "ISSUE": Simulation.act_issue,
    "BUY": Simulation.act_buy,
    "CONTACT": Simulation.act_contact,
    "MOVE_HOST": Simulation.act_move_host,
    "TAMPER": Simulation.act_tamper,
    "REPLAY": Simulation.act_replay,
    "RATE": Simulation.act_rate,
    "ORDER": Simulation.act_order,
    "WITHHOLD": Simulation.act_withhold,
    "SPOOF": Simulation.act_spoof,
}
