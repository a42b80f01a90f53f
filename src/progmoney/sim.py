"""Deterministic discrete-event environment for the money sandbox.

One logical clock in integer ticks; all randomness (message latency, key
material, tamper positions) comes from a single seeded generator, so a
fixed (scenario, seed) pair reproduces a byte-identical observation log.

Each tick runs three phases in fixed order:

  1. scheduled events, in (tick, seq) order — script actions, message
     deliveries, delegated moves;
  2. unit upkeep, in (host id, unit id) order — integrity check, location
     attestation, TICK policy evaluation and its obligations;
  3. period boundary work — bank interest accrual and the supply rule.

Observations are "tick|host|event|details" lines and are the authoritative
trace a report is rebuilt from.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from . import markets, money, policy as pol, supply as supply_mod
from .crypto import (
    Attestation,
    KeyDirectory,
    Signature,
    attest_location,
    verify_attestation,
)
from .markets import Order, OrderBook, RateBoard, Side, cda_submit, select_best_rate
from .money import MoneyUnit, TransferOutcome, UnitState
from .registry import DoubleSpend, Registry, RegistryError
from .sim_types import (
    FractionArg,
    Host,
    HostArg,
    IntArg,
    LawEntry,
    LawTable,
    PolicyArg,
    PositiveIntArg,
    Role,
    SchedulePast,
    UnknownHost,
    parse_fraction,
)

LOCATION_AUTHORITY_KEY = "location_authority"
DEFAULT_ISSUER_ALLOWANCE = 10**15


@dataclass(frozen=True)
class Message:
    claimed_sender: str
    body: str
    sig: Signature


@dataclass(frozen=True, order=True, slots=True)
class SimEvent:
    at: int
    seq: int
    kind: str = field(compare=False)
    target: str = field(compare=False)
    args: tuple = field(compare=False, default=())


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
        self.rng = random.Random(seed)
        self.seed = seed
        self.scenario_name = scenario_name
        self.year_ticks = year_ticks
        self.period_ticks = year_ticks if period_ticks is None else period_ticks
        self.latency = latency
        self.currency = currency
        self.directory = KeyDirectory()
        self.registry = Registry(self.directory, "registry", rng=self.rng)
        self.directory.create(LOCATION_AUTHORITY_KEY, self.rng)
        self.hosts: dict[str, Host] = {}
        self.units: dict[str, MoneyUnit] = {}
        self.law = LawTable()
        self.policies: dict[str, pol.CheckedPolicy] = {"empty": pol.EMPTY_POLICY}
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
        self.trajectory: list[supply_mod.TrajectoryPoint] = []
        self.forbidden_count = 0
        self.scheduled_count = 0
        self.executed_count = 0
        self._queue: list[SimEvent] = []
        self._event_seq = 0
        self._order_seq = 0
        self._config_observed = False

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
        keys = self.directory.create(host_id, self.rng)
        host = Host(
            id=host_id,
            location=location,
            keys=keys,
            role=role,
            licence=licence,
            category=category,
        )
        self.hosts[host_id] = host
        if role in (Role.BANK, Role.CENTRAL_BANK):
            self.registry.authorize_issuer(host_id, DEFAULT_ISSUER_ALLOWANCE)
        return host

    def host(self, host_id: str) -> Host:
        try:
            return self.hosts[host_id]
        except KeyError:
            raise UnknownHost(host_id) from None

    def add_policy(self, name: str, source: str) -> pol.CheckedPolicy:
        checked = pol.compile_policy(source)
        self.policies[name] = checked
        return checked

    def set_issuer_allowance(self, host_id: str, allowance: int) -> None:
        self.registry.authorize_issuer(host_id, allowance)

    # -- core services ---------------------------------------------------

    def attest(self, host_id: str) -> Attestation:
        host = self.host(host_id)
        return attest_location(
            self.directory, LOCATION_AUTHORITY_KEY, host.id, host.location, self.now
        )

    def query_law(self, category: str) -> LawEntry:
        entry = self.law.query(category)
        self.obs("sim", "law_query", category=category, status=entry.status.value)
        return entry

    def schedule(self, event: SimEvent) -> None:
        if event.at < self.now:
            raise SchedulePast(f"cannot schedule at {event.at}, now is {self.now}")
        heapq.heappush(self._queue, event)
        self.scheduled_count += 1

    def _schedule(self, at: int, kind: str, target: str, args: tuple = ()) -> None:
        self._event_seq += 1
        self.schedule(SimEvent(at, self._event_seq, kind, target, args))

    def schedule_script(self, at: int, parts: tuple[str, ...]) -> None:
        self._schedule(at, "script", "sim", parts)

    def send(self, frm: str, to: str, body: str, claimed_sender: Optional[str] = None) -> None:
        """Deliver a signed message after a latency draw; bad claims get dropped."""
        self.host(frm)
        self.host(to)
        claimed = claimed_sender or frm
        sig = self.directory.sign(frm, body.encode())
        latency = self.rng.randint(*self.latency)
        self._schedule(self.now + latency, "deliver", to, (Message(claimed, body, sig),))

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
        while self._queue and self._queue[0].at <= self.now:
            event = heapq.heappop(self._queue)
            self.executed_count += 1
            if event.kind == "deliver":
                self._deliver(event.target, event.args[0])
            elif event.kind == "move":
                self._execute_delegated_move(*event.args)
            elif event.kind == "script":
                self._run_script_action(event.args)

    def _deliver(self, target: str, message: Message) -> None:
        if not self.directory.verify(
            message.claimed_sender, message.body.encode(), message.sig
        ):
            self.obs(target, "bad_signature", claimed=message.claimed_sender)
            return
        self.obs(target, "message", sender=message.claimed_sender, body=message.body)

    # -- holdings ---------------------------------------------------------
    # The registry's live set is the one record of who holds what; `units`
    # maps each live id to its unit object.  Mint, split, merge, burn and
    # transfer each go through one wrapper below, which places the units
    # the operation made and drops the ones it consumed, so `units` always
    # holds exactly the registry's live ids.

    def _place_unit(self, unit: MoneyUnit) -> None:
        self.units[unit.id] = unit
        if unit.owner not in self.hosts:
            self.obs("sim", "orphan_unit", unit=unit.id, owner=unit.owner)

    def _consume_unit(self, unit: MoneyUnit) -> None:
        del self.units[unit.id]
        self.deposits.discard(unit.id)

    def _mint(
        self,
        issuer: Host,
        value: int,
        policy_name: str,
        expiry: Optional[int] = None,
        home: Optional[str] = None,
    ) -> MoneyUnit:
        policy = self.policies[policy_name]
        unit = money.mint(
            issuer.keys, value, self.currency, policy, self.registry, self.now, expiry, home
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

    def _burn(self, unit: MoneyUnit, reason: str) -> list[tuple[str, str]]:
        notes = money.zeroise(unit, reason, self.registry, self.now)
        self._consume_unit(unit)
        return notes

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
        nothing has changed.  On success the recipient `to` is the host
        named in each tax payment, zeroise and notification line.
        """
        ctx = self._eval_ctx(licensee, unit, location, category, to)
        try:
            outcome = money.transfer(unit, to, ctx, self.registry, at=self.now)
        except (money.PolicyForbids, money.ObligationUnpayable, RegistryError) as refusal:
            return refusal
        # the unit left its holder (and its bank, if a deposit); what it
        # became is placed again, payments before the received unit
        self._consume_unit(unit)
        for placed in outcome.all_units():
            self._place_unit(placed)
        for payee, paid in outcome.payments:
            self.obs(to, "pay_obligation", unit=paid.id, to=payee, amount=paid.value)
        for zeroised, reason in outcome.zeroised:
            self.obs(to, "zeroise", unit=zeroised.id, reason=reason, value=0)
        self._dispatch_notifications(to, outcome.notifications)
        return outcome

    def _forbidden(
        self, host_id: str, unit: MoneyUnit, category: str, refusal: ValueError, **details
    ) -> None:
        # a refusal other than the policy's own veto names its error
        self.forbidden_count += 1
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

    def balance_of(self, host_id: str) -> int:
        return sum(u.value for u in self.active_units_of(host_id))

    # -- upkeep -----------------------------------------------------------

    def _upkeep(self) -> None:
        pairs = [
            (host_id, uid)
            for host_id in sorted(self.hosts)
            for uid in self.registry.holdings(host_id)
        ]
        for host_id, uid in pairs:
            # an earlier unit's upkeep this tick may have moved or consumed it
            if self.registry.owner_of(uid) == host_id:
                self._upkeep_unit(self.hosts[host_id], self.units[uid])

    def _upkeep_unit(self, host: Host, unit: MoneyUnit) -> None:
        integrity = money.verify_integrity(unit, self.directory, self.registry.key_id)
        if not integrity:
            self.obs(
                host.id, "tamper_detected", unit=unit.id, problems=len(integrity.problems)
            )
            self._zeroise(host.id, unit, "tamper")
            return

        if host.id in self.withholding or host.role is Role.ADVERSARY:
            decision = pol.evaluate(
                unit.policy, pol.EventKind.ATTEST_FAIL, self._eval_ctx(host, unit)
            )
            self.obs(host.id, "attest_fail", unit=unit.id)
            self._execute_obligations(host, unit, decision.obligations)
            return

        attestation = self.attest(host.id)
        if not verify_attestation(self.directory, attestation):
            self.obs(host.id, "attest_invalid", unit=unit.id)
            return
        ctx = self._eval_ctx(host, unit, location=attestation.location)
        decision = pol.evaluate(unit.policy, pol.EventKind.TICK, ctx)
        self._execute_obligations(host, unit, decision.obligations)

    def _eval_ctx(
        self,
        host: Host,
        unit: MoneyUnit,
        location: Optional[str] = None,
        category: Optional[str] = None,
        counterparty: Optional[str] = None,
    ) -> pol.EvalContext:
        """The context `unit` is evaluated in under `host`'s licence."""
        return pol.EvalContext(
            amount=unit.value,
            category=category,
            counterparty=counterparty,
            location=location,
            now=self.now,
            expiry=unit.expiry,
            last_contact=self.now - unit.last_contact,
            licence=host.licence,
            home=unit.home,
        )

    def _zeroise(self, host_id: str, unit: MoneyUnit, reason: str) -> None:
        value = unit.value
        notes = self._burn(unit, reason)
        self.obs(host_id, "zeroise", unit=unit.id, reason=reason, value=value)
        self._dispatch_notifications(host_id, notes)

    def _execute_obligations(self, host: Host, unit: MoneyUnit, obligations) -> None:
        current = unit
        for ob in obligations:
            if current is None or current.state is not UnitState.ACTIVE:
                break
            if isinstance(ob, pol.PayObligation):
                current = self._pay_obligation(host, current, ob)
            elif isinstance(ob, pol.NotifyObligation):
                self._dispatch_notifications(
                    host.id, [(ob.target, f"tick unit={current.id}")]
                )
            elif isinstance(ob, pol.ZeroiseObligation):
                self._zeroise(host.id, current, ob.reason)
                current = None
            elif isinstance(ob, pol.MoveToBestRateObligation):
                self._plan_delegated_move(host, current)

    def _pay_obligation(
        self, host: Host, unit: MoneyUnit, ob: pol.PayObligation
    ) -> Optional[MoneyUnit]:
        if ob.amount <= 0:
            return unit
        if ob.amount > unit.value:
            self.obs(host.id, "obligation_unpayable", unit=unit.id, amount=ob.amount)
            return unit
        remainder: Optional[MoneyUnit]
        if ob.amount == unit.value:
            pay_unit, remainder = unit, None
        else:
            pay_unit, remainder = self._split(unit, ob.amount)
        outcome = self._transfer(
            host, pay_unit, ob.payee, money.OBLIGATION_CATEGORY, host.location
        )
        if not isinstance(outcome, TransferOutcome):
            error = type(outcome).__name__
            self.obs(host.id, "obligation_blocked", unit=pay_unit.id, error=error)
            return remainder if remainder is not None else pay_unit
        self.obs(
            host.id, "pay_obligation", unit=pay_unit.id, to=ob.payee, amount=pay_unit.value
        )
        return remainder

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
        self._schedule(self.now + 1, "move", host.id, (unit.id, target))
        self.obs(host.id, "move_planned", unit=unit.id, target=target)

    def _execute_delegated_move(self, unit_id: str, target: str) -> None:
        owner = self.registry.owner_of(unit_id)
        if owner not in self.hosts:
            return  # moved to a non-host, or consumed, since the move was planned
        holder, unit = self.hosts[owner], self.units[unit_id]
        # re-check under the board as it stands now (it may have moved on)
        best = select_best_rate(self.rate_board, self._current_bank_of(holder, unit_id))
        if best is None:
            return
        target = best
        target_host = self.hosts.get(target)
        if target_host is None:
            return
        outcome = self._transfer(holder, unit, target, target_host.category, holder.location)
        if not isinstance(outcome, TransferOutcome):
            self._refused_moves.add((unit_id, target))
            if isinstance(outcome, money.PolicyForbids):
                self.obs(holder.id, "move_forbidden", unit=unit_id, target=target)
            else:
                self.obs(holder.id, "move_failed", unit=unit_id, error=type(outcome).__name__)
            return
        if outcome.received is not None:
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
            if (
                unit.policy_hash != deposit.policy_hash
                or unit.currency != deposit.currency
                or unit.home != deposit.home
                or unit.value < amount
            ):
                continue
            if unit.value == amount:
                return unit
            return self._split(unit, amount)[0]
        return None

    def _apply_supply_rule(self) -> None:
        assert self.supply_rule is not None and self.supply_issuer is not None
        issuer = self.host(self.supply_issuer)
        period = self.now // self.period_ticks - 1
        lo = 0 if period == 0 else self.now - self.period_ticks + 1
        stats = self.registry.supply_stats((lo, self.now))
        treasury_total = sum(
            u.value for u in self.active_units_of(issuer.id) if u.id not in self.deposits
        )
        periods_per_year = max(1, self.year_ticks // self.period_ticks)
        directive = supply_mod.issuance(
            self.supply_rule, period, stats, periods_per_year=periods_per_year
        )
        burn = min(directive.burn, treasury_total)
        if directive.burn > treasury_total:
            self.obs(
                issuer.id,
                "supply_clamp",
                requested=directive.burn,
                treasury=treasury_total,
            )
        minted = burned = 0
        if directive.mint > 0:
            unit = self._mint(issuer, directive.mint, self.supply_policy_name)
            minted = directive.mint
            self.obs(issuer.id, "supply_mint", unit=unit.id, amount=minted)
        elif burn > 0:
            burned = self._burn_from_treasury(issuer, burn)
            self.obs(issuer.id, "supply_burn", amount=burned, requested=burn)
        point = supply_mod.TrajectoryPoint(
            period=period,
            supply=self.registry.live_supply,
            mint=minted,
            burn=burned,
            tx_volume=stats.tx_volume,
        )
        self.trajectory.append(point)
        self.obs(
            "sim",
            "trajectory",
            period=point.period,
            supply=point.supply,
            mint=point.mint,
            burn=point.burn,
            volume=point.tx_volume,
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

    def _run_script_action(self, parts: tuple[str, ...]) -> None:
        ACTIONS[parts[0]](self, *parts[1:])

    def act_mint(
        self, bank_id: HostArg, value: PositiveIntArg, policy_name: PolicyArg = "empty"
    ) -> MoneyUnit:
        bank = self.host(bank_id)
        unit = self._mint(
            bank, int(value), policy_name, self._policy_expiry(policy_name), bank.location
        )
        self.obs(bank_id, "mint", unit=unit.id, value=unit.value, policy=policy_name)
        return unit

    def _policy_expiry(self, policy_name: str) -> Optional[int]:
        # a deadline rule implies unit.expiry; read it off the compiled policy
        checked = self.policies[policy_name]
        deadlines = [
            factor.literal
            for rule in checked.rules
            if rule.condition is not None
            for term in rule.condition.terms
            for factor in term.factors
            if factor.field == "expiry" or (factor.field == "now" and factor.op == ">")
        ]
        ints = [d for d in deadlines if isinstance(d, int)]
        return min(ints) if ints else None

    def act_issue(
        self,
        bank_id: HostArg,
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
        self.obs(bank_id, "issue", unit=unit.id, to=recipient, value=unit.value)
        return outcome.received

    def act_buy(
        self, buyer_id: HostArg, vendor_id: HostArg, price: PositiveIntArg, category: str
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
            if not money.verify_integrity(unit, self.directory, self.registry.key_id):
                self.obs(buyer.id, "tamper_detected", unit=unit.id, problems="spend")
                self._zeroise(buyer.id, unit, "tamper")
                continue
            pool.append(unit)
            total += unit.value
            if total >= amount:
                break
        if total < amount:
            return None
        fungible = all(
            u.policy_hash == pool[0].policy_hash
            and u.currency == pool[0].currency
            and u.home == pool[0].home
            for u in pool
        )
        if not fungible:
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
            touched += 1
        self.obs(host_id, "contact", units=touched)

    def act_move_host(self, host_id: HostArg, location: str) -> None:
        host = self.host(host_id)
        host.location = location
        self.obs(host_id, "move_host", location=location)

    def act_tamper(self, host_id: HostArg, index: IntArg = "0") -> None:
        """Flip one character of a held unit's canonical policy text."""
        host = self.host(host_id)
        units = self.active_units_of(host_id)
        if not units:
            self.obs(host_id, "tamper_noop", reason="no_units")
            return
        unit = units[min(int(index), len(units) - 1)]
        source = unit.policy.program.source_canonical
        if not source:
            self.obs(host_id, "tamper_noop", reason="empty_policy")
            return
        pos = self.rng.randrange(len(source))
        old = source[pos]
        new = "X" if old != "X" else "Y"
        mutated = source[:pos] + new + source[pos + 1 :]
        unit.policy = pol.CheckedPolicy(
            pol.PolicyProgram(
                unit.policy.rules, mutated, unit.policy.program.content_hash
            )
        )
        self.obs(host_id, "tamper", unit=unit.id, pos=pos)

    def act_replay(self, adversary_id: HostArg, count: IntArg = "1") -> None:
        self.host(adversary_id)
        request = self.registry.last_request
        if request is None:
            self.obs(adversary_id, "replay_noop", reason="nothing_captured")
            return
        for _ in range(int(count)):
            try:
                self.registry.endorse(request)
                self.obs(adversary_id, "replay_accepted", kind=request.kind.value)
            except DoubleSpend:
                self.obs(adversary_id, "double_spend", kind=request.kind.value)
            except RegistryError as exc:
                self.obs(adversary_id, "replay_rejected", error=type(exc).__name__)

    def act_rate(self, bank_id: HostArg, rate: FractionArg) -> None:
        self.host(bank_id)
        self.rate_board[bank_id] = parse_fraction(rate)
        self._refused_moves.clear()
        self.obs(bank_id, "rate", rate=self.rate_board[bank_id])

    def act_order(
        self, side: str, price: PositiveIntArg, qty: PositiveIntArg, owner: HostArg
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

    def act_withhold(self, host_id: HostArg, flag: str = "on") -> None:
        self.host(host_id)
        if flag == "on":
            self.withholding.add(host_id)
        else:
            self.withholding.discard(host_id)
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
