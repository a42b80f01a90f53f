"""MoneyUnit lifecycle: mint, split, merge, transfer, integrity, zeroise.

Every operation is gated twice: by the unit's own policy and by the central
registry.  A transfer is atomic — all policy verdicts and obligation
feasibility are established before the first registry call, so a rejected
transfer leaves both the unit and the ledger untouched.

Obligations raised by the RECEIVE evaluation (e.g. a sales-tax PAY) execute
synchronously inside the transfer as split+transfer to the payee.  Those
inner transfers carry the reserved category "obligation" and do not execute
obligations of their own, which keeps tax-on-tax recursion impossible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

from . import policy as pol
from .crypto import KeyDirectory, KeyPair, Signature, digest_hex, h64
from .registry import EndorseRequest, RecordKind, Registry

OBLIGATION_CATEGORY = "obligation"


class UnitState(Enum):
    ACTIVE = "ACTIVE"
    ZEROISED = "ZEROISED"
    EXPIRED = "EXPIRED"


class InvalidPolicy(ValueError):
    pass


class InvalidAmount(ValueError):
    pass


class NotActive(ValueError):
    pass


class MixedPolicy(ValueError):
    pass


class MixedOwner(ValueError):
    pass


class PolicyForbids(ValueError):
    def __init__(self, message: str, event: pol.EventKind) -> None:
        super().__init__(message)
        self.event = event


class ObligationUnpayable(ValueError):
    pass


@dataclass(frozen=True)
class TransferStamp:
    """One provenance step; both signatures cover "from|to|amount|at"."""

    frm: str
    to: str
    amount: int
    at: int
    endorsement: Signature
    sender_sig: Signature

    def body(self) -> bytes:
        return f"{self.frm}|{self.to}|{self.amount}|{self.at}".encode()


@dataclass(eq=False)  # units are entities: compare by identity, not structure
class MoneyUnit:
    id: str
    value: int
    currency: str
    owner: str
    policy: pol.CheckedPolicy
    policy_hash: int
    mint_sig: Signature
    provenance: list[TransferStamp]
    state: UnitState = UnitState.ACTIVE
    expiry: Optional[int] = None
    home: Optional[str] = None
    last_contact: int = 0

    def birth_body(self) -> bytes:
        return f"{self.id}|{self.value}|{self.currency}|{digest_hex(self.policy_hash)}".encode()


@dataclass(frozen=True)
class IntegrityResult:
    ok: bool
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


INTEGRITY_OK = IntegrityResult(True)


@dataclass
class TransferOutcome:
    received: Optional[MoneyUnit]  # what the recipient ends up holding
    payments: list[tuple[str, MoneyUnit]] = field(default_factory=list)
    notifications: list[tuple[str, str]] = field(default_factory=list)
    zeroised: list[tuple[MoneyUnit, str]] = field(default_factory=list)

    def all_units(self) -> list[MoneyUnit]:
        units = [unit for _, unit in self.payments]
        if self.received is not None:
            units.append(self.received)
        return units


def _stamp(
    registry: Registry, sender: str, frm: str, to: str, amount: int, at: int
) -> TransferStamp:
    body = f"{frm}|{to}|{amount}|{at}".encode()
    return TransferStamp(
        frm=frm,
        to=to,
        amount=amount,
        at=at,
        endorsement=registry.sign_bytes(body),
        sender_sig=registry.directory.sign(sender, body),
    )


def _require_active(unit: MoneyUnit) -> None:
    if unit.state is not UnitState.ACTIVE:
        raise NotActive(f"unit {unit.id} is {unit.state.value}")


def mint(
    bank: KeyPair,
    value: int,
    currency: str,
    policy: pol.CheckedPolicy | pol.PolicyProgram,
    registry: Registry,
    at: int = 0,
    expiry: Optional[int] = None,
    home: Optional[str] = None,
) -> MoneyUnit:
    """Issue a fresh ACTIVE unit; the registry gates issuer allowance."""
    if value <= 0:
        raise InvalidAmount(f"mint value must be positive, got {value}")
    if isinstance(policy, pol.PolicyProgram):
        errors = pol.collect_check_errors(policy)
        if errors:
            raise InvalidPolicy("; ".join(str(e) for e in errors))
        policy = pol.CheckedPolicy(policy)
    unit_id = registry.new_unit_id()
    request = EndorseRequest(
        kind=RecordKind.MINT,
        unit_ids=(unit_id,),
        amounts=(value,),
        new_owner=bank.key_id,
        sender=bank.key_id,
        at=at,
    ).signed(registry.directory)
    registry.endorse(request)
    unit = MoneyUnit(
        id=unit_id,
        value=value,
        currency=currency,
        owner=bank.key_id,
        policy=policy,
        policy_hash=policy.content_hash,
        mint_sig=Signature(bank.key_id, 0),  # placeholder until body exists
        provenance=[],
        expiry=expiry,
        home=home,
        last_contact=at,
    )
    unit.mint_sig = registry.directory.sign(bank.key_id, unit.birth_body())
    unit.provenance.append(
        _stamp(registry, bank.key_id, bank.key_id, bank.key_id, value, at)
    )
    return unit


def _birth_sig(registry: Registry, unit: MoneyUnit) -> Signature:
    # derived units (split/merge results) get a registry-signed birth record
    return registry.sign_bytes(unit.birth_body())


def split(unit: MoneyUnit, amount: int, registry: Registry, at: int) -> tuple[MoneyUnit, MoneyUnit]:
    """Carve `amount` out of `unit`; returns (carved, remainder)."""
    _require_active(unit)
    if amount <= 0 or amount >= unit.value:
        raise InvalidAmount(
            f"split amount must be in (0, {unit.value}), got {amount}"
        )
    c1_id, c2_id = registry.new_unit_id(), registry.new_unit_id()
    request = EndorseRequest(
        kind=RecordKind.SPLIT,
        unit_ids=(unit.id, c1_id, c2_id),
        amounts=(unit.value, amount, unit.value - amount),
        new_owner=unit.owner,
        sender=unit.owner,
        at=at,
    ).signed(registry.directory)
    registry.endorse(request)

    def child(child_id: str, child_value: int) -> MoneyUnit:
        c = MoneyUnit(
            id=child_id,
            value=child_value,
            currency=unit.currency,
            owner=unit.owner,
            policy=unit.policy,
            policy_hash=unit.policy_hash,
            mint_sig=Signature(registry.key_id, 0),
            provenance=list(unit.provenance),
            expiry=unit.expiry,
            home=unit.home,
            last_contact=unit.last_contact,
        )
        c.mint_sig = _birth_sig(registry, c)
        c.provenance.append(
            _stamp(registry, unit.owner, unit.owner, unit.owner, child_value, at)
        )
        return c

    return child(c1_id, amount), child(c2_id, unit.value - amount)


def merge(a: MoneyUnit, b: MoneyUnit, registry: Registry, at: int) -> MoneyUnit:
    _require_active(a)
    _require_active(b)
    if a.owner != b.owner:
        raise MixedOwner(f"{a.owner} != {b.owner}")
    if a.policy_hash != b.policy_hash or a.currency != b.currency or a.home != b.home:
        raise MixedPolicy(f"units {a.id} and {b.id} are not fungible")
    merged_id = registry.new_unit_id()
    request = EndorseRequest(
        kind=RecordKind.MERGE,
        unit_ids=(a.id, b.id, merged_id),
        amounts=(a.value, b.value, a.value + b.value),
        new_owner=a.owner,
        sender=a.owner,
        at=at,
    ).signed(registry.directory)
    registry.endorse(request)
    expiries = [e for e in (a.expiry, b.expiry) if e is not None]
    merged = MoneyUnit(
        id=merged_id,
        value=a.value + b.value,
        currency=a.currency,
        owner=a.owner,
        policy=a.policy,
        policy_hash=a.policy_hash,
        mint_sig=Signature(registry.key_id, 0),
        # both histories kept, interleaved by tick so replay stays monotone
        provenance=sorted(a.provenance + b.provenance, key=lambda s: s.at),
        expiry=min(expiries) if expiries else None,
        home=a.home,
        last_contact=min(a.last_contact, b.last_contact),
    )
    merged.mint_sig = _birth_sig(registry, merged)
    merged.provenance.append(
        _stamp(registry, a.owner, a.owner, a.owner, merged.value, at)
    )
    return merged


def _endorse_transfer(unit: MoneyUnit, to: str, registry: Registry, at: int) -> None:
    request = EndorseRequest(
        kind=RecordKind.TRANSFER,
        unit_ids=(unit.id,),
        amounts=(unit.value,),
        new_owner=to,
        sender=unit.owner,
        at=at,
    ).signed(registry.directory)
    registry.endorse(request)


def _move(unit: MoneyUnit, to: str, registry: Registry, at: int) -> None:
    """Endorse and record an ownership change, no policy involvement."""
    _endorse_transfer(unit, to, registry, at)
    unit.provenance.append(_stamp(registry, unit.owner, unit.owner, to, unit.value, at))
    unit.owner = to


def transfer(
    unit: MoneyUnit,
    to: str,
    ctx: pol.EvalContext,
    registry: Registry,
    at: Optional[int] = None,
) -> TransferOutcome:
    """Move a whole unit to `to`, then run the receiving side's obligations.

    The unit's policy must PERMIT both the TRANSFER_REQUEST and the RECEIVE
    event; PAY obligations from the RECEIVE decision carve value out of the
    received unit immediately.  On any error nothing has changed.
    """
    _require_active(unit)
    if ctx.amount != unit.value:
        raise InvalidAmount(f"ctx.amount {ctx.amount} != unit value {unit.value}")
    tick = at if at is not None else ctx.now

    request_decision = pol.evaluate(unit.policy, pol.EventKind.TRANSFER_REQUEST, ctx)
    if not request_decision.permitted:
        raise PolicyForbids(
            f"unit {unit.id} refuses transfer", pol.EventKind.TRANSFER_REQUEST
        )
    receive_ctx = replace(ctx, counterparty=unit.owner)
    receive_decision = pol.evaluate(unit.policy, pol.EventKind.RECEIVE, receive_ctx)
    if not receive_decision.permitted:
        raise PolicyForbids(f"unit {unit.id} refuses receipt", pol.EventKind.RECEIVE)

    pays = [
        ob
        for ob in receive_decision.obligations
        if isinstance(ob, pol.PayObligation) and ob.amount > 0
    ]
    if sum(ob.amount for ob in pays) > unit.value:
        raise ObligationUnpayable(
            f"obligations exceed transferred value {unit.value}"
        )
    # pre-flight the inner pay transfers so nothing is endorsed that could
    # later be vetoed; inner transfers never run obligations of their own
    for ob in pays:
        pay_ctx = replace(
            ctx, amount=ob.amount, category=OBLIGATION_CATEGORY, counterparty=ob.payee
        )
        for event in (pol.EventKind.TRANSFER_REQUEST, pol.EventKind.RECEIVE):
            if not pol.evaluate(unit.policy, event, pay_ctx).permitted:
                raise PolicyForbids(
                    f"unit {unit.id} obligation payment to {ob.payee} vetoed", event
                )

    outcome = TransferOutcome(received=None)
    outcome.notifications.extend(
        (ob.target, f"transfer unit={unit.id} amount={unit.value}")
        for ob in request_decision.obligations
        if isinstance(ob, pol.NotifyObligation)
    )

    _move(unit, to, registry, tick)
    current: Optional[MoneyUnit] = unit

    for ob in pays:
        assert current is not None
        if ob.amount == current.value:
            _move(current, ob.payee, registry, tick)
            outcome.payments.append((ob.payee, current))
            current = None
        else:
            carved, current = split(current, ob.amount, registry, tick)
            _move(carved, ob.payee, registry, tick)
            outcome.payments.append((ob.payee, carved))

    for ob in receive_decision.obligations:
        if isinstance(ob, pol.NotifyObligation):
            outcome.notifications.append(
                (ob.target, f"receive unit={unit.id} amount={ctx.amount}")
            )
        elif isinstance(ob, pol.ZeroiseObligation) and current is not None:
            zeroise(current, ob.reason, registry, tick)
            outcome.zeroised.append((current, ob.reason))
            current = None

    outcome.received = current
    return outcome


def verify_integrity(
    unit: MoneyUnit, directory: KeyDirectory, registry_key: str = "registry"
) -> IntegrityResult:
    """Recompute the policy hash and every signature; report all mismatches.

    Signer identities are pinned, not taken at face value: stamp
    endorsements must come from the registry key, each sender signature
    from the stamp's own from-party, and the birth signature from the
    registry or the minting issuer — so an adversary re-signing a unit
    wholesale with their own key is still a detected tamper.
    """
    problems: list[str] = []
    source = unit.policy.program.source_canonical
    if h64(source.encode()) != unit.policy_hash:
        problems.append("policy text hash mismatch")
    if pol.render_rules(unit.policy.rules) != source:
        problems.append("policy rules do not match canonical text")
    if unit.state is UnitState.ACTIVE:
        birth_signers = {registry_key}
        if unit.provenance:
            birth_signers.add(unit.provenance[0].frm)
        if unit.mint_sig.signer not in birth_signers:
            problems.append("birth signature by unexpected key")
        elif not directory.verify(unit.mint_sig.signer, unit.birth_body(), unit.mint_sig):
            problems.append("birth signature mismatch")
        if not unit.provenance:
            problems.append("missing mint stamp")
        else:
            last = unit.provenance[-1]
            if last.to != unit.owner or last.amount != unit.value:
                problems.append("provenance does not reproduce owner/value")
    for i, stamp in enumerate(unit.provenance):
        body = stamp.body()
        if stamp.endorsement.signer != registry_key:
            problems.append(f"stamp {i} endorsement by unexpected key")
        elif not directory.verify(registry_key, body, stamp.endorsement):
            problems.append(f"stamp {i} endorsement mismatch")
        if stamp.sender_sig.signer != stamp.frm:
            problems.append(f"stamp {i} sender is not the from-party")
        elif not directory.verify(stamp.frm, body, stamp.sender_sig):
            problems.append(f"stamp {i} sender signature mismatch")
        if i > 0 and stamp.at < unit.provenance[i - 1].at:
            problems.append(f"stamp {i} out of tick order")
    if problems:
        return IntegrityResult(False, tuple(problems))
    return INTEGRITY_OK


def zeroise(unit: MoneyUnit, reason: str, registry: Registry, at: int) -> list[tuple[str, str]]:
    """Destroy the unit's value; returns NOTIFY messages the policy declares.

    The burn is recorded with `reason`; expiry burns leave the unit EXPIRED,
    every other reason leaves it ZEROISED.
    """
    _require_active(unit)
    request = EndorseRequest(
        kind=RecordKind.BURN,
        unit_ids=(unit.id,),
        amounts=(unit.value,),
        new_owner=None,
        sender=unit.owner,
        at=at,
        reason=reason,
    ).signed(registry.directory)
    registry.endorse(request)
    notifications: list[tuple[str, str]] = []
    event = {
        "tamper": pol.EventKind.TAMPER,
        "attest_fail": pol.EventKind.ATTEST_FAIL,
    }.get(reason)
    if event is not None:
        decision = pol.evaluate(
            unit.policy, event, pol.EvalContext(amount=unit.value, now=at)
        )
        notifications = [
            (ob.target, f"zeroise unit={unit.id} reason={reason} value={unit.value}")
            for ob in decision.obligations
            if isinstance(ob, pol.NotifyObligation)
        ]
    unit.state = UnitState.EXPIRED if reason == "expiry" else UnitState.ZEROISED
    unit.value = 0
    return notifications
