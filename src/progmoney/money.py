"""MoneyUnit lifecycle: mint, split, merge, transfer, pay, integrity, zeroise.

Every operation is gated twice: by the unit's own policy and by the central
registry.  A transfer or a payment is atomic — all policy verdicts and
obligation feasibility are established before the first registry call, so a
rejected one leaves both the unit and the ledger untouched.

Every PAY obligation takes one path, whether it is a tax raised by the
RECEIVE evaluation inside `transfer` or a levy the simulation runs from a
TICK or ATTEST_FAIL decision (`pay`): it is checked under the reserved
category "obligation" for TRANSFER_REQUEST and RECEIVE, then carved off the
unit and moved to the payee.  A payment executes no obligations of its own,
which keeps tax-on-tax recursion impossible.  A transfer pays its RECEIVE
taxes, as its atomicity needs, and leaves the RECEIVE decision's other
obligations to the recipient, which carries them out as it does a TICK's.

A unit's history is a DAG of immutable `LineageNode`s, one per ledger
record `Registry.endorse` committed.  Each node holds the record, the
registry's signature on its line and the requester's on its body, and the
nodes of the units the record consumed: mint is a root, a transfer appends
one node, a split makes one node that both its children point at, and a
merge makes one node over both parents.  The record binds seq, kind, unit
ids, amounts and parties, so a node cannot be moved onto another unit's
history.  Nodes are shared by every descendant and never copied, so
lineage grows with the ledger, not with the number of splits and merges
behind a unit.

A unit's currency, home and policy hash are signed once, by the minting
issuer, as the `Origin` on its MINT node; every other node carries its
first parent's origin, a merge's parents must have the same one, and a
split keeps it, so split and merge sign nothing but the ledger record.  A
unit holds only what changes — value, owner, policy, lineage, state and
last contact — and reads the rest from its origin and its policy.
A node made from what the registry just endorsed is born trusted under the
registry's `KeyDirectory` (see `_node`), so a committed record costs three
MACs: the requester's signature, the registry's check of it and the
registry's own (a mint also signs its origin), and checking a unit it
heads costs no MAC.  Any other node — built or edited elsewhere, or
checked under another `KeyDirectory` — is checked in full by
`verify_integrity` each time; the policy text check is remembered on each
`PolicyProgram`, and an edited policy is a new object, checked afresh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from . import policy as pol
from .crypto import KeyDirectory, Signature, digest_hex
from .crypto import h64  # noqa: F401 -- perfbench/tracing.py wraps money.h64 by name
from .registry import LAYOUT, REGISTRY_KEY, LedgerRecord, RecordKind, Registry

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


def origin_body(
    unit_id: str, value: int, currency: str, home: Optional[str], policy_hash: int
) -> bytes:
    """What the minting issuer signs in an `Origin`; no home is an empty field."""
    return f"{unit_id}|{value}|{currency}|{home or ''}|{digest_hex(policy_hash)}".encode()


@dataclass(frozen=True, slots=True)
class Origin:
    """The currency, home and policy a mint gives a unit and all its descendants.

    `home` is the minting issuer's location.  `sig` is the issuer's
    signature on `origin_body` of the minted unit.  Two origins are equal
    when their currency, home and policy are: units that may merge.
    """

    currency: str
    home: Optional[str]
    policy_hash: int
    sig: Signature = field(compare=False)


@dataclass(frozen=True, eq=False, slots=True)
class LineageNode:
    """An endorsed record, over the nodes of the units it consumed.

    `sig` is the registry's signature on `record.line()`, `sender_sig` the
    requester's on `record.body()`.  `origin` is given to a MINT node; every
    other node takes its first parent's.  Every unit the record makes, both
    children of a SPLIT among them, points at the one node.  Nodes are
    shared by every unit descending from them and never change, except that
    `verified_by` records the directory under which the node and all its
    ancestors are trusted, set only at birth by `_node`.  A node built or
    `replace`d anywhere else stays untrusted.
    """

    record: LedgerRecord
    sig: Signature
    sender_sig: Signature
    parents: tuple[LineageNode, ...] = ()
    origin: Optional[Origin] = None
    # (id, owner, amount) of each unit the record makes; empty if it makes
    # none, or has no party or no id and amount at each position
    made: tuple[tuple[str, str, int], ...] = field(init=False)
    verified_by: Optional[KeyDirectory] = field(default=None, init=False, repr=False)

    def __init__(
        self,
        record: LedgerRecord,
        sig: Signature,
        sender_sig: Signature,
        parents: tuple[LineageNode, ...] = (),
        origin: Optional[Origin] = None,
    ) -> None:
        # written out: the generated one sets each slot through object.__setattr__
        made, consumed = LAYOUT[record.kind]
        ids, amounts, parties = record.unit_ids, record.amounts, record.parties
        held: tuple[tuple[str, str, int], ...] = ()
        if parties and len(ids) == len(amounts) == 1 + max(made + consumed):
            held = tuple((ids[i], parties[-1], amounts[i]) for i in made)
        _set_record(self, record)
        _set_sig(self, sig)
        _set_sender_sig(self, sender_sig)
        _set_parents(self, parents)
        _set_origin(self, parents[0].origin if parents else origin)
        _set_made(self, held)
        _set_verified_by(self, None)

    def holding(self, unit_id: str) -> Optional[tuple[str, str, int]]:
        """The (id, owner, amount) of unit `unit_id` if the record makes it, else None."""
        for held in self.made:
            if held[0] == unit_id:
                return held
        return None


# the slots' setters, bound once; only `_node` sets `verified_by` to a directory
_set_record, _set_sig, _set_sender_sig, _set_parents, _set_origin, _set_made, _set_verified_by = (
    LineageNode.__dict__[name].__set__
    for name in ("record", "sig", "sender_sig", "parents", "origin", "made", "verified_by")
)


def _ancestry(
    head: LineageNode, skip: Optional[Callable[[LineageNode], bool]] = None
) -> list[LineageNode]:
    """`head` and its ancestors, each once, every node after its parents.

    Nodes for which `skip` is true are left out, and so are their ancestors.
    """
    order: list[LineageNode] = []
    seen = {head}
    stack = [(head, iter(head.parents))]
    while stack:
        node, parents = stack[-1]
        for parent in parents:
            if parent not in seen:
                seen.add(parent)
                if skip is None or not skip(parent):
                    stack.append((parent, iter(parent.parents)))
                    break
        else:
            stack.pop()
            order.append(node)
    return order


def _in_seq_order(head: LineageNode) -> list[LineageNode]:
    return sorted(_ancestry(head), key=lambda node: node.record.seq)


@dataclass(eq=False, slots=True)  # units are entities: compare by identity
class MoneyUnit:
    """What changes; currency, home and policy hash are its `Origin`'s, expiry its policy's."""

    id: str
    value: int
    owner: str
    policy: pol.PolicyProgram
    lineage: LineageNode
    state: UnitState = UnitState.ACTIVE
    last_contact: int = 0

    @property
    def provenance(self) -> tuple[LedgerRecord, ...]:
        """The record of every lineage node in seq order, shared ancestors once."""
        return tuple(node.record for node in _in_seq_order(self.lineage))


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
    notifications: list[tuple[str, str]] = field(default_factory=list)  # TRANSFER_REQUEST's
    owed: tuple[pol.Obligation, ...] = ()  # RECEIVE's other than PAY, in rule order

    def all_units(self) -> list[MoneyUnit]:
        units = [unit for _, unit in self.payments]
        if self.received is not None:
            units.append(self.received)
        return units


def _require_active(unit: MoneyUnit) -> None:
    if unit.state is not UnitState.ACTIVE:
        raise NotActive(f"unit {unit.id} is {unit.state.value}")


def _endorse(
    registry: Registry,
    kind: RecordKind,
    unit_ids: tuple[str, ...],
    amounts: tuple[int, ...],
    parties: tuple[str, ...],
    at: int,
    reason: Optional[str] = None,
) -> tuple[LedgerRecord, Signature, Signature]:
    """Have `parties[0]` sign the record asked for, and `registry` commit it.

    Returns what a `LineageNode` holds: the committed record, the registry's
    signature on its line and the requester's on its body.
    """
    # asked at the next seq, the record is committed as it is, not copied
    asked = LedgerRecord(len(registry.records), at, kind, unit_ids, amounts, parties, reason)
    sender_sig = registry.directory.sign(parties[0], asked.body().encode())
    record, sig = registry.endorse(asked, sender_sig)
    return record, sig, sender_sig


def _node(
    registry: Registry,
    endorsed: tuple[LedgerRecord, Signature, Signature],
    parents: tuple[LineageNode, ...] = (),
    origin: Optional[Origin] = None,
) -> LineageNode:
    """The lineage node of what `_endorse` just returned, trusted at birth when it can be.

    `Registry.endorse` has just verified the requester's signature on the
    record's body and made its own on the line, and a MINT's `origin` was
    just signed by its requester, all under `registry.directory`, which
    never re-registers a key.  Recomputing those MACs there can only
    succeed, so the node is trusted under that directory when its parents
    already are and its shape holds; otherwise the first check of a unit it
    heads checks it in full.
    """
    node = LineageNode(*endorsed, parents, origin)
    directory = registry.directory
    if all(_trusted(parent, directory) for parent in parents) and not _shape_faults(node):
        _set_verified_by(node, directory)
    return node


def mint(
    bank: str,
    value: int,
    currency: str,
    policy: pol.PolicyProgram,
    registry: Registry,
    at: int = 0,
    home: Optional[str] = None,
) -> MoneyUnit:
    """Issue a fresh ACTIVE unit at `home`; the registry gates issuer allowance."""
    if value <= 0:
        raise InvalidAmount(f"mint value must be positive, got {value}")
    if policy.check_errors:
        raise InvalidPolicy("; ".join(str(e) for e in policy.check_errors))
    unit_id = registry.new_unit_id()
    endorsed = _endorse(registry, RecordKind.MINT, (unit_id,), (value,), (bank,), at)
    body = origin_body(unit_id, value, currency, home, policy.text_hash)
    origin = Origin(currency, home, policy.text_hash, registry.directory.sign(bank, body))
    return MoneyUnit(
        id=unit_id,
        value=value,
        owner=bank,
        policy=policy,
        lineage=_node(registry, endorsed, origin=origin),
        last_contact=at,
    )


def split(unit: MoneyUnit, amount: int, registry: Registry, at: int) -> tuple[MoneyUnit, MoneyUnit]:
    """Carve `amount` out of `unit`; returns (carved, remainder)."""
    _require_active(unit)
    if amount <= 0 or amount >= unit.value:
        raise InvalidAmount(
            f"split amount must be in (0, {unit.value}), got {amount}"
        )
    ids = (unit.id, registry.new_unit_id(), registry.new_unit_id())
    amounts = (unit.value, amount, unit.value - amount)
    endorsed = _endorse(registry, RecordKind.SPLIT, ids, amounts, (unit.owner,), at)
    node = _node(registry, endorsed, (unit.lineage,))

    def child(i: int) -> MoneyUnit:
        return MoneyUnit(
            id=ids[i],
            value=amounts[i],
            owner=unit.owner,
            policy=unit.policy,
            lineage=node,
            last_contact=unit.last_contact,
        )

    return child(1), child(2)


def fungible(a: MoneyUnit, b: MoneyUnit) -> bool:
    """Whether `a` and `b` may merge: one origin, so one currency, home and policy."""
    return a.lineage.origin == b.lineage.origin


def merge(a: MoneyUnit, b: MoneyUnit, registry: Registry, at: int) -> MoneyUnit:
    _require_active(a)
    _require_active(b)
    if a.owner != b.owner:
        raise MixedOwner(f"{a.owner} != {b.owner}")
    if not fungible(a, b):
        raise MixedPolicy(f"units {a.id} and {b.id} are not fungible")
    ids = (a.id, b.id, registry.new_unit_id())
    amounts = (a.value, b.value, a.value + b.value)
    endorsed = _endorse(registry, RecordKind.MERGE, ids, amounts, (a.owner,), at)
    return MoneyUnit(
        id=ids[2],
        value=amounts[2],
        owner=a.owner,
        policy=a.policy,
        # one node over both histories; ancestors they share stay shared
        lineage=_node(registry, endorsed, (a.lineage, b.lineage)),
        last_contact=min(a.last_contact, b.last_contact),
    )


def _move(unit: MoneyUnit, to: str, registry: Registry, at: int) -> None:
    """Endorse and record an ownership change, no policy involvement."""
    endorsed = _endorse(
        registry, RecordKind.TRANSFER, (unit.id,), (unit.value,), (unit.owner, to), at
    )
    unit.lineage = _node(registry, endorsed, (unit.lineage,))
    unit.owner = to


def _check_payment(unit: MoneyUnit, ob: pol.PayObligation, ctx: pol.EvalContext) -> None:
    """Raise PolicyForbids unless `unit` may pay `ob`, as category "obligation"."""
    pay_ctx = ctx._replace(amount=ob.amount, category=OBLIGATION_CATEGORY, counterparty=ob.payee)
    for event in (pol.EventKind.TRANSFER_REQUEST, pol.EventKind.RECEIVE):
        if not pol.evaluate(unit.policy, event, pay_ctx).permitted:
            raise PolicyForbids(f"unit {unit.id} obligation payment to {ob.payee} vetoed", event)


def _carve(
    unit: MoneyUnit, ob: pol.PayObligation, registry: Registry, at: int
) -> tuple[MoneyUnit, Optional[MoneyUnit]]:
    """Move `ob.amount` of `unit` to the payee: (the paid unit, what is left)."""
    if ob.amount == unit.value:
        _move(unit, ob.payee, registry, at)
        return unit, None
    paid, rest = split(unit, ob.amount, registry, at)
    _move(paid, ob.payee, registry, at)
    return paid, rest


def pay(
    unit: MoneyUnit, ob: pol.PayObligation, ctx: pol.EvalContext, registry: Registry, at: int
) -> tuple[MoneyUnit, Optional[MoneyUnit]]:
    """Pay `ob` out of `unit`, running no obligations of its own; returns as `_carve`.

    On any error (a veto, or more than `unit` holds) nothing has changed.
    """
    _check_payment(unit, ob, ctx)
    return _carve(unit, ob, registry, at)


def transfer(
    unit: MoneyUnit,
    to: str,
    ctx: pol.EvalContext,
    registry: Registry,
) -> TransferOutcome:
    """Move a whole unit to `to` at tick `ctx.now`, then pay the receiving side's taxes.

    The unit's policy must PERMIT both the TRANSFER_REQUEST and the RECEIVE
    event; PAY obligations from the RECEIVE decision carve value out of the
    received unit immediately; its other obligations are returned in `owed`
    for the recipient to carry out.  On any error nothing has changed.
    """
    _require_active(unit)
    if ctx.amount != unit.value:
        raise InvalidAmount(f"ctx.amount {ctx.amount} != unit value {unit.value}")
    tick = ctx.now

    request_decision = pol.evaluate(unit.policy, pol.EventKind.TRANSFER_REQUEST, ctx)
    if not request_decision.permitted:
        raise PolicyForbids(
            f"unit {unit.id} refuses transfer", pol.EventKind.TRANSFER_REQUEST
        )
    receive_ctx = ctx._replace(counterparty=unit.owner)
    receive_decision = pol.evaluate(unit.policy, pol.EventKind.RECEIVE, receive_ctx)
    if not receive_decision.permitted:
        raise PolicyForbids(f"unit {unit.id} refuses receipt", pol.EventKind.RECEIVE)

    obligations = receive_decision.obligations
    pays = [ob for ob in obligations if isinstance(ob, pol.PayObligation) and ob.amount > 0]
    if sum(ob.amount for ob in pays) > unit.value:
        raise ObligationUnpayable(
            f"obligations exceed transferred value {unit.value}"
        )
    # every payment is checked before anything is endorsed
    for ob in pays:
        _check_payment(unit, ob, ctx)

    owed = tuple(ob for ob in obligations if not isinstance(ob, pol.PayObligation))
    outcome = TransferOutcome(received=None, owed=owed)
    outcome.notifications.extend(
        (ob.target, f"transfer unit={unit.id} amount={unit.value}")
        for ob in request_decision.obligations
        if isinstance(ob, pol.NotifyObligation)
    )

    _move(unit, to, registry, tick)
    current: Optional[MoneyUnit] = unit

    for ob in pays:
        assert current is not None
        paid, current = _carve(current, ob, registry, tick)
        outcome.payments.append((ob.payee, paid))
    outcome.received = current
    return outcome


def verify_integrity(unit: MoneyUnit, directory: KeyDirectory) -> IntegrityResult:
    """Check the policy text and the lineage; report all mismatches.

    Signer identities are pinned, not taken at face value: a lineage
    node's record line must be signed by `REGISTRY_KEY`, its body and,
    on a MINT node, its origin by the requester (`parties[0]`) — so an
    adversary re-signing a unit wholesale with their own key is still a
    detected tamper.  A node's record must make a unit and its parents be
    exactly the units the record consumed or moved (same id, owner and
    amount, earlier seq), with one origin; the head must make a unit of the
    unit's own id, owner and value, and the policy text must hash to the
    head origin's policy hash, a head with no origin counting as a mismatch.

    The policy text's hash and render are remembered on its
    `PolicyProgram`.  A lineage node born from the registry's endorsement
    is trusted under that registry's `directory` (see `_node`), so a unit
    whose head is trusted is checked with no MAC.  Every untrusted node of
    the lineage — forged, edited, or any node under another directory —
    is checked on every call: its shape (`_shape_faults`), then its MACs
    (`_mac_faults`).  A signer that `directory` does not know is a fault.
    """
    problems: list[str] = []
    head = unit.lineage
    if head.origin is None or unit.policy.text_hash != head.origin.policy_hash:
        problems.append("policy text hash mismatch")
    if not unit.policy.rules_match_text:
        problems.append("policy rules do not match canonical text")
    if unit.state is UnitState.ACTIVE:
        held = head.holding(unit.id)
        if held is None:
            problems.append("provenance is another unit's")
        elif held[1:] != (unit.owner, unit.value):
            problems.append("provenance does not reproduce owner/value")
    if not _trusted(head, directory):
        problems.extend(_verify_lineage(head, directory))
    return IntegrityResult(False, tuple(problems)) if problems else INTEGRITY_OK


def _trusted(node: LineageNode, directory: KeyDirectory) -> bool:
    # trusted at birth only when its parents are, a node's ancestors are
    # trusted under the same directory and share its endorsement signer, so
    # pinning the node's signer pins theirs
    return node.verified_by is directory and node.sig.signer == REGISTRY_KEY


def _verify_lineage(head: LineageNode, directory: KeyDirectory) -> list[str]:
    """Check every node not trusted under `directory`, parents first."""
    faults: dict[LineageNode, list[str]] = {}
    for node in _ancestry(head, skip=lambda n: _trusted(n, directory)):
        found = _shape_faults(node)
        if node.made:  # a record that makes no unit reports only that
            found += _mac_faults(node, directory)
        if found:
            faults[node] = found
    if not faults:
        return []
    index = {node: i for i, node in enumerate(_in_seq_order(head))}
    return [
        f"stamp {index[node]} {fault}"
        for node in sorted(faults, key=index.__getitem__)
        for fault in faults[node]
    ]


def _shape_faults(node: LineageNode) -> list[str]:
    """What is wrong with `node` short of its MACs: signer pins, parents and origin."""
    record = node.record
    if not node.made:
        return ["record makes no unit"]
    requester = record.parties[0]
    faults = []
    if node.sig.signer != REGISTRY_KEY:
        faults.append("endorsement by unexpected key")
    if node.sender_sig.signer != requester:
        faults.append("sender is not the requester")
    ids, amounts = record.unit_ids, record.amounts
    consumed = LAYOUT[record.kind][1]
    if (
        len(node.parents) != len(consumed)
        or any(
            parent.holding(ids[i]) != (ids[i], requester, amounts[i])
            for parent, i in zip(node.parents, consumed)
        )
        or any(parent.record.seq >= record.seq for parent in node.parents)
    ):
        faults.append("parents are not the units the record consumed")
    if record.kind is RecordKind.MINT:
        origin = node.origin
        if origin is None:
            faults.append("no birth signature")
        elif origin.sig.signer != requester:
            faults.append("birth signature by unexpected key")
    elif record.kind is RecordKind.MERGE and len({parent.origin for parent in node.parents}) > 1:
        faults.append("parents differ in currency or policy")
    return faults


def _mac_faults(node: LineageNode, directory: KeyDirectory) -> list[str]:
    """Recompute each signature of a unit-making `node` whose signer pin holds.

    A pinned signer that `directory` does not know is a fault of the node,
    not an error: a forged lineage may name any key.
    """
    record = node.record
    requester = record.parties[0]
    signed = [
        ("endorsement", REGISTRY_KEY, record.line().encode(), node.sig),
        ("sender signature", requester, record.body().encode(), node.sender_sig),
    ]
    origin = node.origin
    if record.kind is RecordKind.MINT and origin is not None:
        body = origin_body(
            record.unit_ids[0], record.amounts[0], origin.currency, origin.home, origin.policy_hash
        )
        signed.append(("birth signature", requester, body, origin.sig))
    faults = []
    for what, key_id, msg, sig in signed:
        if sig.signer != key_id:
            continue  # the shape half reports it
        if not directory.knows(key_id):
            faults.append(f"{what} key {key_id!r} unknown")
        elif not directory.verify(key_id, msg, sig):
            faults.append(f"{what} mismatch")
    return faults


def zeroise(unit: MoneyUnit, reason: str, registry: Registry, at: int) -> None:
    """Burn the unit's value, recording `reason`.

    Expiry burns leave the unit EXPIRED, every other reason leaves it
    ZEROISED.
    """
    _require_active(unit)
    _endorse(registry, RecordKind.BURN, (unit.id,), (unit.value,), (unit.owner,), at, reason)
    unit.state = UnitState.EXPIRED if reason == "expiry" else UnitState.ZEROISED
    unit.value = 0
