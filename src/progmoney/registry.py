"""Online central authority: append-only ledger, double-spend rejection.

Every lifecycle operation on a unit (mint, transfer, split, merge, burn) is
one `LedgerRecord`.  The requester, `parties[0]`, asks for the record as
the ledger will write it and signs its `body()`, the line without the seq.
The registry is the single serialization point: `endorse` checks that
signature and the record against the live-unit set, commits it at the next
seq and signs its `line()`; the money layer keeps both signatures with the
record as a unit's lineage node.  A unit id is consumed by
split/merge/burn; a transfer keeps the id live and moves its owner, so a
replayed transfer fails the owner check and is rejected as a double spend.
A self-transfer (sender == new owner) leaves the owner as it was, so its
replay is endorsed again.  A SPLIT's parties are the requester and the
owner of each child, so a payment carved out of a unit is one record: a
plain split is `alice,alice,alice`, a tax `bob,tax_authority,bob`.

`step` is the ledger's one transition, and its state is the one fold every
reader reads: the live units, the mint and burn totals, BURN amounts by
reason, and the amounts records give away — a TRANSFER's unit (a
self-transfer too) and a SPLIT child owned by other than the requester —
by owner and by tick.
`Registry.endorse` runs `step` on the live state, which `Registry.fold`
hands out read-only: the live report and the per-period supply statistics
read it there, and read no record.  `replay_records` folds `step` over
records from seq 0; `Registry.audit` compares that replay with the live
fold, and `audit_export` and the rebuilt report replay an export through
it.  A replay therefore makes every check an endorsement makes except the
issuer allowance, which the ledger export does not carry.

`LAYOUT` is the one description of a record kind's shape: the positions of
`unit_ids` and `amounts` it makes live and the party owning each, those it
consumes or moves, and its width.  The registry keeps no owner -> ids
index: the simulation, which books every unit a record spends or makes,
keeps its own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .crypto import KeyDirectory, Signature


class RecordKind(Enum):
    MINT = "MINT"
    TRANSFER = "TRANSFER"
    SPLIT = "SPLIT"
    MERGE = "MERGE"
    BURN = "BURN"


class RegistryError(ValueError):
    """Base for every endorsement rejection."""


class DoubleSpend(RegistryError):
    """Unit id unknown, already consumed, or not owned by the requester."""


class BadSignature(RegistryError):
    pass


class UnauthorizedIssuer(RegistryError):
    pass


class InvalidRequest(RegistryError):
    """Malformed endorsement (amounts that do not conserve, bad arity)."""


class BadWindow(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class LedgerRecord:
    seq: int
    at: int
    kind: RecordKind
    unit_ids: tuple[str, ...]
    amounts: tuple[int, ...]
    parties: tuple[str, ...]
    reason: Optional[str] = None
    # body() once built: both signatures on a record are checked against it
    _body: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __init__(
        self,
        seq: int,
        at: int,
        kind: RecordKind,
        unit_ids: tuple[str, ...],
        amounts: tuple[int, ...],
        parties: tuple[str, ...],
        reason: Optional[str] = None,
    ) -> None:
        # written out: the generated one sets each slot through object.__setattr__
        _set_seq(self, seq)
        _set_at(self, at)
        _set_kind(self, kind)
        _set_unit_ids(self, unit_ids)
        _set_amounts(self, amounts)
        _set_parties(self, parties)
        _set_reason(self, reason)
        _set_body(self, None)

    def body(self) -> str:
        """The record without its seq: what the requester signs."""
        if self._body is None:
            ids = ",".join(self.unit_ids)
            amounts = ",".join(map(str, self.amounts))
            parties = ",".join(self.parties)
            # `_value_` is the member's own attribute; `.value` is a slower property
            body = f"{self.at}|{self.kind._value_}|{ids}|{amounts}|{parties}|{self.reason or '-'}"
            _set_body(self, body)
        return self._body

    def line(self) -> str:
        """The ledger line: what the registry signs and exports."""
        return f"{self.seq}|{self.body()}"


# the slots' setters, bound once
_set_seq, _set_at, _set_kind, _set_unit_ids, _set_amounts, _set_parties, _set_reason, _set_body = (
    LedgerRecord.__dict__[name].__set__
    for name in ("seq", "at", "kind", "unit_ids", "amounts", "parties", "reason", "_body")
)


@dataclass
class SupplyStats:
    live_supply: int
    tx_volume: int


@dataclass
class _State:
    """What the ledger determines: live units, consumed ids, and the totals readers sum."""

    live: dict[str, tuple[str, int]] = field(default_factory=dict)  # id -> (owner, value)
    consumed: set[str] = field(default_factory=set)
    minted: int = 0
    burned: int = 0
    received: dict[str, int] = field(default_factory=dict)  # owner -> amounts given to it
    burns: dict[Optional[str], int] = field(default_factory=dict)  # reason -> BURN amounts
    volume: dict[int, int] = field(default_factory=dict)  # tick -> amounts given


class LedgerFold:
    """A read-only view of a `_State`: what a fold hands its readers.

    `Registry.fold` is the live one and `replay_records` returns a replayed
    one, so a reader such as the report takes either.
    """

    __slots__ = ("_state", "live", "received", "burns", "volume")

    def __init__(self, state: _State) -> None:
        self._state = state
        self.live: Mapping[str, tuple[str, int]] = MappingProxyType(state.live)
        self.received: Mapping[str, int] = MappingProxyType(state.received)
        self.burns: Mapping[Optional[str], int] = MappingProxyType(state.burns)
        self.volume: Mapping[int, int] = MappingProxyType(state.volume)

    @property
    def minted(self) -> int:
        return self._state.minted

    @property
    def burned(self) -> int:
        return self._state.burned


def _owned_value(state: _State, unit_id: str, owner: str) -> int:
    entry = state.live.get(unit_id)
    if entry is None:
        raise DoubleSpend(f"unit {unit_id} is not live")
    if entry[0] != owner:
        raise DoubleSpend(f"unit {unit_id} is not owned by {owner}")
    return entry[1]


def _require_fresh(state: _State, unit_id: str) -> None:
    if unit_id in state.live or unit_id in state.consumed:
        raise DoubleSpend(f"unit id {unit_id} already exists")


# bound once: looking an Enum member up on its class is slow on the replay path
_MINT, _TRANSFER, _SPLIT, _MERGE, _BURN = (
    RecordKind.MINT, RecordKind.TRANSFER, RecordKind.SPLIT, RecordKind.MERGE, RecordKind.BURN
)


class Layout(NamedTuple):
    """Where a record kind keeps its units in `unit_ids`, `amounts` and `parties`."""

    made: tuple[int, ...]  # positions the record makes live
    owners: tuple[int, ...]  # for each made position, the party position that owns it
    consumed: tuple[int, ...]  # positions it consumes or moves, owned by `parties[0]`
    width: int  # the length of `unit_ids` and `amounts`


# a TRANSFER moves position 0 from `parties[0]` to `parties[1]`; a SPLIT's
# children belong to `parties[1]` and `parties[2]`
LAYOUT: dict[RecordKind, Layout] = {
    RecordKind.MINT: Layout((0,), (0,), (), 1),
    RecordKind.TRANSFER: Layout((0,), (1,), (0,), 1),
    RecordKind.SPLIT: Layout((1, 2), (1, 2), (0,), 3),
    RecordKind.MERGE: Layout((2,), (0,), (0, 1), 3),
    RecordKind.BURN: Layout((), (), (0,), 1),
}


def step(
    state: _State, rec: LedgerRecord, issuers: Optional[dict[str, int]] = None
) -> None:
    """The ledger's one transition: check `rec` against `state`, then apply it.

    Raises a RegistryError, leaving `state` untouched, if the record may not
    follow `state`.  `parties[0]` is the requester, who must own every unit
    the record consumes or moves; a TRANSFER's `parties[1]` is the new owner,
    and a SPLIT's `parties[1]` and `parties[2]` own its two children.
    `issuers` (key id -> remaining allowance) is checked and charged on MINT
    when given; a replayed ledger carries no allowances and passes None.
    """
    kind, ids, amounts, parties = rec.kind, rec.unit_ids, rec.amounts, rec.parties
    live = state.live
    if kind is _MINT:
        if len(ids) != 1 or len(amounts) != 1 or amounts[0] <= 0 or len(parties) != 1:
            raise InvalidRequest("MINT wants one id, one positive amount, one issuer")
        _require_fresh(state, ids[0])
        if issuers is not None:
            allowance = issuers.get(parties[0])
            if allowance is None:
                raise UnauthorizedIssuer(f"{parties[0]} is not an issuer")
            if amounts[0] > allowance:
                raise UnauthorizedIssuer(
                    f"{parties[0]} allowance {allowance} < mint {amounts[0]}"
                )
            issuers[parties[0]] = allowance - amounts[0]
        live[ids[0]] = (parties[0], amounts[0])
        state.minted += amounts[0]
    elif kind is _TRANSFER:
        if len(ids) != 1 or len(amounts) != 1 or len(parties) != 2 or not parties[1]:
            raise InvalidRequest("TRANSFER wants one id, one amount, a new owner")
        value = _owned_value(state, ids[0], parties[0])
        if amounts[0] != value:
            raise InvalidRequest(f"TRANSFER amount {amounts[0]} != unit value {value}")
        live[ids[0]] = (parties[1], value)
        received, volume = state.received, state.volume
        received[parties[1]] = received.get(parties[1], 0) + value
        volume[rec.at] = volume.get(rec.at, 0) + value
    elif kind is _SPLIT:
        if (
            len(ids) != 3 or len(amounts) != 3 or len(parties) != 3
            or not parties[1] or not parties[2]
        ):
            raise InvalidRequest("SPLIT wants parent, two children and each child's owner")
        parent, c1, c2 = ids
        pv, a, b = amounts
        requester, o1, o2 = parties
        value = _owned_value(state, parent, requester)
        if pv != value or a <= 0 or b <= 0 or a + b != pv:
            raise InvalidRequest("SPLIT amounts do not conserve")
        _require_fresh(state, c1)
        _require_fresh(state, c2)
        if c1 == c2:
            raise InvalidRequest(f"SPLIT children share id {c1}")
        del live[parent]
        state.consumed.add(parent)
        live[c1] = (o1, a)
        live[c2] = (o2, b)
        # a child owned by other than the requester is given away, as by a TRANSFER
        if o1 != requester:
            received, volume = state.received, state.volume
            received[o1] = received.get(o1, 0) + a
            volume[rec.at] = volume.get(rec.at, 0) + a
        if o2 != requester:
            received, volume = state.received, state.volume
            received[o2] = received.get(o2, 0) + b
            volume[rec.at] = volume.get(rec.at, 0) + b
    elif kind is _MERGE:
        if len(ids) != 3 or len(amounts) != 3 or len(parties) != 1:
            raise InvalidRequest("MERGE wants two parents and the result")
        a_id, b_id, m_id = ids
        av, bv, mv = amounts
        a_val = _owned_value(state, a_id, parties[0])
        if b_id == a_id:
            raise DoubleSpend(f"unit {a_id} used twice in one merge")
        b_val = _owned_value(state, b_id, parties[0])
        if av != a_val or bv != b_val or mv != av + bv:
            raise InvalidRequest("MERGE amounts do not conserve")
        _require_fresh(state, m_id)
        del live[a_id]
        del live[b_id]
        state.consumed.update((a_id, b_id))
        live[m_id] = (parties[0], mv)
    elif kind is _BURN:
        if len(ids) != 1 or len(amounts) != 1 or len(parties) != 1:
            raise InvalidRequest("BURN wants one id and one amount")
        value = _owned_value(state, ids[0], parties[0])
        if amounts[0] != value:
            raise InvalidRequest(f"BURN amount {amounts[0]} != unit value {value}")
        del live[ids[0]]
        state.consumed.add(ids[0])
        state.burned += value
        state.burns[rec.reason] = state.burns.get(rec.reason, 0) + value


# the key every registry signs ledger lines with, and integrity checks pin
REGISTRY_KEY = "registry"


class Registry:
    def __init__(self, directory: KeyDirectory, *, rng) -> None:
        self.directory = directory
        if not directory.knows(REGISTRY_KEY):
            directory.create(REGISTRY_KEY, rng)
        self.records: list[LedgerRecord] = []
        self.record_sigs: list[Signature] = []
        self._state = _State()
        self.fold = LedgerFold(self._state)  # the live fold, read-only
        self._issuers: dict[str, int] = {}  # key_id -> remaining allowance
        self._id_counter = 0
        self.now = 0
        # the last (asked record, sender's signature) endorsed, as a replay resends it
        self.last_request: Optional[tuple[LedgerRecord, Signature]] = None

    # -- setup ---------------------------------------------------------

    def authorize_issuer(self, key_id: str, allowance: int) -> None:
        self._issuers[key_id] = allowance

    def new_unit_id(self) -> str:
        self._id_counter += 1
        return f"u{self._id_counter}"

    # -- views -----------------------------------------------------------

    def owner_of(self, unit_id: str) -> Optional[str]:
        entry = self._state.live.get(unit_id)
        return entry[0] if entry else None

    @property
    def live_supply(self) -> int:
        """The sum over live units, which does not rest on the mint and burn totals."""
        return sum(v for _, v in self._state.live.values())

    # -- endorsement -----------------------------------------------------

    def endorse(self, asked: LedgerRecord, sender_sig: Signature) -> tuple[LedgerRecord, Signature]:
        """Commit `asked` at the next seq: the record and the registry's signature on its line.

        `sender_sig` is the requester's (`parties[0]`) on `asked.body()`.
        `asked.seq` is not signed, and a record asked at another seq is
        committed as a copy at the next one.
        """
        body = asked.body()
        requester = asked.parties[0] if asked.parties else None
        if (
            requester is None
            or not self.directory.knows(requester)
            or not self.directory.verify(requester, body.encode(), sender_sig)
        ):
            raise BadSignature(f"request not signed by its requester: {body}")
        seq = len(self.records)
        record = asked if asked.seq == seq else replace(asked, seq=seq)
        step(self._state, record, self._issuers)
        sig = self.directory.sign(REGISTRY_KEY, record.line().encode())
        self.records.append(record)
        self.record_sigs.append(sig)
        self.now = max(self.now, record.at)
        self.last_request = (asked, sender_sig)
        return record, sig

    # -- statistics ------------------------------------------------------

    def supply_stats(self, window: tuple[int, int]) -> SupplyStats:
        """Live supply and the volume given in ticks `lo..hi`, read from the fold.

        Live supply is minted - burned, and the volume sums the fold's
        per-tick totals, so a call costs O(hi - lo) and reads no record.
        """
        lo, hi = window
        if lo < 0 or hi < lo or hi > self.now:
            raise BadWindow(f"window {window} outside [0, {self.now}]")
        state = self._state
        volume = state.volume.get
        tx_volume = sum(volume(tick, 0) for tick in range(lo, hi + 1))
        return SupplyStats(state.minted - state.burned, tx_volume)

    # -- audit -----------------------------------------------------------

    def export(self) -> str:
        return "\n".join(rec.line() for rec in self.records)

    def audit(self) -> list[str]:
        """Verify every record signature, and replay the records to check the live fold."""
        violations: list[str] = []
        for i, (rec, sig) in enumerate(zip(self.records, self.record_sigs)):
            if rec.seq != i:
                violations.append(f"seq gap at {i} (found {rec.seq})")
            if not self.directory.verify(REGISTRY_KEY, rec.line().encode(), sig):
                violations.append(f"bad registry signature on seq {rec.seq}")
        replayed, errors = replay_records(self.records)
        violations.extend(errors)
        if replayed is not None:
            for name in ("live", "minted", "burned", "received", "burns", "volume"):
                if getattr(replayed, name) != getattr(self.fold, name):
                    violations.append(f"{name} does not match ledger replay")
        live_total = self.live_supply
        if self._state.minted - self._state.burned != live_total:
            violations.append(
                f"conservation broken: minted {self._state.minted} - burned "
                f"{self._state.burned} != live {live_total}"
            )
        return violations


def replay_records(records: list[LedgerRecord]) -> tuple[Optional[LedgerFold], list[str]]:
    """Fold `step` over records from seq 0; the first violation ends the fold.

    Violations are returned, not raised.  No issuer allowances are checked.
    """
    state = _State()
    for i, rec in enumerate(records):
        if rec.seq != i:
            return None, [f"seq gap: expected {i}, found {rec.seq}"]
        try:
            step(state, rec)
        except RegistryError as exc:
            return None, [f"seq {rec.seq}: {exc}"]
    return LedgerFold(state), []


# kind text -> kind: a dict lookup, where `RecordKind(text)` runs Enum's __call__
_KIND_OF = {kind.value: kind for kind in RecordKind}

# an integer as str() writes it: ASCII digits, no sign but a minus, no
# leading zero, no "_" or space, and no "-0"
_INT = "(?:0|-?[1-9][0-9]*)"

# a ledger line exactly as `LedgerRecord.line()` writes it: a reason is
# never empty (None is written "-") and never ends in a newline
_LINE = re.compile(
    rf"{_INT}\|{_INT}\|(?:{'|'.join(_KIND_OF)})\|[^|]*"
    rf"\|(?:{_INT}(?:,{_INT})*)?\|[^|]*\|[^|]*[^|\n]"
)


def parse_ledger_line(line: str) -> LedgerRecord:
    """The record an exported line names; a ValueError if the line is not one.

    A line is one only if `line()` of the record it names gives it back
    byte for byte, so each record has a single spelling in an export.
    """
    if _LINE.fullmatch(line) is None:
        raise ValueError(f"malformed ledger line: {line!r}")
    seq, at, kind, ids, amounts, parties, reason = line.split("|")
    return LedgerRecord(
        int(seq),
        int(at),
        _KIND_OF[kind],
        tuple(ids.split(",")) if ids else (),
        tuple(map(int, amounts.split(","))) if amounts else (),
        tuple(parties.split(",")) if parties else (),
        None if reason == "-" else reason,
    )


def audit_export(text: str) -> list[str]:
    """Audit an exported ledger by replaying it through `step`.

    Returns the violations, never raises: an unparseable line, a seq gap, or
    the first record `step` refuses, as "seq N: ...".  The format carries no
    signatures or issuer allowances, so neither is checked; a replayed
    self-transfer passes, as it does at endorsement.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    try:
        records = [parse_ledger_line(ln) for ln in lines]
    except ValueError as exc:
        return [f"unparseable ledger: {exc}"]
    _, errors = replay_records(records)
    return errors
