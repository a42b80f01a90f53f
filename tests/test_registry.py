"""Registry: endorsement protocol, double-spend rejection, audit, stats."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progmoney.cli import run_cli
from progmoney.crypto import KeyDirectory, Signature
from progmoney.money import LineageNode
from progmoney.registry import (
    LAYOUT,
    BadSignature,
    BadWindow,
    DoubleSpend,
    InvalidRequest,
    REGISTRY_KEY,
    LedgerRecord,
    RecordKind,
    Registry,
    UnauthorizedIssuer,
    _State,
    audit_export,
    parse_ledger_line,
    replay_records,
    step,
)


def make_registry():
    rng = random.Random(17)
    directory = KeyDirectory()
    registry = Registry(directory, rng=rng)
    directory.create("central", rng)
    directory.create("alice", rng)
    directory.create("bob", rng)
    directory.create("mallory", rng)
    registry.authorize_issuer("central", 1_000_000)
    return directory, registry


def ask(directory, kind, unit_ids, amounts, parties, at, reason=None):
    """The record `parties[0]` asks for, and their signature on its body."""
    asked = LedgerRecord(0, at, kind, unit_ids, amounts, parties, reason)
    return asked, directory.sign(parties[0], asked.body().encode())


def mint_request(directory, registry, value=1000, at=0):
    return ask(directory, RecordKind.MINT, (registry.new_unit_id(),), (value,), ("central",), at)


def minted(directory, registry):
    """Endorse a 1000 mint by central; the new unit's id."""
    record, _ = registry.endorse(*mint_request(directory, registry))
    return record.unit_ids[0]


# a signed BURN of central's 1000-unit u1 at tick 1, reason "tamper": each field edited
BURN_EDITS = {
    "at": 2,
    "kind": RecordKind.TRANSFER,
    "unit_ids": ("u9",),
    "amounts": (999,),
    "parties": ("central", "alice"),
    "reason": "expiry",
}


class TestEndorse:
    def test_registry_key_needs_an_rng(self):
        # no fixed fallback secret that anyone reading the source could sign with
        with pytest.raises(TypeError):
            Registry(KeyDirectory())
        directory = KeyDirectory()
        Registry(directory, rng=random.Random(1))
        assert directory.knows(REGISTRY_KEY)

    def test_mint_and_transfer(self):
        directory, registry = make_registry()
        uid = minted(directory, registry)
        assert registry.owner_of(uid) == "central"
        registry.endorse(
            *ask(directory, RecordKind.TRANSFER, (uid,), (1000,), ("central", "alice"), 1)
        )
        assert registry.owner_of(uid) == "alice"

    def test_replayed_transfer_is_double_spend(self):
        directory, registry = make_registry()
        uid = minted(directory, registry)
        transfer = ask(directory, RecordKind.TRANSFER, (uid,), (1000,), ("central", "alice"), 1)
        registry.endorse(*transfer)
        with pytest.raises(DoubleSpend):
            registry.endorse(*transfer)

    def test_bad_signature_rejected(self):
        directory, registry = make_registry()
        asked, _ = mint_request(directory, registry)
        forged = directory.sign("mallory", asked.body().encode())
        with pytest.raises(BadSignature):
            registry.endorse(asked, forged)
        assert registry.records == []

    def test_unknown_requester_is_bad_signature(self):
        # a requester the key directory never heard of is refused like a
        # forgery, as a RegistryError, not a KeyError
        _, registry = make_registry()
        asked = LedgerRecord(0, 0, RecordKind.MINT, ("u1",), (5,), ("ghost",))
        with pytest.raises(BadSignature):
            registry.endorse(asked, Signature("ghost", 0))
        assert registry.records == []

    @pytest.mark.parametrize("field", list(BURN_EDITS))
    def test_edited_signed_field_rejected(self, field):
        # every field of the body, the reason a unit was burned too, is part
        # of what its sender signed
        directory, registry = make_registry()
        uid = minted(directory, registry)
        burn, sig = ask(directory, RecordKind.BURN, (uid,), (1000,), ("central",), 1, "tamper")
        with pytest.raises(BadSignature):
            registry.endorse(dataclasses.replace(burn, **{field: BURN_EDITS[field]}), sig)
        assert len(registry.records) == 1
        assert registry.owner_of(uid) == "central"

    @pytest.mark.parametrize("seq", [0, 1, 7, -3])
    def test_seq_is_not_signed(self, seq):
        # the sender cannot know its record's seq: whatever the asked record
        # carries, it is committed at the registry's next seq
        directory, registry = make_registry()
        uid = minted(directory, registry)
        burn, sig = ask(directory, RecordKind.BURN, (uid,), (1000,), ("central",), 1, "tamper")
        record, record_sig = registry.endorse(dataclasses.replace(burn, seq=seq), sig)
        assert record.seq == 1
        assert record.body() == burn.body()
        assert registry.records[1] is record
        assert directory.verify(REGISTRY_KEY, record.line().encode(), record_sig)
        assert registry.audit() == []

    def test_mint_beyond_allowance(self):
        directory, registry = make_registry()
        with pytest.raises(UnauthorizedIssuer):
            registry.endorse(*mint_request(directory, registry, value=2_000_000))

    def test_non_issuer_cannot_mint(self):
        directory, registry = make_registry()
        req = ask(directory, RecordKind.MINT, (registry.new_unit_id(),), (10,), ("alice",), 0)
        with pytest.raises(UnauthorizedIssuer):
            registry.endorse(*req)

    def test_split_conserves_or_rejected(self):
        directory, registry = make_registry()
        parent = minted(directory, registry)
        bad = ask(
            directory,
            RecordKind.SPLIT,
            (parent, registry.new_unit_id(), registry.new_unit_id()),
            (1000, 300, 600),
            ("central",),
            1,
        )
        with pytest.raises(InvalidRequest):
            registry.endorse(*bad)

    def test_split_children_share_id(self):
        directory, registry = make_registry()
        parent = minted(directory, registry)
        child = registry.new_unit_id()
        split = ask(
            directory, RecordKind.SPLIT, (parent, child, child), (1000, 400, 600), ("central",), 1
        )
        with pytest.raises(InvalidRequest):
            registry.endorse(*split)
        assert registry.fold.live == {parent: ("central", 1000)}

    def test_merge_same_id_twice(self):
        directory, registry = make_registry()
        uid = minted(directory, registry)
        merge = ask(
            directory,
            RecordKind.MERGE,
            (uid, uid, registry.new_unit_id()),
            (1000, 1000, 2000),
            ("central",),
            1,
        )
        with pytest.raises(DoubleSpend):
            registry.endorse(*merge)

    def test_spend_of_unknown_id(self):
        directory, registry = make_registry()
        ghost = ask(directory, RecordKind.TRANSFER, ("u999",), (1,), ("central", "alice"), 0)
        with pytest.raises(DoubleSpend):
            registry.endorse(*ghost)

    def test_exactly_one_of_concurrent_intents_wins(self):
        # N submissions touching the same id, in many interleavings:
        # exactly one endorsement each time
        for shuffle_seed in range(10):
            directory, registry = make_registry()
            uid = minted(directory, registry)
            intents = [
                ask(directory, RecordKind.TRANSFER, (uid,), (1000,), ("central", owner), 1)
                for owner in ("alice", "bob", "mallory")
            ] * 4
            random.Random(shuffle_seed).shuffle(intents)
            accepted = 0
            for intent in intents:
                try:
                    registry.endorse(*intent)
                    accepted += 1
                except DoubleSpend:
                    pass
            assert accepted == 1
            assert registry.audit() == []


class TestReplayHarness:
    def test_thousand_shuffled_replays_zero_acceptances(self):
        directory, registry = make_registry()
        uid = minted(directory, registry)
        transfer = ask(directory, RecordKind.TRANSFER, (uid,), (1000,), ("central", "alice"), 1)
        registry.endorse(*transfer)
        split = ask(
            directory,
            RecordKind.SPLIT,
            (uid, registry.new_unit_id(), registry.new_unit_id()),
            (1000, 400, 600),
            ("alice",),
            2,
        )
        registry.endorse(*split)
        replays = [transfer, split] * 500
        random.Random(11).shuffle(replays)
        outcomes = []
        for replay in replays:
            try:
                registry.endorse(*replay)
                outcomes.append("accepted")
            except DoubleSpend:
                outcomes.append("double_spend")
        assert outcomes.count("accepted") == 0
        assert outcomes.count("double_spend") == 1000
        assert registry.audit() == []


class TestSupplyStats:
    def test_empty_ledger_all_zero(self):
        _, registry = make_registry()
        stats = registry.supply_stats((0, 0))
        assert (stats.live_supply, stats.tx_volume) == (0, 0)

    def test_mint_and_transfer_counted(self):
        directory, registry = make_registry()
        uid = minted(directory, registry)
        registry.endorse(
            *ask(directory, RecordKind.TRANSFER, (uid,), (1000,), ("central", "alice"), 1)
        )
        stats = registry.supply_stats((0, 1))
        assert stats.live_supply == 1000
        assert stats.tx_volume == 1000

    def test_window_excluding_transfer(self):
        directory, registry = make_registry()
        uid = minted(directory, registry)
        registry.endorse(
            *ask(directory, RecordKind.TRANSFER, (uid,), (1000,), ("central", "alice"), 5)
        )
        stats = registry.supply_stats((0, 4))
        assert stats.tx_volume == 0

    def test_bad_window(self):
        _, registry = make_registry()
        with pytest.raises(BadWindow):
            registry.supply_stats((-1, 0))
        with pytest.raises(BadWindow):
            registry.supply_stats((3, 1))
        with pytest.raises(BadWindow):
            registry.supply_stats((0, 99))


class TestAudit:
    def build_history(self):
        directory, registry = make_registry()
        uid = minted(directory, registry)
        registry.endorse(
            *ask(directory, RecordKind.TRANSFER, (uid,), (1000,), ("central", "alice"), 1)
        )
        c1, c2 = registry.new_unit_id(), registry.new_unit_id()
        registry.endorse(
            *ask(directory, RecordKind.SPLIT, (uid, c1, c2), (1000, 400, 600), ("alice",), 2)
        )
        registry.endorse(*ask(directory, RecordKind.BURN, (c1,), (400,), ("alice",), 3, "tamper"))
        return directory, registry

    def test_clean_history_audits_ok(self):
        _, registry = self.build_history()
        assert registry.audit() == []

    def test_edited_amount_names_seq(self):
        _, registry = self.build_history()
        rec = registry.records[1]
        registry.records[1] = LedgerRecord(
            rec.seq, rec.at, rec.kind, rec.unit_ids, (999,), rec.parties, rec.reason
        )
        violations = registry.audit()
        assert any("seq 1" in v or "signature on seq 1" in v for v in violations)

    def test_deleted_record_is_seq_gap(self):
        _, registry = self.build_history()
        del registry.records[1]
        del registry.record_sigs[1]
        violations = registry.audit()
        assert any("seq" in v and "gap" in v for v in violations)

    @pytest.mark.parametrize(
        "total, key", [("received", "alice"), ("burns", "tamper"), ("volume", 1)]
    )
    def test_live_total_off_the_ledger_is_reported(self, total, key):
        _, registry = self.build_history()
        getattr(registry._state, total)[key] += 1
        assert registry.audit() == [f"{total} does not match ledger replay"]

    def test_replay_determinism(self):
        _, registry = self.build_history()
        state, errors = replay_records(registry.records)
        assert errors == []
        assert state.live == registry.fold.live
        assert state.minted == registry.fold.minted
        assert state.burned == registry.fold.burned

    def test_conservation_after_every_append(self):
        _, registry = self.build_history()
        for cut in range(1, len(registry.records) + 1):
            state, errors = replay_records(registry.records[:cut])
            assert errors == []
            live = sum(v for _, v in state.live.values())
            assert state.minted - state.burned == live

    def test_export_round_trip(self):
        _, registry = self.build_history()
        lines = registry.export().splitlines()
        parsed = [parse_ledger_line(line) for line in lines]
        assert parsed == registry.records

    def test_export_audit_clean_and_corrupt(self):
        _, registry = self.build_history()
        text = registry.export()
        assert audit_export(text) == []
        lines = text.splitlines()
        corrupt = lines[:1] + [lines[1].replace("1000", "999")] + lines[2:]
        assert audit_export("\n".join(corrupt)) != []
        missing = lines[:1] + lines[2:]
        assert any("seq" in v for v in audit_export("\n".join(missing)))


MINT_U1 = "0|0|MINT|u1|100|central|-"

# Ledgers endorsement refuses; replay must refuse them by the same rules
REFUSED_LEDGERS = {
    "mint_without_id": ("0|0|MINT||100|central|-", 0),
    "mint_without_party": ("0|0|MINT|u1|100||-", 0),
    "transfer_with_one_party": (MINT_U1 + "\n1|1|TRANSFER|u1|100|central|-", 1),
    "burn_without_amount": (MINT_U1 + "\n1|1|BURN|u1||central|-", 1),
    "merge_of_one_unit_twice": (MINT_U1 + "\n1|1|MERGE|u1,u1,u2|100,100,200|central|-", 1),
    "split_by_non_owner": (MINT_U1 + "\n1|1|SPLIT|u1,u2,u3|100,40,60|mallory|-", 1),
    "split_into_one_id_twice": (MINT_U1 + "\n1|1|SPLIT|u1,u2,u2|100,40,60|central|-", 1),
}


@pytest.mark.parametrize("name", sorted(REFUSED_LEDGERS))
def test_refused_ledger_is_a_violation_not_a_crash(name, tmp_path):
    text, seq = REFUSED_LEDGERS[name]
    violations = audit_export(text)
    assert len(violations) == 1
    assert violations[0].startswith(f"seq {seq}: ")
    (tmp_path / "ledger.txt").write_text(text + "\n", encoding="utf-8")
    (tmp_path / "observations.log").write_text("", encoding="utf-8")
    assert run_cli(["audit", str(tmp_path / "ledger.txt")]) == 2
    assert run_cli(["report", str(tmp_path)]) == 2


# Ledgers that are not ledger lines at all; audit and report refuse them as such
UNPARSEABLE_LEDGERS = {
    "unknown_kind": MINT_U1 + "\n1|1|MELT|u1|100|central|-",
    "amount_not_an_integer": MINT_U1 + "\n1|1|BURN|u1|ten|central|-",
    "seq_not_an_integer": "zero|0|MINT|u1|100|central|-",
    "six_fields": "0|0|MINT|u1|100|central",
    # numbers int() reads that no registry writes, an empty reason, and a
    # minus zero: each line would read back as some other line
    "underscore_sign_and_space": "0|0|MINT|u1|1_000|central|-\n1|+1|BURN|u1| 1000 |central|-",
    "empty_reason": "0|0|MINT|u1|1000|central|",
    "full_width_digits": "0|0|MINT|u1|\uff10\uff11\uff10\uff10\uff10|central|-",
    "minus_zero": "0|-0|MINT|u1|100|central|-",
    "leading_zero": "00|0|MINT|u1|100|central|-",
}


@pytest.mark.parametrize("name", sorted(UNPARSEABLE_LEDGERS))
def test_unparseable_ledger_is_a_violation_not_a_crash(name, tmp_path):
    text = UNPARSEABLE_LEDGERS[name]
    violations = audit_export(text)
    assert len(violations) == 1
    assert violations[0].startswith("unparseable ledger: ")
    (tmp_path / "ledger.txt").write_text(text + "\n", encoding="utf-8")
    (tmp_path / "observations.log").write_text("", encoding="utf-8")
    assert run_cli(["audit", str(tmp_path / "ledger.txt")]) == 2
    assert run_cli(["report", str(tmp_path)]) == 2


def lenient_record(line):
    """The record `line` names when every number is read as int() reads it."""
    parts = line.rstrip("\n").split("|")
    if len(parts) != 7:
        raise ValueError(line)
    seq, at, kind, ids, amounts, parties, reason = parts
    return LedgerRecord(
        int(seq),
        int(at),
        RecordKind(kind),
        tuple(ids.split(",")) if ids else (),
        tuple(map(int, amounts.split(","))) if amounts else (),
        tuple(parties.split(",")) if parties else (),
        None if reason == "-" else reason,
    )


# lines as the registry writes them, and the pieces a mutation splices in:
# digits, signs and whitespace int() skips or reads, separators, non-ASCII
# digits, kind names and a newline
CANONICAL_LINES = [
    MINT_U1,
    "12|3|SPLIT|u1,u2,u3|100,40,60|alice|-",
    "7|-3|BURN|u9|7|central|expiry",
    "1|10|TRANSFER|u1|100|central,bob|-",
    "0|0|MERGE|||x|y",
]
_LINE_PIECES = st.sampled_from(
    ["0", "1", "9", "-", "+", "_", " ", "\t", "\n", "|", ",", "-0", "00"]
    + ["\uff11", "\u0663", "MINT", "x"]
)


@settings(max_examples=400)
@given(
    st.sampled_from(CANONICAL_LINES),
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 2), _LINE_PIECES), max_size=3),
)
def test_a_ledger_line_parses_iff_it_reads_back(line, edits):
    for pos, how, piece in edits:
        if how == 0:
            line = line[:pos] + piece + line[pos:]
        elif how == 1:
            line = line[:pos] + line[pos + 1 :]
        else:
            line = line[:pos] + piece + line[pos + 1 :]
    try:
        read = lenient_record(line)
    except ValueError:
        read = None
    reads_back = read is not None and read.line() == line
    try:
        record = parse_ledger_line(line)
    except ValueError:
        assert not reads_back, line
    else:
        assert reads_back and record == read, line


def test_replayed_self_transfer_still_passes():
    # sender == new owner leaves the owner as it was; replay endorses it again
    assert audit_export(MINT_U1 + "\n1|1|TRANSFER|u1|100|central,central|-") == []


OWNERS = ("central", "alice", "bob", "mallory")


def random_request(rng, registry, at, self_transfer):
    """One asked record, often one the registry must refuse."""
    live = registry.fold.live
    ids = sorted(live)
    kind = rng.choice(("mint", "mint", "transfer", "split", "merge", "burn", "replay"))
    if kind == "replay" and self_transfer is not None:
        return self_transfer
    if kind == "mint" or not ids:
        issuer = rng.choice(("central", "central", "central", "mallory"))
        return LedgerRecord(
            0, at, RecordKind.MINT, (registry.new_unit_id(),), (rng.randint(1, 50),), (issuer,)
        )
    uid = rng.choice(ids)
    owner, value = live[uid]
    mates = [other for other in ids if live[other][0] == owner and other != uid]
    other = rng.choice(mates) if mates and rng.random() < 0.9 else uid
    # a wrong sender, or a unit id that was consumed or never existed
    sender = owner if rng.random() < 0.8 else rng.choice(OWNERS)
    if rng.random() < 0.1:
        uid = rng.choice(("u1", "u3", "nope"))
    if kind == "transfer":
        to = rng.choice(OWNERS)
        return LedgerRecord(0, at, RecordKind.TRANSFER, (uid,), (value,), (sender, to))
    if kind == "split":
        a = rng.randint(0, value)
        children = (registry.new_unit_id(), registry.new_unit_id())
        return LedgerRecord(
            0, at, RecordKind.SPLIT, (uid, *children), (value, a, value - a), (sender,)
        )
    if kind == "merge":
        amounts = (value, live[other][1], value + live[other][1])
        return LedgerRecord(
            0, at, RecordKind.MERGE, (uid, other, registry.new_unit_id()), amounts, (sender,)
        )
    return LedgerRecord(0, at, RecordKind.BURN, (uid,), (value,), (sender,), "test")


def test_holdings_follow_the_live_set():
    # a refused request leaves the live set as it was, and the live fold
    # always equals a replay of the records committed so far
    directory, registry = make_registry()
    rng = random.Random(4)
    self_transfer = None
    accepted = refused = replays = 0
    for at in range(1500):
        request = random_request(rng, registry, at, self_transfer)
        replays += request is self_transfer
        before = dict(registry.fold.live)
        try:
            registry.endorse(request, directory.sign(request.parties[0], request.body().encode()))
            accepted += 1
        except (DoubleSpend, InvalidRequest, UnauthorizedIssuer):
            refused += 1
            assert registry.fold.live == before
        if request.kind is RecordKind.TRANSFER and request.parties[1] == request.parties[0]:
            self_transfer = request
        if at % 100 == 99:
            replayed, errors = replay_records(registry.records)
            assert errors == [] and replayed.live == registry.fold.live
    assert accepted > 500 and refused > 200 and replays > 20
    assert registry.audit() == []


# a well-formed (unit_ids, amounts, parties) of each kind, once its consumed ids are minted
WELL_FORMED = {
    RecordKind.MINT: (("u1",), (10,), ("central",)),
    RecordKind.TRANSFER: (("u1",), (10,), ("central", "alice")),
    RecordKind.SPLIT: (("u1", "u2", "u3"), (10, 4, 6), ("central",)),
    RecordKind.MERGE: (("u1", "u2", "u3"), (10, 7, 17), ("central",)),
    RecordKind.BURN: (("u1",), (10,), ("central",)),
}


def state_holding(kind):
    """A fresh state in which the requester of `WELL_FORMED[kind]` holds what it consumes."""
    ids, amounts, parties = WELL_FORMED[kind]
    state = _State()
    for seq, i in enumerate(LAYOUT[kind].consumed):
        step(state, LedgerRecord(seq, 0, RecordKind.MINT, (ids[i],), (amounts[i],), parties[:1]))
    return state


@pytest.mark.parametrize("kind", list(RecordKind), ids=lambda kind: kind.value)
def test_layout_is_what_step_does(kind):
    # LineageNode.made and the shape check read LAYOUT instead of the live set
    ids, amounts, parties = WELL_FORMED[kind]
    made, consumed, width = LAYOUT[kind]
    state = state_holding(kind)
    before = dict(state.live)
    record = LedgerRecord(len(before), 1, kind, ids, amounts, parties)
    step(state, record)
    after = state.live
    gone = {uid: entry for uid, entry in before.items() if after.get(uid) != entry}
    new = {uid: entry for uid, entry in after.items() if before.get(uid) != entry}
    assert gone == {ids[i]: (parties[0], amounts[i]) for i in consumed}
    assert new == {ids[i]: (parties[-1], amounts[i]) for i in made}
    sig = Signature(REGISTRY_KEY, 0)
    assert LineageNode(record, sig, sig).made == tuple(
        (ids[i], parties[-1], amounts[i]) for i in made
    )
    assert len(ids) == len(amounts) == width
    # one id short of the width or one past it, the amounts as they were or of the same length
    for n in (width - 1, width + 1):
        short_or_long = (ids + ("u9",))[:n]
        for asked_amounts in (amounts, (amounts + (1,))[:n]):
            asked = LedgerRecord(len(before), 1, kind, short_or_long, asked_amounts, parties)
            with pytest.raises(InvalidRequest):
                step(state_holding(kind), asked)
