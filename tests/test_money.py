"""MoneyUnit lifecycle: mint, split, merge, transfer, integrity, zeroise."""

import dataclasses
import random
from dataclasses import replace
from enum import Enum
from pathlib import Path

import pytest

from progmoney import money
from progmoney import policy as pol
from progmoney.crypto import KeyDirectory, Signature
from progmoney.money import (
    InvalidAmount,
    InvalidPolicy,
    LineageNode,
    MixedOwner,
    MixedPolicy,
    NotActive,
    ObligationUnpayable,
    Origin,
    PolicyForbids,
    UnitState,
    mint,
    merge,
    origin_body,
    split,
    transfer,
    verify_integrity,
    zeroise,
)
from progmoney.registry import (
    DoubleSpend,
    LedgerRecord,
    RecordKind,
    Registry,
    UnauthorizedIssuer,
)
from progmoney.scenario import load_scenario, run_scenario
from progmoney.sim import Simulation
from progmoney.sim_types import Role

SALES_TAX = 'OBLIGATION ON RECEIVE IF category == "sale" DO PAY 1/5 TO "tax_authority";'
SCENARIO_DIR = Path(money.__file__).parent / "data" / "scenarios"
WEAPONS_BAN = (
    'PROHIBITION ON TRANSFER_REQUEST IF category == "weapons" AND licence == NONE;'
)


@pytest.fixture
def world():
    rng = random.Random(42)
    directory = KeyDirectory()
    registry = Registry(directory, rng=rng)
    bank = directory.create("central", rng)
    for host in ("alice", "bob", "tax_authority"):
        directory.create(host, rng)
    registry.authorize_issuer("central", 10**12)
    return directory, registry, bank


def ctx_for(unit, category=None, now=0, licence=None):
    return pol.EvalContext(
        amount=unit.value,
        category=category,
        now=now,
        expiry=unit.policy.deadline,
        licence=licence,
        home=unit.lineage.origin.home,
    )


class TestMint:
    def test_mint_contract(self, world):
        directory, registry, bank = world
        unit = mint(bank, 10_000, "SIM", pol.EMPTY_POLICY, registry, at=0)
        assert unit.state is UnitState.ACTIVE
        assert registry.fold.live[unit.id] == ("central", 10_000)
        origin = unit.lineage.origin
        assert (origin.currency, origin.home, origin.policy_hash) == (
            "SIM",
            None,
            pol.EMPTY_POLICY.text_hash,
        )
        assert verify_integrity(unit, directory).ok
        # a unit keeps no unsigned copy of its origin or its policy's deadline
        for name in ("currency", "home", "policy_hash", "expiry"):
            with pytest.raises(AttributeError):
                setattr(unit, name, None)

    def test_mint_zero_rejected(self, world):
        _, registry, bank = world
        with pytest.raises(InvalidAmount):
            mint(bank, 0, "SIM", pol.EMPTY_POLICY, registry)

    def test_mint_by_non_issuer(self, world):
        directory, registry, _ = world
        rogue = directory.create("rogue", random.Random(9))
        with pytest.raises(UnauthorizedIssuer):
            mint(rogue, 100, "SIM", pol.EMPTY_POLICY, registry)

    def test_mint_rejects_bad_policy(self, world):
        _, registry, bank = world
        bad = pol.parse('OBLIGATION ON RECEIVE DO PAY 9/1 TO "x";')
        with pytest.raises(InvalidPolicy):
            mint(bank, 100, "SIM", bad, registry)

    def test_mint_stamp_is_first(self, world):
        _, registry, bank = world
        unit = mint(bank, 500, "SIM", pol.EMPTY_POLICY, registry, at=3)
        assert len(unit.provenance) == 1
        record = unit.provenance[0]
        assert (record.kind, record.unit_ids, record.amounts, record.parties, record.at) == (
            RecordKind.MINT,
            (unit.id,),
            (500,),
            ("central",),
            3,
        )
        assert record == registry.records[-1]
        assert unit.lineage.made == ((unit.id, "central", 500),)


class TestSplit:
    def test_split_conserves(self, world):
        _, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        a, b = split(unit, 40, registry, at=1)
        assert (a.value, b.value) == (40, 60)
        assert a.value + b.value == 100
        assert a.owner == b.owner == "central"
        assert a.lineage.origin is b.lineage.origin is unit.lineage.origin
        assert registry.owner_of(unit.id) is None

    def test_split_whole_value_rejected(self, world):
        _, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        with pytest.raises(InvalidAmount):
            split(unit, 100, registry, at=1)
        with pytest.raises(InvalidAmount):
            split(unit, 0, registry, at=1)

    def test_replayed_split_is_double_spend(self, world):
        _, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        split(unit, 40, registry, at=1)
        with pytest.raises(DoubleSpend):
            split(unit, 40, registry, at=2)

    def test_children_inherit_and_verify(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        a, b = split(unit, 40, registry, at=1)
        for child in (a, b):
            assert child.provenance[0] == unit.provenance[0]
            assert verify_integrity(child, directory).ok
            assert child.provenance[-1].kind is RecordKind.SPLIT
            assert child.lineage.holding(child.id) == (child.id, child.owner, child.value)


def test_split_and_merge_sign_only_the_request_and_the_ledger_line(world, monkeypatch):
    _, registry, bank = world
    unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
    signers = []
    sign = KeyDirectory.sign
    monkeypatch.setattr(
        KeyDirectory,
        "sign",
        lambda self, key_id, msg: signers.append(key_id) or sign(self, key_id, msg),
    )
    carved, rest = split(unit, 40, registry, at=1)
    assert signers == ["central", "registry"]
    signers.clear()
    merge(carved, rest, registry, at=2)
    assert signers == ["central", "registry"]


class TestMerge:
    def test_merge_adds(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        a, b = split(unit, 40, registry, at=1)
        merged = merge(a, b, registry, at=2)
        assert merged.value == 100
        assert verify_integrity(merged, directory).ok
        assert registry.owner_of(a.id) is None
        assert registry.owner_of(b.id) is None

    def test_merge_mixed_policy(self, world):
        _, registry, bank = world
        taxed = mint(bank, 100, "SIM", pol.compile_policy(SALES_TAX), registry)
        plain = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        with pytest.raises(MixedPolicy):
            merge(taxed, plain, registry, at=1)

    def test_merge_mixed_owner(self, world):
        directory, registry, bank = world
        a = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        b = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        transfer(b, "alice", ctx_for(b, now=1), registry)
        with pytest.raises(MixedOwner):
            merge(a, b, registry, at=2)

    def test_merge_same_object_twice(self, world):
        _, registry, bank = world
        a = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        with pytest.raises(DoubleSpend):
            merge(a, a, registry, at=1)

    @pytest.mark.parametrize(
        "currency, policy",
        [("GOLD", pol.EMPTY_POLICY), ("SIM", pol.compile_policy(SALES_TAX))],
        ids=["currency", "policy"],
    )
    def test_merge_of_other_origins_detected(self, world, currency, policy):
        # the registry knows no currency or policy, so it endorses a MERGE
        # that `merge` itself would refuse as MixedPolicy
        directory, registry, bank = world
        a = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        b = mint(bank, 100, currency, policy, registry)
        ids = (a.id, b.id, registry.new_unit_id())
        asked = LedgerRecord(0, 1, RecordKind.MERGE, ids, (100, 100, 200), ("central",))
        sender_sig = directory.sign("central", asked.body().encode())
        record, sig = registry.endorse(asked, sender_sig)
        merged = replace(
            a,
            id=record.unit_ids[2],
            value=200,
            lineage=LineageNode(record, sig, sender_sig, (a.lineage, b.lineage)),
        )
        result = verify_integrity(merged, directory)
        assert result.problems == ("stamp 2 parents differ in currency or policy",)


class TestTransfer:
    def test_sales_tax_walkthrough(self, world):
        # a 1000 purchase at rate 1/5: vendor nets 800, tax authority 200
        directory, registry, bank = world
        unit = mint(bank, 1000, "SIM", pol.compile_policy(SALES_TAX), registry)
        outcome = transfer(unit, "bob", ctx_for(unit, category="sale", now=1), registry)
        assert outcome.received is not None
        assert outcome.received.value == 800
        assert outcome.received.owner == "bob"
        assert outcome.payments[0][0] == "tax_authority"
        assert outcome.payments[0][1].value == 200
        assert registry.owner_of(outcome.payments[0][1].id) == "tax_authority"
        assert registry.fold.minted - registry.fold.burned == registry.live_supply

    def test_prohibition_veto_leaves_no_trace(self, world):
        _, registry, bank = world
        unit = mint(bank, 500, "SIM", pol.compile_policy(WEAPONS_BAN), registry)
        records_before = len(registry.records)
        with pytest.raises(PolicyForbids):
            transfer(unit, "bob", ctx_for(unit, category="weapons", now=1), registry)
        assert len(registry.records) == records_before
        assert registry.owner_of(unit.id) == "central"

    def test_ctx_amount_must_match(self, world):
        _, registry, bank = world
        unit = mint(bank, 500, "SIM", pol.EMPTY_POLICY, registry)
        with pytest.raises(InvalidAmount):
            transfer(unit, "bob", pol.EvalContext(amount=400, now=1), registry)

    def test_stale_unit_double_spend(self, world):
        _, registry, bank = world
        unit = mint(bank, 500, "SIM", pol.EMPTY_POLICY, registry)
        stale = replace(unit)
        transfer(unit, "alice", ctx_for(unit, now=1), registry)
        transferred = replace(unit)
        transferred.owner = "central"  # pretend the first transfer never happened
        with pytest.raises(DoubleSpend):
            transfer(transferred, "bob", ctx_for(stale, now=2), registry)

    def test_obligation_unpayable_atomic(self, world):
        _, registry, bank = world
        greedy = pol.compile_policy(
            'OBLIGATION ON RECEIVE DO PAY 3/4 TO "a", PAY 3/4 TO "b";'
        )
        for payee in ("a", "b"):
            registry.directory.create(payee, random.Random(payee))
        unit = mint(bank, 100, "SIM", greedy, registry)
        snapshot = (
            len(registry.records),
            dict(registry.fold.live),
            registry.fold.minted,
            registry.fold.burned,
        )
        with pytest.raises(ObligationUnpayable):
            transfer(unit, "bob", ctx_for(unit, now=1), registry)
        assert snapshot == (
            len(registry.records),
            dict(registry.fold.live),
            registry.fold.minted,
            registry.fold.burned,
        )

    def test_pay_consuming_everything(self, world):
        _, registry, bank = world
        all_tax = pol.compile_policy(
            'OBLIGATION ON RECEIVE IF category == "sale" DO PAY 1/1 TO "tax_authority";'
        )
        unit = mint(bank, 100, "SIM", all_tax, registry)
        outcome = transfer(unit, "bob", ctx_for(unit, category="sale", now=1), registry)
        assert outcome.received is None
        assert outcome.payments[0][1].value == 100

    def test_obligation_payment_does_not_recurse(self, world):
        # the tax payment itself is a transfer but must not trigger the tax rule
        _, registry, bank = world
        unit = mint(bank, 1000, "SIM", pol.compile_policy(SALES_TAX), registry)
        outcome = transfer(unit, "bob", ctx_for(unit, category="sale", now=1), registry)
        tax_unit = outcome.payments[0][1]
        assert tax_unit.value == 200
        # exactly one payment, no tax-on-tax chain
        assert len(outcome.payments) == 1

    def test_notify_obligations_collected(self, world):
        # the sender's notice is sent with the transfer; the recipient's is owed
        _, registry, bank = world
        noisy = pol.compile_policy(
            'OBLIGATION ON TRANSFER_REQUEST DO NOTIFY "watcher";\n'
            'OBLIGATION ON RECEIVE DO NOTIFY "auditor", ZEROISE;\n'
            'OBLIGATION ON RECEIVE DO PAY 1/10 TO "tax";'
        )
        unit = mint(bank, 10, "SIM", noisy, registry)
        outcome = transfer(unit, "alice", ctx_for(unit, now=1), registry)
        assert outcome.notify == ("watcher",)
        assert outcome.owed == (
            pol.NotifyObligation("auditor", 1),
            pol.ZeroiseObligation("policy", 1),
        )
        # the transfer zeroised nothing: what alice holds is active
        assert outcome.received.state is UnitState.ACTIVE
        assert outcome.received.value == 9

    def test_full_provenance_replay(self, world):
        directory, registry, bank = world
        unit = mint(bank, 1000, "SIM", pol.compile_policy(SALES_TAX), registry)
        outcome = transfer(unit, "bob", ctx_for(unit, category="sale", now=1), registry)
        for current in outcome.all_units():
            assert verify_integrity(current, directory).ok
            assert current.provenance[-1] == current.lineage.record
            assert current.lineage.holding(current.id) == (current.id, current.owner, current.value)


class TestIntegrity:
    def test_untouched_unit_ok(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.compile_policy(SALES_TAX), registry)
        assert verify_integrity(unit, directory).ok

    def test_policy_text_flip_detected(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.compile_policy(SALES_TAX), registry)
        source = unit.policy.source_canonical
        mutated = source[:5] + ("X" if source[5] != "X" else "Y") + source[6:]
        unit.policy = pol.PolicyProgram(unit.policy.rules, mutated)
        result = verify_integrity(unit, directory)
        assert not result.ok
        assert any("hash" in p for p in result.problems)

    def test_ast_mutation_detected(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.compile_policy(SALES_TAX), registry)
        sneaky = pol.parse('OBLIGATION ON RECEIVE DO PAY 0/1 TO "nobody";')
        unit.policy = pol.PolicyProgram(sneaky.rules, unit.policy.source_canonical)
        result = verify_integrity(unit, directory)
        assert not result.ok
        assert any("canonical" in p for p in result.problems)

    def test_stamp_amount_edit_detected(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        assert verify_integrity(unit, directory).ok
        node = unit.lineage
        unit.lineage = replace(node, record=replace(node.record, amounts=(99,)))
        result = verify_integrity(unit, directory)
        assert not result.ok
        assert any("stamp 0" in p for p in result.problems)

    def test_value_edit_detected(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        unit.value = 1_000_000
        assert not verify_integrity(unit, directory).ok

    def test_wholesale_resigning_with_adversary_key_detected(self, world):
        # swap the policy and re-sign everything with a registered key the
        # adversary controls; every signature is self-consistent but the
        # signers are not the registry/issuer, so it is still a tamper
        directory, registry, bank = world
        mallory = directory.create("mallory", random.Random(66))
        unit = mint(bank, 100, "SIM", pol.compile_policy(SALES_TAX), registry)
        swapped = pol.compile_policy("")  # drop the tax rule entirely
        unit.policy = swapped
        body = origin_body(unit.id, unit.value, "SIM", None, swapped.text_hash)
        origin = Origin("SIM", None, swapped.text_hash, directory.sign("mallory", body))
        forged = None
        for record in unit.provenance:
            resigned = replace(record, parties=("mallory",))
            forged = LineageNode(
                resigned,
                directory.sign("mallory", resigned.line().encode()),
                directory.sign("mallory", resigned.body().encode()),
                (forged,) if forged else (),
                origin=origin,
            )
        unit.lineage = forged
        result = verify_integrity(unit, directory)
        assert not result.ok
        assert any("unexpected key" in p for p in result.problems)

    def test_lineage_grafted_from_another_unit_detected(self, world):
        # bob puts the node of u's transfer to him on top of v, which he never got
        directory, registry, bank = world
        u = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        v = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        transfer(u, "bob", ctx_for(u, now=1), registry)
        v.lineage = replace(u.lineage, parents=(v.lineage,))
        v.owner = "bob"
        result = verify_integrity(v, directory)
        assert "provenance is another unit's" in result.problems
        assert "stamp 1 parents are not the units the record consumed" in result.problems
        assert registry.owner_of(v.id) == "central"

    def test_lineage_reparented_onto_another_unit_detected(self, world):
        directory, registry, bank = world
        u = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        v = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        transfer(v, "alice", ctx_for(v, now=1), registry)
        v.lineage = replace(v.lineage, parents=(u.lineage,))
        result = verify_integrity(v, directory)
        assert result.problems == ("stamp 1 parents are not the units the record consumed",)


def _edit_root_origin(edit):
    """Give a split child's root the origin `edit(origin, directory)` returns."""

    def apply(unit, directory):
        head = unit.lineage
        [root] = head.parents
        forged = replace(root, origin=edit(root.origin, directory))
        unit.lineage = replace(head, parents=(forged,))

    return apply


def _flip_origin_sig(origin, _directory):
    return replace(origin, sig=origin.sig._replace(mac=origin.sig.mac ^ 1))


def _resign_origin_by_mallory(origin, directory):
    directory.create("mallory", random.Random(66))
    return replace(origin, sig=directory.sign("mallory", b"whatever mallory likes"))


def _edit_policy_text(unit, _directory):
    program = unit.policy
    edited = program.source_canonical.replace("1/5", "1/9")
    unit.policy = pol.PolicyProgram(program.rules, edited)


def _edit_head_record(**fields):
    def edit(unit, _directory):
        unit.lineage = replace(unit.lineage, record=replace(unit.lineage.record, **fields))

    return edit


def _take_twin_id(unit, _directory):
    """Give a split child the id of the other child of its SPLIT."""
    [twin] = [made for made in unit.lineage.made if made[0] != unit.id]
    unit.id = twin[0]


class TestVerifyOnce:
    """A warm verification cache on a lineage node never hides a later edit."""

    def test_tamper_after_a_warm_check_detected(self):
        sim = Simulation(seed=3)
        sim.add_host("central", Role.CENTRAL_BANK, "HOME")
        sim.add_host("alice", Role.CONSUMER, "HOME")
        sim.add_host("tax_authority", Role.TAX_AUTHORITY, "HOME")
        sim.policies["taxed"] = pol.compile_policy(SALES_TAX)
        sim.schedule_script(0, ("ISSUE", "central", "alice", "100", "taxed"))
        sim.run_until(1)
        [unit] = sim.active_units_of("alice")
        assert verify_integrity(unit, sim.directory).ok
        sim.act_tamper("alice")
        result = verify_integrity(unit, sim.directory)
        assert "policy text hash mismatch" in result.problems
        sim.run_until(2)
        assert unit.state is UnitState.ZEROISED

    @pytest.mark.parametrize(
        "attr, forged, problem",
        [
            ("value", 1_000_000, "provenance does not reproduce owner/value"),
            ("owner", "alice", "provenance does not reproduce owner/value"),
        ],
    )
    def test_unit_edit_after_a_warm_check_detected(self, world, attr, forged, problem):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.compile_policy(SALES_TAX), registry)
        assert verify_integrity(unit, directory).ok
        setattr(unit, attr, forged)
        result = verify_integrity(unit, directory)
        assert problem in result.problems

    def test_lineage_verified_under_one_directory_not_trusted_by_another(self, world):
        directory, registry, bank = world
        unit = mint(bank, 1000, "SIM", pol.compile_policy(SALES_TAX), registry)
        received = transfer(unit, "bob", ctx_for(unit, category="sale", now=1), registry).received
        assert verify_integrity(received, directory).ok
        # the same key ids under other secrets
        other = KeyDirectory()
        rng = random.Random(7)
        for key_id in ("registry", "central", "alice", "bob", "tax_authority"):
            other.create(key_id, rng)
        result = verify_integrity(received, other)
        assert "stamp 0 endorsement mismatch" in result.problems
        assert verify_integrity(received, directory).ok

    def test_tampered_ancestor_detected_on_every_check(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        transfer(unit, "alice", ctx_for(unit, now=1), registry)
        assert verify_integrity(unit, directory).ok
        head = unit.lineage
        [root] = head.parents
        forged_root = replace(root, record=replace(root.record, amounts=(99,)))
        unit.lineage = replace(head, parents=(forged_root,))
        for _ in range(2):
            result = verify_integrity(unit, directory)
            assert "stamp 0 endorsement mismatch" in result.problems

    def test_split_twin_reuses_its_record_check(self, world, monkeypatch):
        directory, registry, bank = world
        carved, rest = split(mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry), 40, registry, at=1)
        assert verify_integrity(carved, directory).ok
        checked = []
        verify = KeyDirectory.verify
        monkeypatch.setattr(
            KeyDirectory,
            "verify",
            lambda self, key_id, msg, sig: checked.append(key_id) or verify(self, key_id, msg, sig),
        )
        assert verify_integrity(rest, directory).ok
        # the twins share the SPLIT's node, trusted since its birth
        assert rest.lineage is carved.lineage
        assert checked == []

    @pytest.mark.parametrize("attr", ["sig", "sender_sig"])
    def test_forged_split_twin_detected_after_a_warm_check(self, world, attr):
        directory, registry, bank = world
        carved, rest = split(mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry), 40, registry, at=1)
        assert verify_integrity(carved, directory).ok
        node = rest.lineage
        genuine = getattr(node, attr)
        rest.lineage = replace(node, **{attr: genuine._replace(mac=genuine.mac ^ 1)})
        problem = "endorsement mismatch" if attr == "sig" else "sender signature mismatch"
        assert f"stamp 1 {problem}" in verify_integrity(rest, directory).problems
        # an equal copy of the genuine signature is checked again, and passes
        rest.lineage = replace(node, **{attr: genuine._replace()})
        assert verify_integrity(rest, directory).ok

    def test_verified_unit_deep_copies(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        assert verify_integrity(unit, directory).ok
        clone = replace(unit)  # a copy shares the immutable lineage
        assert clone.lineage is unit.lineage
        assert verify_integrity(clone, directory).ok
        clone.value = 1_000_000
        problem = "provenance does not reproduce owner/value"
        assert problem in verify_integrity(clone, directory).problems
        assert verify_integrity(unit, directory).ok

    def test_split_merge_cycles_grow_lineage_linearly(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        for tick in range(1, 21):
            unit = merge(*split(unit, 40, registry, at=tick), registry, at=tick)
        seen, todo = set(), [unit.lineage]
        while todo:
            node = todo.pop()
            if node not in seen:
                seen.add(node)
                todo.extend(node.parents)
        # one node per record: a SPLIT's two children share theirs
        assert len(seen) <= len(registry.records)
        assert len(unit.provenance) <= len(registry.records)
        assert verify_integrity(unit, directory).ok

        checked = []
        verify = directory.verify
        directory.verify = lambda *args: checked.append(args[0]) or verify(*args)
        assert verify_integrity(unit, directory).ok
        assert checked == []  # nothing changed since the last sound check

    def test_merged_split_twins_count_their_split_once(self, world):
        directory, registry, bank = world
        carved, rest = split(mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry), 40, registry, at=1)
        assert carved.lineage is rest.lineage
        merged = merge(carved, rest, registry, at=2)
        # MINT, SPLIT and MERGE, each once
        assert len(merged.provenance) == len(registry.records) == 3
        assert verify_integrity(merged, directory).ok

    @pytest.mark.parametrize(
        "edit, problem",
        [
            (_edit_root_origin(_flip_origin_sig), "stamp 0 birth signature mismatch"),
            (
                _edit_root_origin(_resign_origin_by_mallory),
                "stamp 0 birth signature by unexpected key",
            ),
            (_edit_root_origin(lambda origin, _: None), "stamp 0 no birth signature"),
            (
                _edit_root_origin(lambda origin, _: replace(origin, currency="GOLD")),
                "stamp 0 birth signature mismatch",
            ),
            (
                _edit_root_origin(lambda origin, _: replace(origin, home="ELSEWHERE")),
                "stamp 0 birth signature mismatch",
            ),
            (
                _edit_root_origin(
                    lambda origin, _: replace(origin, policy_hash=origin.policy_hash ^ 1)
                ),
                "policy text hash mismatch",
            ),
            (lambda unit, _: setattr(unit, "id", "u999"), "provenance is another unit's"),
            (_edit_head_record(at=2), "stamp 1 endorsement mismatch"),
            (_edit_policy_text, "policy text hash mismatch"),
            (_take_twin_id, "provenance does not reproduce owner/value"),
            (_edit_head_record(amounts=()), "stamp 1 record makes no unit"),
        ],
        ids=[
            "mint_sig",
            "origin_signer",
            "origin_dropped",
            "currency",
            "home",
            "policy_hash",
            "id",
            "lineage",
            "policy",
            "twin_id",
            "malformed_record",
        ],
    )
    def test_one_field_edit_after_a_warm_check_detected(self, world, edit, problem):
        directory, registry, bank = world
        parent = mint(bank, 100, "SIM", pol.compile_policy(SALES_TAX), registry)
        unit, _ = split(parent, 40, registry, at=1)
        assert verify_integrity(unit, directory).ok
        assert verify_integrity(unit, directory).ok
        edit(unit, directory)
        for _ in range(2):
            result = verify_integrity(unit, directory)
            assert problem in result.problems

    def test_revived_unit_after_a_warm_check_detected(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        zeroise(unit, "tamper", registry, at=1)
        # a spent unit's lineage head is no longer checked against its value
        assert verify_integrity(unit, directory).ok
        unit.state = UnitState.ACTIVE
        problem = "provenance does not reproduce owner/value"
        assert problem in verify_integrity(unit, directory).problems

    def test_other_directory_or_registry_key_checked_afresh(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.compile_policy(SALES_TAX), registry)
        assert verify_integrity(unit, directory).ok
        # the same key ids under other secrets
        other = KeyDirectory()
        rng = random.Random(7)
        for key_id in ("registry", "central", "alice", "bob", "tax_authority"):
            other.create(key_id, rng)
        assert "stamp 0 birth signature mismatch" in verify_integrity(unit, other).problems
        assert verify_integrity(unit, directory).ok
        # a trusted node whose endorsement signer is no longer REGISTRY_KEY
        # is not trusted any more
        head = unit.lineage
        object.__setattr__(head, "sig", head.sig._replace(signer="notary"))
        assert "stamp 0 endorsement by unexpected key" in verify_integrity(unit, directory).problems


@pytest.fixture
def macs(monkeypatch):
    """Every `KeyDirectory.sign` and `verify` call, as ("sign" or "verify", key id)."""
    calls = []
    sign, verify = KeyDirectory.sign, KeyDirectory.verify

    def counted_sign(self, key_id, msg):
        calls.append(("sign", key_id))
        return sign(self, key_id, msg)

    def counted_verify(self, key_id, msg, sig):
        calls.append(("verify", key_id))
        return verify(self, key_id, msg, sig)

    monkeypatch.setattr(KeyDirectory, "sign", counted_sign)
    monkeypatch.setattr(KeyDirectory, "verify", counted_verify)
    return calls


class TestBornTrusted:
    """A node made from the registry's own endorsement needs no MAC to check."""

    ENDORSED = [("sign", "central"), ("verify", "central"), ("sign", "registry")]

    def test_mint_costs_its_endorsement_and_origin_and_checks_free(self, world, macs):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.compile_policy(SALES_TAX), registry)
        assert macs == self.ENDORSED + [("sign", "central")]
        macs.clear()
        assert verify_integrity(unit, directory).ok
        assert macs == []

    @pytest.mark.parametrize("operation", ["split", "merge", "transfer"])
    def test_operation_costs_its_endorsement_and_checks_free(self, world, macs, operation):
        directory, registry, bank = world
        carved, rest = split(mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry), 40, registry, at=1)
        macs.clear()
        made = {
            "split": lambda: split(carved, 10, registry, at=2),
            "merge": lambda: (merge(carved, rest, registry, at=2),),
            "transfer": lambda: (transfer(carved, "bob", ctx_for(carved, now=2), registry).received,),
        }[operation]()
        assert macs == self.ENDORSED
        macs.clear()
        for unit in made:
            assert verify_integrity(unit, directory).ok
        assert macs == []

    def test_grafted_lineage_is_not_trusted_at_birth(self, world):
        directory, registry, bank = world
        a = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        b = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        a.lineage = b.lineage
        carved, _ = split(a, 40, registry, at=1)
        result = verify_integrity(carved, directory)
        assert "stamp 1 parents are not the units the record consumed" in result.problems

    def test_forged_parent_is_not_trusted_at_birth(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        node = unit.lineage
        unit.lineage = replace(node, sig=node.sig._replace(mac=node.sig.mac ^ 1))
        carved, _ = split(unit, 40, registry, at=1)
        assert "stamp 0 endorsement mismatch" in verify_integrity(carved, directory).problems


# (class, field) for every field of the values each lifecycle step builds
VALUE_FIELDS = [
    (cls.__name__, f.name) for cls in (LedgerRecord, LineageNode) for f in dataclasses.fields(cls)
] + [(cls.__name__, name) for cls in (Signature, pol.EvalContext) for name in cls._fields]


class TestHotPathValues:
    """The values every lifecycle step builds stay immutable; a replaced node is built afresh."""

    @pytest.mark.parametrize("cls, name", VALUE_FIELDS)
    def test_assigning_any_field_raises(self, world, cls, name):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        node = unit.lineage
        value = {
            "LedgerRecord": node.record,
            "LineageNode": node,
            "Signature": node.sig,
            "EvalContext": ctx_for(unit),
        }[cls]
        current = getattr(value, name)  # set by the constructor, so readable
        with pytest.raises(AttributeError):
            setattr(value, name, current)

    def test_a_lifecycle_hashes_no_enum_member(self, world, monkeypatch):
        # record kinds and events are looked up by their str `_value_`, so no
        # commit or evaluation runs Enum.__hash__ in Python
        directory, registry, bank = world
        policy = pol.compile_policy(SALES_TAX)
        unit = mint(bank, 100, "SIM", policy, registry)
        pol.evaluate(policy, pol.EventKind.TICK, ctx_for(unit))  # builds the policy's tables
        hashed = []
        enum_hash = Enum.__hash__
        monkeypatch.setattr(Enum, "__hash__", lambda m: hashed.append(m) or enum_hash(m))
        outcome = transfer(unit, "alice", ctx_for(unit, "sale"), registry)
        carved, rest = split(outcome.received, 30, registry, at=1)
        zeroise(merge(carved, rest, registry, at=2), "test", registry, at=3)
        assert verify_integrity(outcome.payments[0][1], directory)
        monkeypatch.undo()
        assert [payee for payee, _ in outcome.payments] == ["tax_authority"]
        assert hashed == []

    def test_replaced_node_is_untrusted_and_follows_its_record_and_parents(self, world):
        directory, registry, bank = world
        silver = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        gold = mint(bank, 100, "GOLD", pol.EMPTY_POLICY, registry)
        carved, rest = split(silver, 40, registry, at=1)
        node = carved.lineage
        assert node.verified_by is directory
        assert node.made == ((carved.id, "central", 40), (rest.id, "central", 60))
        node.record.body()  # fill the cache a replaced record must not carry over
        record = replace(node.record, amounts=(100, 30, 70), parties=("alice",))
        assert "|100,30,70|alice|" in record.body()
        edited = replace(node, record=record, parents=(gold.lineage,))
        assert edited.verified_by is None
        assert edited.made == ((carved.id, "alice", 30), (rest.id, "alice", 70))
        assert edited.origin is gold.lineage.origin != node.origin
        # untrusted, so checked in full: gold's MINT made no unit the record consumed
        carved.lineage = edited
        problems = verify_integrity(carved, directory).problems
        assert "stamp 1 parents are not the units the record consumed" in problems


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.scn")))
def test_shipped_scenario_computes_no_lineage_mac(monkeypatch, name):
    checked = []
    mac_faults = money._mac_faults
    monkeypatch.setattr(
        money, "_mac_faults", lambda node, directory: checked.append(node) or mac_faults(node, directory)
    )
    sim = run_scenario(load_scenario(str(SCENARIO_DIR / name)), seed=7)
    assert sim.registry.records
    assert checked == []


class TestUnknownKey:
    """A lineage naming a key the directory does not know is a tamper, not a crash."""

    def test_unknown_requester(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        node = unit.lineage
        unit.lineage = replace(
            node,
            record=replace(node.record, parties=("nobody",)),
            sender_sig=Signature("nobody", 1),
        )
        result = verify_integrity(unit, directory)
        assert "stamp 0 sender signature key 'nobody' unknown" in result.problems

    def test_unknown_origin_signer(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        node = unit.lineage
        unit.lineage = replace(
            node,
            record=replace(node.record, parties=("nobody",)),
            sender_sig=Signature("nobody", 1),
            origin=replace(node.origin, sig=Signature("nobody", 2)),
        )
        result = verify_integrity(unit, directory)
        assert "stamp 0 birth signature key 'nobody' unknown" in result.problems

    def test_directory_without_the_registry_key(self, world):
        _, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        other = KeyDirectory()
        other.create("central", random.Random(7))
        result = verify_integrity(unit, other)
        assert "stamp 0 endorsement key 'registry' unknown" in result.problems


class TestZeroise:
    def test_zeroise_contract(self, world):
        _, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        zeroise(unit, "tamper", registry, at=1)
        assert unit.state is UnitState.ZEROISED
        assert unit.value == 0
        assert registry.fold.burned == 100
        assert registry.fold.minted - registry.fold.burned == registry.live_supply

    def test_zeroise_twice_rejected(self, world):
        _, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        zeroise(unit, "tamper", registry, at=1)
        with pytest.raises(NotActive):
            zeroise(unit, "tamper", registry, at=2)

    def test_expiry_reason_sets_expired_state(self, world):
        _, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        zeroise(unit, "expiry", registry, at=11)
        assert unit.state is UnitState.EXPIRED

    def test_tamper_notify_obligation_emitted(self):
        # zeroise only burns; the simulation, which knows why, sends the notices
        sim = Simulation(seed=1)
        sim.add_host("central", Role.CENTRAL_BANK, "HOME")
        sim.add_host("government", Role.LAW_SERVER, "HOME")
        sim.policies["p"] = pol.compile_policy('OBLIGATION ON TAMPER DO NOTIFY "government";')
        sim.schedule_script(0, ("MINT", "central", "100", "p"))
        sim.schedule_script(1, ("TAMPER", "central"))
        sim.run_until(2)
        unit_id = sim.registry.records[0].unit_ids[0]
        assert "1|central|notify|target=government" in sim.observations
        assert (
            f"2|government|message|sender=central body=zeroise unit={unit_id} "
            "reason=tamper value=100"
        ) in sim.observations

    def test_burn_recorded_with_reason(self, world):
        _, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        zeroise(unit, "jurisdiction", registry, at=1)
        burn = registry.records[-1]
        assert burn.reason == "jurisdiction"
        assert burn.amounts == (100,)
