"""MoneyUnit lifecycle: mint, split, merge, transfer, integrity, zeroise."""

import copy
import random
from dataclasses import replace

import pytest

from progmoney import policy as pol
from progmoney.crypto import KeyDirectory
from progmoney.money import (
    InvalidAmount,
    InvalidPolicy,
    LineageNode,
    MixedOwner,
    MixedPolicy,
    NotActive,
    ObligationUnpayable,
    PolicyForbids,
    TransferStamp,
    UnitState,
    mint,
    merge,
    split,
    transfer,
    verify_integrity,
    zeroise,
)
from progmoney.registry import DoubleSpend, RecordKind, Registry, UnauthorizedIssuer
from progmoney.sim import Simulation
from progmoney.sim_types import Role

SALES_TAX = 'OBLIGATION ON RECEIVE IF category == "sale" DO PAY 1/5 TO "tax_authority";'
WEAPONS_BAN = (
    'PROHIBITION ON TRANSFER_REQUEST IF category == "weapons" AND licence == NONE;'
)


@pytest.fixture
def world():
    rng = random.Random(42)
    directory = KeyDirectory()
    registry = Registry(directory, "registry", rng=rng)
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
        expiry=unit.expiry,
        licence=licence,
        home=unit.home,
    )


class TestMint:
    def test_mint_contract(self, world):
        directory, registry, bank = world
        unit = mint(bank, 10_000, "SIM", pol.EMPTY_POLICY, registry, at=0)
        assert unit.state is UnitState.ACTIVE
        assert registry.live_units()[unit.id] == ("central", 10_000)
        assert unit.policy_hash == pol.EMPTY_POLICY.content_hash
        assert verify_integrity(unit, directory).ok

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
        stamp = unit.provenance[0]
        assert (stamp.frm, stamp.to, stamp.amount, stamp.at) == (
            "central",
            "central",
            500,
            3,
        )


class TestSplit:
    def test_split_conserves(self, world):
        _, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        a, b = split(unit, 40, registry, at=1)
        assert (a.value, b.value) == (40, 60)
        assert a.value + b.value == 100
        assert a.owner == b.owner == "central"
        assert a.policy_hash == b.policy_hash == unit.policy_hash
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
            assert child.provenance[-1].to == child.owner
            assert child.provenance[-1].amount == child.value


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
        transfer(b, "alice", ctx_for(b), registry, at=1)
        with pytest.raises(MixedOwner):
            merge(a, b, registry, at=2)

    def test_merge_same_object_twice(self, world):
        _, registry, bank = world
        a = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        with pytest.raises(DoubleSpend):
            merge(a, a, registry, at=1)

    def test_merge_takes_earlier_expiry(self, world):
        _, registry, bank = world
        a = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry, expiry=50)
        b = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry, expiry=30)
        merged = merge(a, b, registry, at=1)
        assert merged.expiry == 30


class TestTransfer:
    def test_sales_tax_walkthrough(self, world):
        # a 1000 purchase at rate 1/5: vendor nets 800, tax authority 200
        directory, registry, bank = world
        unit = mint(bank, 1000, "SIM", pol.compile_policy(SALES_TAX), registry)
        outcome = transfer(unit, "bob", ctx_for(unit, category="sale"), registry, at=1)
        assert outcome.received is not None
        assert outcome.received.value == 800
        assert outcome.received.owner == "bob"
        assert outcome.payments[0][0] == "tax_authority"
        assert outcome.payments[0][1].value == 200
        assert registry.owner_of(outcome.payments[0][1].id) == "tax_authority"
        assert registry.total_minted - registry.total_burned == registry.live_supply

    def test_prohibition_veto_leaves_no_trace(self, world):
        _, registry, bank = world
        unit = mint(bank, 500, "SIM", pol.compile_policy(WEAPONS_BAN), registry)
        records_before = len(registry.records)
        with pytest.raises(PolicyForbids):
            transfer(unit, "bob", ctx_for(unit, category="weapons"), registry, at=1)
        assert len(registry.records) == records_before
        assert registry.owner_of(unit.id) == "central"

    def test_ctx_amount_must_match(self, world):
        _, registry, bank = world
        unit = mint(bank, 500, "SIM", pol.EMPTY_POLICY, registry)
        with pytest.raises(InvalidAmount):
            transfer(unit, "bob", pol.EvalContext(amount=400), registry, at=1)

    def test_stale_unit_double_spend(self, world):
        _, registry, bank = world
        unit = mint(bank, 500, "SIM", pol.EMPTY_POLICY, registry)
        stale = copy.deepcopy(unit)
        transfer(unit, "alice", ctx_for(unit), registry, at=1)
        transferred = copy.deepcopy(unit)
        transferred.owner = "central"  # pretend the first transfer never happened
        with pytest.raises(DoubleSpend):
            transfer(transferred, "bob", ctx_for(stale), registry, at=2)

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
            registry.live_units(),
            registry.total_minted,
            registry.total_burned,
        )
        with pytest.raises(ObligationUnpayable):
            transfer(unit, "bob", ctx_for(unit), registry, at=1)
        assert snapshot == (
            len(registry.records),
            registry.live_units(),
            registry.total_minted,
            registry.total_burned,
        )

    def test_pay_consuming_everything(self, world):
        _, registry, bank = world
        all_tax = pol.compile_policy(
            'OBLIGATION ON RECEIVE IF category == "sale" DO PAY 1/1 TO "tax_authority";'
        )
        unit = mint(bank, 100, "SIM", all_tax, registry)
        outcome = transfer(unit, "bob", ctx_for(unit, category="sale"), registry, at=1)
        assert outcome.received is None
        assert outcome.payments[0][1].value == 100

    def test_obligation_payment_does_not_recurse(self, world):
        # the tax payment itself is a transfer but must not trigger the tax rule
        _, registry, bank = world
        unit = mint(bank, 1000, "SIM", pol.compile_policy(SALES_TAX), registry)
        outcome = transfer(unit, "bob", ctx_for(unit, category="sale"), registry, at=1)
        tax_unit = outcome.payments[0][1]
        assert tax_unit.value == 200
        # exactly one payment, no tax-on-tax chain
        assert len(outcome.payments) == 1

    def test_notify_obligations_collected(self, world):
        _, registry, bank = world
        noisy = pol.compile_policy(
            'OBLIGATION ON TRANSFER_REQUEST DO NOTIFY "watcher";\n'
            'OBLIGATION ON RECEIVE DO NOTIFY "auditor";'
        )
        unit = mint(bank, 10, "SIM", noisy, registry)
        outcome = transfer(unit, "alice", ctx_for(unit), registry, at=1)
        targets = [t for t, _ in outcome.notifications]
        assert targets == ["watcher", "auditor"]

    def test_full_provenance_replay(self, world):
        directory, registry, bank = world
        unit = mint(bank, 1000, "SIM", pol.compile_policy(SALES_TAX), registry)
        outcome = transfer(unit, "bob", ctx_for(unit, category="sale"), registry, at=1)
        for current in outcome.all_units():
            assert verify_integrity(current, directory).ok
            assert current.provenance[-1].to == current.owner
            assert current.provenance[-1].amount == current.value


class TestIntegrity:
    def test_untouched_unit_ok(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.compile_policy(SALES_TAX), registry)
        assert verify_integrity(unit, directory).ok

    def test_policy_text_flip_detected(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.compile_policy(SALES_TAX), registry)
        source = unit.policy.program.source_canonical
        mutated = source[:5] + ("X" if source[5] != "X" else "Y") + source[6:]
        unit.policy = pol.CheckedPolicy(
            pol.PolicyProgram(unit.policy.rules, mutated, unit.policy.content_hash)
        )
        result = verify_integrity(unit, directory)
        assert not result.ok
        assert any("hash" in p for p in result.problems)

    def test_ast_mutation_detected(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.compile_policy(SALES_TAX), registry)
        sneaky = pol.parse('OBLIGATION ON RECEIVE DO PAY 0/1 TO "nobody";')
        unit.policy = pol.CheckedPolicy(
            pol.PolicyProgram(
                sneaky.rules,
                unit.policy.program.source_canonical,
                unit.policy.content_hash,
            )
        )
        result = verify_integrity(unit, directory)
        assert not result.ok
        assert any("canonical" in p for p in result.problems)

    def test_stamp_amount_edit_detected(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        assert verify_integrity(unit, directory).ok
        node = unit.lineage
        unit.lineage = LineageNode(replace(node.stamp, amount=99), node.parents)
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
        unit.policy_hash = swapped.content_hash
        unit.mint_sig = directory.sign("mallory", unit.birth_body())
        forged = None
        for stamp in unit.provenance:
            resigned = TransferStamp(
                frm="mallory",
                to=unit.owner,
                amount=unit.value,
                at=stamp.at,
                endorsement=directory.sign("mallory", stamp.body()),
                sender_sig=directory.sign("mallory", stamp.body()),
            )
            forged = LineageNode(resigned, (forged,) if forged else ())
        unit.lineage = forged
        result = verify_integrity(unit, directory)
        assert not result.ok
        assert any("unexpected key" in p for p in result.problems)


class TestVerifyOnce:
    """A warm verification cache never hides a later edit."""

    def test_tamper_after_a_warm_check_detected(self):
        sim = Simulation(seed=3)
        sim.add_host("central", Role.CENTRAL_BANK, "HOME")
        sim.add_host("alice", Role.CONSUMER, "HOME")
        sim.add_policy("taxed", SALES_TAX)
        sim.schedule_script(0, ("ISSUE", "central", "alice", "100", "taxed"))
        sim.run_until(1)
        [unit] = sim.active_units_of("alice")
        assert verify_integrity(unit, sim.directory, sim.registry.key_id).ok
        sim.act_tamper("alice")
        result = verify_integrity(unit, sim.directory, sim.registry.key_id)
        assert "policy text hash mismatch" in result.problems
        sim.run_until(2)
        assert unit.state is UnitState.ZEROISED

    @pytest.mark.parametrize(
        "attr, forged, problem",
        [
            ("value", 1_000_000, "birth signature mismatch"),
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
        received = transfer(unit, "bob", ctx_for(unit, category="sale"), registry, at=1).received
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
        transfer(unit, "alice", ctx_for(unit), registry, at=1)
        assert verify_integrity(unit, directory).ok
        head = unit.lineage
        [root] = head.parents
        forged_root = LineageNode(replace(root.stamp, amount=99))
        unit.lineage = LineageNode(head.stamp, (forged_root,))
        for _ in range(2):
            result = verify_integrity(unit, directory)
            assert "stamp 0 endorsement mismatch" in result.problems

    def test_verified_unit_deep_copies(self, world):
        directory, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        assert verify_integrity(unit, directory).ok
        clone = copy.deepcopy(unit)
        assert clone.lineage is unit.lineage
        assert verify_integrity(clone, directory).ok

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
        # a SPLIT is one record but gives each of its two children a stamp
        splits = sum(record.kind is RecordKind.SPLIT for record in registry.records)
        bound = len(registry.records) + splits
        assert len(seen) <= bound
        assert len(unit.provenance) <= bound
        assert verify_integrity(unit, directory).ok

        checked = []
        verify = directory.verify
        directory.verify = lambda *args: checked.append(args[0]) or verify(*args)
        assert verify_integrity(unit, directory).ok
        assert checked == ["registry"]  # the birth signature only


class TestZeroise:
    def test_zeroise_contract(self, world):
        _, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        zeroise(unit, "tamper", registry, at=1)
        assert unit.state is UnitState.ZEROISED
        assert unit.value == 0
        assert registry.total_burned == 100
        assert registry.total_minted - registry.total_burned == registry.live_supply

    def test_zeroise_twice_rejected(self, world):
        _, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        zeroise(unit, "tamper", registry, at=1)
        with pytest.raises(NotActive):
            zeroise(unit, "tamper", registry, at=2)

    def test_expiry_reason_sets_expired_state(self, world):
        _, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry, expiry=10)
        zeroise(unit, "expiry", registry, at=11)
        assert unit.state is UnitState.EXPIRED

    def test_tamper_notify_obligation_emitted(self, world):
        _, registry, bank = world
        policy = pol.compile_policy('OBLIGATION ON TAMPER DO NOTIFY "government";')
        unit = mint(bank, 100, "SIM", policy, registry)
        notes = zeroise(unit, "tamper", registry, at=1)
        assert [t for t, _ in notes] == ["government"]

    def test_burn_recorded_with_reason(self, world):
        _, registry, bank = world
        unit = mint(bank, 100, "SIM", pol.EMPTY_POLICY, registry)
        zeroise(unit, "jurisdiction", registry, at=1)
        burn = registry.records[-1]
        assert burn.reason == "jurisdiction"
        assert burn.amounts == (100,)
