"""Hashing, signatures, and attestations against an independent reference."""

import hashlib
import random

import pytest

from progmoney.crypto import (
    FNV_PRIME,
    Attestation,
    KeyDirectory,
    Signature,
    UnknownKey,
    attest_location,
    digest_hex,
    h64,
    verify_attestation,
)


def reference_h64(data: bytes) -> int:
    # written independently of crypto.h64: reduce-style fold
    import functools

    return functools.reduce(
        lambda h, b: ((h ^ b) * 1099511628211) % (1 << 64), data, 14695981039346656037
    )


# values frozen from a 3-line reference script run before the implementation
KNOWN_DIGESTS = {
    b"": 0xCBF29CE484222325,
    b"a": 0xAF63DC4C8601EC8C,
    b"ab": 0x089C4407B545986A,
    b"ba": 0x08A63307B54DD00C,
    b"hello": 0xA430D84680AABD0B,
}


@pytest.mark.parametrize("data,expected", sorted(KNOWN_DIGESTS.items()))
def test_h64_known_values(data, expected):
    assert h64(data) == expected


def test_h64_empty_is_offset_basis():
    assert h64(b"") == 14695981039346656037


def test_h64_order_sensitive():
    assert h64(b"ab") != h64(b"ba")


def test_h64_matches_reference_on_random_strings():
    rng = random.Random(99)
    for _ in range(1000):
        data = rng.randbytes(rng.randrange(0, 64))
        assert h64(data) == reference_h64(data)


def test_digest_hex_is_16_lowercase_chars():
    for value in (0, 1, 2**64 - 1, h64(b"x")):
        rendered = digest_hex(value)
        assert len(rendered) == 16
        assert rendered == rendered.lower()
        assert int(rendered, 16) == value % 2**64


class TestSignatures:
    def setup_method(self):
        self.rng = random.Random(7)
        self.directory = KeyDirectory()
        self.directory.create("alice", self.rng)
        self.directory.create("bob", self.rng)

    def test_sign_is_deterministic(self):
        msg = b"pay bob 100"
        assert self.directory.sign("alice", msg) == self.directory.sign("alice", msg)

    def test_round_trip(self):
        msg = b"hello world"
        sig = self.directory.sign("alice", msg)
        assert self.directory.verify("alice", msg, sig)

    def test_wrong_key_rejected(self):
        msg = b"hello world"
        sig = self.directory.sign("alice", msg)
        assert not self.directory.verify("bob", msg, sig)
        # the macs themselves differ, not just the signer label
        assert sig.mac != self.directory.sign("bob", msg).mac

    def test_flipped_message_byte_rejected(self):
        msg = bytearray(b"transfer 5000 to bob")
        sig = self.directory.sign("alice", bytes(msg))
        msg[3] ^= 0x01
        assert not self.directory.verify("alice", bytes(msg), sig)

    def test_flipped_mac_bit_rejected(self):
        msg = b"transfer 5000 to bob"
        sig = self.directory.sign("alice", msg)
        bad = Signature(sig.signer, sig.mac ^ 1)
        assert not self.directory.verify("alice", msg, bad)

    def test_unknown_keyable(self):
        with pytest.raises(UnknownKey):
            self.directory.sign("nobody", b"x")
        with pytest.raises(UnknownKey):
            self.directory.verify("nobody", b"x", Signature("nobody", 0))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            self.directory.register("alice", b"second")

    def test_round_trip_up_to_64k(self):
        rng = random.Random(5)
        for size in (0, 1, 255, 4096, 65536):
            msg = rng.randbytes(size)
            sig = self.directory.sign("alice", msg)
            assert self.directory.verify("alice", msg, sig)

    def test_single_bit_mutations_detected(self):
        # 10,000 random single-bit flips across message and mac; the 64-bit
        # digest must catch at least 99.9% of them
        rng = random.Random(11)
        detected = 0
        trials = 10_000
        for _ in range(trials):
            msg = bytearray(rng.randbytes(rng.randrange(1, 48)))
            sig = self.directory.sign("alice", bytes(msg))
            if rng.random() < 0.5:
                bit = rng.randrange(len(msg) * 8)
                msg[bit // 8] ^= 1 << (bit % 8)
                ok = self.directory.verify("alice", bytes(msg), sig)
            else:
                bad = Signature(sig.signer, sig.mac ^ (1 << rng.randrange(64)))
                ok = self.directory.verify("alice", bytes(msg), bad)
            if not ok:
                detected += 1
        assert detected >= trials * 0.999


    def test_length_extended_mac_rejected(self):
        # FNV-1a's 64-bit output is its whole state: continuing it over b"0"
        # from a MAC on "...|5" gives an FNV MAC on "...|50" without the key
        sig = self.directory.sign("alice", b"alice|bob|100|5")
        forged = ((sig.mac ^ ord("0")) * FNV_PRIME) % 2**64
        assert not self.directory.verify(
            "alice", b"alice|bob|100|50", Signature("alice", forged)
        )


def test_mac_matches_keyed_blake2b_reference():
    rng = random.Random(23)
    directory = KeyDirectory()
    for n in range(200):
        secret = rng.randbytes(rng.randrange(1, 65))
        directory.register(f"k{n}", secret)
        msg = rng.randbytes(rng.randrange(0, 128))
        expected = hashlib.blake2b(msg, key=secret, digest_size=8).digest()
        assert directory.sign(f"k{n}", msg).mac == int.from_bytes(expected, "big")


class TestAttestations:
    def setup_method(self):
        self.rng = random.Random(3)
        self.directory = KeyDirectory()
        self.directory.create("authority", self.rng)

    def test_fresh_attestation_verifies(self):
        att = attest_location(self.directory, "authority", "host1", "HOME", 5)
        assert verify_attestation(self.directory, att)

    def test_edited_location_rejected(self):
        att = attest_location(self.directory, "authority", "host1", "HOME", 5)
        forged = Attestation(att.authority, att.host, "PANAMA", att.at, att.sig)
        assert not verify_attestation(self.directory, forged)

    def test_replay_at_later_tick_still_verifies(self):
        # freshness is the consumer's check; the signature covers 'at'
        att = attest_location(self.directory, "authority", "host1", "HOME", 5)
        assert verify_attestation(self.directory, att)
        assert att.at == 5

    def test_unknown_authority(self):
        with pytest.raises(UnknownKey):
            attest_location(self.directory, "ghost", "host1", "HOME", 5)
