"""Deterministic hashing, keyed signatures, and location attestations.

The reference scheme is a keyed 64-bit hash resolved through an in-simulation
key directory: `key_id` plays the role of a public key, and a trusted
directory maps it to the signing secret.  The signer/verifier interface is
the contract, so a real public-key scheme can replace this one without
touching any caller.

Byte serialization convention for every signed payload in the system:
fields joined with "|" (0x7C), integers as ASCII decimal, digests as
exactly 16 lowercase hex characters.
"""

from __future__ import annotations

from dataclasses import dataclass

FNV_OFFSET_BASIS = 14695981039346656037
FNV_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1


class UnknownKey(KeyError):
    """A key_id that the directory cannot resolve."""


def h64(data: bytes) -> int:
    """FNV-1a over `data`, folded into 64 bits."""
    h = FNV_OFFSET_BASIS
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _MASK64
    return h


def digest_hex(value: int) -> str:
    """Render a 64-bit digest as exactly 16 lowercase hex characters."""
    return f"{value & _MASK64:016x}"


@dataclass(frozen=True)
class KeyPair:
    key_id: str
    secret: bytes


@dataclass(frozen=True)
class Signature:
    signer: str
    mac: int

    def __str__(self) -> str:
        return f"{self.signer}:{digest_hex(self.mac)}"


@dataclass(frozen=True)
class Attestation:
    """A location authority's signed statement binding a host to a place.

    The signature covers "host|location|at" only; freshness relative to the
    current tick is the consumer's check.
    """

    authority: str
    host: str
    location: str
    at: int
    sig: Signature

    def body(self) -> bytes:
        return f"{self.host}|{self.location}|{self.at}".encode()


class KeyDirectory:
    """Trusted map key_id -> secret, append-only after simulation setup."""

    def __init__(self) -> None:
        self._secrets: dict[str, bytes] = {}

    def register(self, key_id: str, secret: bytes) -> KeyPair:
        if key_id in self._secrets:
            raise ValueError(f"key_id already registered: {key_id}")
        self._secrets[key_id] = secret
        return KeyPair(key_id, secret)

    def create(self, key_id: str, rng) -> KeyPair:
        """Register a fresh keypair with a 16-byte secret drawn from `rng`."""
        return self.register(key_id, rng.randbytes(16))

    def knows(self, key_id: str) -> bool:
        return key_id in self._secrets

    def _secret(self, key_id: str) -> bytes:
        try:
            return self._secrets[key_id]
        except KeyError:
            raise UnknownKey(key_id) from None

    def sign(self, key_id: str, msg: bytes) -> Signature:
        # 0x00 between secret and message prevents extension ambiguity.
        return Signature(key_id, h64(self._secret(key_id) + b"\x00" + msg))

    def verify(self, key_id: str, msg: bytes, sig: Signature) -> bool:
        if sig.signer != key_id:
            return False
        return self.sign(key_id, msg).mac == sig.mac


def attest_location(
    directory: KeyDirectory, authority: str, host: str, location: str, at: int
) -> Attestation:
    body = f"{host}|{location}|{at}".encode()
    return Attestation(authority, host, location, at, directory.sign(authority, body))


def verify_attestation(directory: KeyDirectory, att: Attestation) -> bool:
    if att.sig.signer != att.authority:
        return False
    return directory.verify(att.authority, att.body(), att.sig)
