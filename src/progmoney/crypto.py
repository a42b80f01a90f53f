"""Deterministic hashing, keyed signatures, and location attestations.

Two 64-bit functions with different jobs:

- `h64` is FNV-1a-64, the content digest of policy text (`policy_hash`).  It
  takes no key and is not a MAC: its output is its whole state, so anyone
  holding a digest can extend it.
- `KeyDirectory.sign`/`verify` compute keyed BLAKE2b-64 (RFC 7693 keyed
  mode) as the MAC, resolved through an in-simulation key directory:
  `key_id` plays the role of a public key, and the trusted directory holds
  the signing secret.  The signer/verifier interface is the contract, so a
  real public-key scheme can replace this one without touching any caller.

Byte serialization convention for every signed payload in the system:
fields joined with "|" (0x7C), integers as ASCII decimal, digests as
exactly 16 lowercase hex characters.
"""

from __future__ import annotations

import hashlib
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


@dataclass(frozen=True, slots=True)
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
    """Trusted map key_id -> keyed MAC, append-only after simulation setup."""

    def __init__(self) -> None:
        # one keyed BLAKE2b state per key; sign and verify copy it
        self._macs: dict[str, hashlib.blake2b] = {}

    def register(self, key_id: str, secret: bytes) -> KeyPair:
        if key_id in self._macs:
            raise ValueError(f"key_id already registered: {key_id}")
        self._macs[key_id] = hashlib.blake2b(digest_size=8, key=secret)
        return KeyPair(key_id, secret)

    def create(self, key_id: str, rng) -> KeyPair:
        """Register a fresh keypair with a 16-byte secret drawn from `rng`."""
        return self.register(key_id, rng.randbytes(16))

    def knows(self, key_id: str) -> bool:
        return key_id in self._macs

    def _mac(self, key_id: str, msg: bytes) -> int:
        try:
            hasher = self._macs[key_id].copy()
        except KeyError:
            raise UnknownKey(key_id) from None
        hasher.update(msg)
        return int.from_bytes(hasher.digest(), "big")

    def sign(self, key_id: str, msg: bytes) -> Signature:
        return Signature(key_id, self._mac(key_id, msg))

    def verify(self, key_id: str, msg: bytes, sig: Signature) -> bool:
        if sig.signer != key_id:
            return False
        return self._mac(key_id, msg) == sig.mac


def attest_location(
    directory: KeyDirectory, authority: str, host: str, location: str, at: int
) -> Attestation:
    body = f"{host}|{location}|{at}".encode()
    return Attestation(authority, host, location, at, directory.sign(authority, body))


def verify_attestation(directory: KeyDirectory, att: Attestation) -> bool:
    if att.sig.signer != att.authority:
        return False
    return directory.verify(att.authority, att.body(), att.sig)
