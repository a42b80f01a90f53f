"""Shared environment types: hosts, roles, and the law table."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Annotated, Optional

from .crypto import KeyPair


class Role(Enum):
    CONSUMER = "CONSUMER"
    VENDOR = "VENDOR"
    BANK = "BANK"
    CENTRAL_BANK = "CENTRAL_BANK"
    TAX_AUTHORITY = "TAX_AUTHORITY"
    LAW_SERVER = "LAW_SERVER"
    LOCATION_AUTHORITY = "LOCATION_AUTHORITY"
    ADVERSARY = "ADVERSARY"


@dataclass
class Host:
    id: str
    location: str
    keys: KeyPair
    role: Role
    licence: Optional[str] = None
    category: str = "deposit"  # what a transfer to this host counts as


class UnknownHost(KeyError):
    pass


class ArgKind(Enum):
    """What a script action argument must be; the scenario loader checks it."""

    HOST = "a declared host"
    POLICY = "a declared policy"
    INT = "an integer"
    POSITIVE_INT = "a positive integer"
    FRACTION = "a fraction"


def parse_fraction(text: str) -> Fraction:
    """A scenario file's fraction: `num/den` or an integer.

    Raises ValueError or ZeroDivisionError on anything else.
    """
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


# script action handlers annotate their text arguments with these kinds
HostArg = Annotated[str, ArgKind.HOST]
PolicyArg = Annotated[str, ArgKind.POLICY]
IntArg = Annotated[str, ArgKind.INT]
PositiveIntArg = Annotated[str, ArgKind.POSITIVE_INT]
FractionArg = Annotated[str, ArgKind.FRACTION]


class UnknownCategory(KeyError):
    pass


class SchedulePast(ValueError):
    pass


class LawStatus(Enum):
    LEGAL = "legal"
    LICENCE_REQUIRED = "licence_required"
    ILLEGAL = "illegal"


@dataclass(frozen=True)
class LawEntry:
    status: LawStatus
    tax_rate: Fraction


class LawTable:
    """Category -> legality status and tax rate; every query must resolve."""

    def __init__(self) -> None:
        self._entries: dict[str, LawEntry] = {}

    def add(self, category: str, status: LawStatus, tax_rate: Fraction) -> None:
        self._entries[category] = LawEntry(status, tax_rate)

    def categories(self) -> list[str]:
        return list(self._entries)

    def query(self, category: str) -> LawEntry:
        try:
            return self._entries[category]
        except KeyError:
            raise UnknownCategory(category) from None

    def status(self, category: str) -> LawStatus:
        return self.query(category).status
