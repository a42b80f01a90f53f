"""Shared environment types: hosts, roles, and the law table."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Annotated, Optional


class Role(Enum):
    CONSUMER = "CONSUMER"
    VENDOR = "VENDOR"
    BANK = "BANK"
    CENTRAL_BANK = "CENTRAL_BANK"
    TAX_AUTHORITY = "TAX_AUTHORITY"
    LAW_SERVER = "LAW_SERVER"
    LOCATION_AUTHORITY = "LOCATION_AUTHORITY"
    ADVERSARY = "ADVERSARY"


# the roles whose hosts may mint without being given an allowance
ISSUER_ROLES = frozenset((Role.BANK, Role.CENTRAL_BANK))


@dataclass
class Host:
    id: str
    location: str
    role: Role
    licence: Optional[str] = None
    category: str = "deposit"  # what a transfer to this host counts as


class UnknownHost(KeyError):
    pass


class ArgKind(Enum):
    """What a script action argument must be; the scenario loader checks it."""

    HOST = "a declared host"
    ISSUER = "a BANK or CENTRAL_BANK host, or the [supply] issuer with an allowance"
    POLICY = "a declared policy"
    CATEGORY = "a [law] category"
    INT = "a non-negative integer"
    POSITIVE_INT = "a positive integer"
    FRACTION = "a fraction"
    SIDE = "BID or ASK"
    FLAG = "on or off"
    LOCATION = "a location without '|'"


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
IssuerArg = Annotated[str, ArgKind.ISSUER]
PolicyArg = Annotated[str, ArgKind.POLICY]
CategoryArg = Annotated[str, ArgKind.CATEGORY]
IntArg = Annotated[str, ArgKind.INT]
PositiveIntArg = Annotated[str, ArgKind.POSITIVE_INT]
FractionArg = Annotated[str, ArgKind.FRACTION]
SideArg = Annotated[str, ArgKind.SIDE]
FlagArg = Annotated[str, ArgKind.FLAG]
LocationArg = Annotated[str, ArgKind.LOCATION]


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


# category -> legality status and tax rate
LawTable = dict[str, LawEntry]
