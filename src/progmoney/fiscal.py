"""The standard policy pack: generators for the everyday money rules.

Each generator emits policy source text for one concern — sales tax,
legality, annual government contact, home-jurisdiction execution, owner
restrictions, spend-by deadlines, rate seeking.  Generators bake their
parameters into concrete literals so every emitted rule is a plain
field/literal comparison; sources compose by concatenation.
"""

from __future__ import annotations

from fractions import Fraction

from .sim_types import LawStatus, LawTable

TAX_AUTHORITY = "tax_authority"
GOVERNMENT = "government"


class BadRate(ValueError):
    pass


def sales_tax_policy(
    rate: Fraction, category: str = "sale", authority: str = TAX_AUTHORITY
) -> str:
    """Carve `rate` of every matching purchase out of the received amount."""
    if rate < 0 or rate > 1:
        raise BadRate(f"tax rate must be within [0, 1], got {rate}")
    return (
        f'OBLIGATION ON RECEIVE IF category == "{category}" '
        f'DO PAY {rate.numerator}/{rate.denominator} TO "{authority}";'
    )


def legality_policy(law: LawTable) -> str:
    """Prohibit categories the law flags illegal or unlicensed."""
    rules = []
    for category in sorted(law):
        status = law[category].status
        if status is LawStatus.ILLEGAL:
            rules.append(
                f'PROHIBITION ON TRANSFER_REQUEST IF category == "{category}";'
            )
        elif status is LawStatus.LICENCE_REQUIRED:
            rules.append(
                f"PROHIBITION ON TRANSFER_REQUEST "
                f'IF category == "{category}" AND licence == NONE;'
            )
    return "\n".join(rules)


def annual_contact_policy(year_ticks: int, authority: str = GOVERNMENT) -> str:
    """Zeroise when the unit has not contacted its government for a year.

    `last_contact` evaluates as the age in ticks since the last CONTACT, so
    the yearly deadline is a concrete literal comparison.
    """
    if year_ticks <= 0:
        raise ValueError("year_ticks must be positive")
    return (
        f"OBLIGATION ON TICK IF last_contact > {year_ticks} "
        f'DO ZEROISE, NOTIFY "{authority}";'
    )


def jurisdiction_policy(home: str, authority: str = GOVERNMENT) -> str:
    """Zeroise on foreign soil or when the location proof is withheld."""
    return "\n".join(
        [
            f'OBLIGATION ON TICK IF location != "{home}" '
            f'DO ZEROISE, NOTIFY "{authority}";',
            f'OBLIGATION ON ATTEST_FAIL DO ZEROISE, NOTIFY "{authority}";',
        ]
    )


def owner_restriction_policy(banned_categories: list[str]) -> str:
    """Refuse transfers in the owner's banned categories; travels with the unit."""
    if not banned_categories:
        raise ValueError("banned_categories must be nonempty")
    return "\n".join(
        f'PROHIBITION ON TRANSFER_REQUEST IF category == "{category}";'
        for category in banned_categories
    )


def expiry_policy(deadline: int) -> str:
    """Forbid transfers after `deadline` (inclusive) and zeroise past it."""
    if deadline <= 0:
        raise ValueError("deadline must be positive")
    return "\n".join(
        [
            f"PROHIBITION ON TRANSFER_REQUEST IF now > {deadline};",
            f"OBLIGATION ON TICK IF now > {deadline} DO ZEROISE;",
        ]
    )


def rate_seeking_policy() -> str:
    """Delegate deposit placement to the unit itself."""
    return "OBLIGATION ON TICK DO MOVE_TO_BEST_RATE;"


def tamper_notify_policy(authority: str = GOVERNMENT) -> str:
    """Report tampering to the authority."""
    return f'OBLIGATION ON TAMPER DO NOTIFY "{authority}";'


def compose(*sources: str) -> str:
    """Concatenate policy sources (skipping empties) into one program."""
    return "\n".join(s for s in sources if s)

