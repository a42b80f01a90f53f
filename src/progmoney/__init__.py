"""progmoney: a deterministic sandbox where money units execute their own policy.

Money here is a program: each unit carries a deontic rule set that taxes
itself, refuses illegal transfers, verifies its own integrity, enforces
jurisdiction and expiry, and can even shop for interest rates — all inside
a seeded, reproducible discrete-event economy with a central endorsement
registry that makes double spending impossible.
"""

from .crypto import KeyDirectory, Signature, digest_hex, h64
from .money import MoneyUnit, TransferOutcome, mint, merge, split, transfer, zeroise
from .policy import (
    Decision,
    EvalContext,
    EventKind,
    PolicyProgram,
    check,
    compile_policy,
    evaluate,
    parse,
)
from .registry import Registry
from .sim import Simulation
from .scenario import load_scenario, parse_scenario, run_scenario

__version__ = "0.1.0"

__all__ = [
    "Decision",
    "EvalContext",
    "EventKind",
    "KeyDirectory",
    "MoneyUnit",
    "PolicyProgram",
    "Registry",
    "Signature",
    "Simulation",
    "TransferOutcome",
    "check",
    "compile_policy",
    "digest_hex",
    "evaluate",
    "h64",
    "load_scenario",
    "merge",
    "mint",
    "parse",
    "parse_scenario",
    "run_scenario",
    "split",
    "transfer",
    "zeroise",
]
