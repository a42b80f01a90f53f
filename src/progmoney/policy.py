"""The money-policy language: lexer, parser, checker, canonical printer, evaluator.

Each money unit carries a small rule program of the form

    OBLIGATION ON RECEIVE IF category == "sale" DO PAY 2000bp TO "tax_authority";
    PROHIBITION ON TRANSFER_REQUEST IF category == "weapons" AND licence == NONE;

Rule kinds are OBLIGATION, PERMISSION, PROHIBITION.  Conditions compare a
context field against a literal with ==, !=, <, > and combine with OR/AND
(AND binds tighter).  NONE parses to None, the value of an absent field.
A parsed condition is a tuple of AND-terms, each a tuple of comparisons;
() is a rule without one.  A decision is a `permitted` bool and the
obligations to carry out.  With no matching rule an event is permitted
with no obligations; illegality is expressed as explicit PROHIBITION
rules.  Fractions are exact rationals ("1/5") or basis points ("2000bp");
money arithmetic floors to minor units and never touches floating point.

The token grammar is one regular expression, `_TOKEN`.  Identifiers and
numbers are ASCII.  Outside a string literal or a comment, a character that
is neither whitespace nor part of a token is a ParseError at its line and
column.

A parsed program is one `PolicyProgram` value.  It works out once, and
keeps, what follows from its rules: its static check errors, the parties
it pays or notifies, its per-event compiled matchers, the ticks where a
TICK rule can change and its deadline.  Parsing, checking and evaluation
are pure; the canonical print of a program is the byte string whose 64-bit
hash travels with the unit for tamper evidence.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import attrgetter
from typing import (
    Callable,
    Mapping,
    NamedTuple,
    Optional,
    TypeVar,
    Union,
    get_args,
    get_type_hints,
)

from .crypto import h64


class EvalContext(NamedTuple):
    """Field values a policy can test; its fields are the names a condition may use.

    All amounts and ticks are integers; an absent optional field is None,
    which is what the literal NONE parses to.  `last_contact` carries the
    age in ticks since the unit last contacted its government (not an
    absolute tick), so the annual-contact rule stays expressible as a
    field/literal comparison.
    """

    amount: int = 0
    category: Optional[str] = None
    counterparty: Optional[str] = None
    location: Optional[str] = None
    now: int = 0
    expiry: Optional[int] = None
    last_contact: int = 0
    licence: Optional[str] = None
    home: Optional[str] = None


# the names a condition may test
FIELDS = EvalContext._fields

# each field's value type (int or str) and whether it may be None, read from
# EvalContext's annotations
FIELD_TYPES: dict[str, tuple[type, bool]] = {
    name: (
        next(arg for arg in get_args(hint) or (hint,) if arg is not type(None)),
        type(None) in get_args(hint),
    )
    for name, hint in get_type_hints(EvalContext).items()
}

OPS = ("==", "!=", "<", ">")


class RuleKind(Enum):
    OBLIGATION = "OBLIGATION"
    PERMISSION = "PERMISSION"
    PROHIBITION = "PROHIBITION"


class EventKind(Enum):
    TRANSFER_REQUEST = "TRANSFER_REQUEST"
    RECEIVE = "RECEIVE"
    TICK = "TICK"
    ATTEST_FAIL = "ATTEST_FAIL"
    TAMPER = "TAMPER"


# bound once: looking an Enum member up on its class is slow on the evaluation path
_OBLIGATION, _PROHIBITION = RuleKind.OBLIGATION, RuleKind.PROHIBITION


# NONE parses to None, which equals only an absent (None) context field
Literal = Union[int, str, None]


# --- AST ---------------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    field: str
    op: str
    literal: Literal


# a condition is an OR of AND-terms, each one or more comparisons; () is none
Condition = tuple[tuple[Comparison, ...], ...]


@dataclass(frozen=True)
class FractionLit:
    """Exact rational in an action; keeps its surface form for printing."""

    num: int
    den: int
    basis_points: bool = False

    def render(self) -> str:
        if self.basis_points:
            return f"{self.num}bp"
        return f"{self.num}/{self.den}"


@dataclass(frozen=True)
class PayAction:
    fraction: FractionLit
    payee: str


@dataclass(frozen=True)
class ForbidAction:
    pass


@dataclass(frozen=True)
class ZeroiseAction:
    pass


@dataclass(frozen=True)
class NotifyAction:
    target: str


@dataclass(frozen=True)
class MoveToBestRateAction:
    pass


Action = Union[PayAction, ForbidAction, ZeroiseAction, NotifyAction, MoveToBestRateAction]

PARTY_NAME_RULE = "must be one word without '|', ',' or '\"'"


def is_party_name(name: str) -> bool:
    """Whether `name` can name a host, payee or notice target.

    A ledger line splits on "|" and ",", a report line on whitespace, and
    policy text quotes a party between '"'.
    """
    return name.split() == [name] and not any(ch in name for ch in '|,"')


# the actions written as one bare word, by that word
_WORD_ACTIONS: dict[str, Action] = {
    "FORBID": ForbidAction(),
    "ZEROISE": ZeroiseAction(),
    "MOVE_TO_BEST_RATE": MoveToBestRateAction(),
}


@dataclass(frozen=True)
class Rule:
    kind: RuleKind
    event: EventKind
    condition: Condition
    actions: tuple[Action, ...]

    @property
    def comparisons(self) -> tuple[Comparison, ...]:
        """The condition's comparisons, term by term; none without a condition."""
        return tuple(factor for term in self.condition for factor in term)


@dataclass(frozen=True)
class PolicyProgram:
    rules: tuple[Rule, ...]
    source_canonical: str

    # the fields never change, so each program hashes and renders its text
    # once; an edited program is a new object and is checked afresh
    @cached_property
    def text_hash(self) -> int:
        """h64 of `source_canonical` as it is now."""
        return h64(self.source_canonical.encode())

    @cached_property
    def rules_match_text(self) -> bool:
        """Whether `rules` render to exactly `source_canonical`."""
        return render_rules(self.rules) == self.source_canonical

    @cached_property
    def check_errors(self) -> tuple[CheckError, ...]:
        """Every static check violation, in rule order; empty for a sound program."""
        errors: list[CheckError] = []
        for i, rule in enumerate(self.rules):
            for name in dict.fromkeys(factor.field for factor in rule.comparisons):
                if name not in FIELDS:
                    errors.append(CheckError(i, f"unknown field '{name}'"))
            for factor in rule.comparisons:
                fault = _type_fault(factor)
                if fault is not None:
                    errors.append(CheckError(i, fault))
            for action in rule.actions:
                if isinstance(action, NotifyAction) and not is_party_name(action.target):
                    errors.append(CheckError(i, f"NOTIFY target {action.target!r} {PARTY_NAME_RULE}"))
                if isinstance(action, PayAction):
                    if not is_party_name(action.payee):
                        errors.append(CheckError(i, f"PAY payee {action.payee!r} {PARTY_NAME_RULE}"))
                    frac = action.fraction
                    if frac.den == 0:
                        errors.append(CheckError(i, "zero denominator"))
                    elif frac.num > frac.den:
                        errors.append(CheckError(i, "fraction > 1"))
                    if rule.kind is RuleKind.PROHIBITION:
                        errors.append(CheckError(i, "PAY inside PROHIBITION"))
        return tuple(errors)

    @cached_property
    def parties(self) -> tuple[str, ...]:
        """Each PAY payee and NOTIFY target, in rule order."""
        return tuple(
            action.payee if isinstance(action, PayAction) else action.target
            for rule in self.rules
            for action in rule.actions
            if isinstance(action, (PayAction, NotifyAction))
        )

    @cached_property
    def by_event(self) -> dict[EventKind, tuple[tuple[int, Rule, Matcher], ...]]:
        """Each event's (rule index, rule, compiled condition) entries, in rule order."""
        index: dict[EventKind, list[tuple[int, Rule, Matcher]]] = {e: [] for e in EventKind}
        for i, rule in enumerate(self.rules):
            index[rule.event].append((i, rule, _compile_condition(rule.condition)))
        return {event: tuple(entries) for event, entries in index.items()}

    @cached_property
    def _by_event_value(self) -> dict[str, tuple[tuple[int, Rule, Matcher], ...]]:
        """`by_event` keyed by each event's `_value_`, a str whose hash is cached.

        A lookup keyed by the member itself runs `Enum.__hash__` in Python.
        """
        return {event._value_: entries for event, entries in self.by_event.items()}

    @cached_property
    def tick_flips(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Where a TICK condition's comparison can change truth, in ascending order.

        The first tuple holds ticks (from `now`), the second ages since the
        last contact (from `last_contact`).  Every other field a TICK
        context holds stays put while time passes, so between two of these
        points every TICK matcher keeps its truth value.
        """
        flips: dict[str, set[int]] = {"now": set(), "last_contact": set()}
        for rule in self.rules:
            if rule.event is not EventKind.TICK:
                continue
            for factor in rule.comparisons:
                if factor.field in flips and isinstance(factor.literal, int):
                    flips[factor.field].update(_flip_points(factor.op, factor.literal))
        return tuple(sorted(flips["now"])), tuple(sorted(flips["last_contact"]))

    @cached_property
    def deadline(self) -> Optional[int]:
        """The earliest tick a deadline rule names, or None: a unit's implied expiry.

        A deadline is an integer compared against `expiry`, or one that
        `now` must exceed, in a rule for any event.
        """
        ticks = [
            factor.literal
            for rule in self.rules
            for factor in rule.comparisons
            if isinstance(factor.literal, int)
            and (factor.field == "expiry" or (factor.field == "now" and factor.op == ">"))
        ]
        return min(ticks) if ticks else None

    def next_tick_change(self, now: int, contact_origin: int) -> Optional[int]:
        """The first tick after `now` at which a TICK matcher can change, or None.

        `contact_origin` is the tick of the unit's last contact, so
        `last_contact` reads `tick - contact_origin` at any tick.
        """
        at_now, at_age = self.tick_flips
        i = bisect_right(at_now, now)
        j = bisect_right(at_age, now - contact_origin)
        ticks = [at_now[i]] if i < len(at_now) else []
        if j < len(at_age):
            ticks.append(at_age[j] + contact_origin)
        return min(ticks) if ticks else None


def _type_fault(factor: Comparison) -> Optional[str]:
    """Why `factor`'s types make it constant, whatever the context; None if they do not.

    The evaluator gives such a comparison one value: `<` and `>` order
    integers only, a field never equals a literal of another type, and a
    field that is never None never equals NONE.  An unknown field is
    reported as such, not here.
    """
    types = FIELD_TYPES.get(factor.field)
    if types is None:
        return None
    kind, nullable = types
    lit = factor.literal
    text = f"'{factor.field} {factor.op} {_render_literal(lit)}'"
    if factor.op in ("<", ">"):
        if kind is not int:
            return f"{text} orders a string field, which never matches"
        if not isinstance(lit, int):
            return f"{text} orders against a literal that is not an integer, which never matches"
    if lit is None:
        return None if nullable else f"{text} tests for NONE a field that is never NONE"
    if not isinstance(lit, kind):
        what = "an integer" if kind is int else "a string"
        return f"{text} compares {what} field with a literal of another type"
    return None


def _flip_points(op: str, c: int) -> tuple[int, ...]:
    """The values v of an integer field at which `v op c` differs from `v-1 op c`."""
    if op == ">":
        return (c + 1,)
    if op == "<":
        return (c,)
    return (c, c + 1)  # == and !=


# --- Errors ------------------------------------------------------------


class ParseError(ValueError):
    """First offending token, with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.reason = message


@dataclass(frozen=True)
class CheckError:
    rule_index: int
    message: str

    def __str__(self) -> str:
        return f"rule {self.rule_index}: {self.message}"


class CheckFailure(ValueError):
    def __init__(self, errors: tuple[CheckError, ...]) -> None:
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors


# --- Lexer -------------------------------------------------------------


class _Token(NamedTuple):
    kind: str  # WORD, INT, BP, STRING, OP, PUNCT, EOF
    text: str
    line: int
    col: int


# every token kind is one named alternative, tried in this order; what
# matches none of them is an unexpected character
_TOKEN = re.compile(
    r"""
      (?P<NEWLINE>\n)
    | (?P<SKIP>[^\S\n]+|\#[^\n]*)
    | (?P<BP>[0-9]+bp(?![A-Za-z0-9_]))
    | (?P<BAD_SUFFIX>[0-9]+(?=[A-Za-z_]))
    | (?P<INT>[0-9]+)
    | (?P<WORD>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<STRING>"[^"\n]*")
    | (?P<UNTERMINATED>")
    | (?P<OP>==|!=|<|>)
    | (?P<PUNCT>[;,/])
    """,
    re.VERBOSE,
)


def _lex(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start, pos = 1, 0, 0
    while pos < len(source):
        col = pos - line_start + 1
        match = _TOKEN.match(source, pos)
        if match is None:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        kind, text, pos = match.lastgroup, match.group(), match.end()
        if kind == "NEWLINE":
            line, line_start = line + 1, pos
        elif kind == "BAD_SUFFIX":
            raise ParseError(f"bad integer suffix after '{text}'", line, col)
        elif kind == "UNTERMINATED":
            raise ParseError("unterminated string", line, col)
        elif kind != "SKIP":
            tokens.append(_Token(kind, text, line, col))  # type: ignore[arg-type]
    tokens.append(_Token("EOF", "", line, pos - line_start + 1))
    return tokens


# --- Parser ------------------------------------------------------------

# every reserved word; a field name is none of them
_KEYWORDS = {*RuleKind.__members__, *EventKind.__members__, *_WORD_ACTIONS}
_KEYWORDS |= {"ON", "IF", "DO", "OR", "AND", "TO", "PAY", "NOTIFY", "NONE"}

_T = TypeVar("_T")


class _Parser:
    """Recursive descent over the tokens.

    A keyword or punctuation token is matched by its text alone: no token
    of another kind can have that text.
    """

    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def fail(self, msg: str) -> ParseError:
        return ParseError(msg, self.cur.line, self.cur.col)

    def accept(self, text: str) -> bool:
        """Step over the current token if its text is `text`."""
        if self.cur.text != text:
            return False
        self.pos += 1
        return True

    def expect(self, text: str) -> None:
        if not self.accept(text):
            raise self.fail(f"expected '{text}', found {self.cur.text!r}")

    def take(self, kind: str, what: str) -> _Token:
        """Step over the current token, which must be of `kind`."""
        tok = self.cur
        if tok.kind != kind:
            raise self.fail(f"expected {what}, found {tok.text!r}")
        self.pos += 1
        return tok

    def integer(self, kind: str, what: str) -> int:
        """The value of the current INT or BP token, stepping over it."""
        tok = self.take(kind, what)
        digits = tok.text.removesuffix("bp")
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            reason = f"integer too long ({len(digits)} digits)"
            raise ParseError(reason, tok.line, tok.col) from None

    def one_of(self, table: Mapping[str, _T], what: str) -> _T:
        """The entry of `table` the current word names, stepping over it."""
        text = self.cur.text
        if text not in table:
            raise self.fail(f"unknown {what} {text!r}")
        self.pos += 1
        return table[text]

    def many(self, item: Callable[[], _T], sep: str) -> tuple[_T, ...]:
        """One or more `item`s separated by `sep`."""
        items = [item()]
        while self.accept(sep):
            items.append(item())
        return tuple(items)

    def parse_program(self) -> tuple[Rule, ...]:
        rules = []
        while self.cur.kind != "EOF":
            rules.append(self.parse_rule())
        return tuple(rules)

    def parse_rule(self) -> Rule:
        kind = self.one_of(RuleKind.__members__, "rule kind")
        self.expect("ON")
        event = self.one_of(EventKind.__members__, "event")
        condition = self.many(self.parse_term, "OR") if self.accept("IF") else ()
        actions = self.many(self.parse_action, ",") if self.accept("DO") else ()
        self.expect(";")
        return Rule(kind, event, condition, actions)

    def parse_term(self) -> tuple[Comparison, ...]:
        return self.many(self.parse_factor, "AND")

    def parse_factor(self) -> Comparison:
        # any lowercase identifier that is no keyword is accepted here (only
        # a WORD starts with a lowercase letter); check() validates the name
        # so that "unknown field" is a check error, not a parse error
        name = self.cur.text
        if name in _KEYWORDS or not name[:1].islower():
            raise self.fail(f"expected field name, found {name!r}")
        self.pos += 1
        op = self.take("OP", "comparison operator").text
        return Comparison(name, op, self.parse_literal())

    def parse_literal(self) -> Literal:
        if self.accept("NONE"):
            return None
        if self.cur.kind == "INT":
            return self.integer("INT", "literal")
        return self.take("STRING", "literal").text[1:-1]

    def parse_action(self) -> Action:
        if self.accept("PAY"):
            fraction = self.parse_fraction()
            self.expect("TO")
            return PayAction(fraction, self.take("STRING", "quoted payee").text[1:-1])
        if self.accept("NOTIFY"):
            return NotifyAction(self.take("STRING", "quoted target").text[1:-1])
        if self.cur.kind != "WORD":
            raise self.fail(f"expected action, found {self.cur.text!r}")
        return self.one_of(_WORD_ACTIONS, "action")

    def parse_fraction(self) -> FractionLit:
        if self.cur.kind == "BP":
            return FractionLit(self.integer("BP", "fraction"), 10_000, basis_points=True)
        num = self.integer("INT", "fraction")
        self.expect("/")
        return FractionLit(num, self.integer("INT", "denominator"))


# --- Canonical printing ------------------------------------------------


def _render_literal(lit: Literal) -> str:
    if isinstance(lit, bool):
        raise TypeError("bool is not a policy literal")
    if isinstance(lit, int):
        return str(lit)
    if isinstance(lit, str):
        return f'"{lit}"'
    return "NONE"


_ACTION_WORDS = {action: word for word, action in _WORD_ACTIONS.items()}


def _render_action(action: Action) -> str:
    if isinstance(action, PayAction):
        return f'PAY {action.fraction.render()} TO "{action.payee}"'
    if isinstance(action, NotifyAction):
        return f'NOTIFY "{action.target}"'
    return _ACTION_WORDS[action]


def _render_rule(rule: Rule) -> str:
    parts = [rule.kind.value, "ON", rule.event.value]
    if rule.condition:
        parts.append("IF")
        parts.append(
            " OR ".join(
                " AND ".join(f"{c.field} {c.op} {_render_literal(c.literal)}" for c in term)
                for term in rule.condition
            )
        )
    if rule.actions:
        parts.append("DO")
        parts.append(", ".join(_render_action(a) for a in rule.actions))
    # punctuation attaches left; the semicolon terminates the line
    return " ".join(parts) + ";"


def render_rules(rules: tuple[Rule, ...]) -> str:
    return "\n".join(_render_rule(r) for r in rules)


# --- Entry points ------------------------------------------------------


def parse(source: str) -> PolicyProgram:
    """Parse `source` into a program whose canonical print re-parses identically."""
    rules = _Parser(_lex(source)).parse_program()
    canonical = render_rules(rules)
    return PolicyProgram(rules, canonical)


def check(program: PolicyProgram) -> PolicyProgram:
    """Static sanity pass; raises CheckFailure listing every violation."""
    if program.check_errors:
        raise CheckFailure(program.check_errors)
    return program


def compile_policy(source: str) -> PolicyProgram:
    return check(parse(source))


EMPTY_POLICY = compile_policy("")


# --- Evaluation --------------------------------------------------------


@dataclass(frozen=True)
class PayObligation:
    payee: str
    amount: int
    rule_index: int


@dataclass(frozen=True)
class NotifyObligation:
    target: str
    rule_index: int


@dataclass(frozen=True)
class ZeroiseObligation:
    reason: str
    rule_index: int


@dataclass(frozen=True)
class MoveToBestRateObligation:
    rule_index: int


Obligation = Union[
    PayObligation, NotifyObligation, ZeroiseObligation, MoveToBestRateObligation
]


class Decision(NamedTuple):
    permitted: bool
    obligations: tuple[Obligation, ...] = ()


# the two decisions that carry no obligations, shared by every evaluation
PERMITTED = Decision(True)
FORBIDDEN = Decision(False)


# A rule's condition compiled to one test of a context
Matcher = Callable[[EvalContext], bool]


def _always(ctx: EvalContext) -> bool:
    return True


def _never(ctx: EvalContext) -> bool:
    return False


def _compile_comparison(factor: Comparison) -> Matcher:
    get = attrgetter(factor.field)
    rhs = factor.literal
    if factor.op == "==":
        return lambda ctx: get(ctx) == rhs
    if factor.op == "!=":
        return lambda ctx: get(ctx) != rhs
    # ordering is defined over integers only; anything else never matches
    if not isinstance(rhs, int):
        return _never
    if factor.op == "<":
        return lambda ctx: isinstance(v := get(ctx), int) and not isinstance(v, bool) and v < rhs
    return lambda ctx: isinstance(v := get(ctx), int) and not isinstance(v, bool) and v > rhs


def _compile_all(tests: list[Matcher]) -> Matcher:
    if len(tests) == 1:
        return tests[0]

    def all_hold(ctx: EvalContext) -> bool:
        for test in tests:
            if not test(ctx):
                return False
        return True

    return all_hold


def _compile_any(tests: list[Matcher]) -> Matcher:
    if len(tests) == 1:
        return tests[0]

    def any_holds(ctx: EvalContext) -> bool:
        for test in tests:
            if test(ctx):
                return True
        return False

    return any_holds


def _compile_condition(condition: Condition) -> Matcher:
    """One callable deciding `condition`: an OR of ANDs of comparisons."""
    if not condition:
        return _always
    return _compile_any(
        [_compile_all([_compile_comparison(f) for f in term]) for term in condition]
    )


def _zeroise_reason(rule: Rule, event: EventKind) -> str:
    if event is EventKind.TAMPER:
        return "tamper"
    if event is EventKind.ATTEST_FAIL:
        return "attest_fail"
    cond_fields = {factor.field for factor in rule.comparisons}
    if "last_contact" in cond_fields:
        return "contact"
    if "location" in cond_fields or "home" in cond_fields:
        return "jurisdiction"
    # a deadline baked as a now/expiry threshold is an expiry rule
    if "expiry" in cond_fields or "now" in cond_fields:
        return "expiry"
    return "policy"


def pay_amount(amount: int, fraction: FractionLit) -> int:
    """floor(amount * num / den) in minor units; exact integer arithmetic."""
    return (amount * fraction.num) // fraction.den


def evaluate(policy: PolicyProgram, event: EventKind, ctx: EvalContext) -> Decision:
    """Decide an event.  Pure and total over checked programs.

    Precedence is PROHIBITION > OBLIGATION > PERMISSION: any matching
    prohibition (or a FORBID action on a matching rule) forbids with no
    obligations; otherwise matching obligations resolve in rule order.

    Only the rules written for `event` are tested, each through the matcher
    its program compiled once (`PolicyProgram.by_event`); rules for other
    events cost nothing.  One pass suffices: a forbid discards whatever
    obligations came before it.
    """
    obligations: list[Obligation] = []
    for i, rule, matches in policy._by_event_value[event._value_]:
        if not matches(ctx):
            continue
        if rule.kind is _PROHIBITION or any(isinstance(a, ForbidAction) for a in rule.actions):
            return FORBIDDEN
        if rule.kind is not _OBLIGATION:
            continue  # PERMISSION rules are documentation markers
        for action in rule.actions:
            if isinstance(action, PayAction):
                obligations.append(
                    PayObligation(action.payee, pay_amount(ctx.amount, action.fraction), i)
                )
            elif isinstance(action, NotifyAction):
                obligations.append(NotifyObligation(action.target, i))
            elif isinstance(action, ZeroiseAction):
                obligations.append(ZeroiseObligation(_zeroise_reason(rule, event), i))
            elif isinstance(action, MoveToBestRateAction):
                obligations.append(MoveToBestRateObligation(i))
    return Decision(True, tuple(obligations)) if obligations else PERMITTED
