"""The money-policy language: lexer, parser, checker, canonicalizer, evaluator.

Each money unit carries a small rule program of the form

    OBLIGATION ON RECEIVE IF category == "sale" DO PAY 2000bp TO "tax_authority";
    PROHIBITION ON TRANSFER_REQUEST IF category == "weapons" AND licence == NONE;

Rule kinds are OBLIGATION, PERMISSION, PROHIBITION.  Conditions compare a
context field against a literal with ==, !=, <, > and combine with OR/AND
(AND binds tighter).  The default verdict with no matching rule is PERMIT;
illegality is expressed as explicit PROHIBITION rules.  Fractions are exact
rationals ("1/5") or basis points ("2000bp"); money arithmetic floors to
minor units and never touches floating point.

Parsing, checking and evaluation are pure; the canonical print of a program
is the byte string whose 64-bit hash travels with the unit for tamper
evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional, Union

from .crypto import h64

FIELDS = (
    "amount",
    "category",
    "counterparty",
    "location",
    "now",
    "expiry",
    "last_contact",
    "licence",
    "home",
)

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


class Verdict(Enum):
    PERMIT = "PERMIT"
    FORBID = "FORBID"


class _NoneLiteral:
    """The NONE sentinel literal; compares equal only to absent fields."""

    _instance: Optional["_NoneLiteral"] = None

    def __new__(cls) -> "_NoneLiteral":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NONE"


NONE = _NoneLiteral()

Literal = Union[int, str, _NoneLiteral]


# --- AST ---------------------------------------------------------------


@dataclass(frozen=True)
class Comparison:
    field: str
    op: str
    literal: Literal


@dataclass(frozen=True)
class AndTerm:
    factors: tuple[Comparison, ...]


@dataclass(frozen=True)
class OrCondition:
    terms: tuple[AndTerm, ...]

    def fields(self) -> tuple[str, ...]:
        seen: list[str] = []
        for term in self.terms:
            for factor in term.factors:
                if factor.field not in seen:
                    seen.append(factor.field)
        return tuple(seen)


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


@dataclass(frozen=True)
class Rule:
    kind: RuleKind
    event: EventKind
    condition: Optional[OrCondition]
    actions: tuple[Action, ...]


@dataclass(frozen=True)
class PolicyProgram:
    rules: tuple[Rule, ...]
    source_canonical: str
    content_hash: int

    # the fields never change, so each program hashes and renders its text
    # once; an edited program is a new object and is checked afresh
    @cached_property
    def text_hash(self) -> int:
        """h64 of `source_canonical` as it is now, whatever `content_hash` claims."""
        return h64(self.source_canonical.encode())

    @cached_property
    def rules_match_text(self) -> bool:
        """Whether `rules` render to exactly `source_canonical`."""
        return render_rules(self.rules) == self.source_canonical


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
    def __init__(self, errors: list[CheckError]) -> None:
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors


# --- Lexer -------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # WORD, INT, BP, STRING, OP, PUNCT, EOF
    text: str
    value: object
    line: int
    col: int


def _lex(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(source)

    def err(msg: str) -> ParseError:
        return ParseError(msg, line, col)

    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            digits = source[i:j]
            # an immediately attached "bp" makes a basis-point fraction
            after_bp = source[j + 2 : j + 3]
            if source[j : j + 2] == "bp" and not (after_bp.isalnum() or after_bp == "_"):
                tokens.append(_Token("BP", digits + "bp", int(digits), line, start_col))
                j += 2
            elif j < n and (source[j].isalpha() or source[j] == "_"):
                raise err(f"bad integer suffix after '{digits}'")
            else:
                tokens.append(_Token("INT", digits, int(digits), line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            tokens.append(_Token("WORD", word, word, line, start_col))
            col += j - i
            i = j
            continue
        if ch == '"':
            j = i + 1
            while j < n and source[j] not in ('"', "\n"):
                j += 1
            if j >= n or source[j] != '"':
                raise err("unterminated string")
            text = source[i : j + 1]
            tokens.append(_Token("STRING", text, source[i + 1 : j], line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        two = source[i : i + 2]
        if two in ("==", "!="):
            tokens.append(_Token("OP", two, two, line, start_col))
            i += 2
            col += 2
            continue
        if ch in "<>":
            tokens.append(_Token("OP", ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        if ch in ";,/":
            tokens.append(_Token("PUNCT", ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise err(f"unexpected character {ch!r}")
    tokens.append(_Token("EOF", "", None, line, col))
    return tokens


# --- Parser ------------------------------------------------------------

_KIND_WORDS = {k.value for k in RuleKind}
_EVENT_WORDS = {e.value for e in EventKind}
_KEYWORDS = _KIND_WORDS | _EVENT_WORDS | {
    "ON",
    "IF",
    "DO",
    "OR",
    "AND",
    "TO",
    "PAY",
    "FORBID",
    "ZEROISE",
    "NOTIFY",
    "MOVE_TO_BEST_RATE",
    "NONE",
}


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def fail(self, msg: str) -> ParseError:
        return ParseError(msg, self.cur.line, self.cur.col)

    def expect_word(self, word: str) -> None:
        if self.cur.kind != "WORD" or self.cur.text != word:
            raise self.fail(f"expected '{word}', found {self.cur.text!r}")
        self.advance()

    def expect_punct(self, punct: str) -> None:
        if self.cur.kind != "PUNCT" or self.cur.text != punct:
            raise self.fail(f"expected '{punct}', found {self.cur.text!r}")
        self.advance()

    def parse_program(self) -> tuple[Rule, ...]:
        rules = []
        while self.cur.kind != "EOF":
            rules.append(self.parse_rule())
        return tuple(rules)

    def parse_rule(self) -> Rule:
        tok = self.cur
        if tok.kind != "WORD" or tok.text not in _KIND_WORDS:
            raise self.fail(f"unknown rule kind {tok.text!r}")
        kind = RuleKind(self.advance().text)
        self.expect_word("ON")
        ev = self.cur
        if ev.kind != "WORD" or ev.text not in _EVENT_WORDS:
            raise self.fail(f"unknown event {ev.text!r}")
        event = EventKind(self.advance().text)
        condition = None
        if self.cur.kind == "WORD" and self.cur.text == "IF":
            self.advance()
            condition = self.parse_condition()
        actions: tuple[Action, ...] = ()
        if self.cur.kind == "WORD" and self.cur.text == "DO":
            self.advance()
            acts = [self.parse_action()]
            while self.cur.kind == "PUNCT" and self.cur.text == ",":
                self.advance()
                acts.append(self.parse_action())
            actions = tuple(acts)
        self.expect_punct(";")
        return Rule(kind, event, condition, actions)

    def parse_condition(self) -> OrCondition:
        terms = [self.parse_term()]
        while self.cur.kind == "WORD" and self.cur.text == "OR":
            self.advance()
            terms.append(self.parse_term())
        return OrCondition(tuple(terms))

    def parse_term(self) -> AndTerm:
        factors = [self.parse_factor()]
        while self.cur.kind == "WORD" and self.cur.text == "AND":
            self.advance()
            factors.append(self.parse_factor())
        return AndTerm(tuple(factors))

    def parse_factor(self) -> Comparison:
        tok = self.cur
        # any lowercase identifier is accepted here; check() validates the
        # name so that "unknown field" is a check error, not a parse error
        if tok.kind != "WORD" or tok.text in _KEYWORDS or not tok.text[0].islower():
            raise self.fail(f"expected field name, found {tok.text!r}")
        fname = self.advance().text
        op_tok = self.cur
        if op_tok.kind != "OP":
            raise self.fail(f"expected comparison operator, found {op_tok.text!r}")
        op = self.advance().text
        return Comparison(fname, op, self.parse_literal())

    def parse_literal(self) -> Literal:
        tok = self.cur
        if tok.kind == "INT":
            self.advance()
            return int(tok.value)  # type: ignore[arg-type]
        if tok.kind == "STRING":
            self.advance()
            return str(tok.value)
        if tok.kind == "WORD" and tok.text == "NONE":
            self.advance()
            return NONE
        raise self.fail(f"expected literal, found {tok.text!r}")

    def parse_action(self) -> Action:
        tok = self.cur
        if tok.kind != "WORD":
            raise self.fail(f"expected action, found {tok.text!r}")
        if tok.text == "PAY":
            self.advance()
            frac = self.parse_fraction()
            self.expect_word("TO")
            payee = self.cur
            if payee.kind != "STRING":
                raise self.fail(f"expected quoted payee, found {payee.text!r}")
            self.advance()
            return PayAction(frac, str(payee.value))
        if tok.text == "FORBID":
            self.advance()
            return ForbidAction()
        if tok.text == "ZEROISE":
            self.advance()
            return ZeroiseAction()
        if tok.text == "NOTIFY":
            self.advance()
            target = self.cur
            if target.kind != "STRING":
                raise self.fail(f"expected quoted target, found {target.text!r}")
            self.advance()
            return NotifyAction(str(target.value))
        if tok.text == "MOVE_TO_BEST_RATE":
            self.advance()
            return MoveToBestRateAction()
        raise self.fail(f"unknown action {tok.text!r}")

    def parse_fraction(self) -> FractionLit:
        tok = self.cur
        if tok.kind == "BP":
            self.advance()
            return FractionLit(int(tok.value), 10_000, basis_points=True)  # type: ignore[arg-type]
        if tok.kind == "INT":
            num = int(self.advance().value)  # type: ignore[arg-type]
            self.expect_punct("/")
            den_tok = self.cur
            if den_tok.kind != "INT":
                raise self.fail(f"expected denominator, found {den_tok.text!r}")
            self.advance()
            return FractionLit(num, int(den_tok.value))  # type: ignore[arg-type]
        raise self.fail(f"expected fraction, found {tok.text!r}")


# --- Canonical printing ------------------------------------------------


def _render_literal(lit: Literal) -> str:
    if isinstance(lit, bool):
        raise TypeError("bool is not a policy literal")
    if isinstance(lit, int):
        return str(lit)
    if isinstance(lit, str):
        return f'"{lit}"'
    return "NONE"


def _render_action(action: Action) -> str:
    if isinstance(action, PayAction):
        return f'PAY {action.fraction.render()} TO "{action.payee}"'
    if isinstance(action, ForbidAction):
        return "FORBID"
    if isinstance(action, ZeroiseAction):
        return "ZEROISE"
    if isinstance(action, NotifyAction):
        return f'NOTIFY "{action.target}"'
    return "MOVE_TO_BEST_RATE"


def _render_rule(rule: Rule) -> str:
    parts = [rule.kind.value, "ON", rule.event.value]
    if rule.condition is not None:
        parts.append("IF")
        parts.append(
            " OR ".join(
                " AND ".join(
                    f"{c.field} {c.op} {_render_literal(c.literal)}"
                    for c in term.factors
                )
                for term in rule.condition.terms
            )
        )
    if rule.actions:
        parts.append("DO")
        parts.append(", ".join(_render_action(a) for a in rule.actions))
    # punctuation attaches left; the semicolon terminates the line
    return " ".join(parts) + ";"


def render_rules(rules: tuple[Rule, ...]) -> str:
    return "\n".join(_render_rule(r) for r in rules)


def canonicalize(program: PolicyProgram) -> str:
    """Canonical text: one rule per line, single-space tokens, trailing ';'."""
    return render_rules(program.rules)


# --- Entry points ------------------------------------------------------


def parse(source: str) -> PolicyProgram:
    """Parse `source` into a program whose canonical print re-parses identically."""
    rules = _Parser(_lex(source)).parse_program()
    canonical = render_rules(rules)
    return PolicyProgram(rules, canonical, h64(canonical.encode()))


@dataclass(frozen=True)
class CheckedPolicy:
    """A parsed program that passed static checking."""

    program: PolicyProgram

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self.program.rules

    @property
    def content_hash(self) -> int:
        return self.program.content_hash


def collect_check_errors(program: PolicyProgram) -> list[CheckError]:
    errors: list[CheckError] = []
    for i, rule in enumerate(program.rules):
        if rule.condition is not None:
            for name in rule.condition.fields():
                if name not in FIELDS:
                    errors.append(CheckError(i, f"unknown field '{name}'"))
        for action in rule.actions:
            if isinstance(action, PayAction):
                frac = action.fraction
                if frac.den == 0:
                    errors.append(CheckError(i, "zero denominator"))
                elif frac.num > frac.den:
                    errors.append(CheckError(i, "fraction > 1"))
                if rule.kind is RuleKind.PROHIBITION:
                    errors.append(CheckError(i, "PAY inside PROHIBITION"))
    return errors


def check(program: PolicyProgram) -> CheckedPolicy:
    """Static sanity pass; raises CheckFailure listing every violation."""
    errors = collect_check_errors(program)
    if errors:
        raise CheckFailure(errors)
    return CheckedPolicy(program)


def compile_policy(source: str) -> CheckedPolicy:
    return check(parse(source))


EMPTY_POLICY = compile_policy("")


# --- Evaluation --------------------------------------------------------


@dataclass(frozen=True)
class EvalContext:
    """Field values a policy can test.

    All amounts and ticks are integers; absent optional fields are None and
    compare as the NONE sentinel.  `last_contact` carries the age in ticks
    since the unit last contacted its government (not an absolute tick), so
    the annual-contact rule stays expressible as a field/literal comparison.
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


@dataclass(frozen=True)
class Decision:
    verdict: Verdict
    obligations: tuple[Obligation, ...] = ()

    @property
    def permitted(self) -> bool:
        return self.verdict is Verdict.PERMIT


def _compare(ctx_value: object, op: str, lit: Literal) -> bool:
    rhs = None if isinstance(lit, _NoneLiteral) else lit
    if op == "==":
        return ctx_value == rhs
    if op == "!=":
        return ctx_value != rhs
    # ordering is defined over integers only; anything else never matches
    if isinstance(ctx_value, bool) or not isinstance(ctx_value, int):
        return False
    if not isinstance(rhs, int):
        return False
    return ctx_value < rhs if op == "<" else ctx_value > rhs


def _matches(rule: Rule, event: EventKind, ctx: EvalContext) -> bool:
    if rule.event is not event:
        return False
    if rule.condition is None:
        return True
    return any(
        all(_compare(getattr(ctx, f.field), f.op, f.literal) for f in term.factors)
        for term in rule.condition.terms
    )


def _zeroise_reason(rule: Rule, event: EventKind) -> str:
    if event is EventKind.TAMPER:
        return "tamper"
    if event is EventKind.ATTEST_FAIL:
        return "attest_fail"
    cond_fields = rule.condition.fields() if rule.condition is not None else ()
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


def evaluate(policy: CheckedPolicy, event: EventKind, ctx: EvalContext) -> Decision:
    """Decide an event.  Pure and total over checked policies.

    Precedence is PROHIBITION > OBLIGATION > PERMISSION: any matching
    prohibition (or a FORBID action on a matching rule) yields FORBID with no
    obligations; otherwise matching obligations resolve in rule order.
    """
    matching = [
        (i, r) for i, r in enumerate(policy.rules) if _matches(r, event, ctx)
    ]
    for _, rule in matching:
        if rule.kind is RuleKind.PROHIBITION:
            return Decision(Verdict.FORBID)
        if any(isinstance(a, ForbidAction) for a in rule.actions):
            return Decision(Verdict.FORBID)
    obligations: list[Obligation] = []
    for i, rule in matching:
        if rule.kind is not RuleKind.OBLIGATION:
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
    return Decision(Verdict.PERMIT, tuple(obligations))
