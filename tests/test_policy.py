"""Policy language: parsing, checking, canonicalization, evaluation."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from progmoney import fiscal
from progmoney import policy as pol
from progmoney.crypto import h64
from progmoney.policy import (
    CheckFailure,
    Comparison,
    EvalContext,
    EventKind,
    FractionLit,
    NotifyAction,
    ParseError,
    PayAction,
    Rule,
    RuleKind,
    ZeroiseObligation,
    check,
    compile_policy,
    evaluate,
    parse,
)

SALES_TAX = 'OBLIGATION ON RECEIVE IF category == "sale" DO PAY 2000bp TO "tax_authority";'

# a corpus touching every grammar production: all kinds, events, operators,
# literal forms, fraction forms, action types, AND/OR chains, comments
CORPUS = [
    "",
    "# only a comment\n",
    SALES_TAX,
    'PERMISSION ON TRANSFER_REQUEST;',
    'PROHIBITION ON TRANSFER_REQUEST IF category == "stolen_goods";',
    'PROHIBITION ON TRANSFER_REQUEST IF category == "weapons" AND licence == NONE;',
    "OBLIGATION ON TICK IF now > 100 DO ZEROISE;",
    "PROHIBITION ON TRANSFER_REQUEST IF now > 100;",
    'OBLIGATION ON TICK IF last_contact > 360 DO ZEROISE, NOTIFY "government";',
    'OBLIGATION ON TICK IF location != "HOME" DO ZEROISE, NOTIFY "government";',
    'OBLIGATION ON ATTEST_FAIL DO ZEROISE, NOTIFY "government";',
    'OBLIGATION ON TAMPER DO NOTIFY "government";',
    "OBLIGATION ON TICK DO MOVE_TO_BEST_RATE;",
    'OBLIGATION ON RECEIVE IF amount > 1000 DO PAY 1/100 TO "levy";',
    'OBLIGATION ON RECEIVE IF amount < 10 OR amount > 100000 DO NOTIFY "auditor";',
    'PROHIBITION ON RECEIVE IF counterparty == "blacklisted";',
    'PROHIBITION ON TRANSFER_REQUEST IF home != "HOME" AND location != "HOME";',
    'OBLIGATION ON RECEIVE IF expiry != NONE AND now > 50 DO NOTIFY "registry";',
    "PERMISSION ON RECEIVE IF amount < 5;",
    'OBLIGATION ON RECEIVE DO PAY 0/1 TO "nobody";',
    'OBLIGATION ON RECEIVE DO PAY 1/1 TO "everything";',
    'OBLIGATION ON RECEIVE DO PAY 1bp TO "dust";',
    'OBLIGATION ON RECEIVE DO PAY 10000bp TO "all";',
    'OBLIGATION ON TICK IF amount == 0 DO NOTIFY "empty";',
    'OBLIGATION ON TICK IF licence != NONE DO NOTIFY "licenced";',
    'PROHIBITION ON TICK IF now < 5;',
    "OBLIGATION ON TRANSFER_REQUEST DO FORBID;",
    'OBLIGATION ON RECEIVE IF category == "sale" AND amount > 10 AND counterparty != "self" DO PAY 5/100 TO "a", PAY 3/100 TO "b";',
    'OBLIGATION ON RECEIVE IF category == "a" OR category == "b" OR category == "c" DO NOTIFY "multi";',
    "PROHIBITION ON TAMPER;",
    "PROHIBITION ON ATTEST_FAIL IF location == NONE;",
    'OBLIGATION ON RECEIVE IF category == "sale" DO PAY 2000bp TO "t", NOTIFY "g", ZEROISE;',
    SALES_TAX + "\n" + "OBLIGATION ON TICK IF now > 100 DO ZEROISE;",
    "  OBLIGATION   ON   TICK\n  DO\n  ZEROISE ;  # messy whitespace",
]


class TestParse:
    def test_empty_program(self):
        program = parse("")
        assert program.rules == ()
        assert program.source_canonical == ""
        assert program.text_hash == h64(b"")

    def test_none_parses_to_python_none(self):
        # NONE is the value of an absent field, and prints back as NONE
        program = parse("PROHIBITION ON RECEIVE IF licence == NONE;")
        assert program.rules[0].condition[0][0] == Comparison("licence", "==", None)
        assert program.source_canonical == "PROHIBITION ON RECEIVE IF licence == NONE;"

    def test_sales_tax_ast(self):
        # hand-derived from the grammar
        program = parse(SALES_TAX)
        assert program.rules == (
            Rule(
                kind=RuleKind.OBLIGATION,
                event=EventKind.RECEIVE,
                condition=((Comparison("category", "==", "sale"),),),
                actions=(
                    PayAction(FractionLit(2000, 10_000, basis_points=True), "tax_authority"),
                ),
            ),
        )
        assert program.text_hash == h64(program.source_canonical.encode())

    # every lexer and parser error: the source, then where and why it fails
    @pytest.mark.parametrize(
        "source, line, col, reason",
        [
            ("OBLIGATION ON TICK DO @;", 1, 23, "unexpected character '@'"),
            # a non-ASCII digit is no digit of the language
            ("OBLIGATION ON TICK IF now > ² DO ZEROISE;", 1, 29, "unexpected character '²'"),
            ('OBLIGATION ON RECEIVE IF category == "sale DO ZEROISE;', 1, 38, "unterminated string"),
            ("OBLIGATION ON TICK IF now > 10x DO ZEROISE;", 1, 29, "bad integer suffix after '10'"),
            # longer than int() converts from text by default
            (
                "PROHIBITION ON TICK IF now > " + "9" * 5000 + ";",
                1,
                30,
                "integer too long (5000 digits)",
            ),
            ('OBLIGATION ON RECEIVE DO PAY 2000bpx TO "t";', 1, 30, "bad integer suffix after '2000'"),
            ("DUTY ON RECEIVE;", 1, 1, "unknown rule kind 'DUTY'"),
            ("OBLIGATION IN RECEIVE;", 1, 12, "expected 'ON', found 'IN'"),
            ("OBLIGATION ON SUNRISE;", 1, 15, "unknown event 'SUNRISE'"),
            ("OBLIGATION ON TICK IF NOW > 1;", 1, 23, "expected field name, found 'NOW'"),
            ("OBLIGATION ON TICK IF now 1;", 1, 27, "expected comparison operator, found '1'"),
            ("OBLIGATION ON TICK IF now > ON;", 1, 29, "expected literal, found 'ON'"),
            ("OBLIGATION ON TICK DO ;", 1, 23, "expected action, found ';'"),
            ("OBLIGATION ON TICK DO SPEND;", 1, 23, "unknown action 'SPEND'"),
            ("OBLIGATION ON RECEIVE DO PAY 1/5 TO tax;", 1, 37, "expected quoted payee, found 'tax'"),
            (
                "OBLIGATION ON TICK DO NOTIFY government;",
                1,
                30,
                "expected quoted target, found 'government'",
            ),
            ('OBLIGATION ON RECEIVE DO PAY half TO "t";', 1, 30, "expected fraction, found 'half'"),
            ('OBLIGATION ON RECEIVE DO PAY 1/ TO "t";', 1, 33, "expected denominator, found 'TO'"),
            ("OBLIGATION ON TICK DO ZEROISE", 1, 30, "expected ';', found ''"),
            # the end of input is where the trailing comment ends
            ("OBLIGATION#c", 1, 13, "expected 'ON', found ''"),
        ],
        ids=[
            "unexpected_character",
            "non_ascii_digit",
            "unterminated_string",
            "bad_integer_suffix",
            "integer_too_long",
            "bad_basis_point_suffix",
            "unknown_rule_kind",
            "expected_on",
            "unknown_event",
            "expected_field_name",
            "expected_operator",
            "expected_literal",
            "expected_action",
            "unknown_action",
            "expected_payee",
            "expected_target",
            "expected_fraction",
            "expected_denominator",
            "missing_semicolon",
            "trailing_comment",
        ],
    )
    def test_parse_error(self, source, line, col, reason):
        with pytest.raises(ParseError) as exc_info:
            parse(source)
        error = exc_info.value
        assert (error.line, error.col, error.reason) == (line, col, reason)
        assert str(error) == f"line {line}, col {col}: {reason}"

    def test_error_position_on_later_line(self):
        source = SALES_TAX + "\nOBLIGATION ON RECEIVE DO SPEND;"
        with pytest.raises(ParseError) as exc_info:
            parse(source)
        assert (exc_info.value.line, exc_info.value.col) == (2, 26)

    def test_unknown_field_is_not_a_parse_error(self):
        # fields are validated by check(), not the parser
        program = parse('PROHIBITION ON RECEIVE IF colour == "red";')
        assert len(program.rules) == 1

    @pytest.mark.parametrize("source", CORPUS)
    def test_corpus_parses(self, source):
        parse(source)


class TestCanonicalize:
    def test_whitespace_normalization(self):
        messy = 'OBLIGATION  ON  RECEIVE\n   IF category == "sale"\n DO PAY 2000bp TO "tax_authority" ;'
        assert parse(messy).source_canonical == parse(SALES_TAX).source_canonical

    def test_idempotent(self):
        for source in CORPUS:
            canonical = parse(source).source_canonical
            assert parse(canonical).source_canonical == canonical

    def test_token_identical_policies_hash_equal(self):
        spaced = 'OBLIGATION ON RECEIVE IF amount > 10 DO PAY 1 / 5 TO "x";'
        tight = 'OBLIGATION ON RECEIVE IF amount>10 DO PAY 1/5 TO "x";'
        assert parse(spaced).text_hash == parse(tight).text_hash

    def test_comments_stripped(self):
        commented = "# leading comment\n" + SALES_TAX + " # trailing"
        assert parse(commented).text_hash == parse(SALES_TAX).text_hash

    @pytest.mark.parametrize("source", CORPUS)
    def test_round_trip_fixpoint(self, source):
        once = parse(source)
        again = parse(once.source_canonical)
        assert again.rules == once.rules
        assert again.source_canonical == once.source_canonical
        assert again.text_hash == once.text_hash

    def test_round_trip_on_random_programs(self):
        # render randomly built ASTs and re-parse them
        rng = random.Random(314)
        for _ in range(300):
            rules = tuple(random_rule(rng) for _ in range(rng.randrange(0, 4)))
            text = pol.render_rules(rules)
            assert parse(text).rules == rules


# strategies for every AST the grammar can print: any lowercase field name
# (checking, not parsing, rejects unknown ones), non-negative integers,
# strings without a quote or newline, both fraction forms, every action
_strings = st.text(
    st.characters(exclude_categories=["Cs"], exclude_characters='"\n'), max_size=12
)
_literals = st.one_of(st.integers(0, 10**30), _strings, st.none())
_comparisons = st.builds(
    Comparison,
    st.one_of(st.sampled_from(pol.FIELDS), st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)),
    st.sampled_from(pol.OPS),
    _literals,
)
_conditions = st.lists(
    st.lists(_comparisons, min_size=1, max_size=3).map(tuple), min_size=1, max_size=3
).map(tuple)
_fractions = st.one_of(
    st.builds(FractionLit, st.integers(0, 10**6), st.just(10_000), st.just(True)),
    st.builds(FractionLit, st.integers(0, 10**6), st.integers(0, 10**6)),
)
_actions = st.one_of(
    st.builds(PayAction, _fractions, _strings),
    st.just(pol.ForbidAction()),
    st.just(pol.ZeroiseAction()),
    st.builds(NotifyAction, _strings),
    st.just(pol.MoveToBestRateAction()),
)
_rules = st.builds(
    Rule,
    st.sampled_from(RuleKind),
    st.sampled_from(EventKind),
    st.just(()) | _conditions,
    st.lists(_actions, max_size=3).map(tuple),
)


@given(st.lists(_rules, max_size=4).map(tuple))
def test_render_parse_round_trip_property(rules):
    text = pol.render_rules(rules)
    program = parse(text)
    assert program.rules == rules
    # rendered text is canonical: it parses and prints to itself
    assert program.source_canonical == text


# every keyword, some field names, every operator and punctuation mark,
# well- and ill-formed numbers and strings, a comment, whitespace, and
# non-ASCII letters, digits and space
_SOUP = sorted(
    pol._KEYWORDS
    | {"now", "category", "colour", "==", "!=", "<", ">", ";", ",", "/"}
    | {"10", "2000bp", "12x", "5bpx", '"sale"', '"x', "#c", " ", "\t", "\n"}
    | {"é", "²", "٣", "½", "\u00a0"}
)


@settings(max_examples=150)
@given(st.lists(st.sampled_from(_SOUP), max_size=30).map("".join))
def test_parse_fails_only_with_a_positioned_parse_error(source):
    # any text either parses to a program whose canonical print re-parses
    # to the same rules, or fails with a ParseError that says where
    try:
        program = parse(source)
    except ParseError as error:
        assert type(error) is ParseError
        assert error.line >= 1 and error.col >= 1
    else:
        assert parse(program.source_canonical).rules == program.rules


def random_rule(rng):
    kind = rng.choice(list(RuleKind))
    event = rng.choice(list(EventKind))
    condition = ()
    if rng.random() < 0.7:
        condition = tuple(
            tuple(random_comparison(rng) for _ in range(rng.randrange(1, 3)))
            for _ in range(rng.randrange(1, 3))
        )
    actions = tuple(random_action(rng) for _ in range(rng.randrange(0, 3)))
    return Rule(kind, event, condition, actions)


def random_comparison(rng):
    field = rng.choice(pol.FIELDS)
    op = rng.choice(pol.OPS)
    literal = rng.choice([rng.randrange(0, 1000), "token_" + str(rng.randrange(9)), None])
    return Comparison(field, op, literal)


def random_action(rng):
    roll = rng.random()
    if roll < 0.4:
        den = rng.randrange(1, 10_000)
        if rng.random() < 0.5:
            return PayAction(FractionLit(rng.randrange(0, 10_001), 10_000, True), "payee")
        return PayAction(FractionLit(rng.randrange(0, den + 1), den), "payee")
    if roll < 0.55:
        return pol.ForbidAction()
    if roll < 0.7:
        return pol.ZeroiseAction()
    if roll < 0.85:
        return NotifyAction("target_" + str(rng.randrange(9)))
    return pol.MoveToBestRateAction()


def test_parties_in_rule_order():
    program = compile_policy(
        fiscal.compose(
            'OBLIGATION ON TICK DO NOTIFY "watcher", PAY 1/10 TO "levy";',
            fiscal.sales_tax_policy(Fraction(1, 5)),
            fiscal.tamper_notify_policy(),
            'OBLIGATION ON ATTEST_FAIL DO PAY 1/10 TO "levy", ZEROISE;',
        )
    )
    # each occurrence, a builder's default authority among them
    assert program.parties == ("watcher", "levy", "tax_authority", "government", "levy")


class TestCheck:
    def test_fraction_above_one(self):
        program = parse('OBLIGATION ON RECEIVE DO PAY 15000bp TO "x";')
        errors = program.check_errors
        assert len(errors) == 1
        assert "fraction > 1" in errors[0].message
        assert errors[0].rule_index == 0

    def test_zero_denominator(self):
        program = parse('OBLIGATION ON RECEIVE DO PAY 1/0 TO "x";')
        assert any("zero denominator" in e.message for e in program.check_errors)

    def test_unknown_field(self):
        program = parse('PROHIBITION ON RECEIVE IF colour == "red";')
        errors = program.check_errors
        assert len(errors) == 1
        assert "unknown field 'colour'" in errors[0].message

    def test_pay_inside_prohibition(self):
        program = parse('PROHIBITION ON RECEIVE DO PAY 1/5 TO "x";')
        assert any("PAY inside PROHIBITION" in e.message for e in program.check_errors)

    @pytest.mark.parametrize(
        "action, error",
        [
            ('PAY 1/5 TO "tax|man"', "PAY payee 'tax|man'"),
            ('PAY 1/5 TO "tax,man"', "PAY payee 'tax,man'"),
            ('PAY 1/5 TO "tax man"', "PAY payee 'tax man'"),
            ('PAY 1/5 TO ""', "PAY payee ''"),
            ('NOTIFY "gov|x"', "NOTIFY target 'gov|x'"),
            ('NOTIFY "gov\tx"', "NOTIFY target 'gov\\tx'"),
        ],
    )
    def test_party_the_ledger_cannot_carry(self, action, error):
        # a party is written into ledger and observation lines, which split
        # on '|', ',' and whitespace, so it follows the host-id rule
        program = parse(f"OBLIGATION ON RECEIVE DO {action};")
        assert [str(e) for e in program.check_errors] == [
            f"rule 0: {error} must be one word without '|', ',' or '\"'"
        ]

    @pytest.mark.parametrize(
        "condition, error",
        [
            # a string literal against an integer field
            ('now == "soon"', "'now == \"soon\"' compares an integer field"),
            ('amount != "1000"', "'amount != \"1000\"' compares an integer field"),
            ('expiry == "soon"', "'expiry == \"soon\"' compares an integer field"),
            ('last_contact == "old"', "'last_contact == \"old\"' compares an integer field"),
            # an integer literal against a string field
            ("category == 3", "'category == 3' compares a string field"),
            ("licence != 0", "'licence != 0' compares a string field"),
            # an ordering of a string field, or against a literal not an integer
            ("category > 3", "'category > 3' orders a string field"),
            ('location < "HOME"', "'location < \"HOME\"' orders a string field"),
            ('now > "5"', "'now > \"5\"' orders against a literal that is not an integer"),
            ("expiry < NONE", "'expiry < NONE' orders against a literal that is not an integer"),
            # NONE against a field that is never None
            ("amount == NONE", "'amount == NONE' tests for NONE a field that is never NONE"),
            ("now != NONE", "'now != NONE' tests for NONE a field that is never NONE"),
            ("last_contact == NONE", "'last_contact == NONE' tests for NONE"),
        ],
        ids=[
            "now_string",
            "amount_string",
            "expiry_string",
            "last_contact_string",
            "category_integer",
            "licence_integer",
            "category_ordered",
            "location_ordered",
            "now_ordered_by_string",
            "expiry_ordered_by_none",
            "amount_none",
            "now_none",
            "last_contact_none",
        ],
    )
    def test_comparison_its_types_make_constant(self, condition, error):
        # the evaluator gives each of these one value whatever the context,
        # so the rule would silently never (or always) fire
        program = parse(f"OBLIGATION ON TICK IF {condition} DO ZEROISE;")
        assert [e.rule_index for e in program.check_errors] == [0]
        assert str(program.check_errors[0]).startswith(f"rule 0: {error}")
        with pytest.raises(CheckFailure):
            check(program)

    @pytest.mark.parametrize(
        "condition",
        [
            "now > 5",
            "amount < 100",
            "expiry == NONE",
            "expiry != 40",
            "last_contact > 360",
            'category == "sale"',
            "licence == NONE",
            'home != "HOME"',
            'counterparty == "bob" AND location != NONE',
        ],
        ids=lambda condition: condition.split()[0],
    )
    def test_comparison_of_matching_types_checks_clean(self, condition):
        assert parse(f"OBLIGATION ON TICK IF {condition} DO ZEROISE;").check_errors == ()

    def test_error_names_rule_index(self):
        program = parse(SALES_TAX + '\nOBLIGATION ON RECEIVE DO PAY 2/1 TO "x";')
        errors = program.check_errors
        assert [e.rule_index for e in errors] == [1]

    def test_valid_sales_tax_checks_clean(self):
        checked = check(parse(SALES_TAX))
        assert checked.text_hash == parse(SALES_TAX).text_hash

    def test_check_raises_with_all_errors(self):
        program = parse(
            'PROHIBITION ON RECEIVE DO PAY 3/1 TO "x";\nOBLIGATION ON TICK IF shape == 1;'
        )
        with pytest.raises(CheckFailure) as exc_info:
            check(program)
        assert len(exc_info.value.errors) == 3  # >1 fraction, PAY-in-PROHIBITION, field

    def test_check_errors_worked_out_once(self):
        program = parse('OBLIGATION ON RECEIVE DO PAY 9/1 TO "x";')
        errors = program.check_errors
        assert errors == (pol.CheckError(0, "fraction > 1"),)
        assert program.check_errors is errors

    def test_check_returns_the_program_itself(self):
        program = parse(SALES_TAX)
        assert program.check_errors == ()
        assert check(program) is program


class TestDeadline:
    @pytest.mark.parametrize(
        "source, deadline",
        [
            ("", None),
            (SALES_TAX, None),
            ("OBLIGATION ON TICK IF now > 100 DO ZEROISE;", 100),
            # the earliest deadline of any rule, for any event
            (
                "PROHIBITION ON TRANSFER_REQUEST IF now > 100;\n"
                "OBLIGATION ON TICK IF now > 40 DO ZEROISE;",
                40,
            ),
            # only a tick `now` must exceed is a deadline
            ("PROHIBITION ON TICK IF now < 5;", None),
            ("PROHIBITION ON RECEIVE IF now == 5;", None),
            # any integer compared against expiry is one
            ("PROHIBITION ON RECEIVE IF expiry < 30;", 30),
            ('OBLIGATION ON RECEIVE IF expiry != NONE AND now > 50 DO NOTIFY "registry";', 50),
            ('PROHIBITION ON RECEIVE IF expiry == "soon";', None),
            ("OBLIGATION ON TICK IF last_contact > 360 DO ZEROISE;", None),
        ],
        ids=[
            "empty",
            "sales_tax",
            "now_above",
            "earliest_rule",
            "now_below",
            "now_equal",
            "expiry_below",
            "expiry_and_now",
            "expiry_string",
            "last_contact",
        ],
    )
    def test_deadline(self, source, deadline):
        # parsed, not checked: the check refuses the ill-typed `expiry == "soon"`
        assert parse(source).deadline == deadline


class TestEvaluate:
    def test_sales_tax_example(self):
        checked = compile_policy(SALES_TAX)
        decision = evaluate(
            checked, EventKind.RECEIVE, EvalContext(amount=1000, category="sale")
        )
        assert decision.permitted
        assert decision.obligations == (
            pol.PayObligation(payee="tax_authority", amount=200, rule_index=0),
        )

    def test_prohibition_precedence(self):
        checked = compile_policy(
            'PROHIBITION ON TRANSFER_REQUEST IF category == "weapons" AND licence == NONE;'
        )
        decision = evaluate(
            checked,
            EventKind.TRANSFER_REQUEST,
            EvalContext(amount=10, category="weapons"),
        )
        assert not decision.permitted
        assert decision.obligations == ()

    def test_licence_satisfies_prohibition(self):
        checked = compile_policy(
            'PROHIBITION ON TRANSFER_REQUEST IF category == "weapons" AND licence == NONE;'
        )
        decision = evaluate(
            checked,
            EventKind.TRANSFER_REQUEST,
            EvalContext(amount=10, category="weapons", licence="arms_permit"),
        )
        assert decision.permitted

    def test_empty_policy_default_permit(self):
        for event in EventKind:
            decision = evaluate(pol.EMPTY_POLICY, event, EvalContext())
            assert decision.permitted
            assert decision.obligations == ()

    def test_precedence_table_all_eight_subsets(self):
        prohibition = 'PROHIBITION ON RECEIVE IF amount > 0;'
        obligation = 'OBLIGATION ON RECEIVE IF amount > 0 DO PAY 1/10 TO "t";'
        permission = "PERMISSION ON RECEIVE IF amount > 0;"
        ctx = EvalContext(amount=100)
        for has_p, has_o, has_perm in itertools.product([False, True], repeat=3):
            rules = [
                source
                for present, source in (
                    (has_p, prohibition),
                    (has_o, obligation),
                    (has_perm, permission),
                )
                if present
            ]
            checked = compile_policy("\n".join(rules))
            decision = evaluate(checked, EventKind.RECEIVE, ctx)
            if has_p:
                assert not decision.permitted
                assert decision.obligations == ()
            else:
                assert decision.permitted
                if has_o:
                    assert decision.obligations == (
                        pol.PayObligation(payee="t", amount=10, rule_index=rules.index(obligation)),
                    )
                else:
                    assert decision.obligations == ()

    def test_forbid_action_forbids(self):
        checked = compile_policy("OBLIGATION ON TRANSFER_REQUEST DO FORBID;")
        decision = evaluate(checked, EventKind.TRANSFER_REQUEST, EvalContext())
        assert not decision.permitted

    def test_evaluation_is_pure(self):
        checked = compile_policy(SALES_TAX)
        ctx = EvalContext(amount=999, category="sale")
        first = evaluate(checked, EventKind.RECEIVE, ctx)
        for _ in range(5):
            assert evaluate(checked, EventKind.RECEIVE, ctx) == first

    def test_pay_arithmetic_floor(self):
        checked = compile_policy('OBLIGATION ON RECEIVE DO PAY 1/5 TO "t";')
        for amount, expected in [(1000, 200), (999, 199), (4, 0), (0, 0)]:
            decision = evaluate(checked, EventKind.RECEIVE, EvalContext(amount=amount))
            assert decision.obligations[0].amount == expected

    def test_pay_amount_bounds_property(self):
        # 0 <= floor(amount * num/den) <= amount for fractions in [0, 1]
        rng = random.Random(21)
        for _ in range(500):
            den = rng.randrange(1, 10_000)
            num = rng.randrange(0, den + 1)
            amount = rng.randrange(0, 10**9)
            pay = pol.pay_amount(amount, FractionLit(num, den))
            assert 0 <= pay <= amount

    def test_or_and_precedence(self):
        # AND binds tighter: a OR b AND c == a OR (b AND c)
        checked = compile_policy(
            'PROHIBITION ON RECEIVE IF amount > 100 OR category == "x" AND licence == NONE;'
        )
        forbid = lambda ctx: not evaluate(checked, EventKind.RECEIVE, ctx).permitted
        assert forbid(EvalContext(amount=101))
        assert forbid(EvalContext(amount=1, category="x"))
        assert not forbid(EvalContext(amount=1, category="x", licence="yes"))
        assert not forbid(EvalContext(amount=1, category="y"))

    def test_none_sentinel_comparisons(self):
        checked = compile_policy("PROHIBITION ON RECEIVE IF expiry == NONE;")
        assert not evaluate(checked, EventKind.RECEIVE, EvalContext()).permitted
        assert evaluate(checked, EventKind.RECEIVE, EvalContext(expiry=7)).permitted

    def test_ordering_on_non_integers_never_matches(self):
        # parsed, not checked: the check refuses an ordering of a string field
        checked = parse('PROHIBITION ON RECEIVE IF category > 5;')
        decision = evaluate(checked, EventKind.RECEIVE, EvalContext(category="sale"))
        assert decision.permitted

    def test_zeroise_reason_derivation(self):
        cases = [
            ("OBLIGATION ON TICK IF now > 10 DO ZEROISE;", EventKind.TICK, "expiry"),
            (
                "OBLIGATION ON TICK IF last_contact > 10 DO ZEROISE;",
                EventKind.TICK,
                "contact",
            ),
            (
                'OBLIGATION ON TICK IF location != "HOME" DO ZEROISE;',
                EventKind.TICK,
                "jurisdiction",
            ),
            ("OBLIGATION ON TAMPER DO ZEROISE;", EventKind.TAMPER, "tamper"),
            ("OBLIGATION ON ATTEST_FAIL DO ZEROISE;", EventKind.ATTEST_FAIL, "attest_fail"),
            ("OBLIGATION ON TICK DO ZEROISE;", EventKind.TICK, "policy"),
        ]
        for source, event, reason in cases:
            checked = compile_policy(source)
            ctx = EvalContext(now=100, location="ABROAD", last_contact=100)
            decision = evaluate(checked, event, ctx)
            zeroises = [o for o in decision.obligations if isinstance(o, ZeroiseObligation)]
            assert zeroises and zeroises[0].reason == reason, source

    def test_obligations_resolve_in_rule_order(self):
        checked = compile_policy(
            'OBLIGATION ON RECEIVE DO PAY 1/10 TO "first";\n'
            'OBLIGATION ON RECEIVE DO NOTIFY "second";'
        )
        decision = evaluate(checked, EventKind.RECEIVE, EvalContext(amount=100))
        assert isinstance(decision.obligations[0], pol.PayObligation)
        assert isinstance(decision.obligations[1], NotifyAction) is False
        assert decision.obligations[1].target == "second"

    def test_rule_index_holds_each_events_rules_in_order(self):
        checked = compile_policy(
            "OBLIGATION ON TICK IF now > 5 DO ZEROISE;\n"
            'PROHIBITION ON TRANSFER_REQUEST IF category == "x";\n'
            'OBLIGATION ON TICK DO NOTIFY "n";'
        )
        index = checked.by_event
        assert set(index) == set(EventKind)
        assert [(i, rule) for i, rule, _ in index[EventKind.TICK]] == [
            (0, checked.rules[0]),
            (2, checked.rules[2]),
        ]
        assert [i for i, _, _ in index[EventKind.TRANSFER_REQUEST]] == [1]
        assert index[EventKind.RECEIVE] == () and index[EventKind.TAMPER] == ()
        assert checked.by_event is index  # compiled once per program

    def test_rebuilt_program_gets_its_own_index(self):
        # a program rebuilt around the same text (as a tamper does) is matched
        # by its own rules, not by the index of the program it copies
        checked = compile_policy("PROHIBITION ON RECEIVE;")
        assert not evaluate(checked, EventKind.RECEIVE, EvalContext()).permitted
        rebuilt = pol.PolicyProgram((), checked.source_canonical)
        assert evaluate(rebuilt, EventKind.RECEIVE, EvalContext()).permitted


# -- a reference evaluator: rule by rule, condition by condition --------------


def reference_compare(value, op, literal):
    if op == "==":
        return value == literal
    if op == "!=":
        return value != literal
    # ordering is defined over integers only; anything else never matches
    if isinstance(value, bool) or not isinstance(value, int):
        return False
    if not isinstance(literal, int):
        return False
    return value < literal if op == "<" else value > literal


def reference_matches(rule, event, ctx):
    if rule.event is not event:
        return False
    if not rule.condition:
        return True
    return any(
        all(reference_compare(getattr(ctx, f.field), f.op, f.literal) for f in term)
        for term in rule.condition
    )


def reference_zeroise_reason(rule, event):
    if event is EventKind.TAMPER:
        return "tamper"
    if event is EventKind.ATTEST_FAIL:
        return "attest_fail"
    fields = {factor.field for term in rule.condition for factor in term}
    if "last_contact" in fields:
        return "contact"
    if "location" in fields or "home" in fields:
        return "jurisdiction"
    if "expiry" in fields or "now" in fields:
        return "expiry"
    return "policy"


def reference_evaluate(checked, event, ctx):
    matching = [
        (i, rule) for i, rule in enumerate(checked.rules) if reference_matches(rule, event, ctx)
    ]
    for _, rule in matching:
        if rule.kind is RuleKind.PROHIBITION or any(
            isinstance(a, pol.ForbidAction) for a in rule.actions
        ):
            return pol.Decision(False)
    obligations = []
    for i, rule in matching:
        if rule.kind is not RuleKind.OBLIGATION:
            continue
        for action in rule.actions:
            if isinstance(action, PayAction):
                amount = ctx.amount * action.fraction.num // action.fraction.den
                obligations.append(pol.PayObligation(action.payee, amount, i))
            elif isinstance(action, NotifyAction):
                obligations.append(pol.NotifyObligation(action.target, i))
            elif isinstance(action, pol.ZeroiseAction):
                obligations.append(ZeroiseObligation(reference_zeroise_reason(rule, event), i))
            elif isinstance(action, pol.MoveToBestRateAction):
                obligations.append(pol.MoveToBestRateObligation(i))
    return pol.Decision(True, tuple(obligations))


# literals and context values drawn from one small pool, so that == and the
# orderings match often; strings, bools and None sit beside the integers
LITERALS = [0, 1, 5, 12, "HOME", "ABROAD", "sale", "5", None]
CONTEXT_VALUES = [None, 0, 1, 5, 12, True, False, "HOME", "ABROAD", "sale", "5"]


def differential_rule(rng, events):
    kind = rng.choice(list(RuleKind))
    condition = ()
    if rng.random() < 0.8:
        condition = tuple(
            tuple(
                Comparison(rng.choice(pol.FIELDS), rng.choice(pol.OPS), rng.choice(LITERALS))
                for _ in range(rng.randrange(1, 4))
            )
            for _ in range(rng.randrange(1, 4))
        )
    actions = tuple(
        action
        for action in (random_action(rng) for _ in range(rng.randrange(0, 3)))
        if not (kind is RuleKind.PROHIBITION and isinstance(action, PayAction))
    )
    return Rule(kind, rng.choice(events), condition, actions)


def differential_context(rng):
    values = {name: rng.choice(CONTEXT_VALUES) for name in pol.FIELDS}
    values["amount"] = rng.choice([0, 7, 1000, 10**9, True, False])
    return EvalContext(**values)


def test_evaluate_agrees_with_the_reference_evaluator():
    rng = random.Random(8)
    seen = set()
    for _ in range(400):
        # each program leaves some events without rules
        events = rng.sample(list(EventKind), rng.randrange(1, len(EventKind)))
        rules = tuple(differential_rule(rng, events) for _ in range(rng.randrange(0, 6)))
        # parsed, not checked: the rules may compare fields with ill-typed literals
        checked = parse(pol.render_rules(rules))
        assert checked.rules == rules
        for _ in range(12):
            ctx = differential_context(rng)
            for event in EventKind:
                expected = reference_evaluate(checked, event, ctx)
                assert evaluate(checked, event, ctx) == expected, (rules, event, ctx)
                seen.add(expected.permitted)
                seen.update(type(ob) for ob in expected.obligations)
    # the stream reached both outcomes and every kind of obligation
    assert seen == {
        True,
        False,
        pol.PayObligation,
        pol.NotifyObligation,
        ZeroiseObligation,
        pol.MoveToBestRateObligation,
    }


# TICK conditions over the two fields that move with time, with every
# operator and both literal kinds; a string never equals a tick and never orders
_tick_comparisons = st.builds(
    Comparison,
    st.sampled_from(["now", "last_contact"]),
    st.sampled_from(pol.OPS),
    st.integers(0, 40) | st.sampled_from(["7", "x"]),
)
_tick_conditions = st.lists(
    st.lists(_tick_comparisons, min_size=1, max_size=3).map(tuple), min_size=1, max_size=3
).map(tuple)
_tick_rules = st.builds(
    Rule,
    st.just(RuleKind.OBLIGATION),
    st.just(EventKind.TICK),
    _tick_conditions,
    st.just((NotifyAction("government"),)),
)


@settings(max_examples=60)
@given(
    rules=st.lists(_tick_rules, min_size=1, max_size=3).map(tuple),
    now=st.integers(0, 60),
    contact_origin=st.integers(0, 60),
)
def test_no_tick_matcher_changes_before_next_tick_change(rules, now, contact_origin):
    # parsed, not checked: the rules may compare fields with ill-typed literals
    program = parse(pol.render_rules(rules))
    after = program.next_tick_change(now, contact_origin)
    assert after is None or after > now
    end = now + 2_000 if after is None else after

    def truths(tick):
        ctx = EvalContext(now=tick, last_contact=tick - contact_origin, location="HOME")
        return [matches(ctx) for _, _, matches in program.by_event[EventKind.TICK]]

    first = truths(now)
    assert all(truths(tick) == first for tick in range(now + 1, end)), (rules, now, after)
