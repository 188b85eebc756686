import pytest

from softlogic.lang import (
    And,
    Atom,
    CoeffBuiltin,
    CoeffCardinality,
    CoeffNumber,
    CoeffOp,
    ComparisonAtom,
    Constant,
    Implies,
    Neg,
    NormalizationError,
    Or,
    SyntaxErrorWithLocation,
    Variable,
    format_program,
    normalize_logical,
    parse_program,
)

# Modeling-pattern corpus: domain/range, similarity, priors, blocking,
# aggregates. Used for round-trip and validation coverage.
PATTERN_CORPUS = """
// domain and range rules
Label(Document, +LabelName) = 1 .
Advisor(+Professor, Student) = 1 .
Same(Person1, +Person2) <= 1 .
Same(+Person1, Person2) <= 1 .

/* similarity with a functional predicate */
1.0 : Name(P1, N1) & Name(P2, N2) & Similar(N1, N2) -> Same(P1, P2)

0.1 : !Link(A, B)  // prior toward absence

2.0 : InCanopy(A, B) & Link(A, B) & Feature(A, F) -> Feature(B, F)

1.0 : AverageFriendInterest(P, I) -> Interest(P, I)
AverageFriendInterest(P, I) = 1 / |F| Interest(+F, I) .
{F : Friends(P, F)}

SameFriends(A, B) = 1 / @Max[|FA|, |FB|] SamePerson(+FA, +FB) .
{FA : Friends(A, FA)}
{FB : Friends(B, FB)}
"""


class TestParsing:
    def test_weighted_logical_rule(self):
        prog = parse_program("10 : Advisor(P, S) & Department(P, D) -> Department(S, D)")
        (rule,) = prog.rules
        assert rule.kind == "logical"
        assert rule.weight == 10.0
        assert not rule.squared
        assert isinstance(rule.expression, Implies)

    def test_hard_arithmetic_with_sum_variable(self):
        prog = parse_program("Label(X, +L) = 1 .")
        (rule,) = prog.rules
        assert rule.kind == "arithmetic"
        assert rule.weight is None
        assert rule.relation == "="
        assert rule.sum_variables == ("L",)
        assert rule.rhs[0].coeff == CoeffNumber(1.0)

    def test_cardinality_quotient_coefficient(self):
        prog = parse_program("1 / |Y| Friends(X, +Y) = Friendliness(X) .")
        (rule,) = prog.rules
        coeff = rule.lhs[0].coeff
        assert isinstance(coeff, CoeffOp) and coeff.op == "/"
        assert coeff.right == CoeffCardinality("Y")

    def test_stacked_cardinalities_divide_together(self):
        prog = parse_program("1 / |A| |B| Friends(X, +A) + 1 Friends(+B, X) = 1 .")
        coeff = prog.rules[0].lhs[0].coeff
        assert coeff.op == "/"
        assert isinstance(coeff.right, CoeffOp) and coeff.right.op == "*"

    def test_builtin_call(self):
        prog = parse_program("Matched(+X, +Y) = @Min[|X|, |Y|] .")
        coeff = prog.rules[0].rhs[0].coeff
        assert coeff == CoeffBuiltin("Min", (CoeffCardinality("X"), CoeffCardinality("Y")))

    def test_squared_flag(self):
        prog = parse_program("3 : Friends(A, B) -> Friends(B, A) ^2")
        assert prog.rules[0].squared

    def test_select_binds_to_preceding_rule(self):
        prog = parse_program(
            "10 : Extroverted(X) <= 1 / |Y| Extroverted(+Y) ^2\n"
            "{Y : Friends(X, Y) || Friends(Y, X)}"
        )
        (rule,) = prog.rules
        assert len(rule.selects) == 1
        assert rule.selects[0].var == "Y"
        assert isinstance(rule.selects[0].clause, Or)

    def test_comparison_atom(self):
        prog = parse_program("1 : Lived(P1, L) & Lived(P2, L) & (P1 != P2) -> Knows(P1, P2)")
        body = prog.rules[0].expression.body
        assert isinstance(body.right, ComparisonAtom)

    def test_comments_and_whitespace(self):
        prog = parse_program(
            "// leading comment\n1 :\n  A(X)\n  /* spans\n lines */ -> B(X)"
        )
        assert len(prog.rules) == 1

    def test_quoted_constants_with_escapes(self):
        prog = parse_program(r'1 : Name(P, "says \"hi\"") -> Known(P)')
        atom = prog.rules[0].expression.body
        assert atom.args[1] == Constant('says "hi"')

    def test_scientific_notation_weight(self):
        prog = parse_program("1.5e-2 : !Link(A, B)")
        assert prog.rules[0].weight == pytest.approx(0.015)

    def test_alternate_operator_spellings(self):
        a = parse_program("1 : A(X) && B(X) >> C(X)")
        b = parse_program("1 : A(X) & B(X) -> C(X)")
        assert a.rules == b.rules
        c = parse_program("1 : ~A(X)")
        d = parse_program("1 : !A(X)")
        assert c.rules == d.rules

    def test_reverse_implication(self):
        prog = parse_program("1 : A(X) << B(X)")
        rule = prog.rules[0]
        assert rule.expression == Implies(body=Atom("B", (Variable("X"),)), head=Atom("A", (Variable("X"),)))

    def test_precedence_not_and_or_implies(self):
        prog = parse_program("1 : !A(X) & B(X) | C(X) -> D(X)")
        expr = prog.rules[0].expression
        assert isinstance(expr, Implies)
        assert isinstance(expr.body, Or)
        assert isinstance(expr.body.left, And)
        assert isinstance(expr.body.left.left, Neg)

    def test_source_spans(self):
        prog = parse_program("\n\n1 : A(X)\nB(X) = 1 .")
        assert prog.spans[0] == (3, 1)
        assert prog.spans[1] == (4, 1)

    def test_adjacent_statements_without_newlines(self):
        prog = parse_program("1 : A(X) 2 : B(X) C(X) = 1 .")
        assert [r.kind for r in prog.rules] == ["logical", "logical", "arithmetic"]


class TestParseErrors:
    def test_syntax_error_carries_location(self):
        with pytest.raises(SyntaxErrorWithLocation) as err:
            parse_program("1 : A(X) ->")
        assert err.value.line == 1

    def test_negative_weight(self):
        with pytest.raises(SyntaxErrorWithLocation, match="nonnegative"):
            parse_program("-1 : A(X)")

    def test_squared_hard_rule(self):
        with pytest.raises(SyntaxErrorWithLocation, match="squared"):
            parse_program("A(X) -> B(X) ^2 .")

    def test_weighted_rule_with_period(self):
        with pytest.raises(SyntaxErrorWithLocation):
            parse_program("1 : A(X) -> B(X) .")

    def test_bare_rule_rejected(self):
        with pytest.raises(SyntaxErrorWithLocation, match="weighted or end"):
            parse_program("A(X) -> B(X)")

    def test_duplicate_sum_variable(self):
        with pytest.raises(SyntaxErrorWithLocation, match="more than once"):
            parse_program("Friends(X, +Y) + Knows(X, +Y) = 1 .")

    def test_select_for_unknown_sum_variable(self):
        with pytest.raises(SyntaxErrorWithLocation, match="unknown sum variable"):
            parse_program("Friends(X, +Y) = 1 .\n{Z : Closed(Z)}")

    def test_select_after_logical_rule(self):
        with pytest.raises(SyntaxErrorWithLocation, match="arithmetic"):
            parse_program("1 : A(X)\n{X : B(X)}")

    def test_sum_variable_in_logical_rule(self):
        with pytest.raises(SyntaxErrorWithLocation, match="sum variables"):
            parse_program("1 : Friends(X, +Y)")

    def test_cardinality_without_sum_variable(self):
        with pytest.raises(SyntaxErrorWithLocation, match="cardinality"):
            parse_program("1 / |Z| Friends(X, +Y) = 1 .")

    def test_unterminated_constant(self):
        with pytest.raises(SyntaxErrorWithLocation):
            parse_program('1 : A("oops)')

    def test_malformed_relation_right_side(self):
        with pytest.raises(SyntaxErrorWithLocation, match="arithmetic term"):
            parse_program("A(X) <= .")

    def test_pathological_nesting_reports_cleanly(self):
        with pytest.raises(SyntaxErrorWithLocation):
            parse_program("1 : " + "!" * 100000 + "A(X)")


class TestRoundTrip:
    def test_pattern_corpus(self):
        prog = parse_program(PATTERN_CORPUS)
        printed = format_program(prog)
        again = parse_program(printed)
        assert again.rules == prog.rules

    def test_round_trip_is_stable(self):
        prog = parse_program(PATTERN_CORPUS)
        once = format_program(prog)
        twice = format_program(parse_program(once))
        assert once == twice


class TestNormalization:
    def _literal_set(self, rule):
        return sorted((lit.atom.render(), lit.negated) for lit in rule.literals)

    def test_worked_rewrite(self):
        prog = parse_program("1 : P1(A, B) & P2(A, B) -> P3(A, B) | P4(A, B)")
        rule = normalize_logical(prog.rules[0])
        expected = parse_program("1 : !P1(A, B) | !P2(A, B) | P3(A, B) | P4(A, B)")
        assert self._literal_set(rule) == self._literal_set(
            normalize_logical(expected.rules[0])
        )

    def test_already_disjunctive_unchanged(self):
        prog = parse_program("1 : !A(X) | B(X)")
        rule = normalize_logical(prog.rules[0])
        assert rule.expression == prog.rules[0].expression

    def test_reverse_implication_rewrite(self):
        prog = parse_program("1 : A(X) << B(X)")
        rule = normalize_logical(prog.rules[0])
        assert self._literal_set(rule) == [("A(X)", False), ("B(X)", True)]

    def test_idempotent(self):
        prog = parse_program("2 : A(X) & B(X) -> C(X)")
        once = normalize_logical(prog.rules[0])
        twice = normalize_logical(once)
        assert once.literals == twice.literals
        assert once.expression == twice.expression

    def test_double_negation_removed(self):
        prog = parse_program("1 : !(!A(X))")
        rule = normalize_logical(prog.rules[0])
        assert rule.literals == (
            type(rule.literals[0])(Atom("A", (Variable("X"),)), False),
        )

    def test_de_morgan_negated_conjunction(self):
        prog = parse_program("1 : !(A(X) & B(X)) | C(X)")
        rule = normalize_logical(prog.rules[0])
        assert self._literal_set(rule) == [("A(X)", True), ("B(X)", True), ("C(X)", False)]

    def test_literal_order_kept(self):
        # De Morgan on a negated conjunction holding a double negation, then
        # a nested implication: literals come out left to right.
        prog = parse_program("1 : !(A(X) & !B(X)) | (C(X) -> D(X))")
        rule = normalize_logical(prog.rules[0])
        assert [(lit.atom.predicate, lit.negated) for lit in rule.literals] == [
            ("A", True), ("B", False), ("C", True), ("D", False),
        ]

    def test_literal_multiset_preserved(self):
        prog = parse_program("1 : A(X) & B(X) & C(X) -> D(X) | A(X)")
        rule = normalize_logical(prog.rules[0])
        assert len(rule.literals) == 5

    def test_disjunctive_body_rejected(self):
        prog = parse_program("1 : (A(X) | B(X)) -> C(X)")
        with pytest.raises(NormalizationError):
            normalize_logical(prog.rules[0])

    def test_conjunctive_head_rejected(self):
        prog = parse_program("1 : A(X) -> (B(X) & C(X))")
        with pytest.raises(NormalizationError):
            normalize_logical(prog.rules[0])
