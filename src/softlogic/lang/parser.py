"""Recursive-descent parser for the rule language.

Statements are whitespace-insensitive. A statement is an optionally
weighted logical or arithmetic rule, optionally squared (``^2``),
terminated by ``.`` when hard, and followed by any select blocks
(``{V : clause}``) binding sum variables of the immediately preceding
arithmetic rule. Operator precedence in logical rules is
``!`` > ``&`` > ``|`` > implications.
"""

from __future__ import annotations

from .ast import (
    And,
    ArithTerm,
    ArithmeticRule,
    Atom,
    CoeffBuiltin,
    CoeffCardinality,
    CoeffNumber,
    CoeffOp,
    ComparisonAtom,
    Constant,
    Implies,
    LangError,
    Literal,
    LogicalRule,
    Neg,
    Or,
    Program,
    SelectStatement,
    SumVariable,
    Variable,
)
from .lexer import SyntaxErrorWithLocation, tokenize

_RELATIONS = {"EQ": "=", "LEQ": "<=", "GEQ": ">="}

# Tokens that may legitimately follow a juxtaposed coefficient*atom term on
# the right-hand side of a relation. Anything else means the tentatively
# parsed atom actually starts the next statement.
_RHS_ATOM_BLOCKERS = frozenset(
    ["EQ", "LEQ", "GEQ", "AND", "OR", "PIPE", "IMPLIES_R", "IMPLIES_L"]
)


class NormalizationError(LangError):
    pass


class _NotArithmetic(Exception):
    """Internal: the arithmetic parse attempt failed before its relation."""


class Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def _peek(self, ahead: int = 0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def _next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def _expect(self, kind: str, what: str):
        tok = self._peek()
        if tok.kind != kind:
            self._fail("expected %s, found %r" % (what, tok.text or "end of input"))
        return self._next()

    def _fail(self, message):
        tok = self._peek()
        raise SyntaxErrorWithLocation(message, tok.line, tok.column)

    # -- program -----------------------------------------------------------

    def parse_program(self) -> Program:
        rules = []
        spans = []
        while self._peek().kind != "EOF":
            if self._peek().kind == "LBRACE":
                self._fail("select statement must immediately follow an arithmetic rule")
            tok = self._peek()
            rules.append(self._parse_statement())
            spans.append((tok.line, tok.column))
        return Program(tuple(rules), tuple(spans))

    # -- statements ----------------------------------------------------------

    def _parse_statement(self):
        if (
            self._peek().kind == "MINUS"
            and self._peek(1).kind == "NUMBER"
            and self._peek(2).kind == "COLON"
        ):
            self._fail("rule weights must be nonnegative")
        weight = None
        if self._peek().kind == "NUMBER" and self._peek(1).kind == "COLON":
            weight = self._next().value
            self._next()

        arith = self._try_parse_arithmetic()
        if arith is None:
            expression = self._parse_logical_expr()
            rule_builder = lambda w, sq: LogicalRule(expression, w, sq)
        else:
            lhs, relation, rhs = arith
            rule_builder = lambda w, sq: ArithmeticRule(lhs, relation, rhs, w, sq)

        squared = False
        if self._peek().kind == "SQUARED":
            self._next()
            squared = True
        hard = False
        if self._peek().kind == "PERIOD":
            self._next()
            hard = True

        if hard and weight is not None:
            self._fail("a weighted rule cannot carry the hard-rule terminal '.'")
        if hard and squared:
            self._fail("a hard rule cannot be squared")
        if not hard and weight is None:
            self._fail("rule must either be weighted or end with '.'")

        rule = rule_builder(weight, squared)
        if rule.kind == "arithmetic":
            rule = self._attach_selects(rule)
            self._validate_arithmetic(rule)
        else:
            if self._peek().kind == "LBRACE":
                self._fail("select statement must immediately follow an arithmetic rule")
            self._validate_logical(rule)
        return rule

    def _validate_logical(self, rule):
        for atom in _walk_atoms(rule.expression):
            if isinstance(atom, Atom) and atom.sum_variables:
                self._fail("sum variables are only allowed in arithmetic rules")

    def _validate_arithmetic(self, rule):
        sum_vars = rule.sum_variables
        seen = set()
        for name in sum_vars:
            if name in seen:
                self._fail("sum variable %s used more than once" % name)
            seen.add(name)
        for term in rule.lhs + rule.rhs:
            if term.coeff is not None:
                for card in _walk_cardinalities(term.coeff):
                    if card.var not in seen:
                        self._fail(
                            "cardinality |%s| does not match any sum variable" % card.var
                        )

    def _attach_selects(self, rule):
        selects = []
        seen = set()
        sum_vars = set(rule.sum_variables)
        while self._peek().kind == "LBRACE":
            self._next()
            var = self._expect("IDENT", "a sum variable name").value
            self._expect("COLON", "':'")
            clause = self._parse_logical_expr()
            self._expect("RBRACE", "'}'")
            if var not in sum_vars:
                self._fail("select statement for unknown sum variable %s" % var)
            if var in seen:
                self._fail("duplicate select statement for sum variable %s" % var)
            seen.add(var)
            selects.append(SelectStatement(var, clause))
        if selects:
            return ArithmeticRule(
                rule.lhs, rule.relation, rule.rhs, rule.weight, rule.squared, tuple(selects)
            )
        return rule

    # -- arithmetic rules ----------------------------------------------------

    def _try_parse_arithmetic(self):
        mark = self.pos
        try:
            lhs = self._parse_linear_combination(after_relation=False)
        except (_NotArithmetic, SyntaxErrorWithLocation):
            self.pos = mark
            return None
        if self._peek().kind not in _RELATIONS:
            self.pos = mark
            return None
        relation = _RELATIONS[self._next().kind]
        try:
            rhs = self._parse_linear_combination(after_relation=True)
        except _NotArithmetic:
            self._fail("expected an arithmetic term after '%s'" % relation)
        return lhs, relation, rhs

    def _parse_linear_combination(self, after_relation: bool):
        terms = []
        sign = 1
        if self._peek().kind == "MINUS":
            self._next()
            sign = -1
        terms.append(self._parse_arith_term(after_relation, sign))
        while self._peek().kind in ("PLUS", "MINUS"):
            sign = 1 if self._next().kind == "PLUS" else -1
            terms.append(self._parse_arith_term(after_relation, sign))
        return tuple(terms)

    def _parse_arith_term(self, after_relation: bool, sign: int):
        tok = self._peek()
        coeff = None
        atom = None
        if tok.kind in ("NUMBER", "PIPE", "AT", "LPAREN"):
            coeff = self._parse_coeff_product()
            if self._peek().kind == "IDENT" and self._peek(1).kind == "LPAREN":
                mark = self.pos
                atom = self._parse_atom()
                if after_relation and self._peek().kind in _RHS_ATOM_BLOCKERS:
                    # The atom belongs to the next statement.
                    self.pos = mark
                    atom = None
        elif tok.kind == "IDENT" and self._peek(1).kind == "LPAREN":
            atom = self._parse_atom()
        else:
            raise _NotArithmetic()
        if sign < 0:
            coeff = CoeffNumber(1.0) if coeff is None else coeff
            coeff = CoeffOp("*", CoeffNumber(-1.0), coeff)
        return ArithTerm(coeff, atom)

    def _parse_coeff_sum(self):
        node = self._parse_coeff_product()
        while self._peek().kind in ("PLUS", "MINUS"):
            op = "+" if self._next().kind == "PLUS" else "-"
            node = CoeffOp(op, node, self._parse_coeff_product())
        return node

    def _parse_coeff_product(self):
        node = self._parse_coeff_juxtaposed()
        while self._peek().kind in ("STAR", "SLASH"):
            op = "*" if self._next().kind == "STAR" else "/"
            node = CoeffOp(op, node, self._parse_coeff_juxtaposed())
        return node

    def _parse_coeff_juxtaposed(self):
        # Adjacent cardinalities and builtin calls multiply, binding more
        # tightly than '/' so that 1 / |A| |B| divides by both.
        node = self._parse_coeff_primary()
        while True:
            tok = self._peek()
            if tok.kind == "PIPE" and self._peek(1).kind == "IDENT" and self._peek(2).kind == "PIPE":
                node = CoeffOp("*", node, self._parse_coeff_primary())
            elif tok.kind == "AT":
                node = CoeffOp("*", node, self._parse_coeff_primary())
            else:
                return node

    def _parse_coeff_primary(self):
        tok = self._peek()
        if tok.kind == "NUMBER":
            return CoeffNumber(self._next().value)
        if tok.kind == "PIPE":
            self._next()
            name = self._expect("IDENT", "a sum variable name").value
            self._expect("PIPE", "closing '|'")
            return CoeffCardinality(name)
        if tok.kind == "AT":
            self._next()
            name = self._expect("IDENT", "a builtin name").value
            self._expect("LBRACKET", "'['")
            args = [self._parse_coeff_sum()]
            while self._peek().kind == "COMMA":
                self._next()
                args.append(self._parse_coeff_sum())
            self._expect("RBRACKET", "']'")
            return CoeffBuiltin(name, tuple(args))
        if tok.kind == "LPAREN":
            self._next()
            node = self._parse_coeff_sum()
            self._expect("RPAREN", "')'")
            return node
        if tok.kind == "IDENT":
            raise _NotArithmetic()
        self._fail("expected a coefficient, found %r" % (tok.text or "end of input"))

    # -- logical rules ---------------------------------------------------------

    def _parse_logical_expr(self):
        left = self._parse_disjunction()
        tok = self._peek()
        if tok.kind in ("IMPLIES_R", "IMPLIES_L"):
            kind = self._next().kind
            right = self._parse_disjunction()
            if kind == "IMPLIES_R":
                return Implies(body=left, head=right)
            return Implies(body=right, head=left)
        return left

    def _parse_disjunction(self):
        node = self._parse_conjunction()
        while self._peek().kind in ("OR", "PIPE"):
            self._next()
            node = Or(node, self._parse_conjunction())
        return node

    def _parse_conjunction(self):
        node = self._parse_unary()
        while self._peek().kind == "AND":
            self._next()
            node = And(node, self._parse_unary())
        return node

    def _parse_unary(self):
        if self._peek().kind == "NOT":
            self._next()
            return Neg(self._parse_unary())
        return self._parse_logical_primary()

    def _parse_logical_primary(self):
        tok = self._peek()
        if tok.kind == "LPAREN":
            self._next()
            node = self._parse_logical_expr()
            self._expect("RPAREN", "')'")
            return node
        if tok.kind in ("IDENT", "STRING"):
            if tok.kind == "IDENT" and self._peek(1).kind == "LPAREN":
                return self._parse_atom()  # sum variables are checked at the statement level
            left = self._parse_term()
            if self._peek().kind == "NEQ":
                self._next()
                right = self._parse_term()
                return ComparisonAtom(left, right)
            self._fail("expected an atom or a '!=' comparison")
        self._fail("expected a literal, found %r" % (tok.text or "end of input"))

    # -- shared pieces ---------------------------------------------------------

    def _parse_atom(self) -> Atom:
        name = self._expect("IDENT", "a predicate name").value
        self._expect("LPAREN", "'('")
        args = [self._parse_term(allow_sum=True)]
        while self._peek().kind == "COMMA":
            self._next()
            args.append(self._parse_term(allow_sum=True))
        self._expect("RPAREN", "')'")
        return Atom(name, tuple(args))

    def _parse_term(self, allow_sum: bool = False):
        tok = self._peek()
        if tok.kind == "STRING":
            return Constant(self._next().value)
        if tok.kind == "IDENT":
            return Variable(self._next().value)
        if tok.kind == "PLUS" and allow_sum and self._peek(1).kind == "IDENT":
            self._next()
            return SumVariable(self._next().value)
        self._fail("expected a constant or variable, found %r" % (tok.text or "end of input"))


def parse_program(text: str) -> Program:
    """Parse source text into a :class:`Program`."""
    try:
        return Parser(text).parse_program()
    except RecursionError:
        raise SyntaxErrorWithLocation("expression nested too deeply", 1, 1) from None


def _walk_atoms(node):
    if isinstance(node, (Atom, ComparisonAtom)):
        yield node
    elif isinstance(node, Neg):
        yield from _walk_atoms(node.operand)
    elif isinstance(node, (And, Or)):
        yield from _walk_atoms(node.left)
        yield from _walk_atoms(node.right)
    elif isinstance(node, Implies):
        yield from _walk_atoms(node.body)
        yield from _walk_atoms(node.head)


def _walk_cardinalities(node):
    if isinstance(node, CoeffCardinality):
        yield node
    elif isinstance(node, CoeffOp):
        yield from _walk_cardinalities(node.left)
        yield from _walk_cardinalities(node.right)
    elif isinstance(node, CoeffBuiltin):
        for arg in node.args:
            yield from _walk_cardinalities(arg)


# -- normalization ------------------------------------------------------------


def normalize_logical(rule: LogicalRule) -> LogicalRule:
    """Flatten a logical rule into a disjunction of literals.

    Implications are rewritten into disjunctions and negations pushed to the
    atoms by De Morgan's laws; double negations cancel. Raises
    :class:`NormalizationError` when the result is not a single disjunctive
    clause (e.g. a disjunction in an implication body). Idempotent.
    """
    if rule.kind != "logical":
        raise NormalizationError("only logical rules can be normalized")
    literals = tuple(_literals(rule.expression))
    exprs = [Neg(lit.atom) if lit.negated else lit.atom for lit in literals]
    expression = exprs[0]
    for e in exprs[1:]:
        expression = Or(expression, e)
    return LogicalRule(expression, rule.weight, rule.squared, literals)


def _literals(node, negated=False):
    """The literals of ``node``, negated if ``negated``, as one disjunction.

    ``body -> head`` is ``!body | head``, a negation flips the polarity, and
    an ``Or``, or a negated ``And``, is a disjunction of its two sides.
    """
    if isinstance(node, Implies):
        node = Or(Neg(node.body), node.head)
    if isinstance(node, Neg):
        return _literals(node.operand, not negated)
    if isinstance(node, (And, Or)):
        if isinstance(node, And) != negated:
            raise NormalizationError(
                "rule is not expressible as a single disjunctive clause "
                "(a conjunction survives the implication rewrite)"
            )
        return _literals(node.left, negated) + _literals(node.right, negated)
    if isinstance(node, (Atom, ComparisonAtom)):
        return [Literal(node, negated)]
    raise NormalizationError("unexpected node %r in logical rule" % (node,))
