"""Instantiate rules over a data set into a ground hinge-loss MRF.

Each rule is applied under every consistent substitution of constants for
its variables. Weighted rules emit hinge potentials, unweighted rules emit
hard constraints, and observed atoms are folded into the linear functions'
constant terms. Output order is deterministic: rules in program order, and
each rule's groundings in lexicographic order of their substitution
(variables by name, then constants), so grounding the same inputs twice
yields byte-identical models.

Type membership is a set lookup, domains are sorted once per rule and the
nonzero observations are indexed once per data set, so grounding costs time
linear in the observations plus the groundings it emits.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

from ..lang import BUILTIN_COEFFICIENTS
from ..lang.ast import (
    And,
    Atom,
    CoeffBuiltin,
    CoeffCardinality,
    CoeffNumber,
    CoeffOp,
    ComparisonAtom,
    Constant,
    Implies,
    LangError,
    Neg,
    Or,
    SumVariable,
    Variable,
)
from ..lang.parser import normalize_logical
from ..model import (
    GroundAtom,
    HingePotential,
    HlMrf,
    LinearConstraint,
    LinearFunction,
    Relation,
    TemplateInfo,
    VariableTable,
)
from .data import DataSet


class GroundingError(LangError):
    pass


class GroundingWarning(UserWarning):
    pass


@dataclass(frozen=True)
class GroundRule:
    """One substitution of a source rule and what it contributed."""

    rule_id: int
    substitution: tuple[tuple[str, str], ...]
    potentials: tuple[HingePotential, ...] = ()
    constraints: tuple[LinearConstraint, ...] = ()


def build_variable_table(data: DataSet):
    """Index the base atoms of open predicates; returns (table, atom -> index).

    Closed and functional predicates never become model variables: their
    values are constants folded into linear functions at grounding time.
    Open atoms with an explicit observation enter the table as observed.
    """
    labels = []
    for name in sorted(data.predicates):
        pred = data.predicates[name]
        if pred.closed or name in data.functionals:
            continue
        labels.extend(data.atoms_of(name))
    index = {atom: i for i, atom in enumerate(labels)}
    observed = {}
    for i, atom in enumerate(labels):
        value = data.observed_value(atom)
        if value is not None:
            observed[i] = value
    return VariableTable(labels, observed), index


def _hinge_box_max(linfun: LinearFunction) -> float:
    """Largest value of the linear function over the unit box."""
    return linfun.offset + sum(c for _, c in linfun.terms if c > 0)


def _infer_domains(atoms, data, location):
    """Variable name -> sorted candidate constants over all atom positions."""
    domains: dict[str, set] = {}
    for atom in atoms:
        pred = data.predicates.get(atom.predicate)
        if pred is None:
            raise GroundingError("unknown predicate %s" % atom.predicate, *location)
        if len(atom.args) != pred.arity:
            raise GroundingError(
                "%s takes %d arguments, rule supplies %d"
                % (atom.predicate, pred.arity, len(atom.args)),
                *location,
            )
        for arg, type_name in zip(atom.args, pred.arg_types):
            if isinstance(arg, Constant):
                if not data.has_constant(type_name, arg.value):
                    raise GroundingError(
                        'constant "%s" does not have type %s' % (arg.value, type_name),
                        *location,
                    )
            elif isinstance(arg, Variable):
                pool = set(data.constants_of(type_name))
                if arg.name in domains:
                    domains[arg.name] &= pool
                else:
                    domains[arg.name] = pool
    return {name: tuple(sorted(pool)) for name, pool in domains.items()}


def _ground_term(term, subst):
    if isinstance(term, Constant):
        return term.value
    if isinstance(term, (Variable, SumVariable)):
        return subst[term.name]
    raise GroundingError("cannot ground term %r" % (term,))


def _ground_atom(atom: Atom, subst) -> GroundAtom:
    return GroundAtom(atom.predicate, tuple(_ground_term(a, subst) for a in atom.args))


def _comparison_value(comp: ComparisonAtom, subst) -> float:
    left = _ground_term(comp.left, subst)
    right = _ground_term(comp.right, subst)
    return 1.0 if left != right else 0.0


class _JoinEnumerator:
    """Backtracking enumeration of consistent substitutions.

    Atoms are bound one at a time, cheapest first. When pruning is enabled,
    a closed atom that appears negated in the clause only needs its nonzero
    observations (a zero there satisfies the ground clause outright), which
    is what makes blocking-style rules cheap to ground.
    """

    def __init__(self, data: DataSet, domains, atoms, prune: bool, location):
        self.data = data
        self.domains = domains  # name -> sorted tuple, the enumeration order
        self.members = {name: frozenset(pool) for name, pool in domains.items()}
        self.atoms = atoms  # list of (Atom, negated_in_clause)
        self.prune = prune
        self.location = location
        self._bucket_cache: dict[tuple, dict] = {}

    def _bucket_index(self, predicate, position):
        """Nonzero observations of a predicate grouped by one argument."""
        key = (predicate, position)
        if key not in self._bucket_cache:
            buckets: dict[str, list] = {}
            for args in self.data.nonzero_args(predicate):
                buckets.setdefault(args[position], []).append(args)
            self._bucket_cache[key] = buckets
        return self._bucket_cache[key]

    def _indexable(self, atom, negated):
        pred = self.data.predicates[atom.predicate]
        return (
            self.prune
            and negated
            and pred.closed
            and atom.predicate not in self.data.functionals
        )

    def _cost(self, atom, negated, bound):
        if self._indexable(atom, negated):
            nnz = len(self.data.nonzero_args(atom.predicate))
            for position, arg in enumerate(atom.args):
                fixed = isinstance(arg, Constant) or (
                    isinstance(arg, Variable) and arg.name in bound
                )
                if fixed:
                    buckets = self._bucket_index(atom.predicate, position)
                    return max(1, nnz // max(1, len(buckets)))
            return nnz
        cost = 1
        for arg in atom.args:
            if isinstance(arg, Variable) and arg.name not in bound:
                cost *= len(self.domains[arg.name])
        return cost

    def _order(self):
        remaining = list(range(len(self.atoms)))
        bound: set[str] = set()
        order = []
        while remaining:
            best = min(
                remaining, key=lambda i: (self._cost(*self.atoms[i], bound), i)
            )
            order.append(best)
            remaining.remove(best)
            bound |= {a.name for a in self.atoms[best][0].args if isinstance(a, Variable)}
        return order

    def _match(self, atom, args, subst):
        """Try binding one ground tuple; returns newly bound names or None."""
        new = {}
        for arg, value in zip(atom.args, args):
            if isinstance(arg, Constant):
                if arg.value != value:
                    return None
            else:
                current = subst.get(arg.name, new.get(arg.name))
                if current is None:
                    if value not in self.members[arg.name]:
                        return None
                    new[arg.name] = value
                elif current != value:
                    return None
        return new

    def _candidates(self, atom, negated, subst):
        if self._indexable(atom, negated):
            for position, arg in enumerate(atom.args):
                if isinstance(arg, Constant):
                    return self._bucket_index(atom.predicate, position).get(arg.value, ())
                if arg.name in subst:
                    return self._bucket_index(atom.predicate, position).get(subst[arg.name], ())
            return self.data.nonzero_args(atom.predicate)
        slots = []
        for arg in atom.args:
            if isinstance(arg, Constant):
                slots.append((arg.value,))
            elif arg.name in subst:
                slots.append((subst[arg.name],))
            else:
                slots.append(self.domains[arg.name])
        return itertools.product(*slots)

    def substitutions(self):
        order = self._order()
        subst: dict[str, str] = {}

        def recurse(depth):
            if depth == len(order):
                yield dict(subst)
                return
            atom, negated = self.atoms[order[depth]]
            for args in self._candidates(atom, negated, subst):
                new = self._match(atom, args, subst)
                if new is None:
                    continue
                subst.update(new)
                yield from recurse(depth + 1)
                for name in new:
                    del subst[name]

        if not self.atoms:
            yield {}
        else:
            yield from recurse(0)


def _fold_literal_values(literals, data, index, subst, location):
    """Build the clause's distance-to-satisfaction function for one grounding."""
    offset = 1.0
    terms = []
    for lit in literals:
        if isinstance(lit.atom, ComparisonAtom):
            value = _comparison_value(lit.atom, subst)
            offset -= (1.0 - value) if lit.negated else value
            continue
        gatom = _ground_atom(lit.atom, subst)
        value = data.observed_value(gatom)
        if value is not None:
            offset -= (1.0 - value) if lit.negated else value
        elif lit.negated:
            offset -= 1.0
            terms.append((index[gatom], 1.0))
        else:
            terms.append((index[gatom], -1.0))
    return LinearFunction(terms, offset)


def ground_logical_rule(rule, data, index=None, rule_id=0, prune=False, location=(None, None)):
    """All groundings of one logical rule.

    Weighted rules yield one hinge potential per grounding (squared when the
    rule is), unweighted rules yield one `<= 0` hard constraint.
    """
    if index is None:
        _, index = build_variable_table(data)
    if rule.literals is None:
        rule = normalize_logical(rule)
    regular = [lit for lit in rule.literals if isinstance(lit.atom, Atom)]
    comparisons = [lit for lit in rule.literals if isinstance(lit.atom, ComparisonAtom)]
    domains = _infer_domains([lit.atom for lit in regular], data, location)
    for lit in comparisons:
        for name in lit.atom.variables:
            if name not in domains:
                raise GroundingError(
                    "variable %s appears only in a comparison; its type cannot "
                    "be inferred" % name,
                    *location,
                )

    enumerator = _JoinEnumerator(
        data, domains, [(lit.atom, lit.negated) for lit in regular], prune, location
    )
    # The join order depends on the data; sorting makes the output order
    # lexicographic in the substitution whatever plan the join chose.
    groundings = sorted(tuple(sorted(s.items())) for s in enumerator.substitutions())
    out = []
    for sub in groundings:
        subst = dict(sub)
        linfun = _fold_literal_values(rule.literals, data, index, subst, location)
        origin = _origin(rule_id, sub)
        if rule.weight is not None:
            if prune and (not linfun.terms or _hinge_box_max(linfun) <= 0.0):
                continue
            pot = HingePotential(linfun, 2 if rule.squared else 1, rule_id, origin)
            out.append(GroundRule(rule_id, sub, potentials=(pot,)))
        else:
            if not linfun.terms:
                if linfun.offset > 1e-9:
                    raise GroundingError(
                        "hard rule is violated by the observations alone (%s)" % origin,
                        *location,
                    )
                if prune:
                    continue
            con = LinearConstraint(linfun, Relation.LEQ)
            out.append(GroundRule(rule_id, sub, constraints=(con,)))
    return out


def _origin(rule_id, substitution):
    inside = ", ".join("%s=%s" % (k, v) for k, v in substitution)
    return "rule %d {%s}" % (rule_id, inside)


# -- arithmetic rules ------------------------------------------------------


def _eval_select(expr, data, subst, location):
    if isinstance(expr, Atom):
        value = data.observed_value(_ground_atom(expr, subst))
        return value != 0.0
    if isinstance(expr, ComparisonAtom):
        return _comparison_value(expr, subst) != 0.0
    if isinstance(expr, Neg):
        return not _eval_select(expr.operand, data, subst, location)
    if isinstance(expr, And):
        return _eval_select(expr.left, data, subst, location) and _eval_select(
            expr.right, data, subst, location
        )
    if isinstance(expr, Or):
        return _eval_select(expr.left, data, subst, location) or _eval_select(
            expr.right, data, subst, location
        )
    if isinstance(expr, Implies):
        return (not _eval_select(expr.body, data, subst, location)) or _eval_select(
            expr.head, data, subst, location
        )
    raise GroundingError("unsupported select expression %r" % (expr,), *location)


def _check_select_closed(select, data, rule_vars, location):
    def walk(expr):
        if isinstance(expr, Atom):
            pred = data.predicates.get(expr.predicate)
            if pred is None:
                raise GroundingError("unknown predicate %s" % expr.predicate, *location)
            if not pred.closed:
                raise GroundingError(
                    "select statement references open predicate %s" % expr.predicate,
                    *location,
                )
            for name in expr.variables:
                if name != select.var and name not in rule_vars:
                    raise GroundingError(
                        "select statement uses unknown variable %s" % name, *location
                    )
        elif isinstance(expr, ComparisonAtom):
            for name in expr.variables:
                if name != select.var and name not in rule_vars:
                    raise GroundingError(
                        "select statement uses unknown variable %s" % name, *location
                    )
        elif isinstance(expr, Neg):
            walk(expr.operand)
        elif isinstance(expr, (And, Or)):
            walk(expr.left)
            walk(expr.right)
        elif isinstance(expr, Implies):
            walk(expr.body)
            walk(expr.head)

    walk(select.clause)


class _ZeroCardinalityDivision(ArithmeticError):
    pass


def _eval_coeff(node, cards, location):
    if isinstance(node, CoeffNumber):
        return node.value
    if isinstance(node, CoeffCardinality):
        return float(cards[node.var])
    if isinstance(node, CoeffBuiltin):
        fn = BUILTIN_COEFFICIENTS.get(node.name)
        if fn is None:
            raise GroundingError("unknown builtin @%s" % node.name, *location)
        return float(fn(*(_eval_coeff(a, cards, location) for a in node.args)))
    if isinstance(node, CoeffOp):
        left = _eval_coeff(node.left, cards, location)
        right = _eval_coeff(node.right, cards, location)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if right == 0.0:
            raise _ZeroCardinalityDivision()
        return left / right
    raise GroundingError("cannot evaluate coefficient %r" % (node,), *location)


def ground_arithmetic_rule(rule, data, index=None, rule_id=0, prune=False, location=(None, None)):
    """All groundings of one arithmetic rule.

    Sum variables expand to sums over their select-filtered candidates with
    the coefficient distributed across the summands; hard rules become
    equality/inequality constraints and weighted rules become one (for
    inequalities) or two (for equalities) hinge potentials per grounding.
    """
    if index is None:
        _, index = build_variable_table(data)
    atoms = [t.atom for t in rule.lhs + rule.rhs if t.atom is not None]
    domains = _infer_domains(atoms, data, location)
    sum_domains = {}
    for atom in atoms:
        pred = data.predicates[atom.predicate]
        for arg, type_name in zip(atom.args, pred.arg_types):
            if isinstance(arg, SumVariable):
                pool = set(data.constants_of(type_name))
                if arg.name in sum_domains:
                    sum_domains[arg.name] &= pool
                else:
                    sum_domains[arg.name] = pool
    selects = {s.var: s for s in rule.selects}
    for select in rule.selects:
        _check_select_closed(select, data, set(domains), location)

    sum_pools = {name: sorted(sum_domains[name]) for name in sorted(sum_domains)}
    free_vars = sorted(domains)
    out = []
    for combo in itertools.product(*(domains[v] for v in free_vars)):
        subst = dict(zip(free_vars, combo))
        candidates = {}
        for name, pool in sum_pools.items():
            if name in selects:
                clause = selects[name].clause
                pool = [
                    c
                    for c in pool
                    if _eval_select(clause, data, {**subst, name: c}, location)
                ]
            candidates[name] = pool
        cards = {name: len(pool) for name, pool in candidates.items()}

        try:
            parts = []  # (signed coefficient, Atom or None)
            for sign, terms in ((1.0, rule.lhs), (-1.0, rule.rhs)):
                for term in terms:
                    coeff = (
                        _eval_coeff(term.coeff, cards, location)
                        if term.coeff is not None
                        else 1.0
                    )
                    parts.append((sign * coeff, term.atom))
        except _ZeroCardinalityDivision:
            where = "" if location[0] is None else " at %s:%s" % location
            warnings.warn(
                GroundingWarning(
                    "dropping grounding %s%s: division by an empty sum"
                    % (_origin(rule_id, tuple(sorted(subst.items()))), where)
                ),
                stacklevel=2,
            )
            continue

        offset = 0.0
        lin_terms = []

        def accumulate(coeff, gatom):
            nonlocal offset
            value = data.observed_value(gatom)
            if value is not None:
                offset += coeff * value
            else:
                lin_terms.append((index[gatom], coeff))

        for coeff, atom in parts:
            if atom is None:
                offset += coeff
                continue
            sum_names = [a.name for a in atom.args if isinstance(a, SumVariable)]
            if not sum_names:
                accumulate(coeff, _ground_atom(atom, subst))
                continue
            for expansion in itertools.product(*(candidates[n] for n in sum_names)):
                bound = dict(zip(sum_names, expansion))
                accumulate(coeff, _ground_atom(atom, {**subst, **bound}))

        linfun = LinearFunction(lin_terms, offset)
        if rule.relation == ">=":
            linfun = linfun.negated()
        sub = tuple(sorted(subst.items()))
        origin = _origin(rule_id, sub)

        if rule.weight is None:
            relation = Relation.EQ if rule.relation == "=" else Relation.LEQ
            if not linfun.terms:
                violated = (
                    abs(linfun.offset) > 1e-9
                    if relation is Relation.EQ
                    else linfun.offset > 1e-9
                )
                if violated:
                    raise GroundingError(
                        "hard rule is violated by the observations alone (%s)" % origin,
                        *location,
                    )
                if prune:
                    continue
            out.append(
                GroundRule(rule_id, sub, constraints=(LinearConstraint(linfun, relation),))
            )
        else:
            exponent = 2 if rule.squared else 1
            funs = [linfun]
            if rule.relation == "=":
                funs.append(linfun.negated())
            pots = []
            for fun in funs:
                if prune and (not fun.terms or _hinge_box_max(fun) <= 0.0):
                    continue
                pots.append(HingePotential(fun, exponent, rule_id, origin))
            if pots or not prune:
                out.append(GroundRule(rule_id, sub, potentials=tuple(pots)))
    return out


def ground_program(program, data, prune=False) -> HlMrf:
    """Ground a whole program into a hinge-loss MRF.

    Every rule becomes one template whose weight is the rule weight (0 for
    hard rules, whose templates have no potentials). Per-rule errors are
    aggregated with their source locations.
    """
    table, index = build_variable_table(data)
    potentials = []
    constraints = []
    templates = []
    weights = []
    errors = []
    spans = program.spans or tuple((None, None) for _ in program.rules)
    for rule_id, (rule, span) in enumerate(zip(program.rules, spans)):
        source = " ".join(rule.render().split())
        try:
            if rule.kind == "logical":
                grounds = ground_logical_rule(
                    rule, data, index, rule_id=rule_id, prune=prune, location=span
                )
            else:
                grounds = ground_arithmetic_rule(
                    rule, data, index, rule_id=rule_id, prune=prune, location=span
                )
        except LangError as exc:
            errors.append(str(exc))
            grounds = []
        count = 0
        for g in grounds:
            potentials.extend(g.potentials)
            constraints.extend(g.constraints)
            count += len(g.potentials)
        templates.append(TemplateInfo(source, count))
        weights.append(rule.weight if rule.weight is not None else 0.0)
    if errors:
        raise GroundingError("; ".join(errors))
    return HlMrf(table, potentials, constraints, templates, weights)
