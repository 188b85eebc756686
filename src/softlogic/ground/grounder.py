"""Instantiate rules over a data set into a ground hinge-loss MRF.

Each rule is applied under every consistent substitution of constants for
its variables. Weighted rules emit hinge potentials, unweighted rules emit
hard constraints, and observed atoms are folded into the constant terms.
Output order is deterministic: rules in program order, and each rule's
groundings in lexicographic order of their substitution (variables by name,
then constants), so grounding the same inputs twice yields byte-identical
models.

Logical rules are grounded set at a time, bottom up, as in Tuffy and in
PSL's database grounding. `DataSet.coding` gives every constant an integer
code, its rank in the sorted union of all constants, so code order is
string order, and keeps each predicate's observations as an argument-code
matrix and a value vector. A rule's substitutions are a join over those
arrays: with pruning, a negated closed atom contributes only its nonzero
observations, joined on sorted integer keys, and every other variable
ranges over its typed domain; a `np.lexsort` of the code columns then
gives the lexicographic order. Each literal's ground atoms are looked up
set at a time too (observations by sorted keys, open atoms' table indices
as mixed-radix codes over the sorted type constants, functional predicates
once per distinct atom), and the offsets, the merged terms and the prune
test are array expressions.

Arithmetic rules and select clauses are grounded one substitution at a
time. Both kinds of rule return a `GroundRules`, the rule's rows, and
`ground_program` concatenates those rows into the model with
`HlMrf.from_rows`. `GroundRule`, `HingePotential` and `LinearConstraint`
objects and origin strings are built only when something reads them.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
    ConstraintRows,
    GroundAtom,
    HingePotential,
    HlMrf,
    LinearConstraint,
    LinearFunction,
    PotentialRows,
    Relation,
    TemplateInfo,
    VariableTable,
)
from .data import DataError, DataSet


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


class _Rows(NamedTuple):
    """Linear functions in CSR form over table indices."""

    indices: np.ndarray
    coeffs: np.ndarray
    arity: np.ndarray
    offsets: np.ndarray


class GroundRules(Sequence):
    """The groundings of one rule as rows; each `GroundRule` is built on access.

    Grounding ``k`` substitutes ``constants[codes[k]]`` for the variables
    ``names``. Its potentials (``exponent`` set) or constraints (with
    ``relation``) are the ``rows`` with ``row_ground == k``.
    """

    def __init__(self, rule_id, names, codes, constants, rows: _Rows, row_ground,
                 exponent=None, relation=Relation.LEQ):
        self.rule_id = rule_id
        self.names = tuple(names)
        self.codes = codes
        self.constants = constants
        self.rows = rows
        self.row_ground = row_ground
        self.exponent = exponent
        self.relation = relation

    @classmethod
    def from_functions(cls, rule_id, names, coding, groundings, exponent=None,
                       relation=Relation.LEQ):
        """Rows of ``(constants, [LinearFunction, ...])`` groundings, in order."""
        codes = np.array(
            [[coding.code[c] for c in combo] for combo, _ in groundings], dtype=np.intp
        ).reshape(len(groundings), len(names))
        funs = [(k, f) for k, (_, fs) in enumerate(groundings) for f in fs]
        rows = _Rows(
            np.array([i for _, f in funs for i, _ in f.terms], dtype=np.intp),
            np.array([c for _, f in funs for _, c in f.terms], dtype=float),
            np.array([len(f.terms) for _, f in funs], dtype=np.intp),
            np.array([f.offset for _, f in funs], dtype=float),
        )
        row_ground = np.array([k for k, _ in funs], dtype=np.intp)
        return cls(rule_id, names, codes, coding.constants, rows, row_ground, exponent, relation)

    @property
    def n_rows(self) -> int:
        return len(self.rows.offsets)

    def substitution(self, k) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self.names, (self.constants[c] for c in self.codes[k].tolist())))

    def origin(self, row) -> str:
        return _origin(self.rule_id, self.substitution(self.row_ground[row]))

    @functools.cached_property
    def _indptr(self):
        return np.concatenate(([0], np.cumsum(self.rows.arity))).tolist()

    def _function(self, row) -> LinearFunction:
        a, b = self._indptr[row], self._indptr[row + 1]
        terms = zip(self.rows.indices[a:b].tolist(), self.rows.coeffs[a:b].tolist())
        return LinearFunction(terms, self.rows.offsets[row])

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, k):
        k = range(len(self))[k]
        sub = self.substitution(k)
        first, last = np.searchsorted(self.row_ground, [k, k + 1]).tolist()
        funs = [self._function(r) for r in range(first, last)]
        if self.exponent is None:
            constraints = tuple(LinearConstraint(f, self.relation) for f in funs)
            return GroundRule(self.rule_id, sub, constraints=constraints)
        origin = _origin(self.rule_id, sub)
        potentials = tuple(HingePotential(f, self.exponent, self.rule_id, origin) for f in funs)
        return GroundRule(self.rule_id, sub, potentials=potentials)

    def __eq__(self, other):
        if isinstance(other, (list, tuple, GroundRules)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


class _Layout:
    """A data set's variable table and where each open atom sits in it.

    Closed and functional predicates never become model variables: their
    values are constants folded into linear functions at grounding time.
    Open atoms with an explicit observation enter the table as observed.
    """

    def __init__(self, data: DataSet):
        self.data = data
        self.coding = data.coding()
        self.radix = max(1, len(self.coding.constants))
        self.base: dict[str, int] = {}
        labels = []
        for name in sorted(data.predicates):
            if data.predicates[name].closed or name in data.functionals:
                continue
            self.base[name] = len(labels)
            labels.extend(data.atoms_of(name))
        observed = {}
        for name in self.base:
            if name in self.coding.observed:
                codes, values = self.coding.observed[name]
                observed.update(zip(self.indices(name, codes).tolist(), values.tolist()))
        self.table = VariableTable(labels, observed)
        self.free_position = np.full(self.table.size, -1, dtype=np.intp)
        self.free_position[list(self.table.free_indices)] = np.arange(self.table.n_free)

    def indices(self, predicate, args) -> np.ndarray:
        """Table indices of open atoms (rows of argument codes).

        `DataSet.atoms_of` is a product over sorted type constants, so an
        atom's index is the mixed-radix number of its constants' ranks.
        """
        index = np.zeros(len(args), dtype=np.intp)
        for position, type_name in enumerate(self.data.predicates[predicate].arg_types):
            constants = self.coding.types[type_name]
            index = index * len(constants) + np.searchsorted(constants, args[:, position])
        return index + self.base[predicate]

    def values(self, predicate, args) -> np.ndarray:
        """Observed value of each atom (rows of argument codes); NaN if unobserved."""
        closed = self.data.predicates[predicate].closed
        values = np.full(len(args), 0.0 if closed else np.nan)
        if predicate in self.coding.observed:
            codes, observed = self.coding.observed[predicate]
            at, found = _find(*_keys(self.radix, codes, args))
            values[found] = observed[at[found]]
        return values

    @functools.cached_property
    def index(self) -> dict[GroundAtom, int]:
        return {atom: i for i, atom in enumerate(self.table.labels)}


def build_variable_table(data: DataSet):
    """Index the base atoms of open predicates; returns (table, atom -> index)."""
    layout = _Layout(data)
    return layout.table, layout.index


def _infer_domains(atoms, data, location):
    """Variable name -> ascending codes of its candidate constants.

    A variable ranges over the constants of every type it takes.
    """
    coding = data.coding()
    domains: dict[str, np.ndarray] = {}
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
                pool = coding.type_codes(type_name)
                if arg.name in domains:
                    pool = np.intersect1d(domains[arg.name], pool, assume_unique=True)
                domains[arg.name] = pool
    return domains


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


def _origin(rule_id, substitution):
    inside = ", ".join("%s=%s" % (k, v) for k, v in substitution)
    return "rule %d {%s}" % (rule_id, inside)


# -- logical rules: set-at-a-time joins over integer codes ------------------


def _keys(radix, *matrices):
    """Integer keys of the rows of equal-width code matrices, in row order.

    Rows pack into one int64 each in mixed radix when that cannot
    overflow; otherwise they are ranked together.
    """
    width = matrices[0].shape[1]
    if radix**width < 2**63:
        keys = []
        for rows in matrices:
            key = np.zeros(len(rows), dtype=np.int64)
            for column in rows.T:
                key = key * radix + column
            keys.append(key)
        return keys
    _, rank = np.unique(np.concatenate(matrices), axis=0, return_inverse=True)
    return np.split(rank.ravel(), np.cumsum([len(m) for m in matrices[:-1]]))


def _find(sorted_keys, keys):
    """Where each key sits in ``sorted_keys``, and whether it is there."""
    at = np.searchsorted(sorted_keys, keys)
    found = at < len(sorted_keys)
    found[found] = sorted_keys[at[found]] == keys[found]
    return at, found


def _join(left, right, radix):
    """Natural join of two ``(variable names, code matrix)`` relations."""
    lnames, lrows = left
    rnames, rrows = right
    shared = [v for v in rnames if v in lnames]
    lkeys, rkeys = _keys(
        radix,
        lrows[:, [lnames.index(v) for v in shared]],
        rrows[:, [rnames.index(v) for v in shared]],
    )
    order = np.argsort(rkeys, kind="stable")
    rkeys = rkeys[order]
    first = np.searchsorted(rkeys, lkeys, "left")
    counts = np.searchsorted(rkeys, lkeys, "right") - first
    lpick = np.repeat(np.arange(len(lrows)), counts)
    rpick = order[np.arange(lpick.size) + np.repeat(first - np.cumsum(counts) + counts, counts)]
    extra = [k for k, v in enumerate(rnames) if v not in lnames]
    names = lnames + tuple(rnames[k] for k in extra)
    return names, np.hstack([lrows[lpick], rrows[rpick][:, extra]])


def _substitutions(literals, domains, layout, prune):
    """Consistent substitutions as a code matrix, variables by name, rows sorted.

    With pruning, a negated closed atom that is 0 satisfies the ground
    clause outright, so such an atom contributes only its nonzero
    observations; every other variable ranges over its domain.
    """
    data, coding = layout.data, layout.coding
    relations = []
    for lit in literals:
        atom = lit.atom
        pred = data.predicates[atom.predicate]
        if not (prune and lit.negated and pred.closed and atom.predicate not in data.functionals):
            continue
        codes, values = coding.observed.get(
            atom.predicate, (np.zeros((0, pred.arity), dtype=np.intp), np.zeros(0))
        )
        keep = values != 0.0
        columns: dict[str, int] = {}
        for position, arg in enumerate(atom.args):
            column = codes[:, position]
            if isinstance(arg, Constant):
                keep &= column == coding.code[arg.value]
            elif arg.name in columns:
                keep &= column == codes[:, columns[arg.name]]
            else:
                columns[arg.name] = position
                keep &= _find(domains[arg.name], column)[1]
        relations.append((tuple(columns), codes[keep][:, list(columns.values())]))

    names, rows = (), np.zeros((1, 0), dtype=np.intp)
    while relations:
        # Smallest relation first, then those that share a bound variable.
        best = min(
            range(len(relations)),
            key=lambda k: (bool(names) and not set(relations[k][0]) & set(names),
                           len(relations[k][1]), k),
        )
        names, rows = _join((names, rows), relations.pop(best), layout.radix)
    ordered = sorted(domains)
    for name in ordered:
        if name not in names:
            names, rows = _join((names, rows), ((name,), domains[name][:, None]), layout.radix)
    rows = rows[:, [names.index(v) for v in ordered]]
    if ordered:
        rows = rows[np.lexsort(rows.T[::-1])]
    return rows


def _atom_args(atom, names, subs, coding):
    """Argument codes of an atom under each substitution."""
    columns = [
        np.full(len(subs), coding.code[arg.value], dtype=np.intp)
        if isinstance(arg, Constant)
        else subs[:, names.index(arg.name)]
        for arg in atom.args
    ]
    return np.stack(columns, axis=1) if columns else np.zeros((len(subs), 0), dtype=np.intp)


def _functional_values(layout, predicate, args):
    """Values of a functional predicate, one call per distinct atom.

    Returns the values and the first row whose value lies outside [0, 1]
    with its error (or None); such values read as 0.
    """
    (keys,) = _keys(layout.radix, args)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    fn = layout.data.functionals[predicate]
    constants = layout.coding.constants
    distinct = [float(fn(*(constants[c] for c in row))) for row in args[first].tolist()]
    values = np.array(distinct, dtype=float)[inverse.ravel()]
    bad = ~((values >= 0.0) & (values <= 1.0))
    if not bad.any():
        return values, None
    row = int(bad.argmax())
    value = distinct[inverse.ravel()[row]]
    error = DataError("functional predicate %s returned %r" % (predicate, value))
    values[bad] = 0.0
    return values, (row, error)


def _comparison_values(comp, names, subs, coding):
    """1.0 where the two sides of ``!=`` differ, else 0.0."""
    sides = [
        subs[:, names.index(t.name)] if isinstance(t, Variable) else t.value
        for t in (comp.left, comp.right)
    ]
    if all(isinstance(side, str) for side in sides):
        return np.full(len(subs), 1.0 if sides[0] != sides[1] else 0.0)
    # A constant outside the universe differs from every substituted constant.
    left, right = (coding.code.get(s, -1) if isinstance(s, str) else s for s in sides)
    return (left != right).astype(float)


def _merge_terms(index, coeff, n):
    """CSR terms of ``n`` rows from per-literal columns (index -1: no term).

    As in `LinearFunction`, each row's terms are sorted by variable index,
    duplicates summed and zero coefficients dropped.
    """
    width = len(index)
    index = np.stack(index, axis=1).ravel() if width else np.zeros(0, dtype=np.intp)
    coeff = np.stack(coeff, axis=1).ravel() if width else np.zeros(0)
    row = np.repeat(np.arange(n), width)
    present = index >= 0
    row, index, coeff = row[present], index[present], coeff[present]
    order = np.lexsort((index, row))
    row, index, coeff = row[order], index[order], coeff[order]
    start = np.ones(row.size, dtype=bool)
    start[1:] = (row[1:] != row[:-1]) | (index[1:] != index[:-1])
    starts = np.flatnonzero(start)
    coeff = np.add.reduceat(coeff, starts) if starts.size else coeff
    row, index = row[starts], index[starts]
    nonzero = coeff != 0.0
    row, index, coeff = row[nonzero], index[nonzero], coeff[nonzero]
    return index, coeff, np.bincount(row, minlength=n)


def ground_logical_rule(rule, data, layout=None, rule_id=0, prune=False, location=(None, None)):
    """All groundings of one logical rule, as a `GroundRules`.

    Weighted rules yield one hinge potential per grounding (squared when the
    rule is), unweighted rules yield one `<= 0` hard constraint.
    """
    if layout is None:
        layout = _Layout(data)
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

    coding = layout.coding
    names = tuple(sorted(domains))
    subs = _substitutions(regular, domains, layout, prune)
    n = len(subs)
    offsets = np.ones(n)
    term_index, term_coeff = [], []
    errors = []  # (row, literal position, error): the first in grounding order is raised
    for position, lit in enumerate(rule.literals):
        if isinstance(lit.atom, ComparisonAtom):
            truth = _comparison_values(lit.atom, names, subs, coding)
            offsets -= (1.0 - truth) if lit.negated else truth
            continue
        atom = lit.atom
        args = _atom_args(atom, names, subs, coding)
        if atom.predicate in data.functionals:
            values, error = _functional_values(layout, atom.predicate, args)
            if error is not None:
                errors.append((error[0], position, error[1]))
        else:
            values = layout.values(atom.predicate, args)
        free = np.isnan(values)
        offsets -= np.where(free, float(lit.negated), (1.0 - values) if lit.negated else values)
        index = np.full(n, -1, dtype=np.intp)
        if free.any():  # only open atoms can be unobserved
            index[free] = layout.indices(atom.predicate, args[free])
        term_index.append(index)
        term_coeff.append(np.where(free, 1.0 if lit.negated else -1.0, 0.0))

    indices, coeffs, arity = _merge_terms(term_index, term_coeff, n)
    if rule.weight is not None:
        keep = np.ones(n, dtype=bool)
        if prune:
            term_row = np.repeat(np.arange(n), arity)
            positive = np.bincount(term_row, np.maximum(coeffs, 0.0), minlength=n)
            keep = (arity > 0) & (offsets + positive > 0.0)
    else:
        violated = (arity == 0) & (offsets > 1e-9)
        if violated.any():
            row = int(violated.argmax())
            origin = _origin(rule_id, tuple(zip(names, (coding.constants[c] for c in subs[row]))))
            errors.append((row, len(rule.literals), GroundingError(
                "hard rule is violated by the observations alone (%s)" % origin, *location
            )))
        keep = arity > 0 if prune else np.ones(n, dtype=bool)
    if errors:
        raise min(errors, key=lambda e: e[:2])[2]

    kept_terms = np.repeat(keep, arity)
    rows = _Rows(indices[kept_terms], coeffs[kept_terms], arity[keep], offsets[keep])
    exponent = None if rule.weight is None else (2 if rule.squared else 1)
    return GroundRules(
        rule_id, names, subs[keep], coding.constants, rows,
        np.arange(len(rows.offsets)), exponent,
    )


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


def _hinge_box_max(linfun: LinearFunction) -> float:
    """Largest value of the linear function over the unit box."""
    return linfun.offset + sum(c for _, c in linfun.terms if c > 0)


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


def ground_arithmetic_rule(rule, data, layout=None, rule_id=0, prune=False, location=(None, None)):
    """All groundings of one arithmetic rule, as a `GroundRules`.

    Sum variables expand to sums over their select-filtered candidates with
    the coefficient distributed across the summands; hard rules become
    equality/inequality constraints and weighted rules become one (for
    inequalities) or two (for equalities) hinge potentials per grounding.
    """
    if layout is None:
        layout = _Layout(data)
    index = layout.index
    constants = layout.coding.constants
    atoms = [t.atom for t in rule.lhs + rule.rhs if t.atom is not None]
    domains = {
        name: [constants[c] for c in codes.tolist()]
        for name, codes in _infer_domains(atoms, data, location).items()
    }
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
    out = []  # (constants of the free variables, linear functions emitted)
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

        if rule.weight is None:
            if not linfun.terms:
                violated = (
                    abs(linfun.offset) > 1e-9 if rule.relation == "=" else linfun.offset > 1e-9
                )
                if violated:
                    raise GroundingError(
                        "hard rule is violated by the observations alone (%s)"
                        % _origin(rule_id, tuple(sorted(subst.items()))),
                        *location,
                    )
                if prune:
                    continue
            out.append((combo, [linfun]))
        else:
            funs = [linfun]
            if rule.relation == "=":
                funs.append(linfun.negated())
            if prune:
                funs = [f for f in funs if f.terms and _hinge_box_max(f) > 0.0]
            if funs:
                out.append((combo, funs))
    coding = layout.coding
    if rule.weight is None:
        relation = Relation.EQ if rule.relation == "=" else Relation.LEQ
        return GroundRules.from_functions(rule_id, free_vars, coding, out, relation=relation)
    exponent = 2 if rule.squared else 1
    return GroundRules.from_functions(rule_id, free_vars, coding, out, exponent)


def _concat(arrays, dtype):
    return np.concatenate(arrays).astype(dtype, copy=False) if arrays else np.zeros(0, dtype)


def _per_row(blocks, value, dtype):
    return _concat([np.full(b.n_rows, value(b)) for b in blocks], dtype)


def _rows(blocks, layout):
    """The rows of several rules, concatenated, over free positions."""
    return (
        layout.free_position[_concat([b.rows.indices for b in blocks], np.intp)],
        _concat([b.rows.coeffs for b in blocks], float),
        _concat([b.rows.arity for b in blocks], np.intp),
        _concat([b.rows.offsets for b in blocks], float),
    )


class _Origins:
    """Origin strings of the potential rows of several rules, built on access."""

    def __init__(self, blocks):
        self.blocks = blocks
        self.starts = np.cumsum([0] + [b.n_rows for b in blocks]).tolist()

    def __getitem__(self, r):
        k = bisect.bisect_right(self.starts, r) - 1
        return self.blocks[k].origin(r - self.starts[k])


def ground_program(program, data, prune=False) -> HlMrf:
    """Ground a whole program into a hinge-loss MRF.

    Every rule becomes one template whose weight is the rule weight (0 for
    hard rules, whose templates have no potentials). Per-rule errors are
    aggregated with their source locations.
    """
    layout = _Layout(data)
    blocks = []
    templates = []
    weights = []
    errors = []
    spans = program.spans or tuple((None, None) for _ in program.rules)
    for rule_id, (rule, span) in enumerate(zip(program.rules, spans)):
        source = " ".join(rule.render().split())
        count = 0
        try:
            if rule.kind == "logical":
                grounds = ground_logical_rule(
                    rule, data, layout, rule_id=rule_id, prune=prune, location=span
                )
            else:
                grounds = ground_arithmetic_rule(
                    rule, data, layout, rule_id=rule_id, prune=prune, location=span
                )
            blocks.append(grounds)
            if grounds.exponent is not None:
                count = grounds.n_rows
        except LangError as exc:
            errors.append(str(exc))
        templates.append(TemplateInfo(source, count))
        weights.append(rule.weight if rule.weight is not None else 0.0)
    if errors:
        raise GroundingError("; ".join(errors))
    potentials = [b for b in blocks if b.exponent is not None]
    constraints = [b for b in blocks if b.exponent is None]
    potential_rows = PotentialRows(
        *_rows(potentials, layout),
        _per_row(potentials, lambda b: b.exponent, np.intp),
        _per_row(potentials, lambda b: b.rule_id, np.intp),
    )
    constraint_rows = ConstraintRows(
        *_rows(constraints, layout),
        _per_row(constraints, lambda b: b.relation is Relation.EQ, bool),
    )
    return HlMrf.from_rows(
        layout.table, potential_rows, constraint_rows, templates, weights, _Origins(potentials)
    )
