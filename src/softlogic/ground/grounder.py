"""Instantiate rules over a data set into a ground hinge-loss MRF.

Each rule is applied under every consistent substitution of constants for
its variables. Weighted rules emit hinge potentials, unweighted rules emit
hard constraints, and observed atoms are folded into the constant terms.
Output order is deterministic: rules in program order, and each rule's
groundings in lexicographic order of their substitution (variables by name,
then constants), so grounding the same inputs twice yields byte-identical
models.

Every rule is grounded set at a time, bottom up, as in Tuffy and in PSL's
database grounding. `DataSet.coding` is the data set's one cached
`Coding`: it gives every constant an integer code, its rank in the sorted
union of all constants, so code order is string order, keeps each
predicate's observations as an argument-code matrix and a value vector,
and holds the variable table, ``Coding.table``. A rule's substitutions
are a join over those arrays: with pruning, a negated closed atom of a
logical rule contributes only its nonzero observations, joined on sorted
integer keys, and every other variable ranges over its typed domain (the
intersection of its types, computed only when they differ); one integer
key per row then gives the lexicographic order. The substitutions depend
only on the pruned atoms and the variables' types, so they are kept in
``Coding.memo`` and rules that share them, such as the two rules of one
edge type, share one read-only matrix until the data changes. Each ground
atom is looked up set at a time too (observations by sorted keys, open
atoms' table indices as mixed-radix codes over the sorted type constants,
functional predicates once per distinct atom), and the offsets and the
prune test are array expressions. A logical rule's terms come at most one
per literal and row; where no table index repeats within a row, a
row-wise sort of those few terms replaces the general merge.

An arithmetic rule pairs every substitution with every candidate of each
sum variable; its select clause is a mask over those pairs, its
cardinalities are counts of the surviving pairs, and a term's summands
are the join of its sum variables' pairs. Both kinds of rule end in the
same tail and return a `GroundRules` over the model's own row type, a
`PotentialRows` or `ConstraintRows` over free positions, and
`ground_program` concatenates those rows into the model with
`FoldedRows.concatenate` and `HlMrf.from_rows`. `GroundRule`,
`HingePotential` and `LinearConstraint` objects and origin strings are
built only when something reads them.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import warnings
from collections.abc import Sequence
from dataclasses import dataclass

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
from ..lang.parser import _walk_atoms, normalize_logical
from ..model import (
    ConstraintRows,
    HingePotential,
    HlMrf,
    LinearConstraint,
    PotentialRows,
    TemplateInfo,
    _merge_terms,
)
from .data import DataError, DataSet, _keys


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


class GroundRules(Sequence):
    """The groundings of one rule as rows; each `GroundRule` is built on access.

    Grounding ``k`` substitutes ``coding.constants[codes[k]]`` for the
    variables ``names``. Its potentials or constraints, as ``rows`` is a
    `PotentialRows` or a `ConstraintRows`, are the rows with
    ``row_ground == k``.
    """

    def __init__(self, rule_id, names, codes, coding, rows, row_ground):
        self.rule_id = rule_id
        self.names = tuple(names)
        self.codes = codes
        self.coding = coding
        self.rows = rows
        self.row_ground = row_ground

    @functools.cached_property
    def _objects(self):
        if isinstance(self.rows, PotentialRows):
            return self.rows.objects(self.coding.table, _Origins([self]))
        return self.rows.objects(self.coding.table)

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, k):
        k = range(len(self))[k]
        constants = self.coding.constants
        sub = tuple(zip(self.names, (constants[c] for c in self.codes[k].tolist())))
        first, last = np.searchsorted(self.row_ground, [k, k + 1]).tolist()
        kind = "potentials" if isinstance(self.rows, PotentialRows) else "constraints"
        return GroundRule(self.rule_id, sub, **{kind: tuple(self._objects[first:last])})

    def __eq__(self, other):
        if isinstance(other, (list, tuple, GroundRules)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None


def build_variable_table(data: DataSet):
    """Index the base atoms of open predicates; returns (table, atom -> index)."""
    table = data.coding().table
    return table, {atom: i for i, atom in enumerate(table.labels)}


def _infer_domains(atoms, data, location):
    """Variable name -> the sorted names of the types it takes.

    A variable ranges over the constants of every type it takes (`_domain`).
    """
    types: dict[str, set[str]] = {}
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
                types.setdefault(arg.name, set()).add(type_name)
    return {name: tuple(sorted(names)) for name, names in types.items()}


def _domain(coding, types) -> np.ndarray:
    """Ascending codes of the constants that have every type in ``types``."""
    pools = [coding.type_codes(t) for t in types]
    return functools.reduce(lambda a, b: np.intersect1d(a, b, assume_unique=True), pools)


def _origin(rule_id, names, codes, constants):
    inside = ", ".join("%s=%s" % (k, constants[c]) for k, c in zip(names, codes.tolist()))
    return "rule %d {%s}" % (rule_id, inside)


# -- set-at-a-time joins over integer codes ----------------------------------


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


def _substitutions(literals, domains, data, prune):
    """Consistent substitutions as a code matrix, variables by name, rows sorted.

    With pruning, a negated closed atom that is 0 satisfies the ground
    clause outright, so such an atom contributes only its nonzero
    observations; every other variable ranges over its domain. The matrix
    depends only on those atoms and the variables' types, so rules that
    share them share one read-only matrix, kept in ``Coding.memo``.
    """
    coding = data.coding()
    pruned = tuple(
        lit.atom for lit in literals
        if prune and lit.negated and data.predicates[lit.atom.predicate].closed
        and lit.atom.predicate not in data.functionals
    )
    key = pruned, tuple(sorted(domains.items()))
    if key not in coding.memo:
        codes = {name: _domain(coding, types) for name, types in domains.items()}
        rows = _join_all(pruned, codes, coding)
        rows.flags.writeable = False
        coding.memo[key] = rows
    return coding.memo[key]


def _join_all(pruned, domains, coding):
    """The substitutions of `_substitutions`, ``domains`` holding each variable's codes."""
    relations = []
    for atom in pruned:
        codes, values = coding.observed.get(
            atom.predicate, (np.zeros((0, len(atom.args)), dtype=np.intp), np.zeros(0))
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
        relation = relations.pop(best)
        unit = rows.shape == (1, 0)  # the join's identity
        names, rows = relation if unit else _join((names, rows), relation, coding.radix)
    ordered = sorted(domains)
    for name in ordered:
        if name not in names:
            names, rows = _join((names, rows), ((name,), domains[name][:, None]), coding.radix)
    rows = rows[:, [names.index(v) for v in ordered]]
    if ordered:  # the rows are distinct, so one key per row orders them
        rows = rows[np.argsort(_keys(coding.radix, rows)[0], kind="stable")]
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


def _values(data, predicate, args):
    """Value of each atom (rows of argument codes); NaN if unobserved.

    Also returns the first row whose functional value lies outside [0, 1],
    with its error, or None; such values read as 0.
    """
    if predicate in data.functionals:
        return _functional_values(data, predicate, args)
    coding = data.coding()
    values = np.full(len(args), 0.0 if data.predicates[predicate].closed else np.nan)
    if predicate in coding.observed:
        codes, observed = coding.observed[predicate]
        at, found = _find(*_keys(coding.radix, codes, args))
        values[found] = observed[at[found]]
    return values, None


def _functional_values(data, predicate, args):
    """Values of a functional predicate, one call per distinct atom.

    Returns the values and the first row whose value lies outside [0, 1]
    with its error (or None); such values read as 0.
    """
    coding = data.coding()
    (keys,) = _keys(coding.radix, args)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    fn = data.functionals[predicate]
    constants = coding.constants
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


def _comparison_truth(comp, names, subs, coding):
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


def _finish(rule, rule_id, names, subs, coding, rows, row_ground, errors, location, prune,
            is_eq=False, live=None, drops=()):
    """The `GroundRules` of a rule's rows: the tail both kinds of rule share.

    ``rows`` are ``(indices, coeffs, arity, offsets)`` in CSR form over
    table indices of free atoms, hard rows equalities if ``is_eq``. Row
    ``r`` belongs to grounding ``row_ground[r]`` (ascending), or to
    grounding ``r`` if ``row_ground`` is None; only the ``live`` groundings
    emit rows. With pruning, a hinge that can never be active on the unit
    box and a hard row without a free atom are dropped.
    A hard row without free atoms that the observations violate is an
    error. ``errors`` holds ``(grounding, rank, error)`` triples; the first
    in grounding order, then rank, is raised, after the ``(grounding,
    warning)`` pairs of ``drops`` that precede it are issued.
    """
    indices, coeffs, arity, offsets = rows
    n_rows = len(offsets)
    exponent = None if rule.weight is None else (2 if rule.squared else 1)
    keep = np.ones(n_rows, dtype=bool) if live is None else live[row_ground]
    if exponent is not None:
        if prune:
            term_row = np.repeat(np.arange(n_rows), arity)
            positive = np.bincount(term_row, np.maximum(coeffs, 0.0), minlength=n_rows)
            keep &= (arity > 0) & (offsets + positive > 0.0)
    else:
        excess = np.abs(offsets) if is_eq else offsets
        violated = keep & (arity == 0) & (excess > 1e-9)
        if violated.any():
            k = violated.argmax() if row_ground is None else row_ground[violated.argmax()]
            errors.append((k, (np.inf,), GroundingError(
                "hard rule is violated by the observations alone (%s)"
                % _origin(rule_id, names, subs[k], coding.constants),
                *location,
            )))
        if prune:
            keep &= arity > 0
    first = min(errors, key=lambda e: e[:2]) if errors else None
    for k, warning in drops:
        if first is None or k < first[0]:
            warnings.warn(warning, stacklevel=3)
    if first is not None:
        raise first[2]

    kept_terms = np.repeat(keep, arity)
    if row_ground is None:  # one row per grounding: no sort needed
        grounds = np.flatnonzero(keep)
        row_ground = np.arange(grounds.size)
    else:
        grounds, row_ground = np.unique(row_ground[keep], return_inverse=True)
    folded = (coding.table.position[indices[kept_terms]], coeffs[kept_terms], arity[keep],
              offsets[keep])
    size = len(row_ground)
    if exponent is None:
        rows = ConstraintRows(*folded, np.full(size, is_eq))
    else:
        rows = PotentialRows(*folded, np.full(size, exponent, np.intp),
                             np.full(size, rule_id, np.intp))
    return GroundRules(rule_id, names, subs[grounds], coding, rows, row_ground.ravel())


def ground_logical_rule(rule, data, rule_id=0, prune=False, location=(None, None)):
    """All groundings of one logical rule, as a `GroundRules`.

    Weighted rules yield one hinge potential per grounding (squared when the
    rule is), unweighted rules yield one `<= 0` hard constraint.
    """
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

    coding = data.coding()
    names = tuple(sorted(domains))
    subs = _substitutions(regular, domains, data, prune)
    n = len(subs)
    offsets = np.ones(n)
    term_row, term_index, term_coeff = [], [], []
    errors = []  # (grounding, (literal position,), error)
    for position, lit in enumerate(rule.literals):
        if isinstance(lit.atom, ComparisonAtom):
            truth = _comparison_truth(lit.atom, names, subs, coding)
            offsets -= (1.0 - truth) if lit.negated else truth
            continue
        atom = lit.atom
        args = _atom_args(atom, names, subs, coding)
        values, error = _values(data, atom.predicate, args)
        if error is not None:
            errors.append((error[0], (position,), error[1]))
        free = np.isnan(values)
        offsets -= np.where(free, float(lit.negated), (1.0 - values) if lit.negated else values)
        if free.any():  # only open atoms can be unobserved
            term_row.append(np.flatnonzero(free))
            term_index.append(coding.indices(atom.predicate, args[free]))
            term_coeff.append(np.full(term_row[-1].size, 1.0 if lit.negated else -1.0))

    rows = (*_row_terms(term_row, term_index, term_coeff, n), offsets)
    return _finish(rule, rule_id, names, subs, coding, rows, None, errors, location, prune)


def _row_terms(term_row, term_index, term_coeff, n):
    """`_merge_terms` of a logical rule's terms: nonzero, and at most one
    per row from each array. Where no table index repeats within a row,
    there is nothing to merge, and a row-wise sort of the few terms gives
    the same rows."""
    if not term_row:
        return _merge_terms(term_row, term_index, term_coeff, n)
    absent = np.iinfo(np.intp).max  # sorts after every index
    index = np.full((n, len(term_row)), absent, dtype=np.intp)
    coeff = np.zeros(index.shape)
    for j, row in enumerate(term_row):
        index[row, j] = term_index[j]
        coeff[row, j] = term_coeff[j]
    order = np.argsort(index, axis=1, kind="stable")
    index = np.take_along_axis(index, order, axis=1)
    if ((index[:, 1:] == index[:, :-1]) & (index[:, 1:] != absent)).any():
        return _merge_terms(term_row, term_index, term_coeff, n)
    present = index != absent
    return index[present], np.take_along_axis(coeff, order, axis=1)[present], present.sum(axis=1)


# -- arithmetic rules ------------------------------------------------------


def _check_select(select, data, rule_vars, location):
    """Check a select clause's atoms as rule atoms are checked; all must be closed."""
    for atom in _walk_atoms(select.clause):
        if isinstance(atom, Atom):
            pred = data.predicates.get(atom.predicate)
            if pred is None:
                raise GroundingError("unknown predicate %s" % atom.predicate, *location)
            if not pred.closed:
                raise GroundingError(
                    "select statement references open predicate %s" % atom.predicate, *location
                )
        for name in atom.variables + atom.sum_variables:
            if name != select.var and name not in rule_vars:
                raise GroundingError("select statement uses unknown variable %s" % name, *location)
        if isinstance(atom, Atom):
            _infer_domains([atom], data, location)


def _select_mask(clause, names, rows, data):
    """Where a select clause holds on each row of codes, and the errors met.

    An atom holds where its value is nonzero. As in a short-circuit
    evaluation, each atom is read only on the rows whose outcome it can
    still change. An error is ``(row, atom number, error)``, atoms numbered
    left to right.
    """
    coding = data.coding()
    found = []
    seen = 0

    def holds(expr, active):
        nonlocal seen
        if isinstance(expr, Neg):
            return active & ~holds(expr.operand, active)
        if isinstance(expr, And):
            return holds(expr.right, holds(expr.left, active))
        if isinstance(expr, Or):
            left = holds(expr.left, active)
            return left | holds(expr.right, active & ~left)
        if isinstance(expr, Implies):
            body = holds(expr.body, active)
            return (active & ~body) | holds(expr.head, body)
        at = np.flatnonzero(active)
        if isinstance(expr, ComparisonAtom):
            values, error = _comparison_truth(expr, names, rows[at], coding), None
        else:
            args = _atom_args(expr, names, rows[at], coding)
            values, error = _values(data, expr.predicate, args)
        if error is not None:
            found.append((at[error[0]], seen, error[1]))
        seen += 1
        truth = np.zeros(len(rows), dtype=bool)
        truth[at] = values != 0.0
        return truth

    return holds(clause, np.ones(len(rows), dtype=bool)), found


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


def ground_arithmetic_rule(rule, data, rule_id=0, prune=False, location=(None, None)):
    """All groundings of one arithmetic rule, as a `GroundRules`.

    Sum variables expand to sums over their select-filtered candidates with
    the coefficient distributed across the summands; hard rules become
    equality/inequality constraints and weighted rules become one (for
    inequalities) or two (for equalities) hinge potentials per grounding.
    A grounding whose coefficient divides by an empty sum is dropped with a
    `GroundingWarning`.
    """
    coding = data.coding()
    atoms = [t.atom for t in rule.lhs + rule.rhs if t.atom is not None]
    domains = _infer_domains(atoms, data, location)
    sum_types = {
        arg.name: type_name
        for atom in atoms
        for arg, type_name in zip(atom.args, data.predicates[atom.predicate].arg_types)
        if isinstance(arg, SumVariable)
    }
    both = sorted(set(domains) & set(sum_types))
    if both:
        raise GroundingError(
            "variable %s is used both plain and as a sum variable" % both[0], *location
        )
    clauses = {select.var: select.clause for select in rule.selects}
    for select in rule.selects:
        _check_select(select, data, domains, location)

    names = tuple(sorted(domains))
    subs = _substitutions((), domains, data, prune=False)
    n = len(subs)
    # Errors rank as the scalar order meets them within a grounding: select
    # clauses, coefficients, atom values, then the hard-rule check.
    errors = []
    sums = sorted(sum_types)
    pairs = {}  # sum variable -> its (grounding, candidate) relation, grounding-major
    for k, name in enumerate(sums):
        pool = coding.type_codes(sum_types[name])
        pick = np.arange(n * len(pool))  # pair i: grounding i // len(pool), candidate i % len(pool)
        if name in clauses:
            rows = np.column_stack([np.repeat(subs, len(pool), axis=0), np.tile(pool, n)])
            keep, found = _select_mask(clauses[name], names + (name,), rows, data)
            errors += [(i // len(pool), (0, k, i, atom), error) for i, atom, error in found]
            pick = np.flatnonzero(keep)
        pairs[name] = (("#", name), np.column_stack([pick // len(pool), pool[pick % len(pool)]]))

    # Coefficients depend on the grounding only through its cardinalities.
    cards = np.array(
        [np.bincount(pairs[name][1][:, 0], minlength=n) for name in sums], dtype=np.intp
    ).reshape(len(sums), n).T
    terms = [(sign, term) for sign, side in ((1.0, rule.lhs), (-1.0, rule.rhs)) for term in side]
    (keys,) = _keys(coding.radix + 1, cards)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    coeffs = np.zeros((len(first), len(terms)))
    empty = np.zeros(len(first), dtype=bool)
    for u, k in enumerate(first.tolist()):
        count = dict(zip(sums, cards[k].tolist()))
        try:
            coeffs[u] = [
                sign * (1.0 if term.coeff is None else _eval_coeff(term.coeff, count, location))
                for sign, term in terms
            ]
        except _ZeroCardinalityDivision:
            empty[u] = True
        except GroundingError as exc:
            errors.append((k, (1,), exc))
    coeffs, empty = coeffs[inverse.ravel()], empty[inverse.ravel()]
    where = "" if location[0] is None else " at %s:%s" % location
    drops = [
        (k, GroundingWarning("dropping grounding %s%s: division by an empty sum"
                             % (_origin(rule_id, names, subs[k], coding.constants), where)))
        for k in np.flatnonzero(empty).tolist()
    ]

    # Each term's ground atoms, summands in the scalar order: by grounding,
    # then candidates in the order the sum variables appear in the atom.
    live = (("#",), np.flatnonzero(~empty)[:, None])
    offsets = np.zeros(n)
    term_row, term_index, term_coeff = [], [], []
    for position, (_, term) in enumerate(terms):
        coeff = coeffs[:, position]
        if term.atom is None:
            offsets += coeff
            continue
        expansion = live
        for name in term.atom.sum_variables:
            expansion = _join(expansion, pairs[name], coding.radix)
        columns, expanded = expansion
        row = expanded[:, 0]
        atom_names = names + columns[1:]
        args = _atom_args(term.atom, atom_names, np.hstack([subs[row], expanded[:, 1:]]), coding)
        values, error = _values(data, term.atom.predicate, args)
        if error is not None:
            errors.append((row[error[0]], (2, position), error[1]))
        free = np.isnan(values)
        # ufunc.at adds in order, so each offset sums its summands one by one.
        np.add.at(offsets, row[~free], coeff[row[~free]] * values[~free])
        if free.any():  # only open atoms can be unobserved
            term_row.append(row[free])
            term_index.append(coding.indices(term.atom.predicate, args[free]))
            term_coeff.append(coeff[row[free]])

    indices, merged, arity = _merge_terms(term_row, term_index, term_coeff, n)
    if rule.relation == ">=":
        offsets, merged = -offsets, -merged
    row_ground = np.arange(n)
    if rule.weight is not None and rule.relation == "=":
        # Two hinges per grounding: the function, then its negation.
        term_ground = 2 * np.repeat(row_ground, arity)
        indices, merged, arity = _merge_terms(
            [term_ground, term_ground + 1], [indices, indices], [merged, -merged], 2 * n
        )
        offsets = np.stack([offsets, -offsets], axis=1).ravel()
        row_ground = np.repeat(row_ground, 2)
    is_eq = rule.weight is None and rule.relation == "="
    return _finish(
        rule, rule_id, names, subs, coding, (indices, merged, arity, offsets), row_ground,
        errors, location, prune, is_eq, ~empty, drops,
    )


class _Origins:
    """Origin strings of the potential rows of several rules, built on access
    (iterating builds them one rule at a time).

    Keeps what the strings are made of, not the rules' rows.
    """

    def __init__(self, blocks):
        self.blocks = [(b.rule_id, b.names, b.codes, b.row_ground, b.coding.constants)
                       for b in blocks]
        self.starts = np.cumsum([0] + [b.rows.size for b in blocks]).tolist()

    def __getitem__(self, r):
        k = bisect.bisect_right(self.starts, r) - 1
        rule_id, names, codes, row_ground, constants = self.blocks[k]
        return _origin(rule_id, names, codes[row_ground[r - self.starts[k]]], constants)

    def __iter__(self):
        """Every row's origin, formatted once per grounding of each rule."""
        for rule_id, names, codes, row_ground, constants in self.blocks:
            inside = ", ".join("%s=%%s" % name for name in names)
            columns = [map(constants.__getitem__, column) for column in codes.T.tolist()]
            substitutions = zip(*columns) if names else itertools.repeat((), len(codes))
            origins = list(map(("rule %d {%s}" % (rule_id, inside)).__mod__, substitutions))
            yield from map(origins.__getitem__, row_ground.tolist())


def ground_program(program, data, prune=False) -> HlMrf:
    """Ground a whole program into a hinge-loss MRF.

    Every rule becomes one template whose weight is the rule weight (0 for
    hard rules, whose templates have no potentials). Per-rule errors are
    aggregated with their source locations.
    """
    blocks = []
    templates = []
    weights = []
    errors = []
    spans = program.spans or tuple((None, None) for _ in program.rules)
    for rule_id, (rule, span) in enumerate(zip(program.rules, spans)):
        source = " ".join(rule.render().split())
        count = 0
        try:
            ground = ground_logical_rule if rule.kind == "logical" else ground_arithmetic_rule
            grounds = ground(rule, data, rule_id=rule_id, prune=prune, location=span)
            blocks.append(grounds)
            if isinstance(grounds.rows, PotentialRows):
                count = grounds.rows.size
        except LangError as exc:
            errors.append(str(exc))
        templates.append(TemplateInfo(source, count))
        weights.append(rule.weight if rule.weight is not None else 0.0)
    if errors:
        raise GroundingError("; ".join(errors))
    potentials = [b for b in blocks if isinstance(b.rows, PotentialRows)]
    constraint_rows = ConstraintRows.concatenate(
        [b.rows for b in blocks if isinstance(b.rows, ConstraintRows)]
    )
    return HlMrf.from_rows(
        data.coding().table, PotentialRows.concatenate([b.rows for b in potentials]),
        constraint_rows, templates, weights, _Origins(potentials),
    )
