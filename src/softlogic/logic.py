"""Clause-level semantics and the relaxation toolbox.

Covers the Lukasiewicz connectives, weighted MAX SAT brute force, the LP
relaxation with its randomized rounding and derandomization, the
local-consistency inner linear program and its closed form, and the
conversion of Boolean potential tables to nonnegatively weighted
disjunctions.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .model import LinearFunction

MAX_BRUTEFORCE_VARS = 20
MAX_INNER_LP_LITERALS = 4
_POLISH_PASSES = 4  # sweeps of polish_relaxed_solution, at most


class ClauseError(ValueError):
    """Raised for malformed clauses or assignments."""


@dataclass(frozen=True)
class Clause:
    """Weighted disjunction of literals over variable indices.

    ``pos`` holds the indices of unnegated literals, ``neg`` the negated
    ones; a variable may appear on at most one side, at most once.
    """

    pos: tuple[int, ...]
    neg: tuple[int, ...]
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "pos", tuple(sorted(self.pos)))
        object.__setattr__(self, "neg", tuple(sorted(self.neg)))
        if len(set(self.pos)) != len(self.pos) or len(set(self.neg)) != len(self.neg):
            raise ClauseError("repeated literal in clause")
        if set(self.pos) & set(self.neg):
            raise ClauseError("variable appears both negated and unnegated")
        if self.weight < 0:
            raise ClauseError("clause weight must be nonnegative")

    @property
    def variables(self) -> tuple[int, ...]:
        return tuple(sorted(self.pos + self.neg))

    def __len__(self) -> int:
        return len(self.pos) + len(self.neg)

    def satisfied(self, assignment) -> bool:
        """Boolean satisfaction under a 0/1 assignment."""
        return any(assignment[i] for i in self.pos) or any(
            not assignment[i] for i in self.neg
        )


def luk_eval(op: str, *args: float) -> float:
    """Lukasiewicz connectives on [0, 1] truth values.

    ``and``/``or`` are the t-norm max{a+b-1, 0} and t-co-norm min{a+b, 1};
    ``neg`` is 1-a. They agree with the Boolean operators on {0, 1}.
    """
    for a in args:
        if not 0.0 <= a <= 1.0:
            raise ClauseError("truth value %r outside [0, 1]" % (a,))
    if op == "and":
        if len(args) != 2:
            raise ClauseError("and takes two arguments")
        return max(args[0] + args[1] - 1.0, 0.0)
    if op == "or":
        if len(args) != 2:
            raise ClauseError("or takes two arguments")
        return min(args[0] + args[1], 1.0)
    if op == "neg":
        if len(args) != 1:
            raise ClauseError("neg takes one argument")
        return 1.0 - args[0]
    raise ClauseError("unknown operator %r" % op)


def clause_value(clause: Clause, y) -> float:
    """Relaxed clause truth: min{sum(pos) + sum(1 - neg), 1}."""
    try:
        total = sum(y[i] for i in clause.pos) + sum(1.0 - y[i] for i in clause.neg)
    except (IndexError, KeyError) as exc:
        raise ClauseError("assignment missing variable: %s" % exc) from None
    return min(total, 1.0)


def clause_to_linfun(clause: Clause) -> LinearFunction:
    """Distance-to-satisfaction function with max{l, 0} = 1 - clause_value."""
    if len(clause) == 0:
        warnings.warn("empty clause is never satisfiable", stacklevel=2)
    terms = [(i, -1.0) for i in clause.pos] + [(i, 1.0) for i in clause.neg]
    return LinearFunction(terms, 1.0 - len(clause.neg))


def boolean_score(clauses, assignment) -> float:
    """Total weight of clauses satisfied by a 0/1 assignment."""
    return sum(c.weight for c in clauses if c.satisfied(assignment))


def maxsat_bruteforce(clauses, n: int):
    """Exhaustive weighted MAX SAT over n Boolean variables.

    Returns ``(assignment, best_score)`` where ties go to the
    lexicographically smallest assignment.
    """
    if n > MAX_BRUTEFORCE_VARS:
        raise ClauseError("brute force limited to %d variables" % MAX_BRUTEFORCE_VARS)
    best = None
    best_score = -1.0
    for bits in itertools.product((0, 1), repeat=n):
        score = boolean_score(clauses, bits)
        if score > best_score + 1e-12:
            best = bits
            best_score = score
    return best, best_score


def expected_score(clauses, probs) -> float:
    """Expected weighted satisfaction when variable i rounds to 1 w.p. p_i.

    Each clause contributes the weighted noisy-or of its literals.
    """
    total = 0.0
    for c in clauses:
        unsat = 1.0
        for i in c.pos:
            unsat *= 1.0 - probs[i]
        for i in c.neg:
            unsat *= probs[i]
        total += c.weight * (1.0 - unsat)
    return total


def rounding_probs(y_star) -> np.ndarray:
    """Map a relaxed optimum into rounding probabilities p = y/2 + 1/4."""
    y = np.asarray(y_star, dtype=float)
    return 0.5 * y + 0.25


def derandomize(clauses, probs):
    """Method of conditional probabilities.

    Fixes variables in ascending index order to whichever Boolean value
    maximizes the conditional expected score; only clauses containing the
    variable are re-examined. Ties prefer 0. The returned assignment scores
    at least the expected score of the input probabilities.
    """
    probs = list(map(float, probs))
    n = len(probs)
    touching = [[] for _ in range(n)]
    for c in clauses:
        for i in c.variables:
            if i < n:
                touching[i].append(c)
    assignment = probs[:]
    for i in range(n):
        gain = {}
        for value in (0.0, 1.0):
            assignment[i] = value
            gain[value] = expected_score(touching[i], assignment)
        assignment[i] = 1.0 if gain[1.0] > gain[0.0] + 1e-12 else 0.0
    return tuple(int(v) for v in assignment)


def lcr_inner_lp(clause: Clause, mu) -> float:
    """Exact inner linear program of the local consistency relaxation.

    Optimizes the joint pseudomarginal of one clause's variables, holding
    the variable pseudomarginals ``mu`` (given in the order of
    ``clause.variables``) fixed: maximize the weighted mass on satisfying
    states subject to marginalization, simplex, and nonnegativity.
    """
    variables = clause.variables
    k = len(variables)
    if k > MAX_INNER_LP_LITERALS:
        raise ClauseError("inner LP limited to %d literals" % MAX_INNER_LP_LITERALS)
    mu = list(map(float, mu))
    if len(mu) != k:
        raise ClauseError("expected %d pseudomarginals, got %d" % (k, len(mu)))
    for m in mu:
        if not 0.0 <= m <= 1.0:
            raise ClauseError("pseudomarginal %r outside [0, 1]" % (m,))
    if k == 0:
        return 0.0

    states = list(itertools.product((0, 1), repeat=k))
    false_state = tuple(0 if variables[j] in clause.pos else 1 for j in range(k))

    c = np.array([clause.weight * (s != false_state) for s in states])
    rows = []
    rhs = []
    for j, var in enumerate(variables):
        if var in clause.pos:
            rows.append([1.0 if s[j] == 1 else 0.0 for s in states])
            rhs.append(mu[j])
        else:
            rows.append([1.0 if s[j] == 0 else 0.0 for s in states])
            rhs.append(1.0 - mu[j])
    rows.append([1.0] * len(states))
    rhs.append(1.0)

    # Imported here: scipy.optimize is slow to import, and only this and
    # `learn.solve_margin_qp` need it.
    from scipy.optimize import linprog

    result = linprog(-c, A_eq=np.array(rows), b_eq=np.array(rhs), method="highs")
    if result.status != 0:
        raise ClauseError("inner LP failed: %s" % result.message)
    return float(-result.fun)


def lcr_compact_value(clause: Clause, mu) -> float:
    """Closed form of the inner LP: w * min{sum mu+ + sum (1 - mu-), 1}."""
    variables = clause.variables
    total = 0.0
    for j, var in enumerate(variables):
        total += mu[j] if var in clause.pos else 1.0 - mu[j]
    return clause.weight * min(total, 1.0)


def relaxed_total_score(clauses, y) -> float:
    """Weighted sum of relaxed clause values (the LP objective)."""
    return sum(c.weight * clause_value(c, y) for c in clauses)


def polish_relaxed_solution(clauses, y):
    """Coordinate ascent on the relaxed objective.

    Each coordinate move is exact: the objective is concave and piecewise
    linear in one variable, so the best value sits at 0, 1, or a breakpoint
    where some clause saturates. Never decreases the objective; useful for
    tightening iterative solutions before rounding.
    """
    y = [float(v) for v in y]
    n = len(y)
    touching = [[] for _ in range(n)]
    for c in clauses:
        for i in c.variables:
            if i < n:
                touching[i].append(c)
    for _ in range(_POLISH_PASSES):
        improved = False
        for i in range(n):
            candidates = {0.0, 1.0, y[i]}
            for c in touching[i]:
                partial = sum(y[j] for j in c.pos if j != i) + sum(
                    1.0 - y[j] for j in c.neg if j != i
                )
                # Saturation breakpoint of this clause along coordinate i.
                t = 1.0 - partial if i in c.pos else partial
                if 0.0 < t < 1.0:
                    candidates.add(t)
            base = sum(c.weight * clause_value(c, y) for c in touching[i])
            best_v, best_gain = y[i], 0.0
            for v in sorted(candidates):
                y[i] = v
                gain = sum(c.weight * clause_value(c, y) for c in touching[i]) - base
                if gain > best_gain + 1e-12:
                    best_v, best_gain = v, gain
            y[i] = best_v
            if best_gain > 0:
                improved = True
        if not improved:
            break
    return np.array(y)


class BooleanPotentialTable:
    """Score table of a small Boolean potential over explicit joint states.

    Missing states are implicitly scored 0, so a partial specification
    still covers all 2^k states.
    """

    MAX_VARIABLES = 4

    def __init__(self, variables, scores):
        self.variables = tuple(variables)
        k = len(self.variables)
        if k > self.MAX_VARIABLES:
            raise ClauseError("potential tables limited to %d variables" % self.MAX_VARIABLES)
        table = {s: 0.0 for s in itertools.product((0, 1), repeat=k)}
        for state, score in dict(scores).items():
            state = tuple(int(b) for b in state)
            if state not in table:
                raise ClauseError("state %r incompatible with %d variables" % (state, k))
            table[state] = float(score)
        self.scores = table

    def score(self, assignment) -> float:
        state = tuple(int(assignment[v]) for v in self.variables)
        return self.scores[state]


def boolean_table_to_clauses(table: BooleanPotentialTable):
    """Rewrite a Boolean potential as nonnegatively weighted disjunctions.

    Every table entry becomes the disjunction that is false exactly at that
    state, with the entry's score negated; all weights are then shifted up
    by the smallest constant that makes them nonnegative, and zero-weight
    clauses are dropped. Returns ``(clauses, constant)`` such that for every
    Boolean state the summed clause score equals the original score plus
    ``constant``.
    """
    raw = []
    for state, score in sorted(table.scores.items()):
        pos = tuple(v for v, b in zip(table.variables, state) if b == 0)
        neg = tuple(v for v, b in zip(table.variables, state) if b == 1)
        raw.append((pos, neg, -score))

    shift = max(0.0, -min((w for _, _, w in raw), default=0.0))
    clauses = [
        Clause(pos, neg, w + shift) for pos, neg, w in raw if w + shift != 0.0
    ]
    n_states = len(table.scores)
    constant = shift * (n_states - 1) - sum(table.scores.values())
    return clauses, constant
