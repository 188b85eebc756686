"""Shared builders and independent oracles for the test suite."""

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from softlogic.ground import DataError, DataSet, GroundingError, GroundingWarning, PredicateDef
from softlogic.infer import SolveOptions
from softlogic.lang.ast import (
    And,
    Atom,
    CoeffBuiltin,
    CoeffCardinality,
    CoeffNumber,
    ComparisonAtom,
    Constant,
    Implies,
    LangError,
    Neg,
    Or,
    Variable,
)
from softlogic.lang.lexer import tokenize
from softlogic.lang.parser import normalize_logical
from softlogic.model import (
    GroundAtom,
    HingePotential,
    HlMrf,
    LinearConstraint,
    LinearFunction,
    ModelError,
    Relation,
    TemplateInfo,
    VariableTable,
)

TIGHT = SolveOptions(eps_abs=1e-9, eps_rel=1e-9)


def make_mrf(potentials, constraints=(), weights=(), n=1, observed=None):
    table = VariableTable(
        [GroundAtom("y", (str(i),)) for i in range(n)], observed or {}
    )
    counts = [0] * len(weights)
    for pot in potentials:
        counts[pot.template_id] += 1
    templates = [TemplateInfo("template %d" % i, c) for i, c in enumerate(counts)]
    return HlMrf(table, potentials, constraints, templates, weights)


def hinge(terms, offset, exponent=1, template=0):
    return HingePotential(LinearFunction(terms, offset), exponent, template)


def leq(terms, offset):
    return LinearConstraint(LinearFunction(terms, offset), Relation.LEQ)


def eq(terms, offset):
    return LinearConstraint(LinearFunction(terms, offset), Relation.EQ)


def random_mrf(rng, n_vars=None, n_pots=None, squared_allowed=True, constrained=False):
    """A random small model with opposing hinges (nontrivial optimum)."""
    n = n_vars or rng.integers(2, 5)
    m = n_pots or rng.integers(2, 8)
    potentials = []
    for _ in range(m):
        k = int(rng.integers(1, min(3, n) + 1))
        idx = rng.choice(n, size=k, replace=False)
        coeffs = rng.uniform(-1.0, 1.0, size=k)
        offset = rng.uniform(-0.5, 0.8)
        exponent = int(rng.integers(1, 3)) if squared_allowed else 1
        potentials.append(hinge(list(zip(idx.tolist(), coeffs)), offset, exponent))
    weights = rng.uniform(0.2, 1.5, size=m)
    constraints = []
    if constrained and n >= 2:
        i, j = rng.choice(n, size=2, replace=False)
        if rng.random() < 0.5:
            constraints.append(eq([(int(i), 1.0), (int(j), 1.0)], -1.0))
        else:
            constraints.append(leq([(int(i), 1.0), (int(j), 1.0)], -1.0))
    return make_mrf(potentials, constraints, weights, n=n)


def fold_observed(lf, table):
    """``lf`` with fixed values substituted for observed variables into the offset."""
    offset = lf.offset
    kept = []
    for idx, coeff in lf.terms:
        if idx in table.observed:
            offset += coeff * table.observed[idx]
        else:
            kept.append((idx, coeff))
    return LinearFunction(kept, offset)


def reference_to_dict(mrf):
    """A model's version-1 document, written from its objects (reference writer)."""

    def linfun_dict(lf):
        return {"terms": [[i, c] for i, c in lf.terms], "offset": lf.offset}

    return {
        "format": "softlogic-ground-model",
        "version": 1,
        "variables": [
            {
                "predicate": atom.predicate,
                "args": list(atom.args),
                "observed": mrf.table.observed.get(i),
            }
            for i, atom in enumerate(mrf.table.labels)
        ],
        "templates": [
            {"source": t.source, "groundings": t.groundings, "weight": float(w)}
            for t, w in zip(mrf.templates, mrf.weights)
        ],
        "potentials": [
            {
                "linfun": linfun_dict(p.linfun),
                "exponent": p.exponent,
                "template": p.template_id,
                "origin": p.origin,
            }
            for p in mrf.potentials
        ],
        "constraints": [
            {"linfun": linfun_dict(c.linfun), "relation": c.relation.value}
            for c in mrf.constraints
        ],
    }


def batch_energy(mrf, assignments):
    """Energy of many assignments at once (rows of ``assignments``)."""
    table = mrf.table
    total = np.zeros(assignments.shape[0])
    for pot in mrf.potentials:
        lf = fold_observed(pot.linfun, table)
        positions = [table.position[i] for i, _ in lf.terms]
        coeffs = np.array([c for _, c in lf.terms])
        lin = assignments[:, positions] @ coeffs + lf.offset if positions else lf.offset
        value = np.maximum(lin, 0.0) ** pot.exponent
        total += mrf.weights[pot.template_id] * value
    return total


def batch_feasible(mrf, assignments, tol=1e-9):
    table = mrf.table
    ok = np.ones(assignments.shape[0], dtype=bool)
    for con in mrf.constraints:
        lf = fold_observed(con.linfun, table)
        positions = [table.position[i] for i, _ in lf.terms]
        coeffs = np.array([c for _, c in lf.terms])
        value = assignments[:, positions] @ coeffs + lf.offset
        if con.relation is Relation.EQ:
            ok &= np.abs(value) <= tol
        else:
            ok &= value <= tol
    return ok


def grid_minimize(mrf, step=0.05, refinements=8, feas_tol=1e-9):
    """Derivative-free oracle: global grid pass, then local refinement.

    Convexity of the energy and feasible set makes coarse-to-fine search
    sound; the refinement shrinks a 5^n stencil around the incumbent.
    """
    n = mrf.n_free
    axis = np.arange(0.0, 1.0 + 1e-12, step)
    best_value = np.inf
    best_point = None
    chunk_axes = axis if n <= 4 else np.arange(0.0, 1.0 + 1e-12, max(step, 0.1))
    for head in itertools.product(chunk_axes, repeat=max(0, n - 4)):
        tail_grids = np.meshgrid(*([chunk_axes] * min(n, 4)), indexing="ij")
        points = np.column_stack([g.ravel() for g in tail_grids])
        if head:
            points = np.column_stack(
                [np.tile(head, (points.shape[0], 1)), points]
            )
        feasible = batch_feasible(mrf, points, tol=max(feas_tol, step / 2))
        if not feasible.any():
            continue
        values = batch_energy(mrf, points[feasible])
        k = int(np.argmin(values))
        if values[k] < best_value:
            best_value = float(values[k])
            best_point = points[feasible][k]
    assert best_point is not None, "grid found no feasible point"

    radius = float(step)
    point = best_point
    for _ in range(refinements):
        offsets = np.array(list(itertools.product((-2, -1, 0, 1, 2), repeat=n)))
        candidates = np.clip(point + offsets * (radius / 2.0), 0.0, 1.0)
        feasible = batch_feasible(mrf, candidates, tol=max(feas_tol, radius / 10))
        if feasible.any():
            values = batch_energy(mrf, candidates[feasible])
            k = int(np.argmin(values))
            if values[k] < best_value:
                best_value = float(values[k])
                point = candidates[feasible][k]
        radius /= 2.0
    return point, best_value


def golden_section(fn, lo, hi, tol=1e-12, iters=200):
    """Minimize a unimodal function on [lo, hi]."""
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if b - a < tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    x = (a + b) / 2.0
    return x, fn(x)


def oracle_subproblem(pot, weight, z, rho):
    """Golden-section oracle: the optimum moves from z along the hinge normal."""
    a = np.array([c for _, c in pot.linfun.terms])
    b = pot.linfun.offset
    z = np.asarray(z, dtype=float)
    norm2 = float(a @ a)
    lz = float(a @ z + b)
    if lz <= 0:
        return z

    def value(s):
        x = z - s * a
        return weight * max(float(a @ x + b), 0.0) ** pot.exponent + 0.5 * rho * float(
            (x - z) @ (x - z)
        )

    upper = max(weight / rho, max(lz, 0.0) / norm2) + 1.0
    s, _ = golden_section(value, 0.0, upper)
    return z - s * a


# -- scalar reference ADMM ops (one block at a time) ------------------------


def solve_potential_subproblem(pot: HingePotential, weight, z, rho, cache=None):
    """Exact minimizer of ``w (max{l(x), 0})^p + rho/2 ||x - z||^2``.

    ``z`` is ordered like ``pot.linfun.terms``. For squared hinges the
    linear system is solved by a Cholesky factorization that can be cached
    across potentials sharing a template and coefficient signature.
    """
    a = np.array([c for _, c in pot.linfun.terms], dtype=float)
    b = pot.linfun.offset
    z = np.asarray(z, dtype=float)
    if z.shape != a.shape:
        raise ModelError("target has %d entries, potential has %d" % (z.size, a.size))
    if weight < 0 or rho <= 0:
        raise ModelError("need weight >= 0 and rho > 0")
    if a.size == 0 or weight == 0.0:
        return z.copy()

    if a @ z + b <= 0.0:
        return z.copy()

    if pot.exponent == 1:
        x = z - (weight / rho) * a
        if a @ x + b >= 0.0:
            return x
        # Both modified problems land outside their regions: the hinge is
        # active, so project onto its hyperplane.
        return z - ((a @ z + b) / (a @ a)) * a

    key = (pot.template_id, pot.linfun.terms, float(weight), float(rho))
    factor = cache.get(key) if cache is not None else None
    if factor is None:
        matrix = rho * np.eye(a.size) + 2.0 * weight * np.outer(a, a)
        factor = scipy.linalg.cho_factor(matrix)
        if cache is not None:
            cache[key] = factor
    return scipy.linalg.cho_solve(factor, rho * z - 2.0 * weight * b * a)


def two_sided_pairs(potentials, position):
    """``(first, second)`` index pairs of the potentials that form two-sided
    blocks, found with plain loops: over the same variables, ``a2 = mu * a1``
    exactly with ``mu < 0`` (terms sorted by position, ``mu`` the ratio of
    the leading coefficients), and ``b2 - mu * b1 <= 0``. Of the
    potentials over one set of variables, in order, the ``j``-th with a
    positive leading coefficient meets the ``j``-th with a negative one.
    ``position`` maps a table index to its free position; the potentials
    hold free variables only."""
    runs = {}
    for k, pot in enumerate(potentials):
        terms = sorted((position[i], c) for i, c in pot.linfun.terms)
        if terms:
            key = tuple(p for p, _ in terms)
            runs.setdefault(key, ([], []))[terms[0][1] < 0].append((k, terms, pot.linfun.offset))
    pairs = []
    for positives, negatives in runs.values():
        for (i, t1, b1), (j, t2, b2) in zip(positives, negatives):
            mu = t2[0][1] / t1[0][1]
            if all(c2 == mu * c1 for (_, c1), (_, c2) in zip(t1[1:], t2[1:])) and b2 - mu * b1 <= 0:
                pairs.append((i, j))
    return pairs


def solve_two_sided_subproblem(first, second, w1, w2, z, rho):
    """Exact minimizer of ``w1 h1(x) + w2 h2(x) + rho/2 ||x - z||^2`` for
    two hinges whose active regions are disjoint and whose rows are
    multiples of each other, ``z`` ordered like ``first``'s terms.

    The minimizer lies on the line ``z - s * a1``; golden section along it
    finds it, but only to about 1e-8 where the objective is smooth (it is
    flat to rounding that close to its minimum). So of ``z`` and the two
    single-hinge minimizers, the one with the least objective is returned,
    after checking that it is no worse than the golden-section point and
    lies next to it."""
    a = np.array([c for _, c in first.linfun.terms], dtype=float)
    z = np.asarray(z, dtype=float)
    b = [first.linfun.offset, second.linfun.offset]
    mu = second.linfun.terms[0][1] / first.linfun.terms[0][1]

    def value(x):
        rows = (float(a @ x) + b[0], mu * float(a @ x) + b[1])
        hinges = [max(v, 0.0) ** p.exponent for v, p in zip(rows, (first, second))]
        return w1 * hinges[0] + w2 * hinges[1] + 0.5 * rho * float((x - z) @ (x - z))

    reach = (abs(float(a @ z)) + abs(b[0]) + abs(b[1]) / -mu) / float(a @ a)
    reach += (w1 + w2 * -mu) / rho + 1.0
    s, _ = golden_section(lambda s: value(z - s * a), -reach, reach)
    near = z - s * a
    # second's terms follow first's order: both are sorted by variable.
    singles = ((first, w1), (second, w2))
    candidates = [z, *(solve_potential_subproblem(p, w, z, rho) for p, w in singles)]
    best = min(candidates, key=value)
    assert value(best) <= value(near) + 1e-12
    assert np.abs(best - near).max() <= 1e-6
    return best


def solve_constraint_subproblem(con: LinearConstraint, z, rho):
    """Projection of ``z`` onto the constraint's feasible set."""
    a = np.array([c for _, c in con.linfun.terms], dtype=float)
    b = con.linfun.offset
    z = np.asarray(z, dtype=float)
    if z.shape != a.shape:
        raise ModelError("target has %d entries, constraint has %d" % (z.size, a.size))
    norm2 = a @ a
    if norm2 == 0.0:
        raise ModelError("constraint has an all-zero normal vector")
    value = a @ z + b
    if con.relation is Relation.LEQ and value <= 0.0:
        return z.copy()
    return z - (value / norm2) * a


@dataclass
class AdmmBlock:
    indices: np.ndarray  # positions into the consensus vector
    local: np.ndarray
    multiplier: np.ndarray


@dataclass
class AdmmState:
    blocks: list
    consensus: np.ndarray
    previous: np.ndarray
    rho: float

    def copy_counts(self) -> np.ndarray:
        counts = np.zeros(self.consensus.size)
        for block in self.blocks:
            np.add.at(counts, block.indices, 1.0)
        return counts


def consensus_update(state: AdmmState) -> np.ndarray:
    """Average copies (plus scaled multipliers) per variable and clip."""
    n = state.consensus.size
    total = np.zeros(n)
    counts = np.zeros(n)
    for block in state.blocks:
        np.add.at(total, block.indices, block.local + block.multiplier / state.rho)
        np.add.at(counts, block.indices, 1.0)
    updated = state.consensus.copy()
    touched = counts > 0
    updated[touched] = np.clip(total[touched] / counts[touched], 0.0, 1.0)
    state.previous = state.consensus
    state.consensus = updated
    return updated


@dataclass(frozen=True)
class ConvergenceCheck:
    converged: bool
    primal_residual: float
    dual_residual: float
    eps_primal: float
    eps_dual: float


def check_convergence(state: AdmmState, eps_abs: float, eps_rel: float) -> ConvergenceCheck:
    """Primal/dual residual tests on the current state."""
    counts = state.copy_counts()
    total_copies = counts.sum()
    primal_sq = 0.0
    local_sq = 0.0
    mult_sq = 0.0
    for block in state.blocks:
        diff = block.local - state.consensus[block.indices]
        primal_sq += float(diff @ diff)
        local_sq += float(block.local @ block.local)
        mult_sq += float(block.multiplier @ block.multiplier)
    primal = np.sqrt(primal_sq)
    dual = state.rho * np.sqrt(float(counts @ (state.consensus - state.previous) ** 2))
    eps_primal = eps_abs * np.sqrt(total_copies) + eps_rel * max(
        np.sqrt(local_sq), np.sqrt(float(counts @ state.consensus**2))
    )
    eps_dual = eps_abs * np.sqrt(total_copies) + eps_rel * np.sqrt(mult_sq)
    return ConvergenceCheck(
        bool(primal <= eps_primal and dual <= eps_dual), primal, dual, eps_primal, eps_dual
    )


def reference_mple(instance, weights, quadrature=257, block_samples=1000, seed=0):
    """Log pseudolikelihood and gradient, each conditional over full assignments.

    Every conditional copies the whole truth once per quadrature point or
    sample and re-evaluates each touching potential on those copies. Only
    models of disjoint sum-to-one blocks and singletons are supported.
    """
    mrf = instance.mrf
    table = mrf.table
    truth = instance.truth
    weights = np.asarray(weights, dtype=float)
    folded = []
    for pot in mrf.potentials:
        lf = fold_observed(pot.linfun, table)
        positions = np.array([table.position[i] for i, _ in lf.terms], dtype=np.intp)
        coeffs = np.array([c for _, c in lf.terms])
        folded.append((positions, coeffs, lf.offset, pot.exponent, pot.template_id))
    blocks = []
    for con in mrf.constraints:
        lf = fold_observed(con.linfun, table)
        if lf.terms:
            blocks.append(tuple(table.position[i] for i, _ in lf.terms))
    in_block = {p for block in blocks for p in block}
    singletons = [p for p in range(mrf.n_free) if p not in in_block]

    def phi(j, states):
        positions, coeffs, offset, exponent, _ = folded[j]
        return np.maximum(states[:, positions] @ coeffs + offset, 0.0) ** exponent

    log_pl = 0.0
    grad = np.zeros(len(mrf.templates))

    def conditional(varied, states, quad_grid=None):
        nonlocal log_pl
        js = [j for j, f in enumerate(folded) if set(f[0].tolist()) & set(varied)]
        energies = sum((weights[folded[j][4]] * phi(j, states) for j in js), np.zeros(len(states)))
        truth_phi = {j: phi(j, truth[None, :])[0] for j in js}
        shift = energies.min()
        density = np.exp(-(energies - shift))
        if quad_grid is not None:
            z = np.trapezoid(density, quad_grid)
            expect = lambda f: np.trapezoid(f * density, quad_grid) / z
        else:
            z = density.mean()
            expect = lambda f: (f * density).mean() / z
        log_pl += -sum(weights[folded[j][4]] * truth_phi[j] for j in js) - (np.log(z) - shift)
        for j in js:
            grad[folded[j][4]] += expect(phi(j, states)) - truth_phi[j]

    grid = np.linspace(0.0, 1.0, quadrature)
    for p in singletons:
        states = np.tile(truth, (quadrature, 1))
        states[:, p] = grid
        conditional((p,), states, quad_grid=grid)
    rng = np.random.default_rng(seed)
    for block in blocks:
        states = np.tile(truth, (block_samples, 1))
        states[:, list(block)] = rng.dirichlet(np.ones(len(block)), size=block_samples)
        conditional(block, states)
    counts = np.array([max(t.groundings, 1) for t in mrf.templates], dtype=float)
    return log_pl, grad / counts


# -- brute-force reference grounder ------------------------------------------


def _reference_domains(atoms, data, location):
    """Variable name -> sorted constants of every type it takes, checked."""
    types = {}
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
                if arg.value not in data.universe[type_name]:
                    raise GroundingError(
                        'constant "%s" does not have type %s' % (arg.value, type_name),
                        *location,
                    )
            else:
                types.setdefault(arg.name, []).append(type_name)
    return {
        name: sorted(set.intersection(*(set(data.universe[t]) for t in ts)))
        for name, ts in types.items()
    }


def _reference_value(data, atom):
    if atom.predicate in data.functionals:
        return float(data.functionals[atom.predicate](*atom.args))
    if atom in data.observations:
        return data.observations[atom]
    return 0.0 if data.predicates[atom.predicate].closed else None


def _reference_atom_value(data, atom, subst):
    """The atom's value under ``subst`` (None if unobserved) and the ground atom."""
    if isinstance(atom, ComparisonAtom):
        left, right = (
            t.value if isinstance(t, Constant) else subst[t.name] for t in (atom.left, atom.right)
        )
        return (1.0 if left != right else 0.0), None
    ground = _reference_atom(atom, subst)
    return _reference_value(data, ground), ground


def _reference_substitutions(domains):
    names = sorted(domains)
    for combo in itertools.product(*(domains[n] for n in names)):
        yield tuple(zip(names, combo))


def _reference_atom(atom, subst):
    args = tuple(a.value if isinstance(a, Constant) else subst[a.name] for a in atom.args)
    return GroundAtom(atom.predicate, args)


def _reference_origin(rule_id, sub):
    return "rule %d {%s}" % (rule_id, ", ".join("%s=%s" % kv for kv in sub))


def _reference_hard(linfun, relation, origin, prune, location):
    """The constraint a hard grounding emits, or None when pruned away."""
    if not linfun.terms:
        value = linfun.offset
        if (abs(value) if relation is Relation.EQ else value) > 1e-9:
            raise GroundingError(
                "hard rule is violated by the observations alone (%s)" % origin, *location
            )
        if prune:
            return None
    return LinearConstraint(linfun, relation)


def _reference_useful(linfun, prune):
    box_max = linfun.offset + sum(c for _, c in linfun.terms if c > 0)
    return not prune or (linfun.terms and box_max > 0.0)


def _reference_logical(rule, rule_id, data, index, prune, location):
    if rule.literals is None:
        rule = normalize_logical(rule)
    atoms = [lit.atom for lit in rule.literals if isinstance(lit.atom, Atom)]
    domains = _reference_domains(atoms, data, location)
    # With pruning, a negated closed atom at 0 satisfies the clause outright
    # (functional predicates are not observations, so never theirs).
    blocking = [
        lit.atom
        for lit in rule.literals
        if prune
        and lit.negated
        and isinstance(lit.atom, Atom)
        and data.predicates[lit.atom.predicate].closed
        and lit.atom.predicate not in data.functionals
    ]
    potentials, constraints = [], []
    for sub in _reference_substitutions(domains):
        subst = dict(sub)
        if any(_reference_value(data, _reference_atom(a, subst)) == 0.0 for a in blocking):
            continue
        values = [_reference_atom_value(data, lit.atom, subst) for lit in rule.literals]
        offset, terms = 1.0, []
        for lit, (value, atom) in zip(rule.literals, values):
            if value is not None:
                offset -= (1.0 - value) if lit.negated else value
            elif lit.negated:
                offset -= 1.0
                terms.append((index[atom], 1.0))
            else:
                terms.append((index[atom], -1.0))
        linfun = LinearFunction(terms, offset)
        origin = _reference_origin(rule_id, sub)
        if rule.weight is None:
            con = _reference_hard(linfun, Relation.LEQ, origin, prune, location)
            constraints += [con] if con is not None else []
        elif _reference_useful(linfun, prune):
            exponent = 2 if rule.squared else 1
            potentials.append(HingePotential(linfun, exponent, rule_id, origin))
    return potentials, constraints


def _reference_clause_atoms(expr):
    """The atoms of a select clause, left to right."""
    if isinstance(expr, (Atom, ComparisonAtom)):
        return [expr]
    if isinstance(expr, Neg):
        return _reference_clause_atoms(expr.operand)
    if isinstance(expr, Implies):
        return _reference_clause_atoms(expr.body) + _reference_clause_atoms(expr.head)
    return _reference_clause_atoms(expr.left) + _reference_clause_atoms(expr.right)


def _reference_check_select(select, data, plain, location):
    for atom in _reference_clause_atoms(select.clause):
        if isinstance(atom, Atom):
            pred = data.predicates.get(atom.predicate)
            if pred is None:
                raise GroundingError("unknown predicate %s" % atom.predicate, *location)
            if not pred.closed:
                raise GroundingError(
                    "select statement references open predicate %s" % atom.predicate, *location
                )
        for name in atom.variables + atom.sum_variables:
            if name != select.var and name not in plain:
                raise GroundingError("select statement uses unknown variable %s" % name, *location)
        if isinstance(atom, Atom):
            _reference_domains([atom], data, location)


def _reference_selected(expr, data, subst):
    """Whether a select clause holds: an atom holds when its value is nonzero."""
    if isinstance(expr, (Atom, ComparisonAtom)):
        return _reference_atom_value(data, expr, subst)[0] != 0.0
    if isinstance(expr, Neg):
        return not _reference_selected(expr.operand, data, subst)
    if isinstance(expr, And):
        return _reference_selected(expr.left, data, subst) and _reference_selected(
            expr.right, data, subst
        )
    if isinstance(expr, Or):
        return _reference_selected(expr.left, data, subst) or _reference_selected(
            expr.right, data, subst
        )
    return not _reference_selected(expr.body, data, subst) or _reference_selected(
        expr.head, data, subst
    )


def _reference_coeff(node, cards):
    """A coefficient's value; ZeroDivisionError when it divides by zero."""
    if node is None:
        return 1.0
    if isinstance(node, CoeffNumber):
        return node.value
    if isinstance(node, CoeffCardinality):
        return float(cards[node.var])
    if isinstance(node, CoeffBuiltin):
        fn = {"Min": min, "Max": max}[node.name]
        return float(fn(*(_reference_coeff(a, cards) for a in node.args)))
    left, right = _reference_coeff(node.left, cards), _reference_coeff(node.right, cards)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if right == 0.0:
        raise ZeroDivisionError
    return left / right


def _reference_arithmetic(rule, rule_id, data, index, prune, location):
    """Arithmetic rules; each sum variable ranges over its type, filtered by its select."""
    atoms = [t.atom for t in rule.lhs + rule.rhs if t.atom is not None]
    domains = _reference_domains(atoms, data, location)
    sums = set(rule.sum_variables)
    both = sorted(sums & {a.name for atom in atoms for a in atom.args if isinstance(a, Variable)})
    if both:
        raise GroundingError(
            "variable %s is used both plain and as a sum variable" % both[0], *location
        )
    plain = {name: pool for name, pool in domains.items() if name not in sums}
    for select in rule.selects:
        _reference_check_select(select, data, plain, location)
    clauses = {select.var: select.clause for select in rule.selects}
    potentials, constraints = [], []
    for sub in _reference_substitutions(plain):
        subst = dict(sub)
        origin = _reference_origin(rule_id, sub)
        candidates = {
            name: [
                c
                for c in domains[name]
                if name not in clauses or _reference_selected(clauses[name], data, {**subst, name: c})
            ]
            for name in sums
        }
        cards = {name: len(pool) for name, pool in candidates.items()}
        try:
            parts = [
                (sign * _reference_coeff(term.coeff, cards), term.atom)
                for sign, side in ((1.0, rule.lhs), (-1.0, rule.rhs))
                for term in side
            ]
        except ZeroDivisionError:
            where = "" if location[0] is None else " at %s:%s" % location
            warnings.warn(GroundingWarning(
                "dropping grounding %s%s: division by an empty sum" % (origin, where)
            ))
            continue
        offset, terms = 0.0, []
        for coeff, atom in parts:
            if atom is None:
                offset += coeff
                continue
            names = atom.sum_variables
            for combo in itertools.product(*(candidates[name] for name in names)):
                value, ground = _reference_atom_value(data, atom, {**subst, **dict(zip(names, combo))})
                if value is not None:
                    offset += coeff * value
                else:
                    terms.append((index[ground], coeff))
        linfun = LinearFunction(terms, offset)
        if rule.relation == ">=":
            linfun = linfun.negated()
        if rule.weight is None:
            relation = Relation.EQ if rule.relation == "=" else Relation.LEQ
            con = _reference_hard(linfun, relation, origin, prune, location)
            constraints += [con] if con is not None else []
            continue
        funs = [linfun, linfun.negated()] if rule.relation == "=" else [linfun]
        exponent = 2 if rule.squared else 1
        potentials += [
            HingePotential(fun, exponent, rule_id, origin)
            for fun in funs
            if _reference_useful(fun, prune)
        ]
    return potentials, constraints


def reference_ground_program(program, data, prune=False):
    """Brute-force grounder to check `ground_program` against.

    Every rule is grounded over the full product of its variables' sorted
    typed domains (variables by name), with no join plan, observation index
    or membership set: types are read from ``data.universe`` and values
    from ``data.observations``. With ``prune``, a grounding is dropped when
    a negated closed atom is 0 (functional predicates are not observations,
    so this never drops one of theirs), a hinge can never be active on the
    unit box, or a hard grounding has no free atom. Covers logical rules,
    with comparisons and functional predicates, and arithmetic rules with
    sum variables, select clauses and cardinality coefficients; a grounding
    whose coefficient divides by zero is dropped with a `GroundingWarning`.
    """
    labels = []
    for name in sorted(data.predicates):
        pred = data.predicates[name]
        if not pred.closed:
            domains = [sorted(data.universe[t]) for t in pred.arg_types]
            labels += [GroundAtom(name, combo) for combo in itertools.product(*domains)]
    index = {atom: i for i, atom in enumerate(labels)}
    observed = {i: data.observations[a] for i, a in enumerate(labels) if a in data.observations}

    potentials, constraints, templates, weights, errors = [], [], [], [], []
    spans = program.spans or [(None, None)] * len(program.rules)
    for rule_id, (rule, span) in enumerate(zip(program.rules, spans)):
        ground = _reference_logical if rule.kind == "logical" else _reference_arithmetic
        try:
            pots, cons = ground(rule, rule_id, data, index, prune, span)
        except LangError as exc:
            errors.append(str(exc))
            pots, cons = [], []
        potentials += pots
        constraints += cons
        templates.append(TemplateInfo(" ".join(rule.render().split()), len(pots)))
        weights.append(rule.weight if rule.weight is not None else 0.0)
    if errors:
        raise GroundingError("; ".join(errors))
    return HlMrf(VariableTable(labels, observed), potentials, constraints, templates, weights)


# -- token-walk reference data reader -----------------------------------------


def reference_load_data(text: str) -> DataSet:
    """The token-walk data reader that `load_data`'s statement scanner replaced.

    It tokenizes the whole text first, so a lexing error anywhere comes
    first, then reads one statement at a time from the tokens.
    """
    tokens = tokenize(text)
    data = DataSet()
    pos = 0

    def peek(ahead=0):
        return tokens[min(pos + ahead, len(tokens) - 1)]

    def fail(message, tok=None):
        tok = tok or peek()
        raise DataError(message, tok.line, tok.column)

    def expect(kind, what):
        nonlocal pos
        tok = peek()
        if tok.kind != kind:
            fail("expected %s, found %r" % (what, tok.text or "end of input"))
        pos += 1
        return tok

    while peek().kind != "EOF":
        name_tok = expect("IDENT", "a type or predicate name")
        name = name_tok.value
        tok = peek()
        if tok.kind == "EQ":
            pos += 1
            expect("LBRACE", "'{'")
            constants = []
            if peek().kind != "RBRACE":
                constants.append(expect("STRING", "a quoted constant").value)
                while peek().kind == "COMMA":
                    pos += 1
                    constants.append(expect("STRING", "a quoted constant").value)
            expect("RBRACE", "'}'")
            try:
                data.define_type(name, constants)
            except DataError as exc:
                fail(str(exc), name_tok)
            continue
        if tok.kind != "LPAREN":
            fail("expected '=' or '(' after %s" % name)
        pos += 1
        first = peek()
        if first.kind == "IDENT":  # predicate declaration
            arg_types = [expect("IDENT", "a type name").value]
            while peek().kind == "COMMA":
                pos += 1
                arg_types.append(expect("IDENT", "a type name").value)
            expect("RPAREN", "')'")
            closed = False
            if (
                peek().kind == "LPAREN"
                and peek(1).kind == "IDENT"
                and peek(1).value == "closed"
                and peek(2).kind == "RPAREN"
            ):
                pos += 3
                closed = True
            if name in data.predicates:
                fail("predicate %s declared twice" % name, name_tok)
            for t in arg_types:
                if t not in data.universe:
                    fail("predicate %s uses undefined type %s" % (name, t), name_tok)
            data.predicates[name] = PredicateDef(name, tuple(arg_types), closed)
            continue
        if first.kind == "STRING":  # observation
            args = [expect("STRING", "a quoted constant").value]
            while peek().kind == "COMMA":
                pos += 1
                args.append(expect("STRING", "a quoted constant").value)
            expect("RPAREN", "')'")
            expect("EQ", "'='")
            value_tok = expect("NUMBER", "a value in [0, 1]")
            try:
                data.add_observation(GroundAtom(name, tuple(args)), value_tok.value)
            except DataError as exc:
                fail(str(exc), name_tok)
            continue
        fail("expected type names or quoted constants after '('")
    return data
