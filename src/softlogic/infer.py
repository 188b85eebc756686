"""MAP inference by consensus ADMM.

Each potential and each hard constraint owns a local copy of the variables
it touches, plus matching Lagrange multipliers. One iteration steps the
multipliers, solves every local subproblem in closed form, then averages
copies back into the consensus vector and clips it to [0, 1]. Convergence
is declared from the primal and dual residual tests with absolute and
relative tolerances.

Potential subproblems fall into three cases: the hinge is flat at the
unconstrained minimizer, the smoothed linear system solves it, or the
answer is the projection onto the hinge's hyperplane. Constraint
subproblems are plain projections.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import HingePotential, HlMrf, LinearConstraint, ModelError, Relation

_STALL_WINDOW = 1000


@dataclass(frozen=True)
class SolveOptions:
    """Solver knobs.

    At the defaults, answers on the benchmark's 2000-user linear model
    ended up to 1.07% above the LP optimum, with hard-constraint violations
    up to 1.04e-2 (see ``perfbench/README.md``);
    tighten ``eps_abs`` and ``eps_rel`` for accurate objectives.
    """

    rho: float = 1.0
    eps_abs: float = 1e-5
    eps_rel: float = 1e-3
    max_iter: int = 25000
    workers: int = 1
    lazy: bool = False
    # Activating only potentials unsatisfied by more than this threshold
    # trades exactness for speed; nonzero values are a heuristic with no
    # error bound. 0 keeps lazy inference exact.
    activation_threshold: float = 0.0
    trace: object = None  # callable(iteration, primal, dual, objective)

    def __post_init__(self):
        for name in ("rho", "eps_abs", "eps_rel", "activation_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ModelError("%s must be finite, got %r" % (name, getattr(self, name)))
        if self.rho <= 0:
            raise ModelError("rho must be positive")
        if self.eps_abs <= 0 or self.eps_rel <= 0:
            raise ModelError("tolerances must be positive")


@dataclass
class Diagnostics:
    iterations: int = 0
    primal_residual: float = 0.0
    dual_residual: float = 0.0
    objective: float = 0.0
    energy: float = 0.0
    converged: bool = False
    infeasible: bool = False
    message: str = ""
    activated_potentials: int | None = None
    activated_constraints: int | None = None


# -- scalar subproblem solvers (one block at a time) -----------------------


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

    # Imported here: scipy.linalg is slow to import and nothing else in the
    # library needs it.
    import scipy.linalg

    key = (pot.template_id, pot.linfun.terms, float(weight), float(rho))
    factor = cache.get(key) if cache is not None else None
    if factor is None:
        matrix = rho * np.eye(a.size) + 2.0 * weight * np.outer(a, a)
        factor = scipy.linalg.cho_factor(matrix)
        if cache is not None:
            cache[key] = factor
    return scipy.linalg.cho_solve(factor, rho * z - 2.0 * weight * b * a)


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


# -- explicit state for step-by-step use and tests --------------------------


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


# -- vectorized engine -------------------------------------------------------


class _Group:
    """Same-arity blocks stacked into arrays for vectorized updates."""

    def __init__(self, kind, extra, idx, coeffs, offsets, weights):
        self.kind = kind  # "hinge" or "constraint" or "linear"
        self.extra = extra  # exponent for hinges, Relation for constraints
        self.idx = idx
        self.coeffs = coeffs
        self.offsets = offsets
        self.weights = weights
        self.norm2 = np.einsum("ij,ij->i", coeffs, coeffs) if coeffs.ndim == 2 else None
        self.local = None
        self.multiplier = None

    def reset(self, consensus):
        self.local = consensus[self.idx].copy()
        self.multiplier = np.zeros_like(self.local)

    def update(self, consensus, rho, rows=slice(None)):
        yb = consensus[self.idx[rows]]
        self.multiplier[rows] += rho * (self.local[rows] - yb)
        z = yb - self.multiplier[rows] / rho
        if self.kind == "linear":
            self.local[rows] = z - self.weights[rows] / rho
            return
        a = self.coeffs[rows]
        lz = np.einsum("ij,ij->i", a, z) + self.offsets[rows]
        if self.kind == "hinge":
            w = self.weights[rows]
            if self.extra == 1:
                x2 = z - (w / rho)[:, None] * a
                l2 = np.einsum("ij,ij->i", a, x2) + self.offsets[rows]
                x3 = z - (lz / self.norm2[rows])[:, None] * a
                out = np.where((l2 >= 0.0)[:, None], x2, x3)
            else:
                scale = 2.0 * w * lz / (rho + 2.0 * w * self.norm2[rows])
                out = z - scale[:, None] * a
            self.local[rows] = np.where((lz <= 0.0)[:, None], z, out)
        else:
            proj = z - (lz / self.norm2[rows])[:, None] * a
            if self.extra is Relation.LEQ:
                self.local[rows] = np.where((lz <= 0.0)[:, None], z, proj)
            else:
                self.local[rows] = proj

    def violation(self, consensus):
        if self.kind != "constraint":
            return 0.0
        lv = np.einsum("ij,ij->i", self.coeffs, consensus[self.idx]) + self.offsets
        gap = np.abs(lv) if self.extra is Relation.EQ else np.maximum(lv, 0.0)
        return float(gap.max(initial=0.0))

    def energy(self, consensus):
        if self.kind != "hinge":
            return 0.0
        lv = np.einsum("ij,ij->i", self.coeffs, consensus[self.idx]) + self.offsets
        hinge = np.maximum(lv, 0.0)
        if self.extra == 2:
            hinge = hinge * hinge
        return float(self.weights @ hinge)


def _buckets(rows, selected):
    """``(row indices, arity)`` of the selected non-constant rows, by ascending arity."""
    for arity in np.unique(rows.arity[selected]):
        if arity:
            yield np.flatnonzero(selected & (rows.arity == arity)), int(arity)


class _CompiledModel:
    """The model's folded rows, bucketed by kind, exponent or relation, and arity.

    Buckets come in a fixed order (constraints before hinges, EQ before LEQ,
    exponent 1 before 2, then ascending arity) and keep row order, so the
    consensus sums, and with them the iterates, do not depend on how the
    rows were selected. ``pot_mask`` and ``con_mask`` select rows.
    """

    def __init__(self, mrf: HlMrf, pot_mask=None, con_mask=None, extra_linear=None):
        self.mrf = mrf
        self.n = mrf.table.n_free
        pots, cons = mrf.potential_rows, mrf.constraint_rows
        pot_mask = np.ones(pots.size, bool) if pot_mask is None else pot_mask
        con_mask = np.ones(cons.size, bool) if con_mask is None else con_mask
        weights = mrf.weights[pots.template_id]

        constant = pot_mask & (pots.arity == 0)
        self.constant_energy = float(
            weights[constant] @ pots.hinges(pots.offsets[constant], constant)
        )
        constant = con_mask & (cons.arity == 0)
        violated = constant & (cons.violations(cons.offsets) > 1e-9)
        if violated.any():
            raise ModelError("constraint %d is constant and violated" % violated.argmax())

        self.groups = []
        for relation, picked in ((Relation.EQ, cons.is_eq), (Relation.LEQ, ~cons.is_eq)):
            for rows, arity in _buckets(cons, con_mask & picked):
                idx, coeffs = cons.padded(rows, arity)
                group = _Group(
                    "constraint", relation, idx, coeffs, cons.offsets[rows], np.zeros(rows.size)
                )
                if np.any(group.norm2 == 0.0):
                    raise ModelError("constraint has an all-zero normal vector")
                self.groups.append(group)
        for exponent in (1, 2):
            for rows, arity in _buckets(pots, pot_mask & (pots.exponent == exponent)):
                idx, coeffs = pots.padded(rows, arity)
                self.groups.append(
                    _Group("hinge", exponent, idx, coeffs, pots.offsets[rows], weights[rows])
                )

        self.linear = None
        if extra_linear is not None:
            c = np.asarray(extra_linear, dtype=float)
            if c.shape != (self.n,):
                raise ModelError("extra linear objective must have one entry per free variable")
            nz = np.nonzero(c)[0]
            if nz.size:
                self.linear = _Group(
                    "linear", None, nz[:, None], np.ones((nz.size, 1)), None, c[nz][:, None]
                )
                self.groups.append(self.linear)
        self.extra_linear = extra_linear

        self.counts = np.zeros(self.n)
        for g in self.groups:
            self.counts += np.bincount(g.idx.ravel(), minlength=self.n)
        self.total_copies = float(self.counts.sum())

    def objective(self, y):
        value = self.energy(y)
        if self.extra_linear is not None:
            value += float(np.asarray(self.extra_linear) @ y)
        return value

    def energy(self, y):
        return self.constant_energy + sum(g.energy(y) for g in self.groups)

    def max_violation(self, y):
        """Largest hard-constraint violation at ``y`` (0 without constraints)."""
        return max((g.violation(y) for g in self.groups), default=0.0)


def _run_admm(compiled: _CompiledModel, opts: SolveOptions, initial=None):
    n = compiled.n
    y = np.full(n, 0.5) if initial is None else np.asarray(initial, dtype=float).copy()
    for g in compiled.groups:
        g.reset(y)
    if compiled.total_copies == 0:
        diag = Diagnostics(converged=True, objective=compiled.objective(y), energy=compiled.energy(y))
        return y, diag

    rho = opts.rho
    sqrt_copies = np.sqrt(compiled.total_copies)
    pool = None
    slices = None
    if opts.workers > 1:
        pool = ThreadPoolExecutor(max_workers=opts.workers)
        slices = {
            id(g): [
                s
                for s in (
                    slice(start, min(start + chunk, g.idx.shape[0]))
                    for chunk in [max(1, -(-g.idx.shape[0] // opts.workers))]
                    for start in range(0, g.idx.shape[0], chunk)
                )
            ]
            for g in compiled.groups
        }

    diag = Diagnostics()
    best_primal = np.inf
    last_improvement = 0
    try:
        for it in range(1, opts.max_iter + 1):
            if pool is None:
                for g in compiled.groups:
                    g.update(y, rho)
            else:
                futures = [
                    pool.submit(g.update, y, rho, rows)
                    for g in compiled.groups
                    for rows in slices[id(g)]
                ]
                for f in futures:
                    f.result()

            total = np.zeros(n)
            for g in compiled.groups:
                total += np.bincount(
                    g.idx.ravel(), (g.local + g.multiplier / rho).ravel(), minlength=n
                )
            touched = compiled.counts > 0
            y_new = y.copy()
            y_new[touched] = np.clip(total[touched] / compiled.counts[touched], 0.0, 1.0)

            primal_sq = local_sq = mult_sq = 0.0
            for g in compiled.groups:
                diff = g.local - y_new[g.idx]
                primal_sq += float(np.einsum("ij,ij->", diff, diff))
                local_sq += float(np.einsum("ij,ij->", g.local, g.local))
                mult_sq += float(np.einsum("ij,ij->", g.multiplier, g.multiplier))
            primal = np.sqrt(primal_sq)
            dual = rho * np.sqrt(float(compiled.counts @ (y_new - y) ** 2))
            eps_pri = opts.eps_abs * sqrt_copies + opts.eps_rel * max(
                np.sqrt(local_sq), np.sqrt(float(compiled.counts @ y_new**2))
            )
            eps_dual = opts.eps_abs * sqrt_copies + opts.eps_rel * np.sqrt(mult_sq)
            y = y_new

            if opts.trace is not None:
                opts.trace(it, primal, dual, compiled.objective(y))

            diag.iterations = it
            diag.primal_residual = primal
            diag.dual_residual = dual
            if primal <= eps_pri and dual <= eps_dual:
                diag.converged = True
                break

            if primal < best_primal * (1.0 - 1e-9):
                best_primal = primal
                last_improvement = it
            elif it - last_improvement >= _STALL_WINDOW and primal > eps_pri:
                violation = compiled.max_violation(y)
                diag.infeasible = violation > eps_pri
                diag.message = (
                    "primal residual stalled at %.3g for %d iterations; largest "
                    "hard-constraint violation %.3g %s the primal tolerance %.3g%s"
                    % (
                        primal,
                        _STALL_WINDOW,
                        violation,
                        "exceeds" if diag.infeasible else "is within",
                        eps_pri,
                        "; the hard constraints may be infeasible" if diag.infeasible else "",
                    )
                )
                break
        else:
            diag.message = "iteration limit reached (%d)" % opts.max_iter
    finally:
        if pool is not None:
            pool.shutdown()

    diag.objective = compiled.objective(y)
    diag.energy = compiled.energy(y)
    return y, diag


def solve_map(mrf: HlMrf, opts: SolveOptions | None = None, extra_linear=None, initial=None):
    """MAP inference: minimize the energy over the feasible unit box.

    Returns ``(y, diagnostics)`` where ``y`` is aligned with the table's
    free variables. ``extra_linear`` adds raw linear objective terms (used
    by loss-augmented inference); ``initial`` overrides the centered start.
    """
    opts = opts or SolveOptions()
    if mrf.table.n_free < 1:
        raise ModelError("model has no free variables")
    compiled = _CompiledModel(mrf, extra_linear=extra_linear)
    return _run_admm(compiled, opts, initial=initial)


def solve_map_lazy(mrf: HlMrf, opts: SolveOptions | None = None, extra_linear=None):
    """MAP inference over a lazily grown active set.

    Starts from the all-zeros assignment with nothing active, repeatedly
    activates potentials and constraints unsatisfied by more than the
    activation threshold, and re-solves until nothing new activates. With
    threshold 0 the result matches the full solve; larger thresholds are a
    speed heuristic without guarantees.
    """
    opts = opts or SolveOptions()
    if mrf.table.n_free < 1:
        raise ModelError("model has no free variables")
    threshold = opts.activation_threshold
    pots, cons = mrf.potential_rows, mrf.constraint_rows

    pot_mask = np.zeros(pots.size, dtype=bool)
    con_mask = np.zeros(cons.size, dtype=bool)
    y = np.zeros(mrf.table.n_free)
    diag = Diagnostics(converged=True)
    total_iterations = 0

    for _ in range(pots.size + cons.size + 1):
        new_pots = ~pot_mask & (pots.hinges(pots.values(y)) > threshold)
        new_cons = ~con_mask & (cons.violations(cons.values(y)) > threshold)
        if not (new_pots.any() or new_cons.any()):
            break
        pot_mask |= new_pots
        con_mask |= new_cons
        compiled = _CompiledModel(mrf, pot_mask=pot_mask, con_mask=con_mask, extra_linear=extra_linear)
        y, diag = _run_admm(compiled, opts, initial=y)
        total_iterations += diag.iterations

    full = _CompiledModel(mrf, extra_linear=extra_linear)
    diag.iterations = total_iterations
    diag.objective = full.objective(y)
    diag.energy = full.energy(y)
    diag.activated_potentials = int(pot_mask.sum())
    diag.activated_constraints = int(con_mask.sum())
    return y, diag


def project_feasible(mrf: HlMrf, y, tol: float = 1e-9, max_rounds: int = 10000):
    """Cyclic projection of an assignment onto the hard constraints and box."""
    rows = mrf.constraint_rows
    y = np.clip(np.asarray(y, dtype=float).copy(), 0.0, 1.0)
    active = np.flatnonzero(rows.arity > 0)
    folded = []
    for k in active:
        idx, a, b = rows.row(k)
        folded.append((idx, a, b, float(a @ a), rows.is_eq[k]))
    for _ in range(max_rounds):
        for idx, a, b, norm2, is_eq in folded:
            value = float(a @ y[idx] + b)
            if not is_eq and value <= 0.0:
                continue
            y[idx] -= (value / norm2) * a
        np.clip(y, 0.0, 1.0, out=y)
        if rows.violations(rows.values(y))[active].max(initial=0.0) <= tol:
            break
    return y
