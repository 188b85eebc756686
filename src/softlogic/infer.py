"""MAP inference by consensus ADMM in scaled form (Boyd et al. 2011, 3.1.1).

Each potential and each hard constraint owns a local copy of the variables
it touches and a scaled dual ``u``, its multipliers over ``rho``. All copies
live in a few flat buffers indexed by one flat array of variables; the
blocks of one arity see theirs term-major, as ``(arity, blocks)`` views. One
iteration steps ``u`` by the last residual, solves every block in closed
form from its target ``z = y - u``, then averages ``local + u`` into the
consensus ``y``, clipped to [0, 1]. The new residual ``local - y`` is both
the primal residual of the stopping test and the next dual step.

Every block's local subproblem has one closed form. For the target ``z``
and the block's row ``l(x) = a @ x + b``, the minimizer steps along ``a``:
``x = z - clip(g * l(z), lo, hi) * a``. Only the per-row gain ``g`` and
bounds ``lo``, ``hi`` differ, fixed once per solve from the weight ``w`` and
the penalty ``rho``:

- linear hinge: ``g = 1/||a||^2`` on ``[0, w/rho]``; the block stays at ``z``
  where the hinge is flat, steps by ``w/rho``, or projects onto ``l = 0``;
- squared hinge: ``g = 2w/(rho + 2w ||a||^2)`` on ``[0, inf)``;
- inequality constraint: ``g = 1/||a||^2`` on ``[0, inf)``, a projection;
- equality constraint: ``g = 1/||a||^2``, unbounded;
- raw linear term ``c * y_i``: ``g = 0`` and ``lo = hi = c/rho``.

A series of solves of one structure with nearby weights, as in learning,
can pass one `WarmStart` to `solve_map`: each solve then starts from the
last one's ``y``, local copies and duals, not from ``y = 0.5`` with zero
duals, as Boyd et al. (2011) suggest for related problems.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import FoldedRows, HlMrf, ModelError, dot

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
        for name in ("max_iter", "workers"):
            _check_count(name, getattr(self, name))


def _check_count(name: str, value):
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ModelError("%s must be an integer >= 1, got %r" % (name, value))


@dataclass
class Diagnostics:
    iterations: int = 0
    primal_residual: float = 0.0
    dual_residual: float = 0.0
    objective: float = 0.0
    energy: float = 0.0
    max_violation: float = 0.0  # largest hard-constraint violation at the answer
    converged: bool = False
    infeasible: bool = False
    message: str = ""
    activated_potentials: int | None = None
    activated_constraints: int | None = None


# -- vectorized engine -------------------------------------------------------


class _Group:
    """Same-arity blocks, each with its own gain and bounds, stored term-major.

    Row ``j`` of ``coeffs`` and of the views that `bind` makes holds the
    ``j``-th term of every block. `update` steps ``u`` by the residual that
    ``scratch`` holds, then writes the new local copies in place.
    """

    def __init__(self, span, coeffs, offsets, gain, floor, cap):
        self.span = span  # this group's part of the flat buffers
        self.coeffs = coeffs
        self.offsets = offsets
        self.gain = gain
        self.floor = floor
        self.cap = cap

    def bind(self, buffers):
        views = (b[self.span].reshape(self.coeffs.shape) for b in buffers)
        self.local, self.u, self.target, self.scratch = views

    def update(self, cols=slice(None)):
        a, local, u, scratch = (x[:, cols] for x in (self.coeffs, self.local, self.u, self.scratch))
        u += scratch
        z = np.subtract(self.target[:, cols], u, out=local)
        step = np.einsum("ij,ij->j", a, z)
        step += self.offsets[cols]  # l(z)
        step *= self.gain[cols]
        np.minimum(np.maximum(step, self.floor[cols], out=step), self.cap[cols], out=step)
        local -= np.multiply(a, step, out=scratch)


def _inverse(values):
    """``1 / values``, and 0 where ``values`` is 0."""
    return 1.0 / np.where(values > 0.0, values, np.inf)


def _linear_objective(extra_linear, n):
    """The raw linear objective terms as one coefficient per free variable."""
    if extra_linear is None:
        return np.zeros(n)
    c = np.asarray(extra_linear, dtype=float)
    if c.shape != (n,):
        raise ModelError("extra linear objective must have one entry per free variable")
    return c


class _CompiledModel:
    """The model's selected non-constant rows as blocks, one group per arity.

    A group holds its arity's constraint rows, then its potential rows,
    then its linear terms, each in row order, so the consensus sums, and
    with them the iterates, do not depend on how the rows were selected.
    ``pot_mask`` and ``con_mask`` select rows, and ``rho`` fixes each
    block's gain and bounds (see the module docstring).
    """

    def __init__(self, mrf: HlMrf, rho, pot_mask=None, con_mask=None, extra_linear=None):
        self.mrf = mrf
        self.n = mrf.table.n_free
        pots, cons = mrf.potential_rows, mrf.constraint_rows
        self.pot_mask = np.ones(pots.size, bool) if pot_mask is None else pot_mask
        self.con_mask = np.ones(cons.size, bool) if con_mask is None else con_mask
        self.linear = _linear_objective(extra_linear, self.n)
        weights = mrf.weights[pots.template_id]
        self.weights = np.where(self.pot_mask, weights, 0.0)

        violated = self.con_mask & (cons.arity == 0) & (cons.violations(cons.offsets) > 1e-9)
        if violated.any():
            raise ModelError("constraint %d is constant and violated" % violated.argmax())
        if np.any(self.con_mask & (cons.arity > 0) & (cons.norm2 == 0.0)):
            raise ModelError("constraint has an all-zero normal vector")

        linear_hinge = pots.exponent == 1
        squared_gain = 2 * weights / (rho + 2 * weights * pots.norm2)
        nz = np.flatnonzero(self.linear)
        term_step = self.linear[nz] / rho
        blocks = (  # rows, mask, gain, floor, cap
            (cons, self.con_mask, _inverse(cons.norm2),
             np.where(cons.is_eq, -np.inf, 0.0), np.full(cons.size, np.inf)),
            (pots, self.pot_mask, np.where(linear_hinge, _inverse(pots.norm2), squared_gain),
             np.zeros(pots.size), np.where(linear_hinge, weights / rho, np.inf)),
            (FoldedRows(nz, np.ones(nz.size), np.ones(nz.size, np.intp), np.zeros(nz.size)),
             np.ones(nz.size, bool), np.zeros(nz.size), term_step, term_step),
        )
        arities = np.unique(np.concatenate([rows.arity[mask] for rows, mask, *_ in blocks]))
        self.groups, positions = [], [np.zeros(0, np.intp)]
        for arity in arities[arities > 0]:
            parts = []
            for rows, mask, *params in blocks:
                r = np.flatnonzero(mask & (rows.arity == arity))
                parts.append((*rows.by_term(r, arity), rows.offsets[r], *(p[r] for p in params)))
            idx, *columns = (np.concatenate(p, axis=-1) for p in zip(*parts))
            start = sum(p.size for p in positions)
            self.groups.append(_Group(slice(start, start + idx.size), *columns))
            positions.append(idx.ravel())

        self.idx = np.concatenate(positions)  # each copy's variable, group by group
        counts = np.bincount(self.idx, minlength=self.n).astype(float)
        self.touched = slice(None) if counts.all() else np.flatnonzero(counts)
        self.counts = counts[self.touched]  # copies of each touched variable
        self.target, self.scratch = np.empty(self.idx.size), np.empty(self.idx.size)
        self.rho = rho

    def bind(self, local, u):
        """Make ``local`` and ``u`` the state buffers and hand every group its views."""
        self.buffers = (local, u, self.target, self.scratch)
        for g in self.groups:
            g.bind(self.buffers)

    def layout(self):
        """What fixes the groups' shapes: the rows, their masks and the linear support."""
        rows = (self.mrf.potential_rows, self.mrf.constraint_rows)
        return rows, (self.pot_mask, self.con_mask, self.linear != 0.0)

    def energy(self, y):
        pots = self.mrf.potential_rows
        return dot(self.weights, pots.hinges(pots.values(y)))

    def objective(self, y):
        return self.energy(y) + dot(self.linear, y)

    def max_violation(self, y):
        """Largest selected hard-constraint violation at ``y`` (0 without any)."""
        cons = self.mrf.constraint_rows
        return float(cons.violations(cons.values(y))[self.con_mask].max(initial=0.0))

    def report(self, y, diag):
        """``diag`` with the energy, objective and largest violation at ``y``."""
        diag.energy = self.energy(y)
        diag.objective = diag.energy + dot(self.linear, y)
        diag.max_violation = self.max_violation(y)
        return diag


class WarmStart:
    """The final ADMM state of one solve, to start the next of the same structure.

    Empty until a `solve_map` call fills it. A filled state fits models that
    share the folded rows (as `HlMrf.with_weights` copies do) and the
    support of the linear terms; the weights, the linear coefficients and
    ``rho`` may change (the scaled duals are rescaled to the new ``rho``).
    Only one state is kept: a solve takes over its buffers, without a copy,
    and leaves its own final state in their place.
    """

    def __init__(self):
        self.layout = None
        self.y = None
        self.state = None  # (local, u, rho): the flat buffers and u's penalty

    def restore(self, compiled: _CompiledModel, initial):
        """Hand the stored buffers to ``compiled`` and return its ``y``."""
        if initial is not None:
            raise ModelError("a filled warm start cannot be combined with an initial point")
        (rows, masks), (own_rows, own_masks) = compiled.layout(), self.layout
        if not (
            all(a is b for a, b in zip(rows, own_rows))
            and all(np.array_equal(a, b) for a, b in zip(masks, own_masks))
        ):
            raise ModelError("warm start belongs to a model of another structure")
        y, (local, u, rho) = self.y, self.state
        self.layout = self.y = self.state = None
        if rho != compiled.rho:
            u *= rho / compiled.rho  # the same multipliers ``rho * u``
        compiled.bind(local, u)
        return y

    def keep(self, compiled: _CompiledModel, y):
        self.layout = compiled.layout()
        self.y = y.copy()
        self.state = (*compiled.buffers[:2], compiled.rho)


def _run_admm(compiled: _CompiledModel, opts: SolveOptions, initial=None, warm=None):
    n, idx, touched, counts = compiled.n, compiled.idx, compiled.touched, compiled.counts
    if warm is not None and warm.y is not None:
        y = warm.restore(compiled, initial)
    else:
        y = np.full(n, 0.5) if initial is None else np.asarray(initial, dtype=float).copy()
        compiled.bind(y[idx], np.zeros(idx.size))
    if idx.size == 0:
        return y, compiled.report(y, Diagnostics(converged=True))
    local, u, target, scratch = compiled.buffers
    np.subtract(local, np.take(y, idx, out=target), out=scratch)  # the first dual step

    rho = opts.rho
    sqrt_copies = np.sqrt(idx.size)
    pool = None
    if opts.workers > 1:
        pool = ThreadPoolExecutor(max_workers=opts.workers)
        strides = [slice(k, None, opts.workers) for k in range(opts.workers)]
        slices = [(g, cols) for g in compiled.groups for cols in strides]

    diag = Diagnostics()
    best_primal = np.inf
    last_improvement = 0
    try:
        for it in range(1, opts.max_iter + 1):
            if pool is None:
                for g in compiled.groups:
                    g.update()
            else:
                for f in [pool.submit(g.update, cols) for g, cols in slices]:
                    f.result()

            total = np.bincount(idx, np.add(local, u, out=scratch), minlength=n)
            new = np.clip(total[touched] / counts, 0.0, 1.0)
            delta = new - y[touched]
            y[touched] = new
            # Every index is in range, so mode="clip" only skips the bounds check.
            np.subtract(local, np.take(y, idx, out=target, mode="clip"), out=scratch)

            primal = np.sqrt(dot(scratch, scratch))
            dual = rho * np.sqrt(dot(counts, delta * delta))
            eps_pri = opts.eps_abs * sqrt_copies + opts.eps_rel * np.sqrt(
                max(dot(local, local), dot(counts, new * new))
            )
            eps_dual = opts.eps_abs * sqrt_copies + opts.eps_rel * rho * np.sqrt(dot(u, u))

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

    return y, compiled.report(y, diag)


def solve_map(
    mrf: HlMrf, opts: SolveOptions | None = None, extra_linear=None, initial=None, warm=None
):
    """MAP inference: minimize the energy over the feasible unit box.

    Returns ``(y, diagnostics)`` where ``y`` is aligned with the table's
    free variables. ``extra_linear`` adds raw linear objective terms (used
    by loss-augmented inference); ``initial`` overrides the centered start.
    A `WarmStart` ``warm`` starts the solve from the state it holds, if
    any, and receives the final state.
    """
    opts = opts or SolveOptions()
    if mrf.table.n_free < 1:
        raise ModelError("model has no free variables")
    compiled = _CompiledModel(mrf, opts.rho, extra_linear=extra_linear)
    y, diag = _run_admm(compiled, opts, initial, warm)
    if warm is not None:
        warm.keep(compiled, y)
    return y, diag


def solve_map_lazy(mrf: HlMrf, opts: SolveOptions | None = None, extra_linear=None):
    """MAP inference over a lazily grown active set.

    Starts from the all-zeros assignment with nothing active, repeatedly
    activates potentials and constraints unsatisfied by more than the
    activation threshold, and re-solves until nothing new activates. Linear
    terms are always in the active set, so they get at least one round. With
    threshold 0 the result matches the full solve; larger thresholds are a
    speed heuristic without guarantees.
    """
    opts = opts or SolveOptions()
    if mrf.table.n_free < 1:
        raise ModelError("model has no free variables")
    threshold = opts.activation_threshold
    pots, cons = mrf.potential_rows, mrf.constraint_rows
    linear = _linear_objective(extra_linear, mrf.table.n_free)

    pot_mask = np.zeros(pots.size, dtype=bool)
    con_mask = np.zeros(cons.size, dtype=bool)
    y = np.zeros(mrf.table.n_free)
    diag = Diagnostics(converged=True)
    total_iterations = 0

    for rounds in range(pots.size + cons.size + 1):
        new_pots = ~pot_mask & (pots.hinges(pots.values(y)) > threshold)
        new_cons = ~con_mask & (cons.violations(cons.values(y)) > threshold)
        # Linear terms move y off zero even when nothing is violated there.
        if not (new_pots.any() or new_cons.any() or (rounds == 0 and linear.any())):
            break
        pot_mask |= new_pots
        con_mask |= new_cons
        compiled = _CompiledModel(mrf, opts.rho, pot_mask, con_mask, linear)
        y, diag = _run_admm(compiled, opts, initial=y)
        total_iterations += diag.iterations

    diag.iterations = total_iterations
    diag.energy = mrf.energy(y)
    diag.objective = diag.energy + dot(linear, y)
    diag.max_violation = float(cons.violations(cons.values(y)).max(initial=0.0))
    diag.activated_potentials = int(pot_mask.sum())
    diag.activated_constraints = int(con_mask.sum())
    return y, diag


def project_feasible(mrf: HlMrf, y, tol: float = 1e-9, max_rounds: int = 10000):
    """Cyclic projection of an assignment onto the hard constraints and box."""
    rows = mrf.constraint_rows
    y = np.clip(np.asarray(y, dtype=float).copy(), 0.0, 1.0)
    active = np.flatnonzero(rows.arity > 0)
    folded = [(*rows.row(k), rows.norm2[k], rows.is_eq[k]) for k in active]
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
