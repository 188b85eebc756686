"""MAP inference by consensus ADMM in scaled form (Boyd et al. 2011, 3.1.1).

Each potential and each hard constraint owns a local copy of the variables
it touches and a scaled dual ``u``, its multipliers over ``rho``. All copies
live in a few flat buffers indexed by one flat array of variables; the
blocks of one arity see theirs term-major, as ``(arity, blocks)`` views. One
iteration steps ``u`` by the last residual, solves every block in closed
form from its target ``z = y - u``, then averages ``local + u`` into the
consensus ``y``, clipped to each variable's box: [0, 1], unless the
presolve below narrowed it. The new residual ``local - y`` is both the
primal residual of the stopping test and the next dual step. The consensus
is kept compact, over the variables that some copy holds, so a free
variable that no block holds keeps its start value.

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

Relaxation. A compiled model with at least one potential row and no linear
hinge over-relaxes every block (Boyd et al. 2011, 3.4.3): it keeps ``alpha
* x + (1 - alpha) * y_old`` as its local copy, where ``y_old`` is the
consensus it was solved against, with ``alpha = _RELAXATION`` (1.7). Any
other model keeps the plain step, since linear hinges and hard constraints
alone take more iterations relaxed.

Presolve (`_Doubletons`). Each two-variable equality ``a_r y_r + a_s y_s +
b = 0`` whose variables appear in no other such equality is removed, and
``y_s = -(b + a_r y_r) / a_s`` is substituted into every other row and
linear term, as doubleton equations are in LP presolve (Andersen & Andersen
1995). ``y_r`` is clipped in the consensus to the part of [0, 1] that keeps
``y_s`` in [0, 1], and ``y_s`` is filled in from it before each answer is
read, so an eliminated equality holds to rounding. An equality stays with
ADMM when that interval is empty or another constraint holds both its
variables, so an infeasible model is still found infeasible by ADMM.

Two-sided blocks (`_two_sided`). Two potential rows over the same
variables, with ``a2 = mu * a1`` exactly for some ``mu < 0`` and disjoint
active regions (``b2 - mu * b1 <= 0``), are one block with one set of
copies, as general-form consensus allows (Boyd et al. 2011, 7.2). Neither
hinge's step crosses its own zero set, so the block's exact minimizer adds
both steps, taken at one target: ``x = z - (clip(g1 l1(z), lo1, hi1) + mu *
clip(g2 l2(z), lo2, hi2)) * a1``.

Balancing (Boyd et al. 2011, 3.4.1; Wohlberg 2017). ``SolveOptions.rho`` is
where the penalty starts. Every `_BALANCE_EVERY` iterations the solve forms
``q``, the primal residual over its tolerance divided by the dual residual
over its own. Outside ``[1/_BALANCE_BAND, _BALANCE_BAND]``, ``rho`` is
multiplied by ``sqrt(q)``, a factor clamped to ``[1/_BALANCE_STEP,
_BALANCE_STEP]``, and the scaled duals are rescaled. After
`_BALANCE_CHANGES` changes ``rho`` stays fixed, so the fixed-penalty
convergence argument holds from there.

The kept model. `_CompiledModel` builds the blocks and buffers of the rows
it is given. `solve_map` keeps one per structure, meaning the folded rows
that `HlMrf.with_weights` copies share, and the support of the linear
terms. The next solve of that structure takes it and writes only the gains
and bounds of its weights, then starts either from its start ``y`` with
zero duals, as if just compiled, or from the state a filled `WarmStart`
holds: the last solve's ``y``, local copies and duals. Each round of
`solve_map_lazy` compiles the rows it has activated and starts from the
last round's ``y``.

Every answer's template features (`HlMrf.template_features`) are computed
once into `Diagnostics.features`, and its energy is taken from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import FoldedRows, HlMrf, ModelError, _check_count, _check_real, _merge_terms, dot

_STALL_WINDOW = 1000
_RELAXATION = 1.7  # alpha of the relaxed step on all-squared models
# Residual balancing of the penalty (see the module docstring).
_BALANCE_EVERY = 10  # iterations between two looks at the relative residuals
_BALANCE_BAND = 4.0  # their ratio may stay within [1/band, band]
_BALANCE_STEP = 10.0  # one change multiplies rho by at most this, or divides
_BALANCE_CHANGES = 6  # changes per solve; after them rho stays fixed


# Fields that accept one value only, each with what replaced the others.
_PINNED = {
    "workers": (1, "each iteration updates its blocks in one serial sweep"),
    "lazy": (False, "call solve_map_lazy for lazy inference"),
    "activation_threshold": (0.0, "solve_map_lazy activates every row above 0, exactly"),
}


@dataclass(frozen=True)
class SolveOptions:
    """Solver knobs.

    ``rho`` is the starting penalty, which each solve balances on the
    residuals; tighten ``eps_abs`` and ``eps_rel`` for accurate objectives.
    ``workers``, ``lazy`` and ``activation_threshold`` stay for callers that
    still pass them and accept only their defaults (`_PINNED`).
    """

    rho: float = 1.0
    eps_abs: float = 1e-5
    eps_rel: float = 1e-3
    max_iter: int = 25000
    workers: int = 1
    lazy: bool = False
    activation_threshold: float = 0.0
    trace: object = None  # callable(iteration, primal, dual, objective)

    def __post_init__(self):
        for name in ("rho", "eps_abs", "eps_rel"):
            _check_real(name, getattr(self, name))
        for name in ("max_iter", "workers"):
            _check_count(name, getattr(self, name))
        for name, (value, instead) in _PINNED.items():
            if getattr(self, name) != value:
                raise ModelError("SolveOptions.%s must be %r, got %r: %s"
                                 % (name, value, getattr(self, name), instead))


@dataclass
class Diagnostics:
    iterations: int = 0
    primal_residual: float = 0.0
    dual_residual: float = 0.0
    objective: float = 0.0
    energy: float = 0.0
    features: np.ndarray | None = None  # per-template sums of hinge values at the answer
    max_violation: float = 0.0  # largest hard-constraint violation at the answer
    converged: bool = False
    infeasible: bool = False
    message: str = ""
    activated_potentials: int | None = None
    activated_constraints: int | None = None
    eliminated_constraints: int = 0  # equalities the presolve removed (last lazy round)
    two_sided_blocks: int = 0  # pairs of opposite hinges solved as one block (last lazy round)
    rho: float = 0.0  # the final penalty (last lazy round)
    rho_updates: list = field(default_factory=list)  # (iteration, rho) per change, last lazy round


# -- vectorized engine -------------------------------------------------------


class _Gains:
    """The gains and bounds of some blocks' rows, one entry per row.

    The rows are the reduced constraint rows ``c`` of ``cons``, then the
    potential rows ``p`` of ``pots``, then the linear terms ``t``, in that
    order; ``gain``, ``floor`` and ``cap`` are the arrays to hold their
    parameters. Compiling fixes what never changes: each constraint's gain
    and bounds, each linear hinge's gain and floor, each squared hinge's
    floor and cap. `set` writes the rest in place: the squared hinges'
    gains and the linear hinges' caps, from the weights and ``rho``, and
    the linear terms' bounds. ``capped`` is false where every cap is
    ``inf``.
    """

    def __init__(self, pots, cons, c, p, t, gain, floor, cap):
        self.gain, self.floor, self.cap = gain, floor, cap
        gain[:], floor[:], cap[:] = 0.0, 0.0, np.inf
        gain[: c.size] = _inverse(cons.norm2[c])
        floor[: c.size] = np.where(cons.is_eq[c], -np.inf, 0.0)
        k, linear = gain.size, pots.exponent[p] == 1
        at = _where(c.size + np.flatnonzero(linear), k)
        gain[at] = _inverse(pots.norm2[p[linear]])
        self.linear = (at, pots.template_id[p[linear]])
        squared = p[~linear]
        self.squared = (_where(c.size + np.flatnonzero(~linear), k),
                        pots.template_id[squared], pots.norm2[squared])
        self.terms = (slice(k - t.size, k), t)
        self.capped = bool(linear.any() or t.size)

    def set(self, weights, term_step, rho):
        at, tid, norm2 = self.squared
        if tid.size:  # 2w / (rho + 2w ||a||^2), 2w taken per template
            w2 = np.take(2 * weights, tid)
            gain = w2 * norm2
            gain += rho
            self.gain[at] = np.divide(w2, gain, out=gain)
        at, tid = self.linear
        if tid.size:
            self.cap[at] = weights[tid] / rho
        at, term = self.terms
        if term.size:
            self.floor[at] = self.cap[at] = term_step[term]


def _where(at, size):
    """The positions ``at`` among ``size``, as a slice if they are all of them."""
    return slice(None) if at.size == size else at


class _Group:
    """Same-arity blocks, each with its own gain and bounds, stored term-major.

    Row ``j`` of ``coeffs`` and of the buffer views holds the ``j``-th term
    of every block. The parameters are ``(sides, blocks)`` arrays, one row
    per hinge of a block; `_Gains` keeps the gains in ``raw`` and writes
    ``floor`` and ``cap``. ``shift`` is ``offsets * raw``, so that ``raw *
    l(z)`` is ``raw * (a @ z) + shift``. `update` steps ``u`` by the
    residual that ``scratch`` holds, then writes the new local copies in
    place, relaxed by ``alpha`` unless it is 1. ``target`` still holds
    ``y_old`` there, so the relaxed copy is ``target - alpha * (u + step *
    a)``, with ``local`` as the temporary. A group of two-sided blocks
    adds, times each block's ``mu``, its partner row's step at the same
    target. That row's ``l`` is ``mu * (a @ z) + b2``, so row 1 of
    ``gain`` holds ``mu * gain2``, one call steps both rows, and one more
    adds them, times ``combine``, ``[1, mu]``.
    """

    mu = None  # set, with partner_rows, on a group of two-sided blocks

    def __init__(self, span, coeffs, offsets, rows, mu=None):
        """``offsets`` and ``rows``, the ``(pots, cons, c, p, t)`` that
        `_Gains` takes, hold the blocks' own rows, then, for two-sided
        blocks, their partner rows, each block's ``mu`` apart."""
        self.span = span  # this group's part of the flat buffers
        self.coeffs, self.offsets = coeffs, offsets
        self.raw, self.gain, self.shift, self.floor, self.cap, self.steps = np.empty(
            (6, *offsets.shape)
        )
        self.gains = _Gains(*rows, self.raw.ravel(), self.floor.ravel(), self.cap.ravel())
        self.step, self.combine = np.empty(offsets.shape[1]), np.ones(offsets.shape)
        if mu is not None:
            self.mu = self.combine[1] = mu

    def set_parameters(self, weights, term_step, rho):
        self.gains.set(weights, term_step, rho)
        np.multiply(self.offsets, self.raw, out=self.shift)
        np.multiply(self.combine, self.raw, out=self.gain)

    def update(self):
        a, local, u, target, scratch = self.coeffs, self.local, self.u, self.target, self.scratch
        step, gain, shift, floor, cap, steps, combine = (
            self.step, self.gain, self.shift, self.floor, self.cap, self.steps, self.combine
        )
        u += scratch
        z = np.subtract(target, u, out=local)
        np.einsum("ij,ij->j", a, z, out=step)  # a @ z
        np.multiply(gain, step, out=steps)  # each row's step, clipped below
        steps += shift
        np.maximum(steps, floor, out=steps)
        if self.gains.capped:
            np.minimum(steps, cap, out=steps)
        np.einsum("ij,ij->j", combine, steps, out=step)
        np.multiply(a, step, out=scratch)
        if self.alpha == 1.0:
            local -= scratch
        else:
            np.add(u, scratch, out=local)
            local *= -self.alpha
            local += target


def _inverse(values):
    """``1 / values``, and 0 where ``values`` is 0."""
    return 1.0 / np.where(values > 0.0, values, np.inf)


def _holding_pairs(rows, pair, is_sub, among=True):
    """``(row, pair)`` for each row, among those that ``among`` selects, that
    holds both variables of one pair. ``pair`` maps each variable to its
    pair's id, -1 outside the pairs, and ``is_sub`` marks the substituted
    one of each pair."""
    k, sub = pair[rows.positions], is_sub[rows.positions]
    # Only a row with a representative and a substituted variable can hold
    # a pair, so only their terms are sorted.
    held = np.zeros((2, rows.size), bool)
    held[0, rows.term_row[(k >= 0) & ~sub]] = held[1, rows.term_row[sub]] = True
    t = np.flatnonzero((among & held.all(axis=0))[rows.term_row] & (k >= 0))
    stride = int(pair.max(initial=0)) + 1
    key = np.sort(rows.term_row[t] * stride + k[t])  # a row's terms hold distinct variables
    doubled = key[1:][key[1:] == key[:-1]]
    return doubled // stride, doubled % stride


class _Doubletons:
    """The presolve: two-variable equalities solved for one of their variables.

    Takes every EQ row ``a_r x_r + a_s x_s + b = 0`` of ``cons`` whose two
    variables appear in no other two-variable EQ row and writes ``x_s =
    shift + scale * x_r``, substituting the variable of larger ``|a|`` (the
    second on ties). The representative ``x_r`` keeps the box ``[lo, hi]``,
    the part of [0, 1] where ``x_s`` stays in [0, 1]. An equality stays with
    ADMM if that interval is empty or another constraint row holds both its
    variables, so that ADMM still reports an infeasible model as it did.
    ``rows`` are the eliminated constraint rows, one per pair; the other
    arrays are per pair, or per variable (``_of``).
    """

    def __init__(self, n, cons):
        rows = np.flatnonzero(cons.is_eq & (cons.arity == 2))
        pos, a = cons.by_term(rows, 2)
        once = (np.bincount(pos.ravel(), minlength=n)[pos] == 1).all(axis=0)
        rows, pos, a = rows[once], pos[:, once], a[:, once]
        first = np.abs(a[0]) > np.abs(a[1])  # substitute the first variable
        rep, sub = np.where(first, pos[1], pos[0]), np.where(first, pos[0], pos[1])
        a_rep, a_sub = np.where(first, a[1], a[0]), np.where(first, a[0], a[1])
        shift, scale = -cons.offsets[rows] / a_sub, -a_rep / a_sub
        ends = (np.array([[0.0], [1.0]]) - shift) / scale  # x_r where x_s is 0 and 1
        lo, hi = np.maximum(ends.min(axis=0), 0.0), np.minimum(ends.max(axis=0), 1.0)
        keep = lo <= hi
        self._pairs(n, keep, rows, rep, sub, shift, scale, lo, hi)
        others = np.ones(cons.size, bool)
        others[rows] = False
        keep[np.flatnonzero(keep)[_holding_pairs(cons, self.pair, self.is_sub, others)[1]]] = False
        self._pairs(n, keep, rows, rep, sub, shift, scale, lo, hi)

    def _pairs(self, n, keep, *arrays):
        """Keep the pairs that ``keep`` selects, and index them by variable."""
        self.rows, self.rep, self.sub, self.shift, self.scale, self.lo, self.hi = (
            x[keep] for x in arrays
        )
        self.pair = np.full(n, -1, np.intp)
        self.pair[self.rep] = self.pair[self.sub] = np.arange(self.rows.size)
        self.is_sub = np.zeros(n, bool)
        self.is_sub[self.sub] = True
        self.rep_of, self.shift_of, self.scale_of = np.arange(n), np.zeros(n), np.ones(n)
        self.rep_of[self.sub], self.shift_of[self.sub], self.scale_of[self.sub] = (
            self.rep, self.shift, self.scale
        )

    def substitute(self, rows):
        """``rows`` with the substitutions made. A row that holds both
        variables of a pair has its terms merged as in `fold_rows`."""
        p, term_row = rows.positions, rows.term_row
        offsets = rows.offsets + np.bincount(
            term_row, rows.coeffs * self.shift_of[p], minlength=rows.size
        )
        positions, coeffs, arity = self.rep_of[p], rows.coeffs * self.scale_of[p], rows.arity
        merge = np.zeros(rows.size, bool)
        merge[_holding_pairs(rows, self.pair, self.is_sub)[0]] = True
        if merge.any():
            keep = ~merge[term_row]
            index, coeff, merged = _merge_terms(
                [term_row[~keep]], [positions[~keep]], [coeffs[~keep]], rows.size
            )
            row = np.concatenate([term_row[keep], np.repeat(np.arange(rows.size), merged)])
            order = np.argsort(row, kind="stable")  # two runs, each sorted
            positions = np.concatenate([positions[keep], index])[order]
            coeffs = np.concatenate([coeffs[keep], coeff])[order]
            arity = np.bincount(row, minlength=rows.size)
        extra = (getattr(rows, name) for name, _ in rows.FIELDS[4:])
        return type(rows)(positions, coeffs, arity, offsets, *extra)

    def linear(self, c):
        """The raw linear coefficients ``c`` with the substitutions made."""
        c = c.copy()
        c[self.rep] += self.scale * c[self.sub]
        c[self.sub] = 0.0
        return c

    def expand(self, y):
        """Fill in ``y``'s substituted variables, in place, from their representatives."""
        rep = np.clip(y[self.rep], self.lo, self.hi)
        y[self.rep] = rep
        y[self.sub] = np.clip(self.shift + self.scale * rep, 0.0, 1.0)
        return y


def _two_sided(pots, n):
    """``(partner, mu)``: for each potential row heading a two-sided block,
    the row it is paired with (-1 elsewhere) and ``mu``. Over the rows of
    one set of variables, in row order, the ``j``-th with a positive leading
    coefficient (terms sorted by variable) heads a block with the ``j``-th
    with a negative one, if the two meet the conditions in the module
    docstring."""
    partner, mu_of = np.full(pots.size, -1), np.zeros(pots.size)
    for arity in range(1, pots.arity.max(initial=0) + 1):
        r = np.flatnonzero(pots.arity == arity)
        if r.size == 0 or 2 * r.size * n**arity >= 2**63:
            continue
        pos, a = pots.by_term(r, arity)
        unsorted = np.flatnonzero((pos[1:] < pos[:-1]).any(axis=0))
        order = np.argsort(pos[:, unsorted], axis=0)
        for x in (pos, a):
            x[:, unsorted] = np.take_along_axis(x[:, unsorted], order, 0)
        key = pos[0].astype(np.int64)
        for p in pos[1:]:  # one int64 per row: its variables, then its direction
            key = key * n + p
        key = key * 2 + (a[0] < 0)
        order = np.argsort(key * r.size + np.arange(r.size))
        key = key[order]
        # Runs of equal keys: a positive run followed by the negative run
        # over the same variables pairs its rows with that run's, in order.
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        sizes, values = np.diff(np.r_[starts, r.size]), key[starts]
        run = np.flatnonzero((values[1:] == values[:-1] + 1) & (values[:-1] & 1 == 0))
        count = np.minimum(sizes[run], sizes[run + 1])
        t = np.repeat(starts[run] - np.cumsum(count) + count, count) + np.arange(count.sum())
        i, j = order[t], order[t + np.repeat(starts[run + 1] - starts[run], count)]
        mu, b = a[0, j] / a[0, i], pots.offsets[r]
        ok = b[j] - mu * b[i] <= 0.0
        for c in a[1:]:
            ok &= c[j] == mu * c[i]
        i = r[i[ok]]
        partner[i], mu_of[i] = r[j[ok]], mu[ok]
    return partner, mu_of


def _checked_vector(name: str, value, n: int):
    """``value`` as a new array of ``n`` finite floats, or a `ModelError` naming ``name``."""
    v = np.array(value, dtype=float)
    if v.shape != (n,):
        raise ModelError("%s must have one entry per free variable (%d), got shape %s"
                         % (name, n, v.shape))
    if not np.all(np.isfinite(v)):
        raise ModelError("%s must be finite" % name)
    return v


def _inputs(mrf: HlMrf, extra_linear, initial=None):
    """The raw linear terms, one coefficient per free variable, and the start ``y``."""
    n = mrf.table.n_free
    if n < 1:
        raise ModelError("model has no free variables")
    linear = np.zeros(n) if extra_linear is None else extra_linear
    y = np.full(n, 0.5) if initial is None else initial
    return _checked_vector("extra_linear", linear, n), _checked_vector("initial", y, n)


def _check_constraints(cons):
    """Reject a constant constraint that does not hold, and a zero normal."""
    violated = (cons.arity == 0) & (cons.violations(cons.offsets) > 1e-9)
    if violated.any():
        raise ModelError("constraint %d is constant and violated" % violated.argmax())
    if np.any((cons.arity > 0) & (cons.norm2 == 0.0)):
        raise ModelError("constraint has an all-zero normal vector")


class _CompiledModel:
    """Every non-constant row given, as blocks, one group per arity.

    Built once, with its buffers, from ``n`` free variables, the potential
    rows ``pots``, the constraint rows ``cons`` and ``support``, the
    variables with a linear term. The presolve (`_Doubletons`) first removes
    the two-variable equalities it can and substitutes them into the other
    rows and linear terms; the blocks are built from those rows, and each
    representative's consensus is clipped to its own box ``lo``, ``hi``. A
    group holds its arity's constraint rows, then its potential rows, then
    its linear terms, each in row order; rows that `_two_sided` pairs form
    groups of their own after those. Each group's relaxation ``alpha`` is
    fixed from ``pots`` (see the module docstring). `restart` sets the start
    and zero duals, and `set_parameters` each block's gain and bounds.
    Violations are read from ``cons``, at ``y`` filled in by
    `_Doubletons.expand`. Nothing here refers to ``pots``, so the model can
    be kept with them.
    """

    def __init__(self, n: int, pots, cons, support):
        _check_constraints(cons)
        self.cons, self.support = cons, support
        self.doubletons = d = _Doubletons(n, cons)
        stay = np.ones(cons.size, bool)
        stay[d.rows] = False
        kept, reduced = d.substitute(cons.take(np.flatnonzero(stay))), d.substitute(pots)
        self.term_support = term_support = np.unique(d.rep_of[support])
        partner, mu = _two_sided(reduced, n)
        heads = partner >= 0
        self.two_sided = int(heads.sum())
        one_sided = ~heads
        one_sided[partner[heads]] = False
        ones = np.ones(term_support.size)
        terms = FoldedRows(term_support, ones, ones.astype(np.intp), np.zeros(term_support.size))
        blocks = (np.ones(kept.size, bool), one_sided, np.ones(term_support.size, bool))
        two_sided = (np.zeros(kept.size, bool), heads, np.zeros(term_support.size, bool))
        # Relax only where it was measured to pay (see the module docstring).
        alpha = _RELAXATION if pots.size and not np.any(pots.exponent == 1) else 1.0
        self.groups, positions = [], [np.zeros(0, np.intp)]
        for masks in (blocks, two_sided):  # the one-sided groups, then the two-sided
            kinds = list(zip((kept, reduced, terms), masks))
            arities = np.unique(np.concatenate([rows.arity[mask] for rows, mask in kinds]))
            for arity in arities[arities > 0]:
                r = [np.flatnonzero(mask & (rows.arity == arity)) for rows, mask in kinds]
                idx, coeffs, offsets = (
                    np.concatenate(x, axis=-1)
                    for x in zip(*((*rows.by_term(k, arity), rows.offsets[k])
                                   for (rows, _), k in zip(kinds, r)))
                )
                start = sum(p.size for p in positions)
                if masks is blocks:
                    g = _Group(slice(start, start + idx.size), coeffs, offsets[None],
                               (reduced, kept, *r))
                else:  # each head row, then its partner row
                    other = partner[r[1]]
                    g = _Group(slice(start, start + idx.size), coeffs,
                               np.stack([offsets, reduced.offsets[other]]),
                               (reduced, kept, r[0], np.r_[r[1], other], r[2]),
                               mu[r[1]])
                    g.partner_rows = other
                g.alpha = alpha
                self.groups.append(g)
                positions.append(idx.ravel())

        self.idx = np.concatenate(positions)  # each copy's variable, group by group
        counts = np.bincount(self.idx, minlength=n)
        self.touched = slice(None) if counts.all() else np.flatnonzero(counts)
        slot = np.cumsum(counts > 0) - 1  # each touched variable's place among them
        self.slot = slot[self.idx]  # each copy's variable in the compact consensus
        self.counts = counts[self.touched].astype(float)  # copies of each touched variable
        lo, hi = np.zeros(n), np.ones(n)
        lo[d.rep], hi[d.rep] = d.lo, d.hi
        self.lo, self.hi = lo[self.touched], hi[self.touched]  # each touched variable's box
        # Local copies, duals, the residual and target buffers, as rows of
        # one array, so one call takes the first three's norms.
        self.stack = np.empty((4, self.idx.size))
        local, u, scratch, target = self.stack
        self.buffers = local, u, target, scratch
        for g in self.groups:
            views = (b[g.span].reshape(g.coeffs.shape) for b in self.buffers)
            g.local, g.u, g.target, g.scratch = views
        self.rho = None

    def restart(self, y):
        """Start from ``y`` with zero duals, as if just compiled."""
        self.stack[0], self.stack[1] = y[self.idx], 0.0
        self.rho = None

    def set_parameters(self, weights, linear, rho):
        """Each block's gain, bounds and their products from the template
        ``weights``, the linear terms and ``rho``, written in place; the
        scaled duals ``u`` are rescaled to a new ``rho``."""
        term_step = None
        if self.term_support.size:
            term_step = self.doubletons.linear(linear)[self.term_support] / rho
        for g in self.groups:
            g.set_parameters(weights, term_step, rho)
        if self.rho is not None and rho != self.rho:
            u = self.buffers[1]
            u *= self.rho / rho  # the same multipliers ``rho * u``
        self.rho = rho

    def max_violation(self, y):
        """Largest violation of the compiled constraints at ``y`` (0 without any)."""
        return float(self.cons.violations(self.cons.values(y)).max(initial=0.0))

    def report(self, mrf: HlMrf, linear, y, diag):
        """``diag`` with the features, energy, objective and largest
        violation at ``y``, its substituted variables filled in first, and
        the number of equalities the presolve eliminated."""
        self.doubletons.expand(y)
        diag.eliminated_constraints = self.doubletons.rows.size
        diag.two_sided_blocks = self.two_sided
        _score(mrf, linear, y, diag)
        diag.max_violation = self.max_violation(y)
        return diag


class WarmStart:
    """The final state of one solve, to start the next of the same structure.

    Empty until a `solve_map` call fills it with that solve's answer ``y``,
    its local copies and scaled duals (``state``) and the penalty it ended
    at (``rho``), with the rows and the support of the linear terms they
    belong to. A filled warm start fits models that share those folded rows
    (as `HlMrf.with_weights` copies do) and that support. The weights, the
    linear coefficients and ``rho`` may change; the scaled duals are
    rescaled to the new ``rho``.
    """

    def __init__(self):
        self.y = self.state = self.rho = self.rows = self.support = None


def _balanced(rho, primal, dual):
    """The penalty after one look at the relative residuals ``primal`` and
    ``dual``, each over its tolerance: ``rho`` while their ratio ``q`` is
    within the band, else ``rho * sqrt(q)``, the factor clamped to
    ``[1/step, step]``."""
    if primal <= _BALANCE_BAND * dual and dual <= _BALANCE_BAND * primal:
        return rho
    factor = math.sqrt(primal / dual) if dual > 0 else _BALANCE_STEP
    return rho * min(max(factor, 1.0 / _BALANCE_STEP), _BALANCE_STEP)


def _score(mrf: HlMrf, linear, y, diag):
    """``diag`` with the features, energy and objective at ``y``, from one
    pass over the hinges."""
    diag.features = mrf.template_features(y)
    diag.energy = dot(mrf.weights, diag.features)
    diag.objective = diag.energy + dot(linear, y)


def _run_admm(compiled: _CompiledModel, mrf: HlMrf, linear, opts: SolveOptions, y):
    """Iterate from ``y`` and ``compiled``'s local copies and duals, with
    ``mrf``'s weights and the raw ``linear`` terms.

    The loop keeps the consensus of the touched variables only, compact,
    and writes it into ``y`` for the trace, the stall test and the answer.
    """
    compiled.set_parameters(mrf.weights, linear, opts.rho)
    slot, touched, counts = compiled.slot, compiled.touched, compiled.counts
    if slot.size == 0:
        return y, compiled.report(mrf, linear, y, Diagnostics(converged=True, rho=opts.rho))
    local, u, target, scratch = compiled.buffers
    norms = compiled.stack[:3]  # local, u and scratch
    consensus = np.empty((2, counts.size))  # the touched variables' y and its last step
    yc, delta = consensus
    yc[:] = y[touched]
    np.subtract(local, np.take(yc, slot, out=target), out=scratch)  # the first dual step
    squares, weighted = np.empty(3), np.empty(2)

    def current():
        """``y`` with the consensus written in and its substituted variables filled."""
        y[touched] = yc
        return compiled.doubletons.expand(y)

    rho = opts.rho
    sqrt_copies = math.sqrt(slot.size)
    diag = Diagnostics(rho=rho)
    best_primal = np.inf
    last_improvement = 0
    for it in range(1, opts.max_iter + 1):
        for g in compiled.groups:
            g.update()

        new = np.bincount(slot, np.add(local, u, out=scratch), minlength=counts.size)
        new /= counts
        np.minimum(np.maximum(new, compiled.lo, out=new), compiled.hi, out=new)
        np.subtract(new, yc, out=delta)
        yc[:] = new
        # Every index is in range, so mode="clip" only skips the bounds check.
        np.subtract(local, np.take(yc, slot, out=target, mode="clip"), out=scratch)

        np.einsum("ij,ij->i", norms, norms, out=squares)
        np.einsum("j,ij,ij->i", counts, consensus, consensus, out=weighted)
        (local2, u2, residual2), (yc2, delta2) = squares.tolist(), weighted.tolist()
        primal = math.sqrt(residual2)
        dual = rho * math.sqrt(delta2)
        eps_pri = opts.eps_abs * sqrt_copies + opts.eps_rel * math.sqrt(max(local2, yc2))
        eps_dual = opts.eps_abs * sqrt_copies + opts.eps_rel * rho * math.sqrt(u2)

        if opts.trace is not None:
            y_now = current()
            opts.trace(it, primal, dual, mrf.energy(y_now) + dot(linear, y_now))

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
            violation = compiled.max_violation(current())
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

        # No change after the last iteration, so the answer's residuals
        # and its final rho agree.
        if (
            it % _BALANCE_EVERY == 0
            and len(diag.rho_updates) < _BALANCE_CHANGES
            and it < opts.max_iter
        ):
            new_rho = _balanced(rho, primal / eps_pri, dual / eps_dual)
            if new_rho != rho:
                rho = diag.rho = new_rho
                compiled.set_parameters(mrf.weights, linear, rho)
                diag.rho_updates.append((it, rho))
    else:
        diag.message = "iteration limit reached (%d)" % opts.max_iter

    y[touched] = yc
    return y, compiled.report(mrf, linear, y, diag)


# The compiled model of the last solve of each structure is kept in its
# potential rows' ``__dict__`` under this name, so it goes with them; it
# refers to neither them nor its model. A solve takes it out with one atomic
# ``dict.pop``, so two threads solving one structure never share buffers.
_KEPT = "_kept_compiled"


def solve_map(
    mrf: HlMrf, opts: SolveOptions | None = None, extra_linear=None, initial=None, warm=None
):
    """MAP inference: minimize the energy over the feasible unit box.

    Returns ``(y, diagnostics)`` where ``y`` is aligned with the table's
    free variables. ``extra_linear`` adds raw linear objective terms (used
    by loss-augmented inference); ``initial`` overrides the centered start.
    A `WarmStart` ``warm`` starts the solve from the state it holds, if
    any, and is filled with this solve's final state. The compiled model of
    the last solve of ``mrf``'s rows is reused if its linear terms were on
    the same variables.
    """
    opts = opts or SolveOptions()
    linear, y = _inputs(mrf, extra_linear, initial)
    pots, cons = mrf.potential_rows, mrf.constraint_rows
    support = np.flatnonzero(linear)
    filled = warm is not None and warm.y is not None
    if filled:
        if initial is not None:
            raise ModelError("a filled warm start cannot be combined with an initial point")
        if not (warm.rows[0] is pots and warm.rows[1] is cons
                and np.array_equal(warm.support, support)):
            raise ModelError("warm start belongs to a model of another structure")
    compiled = vars(pots).pop(_KEPT, None)
    if not (compiled and compiled.cons is cons and np.array_equal(compiled.support, support)):
        compiled = _CompiledModel(mrf.table.n_free, pots, cons, support)
    if filled:
        compiled.stack[:2], compiled.rho = warm.state, warm.rho
        y = warm.y.copy()  # the last answer, returned to its caller, stays as it was
    else:
        compiled.restart(y)
    y, diag = _run_admm(compiled, mrf, linear, opts, y)
    if warm is not None:
        warm.y, warm.state, warm.rho = y, compiled.stack[:2].copy(), compiled.rho
        warm.rows, warm.support = (pots, cons), support
    vars(pots)[_KEPT] = compiled
    return y, diag


def solve_map_lazy(mrf: HlMrf, opts: SolveOptions | None = None, extra_linear=None):
    """MAP inference over a lazily grown active set.

    Starts from the all-zeros assignment with nothing active, repeatedly
    activates the potentials with a positive hinge and the violated
    constraints, and re-solves until nothing new activates. Each round
    compiles the active rows and starts from the last round's answer.
    Linear terms are always in the active set, so they get at least one
    round. The result matches the full solve.
    """
    opts = opts or SolveOptions()
    linear, _ = _inputs(mrf, extra_linear)
    pots, cons = mrf.potential_rows, mrf.constraint_rows
    _check_constraints(cons)  # here, so an error names the model's row
    support = np.flatnonzero(linear)

    active_pots = np.zeros(pots.size, dtype=bool)
    active_cons = np.zeros(cons.size, dtype=bool)
    y = np.zeros(mrf.table.n_free)
    diag = Diagnostics(converged=True, rho=opts.rho)
    total_iterations = 0

    for rounds in range(pots.size + cons.size + 1):
        new_pots = ~active_pots & (pots.hinges(pots.values(y)) > 0.0)
        new_cons = ~active_cons & (cons.violations(cons.values(y)) > 0.0)
        # Linear terms move y off zero even when nothing is violated there.
        if not (new_pots.any() or new_cons.any() or (rounds == 0 and linear.any())):
            break
        active_pots |= new_pots
        active_cons |= new_cons
        compiled = _CompiledModel(
            mrf.table.n_free, pots.take(np.flatnonzero(active_pots)),
            cons.take(np.flatnonzero(active_cons)), support,
        )
        compiled.restart(y)
        y, diag = _run_admm(compiled, mrf, linear, opts, y)
        total_iterations += diag.iterations

    diag.iterations = total_iterations
    _score(mrf, linear, y, diag)
    diag.max_violation = float(cons.violations(cons.values(y)).max(initial=0.0))
    diag.activated_potentials = int(active_pots.sum())
    diag.activated_constraints = int(active_cons.sum())
    return y, diag


def project_feasible(mrf: HlMrf, y, tol: float = 1e-9, max_rounds: int = 10000):
    """Cyclic projection of an assignment onto the hard constraints and box."""
    _check_real("tol", tol, zero_ok=True)
    _check_count("max_rounds", max_rounds)
    rows = mrf.constraint_rows
    y = np.clip(mrf.table.free_assignment(y), 0.0, 1.0)
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
