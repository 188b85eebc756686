"""Weight learning over templated models.

Three estimators share the template feature map Phi (per-template sums of
unweighted potential values): a structured-perceptron approximation of
maximum likelihood, maximum pseudolikelihood with deterministic quadrature,
and large-margin estimation with a cutting-plane loop around a
loss-augmented separation oracle.

Learning solves one MAP problem per gradient step, cutting-plane round or
difference-of-convex iteration, each with the structure of the last and
nearby weights. The perceptron and large-margin learners keep one
`infer.WarmStart` per instance for the length of a call: each solve starts
from the previous one's ADMM state, and the next call's first solve starts
cold. The compiled ADMM model is kept with the instance's rows, so it is
built once per structure, not once per call, and each solve rewrites only
its gains and bounds. The features of each MAP state come with its solve
(`infer.Diagnostics.features`), and those of each instance's truth are
computed once per call and passed on as ``truth_features``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .infer import SolveOptions, WarmStart, solve_map
from .model import HlMrf, ModelError, _check_count, _check_real, _checked_weights

_QP_FTOL = 1e-12  # SLSQP's tolerance in the margin QP
_DCA_MAX_ITER = 50  # solves per separation oracle call, at most


class UnsupportedStructureError(ModelError):
    """Constraint structure outside the classes pseudolikelihood supports."""


@dataclass
class TrainingInstance:
    """A ground model paired with the full truth for its free variables."""

    mrf: HlMrf
    truth: np.ndarray

    def __post_init__(self):
        self.truth = np.asarray(self.truth, dtype=float)
        if self.truth.shape != (self.mrf.n_free,):
            raise ModelError(
                "truth has shape %s, expected (%d,)" % (self.truth.shape, self.mrf.n_free)
            )
        if np.any(self.truth < 0) or np.any(self.truth > 1):
            raise ModelError("truth values must lie in [0, 1]")
        feasible, violated = self.mrf.check_feasible(self.truth, tol=1e-6)
        if not feasible:
            raise ModelError(
                "truth violates %d hard constraint(s) of the instance" % len(violated)
            )


def _checked_instances(instances) -> list:
    instances = list(instances)
    if not instances:
        raise ModelError("instances must hold at least one training instance")
    return instances


def _grounding_scale(mrf: HlMrf) -> np.ndarray:
    counts = np.array([t.groundings for t in mrf.templates], dtype=float)
    return np.where(counts > 0, counts, 1.0)


# -- maximum likelihood / structured perceptron -----------------------------


def mle_gradient(
    instance: TrainingInstance,
    weights,
    opts: SolveOptions | None = None,
    warm=None,
    *,
    truth_features=None,
):
    """Log-likelihood ascent direction with the MAP-state approximation.

    The expected features are replaced by the features of the most probable
    assignment under the current weights, as its solve reports them; each
    component is divided by its template's grounding count. ``warm`` is
    passed on to `solve_map`. ``truth_features``, the truth's template
    features, saves recomputing them on every call.
    """
    model = instance.mrf.with_weights(weights)
    _, diag = solve_map(model, opts, warm=warm)
    if diag.infeasible:
        raise ModelError("inference failed during learning: %s" % diag.message)
    if truth_features is None:
        truth_features = model.template_features(instance.truth)
    return (diag.features - truth_features) / _grounding_scale(model)


def _truth_features(instances) -> list:
    """Each instance's template features at its truth."""
    return [instance.mrf.template_features(instance.truth) for instance in instances]


def perceptron_train(
    instances,
    steps: int = 100,
    step_size: float = 1.0,
    init=None,
    opts: SolveOptions | None = None,
):
    """Fixed-step gradient ascent, projected to nonnegative weights.

    Returns the average of the post-projection iterates over all steps. All
    instances must be groundings of the same program (same template list).
    """
    _check_count("steps", steps)
    _check_real("step_size", step_size)
    instances = _checked_instances(instances)
    n_templates = len(instances[0].mrf.templates)
    weights = (
        np.ones(n_templates) if init is None else np.asarray(init, dtype=float).copy()
    )
    averaged = np.zeros(n_templates)
    warms = [WarmStart() for _ in instances]
    truths = _truth_features(instances)
    for _ in range(steps):
        gradient = np.zeros(n_templates)
        for instance, warm, truth in zip(instances, warms, truths):
            gradient += mle_gradient(instance, weights, opts, warm=warm, truth_features=truth)
        weights = np.maximum(weights + step_size * gradient, 0.0)
        averaged += weights
    return averaged / steps


# -- maximum pseudolikelihood ------------------------------------------------


def _partition_variables(mrf: HlMrf):
    """Split free variables into unconstrained singletons and simplex blocks.

    Supported blocks are equality constraints of the form
    ``sum of free variables = 1`` with unit coefficients, pairwise disjoint
    and not mixed with any other constraint; anything else is rejected.
    """
    rows = mrf.constraint_rows
    active = rows.arity > 0
    if (
        np.any(active & ~rows.is_eq)
        or np.any(rows.coeffs != 1.0)
        or np.any(rows.offsets[active] != -1.0)
    ):
        raise UnsupportedStructureError(
            "pseudolikelihood supports only disjoint sum-to-one equality blocks"
        )
    owners = np.bincount(rows.positions, minlength=mrf.n_free)
    if np.any(owners > 1):
        raise UnsupportedStructureError(
            "variable participates in more than one hard constraint"
        )
    blocks = [tuple(rows.row(k)[0].tolist()) for k in np.flatnonzero(active)]
    singletons = np.flatnonzero(owners == 0).tolist()
    return singletons, blocks


def mple_log_and_gradient(
    instance: TrainingInstance,
    weights,
    quadrature: int = 257,
    block_samples: int = 1000,
    seed: int = 0,
):
    """Log pseudolikelihood and its per-template gradient.

    Unconstrained variables use composite-trapezoid quadrature over [0, 1]
    with ``quadrature`` points for the conditional normalizer and
    expectation; simplex blocks use seeded uniform simplex sampling. The
    gradient is scaled by template grounding counts, like the MLE gradient.
    """
    _check_count("quadrature", quadrature, least=2)
    _check_count("block_samples", block_samples)
    mrf = instance.mrf
    weights = _checked_weights(weights, len(mrf.templates))
    truth = instance.truth
    rows = mrf.potential_rows
    singletons, blocks = _partition_variables(mrf)

    # A conditional varies a few variables away from the truth; only the
    # potentials touching them change, each by coeff * (value - truth).
    lin_truth = rows.values(truth)
    phi_truth = rows.hinges(lin_truth)
    by_position = np.argsort(rows.positions, kind="stable")
    starts = np.searchsorted(rows.positions[by_position], np.arange(mrf.n_free + 1))

    log_pl = 0.0
    grad = np.zeros(len(mrf.templates))
    grid = np.linspace(0.0, 1.0, quadrature)
    rng = np.random.default_rng(seed)

    def accumulate(var_positions, values, quad_grid=None):
        """One conditional; ``values`` holds one column per varied position."""
        nonlocal log_pl
        terms = np.concatenate([by_position[starts[p] : starts[p + 1]] for p in var_positions])
        varied = rows.positions[terms]
        at = np.searchsorted(var_positions, varied)  # var_positions is ascending
        moves = (values[:, at] - truth[varied]) * rows.coeffs[terms]
        js, local = np.unique(rows.term_row[terms], return_inverse=True)
        if len(var_positions) > 1:
            # A potential may touch several variables of a block.
            moves = moves @ (local[:, None] == np.arange(js.size))
        phi = rows.hinges(lin_truth[js] + moves, js)
        w = weights[rows.template_id[js]]
        energies = phi @ w

        shift = energies.min()
        density = np.exp(-(energies - shift))
        if quad_grid is not None:
            z_shifted = np.trapezoid(density, quad_grid)
            expected = np.trapezoid(phi * density[:, None], quad_grid, axis=0) / z_shifted
        else:
            z_shifted = density.mean()
            expected = (phi * density[:, None]).mean(axis=0) / z_shifted
        log_pl += -float(w @ phi_truth[js]) - (np.log(z_shifted) - shift)
        np.add.at(grad, rows.template_id[js], expected - phi_truth[js])

    for p in singletons:
        accumulate(np.array([p]), grid[:, None], quad_grid=grid)

    for block in blocks:
        samples = rng.dirichlet(np.ones(len(block)), size=block_samples)
        accumulate(np.array(block), samples)

    return log_pl, grad / _grounding_scale(mrf)


# -- large-margin estimation ---------------------------------------------------


@dataclass
class SeparationResult:
    violator: np.ndarray
    loss: float
    violation: float  # margin violation ignoring slack
    feature_gap: np.ndarray  # Phi(truth) - Phi(violator)
    converged: bool = True


def lme_separation_oracle(
    instance: TrainingInstance,
    weights,
    opts: SolveOptions | None = None,
    warm=None,
    *,
    truth_features=None,
):
    """Worst-violated margin constraint via loss-augmented inference.

    The l1 loss enters as linear objective terms. Interior truth values make
    the augmentation concave, handled by a difference-of-convex iteration
    over the +/-1 subgradient directions, initialized by rounding the truth;
    for {0,1} truth its first solve is exact and final. Every solve is
    warm-started from the previous one: from ``warm``, a `WarmStart` passed
    to `solve_map`, or from a new one for this call. The violator's features
    are the ones its solve reports; ``truth_features``, the truth's, saves
    recomputing them.
    """
    model = instance.mrf.with_weights(weights)
    weights = model.weights
    truth = instance.truth
    warm = WarmStart() if warm is None else warm
    # Assume the violator sits opposite the rounded truth, then flip
    # directions that the solution contradicts until a fixed point.
    side = np.where(np.round(truth) == 0.0, 1.0, -1.0)
    best = None
    converged = False
    for _ in range(_DCA_MAX_ITER):
        violator, diag = solve_map(model, opts, extra_linear=-side, warm=warm)
        objective = float(weights @ diag.features - np.abs(truth - violator).sum())
        if best is None or objective < best[0] - 1e-12:
            best = (objective, violator, diag.features)
        flipped = np.where(
            side > 0, violator < truth - 1e-9, violator > truth + 1e-9
        )
        if not flipped.any():
            converged = True
            break
        side = np.where(flipped, -side, side)
    _, violator, features = best

    loss = float(np.abs(truth - violator).sum())
    if truth_features is None:
        truth_features = model.template_features(truth)
    gap = truth_features - features
    violation = float(weights @ gap) + loss
    return SeparationResult(violator, loss, violation, gap, converged)


@dataclass
class CutRecord:
    feature_gap: np.ndarray  # Phi(truth) - Phi(violator), summed over instances
    loss: float


@dataclass
class CuttingPlaneSet:
    records: list = field(default_factory=list)
    slack: float = 0.0
    C: float = 0.1

    def __post_init__(self):
        _check_real("C", self.C)
        _check_real("slack", self.slack, zero_ok=True)


def solve_margin_qp(cuts: CuttingPlaneSet, n_templates: int):
    """Minimize 0.5||w||^2 + C*xi subject to the recorded cuts, w >= 0.

    SciPy's SLSQP solves it over x = (w, xi) >= 0 with the linear cuts
    xi - gap @ w >= loss. It may stop without success ("Positive directional
    derivative for linesearch", "More than 3*n iterations in LSQ subproblem")
    and still be within 2e-11 (relative) of a 400k-step projected gradient,
    so that raises nothing. A template whose gap is 0 in every cut, such as
    a hard rule's (it has no potentials), is left out: its weight is 0.
    Weights at or below SLSQP's tolerance ``_QP_FTOL`` are set to 0, and
    slack and objective are recomputed from the weights, so the returned
    point is feasible.
    """
    for k, record in enumerate(cuts.records):
        gap = np.asarray(record.feature_gap, dtype=float)
        if gap.shape != (n_templates,):
            raise ModelError(
                "feature_gap of cut %d has shape %s, expected (%d,)" % (k, gap.shape, n_templates)
            )
        if not np.isfinite(gap).all():
            raise ModelError("feature_gap of cut %d must be finite, got %s" % (k, gap))
        _check_real("loss of cut %d" % k, record.loss, zero_ok=True)
    if not cuts.records:
        return np.zeros(n_templates), 0.0, 0.0
    gaps = np.array([r.feature_gap for r in cuts.records], dtype=float)
    losses = np.array([r.loss for r in cuts.records], dtype=float)
    used = np.flatnonzero(np.any(gaps != 0.0, axis=0))
    n, C = used.size, cuts.C
    cut_jac = np.hstack([-gaps[:, used], np.ones((len(losses), 1))])
    from scipy.optimize import minimize  # slow to import, so not at module load
    x = minimize(
        lambda x: 0.5 * x[:n] @ x[:n] + C * x[n], np.zeros(n + 1), method="SLSQP",
        jac=lambda x: np.append(x[:n], C), bounds=[(0.0, None)] * (n + 1),
        constraints={"type": "ineq", "fun": lambda x: cut_jac @ x - losses, "jac": lambda x: cut_jac},
        options={"ftol": _QP_FTOL, "maxiter": 1000},
    ).x
    weights = np.zeros(n_templates)
    weights[used] = np.where(x[:n] > _QP_FTOL, x[:n], 0.0)
    slack = max(0.0, float(np.max(losses + gaps @ weights)))
    objective = 0.5 * float(weights @ weights) + C * slack
    return weights, slack, objective


@dataclass
class LmeResult:
    weights: np.ndarray
    cuts: CuttingPlaneSet
    objective: float
    objective_history: list
    rounds: int
    converged: bool


def lme_train(
    instances,
    C: float = 0.1,
    tol: float = 1e-4,
    max_rounds: int = 100,
    opts: SolveOptions | None = None,
) -> LmeResult:
    """Cutting-plane large-margin estimation with a single slack variable.

    Each round solves the margin QP over the cuts found so far, queries the
    separation oracle on every instance, and stops once the aggregated new
    constraint is violated by at most ``tol``.
    """
    _check_count("max_rounds", max_rounds)
    _check_real("C", C)
    _check_real("tol", tol, zero_ok=True)
    instances = _checked_instances(instances)
    n_templates = len(instances[0].mrf.templates)
    cuts = CuttingPlaneSet(C=C)
    history = []
    weights = np.zeros(n_templates)
    slack = 0.0
    converged = False
    warms = [WarmStart() for _ in instances]
    truths = _truth_features(instances)
    for rounds in range(1, max_rounds + 1):
        weights, slack, objective = solve_margin_qp(cuts, n_templates)
        history.append(objective)
        gap = np.zeros(n_templates)
        loss = 0.0
        for instance, warm, truth in zip(instances, warms, truths):
            result = lme_separation_oracle(
                instance, weights, opts, warm=warm, truth_features=truth
            )
            gap += result.feature_gap
            loss += result.loss
        violation = float(weights @ gap) + loss - slack
        if violation <= tol:
            converged = True
            break
        cuts.records.append(CutRecord(gap, loss))
    cuts.slack = slack
    return LmeResult(weights, cuts, history[-1], history, rounds, converged)
