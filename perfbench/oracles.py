"""Independent oracles for the benchmark's answers.

Everything here is built from the generated data text with a few regular
expressions and numpy/scipy: no `load_data`, no grounder and no solver of the
library. The opposing-rule program (see `netgen`) grounds, with pruning, to
these hinges over z = [Liberal(u) for u in users] + [Conservative(u) ...]:

    Liberal prior       opinion_u - L_u          (dropped when opinion_u == 0)
    Conservative prior  1 - opinion_u - C_u      (dropped when opinion_u == 1)
    Liberal edge  A->B  L_A - L_B                 (one per observed edge)
    Conservative edge   C_A - C_B
    hard rule           L_u + C_u - 1 = 0         (one per user)

Substituting C = 1 - L gives the reduced problem over x = L alone, which the
LP (HiGHS) and L-BFGS-B oracles solve.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.sparse as sp

import netgen

_USERS = re.compile(r"^User = \{(.*)\}$", re.M)
_OPINION = re.compile(r'^Opinion\("([^"]+)"\) = ([0-9.eE+-]+)$', re.M)
_EDGE = re.compile(r'^Edge(\d+)\("([^"]+)", "([^"]+)"\) = ([0-9.eE+-]+)$', re.M)


@dataclass
class Network:
    users: list
    opinion: np.ndarray
    edges: list  # per edge type: (src index array, dst index array)


def parse_network(text: str) -> Network:
    match = _USERS.search(text)
    if match is None:
        raise ValueError("data text declares no User type")
    users = sorted(re.findall(r'"([^"]+)"', match.group(1)))
    position = {u: i for i, u in enumerate(users)}
    opinion = np.full(len(users), np.nan)
    for user, value in _OPINION.findall(text):
        opinion[position[user]] = float(value)
    if np.isnan(opinion).any():
        raise ValueError("some users have no opinion")
    pairs = [([], []) for _ in range(netgen.N_EDGE_TYPES)]
    for edge_type, src, dst, value in _EDGE.findall(text):
        if float(value) != 1.0:
            raise ValueError("edge observations other than 1 are not modelled")
        pairs[int(edge_type) - 1][0].append(position[src])
        pairs[int(edge_type) - 1][1].append(position[dst])
    edges = [(np.array(s, dtype=np.intp), np.array(d, dtype=np.intp)) for s, d in pairs]
    return Network(users, opinion, edges)


class Problem:
    """The ground opposing-rule model as sparse rows ``l = A z + b``."""

    def __init__(self, net: Network):
        n = len(net.users)
        self.n = n
        users = np.arange(n)
        rows_a, rows_b, tids = [], [], []

        def block(tid, cols, vals, offsets):
            k = offsets.size
            r = np.tile(np.arange(k), len(cols))
            v = np.repeat(np.asarray(vals, dtype=float), k)
            rows_a.append(sp.csr_matrix((v, (r, np.concatenate(cols))), shape=(k, 2 * n)))
            rows_b.append(offsets)
            tids.append(np.full(k, tid))

        lib = net.opinion > 0.0
        block(0, [users[lib]], [-1.0], net.opinion[lib])
        con = net.opinion < 1.0
        block(1, [n + users[con]], [-1.0], 1.0 - net.opinion[con])
        for t, (src, dst) in enumerate(net.edges):
            block(2 + 2 * t, [src, dst], [1.0, -1.0], np.zeros(src.size))
            block(3 + 2 * t, [n + src, n + dst], [1.0, -1.0], np.zeros(src.size))
        self.A = sp.vstack(rows_a).tocsr()
        self.b = np.concatenate(rows_b)
        self.tid = np.concatenate(tids)
        # Reduced rows over x = L after substituting C = 1 - L.
        a_lib, a_con = self.A[:, :n], self.A[:, n:]
        self.A_red = (a_lib - a_con).tocsr()
        self.b_red = self.b + np.asarray(a_con.sum(axis=1)).ravel()

    def expected_counts(self):
        """(potentials per template, hard constraints) the grounder should emit."""
        counts = np.bincount(self.tid, minlength=netgen.N_TEMPLATES)
        return [int(c) for c in counts], self.n

    def features(self, z, exponent):
        hinge = np.maximum(self.A @ z + self.b, 0.0)
        return np.bincount(self.tid, hinge**exponent, minlength=netgen.N_TEMPLATES)

    def energy(self, z, weights, exponent):
        return float(np.asarray(weights, dtype=float) @ self.features(z, exponent))

    def max_violation(self, z):
        box = max(0.0, float(-z.min()), float(z.max() - 1.0))
        return max(box, float(np.abs(z[: self.n] + z[self.n :] - 1.0).max()))

    def lift(self, x):
        return np.concatenate([x, 1.0 - x])

    def lp_optimum(self, weights):
        """Exact optimum of the linear-hinge model: (energy, z)."""
        p = self.b_red.size
        w = np.asarray(weights, dtype=float)[self.tid]
        a_ub = sp.hstack([self.A_red, -sp.identity(p)], format="csr")
        c = np.concatenate([np.zeros(self.n), w])
        bounds = [(0.0, 1.0)] * self.n + [(0.0, None)] * p
        res = scipy.optimize.linprog(
            c, A_ub=a_ub, b_ub=-self.b_red, bounds=bounds, method="highs"
        )
        if res.status != 0:
            raise RuntimeError("HiGHS failed: %s" % res.message)
        return float(res.fun), self.lift(res.x[: self.n])

    def squared_optimum(self, weights, start):
        """Optimum of the squared-hinge model by L-BFGS-B on the box: (energy, z)."""
        w = np.asarray(weights, dtype=float)[self.tid]
        a, b = self.A_red, self.b_red
        a_t = a.T.tocsr()

        def fun(x):
            hinge = np.maximum(a @ x + b, 0.0)
            return float(w @ (hinge * hinge)), a_t @ (2.0 * w * hinge)

        res = scipy.optimize.minimize(
            fun,
            np.clip(start, 0.0, 1.0),
            jac=True,
            method="L-BFGS-B",
            bounds=[(0.0, 1.0)] * self.n,
            options={"maxiter": 20000, "maxcor": 20, "ftol": 1e-16, "gtol": 1e-11},
        )
        z = self.lift(res.x)
        return self.energy(z, weights, 2), z


# -- checks: each returns a list of failure messages (empty when it passes) --


@dataclass(frozen=True)
class MapTolerance:
    gap_rel: float  # |energy(answer) - optimum| / |optimum|
    violation: float  # largest hard-constraint or box violation


def check_map(problem, z, reported_energy, optimum, weights, exponent, tol):
    """Energy gap to the oracle optimum, feasibility, and the reported energy.

    The gap is compared in absolute value: an answer slightly off the hard
    constraint can sit below the optimum.
    """
    failures = []
    energy = problem.energy(z, weights, exponent)
    gap_rel = abs(energy - optimum) / abs(optimum)
    violation = problem.max_violation(z)
    if not gap_rel <= tol.gap_rel:
        failures.append("energy %.9g is %.3g (relative) from the optimum %.9g" % (energy, gap_rel, optimum))
    if not violation <= tol.violation:
        failures.append("max violation %.3g above %.3g" % (violation, tol.violation))
    if not math.isclose(reported_energy, energy, rel_tol=1e-9, abs_tol=1e-9):
        failures.append("reported energy %.12g differs from %.12g" % (reported_energy, energy))
    return failures, gap_rel, violation


def check_counts(problem, template_counts, n_constraints):
    expected, expected_constraints = problem.expected_counts()
    failures = []
    if list(template_counts) != expected:
        failures.append("potentials per template %s, expected %s" % (list(template_counts), expected))
    if n_constraints != expected_constraints:
        failures.append("%d hard constraints, expected %d" % (n_constraints, expected_constraints))
    return failures


def check_features(library_features, own_features):
    if np.allclose(library_features, own_features, rtol=1e-9, atol=1e-9):
        return []
    return ["template features %s differ from %s" % (library_features, own_features)]


def check_weights(weights, n_templates):
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n_templates,):
        return ["learned %s weights, expected %d" % (weights.shape, n_templates)]
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        return ["learned weights not finite and nonnegative: %s" % weights]
    return []


def check_loss_falls(loss_initial, loss_learned):
    if loss_learned < loss_initial:
        return []
    return ["L1 loss did not fall: %.6g -> %.6g" % (loss_initial, loss_learned)]


def perturbed(problem, z, seed=0):
    """Two wrong answers near ``z``: one infeasible, one feasible but worse."""
    rng = np.random.default_rng(seed)
    n = problem.n
    head = z[: n // 10 + 1]
    infeasible = z.copy()
    infeasible[: head.size] = np.where(head > 0.5, head - 0.1, head + 0.1)
    x = np.clip(z[:n] + rng.choice([-0.1, 0.1], size=n), 0.0, 1.0)
    return infeasible, problem.lift(x)


def self_test(problem, z, optimum, weights, exponent, tol, counts, n_constraints):
    """Each check must reject a perturbed answer; raises if one does not."""
    leaks = []
    infeasible, worse = perturbed(problem, z)
    energy = problem.energy(z, weights, exponent)
    for name, candidate in (("infeasible", infeasible), ("worse", worse)):
        failures, _, _ = check_map(
            problem, candidate, problem.energy(candidate, weights, exponent),
            optimum, weights, exponent, tol,
        )
        if not failures:
            leaks.append("map check accepted the %s answer" % name)
    if not check_map(problem, z, energy * (1 + 1e-6) + 1e-6, optimum, weights, exponent, tol)[0]:
        leaks.append("map check accepted a misreported energy")
    bumped = list(counts)
    bumped[0] += 1
    if not check_counts(problem, bumped, n_constraints):
        leaks.append("count check accepted a wrong potential count")
    if not check_counts(problem, counts, n_constraints + 1):
        leaks.append("count check accepted a wrong constraint count")
    if leaks:
        raise RuntimeError("oracle self-test failed: " + "; ".join(leaks))


def learn_self_test(features, n_templates, loss_initial):
    leaks = []
    if not check_features(features * (1 + 1e-6), features):
        leaks.append("feature check accepted perturbed features")
    if not check_weights(np.full(n_templates, np.nan), n_templates):
        leaks.append("weight check accepted NaN weights")
    if not check_weights(-np.ones(n_templates), n_templates):
        leaks.append("weight check accepted negative weights")
    if not check_loss_falls(loss_initial, loss_initial):
        leaks.append("loss check accepted a loss that did not fall")
    if leaks:
        raise RuntimeError("oracle self-test failed: " + "; ".join(leaks))
