"""Synthetic power-law social networks for the scaling benchmark.

Per edge type, in- and out-degrees follow ``P(k) = alpha * k^-gamma`` for
k >= 1 (the leftover mass is degree 0); stubs are matched uniformly at
random until exhausted, users with no edges at all are dropped, and every
surviving user gets an intrinsic opinion drawn uniformly from [-1, 1] and
rescaled to [0, 1]. The companion program propagates a latent political
leaning along each edge type, anchored by an opinion prior, with a
mutual-exclusivity constraint per user.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelError, _check_count

MAX_DEGREE = 50

DEFAULT_GAMMAS = (2.0, 2.2, 2.4, 2.6, 2.8, 3.0)
DEFAULT_ALPHA = 0.33
DEFAULT_EDGE_WEIGHTS = (0.9, 0.75, 0.6, 0.45, 0.3, 0.15)


@dataclass(frozen=True)
class SynthNetworkSpec:
    """Generator parameters; defaults are desk-scale stand-ins."""

    n_users: int
    edge_params: tuple = tuple((g, DEFAULT_ALPHA) for g in DEFAULT_GAMMAS)
    seed: int = 0
    lambda_opinion: float = 0.5
    lambda_edges: tuple = DEFAULT_EDGE_WEIGHTS

    def __post_init__(self):
        _check_count("n_users", self.n_users, least=2)
        _check_count("seed", self.seed, least=0)
        if len(self.edge_params) != len(self.lambda_edges):
            raise ModelError("one weight per edge type required")
        for gamma, alpha in self.edge_params:
            if not 2.0 <= gamma <= 3.0:
                raise ModelError("gamma must lie in [2, 3], got %r" % gamma)
            if not 0.0 < alpha <= 1.0:
                raise ModelError("alpha must lie in (0, 1], got %r" % alpha)


def _degree_distribution(gamma: float, alpha: float):
    k = np.arange(1, MAX_DEGREE + 1, dtype=float)
    tail = alpha * k**-gamma
    zero = 1.0 - tail.sum()
    if zero < 0:
        raise ModelError(
            "alpha=%g puts more than unit mass on positive degrees for gamma=%g"
            % (alpha, gamma)
        )
    return np.concatenate(([zero], tail))


def _isolation_probability(edge_params) -> float:
    p = 1.0
    for gamma, alpha in edge_params:
        zero = _degree_distribution(gamma, alpha)[0]
        p *= zero * zero  # in-degree and out-degree both zero
    return p


def generate_edges(spec: SynthNetworkSpec):
    """Sample the multigraph; returns (kept user ids, edges per type)."""
    rng = np.random.default_rng(spec.seed)
    p_isolated = _isolation_probability(spec.edge_params)
    n_initial = int(round(spec.n_users * (1.0 + p_isolated)))
    users = np.arange(n_initial)

    edges_per_type = []
    has_edge = np.zeros(n_initial, dtype=bool)
    for gamma, alpha in spec.edge_params:
        probs = _degree_distribution(gamma, alpha)
        degrees = np.arange(MAX_DEGREE + 1)
        out_deg = rng.choice(degrees, size=n_initial, p=probs)
        in_deg = rng.choice(degrees, size=n_initial, p=probs)
        out_stubs = np.repeat(users, out_deg)
        in_stubs = np.repeat(users, in_deg)
        rng.shuffle(out_stubs)
        rng.shuffle(in_stubs)
        count = min(out_stubs.size, in_stubs.size)
        seen = set()
        edges = []
        for src, dst in zip(out_stubs[:count], in_stubs[:count]):
            if src == dst or (src, dst) in seen:
                continue
            seen.add((src, dst))
            edges.append((int(src), int(dst)))
            has_edge[src] = True
            has_edge[dst] = True
        edges_per_type.append(sorted(edges))

    kept = [int(u) for u in users if has_edge[u]]
    return kept, edges_per_type


def generate_network(spec: SynthNetworkSpec, squared: bool = False):
    """Emit (data_text, program_text) for one sampled network."""
    kept, edges_per_type = generate_edges(spec)
    rng = np.random.default_rng(spec.seed + 1)
    raw_opinions = rng.uniform(-1.0, 1.0, size=len(kept))
    opinions = (raw_opinions + 1.0) / 2.0

    width = max(4, len(str(max(kept, default=0))))
    name = {u: "u%0*d" % (width, u) for u in kept}

    lines = []
    lines.append("User = {%s}" % ", ".join('"%s"' % name[u] for u in kept))
    lines.append("Opinion(User) (closed)")
    for t in range(len(spec.edge_params)):
        lines.append("Edge%d(User, User) (closed)" % (t + 1))
    lines.append("Liberal(User)")
    lines.append("Conservative(User)")
    for u, op in zip(kept, opinions):
        lines.append('Opinion("%s") = %.6f' % (name[u], op))
    for t, edges in enumerate(edges_per_type):
        for src, dst in edges:
            lines.append('Edge%d("%s", "%s") = 1' % (t + 1, name[src], name[dst]))
    data_text = "\n".join(lines) + "\n"

    suffix = " ^2" if squared else ""
    rules = ["%g : Opinion(U) -> Liberal(U)%s" % (spec.lambda_opinion, suffix)]
    for t, weight in enumerate(spec.lambda_edges):
        rules.append(
            "%g : Liberal(A) & Edge%d(A, B) -> Liberal(B)%s" % (weight, t + 1, suffix)
        )
    rules.append("Liberal(U) + Conservative(U) = 1 .")
    program_text = "\n".join(rules) + "\n"
    return data_text, program_text
