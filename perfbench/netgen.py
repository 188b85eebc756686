"""Benchmark inputs: `softlogic.synth` networks and the opposing-rule program.

The program shipped with `synth` has a trivial optimum (every user fully
Liberal satisfies every rule). The opposing-rule program adds a
Conservative prior driven by the complement of the opinion and a matching
Conservative propagation rule per edge type, so priors and propagation pull
against each other and the optimum is interior.

Template ids follow rule order: 0 Liberal prior, 1 Conservative prior, then
``2 + 2t`` / ``3 + 2t`` for the Liberal / Conservative rule of edge type
``t``, and finally the hard sum-to-one rule.
"""

from __future__ import annotations

from softlogic.synth import DEFAULT_EDGE_WEIGHTS, SynthNetworkSpec, generate_network

PRIOR_WEIGHT = SynthNetworkSpec.lambda_opinion
EDGE_WEIGHTS = DEFAULT_EDGE_WEIGHTS
N_EDGE_TYPES = len(EDGE_WEIGHTS)
N_TEMPLATES = 2 + 2 * N_EDGE_TYPES + 1
HARD_TEMPLATE = N_TEMPLATES - 1


def template_weights():
    """Rule weights in template order (0 for the hard rule)."""
    weights = [PRIOR_WEIGHT, PRIOR_WEIGHT]
    for w in EDGE_WEIGHTS:
        weights += [w, w]
    return weights + [0.0]


def opposing_program(squared: bool) -> str:
    suffix = " ^2" if squared else ""
    rules = [
        "%g : Opinion(U) -> Liberal(U)%s" % (PRIOR_WEIGHT, suffix),
        "%g : !Opinion(U) -> Conservative(U)%s" % (PRIOR_WEIGHT, suffix),
    ]
    for t, w in enumerate(EDGE_WEIGHTS, start=1):
        rules.append("%g : Liberal(A) & Edge%d(A, B) -> Liberal(B)%s" % (w, t, suffix))
        rules.append(
            "%g : Conservative(A) & Edge%d(A, B) -> Conservative(B)%s" % (w, t, suffix)
        )
    rules.append("Liberal(U) + Conservative(U) = 1 .")
    return "\n".join(rules) + "\n"


def network_text(n_users: int, seed: int) -> str:
    """Data text of one sampled network (the program `synth` emits is unused)."""
    data_text, _ = generate_network(SynthNetworkSpec(n_users=n_users, seed=seed))
    return data_text
