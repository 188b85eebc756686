"""Soft-logic toolkit: rule language, grounding, MAP inference, learning.

Rules over typed relational data template hinge-loss potentials and hard
linear constraints; the resulting models support exact convex MAP
inference by consensus ADMM, randomized-rounding guarantees for clause
models, and weight learning by structured perceptron, pseudolikelihood, or
large-margin estimation.
"""

from .model import (
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
from .infer import (
    Diagnostics,
    SolveOptions,
    WarmStart,
    project_feasible,
    solve_map,
    solve_map_lazy,
)
from .lang import format_program, normalize_logical, parse_program
from .ground import DataSet, ground_program, load_data
from .learn import (
    TrainingInstance,
    lme_separation_oracle,
    lme_train,
    mle_gradient,
    mple_log_and_gradient,
    perceptron_train,
)
from .synth import SynthNetworkSpec, generate_network

__version__ = "0.1.0"

__all__ = [
    "DataSet",
    "Diagnostics",
    "GroundAtom",
    "HingePotential",
    "HlMrf",
    "LinearConstraint",
    "LinearFunction",
    "ModelError",
    "Relation",
    "SolveOptions",
    "SynthNetworkSpec",
    "TemplateInfo",
    "TrainingInstance",
    "VariableTable",
    "WarmStart",
    "format_program",
    "generate_network",
    "ground_program",
    "lme_separation_oracle",
    "lme_train",
    "load_data",
    "mle_gradient",
    "mple_log_and_gradient",
    "normalize_logical",
    "parse_program",
    "perceptron_train",
    "project_feasible",
    "solve_map",
    "solve_map_lazy",
]
