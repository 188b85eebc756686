"""Command-line front end.

Subcommands: ground, infer, learn, round, synth-network, validate. Exit
codes: 0 on success, 1 on runtime failures (including errors in user
files, reported with source locations), 2 on usage errors. Option values
resolve as flags > config file > the library's defaults: an option that
neither sets is not passed on. The config file is plain ``key = value``
lines keyed by option names with dashes or underscores.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import logic
from .ground import ground_program, load_data
from .ground.data import statement_error, statements
from .infer import SolveOptions, _check_count, _check_real, solve_map, solve_map_lazy
from .lang import LangError, parse_program
from .learn import TrainingInstance, lme_train, mple_log_and_gradient, perceptron_train
from .model import GroundAtom, HlMrf, ModelError
from .synth import DEFAULT_ALPHA, DEFAULT_GAMMAS, SynthNetworkSpec, generate_network

WEIGHTS_HEADER = "# softlogic-weights v1"


class CliError(RuntimeError):
    pass


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc.strerror))


def _write(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _load_config(path):
    values = {}
    if path is None:
        return values
    for lineno, raw in enumerate(_read(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError("%s:%d: expected key = value" % (path, lineno))
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args, config, name, cast=float, default=None):
    """The option's flag value, else its config value, else ``default``."""
    given = getattr(args, name, None)
    if given is not None:
        return given
    if name in config:
        try:
            value = cast(config[name])
        except ValueError:
            raise CliError("config value for %s is not a %s" % (name, cast.__name__))
        if not math.isfinite(value):
            raise CliError("config value for %s is not finite: %r" % (name, config[name]))
        return value
    return default


def _given(args, config, **casts):
    """The options among ``casts`` (name -> type) that a flag or the config sets."""
    values = {name: _resolve(args, config, name, cast) for name, cast in casts.items()}
    return {name: value for name, value in values.items() if value is not None}


def _solve_options(args, config, trace_stream=None):
    trace = None
    if getattr(args, "trace", False):

        def trace(iteration, primal, dual, objective):
            print(
                "iter=%d primal=%.6e dual=%.6e objective=%.9f"
                % (iteration, primal, dual, objective),
                file=trace_stream or sys.stderr,
            )

    solver = _given(args, config, rho=float, eps_abs=float, eps_rel=float, max_iter=int,
                    workers=int)
    return SolveOptions(trace=trace, **solver)


def _load_model(args, config):
    """The model of --model, or of --program grounded on --data, with
    --weights applied; and the data set it was grounded on, if any."""
    data = None
    if getattr(args, "model", None):
        mrf = HlMrf.from_json(_read(args.model))
    else:
        if not (args.program and args.data):
            raise CliError("provide either --model or both --program and --data")
        program = parse_program(_read(args.program))
        data = load_data(_read(args.data))
        mrf = ground_program(program, data, prune=bool(args.prune))
    if getattr(args, "weights", None):
        mrf = mrf.with_weights(_parse_weights(_read(args.weights), mrf))
    return mrf, data


def _parse_weights(text: str, mrf: HlMrf):
    lines = text.splitlines()
    if not lines or lines[0].strip() != WEIGHTS_HEADER:
        raise CliError("weights file must start with %r" % WEIGHTS_HEADER)
    weights = np.array(mrf.weights, dtype=float)
    for lineno, raw in enumerate(lines[1:], 2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 2:
            raise CliError("weights line %d: malformed: %r" % (lineno, raw))
        try:
            tid = int(fields[0])
            weight = float(fields[1])
        except ValueError:
            raise CliError(
                "weights line %d: expected a template id and a number: %r" % (lineno, raw)
            )
        if not 0 <= tid < len(weights):
            raise CliError("weights line %d: unknown template %d" % (lineno, tid))
        if not math.isfinite(weight):
            raise CliError("weights line %d: weight is not finite: %r" % (lineno, fields[1]))
        weights[tid] = weight
    return weights


def _format_weights(mrf: HlMrf) -> str:
    lines = [WEIGHTS_HEADER]
    for tid, (info, weight) in enumerate(zip(mrf.templates, mrf.weights)):
        lines.append("%d\t%.12g\t%s" % (tid, weight, info.source))
    return "\n".join(lines) + "\n"


def _format_assignment(mrf: HlMrf, values_by_index) -> str:
    lines = []
    for idx in mrf.table.free_indices:
        atom = mrf.table.labels[idx]
        lines.append(
            "%s\t%s\t%.6f" % (atom.predicate, ",".join(atom.args), values_by_index[idx])
        )
    return "\n".join(lines) + "\n"


def _parse_truth(text: str, mrf: HlMrf, path: str, predicates):
    """The value of each free atom of ``mrf``; atoms must be of the given ``predicates``."""
    values = {}
    try:
        for kind, name, items, value, offset in statements(text):
            if kind != "observation":
                raise statement_error(text, offset, "expected an observation")
            atom = GroundAtom(name, items)
            if name not in predicates or predicates[name].arity != len(items):
                raise statement_error(text, offset, "no predicate %s/%d" % (name, len(items)))
            if atom in values:
                raise statement_error(text, offset, "%s given twice" % atom)
            if not 0.0 <= value <= 1.0:
                raise statement_error(text, offset, "truth value %g outside [0, 1]" % value)
            values[atom] = value
    except LangError as exc:
        raise CliError("truth file %s:%s" % (path, exc)) from None

    truth = np.empty(mrf.table.n_free)
    missing = []
    for position, idx in enumerate(mrf.table.free_indices):
        atom = mrf.table.labels[idx]
        if atom in values:
            truth[position] = values[atom]
        else:
            missing.append(str(atom))
    if missing:
        raise CliError(
            "truth file is missing %d free atom(s), e.g. %s" % (len(missing), missing[0])
        )
    return truth


def _clauses_from_model(mrf: HlMrf):
    """Interpret a linear clause-only model as weighted disjunctions."""
    if mrf.constraint_rows.size:
        raise CliError("round requires a model without hard constraints")
    rows = mrf.potential_rows
    clauses = []
    for j in range(rows.size):
        if rows.exponent[j] != 1:
            raise CliError("round requires linear (unsquared) potentials")
        positions, coeffs, offset = rows.row(j)
        coeffs = coeffs.tolist()
        box_max = offset + sum(c for c in coeffs if c > 0)
        if box_max <= 1e-12 or not coeffs:
            # Constantly satisfied (or constant) after folding: contributes a
            # fixed score to every assignment, so it cannot steer rounding.
            continue
        pos, neg = [], []
        for position, coeff in zip(positions.tolist(), coeffs):
            if coeff == -1.0:
                pos.append(position)
            elif coeff == 1.0:
                neg.append(position)
            else:
                raise CliError("potential %s is not clause-shaped" % (mrf.origins[j] or "?"))
        if abs(offset - (1.0 - len(neg))) > 1e-9:
            raise CliError("potential %s is not clause-shaped" % (mrf.origins[j] or "?"))
        weight = float(mrf.weights[rows.template_id[j]])
        clauses.append(logic.Clause(tuple(pos), tuple(neg), weight))
    return clauses


# -- subcommands ----------------------------------------------------------


def _cmd_validate(args, config):
    program = parse_program(_read(args.program))
    if args.data:
        data = load_data(_read(args.data))
        ground_program(program, data, prune=True)
    print("ok: %d rule(s)" % len(program.rules))
    return 0


def _cmd_ground(args, config):
    mrf, _ = _load_model(args, config)
    _write(args.out, mrf.to_json(indent=None) + "\n")
    return 0


def _cmd_infer(args, config):
    mrf, _ = _load_model(args, config)
    opts = _solve_options(args, config)
    solver = solve_map_lazy if args.lazy else solve_map
    y, diag = solver(mrf, opts)
    if not diag.converged:
        print("warning: %s" % (diag.message or "not converged"), file=sys.stderr)
    values = mrf.table.full_values(y)
    _write(args.out, _format_assignment(mrf, values))
    return 0 if diag.converged else 1


def _cmd_round(args, config):
    mrf, _ = _load_model(args, config)
    opts = _solve_options(args, config)
    y, diag = solve_map(mrf, opts)
    clauses = _clauses_from_model(mrf)
    relaxed = logic.polish_relaxed_solution(clauses, y)
    probs = logic.rounding_probs(relaxed)
    assignment = logic.derandomize(clauses, probs)
    values = mrf.table.full_values(np.array(assignment, dtype=float))
    _write(args.out, _format_assignment(mrf, values))
    return 0 if diag.converged else 1


def _cmd_learn(args, config):
    # mle and mple start from the model's weights; lme's cutting planes
    # start from the margin QP and use none.
    if args.method == "lme" and args.weights:
        raise CliError("--weights is not used by --method lme")
    mrf, data = _load_model(args, config)
    truth = _parse_truth(_read(args.truth), mrf, args.truth, data.predicates)
    instance = TrainingInstance(mrf, truth)
    opts = _solve_options(args, config)
    method = args.method
    if method == "mle":
        weights = perceptron_train(
            [instance], init=np.array(mrf.weights), opts=opts,
            **_given(args, config, steps=int, step_size=float),
        )
    elif method == "mple":
        steps = _resolve(args, config, "steps", int, default=100)
        step_size = _resolve(args, config, "step_size", default=1.0)
        _check_count("steps", steps)
        _check_real("step_size", step_size)
        weights = np.array(mrf.weights, dtype=float)
        for _ in range(steps):
            _, grad = mple_log_and_gradient(instance, weights)
            weights = np.maximum(weights + step_size * grad, 0.0)
    elif method == "lme":
        result = lme_train([instance], opts=opts, **_given(args, config, C=float, tol=float))
        weights = result.weights
    else:
        raise CliError("unknown learning method %r" % method)
    _write(args.out, _format_weights(mrf.with_weights(weights)))
    return 0


def _cmd_synth(args, config):
    gammas = DEFAULT_GAMMAS
    if args.gammas:
        gammas = tuple(float(g) for g in args.gammas.split(","))
    alpha = _resolve(args, config, "alpha", default=DEFAULT_ALPHA)
    spec = SynthNetworkSpec(
        n_users=_resolve(args, config, "users", int, default=500),
        edge_params=tuple((g, alpha) for g in gammas),
        lambda_edges=tuple(
            0.9 - 0.75 * i / max(1, len(gammas) - 1) for i in range(len(gammas))
        ),
        **_given(args, config, seed=int),
    )
    data_text, program_text = generate_network(spec, squared=bool(args.squared))
    _write(args.out_data, data_text)
    _write(args.out_program, program_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softlogic",
        description="Ground soft-logic programs, run MAP inference, learn weights.",
    )
    parser.add_argument("--config", help="key = value option defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_source(p, model_ok=True):
        if model_ok:
            p.add_argument("--model", help="serialized ground model (JSON)")
        p.add_argument("--program", required=not model_ok, help="rule file")
        p.add_argument("--data", required=not model_ok, help="data file")
        p.add_argument("--weights", help="weights file overriding rule weights")
        p.add_argument("--prune", action="store_true", help="drop never-active groundings")

    def add_solver(p):
        p.add_argument("--rho", type=float)
        p.add_argument("--eps-abs", dest="eps_abs", type=float)
        p.add_argument("--eps-rel", dest="eps_rel", type=float)
        p.add_argument("--max-iter", dest="max_iter", type=int)
        p.add_argument("--workers", type=int)
        p.add_argument("--trace", action="store_true", help="stream per-iteration diagnostics")

    p = sub.add_parser("validate", help="parse and type-check inputs")
    p.add_argument("--program", required=True)
    p.add_argument("--data")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("ground", help="ground a program into a model file")
    add_model_source(p, model_ok=False)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_ground)

    p = sub.add_parser("infer", help="MAP inference to atom-value TSV")
    add_model_source(p)
    add_solver(p)
    p.add_argument("--lazy", action="store_true", help="lazy activation inference")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("round", help="solve, round, and derandomize a clause model")
    add_model_source(p)
    add_solver(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_round)

    p = sub.add_parser("learn", help="learn template weights from one training set")
    add_model_source(p, model_ok=False)
    add_solver(p)
    p.add_argument("--truth", required=True, help="Atom = value lines for all free atoms")
    p.add_argument("--method", choices=("mle", "mple", "lme"), default="mle")
    p.add_argument("--steps", type=int)
    p.add_argument("--step-size", dest="step_size", type=float)
    p.add_argument("--C", dest="C", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("synth-network", help="generate a synthetic benchmark network")
    p.add_argument("--users", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--gammas", help="comma-separated exponents, one per edge type")
    p.add_argument("--squared", action="store_true")
    p.add_argument("--out-data", dest="out_data", required=True)
    p.add_argument("--out-program", dest="out_program", required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def run_cli(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except (CliError, LangError, ModelError, logic.ClauseError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
