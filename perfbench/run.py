#!/usr/bin/env python3
"""softlogic benchmark: the pipeline, the solve and learning.

    python3 perfbench/run.py --workload {pipeline,solve,learn} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout: the library is imported from ``src/``.
Inputs are `softlogic.synth` networks seeded by ``--seed`` with the
opposing-rule program of `netgen`. Each run sets up, times operations for
``--seconds``, then checks every answer against the independent oracles of
`oracles` and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

if not (SRC / "softlogic" / "__init__.py").is_file():
    sys.exit("perfbench: no library source under %s; run from a checkout of the repository" % SRC)
sys.path.insert(0, str(SRC))

import softlogic as sl  # noqa: E402  (needs the path above)

import netgen  # noqa: E402
import oracles  # noqa: E402
from spans import Tracer, duration  # noqa: E402

PIPELINE_USERS = 2000
SOLVE_USERS = 2000
LEARN_USERS = 1000
LEARN_STEPS = 8
LEARN_STEP_SIZE = 0.25  # at 1, the 5th solve took 282-476 ADMM iterations across seeds
SCALE_USERS = (250, 750, 2000)
SCALE_REPS = 2
PROBE_USERS = 300  # learning probe for traced runs of workloads that never learn
PROBE_STEPS = 2
IMPORT_REPS = 5


@dataclass
class Answer:
    """What one op returned, reduced to what the checks need."""

    ok: bool
    z: np.ndarray = None
    energy: float = None
    counts: list = None
    constraints: int = None
    weights: np.ndarray = None

    def key(self):
        parts = [self.z, self.weights, self.energy, self.counts, self.constraints]
        return repr([p.tobytes() if hasattr(p, "tobytes") else p for p in parts])


def answer_positions(mrf, net):
    """Map the table's free variables onto the oracle's z = [L..., C...]."""
    users = {u: i for i, u in enumerate(net.users)}
    n = len(net.users)
    positions = []
    for idx in mrf.table.free_indices:
        atom = mrf.table.labels[idx]
        offset = {"Liberal": 0, "Conservative": n}[atom.predicate]
        positions.append(offset + users[atom.args[0]])
    return positions


def to_oracle_order(mrf, net, y):
    z = np.empty(2 * len(net.users))
    z[answer_positions(mrf, net)] = y
    return z


class Workload:
    """Set-up, one repeated op, and the checks of its answers.

    ``op`` returns what the library returned; ``answer`` reduces it for the
    checks outside the timed region.
    """

    setup_reps = 3
    squared = True
    users = 0

    def __init__(self, seed, users=None):
        self.program = netgen.opposing_program(self.squared)
        self.data = netgen.network_text(users or self.users, seed)
        self.net = oracles.parse_network(self.data)
        self.problem = oracles.Problem(self.net)

    def setup(self):
        raise NotImplementedError

    def op(self):
        raise NotImplementedError

    def answer(self, result):
        raise NotImplementedError

    def check(self, answers):
        """Returns (failures, quality) where quality holds gap_rel and max_violation."""
        raise NotImplementedError

    def front_roots(self, tracer):
        """Traced spans whose descendants ran the front end (lang, ground)."""
        return tracer.roots("setup")


class MapWorkload(Workload):
    exponent = 1

    def answer(self, result):
        mrf, y, diag = result
        return Answer(
            diag.converged,
            z=to_oracle_order(mrf, self.net, y),
            energy=diag.energy,
            counts=[t.groundings for t in mrf.templates],
            constraints=len(mrf.constraints),
        )

    def optimum(self):
        raise NotImplementedError

    def check(self, answers):
        weights = netgen.template_weights()
        optimum, z_opt = self.optimum()
        oracles.self_test(
            self.problem, z_opt, optimum, weights, self.exponent, self.tolerance,
            *self.problem.expected_counts(),
        )
        failures, gaps, violations = [], [], []
        for a in distinct(answers):
            failures += oracles.check_counts(self.problem, a.counts, a.constraints)
            f, gap, violation = oracles.check_map(
                self.problem, a.z, a.energy, optimum, weights, self.exponent, self.tolerance
            )
            failures += f
            gaps.append(gap)
            violations.append(violation)
        return failures, {"gap_rel": max(gaps, default=0.0), "max_violation": max(violations, default=0.0)}


class Pipeline(MapWorkload):
    """Rule text plus data text -> parse, load, ground (pruned), linear MAP."""

    setup_reps = IMPORT_REPS
    squared = False
    users = PIPELINE_USERS

    def __init__(self, seed, users=None):
        super().__init__(seed, users)
        # Today's defaults, as `softlogic infer` uses them. At these
        # tolerances linear-hinge ADMM takes 83-85 iterations on every seed
        # tried; at 1e-6 / 1e-4 it took 150-460, which swamped the front end.
        self.opts = sl.SolveOptions(
            rho=1.0, eps_abs=1e-5, eps_rel=1e-3, max_iter=25000, workers=1,
            lazy=False, activation_threshold=0.0,
        )
        self.tolerance = oracles.MapTolerance(gap_rel=3e-2, violation=3e-2)

    def setup(self):
        # The one-time cost of the `softlogic infer` path: a fresh
        # interpreter importing the library.
        subprocess.run(
            [sys.executable, "-c", "import softlogic"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            check=True,
        )

    def op(self):
        program = sl.parse_program(self.program)
        data = sl.load_data(self.data)
        mrf = sl.ground_program(program, data, prune=True)
        return (mrf, *sl.solve_map(mrf, self.opts))

    def optimum(self):
        return self.problem.lp_optimum(netgen.template_weights())

    def front_roots(self, tracer):
        return tracer.roots("op")


class Solve(MapWorkload):
    """Squared-hinge MAP at tight tolerance on a model built in set-up."""

    exponent = 2
    users = SOLVE_USERS

    def __init__(self, seed, users=None):
        super().__init__(seed, users)
        self.opts = sl.SolveOptions(
            rho=1.0, eps_abs=1e-8, eps_rel=1e-8, max_iter=25000, workers=1,
            lazy=False, activation_threshold=0.0,
        )
        self.tolerance = oracles.MapTolerance(gap_rel=1e-6, violation=1e-5)
        self.mrf = None

    def setup(self):
        self.mrf = sl.ground_program(
            sl.parse_program(self.program), sl.load_data(self.data), prune=True
        )

    def op(self):
        return (self.mrf, *sl.solve_map(self.mrf, self.opts))

    def optimum(self):
        return self.problem.squared_optimum(netgen.template_weights(), self.net.opinion)


class Learn(Workload):
    """Structured-perceptron steps against a planted truth, squared hinges."""

    users = LEARN_USERS

    def __init__(self, seed, users=None):
        super().__init__(seed, users)
        # Planted truth: Liberal exactly when the opinion exceeds 1/2.
        liberal = (self.net.opinion > 0.5).astype(float)
        self.truth_z = np.concatenate([liberal, 1.0 - liberal])
        # Today's solver defaults, spelled out so a change of defaults
        # cannot silently change the workload.
        self.opts = sl.SolveOptions(
            rho=1.0, eps_abs=1e-5, eps_rel=1e-3, max_iter=25000, workers=1,
            lazy=False, activation_threshold=0.0,
        )
        # The solver options of `pipeline`, so the same violation bound: at
        # the initial weights 33 seeds gave violations of 0.0035-0.0099.
        self.tolerance = oracles.MapTolerance(gap_rel=1e-2, violation=3e-2)
        self.instance = None

    def setup(self):
        mrf = sl.ground_program(
            sl.parse_program(self.program), sl.load_data(self.data), prune=True
        )
        truth = self.truth_z[answer_positions(mrf, self.net)]
        self.instance = sl.TrainingInstance(mrf, truth)

    def op(self):
        return sl.perceptron_train(
            [self.instance], steps=LEARN_STEPS, step_size=LEARN_STEP_SIZE,
            init=self.instance.mrf.weights, opts=self.opts,
        )

    def answer(self, weights):
        return Answer(True, weights=weights)

    def l1_and_quality(self, weights):
        """L1 loss of the library's MAP to the truth, and its quality against the oracle."""
        mrf = self.instance.mrf.with_weights(weights)
        y, diag = sl.solve_map(mrf, self.opts)
        z = to_oracle_order(mrf, self.net, y)
        optimum, _ = self.problem.squared_optimum(weights, z[: self.problem.n])
        failures, gap, violation = oracles.check_map(
            self.problem, z, diag.energy, optimum, weights, 2, self.tolerance
        )
        return float(abs(z - self.truth_z).sum()), failures, gap, violation

    def check(self, answers):
        mrf = self.instance.mrf
        failures = oracles.check_counts(
            self.problem, [t.groundings for t in mrf.templates], len(mrf.constraints)
        )
        own = self.problem.features(self.truth_z, 2)
        failures += oracles.check_features(mrf.template_features(self.instance.truth), own)
        initial = np.asarray(mrf.weights)
        l1_init, f, gap0, viol0 = self.l1_and_quality(initial)
        failures += f
        oracles.learn_self_test(own, len(mrf.templates), l1_init)
        gaps, violations = [gap0], [viol0]
        for a in distinct(answers):
            weight_failures = oracles.check_weights(a.weights, len(mrf.templates))
            failures += weight_failures
            if weight_failures:
                continue
            l1, f, gap, violation = self.l1_and_quality(a.weights)
            failures += f + oracles.check_loss_falls(l1_init, l1)
            gaps.append(gap)
            violations.append(violation)
        return failures, {"gap_rel": max(gaps), "max_violation": max(violations)}


WORKLOADS = {"pipeline": Pipeline, "solve": Solve, "learn": Learn}


def distinct(answers):
    seen = {}
    for a in answers:
        seen.setdefault(a.key(), a)
    return list(seen.values())


def attempt(workload, tracer=None):
    """One timed op; returns (seconds, answer), the answer None if the op raised."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.op()
        else:
            with tracer.span("op"):
                result = workload.op()
    except Exception:  # a failed op is counted, not fatal
        traceback.print_exc()
        return time.perf_counter() - start, None
    elapsed = time.perf_counter() - start
    return elapsed, workload.answer(result)


def run_ops(workload, seconds, tracer=None):
    """Repeat the op until ``seconds`` have passed; returns (times, answers, failed)."""
    times, answers, failed = [], [], 0
    deadline = time.perf_counter() + seconds
    while True:
        elapsed, answer = attempt(workload, tracer)
        times.append(elapsed)
        if answer is None or not answer.ok:
            failed += 1
        else:
            answers.append(answer)
        if time.perf_counter() >= deadline:
            return times, answers, failed


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- per-layer metrics from spans ---------------------------------------------


def _sum(spans, of=None):
    return sum(of(s) if of else duration(s) for s in spans)


def front_end_metrics(tracer, roots):
    def per_root(fn):
        return median([fn(r) for r in roots])

    def rule_seconds(root, ids):
        return _sum([s for s in tracer.within(root, "ground.rule") if s["attrs"]["rule_id"] in ids])

    prior = {0, 1}
    hard = {netgen.HARD_TEMPLATE}
    edges = set(range(netgen.N_TEMPLATES)) - prior - hard
    ground = lambda r, key: _sum(tracer.within(r, "ground.ground"), lambda s: s["attrs"][key])
    return {
        "lang.tokenize_s": (per_root(lambda r: _sum(tracer.within(r, "lang.tokenize"))), "s"),
        "lang.tokens": (per_root(lambda r: _sum(tracer.within(r, "lang.tokenize"), lambda s: s["attrs"]["tokens"])), "count"),
        "lang.parse_s": (per_root(lambda r: _sum(tracer.within(r, "lang.parse"), tracer.self_time)), "s"),
        "ground.load_s": (per_root(lambda r: _sum(tracer.within(r, "ground.load"), tracer.self_time)), "s"),
        "ground.observations": (per_root(lambda r: _sum(tracer.within(r, "ground.load"), lambda s: s["attrs"]["observations"])), "count"),
        "ground.ground_s": (per_root(lambda r: _sum(tracer.within(r, "ground.ground"))), "s"),
        "ground.rule_prior_s": (per_root(lambda r: rule_seconds(r, prior)), "s"),
        "ground.rule_edge_s": (per_root(lambda r: rule_seconds(r, edges)), "s"),
        "ground.rule_hard_s": (per_root(lambda r: rule_seconds(r, hard)), "s"),
        "ground.potentials": (per_root(lambda r: ground(r, "potentials")), "count"),
        "ground.constraints": (per_root(lambda r: ground(r, "constraints")), "count"),
    }


def solve_metrics(tracer, roots):
    solves = [s for r in roots for s in tracer.within(r, "infer.solve")]
    compile_s = [duration(c) for s in solves for c in tracer.within(s, "infer.compile")]
    attr = lambda key: median([s["attrs"][key] for s in solves])
    return {
        "infer.solve_s": (median([duration(s) for s in solves]), "s"),
        "infer.compile_s": (median(compile_s), "s"),
        "infer.iterations": (attr("iterations"), "count"),
        "infer.iter_ms": (1000.0 * attr("iter_s"), "ms"),
        "infer.minor_faults": (attr("minor_faults"), "count"),
        "infer.sys_s": (attr("sys_s"), "s"),
    }


def learn_metrics(tracer, roots):
    trains = [s for r in roots for s in tracer.within(r, "learn.train")]
    steps = [s for t in trains for s in tracer.within(t, "learn.step")]
    solve_total = sum(_sum(tracer.within(t, "infer.solve")) for t in trains)
    within = lambda name: [s for r in roots for s in tracer.within(r, name)]
    return {
        "model.with_weights_s": (median([duration(s) for s in within("model.with_weights")]), "s"),
        "model.features_s": (median([duration(s) for s in within("model.features")]), "s"),
        "learn.steps": (median([len(tracer.within(t, "learn.step")) for t in trains]), "count"),
        "learn.step_s": (median([duration(s) for s in steps]), "s"),
        "learn.solve_share": (solve_total / _sum(trains), "ratio"),
        "learn.iterations_total": (
            median([_sum(tracer.within(t, "infer.solve"), lambda s: s["attrs"]["iterations"]) for t in trains]),
            "count",
        ),
    }


def scale_metrics(tracer, seed):
    """Fitted exponents of stage time against potentials + constraints.

    Each size runs SCALE_REPS pipeline ops; the fastest value of each stage
    is kept, since the ops are identical and slower ones carry only noise.
    """
    stages = {"tokenize": [], "load": [], "ground": [], "compile": [], "iterate": []}
    sizes = []
    for users in SCALE_USERS:
        workload = Pipeline(seed, users)
        samples = {name: [] for name in stages}
        for _ in range(SCALE_REPS):
            with tracer.span("scale", users=users) as root:
                workload.op()
            front = front_end_metrics(tracer, [root])
            infer = solve_metrics(tracer, [root])
            samples["tokenize"].append(front["lang.tokenize_s"][0])
            samples["load"].append(front["ground.load_s"][0])
            samples["ground"].append(front["ground.ground_s"][0])
            samples["compile"].append(infer["infer.compile_s"][0])
            samples["iterate"].append(infer["infer.iter_ms"][0])  # per iteration
        sizes.append(front["ground.potentials"][0] + front["ground.constraints"][0])
        for name, values in samples.items():
            stages[name].append(min(values))
    logs = np.log(sizes)
    return {
        "scale.%s_exp" % name: (float(np.polyfit(logs, np.log(values), 1)[0]), "exponent")
        for name, values in stages.items()
    }


def learn_probe(tracer, seed):
    """A short traced learning run, for workloads whose ops never learn."""
    probe = Learn(seed, PROBE_USERS)
    probe.setup()
    with tracer.span("probe") as root:
        mrf = probe.instance.mrf
        sl.perceptron_train([probe.instance], steps=PROBE_STEPS, init=mrf.weights, opts=probe.opts)
    return [root]


# -- entry point ---------------------------------------------------------------


def measure(name, seed, seconds, trace):
    workload = WORKLOADS[name](seed)
    if not trace:
        setup_times = []
        for _ in range(workload.setup_reps):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        times, answers, failed = run_ops(workload, seconds)
        rss = peak_rss_mb()
        failures, quality = workload.check(answers)
        metrics = {
            "setup_s": (median(setup_times), "s"),
            "op_s": (median(times), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        print("%s: %d ops, op_s %s" % (name, len(times), " ".join("%.3f" % t for t in times)))
        print("answer quality: gap_rel %.3g, max_violation %.3g" % (quality["gap_rel"], quality["max_violation"]))
        return failures, len(times), failed, metrics

    tracer = Tracer()
    with tracer.installed():
        for _ in range(workload.setup_reps):
            with tracer.span("setup"):
                workload.setup()
    plain_times, plain_answers, plain_failed = run_ops(workload, seconds / 2.0)
    with tracer.installed():
        traced_times, traced_answers, traced_failed = run_ops(workload, seconds / 2.0, tracer)
        op_roots = tracer.roots("op")
        learn_roots = op_roots if name == "learn" else learn_probe(tracer, seed)
        scale = scale_metrics(tracer, seed)
    failures, quality = workload.check(plain_answers + traced_answers)

    metrics = {}
    metrics.update(front_end_metrics(tracer, workload.front_roots(tracer)))
    metrics.update(solve_metrics(tracer, op_roots if name != "learn" else learn_roots))
    metrics["infer.gap_rel"] = (quality["gap_rel"], "ratio")
    metrics["infer.max_violation"] = (quality["max_violation"], "unitless")
    metrics.update(learn_metrics(tracer, learn_roots))
    metrics.update(scale)
    metrics["trace.overhead_s"] = (median(traced_times) - median(plain_times), "s")

    OUT.mkdir(exist_ok=True)
    path = OUT / ("spans-%s-seed%d.json" % (name, seed))
    tracer.write(path)
    print_self_times(tracer)
    print("spans written to %s" % path.relative_to(HERE.parent))
    times = plain_times + traced_times
    return failures, len(times), plain_failed + traced_failed, metrics


def print_self_times(tracer):
    print("%-20s %7s %10s %10s" % ("span", "count", "total_s", "self_s"))
    for name, (count, total, own) in sorted(tracer.summary().items()):
        print("%-20s %7d %10.4f %10.4f" % (name, count, total, own))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    failures, attempted, failed, metrics = measure(args.workload, args.seed, args.seconds, args.trace)
    for message in failures:
        print("CHECK FAILED: %s" % message, file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
