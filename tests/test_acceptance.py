"""Acceptance suite: one check per shipped guarantee, one PASS line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import itertools
import time

import numpy as np
import pytest

from softlogic import logic
from softlogic.ground import ground_logical_rule, load_data
from softlogic.infer import (
    SolveOptions,
    project_feasible,
    solve_map,
    solve_map_lazy,
)
from softlogic.lang import parse_program
from softlogic.learn import (
    TrainingInstance,
    lme_train,
    mple_log_and_gradient,
)
from softlogic.logic import Clause, boolean_score, clause_to_linfun
from softlogic.model import HingePotential, LinearFunction
from softlogic.synth import SynthNetworkSpec, generate_network

from helpers import (
    TIGHT,
    eq,
    grid_minimize,
    hinge,
    leq,
    make_mrf,
    oracle_subproblem,
    solve_potential_subproblem,
)

EPS8 = SolveOptions(eps_abs=1e-8, eps_rel=1e-8)


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print("%s criterion %2d: %s%s" % (status, number, label, detail and " [%s]" % detail))
    assert ok, "criterion %d failed: %s %s" % (number, label, detail)


def random_clause_model(rng, max_vars, max_clauses):
    n = int(rng.integers(2, max_vars + 1))
    m = int(rng.integers(1, max_clauses + 1))
    clauses = []
    for _ in range(m):
        k = int(rng.integers(1, min(3, n) + 1))
        variables = rng.choice(n, size=k, replace=False)
        signs = rng.random(k) < 0.5
        pos = tuple(int(v) for v, s in zip(variables, signs) if s)
        neg = tuple(int(v) for v, s in zip(variables, signs) if not s)
        clauses.append(Clause(pos, neg, float(rng.uniform(1e-6, 1.0))))
    pots = [HingePotential(clause_to_linfun(c), 1, j) for j, c in enumerate(clauses)]
    weights = [c.weight for c in clauses]
    return clauses, make_mrf(pots, weights=weights, n=n), n


def test_criterion_01_analytic_optima():
    elapsed = []

    start = time.perf_counter()
    mrf = make_mrf(
        [hinge([(0, 1.0)], 0.0), hinge([(0, -1.0)], 1.0, template=1)],
        weights=[3.0, 1.0],
    )
    y_linear, _ = solve_map(mrf, TIGHT)
    elapsed.append(time.perf_counter() - start)

    start = time.perf_counter()
    mrf = make_mrf(
        [
            hinge([(0, 1.0)], 0.0, exponent=2),
            hinge([(0, -1.0)], 1.0, exponent=2, template=1),
        ],
        weights=[3.0, 1.0],
    )
    y_squared, _ = solve_map(mrf, TIGHT)
    elapsed.append(time.perf_counter() - start)

    start = time.perf_counter()
    mrf = make_mrf(
        [
            hinge([(0, -1.0)], 0.9, exponent=2),
            hinge([(1, -1.0)], 0.6, exponent=2, template=1),
        ],
        [leq([(0, 1.0), (1, 1.0)], -1.0)],
        weights=[1.0, 1.0],
        n=2,
    )
    y_pair, _ = solve_map(mrf, TIGHT)
    elapsed.append(time.perf_counter() - start)

    ok = (
        abs(y_linear[0]) <= 1e-4
        and abs(y_squared[0] - 0.25) <= 1e-4
        and abs(y_pair[0] - 0.65) <= 1e-4
        and abs(y_pair[1] - 0.35) <= 1e-4
        and max(elapsed) < 1.0
    )
    report(1, "analytic optima 0 / 0.25 / (0.65, 0.35)", ok, "max %.3fs" % max(elapsed))


def test_criterion_02_inner_lp_equals_relaxed_objective():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        clauses, mrf, n = random_clause_model(rng, max_vars=5, max_clauses=6)
        y, _ = solve_map(mrf, EPS8)
        inner = sum(
            logic.lcr_inner_lp(c, [y[i] for i in c.variables]) for c in clauses
        )
        relaxed = sum(c.weight * logic.clause_value(c, y) for c in clauses)
        worst = max(worst, abs(inner - relaxed) / max(abs(relaxed), 1e-12))
    total = time.perf_counter() - start
    ok = worst <= 1e-4 and total < 30.0
    report(2, "inner LP total equals relaxed objective", ok, "rel %.2e, %.1fs" % (worst, total))


def test_criterion_03_rounding_guarantee():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        clauses, mrf, n = random_clause_model(rng, max_vars=12, max_clauses=15)
        _, best = logic.maxsat_bruteforce(clauses, n)
        y, _ = solve_map(mrf, EPS8)
        y = logic.polish_relaxed_solution(clauses, y)
        probs = logic.rounding_probs(y)
        expected = logic.expected_score(clauses, probs)
        rounded = logic.derandomize(clauses, probs)
        ok &= expected >= 0.75 * best - 1e-9
        ok &= boolean_score(clauses, rounded) >= expected - 1e-9
        if not ok:
            break
    total = time.perf_counter() - start
    ok = ok and total < 60.0
    report(3, "rounding achieves 3/4 of brute-force optimum", ok, "%.1fs" % total)


def test_criterion_04_solver_accuracy_vs_grid():
    rng = np.random.default_rng(404)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        pots = []
        # a conflicting pair keeps the optimum strictly positive so the
        # relative comparison is well-posed
        pivot = int(rng.integers(0, n))
        low = float(rng.uniform(0.1, 0.4))
        high = float(rng.uniform(0.6, 0.9))
        pots.append(hinge([(pivot, 1.0)], -low, exponent=1, template=0))
        pots.append(hinge([(pivot, -1.0)], high, exponent=1, template=0))
        for _ in range(int(rng.integers(2, 6))):
            k = int(rng.integers(1, 3))
            idx = rng.choice(n, size=k, replace=False)
            coeffs = rng.uniform(-1, 1, size=k)
            pots.append(
                hinge(
                    list(zip(idx.tolist(), coeffs)),
                    float(rng.uniform(-0.3, 0.5)),
                    exponent=int(rng.integers(1, 3)),
                    template=0,
                )
            )
        constraints = []
        if n >= 3:
            i, j = rng.choice(n, size=2, replace=False)
            constraints.append(
                eq([(int(i), 1.0), (int(j), 1.0)], -1.0)
                if rng.random() < 0.5
                else leq([(int(i), 1.0), (int(j), 1.0)], -1.0)
            )
        mrf = make_mrf(pots, constraints, weights=[float(rng.uniform(0.5, 1.5))], n=n)
        y, _ = solve_map(mrf)  # library defaults: the accuracy being measured
        y = project_feasible(mrf, y)
        _, oracle = grid_minimize(mrf, step=0.05)
        worst = max(worst, abs(mrf.energy(y) - oracle) / max(abs(oracle), 1e-9))
    total = time.perf_counter() - start
    ok = worst <= 0.005 and total < 120.0
    report(4, "default-tolerance objective within 0.5% of grid", ok, "rel %.4f, %.1fs" % (worst, total))


def test_criterion_05_linear_scaling_shape():
    # Quadratic-potential networks: their strictly convex energies give
    # near-constant iteration counts across instances, so wall time tracks
    # the per-iteration cost (the quantity that scales with model size).
    # Linear-potential networks at desk scale are dominated by
    # instance-specific iteration counts instead.
    from softlogic.ground import ground_program

    start = time.perf_counter()
    sizes = []
    times = []
    for n_users in (260, 700, 1300, 2100, 3100):
        per_seed_sizes = []
        per_seed_times = []
        for seed in (1, 2, 3):
            data_text, program_text = generate_network(
                SynthNetworkSpec(n_users=n_users, seed=seed), squared=True
            )
            mrf = ground_program(
                parse_program(program_text), load_data(data_text), prune=True
            )
            per_seed_sizes.append(len(mrf.potentials) + len(mrf.constraints))
            # best of three runs per network to suppress scheduler noise
            runs = []
            for _ in range(3):
                t0 = time.perf_counter()
                solve_map(mrf)
                runs.append(time.perf_counter() - t0)
            per_seed_times.append(min(runs))
        sizes.append(np.mean(per_seed_sizes))
        times.append(np.mean(per_seed_times))
    x = np.array(sizes)
    y = np.array(times)
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = y - design @ coef
    r2 = 1.0 - float(residual @ residual) / float(((y - y.mean()) ** 2).sum())
    total = time.perf_counter() - start
    ok = (
        r2 >= 0.95
        and total < 600.0
        and min(sizes) < 2500
        and max(sizes) > 18000
    )
    report(5, "wall time is linear in potentials+constraints", ok, "R2 %.4f, %.0fs" % (r2, total))


def _front_end_seconds(n_users):
    """Best of two timings of load_data plus pruned grounding on n observations."""
    from softlogic.ground import ground_program

    names = ["p%06d" % i for i in range(n_users)]
    data_text = "".join(
        ['Person = {%s}\n' % ", ".join('"%s"' % p for p in names),
         "Opinion(Person) (closed)\nLiberal(Person)\n"]
        + ['Opinion("%s") = %g\n' % (p, (i % 97 + 1) / 100.0) for i, p in enumerate(names)]
    )
    program = parse_program("0.5 : Opinion(U) -> Liberal(U)\n")
    best = np.inf
    for _ in range(2):
        t0 = time.perf_counter()
        mrf = ground_program(program, load_data(data_text), prune=True)
        best = min(best, time.perf_counter() - t0)
    assert len(mrf.potentials) == n_users
    return best


def test_front_end_linear_scaling():
    # Four times the observations may cost at most eight times the load and
    # ground time; a per-observation scan of a type or of the observations
    # (quadratic) gives sixteen.
    small, large = _front_end_seconds(5000), _front_end_seconds(20000)
    ratio = large / small
    assert ratio <= 8.0, "load+ground %.3fs -> %.3fs, ratio %.1f" % (small, large, ratio)


def test_criterion_06_subproblem_exactness():
    rng = np.random.default_rng(606)
    worst = 0.0
    for exponent in (1, 2):
        for _ in range(500):
            k = int(rng.integers(1, 4))
            coeffs = rng.uniform(-2, 2, size=k)
            coeffs[np.abs(coeffs) < 0.05] = 0.5
            pot = HingePotential(
                LinearFunction(list(zip(range(k), coeffs)), float(rng.uniform(-1, 1))),
                exponent,
            )
            weight = float(rng.uniform(0.01, 3.0))
            rho = float(rng.uniform(0.3, 3.0))
            z = rng.uniform(-0.5, 1.5, size=k)
            got = solve_potential_subproblem(pot, weight, z, rho)
            want = oracle_subproblem(pot, weight, z, rho)
            worst = max(worst, float(np.abs(got - want).max()))
    ok = worst <= 1e-6
    report(6, "1000 potential subproblems match the line-search oracle", ok, "max %.2e" % worst)


def test_criterion_07_pseudolikelihood_gradient():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 4))
        pots = []
        for _ in range(int(rng.integers(2, 5))):
            k = int(rng.integers(1, 3))
            idx = rng.choice(n, size=k, replace=False)
            pots.append(
                hinge(
                    list(zip(idx.tolist(), rng.uniform(-1, 1, size=k))),
                    float(rng.uniform(-0.3, 0.5)),
                    exponent=int(rng.integers(1, 3)),
                    template=int(rng.integers(0, 2)),
                )
            )
        mrf = make_mrf(pots, weights=[1.0, 1.0], n=n)
        inst = TrainingInstance(mrf, rng.uniform(0, 1, size=n))
        w = rng.uniform(0.2, 1.5, size=2)
        _, grad = mple_log_and_gradient(inst, w, quadrature=257, seed=0)
        scale = np.array([max(t.groundings, 1) for t in mrf.templates], dtype=float)
        eps = 1e-5
        for q in range(2):
            up, down = w.copy(), w.copy()
            up[q] += eps
            down[q] -= eps
            fd = (
                mple_log_and_gradient(inst, up, quadrature=257, seed=0)[0]
                - mple_log_and_gradient(inst, down, quadrature=257, seed=0)[0]
            ) / (2 * eps) / scale[q]
            denom = max(abs(fd), 1e-6)
            worst = max(worst, abs(grad[q] - fd) / denom)

    mrf = make_mrf([hinge([(0, 1.0)], 0.0)], weights=[2.0])
    inst = TrainingInstance(mrf, np.array([0.3]))
    log_pl, _ = mple_log_and_gradient(inst, np.array([2.0]), quadrature=2049)
    z = np.exp(-log_pl - 2.0 * 0.3)
    z_err = abs(z - (1 - np.exp(-2.0)) / 2.0)

    ok = worst <= 1e-3 and z_err <= 1e-6
    report(7, "pseudolikelihood gradient and normalizer", ok, "fd rel %.2e, Z err %.2e" % (worst, z_err))


def test_criterion_08_grounding_fidelity():
    friends = load_data('Person = {"p1", "p2", "p3"}\nFriends(Person, Person)\n')
    prog = parse_program(
        "3 : Friends(A, B) & Friends(B, C) & (A != B) & (B != C) & (A != C)"
        " -> Friends(C, A) ^2"
    )
    grounds = ground_logical_rule(prog.rules[0], friends, prune=True)
    pattern_ok = len(grounds) == 6
    for g in grounds:
        (pot,) = g.potentials
        pattern_ok &= pot.exponent == 2
        pattern_ok &= sorted(c for _, c in pot.linfun.terms) == [-1.0, 1.0, 1.0]
        pattern_ok &= pot.linfun.offset == -1.0

    document = load_data(
        'Document = {"d1", "d2"}\nCat_Name = {"politics", "sports"}\n'
        "Category(Document, Cat_Name)\n"
    )
    base_ok = document.base_size() == 4

    report(8, "transitivity fixture (6 groundings) and 4-atom base", pattern_ok and base_ok)


def test_criterion_09_boolean_agreement():
    ok = True
    indices = (0, 1, 2)
    for k in (1, 2, 3):
        for variables in itertools.combinations(indices, k):
            for signs in itertools.product((True, False), repeat=k):
                pos = tuple(v for v, s in zip(variables, signs) if s)
                neg = tuple(v for v, s in zip(variables, signs) if not s)
                clause = Clause(pos, neg)
                for point in itertools.product((0.0, 1.0), repeat=3):
                    ok &= logic.clause_value(clause, point) == float(
                        clause.satisfied(point)
                    )
    report(9, "relaxed clause truth matches Boolean truth exhaustively", ok)


def test_criterion_10_lazy_matches_full():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 9))
        pots = [hinge([(i, 1.0)], 0.0, template=0) for i in range(n)]
        for _ in range(int(rng.integers(2, 5))):
            i = int(rng.integers(0, n))
            pots.append(
                hinge([(i, -1.0)], float(rng.uniform(0.3, 0.9)), template=1)
            )
        constraints = []
        if rng.random() < 0.5:
            i, j = rng.choice(n, size=2, replace=False)
            constraints.append(leq([(int(i), 1.0), (int(j), 1.0)], -1.0))
        mrf = make_mrf(
            pots, constraints, weights=[0.1, float(rng.uniform(0.5, 1.5))], n=n
        )
        _, lazy = solve_map_lazy(mrf, EPS8)
        _, full = solve_map(mrf, EPS8)
        worst = max(worst, abs(lazy.objective - full.objective))
    ok = worst <= 1e-4
    report(10, "lazy activation reproduces the full objective", ok, "max gap %.2e" % worst)


def test_criterion_11_squared_potentials_need_slack():
    mrf = make_mrf([hinge([(0, 1.0)], 0.0, exponent=2)], weights=[1.0])
    inst = TrainingInstance(mrf, np.array([0.0]))
    result = lme_train([inst], C=0.1, tol=1e-6, opts=TIGHT)
    ok = result.converged and result.cuts.slack > 0.0
    report(11, "margin training of a squared model keeps positive slack", ok, "slack %.3f" % result.cuts.slack)
