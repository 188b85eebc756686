import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import minimize

import softlogic
from softlogic import logic
from softlogic.ground import ground_program, load_data
from softlogic.infer import (
    _RELAXATION,
    _CompiledModel,
    SolveOptions,
    WarmStart,
    project_feasible,
    solve_map,
    solve_map_lazy,
)
from softlogic.lang import parse_program
from softlogic.model import (
    HingePotential,
    HlMrf,
    LinearConstraint,
    LinearFunction,
    ModelError,
    Relation,
)
from softlogic.synth import SynthNetworkSpec, generate_network

from helpers import (
    TIGHT,
    AdmmBlock,
    AdmmState,
    check_convergence,
    consensus_update,
    eq,
    fold_observed,
    grid_minimize,
    hinge,
    leq,
    make_mrf,
    oracle_subproblem,
    random_mrf,
    solve_constraint_subproblem,
    solve_potential_subproblem,
)


class TestAnalyticOptima:
    def test_linear_winner_take_all(self):
        mrf = make_mrf(
            [hinge([(0, 1.0)], 0.0), hinge([(0, -1.0)], 1.0, template=1)],
            weights=[3.0, 1.0],
        )
        y, diag = solve_map(mrf, TIGHT)
        assert diag.converged
        assert y[0] == pytest.approx(0.0, abs=1e-6)

    def test_squared_weight_ratio(self):
        mrf = make_mrf(
            [
                hinge([(0, 1.0)], 0.0, exponent=2),
                hinge([(0, -1.0)], 1.0, exponent=2, template=1),
            ],
            weights=[3.0, 1.0],
        )
        y, _ = solve_map(mrf, TIGHT)
        assert y[0] == pytest.approx(0.25, abs=1e-6)

    def test_constrained_squared_pair(self):
        mrf = make_mrf(
            [
                hinge([(0, -1.0)], 0.9, exponent=2),
                hinge([(1, -1.0)], 0.6, exponent=2, template=1),
            ],
            [leq([(0, 1.0), (1, 1.0)], -1.0)],
            weights=[1.0, 1.0],
            n=2,
        )
        y, _ = solve_map(mrf, TIGHT)
        np.testing.assert_allclose(y, [0.65, 0.35], atol=1e-6)


class TestPotentialSubproblem:
    def test_flat_region_returns_target(self):
        pot = hinge([(0, 1.0)], -0.5)
        np.testing.assert_allclose(
            solve_potential_subproblem(pot, 1.0, [0.2], 1.0), [0.2]
        )

    def test_linear_projection_case(self):
        pot = hinge([(0, 1.0)], -0.5)
        np.testing.assert_allclose(
            solve_potential_subproblem(pot, 1.0, [0.9], 1.0), [0.5], atol=1e-12
        )

    def test_squared_linear_system_case(self):
        pot = hinge([(0, 1.0)], -0.5, exponent=2)
        np.testing.assert_allclose(
            solve_potential_subproblem(pot, 1.0, [0.9], 1.0), [0.9 - 0.8 / 3], atol=1e-12
        )

    def test_cholesky_cache_reused(self):
        pot = hinge([(0, 1.0), (1, -0.5)], -0.1, exponent=2)
        cache = {}
        first = solve_potential_subproblem(pot, 2.0, [0.9, 0.1], 1.0, cache=cache)
        assert len(cache) == 1
        second = solve_potential_subproblem(pot, 2.0, [0.8, 0.3], 1.0, cache=cache)
        assert len(cache) == 1
        np.testing.assert_allclose(
            second, solve_potential_subproblem(pot, 2.0, [0.8, 0.3], 1.0)
        )

    @pytest.mark.parametrize("exponent", [1, 2])
    def test_matches_oracle_on_random_subproblems(self, exponent):
        rng = np.random.default_rng(100 + exponent)
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
            np.testing.assert_allclose(got, want, atol=1e-6)


class TestConstraintSubproblem:
    def test_equality_projection(self):
        con = eq([(0, 1.0), (1, 1.0)], -1.0)
        np.testing.assert_allclose(
            solve_constraint_subproblem(con, [0.2, 0.2], 1.0), [0.5, 0.5]
        )

    def test_satisfied_inequality_unchanged(self):
        con = leq([(0, 1.0), (1, 1.0)], -1.0)
        np.testing.assert_allclose(
            solve_constraint_subproblem(con, [0.3, 0.3], 1.0), [0.3, 0.3]
        )

    def test_difference_projection(self):
        con = eq([(0, 1.0), (1, -1.0)], 0.0)
        np.testing.assert_allclose(
            solve_constraint_subproblem(con, [1.0, 0.0], 1.0), [0.5, 0.5]
        )

    def test_zero_normal_rejected(self):
        con = LinearConstraint(LinearFunction([], 0.5), Relation.EQ)
        with pytest.raises(ModelError):
            solve_constraint_subproblem(con, [], 1.0)

    def test_projection_identity_and_idempotence(self):
        rng = np.random.default_rng(55)
        for _ in range(100):
            k = int(rng.integers(1, 4))
            coeffs = rng.uniform(-2, 2, size=k)
            coeffs[np.abs(coeffs) < 0.05] = 1.0
            relation = Relation.EQ if rng.random() < 0.5 else Relation.LEQ
            con = LinearConstraint(
                LinearFunction(list(zip(range(k), coeffs)), float(rng.uniform(-1, 1))),
                relation,
            )
            z = rng.uniform(-0.5, 1.5, size=k)
            once = solve_constraint_subproblem(con, z, 1.0)
            twice = solve_constraint_subproblem(con, once, 1.0)
            np.testing.assert_allclose(twice, once, atol=1e-9)
            value = con.linfun.value(once)
            if relation is Relation.EQ:
                assert abs(value) < 1e-9
            else:
                assert value < 1e-9
            # projecting an already-feasible point changes nothing
            feasible = solve_constraint_subproblem(con, once, 1.0)
            np.testing.assert_allclose(feasible, once, atol=1e-12)


class TestConsensusAndConvergence:
    def test_mean_of_two_copies(self):
        state = AdmmState(
            blocks=[
                AdmmBlock(np.array([0]), np.array([0.2]), np.array([0.0])),
                AdmmBlock(np.array([0]), np.array([0.6]), np.array([0.0])),
            ],
            consensus=np.array([0.5]),
            previous=np.array([0.5]),
            rho=1.0,
        )
        np.testing.assert_allclose(consensus_update(state), [0.4])

    def test_clipped_high(self):
        state = AdmmState(
            blocks=[
                AdmmBlock(np.array([0]), np.array([1.2]), np.array([0.0])),
                AdmmBlock(np.array([0]), np.array([1.4]), np.array([0.0])),
            ],
            consensus=np.array([0.5]),
            previous=np.array([0.5]),
            rho=1.0,
        )
        np.testing.assert_allclose(consensus_update(state), [1.0])

    def test_single_copy_with_multiplier(self):
        state = AdmmState(
            blocks=[AdmmBlock(np.array([0]), np.array([0.7]), np.array([0.3]))],
            consensus=np.array([0.5]),
            previous=np.array([0.5]),
            rho=1.0,
        )
        np.testing.assert_allclose(consensus_update(state), [1.0])

    def test_residuals_zero_when_fixed_point(self):
        state = AdmmState(
            blocks=[AdmmBlock(np.array([0]), np.array([0.4]), np.array([0.1]))],
            consensus=np.array([0.4]),
            previous=np.array([0.4]),
            rho=1.0,
        )
        report = check_convergence(state, 1e-5, 1e-3)
        assert report.converged
        assert report.primal_residual == 0.0
        assert report.dual_residual == 0.0

    def test_initial_mismatch_not_converged(self):
        state = AdmmState(
            blocks=[AdmmBlock(np.array([0]), np.array([0.9]), np.array([0.0]))],
            consensus=np.array([0.1]),
            previous=np.array([0.8]),
            rho=1.0,
        )
        assert not check_convergence(state, 1e-5, 1e-3).converged

    def test_hand_computed_two_copy_state(self):
        # copies 0.2 and 0.6 of one variable, multipliers 0.1 and -0.3,
        # consensus moved 0.5 -> 0.4, rho = 2.
        state = AdmmState(
            blocks=[
                AdmmBlock(np.array([0]), np.array([0.2]), np.array([0.1])),
                AdmmBlock(np.array([0]), np.array([0.6]), np.array([-0.3])),
            ],
            consensus=np.array([0.4]),
            previous=np.array([0.5]),
            rho=2.0,
        )
        report = check_convergence(state, 1e-5, 1e-3)
        assert report.primal_residual == pytest.approx(np.sqrt(0.2**2 + 0.2**2))
        assert report.dual_residual == pytest.approx(2.0 * np.sqrt(2 * 0.1**2))
        assert report.eps_primal == pytest.approx(
            1e-5 * np.sqrt(2)
            + 1e-3 * max(np.sqrt(0.2**2 + 0.6**2), np.sqrt(2 * 0.4**2))
        )
        assert report.eps_dual == pytest.approx(
            1e-5 * np.sqrt(2) + 1e-3 * np.sqrt(0.1**2 + 0.3**2)
        )


class TestSolveMap:
    def test_requires_free_variables(self):
        mrf = make_mrf([], [], weights=[], n=1, observed={0: 0.5})
        with pytest.raises(ModelError):
            solve_map(mrf)

    def test_optimality_against_grid(self):
        rng = np.random.default_rng(2024)
        for _ in range(12):
            mrf = random_mrf(rng, n_vars=int(rng.integers(2, 5)), constrained=True)
            y, diag = solve_map(mrf, TIGHT)
            assert diag.converged
            _, best = grid_minimize(mrf, step=0.05)
            assert mrf.energy(y) <= best + 1e-3

    def test_stationarity_where_smooth(self):
        # At an interior optimum of a squared-only model the energy gradient
        # must vanish (KKT stationarity with inactive box constraints).
        mrf = make_mrf(
            [
                hinge([(0, 1.0), (1, 0.5)], -0.4, exponent=2),
                hinge([(0, -1.0)], 0.55, exponent=2, template=1),
                hinge([(1, -1.0)], 0.35, exponent=2, template=1),
            ],
            weights=[1.0, 0.8],
            n=2,
        )
        y, _ = solve_map(mrf, TIGHT)
        if np.all((y > 1e-4) & (y < 1 - 1e-4)):
            grad = np.zeros(2)
            for pot in mrf.potentials:
                lin = pot.linfun.value(y)
                if lin > 0:
                    for idx, coeff in pot.linfun.terms:
                        grad[idx] += (
                            mrf.weights[pot.template_id] * 2.0 * lin * coeff
                        )
            np.testing.assert_allclose(grad, 0.0, atol=1e-3)

    def test_lp_agreement_for_clause_models(self):
        # Clause-only energies mirror the relaxed satisfaction objective:
        # total weight minus energy equals the compact clause-value sum.
        rng = np.random.default_rng(303)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            clauses = []
            pots = []
            for j in range(int(rng.integers(2, 7))):
                k = int(rng.integers(1, min(3, n) + 1))
                variables = rng.choice(n, size=k, replace=False)
                signs = rng.random(k) < 0.5
                pos = tuple(int(v) for v, s in zip(variables, signs) if s)
                neg = tuple(int(v) for v, s in zip(variables, signs) if not s)
                clauses.append(logic.Clause(pos, neg, 1.0))
                lf = logic.clause_to_linfun(clauses[-1])
                pots.append(HingePotential(lf, 1, j))
            weights = rng.uniform(0.1, 1.0, size=len(pots))
            clauses = [
                logic.Clause(c.pos, c.neg, w) for c, w in zip(clauses, weights)
            ]
            mrf = make_mrf(pots, weights=weights, n=n)
            y, _ = solve_map(mrf, TIGHT)
            lp_value = sum(logic.lcr_compact_value(c, [y[i] for i in c.variables]) for c in clauses)
            assert weights.sum() - mrf.energy(y) == pytest.approx(lp_value, abs=1e-4)

    def test_schedule_independence(self):
        rng = np.random.default_rng(7)
        mrf = random_mrf(rng, n_vars=5, n_pots=12, constrained=True)
        y1, _ = solve_map(mrf, SolveOptions(workers=1))
        y4, _ = solve_map(mrf, SolveOptions(workers=4))
        np.testing.assert_allclose(y1, y4, atol=1e-6)

    def test_iteration_limit_flagged(self):
        mrf = make_mrf(
            [hinge([(0, 1.0)], 0.0, exponent=2), hinge([(0, -1.0)], 1.0, exponent=2, template=1)],
            weights=[3.0, 1.0],
        )
        y, diag = solve_map(mrf, SolveOptions(eps_abs=1e-12, eps_rel=1e-12, max_iter=5))
        assert not diag.converged
        assert "iteration limit" in diag.message

    def test_infeasibility_reported(self):
        mrf = make_mrf(
            [],
            [eq([(0, 1.0)], -0.3), eq([(0, 1.0)], -0.7)],
            weights=[],
            n=1,
        )
        _, diag = solve_map(mrf, SolveOptions(max_iter=4000))
        assert diag.infeasible
        assert "infeasible" in diag.message

    def test_feasible_stall_not_reported_infeasible(self):
        # A three-label opposing-rule program on a 20-user network is
        # feasible, yet at eps 1e-8 its primal residual stops improving for
        # the stall window. Its three-variable equalities stay with ADMM.
        data_text, _ = generate_network(SynthNetworkSpec(n_users=20, seed=1))
        data_text = data_text.replace("Conservative(User)\n", "Conservative(User)\nModerate(User)\n")
        program = parse_program(
            "0.5 : Opinion(U) -> Liberal(U)\n"
            "0.5 : !Opinion(U) -> Conservative(U)\n"
            "0.9 : Liberal(A) & Edge1(A, B) -> Liberal(B)\n"
            "0.9 : Conservative(A) & Edge1(A, B) -> Conservative(B)\n"
            "0.9 : Moderate(A) & Edge1(A, B) -> Moderate(B)\n"
            "Liberal(U) + Conservative(U) + Moderate(U) = 1 .\n"
        )
        mrf = ground_program(program, load_data(data_text), prune=True)
        y, diag = solve_map(mrf, SolveOptions(eps_abs=1e-8, eps_rel=1e-8))
        assert diag.eliminated_constraints == 0
        assert not diag.converged
        assert not diag.infeasible
        assert "stalled" in diag.message and "infeasible" not in diag.message
        assert mrf.check_feasible(y, tol=1e-9)[0]

    @pytest.mark.parametrize(
        "field", ["rho", "eps_abs", "eps_rel", "activation_threshold"]
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_options_rejected(self, field, bad):
        with pytest.raises(ModelError, match="finite"):
            SolveOptions(**{field: bad})

    @pytest.mark.parametrize("field", ["max_iter", "workers"])
    @pytest.mark.parametrize("bad", [0, -3, 2.5, "2", True])
    def test_counts_must_be_positive_integers(self, field, bad):
        with pytest.raises(ModelError, match=field):
            SolveOptions(**{field: bad})

    @pytest.mark.parametrize("solver", [solve_map, solve_map_lazy])
    def test_max_violation_reported(self, solver):
        # A three-variable equality stays with ADMM, which has not yet met
        # it after three iterations.
        mrf = make_mrf(
            [hinge([(0, 1.0)], 0.0), hinge([(1, -1.0)], 0.9, template=1)],
            [eq([(0, 1.0), (1, 1.0), (2, 1.0)], -0.6)],
            weights=[1.0, 2.0],
            n=3,
        )
        y, diag = solver(mrf, SolveOptions(max_iter=3))
        assert diag.eliminated_constraints == 0
        rows = mrf.constraint_rows
        violation = abs(rows.values(y)[0])
        assert violation == pytest.approx(abs(y[0] + y[1] + y[2] - 0.6), abs=1e-15)
        assert violation > 1e-6
        assert diag.max_violation == violation

    def test_extra_linear_terms(self):
        # minimize w*max(y,0)^2 + c*y with c=-1: optimum at y = 1/(2w) capped
        mrf = make_mrf([hinge([(0, 1.0)], 0.0, exponent=2)], weights=[2.0])
        y, diag = solve_map(mrf, TIGHT, extra_linear=np.array([-1.0]))
        assert y[0] == pytest.approx(0.25, abs=1e-6)
        assert diag.objective == pytest.approx(2.0 * 0.25**2 - 0.25, abs=1e-6)
        assert diag.energy == pytest.approx(2.0 * 0.25**2, abs=1e-6)

    def test_trace_callback(self):
        records = []
        mrf = make_mrf([hinge([(0, 1.0)], -0.2)], weights=[1.0])
        solve_map(mrf, SolveOptions(trace=lambda *r: records.append(r)))
        assert records
        assert all(len(r) == 4 for r in records)


def mixed_model(rng, n=6):
    """Linear and squared hinges, a zero-weight template, an observed
    variable (the last), an EQ and a LEQ constraint, and a sparse raw
    linear objective over the free variables."""
    free, observed = n - 1, n - 1
    potentials = []
    for t in range(8):
        idx = rng.choice(free, size=int(rng.integers(1, 4)), replace=False).tolist()
        if rng.random() < 0.5:
            idx.append(observed)
        terms = list(zip(idx, rng.uniform(-1.0, 1.0, size=len(idx)).tolist()))
        potentials.append(hinge(terms, rng.uniform(-0.5, 0.8), exponent=1 + t % 2, template=t % 4))
    weights = rng.uniform(0.2, 1.5, size=4)
    weights[3] = 0.0
    i, j, k = rng.choice(free, size=3, replace=False).tolist()
    constraints = [
        eq([(i, 1.0), (j, 1.0)], -1.0),
        leq([(j, 1.0), (k, 1.0), (observed, 0.5)], -1.0),
    ]
    mrf = make_mrf(potentials, constraints, weights, n=n, observed={observed: rng.uniform()})
    linear = rng.uniform(-1.0, 1.0, size=free)
    linear[rng.random(free) < 0.3] = 0.0
    return mrf, linear


def scalar_solvers(mrf, linear, rho):
    """Each block's positions with its scalar reference subproblem at ``rho``."""
    table = mrf.table

    def positions(lf):
        return np.array([table.position[i] for i, _ in lf.terms], dtype=int)

    solvers = []
    for pot in mrf.potentials:
        lf = fold_observed(pot.linfun, table)
        folded = HingePotential(lf, pot.exponent, pot.template_id)
        w = mrf.weights[pot.template_id]
        solvers.append(
            (positions(lf), lambda z, p=folded, w=w: solve_potential_subproblem(p, w, z, rho))
        )
    for con in mrf.constraints:
        lf = fold_observed(con.linfun, table)
        folded = LinearConstraint(lf, con.relation)
        solvers.append(
            (positions(lf), lambda z, c=folded: solve_constraint_subproblem(c, z, rho))
        )
    for i in np.flatnonzero(linear):
        solvers.append((np.array([i]), lambda z, c=linear[i]: z - c / rho))
    return solvers


def cold_state(mrf, solvers, rho):
    consensus = np.full(mrf.n_free, 0.5)
    blocks = [AdmmBlock(idx, consensus[idx].copy(), np.zeros(idx.size)) for idx, _ in solvers]
    return AdmmState(blocks, consensus.copy(), consensus.copy(), rho)


def scalar_iterations(state, solvers, iterations, alpha=1.0):
    """Run ``iterations`` ADMM steps of the scalar reference ops on ``state``,
    each block's local copy relaxed by ``alpha`` toward its target."""
    rho = state.rho
    for _ in range(iterations):
        for block, (_, solve) in zip(state.blocks, solvers):
            target = state.consensus[block.indices]
            block.multiplier = block.multiplier + rho * (block.local - target)
            block.local = alpha * solve(target - block.multiplier / rho) + (1 - alpha) * target
        consensus_update(state)
    return state


NO_STOP = dict(eps_abs=1e-15, eps_rel=1e-15)


def presolved(mrf, linear=None):
    """The model and raw linear terms that ADMM iterates on after the
    presolve, and the map that fills in the eliminated variables. The
    models here hold one ``(1, 1)`` doubleton summing to 1, which leaves the
    representative's box at [0, 1], the box of the reference consensus."""
    linear = np.zeros(mrf.n_free) if linear is None else linear
    compiled = _CompiledModel(mrf, np.flatnonzero(linear), np.full(mrf.n_free, 0.5))
    doubletons = compiled.doubletons
    assert doubletons.rows.size == 1
    assert doubletons.lo.tolist() == [0.0] and doubletons.hi.tolist() == [1.0]
    pots, cons = compiled.reduced
    kept = np.ones(cons.size, bool)
    kept[doubletons.rows] = False
    reduced = HlMrf(
        mrf.table,
        pots.objects(mrf.table, mrf.origins),
        [c for c, k in zip(cons.objects(mrf.table), kept) if k],
        mrf.templates,
        mrf.weights,
    )
    return reduced, doubletons.linear(linear), lambda y: doubletons.expand(y.copy())


class TestEngineMatchesScalarOps:
    @pytest.mark.parametrize("rho", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("seed", range(20))
    def test_two_iterations_match_scalar_ops(self, seed, rho):
        # Drive the explicit-state path with the scalar reference ops and
        # compare against two engine iterations; the second starts from
        # nonzero multipliers.
        rng = np.random.default_rng(seed)
        mrf, linear = mixed_model(rng)
        opts = SolveOptions(rho=rho, eps_abs=1e-15, eps_rel=1e-15, max_iter=2)
        y_engine, diag = solve_map(mrf, opts, extra_linear=linear)
        assert diag.iterations == 2

        reduced, reduced_linear, expand = presolved(mrf, linear)
        solvers = scalar_solvers(reduced, reduced_linear, rho)
        state = scalar_iterations(cold_state(reduced, solvers, rho), solvers, 2)
        np.testing.assert_allclose(y_engine, expand(state.consensus), rtol=0, atol=1e-12)
        check = check_convergence(state, opts.eps_abs, opts.eps_rel)
        assert diag.primal_residual == pytest.approx(check.primal_residual, rel=0, abs=1e-12)
        assert diag.dual_residual == pytest.approx(check.dual_residual, rel=0, abs=1e-12)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("rho", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("seed", range(8))
    def test_thirty_iterations_match_scalar_ops(self, seed, rho, workers):
        # Long enough for every kind of block to leave its start, on both
        # the serial and the threaded update.
        mrf, linear = mixed_model(np.random.default_rng(seed))
        opts = SolveOptions(rho=rho, max_iter=30, workers=workers, **NO_STOP)
        y_engine, diag = solve_map(mrf, opts, extra_linear=linear)
        assert diag.iterations == 30

        reduced, reduced_linear, expand = presolved(mrf, linear)
        solvers = scalar_solvers(reduced, reduced_linear, rho)
        state = scalar_iterations(cold_state(reduced, solvers, rho), solvers, 30)
        np.testing.assert_allclose(y_engine, expand(state.consensus), rtol=0, atol=1e-12)
        check = check_convergence(state, opts.eps_abs, opts.eps_rel)
        assert diag.primal_residual == pytest.approx(check.primal_residual, rel=0, abs=1e-12)
        assert diag.dual_residual == pytest.approx(check.dual_residual, rel=0, abs=1e-12)

    @pytest.mark.parametrize("rho_then, rho_now", [(1.0, 3.0), (3.0, 0.5)])
    @pytest.mark.parametrize("seed", range(4))
    def test_warm_start_at_another_penalty_continues_scalar_ops(self, seed, rho_then, rho_now):
        # The reference keeps its unscaled multipliers when the penalty
        # changes, so a restored state must carry the same multipliers.
        mrf, linear = mixed_model(np.random.default_rng(seed))
        warm = WarmStart()
        first = SolveOptions(rho=rho_then, max_iter=10, **NO_STOP)
        solve_map(mrf, first, extra_linear=linear, warm=warm)
        second = SolveOptions(rho=rho_now, max_iter=20, **NO_STOP)
        y_engine, diag = solve_map(mrf, second, extra_linear=linear, warm=warm)
        assert diag.iterations == 20

        reduced, reduced_linear, expand = presolved(mrf, linear)
        solvers = scalar_solvers(reduced, reduced_linear, rho_then)
        state = scalar_iterations(cold_state(reduced, solvers, rho_then), solvers, 10)
        state.rho = rho_now
        scalar_iterations(state, scalar_solvers(reduced, reduced_linear, rho_now), 20)
        np.testing.assert_allclose(y_engine, expand(state.consensus), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("with_linear", [False, True])
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("rho", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_thirty_relaxed_iterations_match_scalar_ops(self, seed, rho, workers, with_linear):
        # Squared hinges only and an EQ constraint, with or without linear
        # terms: every block is relaxed, on both the serial and the
        # threaded update.
        rng = np.random.default_rng(seed)
        mrf = squared_model(rng)
        linear = rng.uniform(-1.0, 1.0, size=mrf.n_free) * with_linear
        opts = SolveOptions(rho=rho, max_iter=30, workers=workers, **NO_STOP)
        y_engine, diag = solve_map(mrf, opts, extra_linear=linear)
        assert diag.iterations == 30

        reduced, reduced_linear, expand = presolved(mrf, linear)
        solvers = scalar_solvers(reduced, reduced_linear, rho)
        state = scalar_iterations(cold_state(reduced, solvers, rho), solvers, 30, _RELAXATION)
        np.testing.assert_allclose(y_engine, expand(state.consensus), rtol=0, atol=1e-12)
        check = check_convergence(state, opts.eps_abs, opts.eps_rel)
        assert diag.primal_residual == pytest.approx(check.primal_residual, rel=0, abs=1e-12)
        assert diag.dual_residual == pytest.approx(check.dual_residual, rel=0, abs=1e-12)
        plain = scalar_iterations(cold_state(reduced, solvers, rho), solvers, 30)
        assert np.abs(expand(plain.consensus) - y_engine).max() > 1e-6

    @pytest.mark.parametrize("rho_then, rho_now", [(1.0, 3.0), (3.0, 0.5)])
    @pytest.mark.parametrize("seed", range(4))
    def test_relaxed_warm_start_at_another_penalty_continues_scalar_ops(
        self, seed, rho_then, rho_now
    ):
        mrf = squared_model(np.random.default_rng(seed))
        warm = WarmStart()
        solve_map(mrf, SolveOptions(rho=rho_then, max_iter=10, **NO_STOP), warm=warm)
        second = SolveOptions(rho=rho_now, max_iter=20, **NO_STOP)
        y_engine, diag = solve_map(mrf, second, warm=warm)
        assert diag.iterations == 20

        reduced, none, expand = presolved(mrf)
        solvers = scalar_solvers(reduced, none, rho_then)
        state = scalar_iterations(cold_state(reduced, solvers, rho_then), solvers, 10, _RELAXATION)
        state.rho = rho_now
        scalar_iterations(state, scalar_solvers(reduced, none, rho_now), 20, _RELAXATION)
        np.testing.assert_allclose(y_engine, expand(state.consensus), rtol=0, atol=1e-12)
        check = check_convergence(state, second.eps_abs, second.eps_rel)
        assert diag.primal_residual == pytest.approx(check.primal_residual, rel=0, abs=1e-12)
        assert diag.dual_residual == pytest.approx(check.dual_residual, rel=0, abs=1e-12)


def squared_model(rng, n=6):
    """Squared hinges only, pulling every variable to a random target from
    both sides so the optimum is unique, plus an EQ constraint."""
    potentials = []
    for i, t in enumerate(rng.uniform(0.1, 0.9, size=n)):
        potentials.append(hinge([(i, 1.0)], -t, exponent=2, template=0))
        potentials.append(hinge([(i, -1.0)], t, exponent=2, template=1))
    for _ in range(2 * n):
        i, j = rng.choice(n, size=2, replace=False).tolist()
        potentials.append(
            hinge([(i, 1.0), (j, -1.0)], rng.uniform(-0.3, 0.3), exponent=2, template=2)
        )
    weights = rng.uniform(0.2, 1.5, size=3)
    return make_mrf(potentials, [eq([(0, 1.0), (1, 1.0)], -1.0)], weights, n=n)


def smooth_optimum(mrf, linear=None):
    """An independent optimum of a squared-hinge model plus ``linear @ y``:
    SLSQP over the unit box and the hard constraints, from the objective's
    analytic gradient."""
    pots, cons = mrf.potential_rows, mrf.constraint_rows
    rows = [(*pots.row(j), mrf.weights[pots.template_id[j]]) for j in range(pots.size)]
    linear = np.zeros(mrf.n_free) if linear is None else linear

    def energy(y):
        value, grad = float(linear @ y), linear.copy()
        for positions, coeffs, offset, w in rows:
            h = max(float(coeffs @ y[positions] + offset), 0.0)
            value += w * h * h
            grad[positions] += 2.0 * w * h * coeffs
        return value, grad

    def constraint(k):
        positions, coeffs, offset = cons.row(k)
        sign = 1.0 if cons.is_eq[k] else -1.0  # SLSQP keeps inequalities >= 0
        dense = np.zeros(mrf.n_free)
        dense[positions] = sign * coeffs
        return {
            "type": "eq" if cons.is_eq[k] else "ineq",
            "fun": lambda y: float(dense @ y + sign * offset),
            "jac": lambda y: dense,
        }

    result = minimize(
        energy, np.full(mrf.n_free, 0.5), jac=True, method="SLSQP",
        bounds=[(0.0, 1.0)] * mrf.n_free,
        constraints=[constraint(k) for k in range(cons.size)],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    assert result.success, result.message
    return result.x, energy(result.x)[0]


class TestOverRelaxation:
    @pytest.mark.parametrize("seed", range(8))
    def test_relaxed_solve_reaches_the_optimum(self, seed):
        mrf = squared_model(np.random.default_rng(seed))
        y, diag = solve_map(mrf, TIGHT)
        y_star, best = smooth_optimum(mrf)
        assert diag.converged
        assert diag.energy == pytest.approx(best, abs=5e-9)
        np.testing.assert_allclose(y, y_star, rtol=0, atol=1e-7)

    def relaxation_off(self, monkeypatch, mrf, opts, **kwargs):
        monkeypatch.setattr(softlogic.infer, "_RELAXATION", 1.0)
        y, diag = solve_map(mrf, opts, **kwargs)
        monkeypatch.undo()
        return y, diag

    @pytest.mark.parametrize("seed", range(4))
    def test_squared_models_are_relaxed(self, monkeypatch, seed):
        mrf = squared_model(np.random.default_rng(seed))
        _, plain = self.relaxation_off(monkeypatch, mrf, TIGHT)
        _, relaxed = solve_map(mrf, TIGHT)
        assert relaxed.iterations < plain.iterations

    @pytest.mark.parametrize("seed", range(4))
    def test_one_linear_hinge_keeps_the_plain_step(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        squared = squared_model(rng)
        mrf = make_mrf(
            [*squared.potentials, hinge([(2, 1.0), (3, 1.0)], -0.5, exponent=1, template=3)],
            squared.constraints, [*squared.weights, 0.7], n=squared.n_free,
        )
        y_plain, plain = self.relaxation_off(monkeypatch, mrf, TIGHT)
        y, diag = solve_map(mrf, TIGHT)
        assert diag.iterations == plain.iterations
        np.testing.assert_array_equal(y, y_plain)

    @pytest.mark.parametrize("seed", range(8))
    def test_relaxed_solve_with_linear_terms_reaches_the_optimum(self, seed):
        rng = np.random.default_rng(seed)
        mrf = squared_model(rng)
        linear = rng.uniform(-1.0, 1.0, size=mrf.n_free)
        y, diag = solve_map(mrf, TIGHT, extra_linear=linear)
        y_star, best = smooth_optimum(mrf, linear)
        assert diag.converged
        assert diag.objective == pytest.approx(best, abs=5e-9)
        np.testing.assert_allclose(y, y_star, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("seed", range(4))
    def test_constraints_alone_keep_the_plain_step(self, monkeypatch, seed):
        n = 6
        chain = [leq([(i, 1.0), (i + 1, -1.0)], 0.0) for i in range(1, n - 1)]
        mrf = make_mrf([], [eq([(0, 1.0), (1, 1.0)], -1.0), *chain], n=n)
        start = np.random.default_rng(seed).uniform(size=n)
        y_plain, plain = self.relaxation_off(monkeypatch, mrf, TIGHT, initial=start)
        y, diag = solve_map(mrf, TIGHT, initial=start)
        assert diag.iterations == plain.iterations > 1
        np.testing.assert_array_equal(y, y_plain)

    def test_a_lazy_round_without_potentials_keeps_the_plain_step(self):
        mrf = squared_model(np.random.default_rng(0))
        y, support = np.full(mrf.n_free, 0.5), np.zeros(0, np.intp)
        selected = np.zeros(mrf.potential_rows.size, bool)
        plain = _CompiledModel(mrf, support, y, selected)
        selected[0] = True
        relaxed = _CompiledModel(mrf, support, y, selected)
        assert [g.alpha for g in plain.groups] == [1.0] * len(plain.groups)
        assert [g.alpha for g in relaxed.groups] == [_RELAXATION] * len(relaxed.groups)


def doubleton_model(rng, exponent, chain):
    """Hinges of one exponent over 13 free variables and one observed one
    (the last), raw linear terms, and hard equalities that all hold at a
    random point: four lone doubletons with signed, non-unit coefficients,
    one of them with an observed third term, and if ``chain``, two more that
    share a variable. Each variable is pulled toward a target from both
    sides, and one hinge holds both variables of each lone doubleton.
    Returns the model, the linear terms and the rows of the four equalities
    that the presolve eliminates."""
    free, observed = 13, 13
    x = rng.uniform(size=free + 1)
    coeff = lambda: float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0))

    def through_x(*variables):
        terms = [(int(i), coeff()) for i in variables]
        return eq(terms, -sum(c * x[i] for i, c in terms))

    v = rng.permutation(free)
    pairs = [v[0:2], v[2:4], v[4:6], v[6:8]]
    constraints = [through_x(*pair) for pair in pairs[:3]] + [through_x(*pairs[3], observed)]
    if chain:
        constraints += [through_x(v[8], v[9]), through_x(v[9], v[10])]
    potentials = []
    for i, t in enumerate(rng.uniform(0.1, 0.9, size=free)):
        potentials += [hinge([(i, 1.0)], -t, exponent), hinge([(i, -1.0)], t, exponent)]
    for i, j in pairs:
        terms = [(int(i), coeff()), (int(j), coeff())]
        potentials.append(hinge(terms, rng.uniform(-0.5, 0.5), exponent, template=1))
    for _ in range(12):
        idx = rng.choice(free, size=int(rng.integers(1, 4)), replace=False).tolist()
        if rng.random() < 0.5:
            idx.append(observed)
        terms = list(zip(idx, rng.uniform(-1.0, 1.0, size=len(idx)).tolist()))
        potentials.append(hinge(terms, rng.uniform(-0.5, 0.8), exponent, template=2))
    mrf = make_mrf(potentials, constraints, rng.uniform(0.2, 1.5, size=3), n=free + 1,
                   observed={observed: float(x[observed])})
    linear = rng.uniform(-1.0, 1.0, size=free)
    linear[rng.random(free) < 0.3] = 0.0
    return mrf, linear, np.arange(4)


def lp_optimum(mrf, linear):
    """The optimum of a linear-hinge model plus ``linear @ y`` by HiGHS: one
    epigraph variable ``t_j >= l_j(y)``, ``t_j >= 0`` per potential."""
    from scipy.optimize import linprog

    pots, cons = mrf.potential_rows, mrf.constraint_rows
    n, m = mrf.n_free, pots.size

    def dense(rows):
        a = np.zeros((rows.size, n + m))
        for r in range(rows.size):
            positions, coeffs, _ = rows.row(r)
            a[r, positions] = coeffs
        return a

    a_pot = dense(pots)
    a_pot[:, n:] = -np.eye(m)
    a_con = dense(cons)
    result = linprog(
        np.concatenate([linear, mrf.weights[pots.template_id]]),
        A_ub=np.vstack([a_pot, a_con[~cons.is_eq]]),
        b_ub=-np.concatenate([pots.offsets, cons.offsets[~cons.is_eq]]),
        A_eq=a_con[cons.is_eq], b_eq=-cons.offsets[cons.is_eq],
        bounds=[(0.0, 1.0)] * n + [(0.0, None)] * m, method="highs",
    )
    assert result.status == 0, result.message
    return result.fun


def assert_eliminated_hold(mrf, y, rows):
    """The equalities ``rows`` hold to 1e-12 at ``y``, inside the unit box."""
    assert np.abs(mrf.constraint_rows.values(y)[rows]).max() <= 1e-12
    assert np.all((y >= 0.0) & (y <= 1.0))


class TestPresolve:
    @pytest.mark.parametrize("seed", range(8))
    def test_squared_models_reach_the_smooth_optimum(self, seed):
        rng = np.random.default_rng(seed)
        mrf, linear, eliminated = doubleton_model(rng, 2, chain=True)
        y, diag = solve_map(mrf, TIGHT, extra_linear=linear)
        _, best = smooth_optimum(mrf, linear)
        assert diag.converged
        assert diag.eliminated_constraints == eliminated.size
        assert diag.objective == pytest.approx(best, abs=1e-6)
        assert diag.max_violation <= 1e-7
        assert_eliminated_hold(mrf, y, eliminated)

    @pytest.mark.parametrize("seed", range(8))
    def test_linear_models_reach_the_lp_optimum(self, seed):
        # Without the chain: on these LPs, ADMM with a chain of equalities
        # often runs into its stall test before the optimum. The stall test
        # can also stop a solve at the optimum, so only the answer is checked.
        rng = np.random.default_rng(100 + seed)
        mrf, linear, eliminated = doubleton_model(rng, 1, chain=False)
        y, diag = solve_map(mrf, TIGHT, extra_linear=linear)
        assert diag.eliminated_constraints == eliminated.size
        assert diag.objective == pytest.approx(lp_optimum(mrf, linear), abs=1e-6)
        assert diag.max_violation <= 1e-7
        assert_eliminated_hold(mrf, y, eliminated)

    def test_what_is_eliminated(self):
        # The substituted variable is the one of larger |a|, the second on
        # ties, and its interval tightens the representative's box.
        mrf = make_mrf([], [eq([(0, 1.0), (1, -1.0)], -0.3), eq([(2, -0.5), (3, 2.0)], -1.2)], n=4)
        d = _CompiledModel(mrf, np.zeros(0, np.intp), np.full(4, 0.5)).doubletons
        np.testing.assert_array_equal(d.rows, [0, 1])
        np.testing.assert_array_equal(d.rep, [0, 2])
        np.testing.assert_array_equal(d.sub, [1, 3])
        np.testing.assert_allclose(d.lo, [0.3, 0.0])  # y1 = y0 - 0.3
        np.testing.assert_allclose(d.hi, [1.0, 1.0])  # y3 = 0.6 + 0.25 y2
        y, diag = solve_map(mrf, TIGHT)
        assert diag.eliminated_constraints == 2
        assert 0.3 <= y[0] and y[3] >= 0.6
        assert_eliminated_hold(mrf, y, d.rows)

    def test_potentials_merge_a_variable_with_its_representative(self):
        # y1 = 1 - y0 turns max(y0 - y1, 0)^2 into max(2 y0 - 1, 0)^2.
        mrf = make_mrf(
            [hinge([(0, 1.0), (1, -1.0)], 0.0, exponent=2), hinge([(0, -1.0)], 0.8, exponent=2)],
            [eq([(0, 1.0), (1, 1.0)], -1.0)], weights=[1.0], n=2,
        )
        compiled = _CompiledModel(mrf, np.zeros(0, np.intp), np.full(2, 0.5))
        pots = compiled.reduced[0]
        assert pots.arity.tolist() == [1, 1]
        np.testing.assert_array_equal(pots.positions, [0, 0])
        np.testing.assert_allclose(pots.coeffs, [2.0, -1.0])
        np.testing.assert_allclose(pots.offsets, [-1.0, 0.8])
        y, diag = solve_map(mrf, TIGHT)
        _, best = smooth_optimum(mrf)
        assert diag.energy == pytest.approx(best, abs=1e-9)
        assert y[0] + y[1] == 1.0

    @pytest.mark.parametrize("second, infeasible", [
        (leq([(0, 1.0), (1, -1.0)], -0.2), False),  # y0 - y1 <= 0.2 with y0 + y1 = 1
        (leq([(0, 1.0), (1, 1.0)], -0.5), True),  # y0 + y1 <= 0.5 with y0 + y1 = 1
    ])
    def test_another_constraint_on_the_pair_keeps_the_equality(self, second, infeasible):
        mrf = make_mrf(
            [hinge([(0, -1.0)], 0.9, exponent=2), hinge([(1, -1.0)], 0.6, exponent=2)],
            [eq([(0, 1.0), (1, 1.0)], -1.0), second], weights=[1.0], n=2,
        )
        y, diag = solve_map(mrf, SolveOptions(max_iter=4000))
        assert diag.eliminated_constraints == 0
        assert diag.infeasible == infeasible
        if not infeasible:
            np.testing.assert_allclose(y, [0.6, 0.4], atol=1e-3)

    def test_two_equalities_on_one_pair_stay_with_admm(self):
        # y0 + y1 = 1 and y0 - y1 = 0.2 pin the pair to (0.6, 0.4).
        mrf = make_mrf(
            [hinge([(0, -1.0)], 0.9, exponent=2), hinge([(2, 1.0), (1, -1.0)], 0.1, exponent=2)],
            [eq([(0, 1.0), (1, 1.0)], -1.0), eq([(0, 1.0), (1, -1.0)], -0.2),
             eq([(2, 2.0), (3, -0.5)], -0.4)],
            weights=[1.0], n=4,
        )
        y, diag = solve_map(mrf, TIGHT)
        _, best = smooth_optimum(mrf)
        assert diag.converged
        assert diag.eliminated_constraints == 1
        assert diag.energy == pytest.approx(best, abs=1e-9)
        np.testing.assert_allclose(y[:2], [0.6, 0.4], atol=1e-8)
        assert_eliminated_hold(mrf, y, [2])

    def test_empty_interval_reported_infeasible(self):
        # y1 = 2.5 - y0 leaves [0, 1] for every y0 in [0, 1].
        mrf = make_mrf([hinge([(0, 1.0)], -0.5)], [eq([(0, 1.0), (1, 1.0)], -2.5)],
                       weights=[1.0], n=2)
        _, diag = solve_map(mrf, SolveOptions(max_iter=4000))
        assert diag.eliminated_constraints == 0
        assert diag.infeasible
        assert "infeasible" in diag.message

    @pytest.mark.parametrize("seed", range(4))
    def test_warm_solves_across_new_weights(self, seed):
        rng = np.random.default_rng(200 + seed)
        mrf, linear, eliminated = doubleton_model(rng, 2, chain=True)
        warm = WarmStart()
        solve_map(mrf, TIGHT, extra_linear=linear, warm=warm)
        compiled = warm.compiled
        for _ in range(3):
            moved = mrf.with_weights(mrf.weights * rng.uniform(0.5, 1.5, size=mrf.weights.size))
            y_warm, diag = solve_map(moved, TIGHT, extra_linear=linear, warm=warm)
            _, best = smooth_optimum(moved, linear)
            assert warm.compiled is compiled and warm.y is y_warm
            assert diag.converged and diag.eliminated_constraints == eliminated.size
            assert diag.objective == pytest.approx(best, abs=1e-6)
            assert_eliminated_hold(mrf, y_warm, eliminated)

    @pytest.mark.parametrize("seed", range(4))
    def test_lazy_solves(self, seed):
        rng = np.random.default_rng(300 + seed)
        mrf, linear, eliminated = doubleton_model(rng, 2, chain=True)
        y, lazy = solve_map_lazy(mrf, TIGHT, extra_linear=linear)
        _, full = solve_map(mrf, TIGHT, extra_linear=linear)
        # Every equality is violated at the all-zero start, so the first
        # round activates them all.
        assert lazy.eliminated_constraints == eliminated.size
        assert lazy.objective == pytest.approx(full.objective, abs=1e-6)
        assert lazy.max_violation <= 1e-7
        assert_eliminated_hold(mrf, y, eliminated)


class TestWarmStart:
    @pytest.mark.parametrize("seed", range(6))
    def test_empty_warm_start_solves_cold(self, seed):
        mrf, linear = mixed_model(np.random.default_rng(seed))
        y_cold, cold = solve_map(mrf, TIGHT, extra_linear=linear)
        warm = WarmStart()
        y, diag = solve_map(mrf, TIGHT, extra_linear=linear, warm=warm)
        assert diag.iterations == cold.iterations
        np.testing.assert_array_equal(y, y_cold)
        np.testing.assert_array_equal(warm.y, y_cold)

    @pytest.mark.parametrize("seed", range(6))
    def test_warm_resolve_of_same_model_stops_at_once(self, seed):
        # The stored state already passes the residual tests, so one more
        # iteration does; it moves y by at most the dual tolerance (up to
        # 1.3e-9 on these models at TIGHT).
        mrf = squared_model(np.random.default_rng(seed))
        warm = WarmStart()
        y_cold, _ = solve_map(mrf, TIGHT, warm=warm)
        y_warm, diag = solve_map(mrf, TIGHT, warm=warm)
        assert diag.converged
        assert diag.iterations <= 2
        np.testing.assert_allclose(y_warm, y_cold, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_warm_solve_after_new_weights_matches_cold(self, seed):
        rng = np.random.default_rng(seed)
        mrf = squared_model(rng)
        warm = WarmStart()
        solve_map(mrf, TIGHT, warm=warm)
        moved = mrf.with_weights(mrf.weights * rng.uniform(0.5, 1.5, size=mrf.weights.size))
        y_warm, diag = solve_map(moved, TIGHT, warm=warm)
        y_cold, _ = solve_map(moved, TIGHT)
        assert diag.converged
        np.testing.assert_allclose(y_warm, y_cold, rtol=0, atol=1e-6)

    def test_new_linear_coefficients_on_the_same_support(self):
        mrf, linear = mixed_model(np.random.default_rng(3))
        warm = WarmStart()
        solve_map(mrf, TIGHT, extra_linear=linear, warm=warm)
        y_warm, diag = solve_map(mrf, TIGHT, extra_linear=-linear, warm=warm)
        _, cold = solve_map(mrf, TIGHT, extra_linear=-linear)
        assert diag.converged
        assert diag.objective == pytest.approx(cold.objective, abs=1e-6)

    def test_other_structure_rejected(self):
        mrf = squared_model(np.random.default_rng(0))
        warm = WarmStart()
        solve_map(mrf, TIGHT, warm=warm)
        with pytest.raises(ModelError, match="structure"):
            solve_map(squared_model(np.random.default_rng(1)), TIGHT, warm=warm)
        linear = np.zeros(mrf.n_free)
        linear[0] = 1.0
        with pytest.raises(ModelError, match="structure"):
            solve_map(mrf, TIGHT, extra_linear=linear, warm=warm)
        with pytest.raises(ModelError, match="initial"):
            solve_map(mrf, TIGHT, initial=np.full(mrf.n_free, 0.5), warm=warm)
        # A rejected call leaves the stored state in place.
        _, diag = solve_map(mrf, TIGHT, warm=warm)
        assert diag.iterations <= 2


    def test_warm_solve_leaves_the_returned_answer_alone(self):
        mrf, linear = mixed_model(np.random.default_rng(2))
        warm = WarmStart()
        answers = [solve_map(mrf, TIGHT, extra_linear=linear, warm=warm)[0]]
        kept = answers[0].copy()
        for sign in (-1.0, 1.0):
            answers.append(solve_map(mrf, TIGHT, extra_linear=sign * linear, warm=warm)[0])
            assert answers[-1] is not answers[-2]
        np.testing.assert_array_equal(answers[0], kept)
        assert warm.y is answers[-1]

    def test_new_weights_keep_the_compiled_structure(self):
        rng = np.random.default_rng(5)
        mrf = squared_model(rng)
        warm = WarmStart()
        solve_map(mrf, TIGHT, warm=warm)
        compiled = warm.compiled
        moved = mrf.with_weights(mrf.weights * rng.uniform(0.5, 1.5, size=mrf.weights.size))
        solve_map(moved, SolveOptions(rho=2.0, eps_abs=1e-10, eps_rel=1e-10), warm=warm)
        assert warm.compiled is compiled


class TestLazyInference:
    def test_sparse_model_activates_under_thirty_percent(self):
        pots = []
        n = 30
        for i in range(n):
            pots.append(hinge([(i, 1.0)], 0.0, template=0))  # absence priors
        for i in range(5):
            pots.append(hinge([(i, -1.0)], 0.8, template=1))  # evidence
        mrf = make_mrf(pots, weights=[0.1, 1.0], n=n)
        y_lazy, diag = solve_map_lazy(mrf, TIGHT)
        _, full = solve_map(mrf, TIGHT)
        assert diag.activated_potentials < 0.3 * len(mrf.potentials)
        assert diag.objective == pytest.approx(full.objective, abs=1e-4)

    def test_all_active_degenerate_case(self):
        mrf = make_mrf(
            [hinge([(0, 1.0)], -0.1, exponent=2), hinge([(0, -1.0)], 0.9, exponent=2, template=1)],
            weights=[1.0, 1.0],
        )
        y_lazy, lazy_diag = solve_map_lazy(mrf, TIGHT)
        y_full, full_diag = solve_map(mrf, TIGHT)
        assert lazy_diag.activated_potentials == len(mrf.potentials)
        assert y_lazy[0] == pytest.approx(y_full[0], abs=1e-6)
        assert lazy_diag.iterations >= full_diag.iterations

    def test_violated_constraints_activated(self):
        mrf = make_mrf(
            [hinge([(0, 1.0)], 0.0)],
            [eq([(0, 1.0), (1, 1.0)], -1.0)],
            weights=[0.1],
            n=2,
        )
        y, diag = solve_map_lazy(mrf, TIGHT)
        assert diag.activated_constraints == 1
        assert mrf.check_feasible(y, tol=1e-5)[0]

    def test_linear_terms_solved_when_nothing_is_violated_at_zero(self):
        # max(y - 0.5, 0) holds at the all-zero start; only the linear term
        # -y pulls y up, so the lazy solver must still run a round.
        mrf = make_mrf([hinge([(0, 1.0)], -0.5)], weights=[1.0])
        linear = np.array([-1.0])
        y_lazy, lazy = solve_map_lazy(mrf, TIGHT, extra_linear=linear)
        y_full, full = solve_map(mrf, TIGHT, extra_linear=linear)
        np.testing.assert_allclose(y_lazy, y_full, atol=1e-6)
        assert lazy.objective == pytest.approx(full.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_full_solve_on_mixed_models(self, seed):
        # Rounds compile subsets of every block kind and restart from the
        # last round's answer.
        mrf, linear = mixed_model(np.random.default_rng(seed))
        y_lazy, lazy = solve_map_lazy(mrf, TIGHT, extra_linear=linear)
        _, full = solve_map(mrf, TIGHT, extra_linear=linear)
        assert lazy.objective == pytest.approx(full.objective, abs=1e-6)
        assert mrf.check_feasible(y_lazy, tol=1e-6)[0]

    def test_matches_full_solve_on_random_sparse_models(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            mrf = random_mrf(rng, n_vars=6, n_pots=10, constrained=True)
            _, lazy = solve_map_lazy(mrf, TIGHT)
            _, full = solve_map(mrf, TIGHT)
            assert lazy.objective == pytest.approx(full.objective, abs=1e-4)


class TestProjectFeasible:
    def test_projects_onto_constraints(self):
        mrf = make_mrf(
            [], [eq([(0, 1.0), (1, 1.0)], -1.0), leq([(1, 1.0)], -0.4)], weights=[], n=2
        )
        y = project_feasible(mrf, [0.9, 0.9])
        assert mrf.check_feasible(y, tol=1e-8)[0]

    def test_identity_on_feasible_points(self):
        mrf = make_mrf([], [leq([(0, 1.0), (1, 1.0)], -1.0)], weights=[], n=2)
        np.testing.assert_allclose(project_feasible(mrf, [0.2, 0.3]), [0.2, 0.3])


def test_import_loads_no_scipy():
    # scipy takes longer to import than the rest of the library; only the
    # scalar reference subproblems use it, so they import it on first call.
    code = "import sys, softlogic; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    src = os.path.dirname(os.path.dirname(softlogic.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
