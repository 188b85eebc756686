import os
import subprocess
import sys

import numpy as np
import pytest

import softlogic
from softlogic import logic
from softlogic.ground import ground_program, load_data
from softlogic.infer import (
    SolveOptions,
    WarmStart,
    project_feasible,
    solve_map,
    solve_map_lazy,
)
from softlogic.lang import parse_program
from softlogic.model import (
    HingePotential,
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
        # The opposing-rule program on a 20-user network is feasible, yet at
        # eps 1e-8 its primal residual stops improving for the stall window.
        data_text, _ = generate_network(SynthNetworkSpec(n_users=20, seed=1))
        program = parse_program(
            "0.5 : Opinion(U) -> Liberal(U)\n"
            "0.5 : !Opinion(U) -> Conservative(U)\n"
            "0.9 : Liberal(A) & Edge1(A, B) -> Liberal(B)\n"
            "0.9 : Conservative(A) & Edge1(A, B) -> Conservative(B)\n"
            "Liberal(U) + Conservative(U) = 1 .\n"
        )
        mrf = ground_program(program, load_data(data_text), prune=True)
        y, diag = solve_map(mrf, SolveOptions(eps_abs=1e-8, eps_rel=1e-8))
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
        mrf = make_mrf(
            [hinge([(0, 1.0)], 0.0), hinge([(1, -1.0)], 0.9, template=1)],
            [eq([(0, 1.0), (1, 1.0)], -0.6)],
            weights=[1.0, 2.0],
            n=2,
        )
        y, diag = solver(mrf, SolveOptions(max_iter=3))
        rows = mrf.constraint_rows
        violation = abs(rows.values(y)[0])
        assert violation == pytest.approx(abs(y[0] + y[1] - 0.6), abs=1e-15)
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


def scalar_iterations(state, solvers, iterations):
    """Run ``iterations`` ADMM steps of the scalar reference ops on ``state``."""
    rho = state.rho
    for _ in range(iterations):
        for block, (_, solve) in zip(state.blocks, solvers):
            target = state.consensus[block.indices]
            block.multiplier = block.multiplier + rho * (block.local - target)
            block.local = solve(target - block.multiplier / rho)
        consensus_update(state)
    return state


NO_STOP = dict(eps_abs=1e-15, eps_rel=1e-15)


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

        solvers = scalar_solvers(mrf, linear, rho)
        state = scalar_iterations(cold_state(mrf, solvers, rho), solvers, 2)
        np.testing.assert_allclose(y_engine, state.consensus, rtol=0, atol=1e-12)
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

        solvers = scalar_solvers(mrf, linear, rho)
        state = scalar_iterations(cold_state(mrf, solvers, rho), solvers, 30)
        np.testing.assert_allclose(y_engine, state.consensus, rtol=0, atol=1e-12)
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

        solvers = scalar_solvers(mrf, linear, rho_then)
        state = scalar_iterations(cold_state(mrf, solvers, rho_then), solvers, 10)
        state.rho = rho_now
        scalar_iterations(state, scalar_solvers(mrf, linear, rho_now), 20)
        np.testing.assert_allclose(y_engine, state.consensus, rtol=0, atol=1e-12)


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
