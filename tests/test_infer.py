import dataclasses
import gc
import os
import subprocess
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import minimize

import softlogic
from softlogic import logic
from softlogic.ground import ground_program, load_data
from softlogic.infer import (
    _BALANCE_CHANGES,
    _BALANCE_EVERY,
    _KEPT,
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
    golden_section,
    grid_minimize,
    hinge,
    leq,
    make_mrf,
    oracle_subproblem,
    random_mrf,
    solve_constraint_subproblem,
    solve_potential_subproblem,
    solve_two_sided_subproblem,
    two_sided_pairs,
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
        # (The seed-1 network's model converges, after 3,910 iterations.)
        data_text, _ = generate_network(SynthNetworkSpec(n_users=20, seed=2))
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

    @pytest.mark.parametrize("field", ["rho", "eps_abs", "eps_rel"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_options_rejected(self, field, bad):
        with pytest.raises(ModelError, match="finite"):
            SolveOptions(**{field: bad})

    @pytest.mark.parametrize("field", ["max_iter", "workers"])
    @pytest.mark.parametrize("bad", [0, -3, 2.5, "2", True])
    def test_counts_must_be_positive_integers(self, field, bad):
        with pytest.raises(ModelError, match=field):
            SolveOptions(**{field: bad})

    @pytest.mark.parametrize(
        "field, bad",
        [("workers", 2), ("lazy", True), ("activation_threshold", 0.5),
         ("activation_threshold", float("nan")), ("activation_threshold", float("inf"))],
    )
    def test_pinned_options_take_one_value(self, field, bad):
        # The iteration is one serial sweep, lazy inference is
        # solve_map_lazy, and its activation is exact.
        with pytest.raises(ModelError, match="SolveOptions.%s must be" % field):
            SolveOptions(**{field: bad})

    def test_pinned_options_at_their_values_are_accepted(self):
        # The keywords the benchmark's workloads pass.
        opts = SolveOptions(rho=1.0, eps_abs=1e-5, eps_rel=1e-3, max_iter=25000, workers=1,
                            lazy=False, activation_threshold=0.0)
        assert opts == SolveOptions()
        mrf = features_model()
        for solver in (solve_map, solve_map_lazy):
            assert solver(mrf, opts)[1].converged

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
    """Each block's positions with its scalar reference subproblem at
    ``rho``: one block per potential, or per two-sided pair of them."""
    table = mrf.table

    def positions(lf):
        return np.array([table.position[i] for i, _ in lf.terms], dtype=int)

    folded = [
        HingePotential(fold_observed(pot.linfun, table), pot.exponent, pot.template_id)
        for pot in mrf.potentials
    ]
    weights = [mrf.weights[pot.template_id] for pot in folded]
    partner = dict(two_sided_pairs(folded, table.position))
    solvers = []
    for k, pot in enumerate(folded):
        if k in partner.values():
            continue
        if k in partner:
            j = partner[k]
            solve = lambda z, p=pot, q=folded[j], w=weights[k], v=weights[j]: (
                solve_two_sided_subproblem(p, q, w, v, z, rho)
            )
        else:
            solve = lambda z, p=pot, w=weights[k]: solve_potential_subproblem(p, w, z, rho)
        solvers.append((positions(pot.linfun), solve))
    for con in mrf.constraints:
        lf = fold_observed(con.linfun, table)
        folded = LinearConstraint(lf, con.relation)
        solvers.append(
            (positions(lf), lambda z, c=folded: solve_constraint_subproblem(c, z, rho))
        )
    for i in np.flatnonzero(linear):
        solvers.append((np.array([i]), lambda z, c=linear[i]: z - c / rho))
    return solvers


def cold_state(mrf, linear, rho):
    consensus = np.full(mrf.n_free, 0.5)
    blocks = [
        AdmmBlock(idx, consensus[idx].copy(), np.zeros(idx.size))
        for idx, _ in scalar_solvers(mrf, linear, rho)
    ]
    return AdmmState(blocks, consensus.copy(), consensus.copy(), rho)


def scalar_iterations(state, mrf, linear, iterations, alpha=1.0, rho_updates=()):
    """Run ``iterations`` ADMM steps of the scalar reference ops on ``state``,
    each block's local copy relaxed by ``alpha`` toward its target. After
    each iteration named in ``rho_updates``, the engine's ``(iteration,
    rho)`` pairs, ``state.rho`` changes as the engine's penalty did."""
    changes = dict(rho_updates)
    solvers = scalar_solvers(mrf, linear, state.rho)
    for it in range(1, iterations + 1):
        rho = state.rho
        for block, (_, solve) in zip(state.blocks, solvers):
            target = state.consensus[block.indices]
            block.multiplier = block.multiplier + rho * (block.local - target)
            block.local = alpha * solve(target - block.multiplier / rho) + (1 - alpha) * target
        consensus_update(state)
        if it in changes:
            state.rho = changes[it]
            solvers = scalar_solvers(mrf, linear, state.rho)
    return state


NO_STOP = dict(eps_abs=1e-15, eps_rel=1e-15)


def compiled_model(mrf, support=np.zeros(0, np.intp)):
    """All of ``mrf``'s rows compiled, with linear terms on ``support``."""
    return _CompiledModel(mrf.n_free, mrf.potential_rows, mrf.constraint_rows, support)


def presolved(mrf, linear=None):
    """The model and raw linear terms that ADMM iterates on after the
    presolve, and the map that fills in the eliminated variables. The
    models here hold one ``(1, 1)`` doubleton summing to 1, which leaves the
    representative's box at [0, 1], the box of the reference consensus."""
    linear = np.zeros(mrf.n_free) if linear is None else linear
    doubletons = compiled_model(mrf, np.flatnonzero(linear)).doubletons
    assert doubletons.rows.size == 1
    assert doubletons.lo.tolist() == [0.0] and doubletons.hi.tolist() == [1.0]
    cons = mrf.constraint_rows
    kept = np.ones(cons.size, bool)
    kept[doubletons.rows] = False
    pots = doubletons.substitute(mrf.potential_rows)
    cons = doubletons.substitute(cons.take(np.flatnonzero(kept)))
    reduced = HlMrf(
        mrf.table,
        pots.objects(mrf.table, mrf.origins),
        cons.objects(mrf.table),
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
        state = cold_state(reduced, reduced_linear, rho)
        scalar_iterations(state, reduced, reduced_linear, 2)
        np.testing.assert_allclose(y_engine, expand(state.consensus), rtol=0, atol=1e-12)
        check = check_convergence(state, opts.eps_abs, opts.eps_rel)
        assert diag.primal_residual == pytest.approx(check.primal_residual, rel=0, abs=1e-12)
        assert diag.dual_residual == pytest.approx(check.dual_residual, rel=0, abs=1e-12)

    @pytest.mark.parametrize("reused", [False, True])
    @pytest.mark.parametrize("rho", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("seed", range(8))
    def test_thirty_iterations_match_scalar_ops(self, seed, rho, reused):
        # Long enough for every kind of block to leave its start. Where the
        # consensus stops at a vertex, the dual residual reads 0, the
        # penalty grows tenfold at each look, and the solve may stop before
        # 30 even at NO_STOP.
        mrf, linear = mixed_model(np.random.default_rng(seed))
        kept = keep_a_reweighted_compile(mrf, linear) if reused else None
        opts = SolveOptions(rho=rho, max_iter=30, **NO_STOP)
        y_engine, diag = solve_map(mrf, opts, extra_linear=linear)
        assert diag.iterations == 30 or (diag.converged and diag.iterations > 20)
        assert not reused or vars(mrf.potential_rows)[_KEPT] is kept

        reduced, reduced_linear, expand = presolved(mrf, linear)
        state = scalar_iterations(
            cold_state(reduced, reduced_linear, rho), reduced, reduced_linear, diag.iterations,
            rho_updates=diag.rho_updates,
        )
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
        state = cold_state(reduced, reduced_linear, rho_then)
        scalar_iterations(state, reduced, reduced_linear, 10)
        state.rho = rho_now
        scalar_iterations(state, reduced, reduced_linear, 20, rho_updates=diag.rho_updates)
        np.testing.assert_allclose(y_engine, expand(state.consensus), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("with_linear", [False, True])
    @pytest.mark.parametrize("reused", [False, True])
    @pytest.mark.parametrize("rho", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_thirty_relaxed_iterations_match_scalar_ops(self, seed, rho, reused, with_linear):
        # Squared hinges only and an EQ constraint, with or without linear
        # terms: every block is relaxed.
        rng = np.random.default_rng(seed)
        mrf = squared_model(rng)
        linear = rng.uniform(-1.0, 1.0, size=mrf.n_free) * with_linear
        kept = keep_a_reweighted_compile(mrf, linear) if reused else None
        opts = SolveOptions(rho=rho, max_iter=30, **NO_STOP)
        y_engine, diag = solve_map(mrf, opts, extra_linear=linear)
        assert diag.iterations == 30
        assert not reused or vars(mrf.potential_rows)[_KEPT] is kept

        reduced, reduced_linear, expand = presolved(mrf, linear)
        state = scalar_iterations(
            cold_state(reduced, reduced_linear, rho), reduced, reduced_linear, 30, _RELAXATION,
            diag.rho_updates,
        )
        np.testing.assert_allclose(y_engine, expand(state.consensus), rtol=0, atol=1e-12)
        check = check_convergence(state, opts.eps_abs, opts.eps_rel)
        assert diag.primal_residual == pytest.approx(check.primal_residual, rel=0, abs=1e-12)
        assert diag.dual_residual == pytest.approx(check.dual_residual, rel=0, abs=1e-12)
        plain = scalar_iterations(
            cold_state(reduced, reduced_linear, rho), reduced, reduced_linear, 30,
            rho_updates=diag.rho_updates,
        )
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
        state = cold_state(reduced, none, rho_then)
        scalar_iterations(state, reduced, none, 10, _RELAXATION)
        state.rho = rho_now
        scalar_iterations(state, reduced, none, 20, _RELAXATION, diag.rho_updates)
        np.testing.assert_allclose(y_engine, expand(state.consensus), rtol=0, atol=1e-12)
        check = check_convergence(state, second.eps_abs, second.eps_rel)
        assert diag.primal_residual == pytest.approx(check.primal_residual, rel=0, abs=1e-12)
        assert diag.dual_residual == pytest.approx(check.dual_residual, rel=0, abs=1e-12)


def keep_a_reweighted_compile(mrf, linear):
    """Solve a copy of ``mrf`` at other weights and penalty, which leaves
    its compiled model in the rows the copy shares with ``mrf``, for the
    next solve of ``mrf`` to reuse. Returns that compiled model."""
    copy = mrf.with_weights(mrf.weights[::-1] + 0.3)
    solve_map(copy, SolveOptions(rho=2.0, max_iter=7), extra_linear=linear)
    return vars(mrf.potential_rows)[_KEPT]


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
        # Relaxation is fixed when compiling, so the rows are built again:
        # they do not share the compiled model that ``mrf``'s solves keep.
        monkeypatch.setattr(softlogic.infer, "_RELAXATION", 1.0)
        y, diag = solve_map(rebuilt(mrf), opts, **kwargs)
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
        pots, cons, support = mrf.potential_rows, mrf.constraint_rows, np.zeros(0, np.intp)
        plain = _CompiledModel(mrf.n_free, pots.take([]), cons, support)
        relaxed = _CompiledModel(mrf.n_free, pots.take([0]), cons, support)
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
        d = compiled_model(mrf).doubletons
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
        pots = compiled_model(mrf).doubletons.substitute(mrf.potential_rows)
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
    def test_warm_solves_across_new_weights(self, monkeypatch, seed):
        rng = np.random.default_rng(200 + seed)
        mrf, linear, eliminated = doubleton_model(rng, 2, chain=True)
        built = record_compiles(monkeypatch)
        warm = WarmStart()
        solve_map(mrf, TIGHT, extra_linear=linear, warm=warm)
        for _ in range(3):
            moved = mrf.with_weights(mrf.weights * rng.uniform(0.5, 1.5, size=mrf.weights.size))
            y_warm, diag = solve_map(moved, TIGHT, extra_linear=linear, warm=warm)
            _, best = smooth_optimum(moved, linear)
            assert len(built) == 1 and warm.y is y_warm
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


def opposing_network(users, seed, squared=True):
    """The opposing-rule program on a ``synth`` network: priors from the
    opinion and propagation along one edge type pull each user both ways,
    so the optimum is interior."""
    data_text, _ = generate_network(SynthNetworkSpec(n_users=users, seed=seed))
    program = (
        "0.5 : Opinion(U) -> Liberal(U) ^2\n"
        "0.5 : !Opinion(U) -> Conservative(U) ^2\n"
        "0.9 : Liberal(A) & Edge1(A, B) -> Liberal(B) ^2\n"
        "0.9 : Conservative(A) & Edge1(A, B) -> Conservative(B) ^2\n"
        "Liberal(U) + Conservative(U) = 1 .\n"
    )
    program = program if squared else program.replace(" ^2", "")
    return ground_program(parse_program(program), load_data(data_text), prune=True)


def engine_step(mrf, z, rho):
    """The point one unrelaxed engine update moves the model's only block
    to from the target ``z``, zero duals, and the compiled model."""
    compiled = compiled_model(mrf)
    compiled.set_parameters(mrf.weights, np.zeros(mrf.n_free), rho)
    (group,) = compiled.groups
    group.alpha = 1.0
    local, u, target, scratch = compiled.buffers
    target[:], u[:], scratch[:] = z[compiled.idx], 0.0, 0.0
    group.update()
    x = z.copy()
    x[compiled.idx] = local
    return x, compiled


def random_two_sided_pair(rng, touching):
    """Two opposite hinges over 1-3 variables, ``a2 = mu * a1`` exactly for
    a dyadic ``mu`` in [-3, -0.25], with mixed exponents, and disjoint
    active regions: ``b2 - mu * b1`` is 0 if ``touching``, else below 0."""
    k = int(rng.integers(1, 4))
    a1 = rng.integers(1, 9, size=k) * rng.choice([-1.0, 1.0], size=k) / 4.0
    mu = float(rng.choice([-3.0, -2.0, -1.5, -1.0, -0.75, -0.5, -0.25]))
    b1 = float(rng.uniform(-1.0, 1.0))
    b2 = mu * b1 - (0.0 if touching else float(rng.uniform(0.0, 1.0)))
    exponents = rng.integers(1, 3, size=2).tolist()
    potentials = [
        hinge(list(enumerate(a1.tolist())), b1, exponent=exponents[0], template=0),
        hinge(list(enumerate((mu * a1).tolist())), b2, exponent=exponents[1], template=1),
    ]
    return make_mrf(potentials, weights=rng.uniform(0.1, 3.0, size=2), n=k)


class TestTwoSidedBlocks:
    @pytest.mark.parametrize("touching", [False, True])
    @pytest.mark.parametrize("seed", range(25))
    def test_closed_form_matches_brute_force(self, seed, touching):
        # Along a1, a grid then golden section in the best cell; the
        # engine's step is never worse, and lies next to it.
        rng = np.random.default_rng(seed)
        mrf = random_two_sided_pair(rng, touching)
        pots, w = mrf.potential_rows, mrf.weights
        rho = float(rng.uniform(0.3, 3.0))
        for z in rng.uniform(-1.0, 2.0, size=(8, mrf.n_free)):
            x, compiled = engine_step(mrf, z, rho)
            assert compiled.two_sided == 1 and compiled.idx.size == mrf.n_free

            def value(x):
                h = np.maximum(pots.values(x), 0.0) ** pots.exponent
                return float(w @ h) + 0.5 * rho * float((x - z) @ (x - z))

            # The step stays within each hinge's projection onto its zero set.
            a, mu = pots.row(0)[1], pots.row(1)[1][0] / pots.row(0)[1][0]
            reach = np.abs(pots.values(z)) @ [1.0, -1.0 / mu] / float(a @ a) + 1.0
            grid = np.linspace(-reach, reach, 401)
            k = int(np.argmin([value(z - s * a) for s in grid]))
            s, _ = golden_section(lambda s: value(z - s * a), grid[max(k - 1, 0)], grid[k + 1])
            assert value(x) <= value(z - s * a) + 1e-12
            np.testing.assert_allclose(x, z - s * a, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("exponent", [1, 2])
    def test_overlapping_pair_stays_two_blocks(self, exponent):
        # Both hinges are active where y0 + y1 / 2 is in (0.3, 0.6):
        # b2 - mu * b1 = 0.3.
        mrf = make_mrf(
            [hinge([(0, 1.0), (1, 0.5)], -0.3, exponent=exponent),
             hinge([(0, -1.0), (1, -0.5)], 0.6, exponent=exponent, template=1),
             hinge([(1, 1.0)], -0.2, exponent=exponent, template=2)],
            weights=[1.0, 2.0, 0.5], n=2,
        )
        linear = np.array([0.3, -0.4])
        compiled = compiled_model(mrf)
        assert compiled.two_sided == 0 and compiled.idx.size == 5
        y, diag = solve_map(mrf, TIGHT, extra_linear=linear)
        best = smooth_optimum(mrf, linear)[1] if exponent == 2 else lp_optimum(mrf, linear)
        assert diag.two_sided_blocks == 0
        assert diag.objective == pytest.approx(best, abs=1e-6)

    def test_which_rows_form_a_block(self):
        # Over {y0, y1} the j-th row with a positive leading coefficient
        # meets the j-th with a negative one: the first two form a block,
        # the second two overlap (b2 - mu * b1 = 0.1). So do the two rows
        # over {y1}, and the two over {y0, y2} are not multiples.
        rows = [
            hinge([(0, 1.0), (1, -1.0)], 0.0),  # heads the block
            hinge([(0, 1.0), (1, -1.0)], -0.2),
            hinge([(0, -2.0), (1, 2.0)], -0.1),  # its partner, mu = -2
            hinge([(0, -1.0), (1, 1.0)], 0.3),
            hinge([(1, 1.0)], -0.5),
            hinge([(1, -1.0)], 0.6),
            hinge([(0, 1.0), (2, -1.0)], 0.0),
            hinge([(0, -1.0), (2, 2.0)], 0.0),
        ]
        mrf = make_mrf(rows, weights=[1.0], n=3)
        compiled = compiled_model(mrf)
        assert two_sided_pairs(mrf.potentials, mrf.table.position) == [(0, 2)]
        assert compiled.two_sided == 1 and compiled.idx.size == 12
        (group,) = [g for g in compiled.groups if g.mu is not None]
        assert group.mu.tolist() == [-2.0] and group.partner_rows.tolist() == [2]
        _, diag = solve_map(mrf, TIGHT)
        assert diag.objective == pytest.approx(lp_optimum(mrf, np.zeros(3)), abs=1e-6)

    def test_diagnostics_count_the_blocks_of_a_mirrored_program(self):
        # With Conservative = 1 - Liberal substituted, each user's two
        # priors and each edge's two propagation rules are a two-sided
        # block; the last rule's rows, 2 Liberal(A) - 1, find no partner.
        data_text = (
            'User = {"a", "b", "c"}\nOpinion(User) (closed)\nEdge(User, User) (closed)\n'
            "Liberal(User)\nConservative(User)\n"
            'Opinion("a") = 0.2\nOpinion("b") = 0.9\nOpinion("c") = 0.6\n'
            'Edge("a", "b") = 1\nEdge("b", "c") = 1\n'
        )
        program = parse_program(
            "0.5 : Opinion(U) -> Liberal(U) ^2\n"
            "0.5 : !Opinion(U) -> Conservative(U) ^2\n"
            "0.9 : Liberal(A) & Edge(A, B) -> Liberal(B) ^2\n"
            "0.9 : Conservative(A) & Edge(A, B) -> Conservative(B) ^2\n"
            "0.3 : Liberal(A) & Edge(A, B) -> Conservative(A) ^2\n"
            "Liberal(U) + Conservative(U) = 1 .\n"
        )
        mrf = ground_program(program, load_data(data_text), prune=True)
        assert len(mrf.potentials) == 12
        y, diag = solve_map(mrf, TIGHT)
        assert diag.converged and diag.two_sided_blocks == 5
        assert diag.objective == pytest.approx(smooth_optimum(mrf)[1], abs=1e-9)
        _, lazy = solve_map_lazy(mrf, TIGHT)
        assert lazy.two_sided_blocks <= 5
        assert lazy.objective == pytest.approx(diag.objective, abs=1e-7)


def assert_balanced(diag, opts):
    """``diag`` records at most the capped number of penalty changes, at
    looks ``_BALANCE_EVERY`` apart, and ends at the last one."""
    iterations = [it for it, _ in diag.rho_updates]
    assert len(iterations) <= _BALANCE_CHANGES
    assert iterations == sorted(set(iterations))
    assert all(it % _BALANCE_EVERY == 0 and it < diag.iterations for it in iterations)
    assert diag.rho == (diag.rho_updates[-1][1] if diag.rho_updates else opts.rho)


class TestPenaltyBalancing:
    @pytest.mark.parametrize("seed", [1, 2, 4, 5, 6, 7])
    def test_balanced_squared_solve_reaches_the_smooth_optimum(self, seed):
        rng = np.random.default_rng(seed)
        mrf = squared_model(rng)
        fired = []
        for linear in (None, rng.uniform(-1.0, 1.0, size=mrf.n_free)):
            y, diag = solve_map(mrf, TIGHT, extra_linear=linear)
            y_star, best = smooth_optimum(mrf, linear)
            assert diag.converged
            assert diag.objective == pytest.approx(best, abs=5e-9)
            np.testing.assert_allclose(y, y_star, rtol=0, atol=1e-7)
            assert_balanced(diag, TIGHT)
            fired.append(bool(diag.rho_updates))
        assert fired[0]  # the band fired without linear terms

    @pytest.mark.parametrize("rho", [1e-3, 1e3])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_far_starting_penalties_converge(self, seed, rho):
        # At a fixed penalty these solves take over 20,000 iterations from
        # 1e-3 and do not finish 25,000 from 1e3; balancing moves the
        # penalty tenfold per look toward the residuals' balance.
        mrf = opposing_network(30, seed)
        _, best = smooth_optimum(mrf)
        opts = SolveOptions(rho=rho, eps_abs=1e-8, eps_rel=1e-8, max_iter=1000)
        y, diag = solve_map(mrf, opts)
        assert diag.converged and diag.max_violation <= 1e-12
        assert diag.objective == pytest.approx(best, abs=1e-9)
        assert diag.rho_updates
        assert_balanced(diag, opts)
        assert diag.rho_updates[0] == (_BALANCE_EVERY, rho * (10.0 if rho < 1 else 0.1))

    def test_changes_stop_at_the_cap(self):
        # Linear hinges at tight tolerance: the residuals swap places after
        # each change, and the penalty stays fixed after the last one.
        mrf = opposing_network(30, 1, squared=False)
        opts = SolveOptions(eps_abs=1e-8, eps_rel=1e-8)
        _, diag = solve_map(mrf, opts)
        assert diag.converged
        assert len(diag.rho_updates) == _BALANCE_CHANGES
        assert diag.iterations > diag.rho_updates[-1][0] + 10 * _BALANCE_EVERY
        assert_balanced(diag, opts)

    @pytest.mark.parametrize(
        "kind, seed", [("squared", s) for s in (1, 2, 4, 6)] + [("mixed", s) for s in (1, 2, 4, 9)]
    )
    def test_warm_start_across_new_weights_continues_scalar_ops(self, kind, seed):
        # The second solve restarts at opts.rho with the multipliers the
        # first left, then changes the penalty mid-solve (on these seeds);
        # the reference replays both solves' changes.
        rng = np.random.default_rng(seed)
        if kind == "squared":
            mrf, linear, alpha = squared_model(rng), None, _RELAXATION
        else:
            (mrf, linear), alpha = mixed_model(rng), 1.0
        moved = mrf.with_weights(mrf.weights * rng.uniform(0.3, 3.0, size=mrf.weights.size))
        warm = WarmStart()
        opts = SolveOptions(max_iter=40, **NO_STOP)
        _, first = solve_map(mrf, opts, extra_linear=linear, warm=warm)
        y_engine, second = solve_map(moved, opts, extra_linear=linear, warm=warm)
        assert second.rho_updates

        reduced, reduced_linear, expand = presolved(mrf, linear)
        state = cold_state(reduced, reduced_linear, opts.rho)
        scalar_iterations(
            state, reduced, reduced_linear, first.iterations, alpha, first.rho_updates
        )
        state.rho = opts.rho
        scalar_iterations(
            state, presolved(moved, linear)[0], reduced_linear, second.iterations, alpha,
            second.rho_updates,
        )
        np.testing.assert_allclose(y_engine, expand(state.consensus), rtol=0, atol=1e-12)
        check = check_convergence(state, opts.eps_abs, opts.eps_rel)
        assert second.primal_residual == pytest.approx(check.primal_residual, rel=0, abs=1e-12)
        assert second.dual_residual == pytest.approx(check.dual_residual, rel=0, abs=1e-12)

    def test_lazy_solves_report_the_last_round(self, monkeypatch):
        rounds = []

        def recording(*args):
            y, diag = run_admm(*args)
            rounds.append(diag)
            return y, diag

        run_admm = softlogic.infer._run_admm
        monkeypatch.setattr(softlogic.infer, "_run_admm", recording)
        opts = SolveOptions(rho=1e-3)
        _, diag = solve_map_lazy(opposing_network(30, 1), opts)
        assert len(rounds) > 1 and any(r.rho_updates for r in rounds)
        assert diag.rho_updates == rounds[-1].rho_updates
        assert_balanced(diag, opts)

    def test_solves_with_nothing_to_iterate_keep_the_starting_penalty(self):
        mrf = make_mrf([hinge([(0, 1.0)], -0.5)], weights=[1.0])
        for solver in (solve_map, solve_map_lazy):
            _, diag = solver(mrf, SolveOptions(rho=2.5))
            assert diag.rho == 2.5 and diag.rho_updates == []


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
        # The stored state already passes the residual tests at the
        # penalty the last solve ended at, so one more iteration there does;
        # it moves y by at most the dual tolerance (up to 1.3e-9 on these
        # models at TIGHT). Restarting at another penalty moves the next
        # local copies by the multipliers' remaining error over that
        # penalty: from 9 back to 1 it took up to 5 iterations.
        mrf = squared_model(np.random.default_rng(seed))
        warm = WarmStart()
        y_cold, cold = solve_map(mrf, TIGHT, warm=warm)
        again = SolveOptions(rho=cold.rho, eps_abs=TIGHT.eps_abs, eps_rel=TIGHT.eps_rel)
        y_warm, diag = solve_map(mrf, again, warm=warm)
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
        _, first = solve_map(mrf, TIGHT, warm=warm)
        with pytest.raises(ModelError, match="structure"):
            solve_map(squared_model(np.random.default_rng(1)), TIGHT, warm=warm)
        linear = np.zeros(mrf.n_free)
        linear[0] = 1.0
        with pytest.raises(ModelError, match="structure"):
            solve_map(mrf, TIGHT, extra_linear=linear, warm=warm)
        with pytest.raises(ModelError, match="initial"):
            solve_map(mrf, TIGHT, initial=np.full(mrf.n_free, 0.5), warm=warm)
        # A rejected call leaves the stored state in place: it still passes
        # the residual tests at the penalty it was reached at.
        again = SolveOptions(rho=first.rho, eps_abs=TIGHT.eps_abs, eps_rel=TIGHT.eps_rel)
        _, diag = solve_map(mrf, again, warm=warm)
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

    def test_new_weights_keep_the_compiled_structure(self, monkeypatch):
        rng = np.random.default_rng(5)
        mrf = squared_model(rng)
        built = record_compiles(monkeypatch)
        warm = WarmStart()
        solve_map(mrf, TIGHT, warm=warm)
        moved = mrf.with_weights(mrf.weights * rng.uniform(0.5, 1.5, size=mrf.weights.size))
        _, diag = solve_map(moved, SolveOptions(rho=2.0, eps_abs=1e-10, eps_rel=1e-10), warm=warm)
        assert len(built) == 1
        # The warm start holds the state, not the compiled model.
        assert warm.rows == (mrf.potential_rows, mrf.constraint_rows)
        assert warm.state.shape == (2, built[0]().idx.size) and warm.rho == diag.rho
        assert not any(isinstance(v, _CompiledModel) for v in vars(warm).values())


def record_compiles(monkeypatch):
    """A list that gets a weak reference to each `_CompiledModel` built from now on."""
    built = []

    class Recorded(_CompiledModel):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(softlogic.infer, "_CompiledModel", Recorded)
    return built


def rebuilt(mrf):
    """``mrf`` with its rows built again, so it shares no compiled model."""
    return HlMrf.from_json(mrf.to_json())


class TestRepeatedSolves:
    def test_a_repeated_solve_restarts_the_compiled_model(self, monkeypatch):
        mrf = squared_model(np.random.default_rng(4))
        fresh = [solve_map(rebuilt(mrf), TIGHT) for _ in range(2)]
        built = record_compiles(monkeypatch)
        answers = [solve_map(mrf, TIGHT) for _ in range(2)]
        assert len(built) == 1
        for (y, diag), (y_fresh, diag_fresh) in zip(answers, fresh):
            np.testing.assert_array_equal(y, y_fresh)
            assert diag.iterations == diag_fresh.iterations
            assert diag.rho_updates == diag_fresh.rho_updates
        assert answers[0][0] is not answers[1][0]

    @pytest.mark.parametrize("seed", range(3))
    def test_start_weights_and_linear_terms_may_change(self, seed):
        rng = np.random.default_rng(seed)
        mrf, linear = mixed_model(rng)
        start = rng.uniform(size=mrf.n_free)
        other = np.where(rng.uniform(size=linear.size) < 0.5, 0.0, -linear)  # another support
        for kwargs in ({}, {"extra_linear": linear}, {"extra_linear": -linear, "initial": start},
                       {"extra_linear": other}, {"initial": start}):
            y, diag = solve_map(mrf, TIGHT, **kwargs)
            y_fresh, fresh = solve_map(rebuilt(mrf), TIGHT, **kwargs)
            np.testing.assert_array_equal(y, y_fresh)
            assert diag.iterations == fresh.iterations
        mrf.weights = mrf.weights * 2.0
        y, _ = solve_map(mrf, TIGHT)
        np.testing.assert_array_equal(y, solve_map(rebuilt(mrf), TIGHT)[0])

    def test_threads_solving_one_model_share_no_buffers(self):
        # More threads than cores, switching often: a compiled model taken
        # by two solves at once would mix their iterates.
        mrf = squared_model(np.random.default_rng(2))
        y_ref, ref = solve_map(mrf.with_weights(mrf.weights), TIGHT)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(solve_map, mrf, TIGHT) for _ in range(48)]
                answers = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for y, diag in answers:
            np.testing.assert_array_equal(y, y_ref)
            assert diag.iterations == ref.iterations

    def test_with_weights_copies_share_the_kept_model(self, monkeypatch):
        mrf = squared_model(np.random.default_rng(1))
        built = record_compiles(monkeypatch)
        solve_map(mrf, TIGHT)
        heavier = mrf.with_weights(mrf.weights * 2.0)
        y, diag = solve_map(heavier, TIGHT)
        assert len(built) == 1
        y_fresh, fresh = solve_map(rebuilt(heavier), TIGHT)
        np.testing.assert_array_equal(y, y_fresh)
        assert diag.iterations == fresh.iterations

    def test_the_kept_model_goes_with_its_model(self, monkeypatch):
        # With the cycle collector off, reference counting alone must free
        # the kept model once no model holds its rows, as a model built and
        # dropped for every solve needs.
        built = record_compiles(monkeypatch)
        gc.disable()
        try:
            mrf = squared_model(np.random.default_rng(1))
            solve_map(mrf, TIGHT)
            copy = mrf.with_weights(mrf.weights)
            del mrf
            assert built[0]() is not None
            solve_map(copy, TIGHT, warm=WarmStart())
            del copy
            assert len(built) == 1 and built[0]() is None
        finally:
            gc.enable()


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

    @pytest.mark.parametrize("squared", [False, True])
    def test_each_round_solves_a_model_of_its_rows(self, monkeypatch, squared):
        # A round's answer and iterations are, bit for bit, those of
        # `solve_map` on a model of the rows active so far, started from the
        # last round's answer.
        mrf = opposing_network(30, 1, squared)
        rounds = []

        def recording(*args):
            y, diag = run_admm(*args)
            rounds.append((y.copy(), diag.iterations))
            return y, diag

        run_admm = softlogic.infer._run_admm
        monkeypatch.setattr(softlogic.infer, "_run_admm", recording)
        y_lazy, _ = solve_map_lazy(mrf, TIGHT)
        monkeypatch.undo()
        assert len(rounds) > 1
        pots, cons = mrf.potential_rows, mrf.constraint_rows
        active_pots, active_cons = np.zeros(pots.size, bool), np.zeros(cons.size, bool)
        y = np.zeros(mrf.n_free)
        for y_round, iterations in rounds:
            active_pots |= pots.hinges(pots.values(y)) > 0.0
            active_cons |= cons.violations(cons.values(y)) > 0.0
            p, c = np.flatnonzero(active_pots), np.flatnonzero(active_cons)
            counts = np.bincount(pots.template_id[p], minlength=len(mrf.templates))
            templates = [dataclasses.replace(t, groundings=int(k))
                         for t, k in zip(mrf.templates, counts)]
            active = HlMrf.from_rows(mrf.table, pots.take(p), cons.take(c), templates,
                                     mrf.weights, [mrf.origins[r] for r in p])
            y, diag = solve_map(active, TIGHT, initial=y)
            assert diag.iterations == iterations
            np.testing.assert_array_equal(y, y_round)
        np.testing.assert_array_equal(y, y_lazy)

    def test_matches_full_solve_on_random_sparse_models(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            mrf = random_mrf(rng, n_vars=6, n_pots=10, constrained=True)
            _, lazy = solve_map_lazy(mrf, TIGHT)
            _, full = solve_map(mrf, TIGHT)
            assert lazy.objective == pytest.approx(full.objective, abs=1e-4)


@pytest.mark.parametrize("name, value", [
    ("extra_linear", [0.5, np.nan]),
    ("extra_linear", [-np.inf, 0.5]),
    ("initial", [np.nan, 0.5]),
    ("initial", [0.5, np.inf]),
    ("initial", [0.5]),
    ("initial", [0.5, 0.5, 0.5]),
])
def test_bad_linear_terms_and_starts_rejected(name, value):
    mrf = make_mrf([hinge([(0, 1.0), (1, -1.0)], 0.0)], weights=[1.0], n=2)
    with pytest.raises(ModelError, match=name):
        solve_map(mrf, TIGHT, **{name: value})
    if name == "extra_linear":
        with pytest.raises(ModelError, match=name):
            solve_map_lazy(mrf, TIGHT, extra_linear=value)


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

    @pytest.mark.parametrize(
        "y, match",
        [([0.2, 0.3, 0.1, 0.1, 0.1], "shape"), ([0.2], "shape"),
         ([float("nan"), 0.3], "finite"), ([0.2, float("inf")], "finite")],
    )
    def test_bad_assignments_rejected(self, y, match):
        mrf = make_mrf([], [leq([(0, 1.0), (1, 1.0)], -1.0)], weights=[], n=2)
        with pytest.raises(ModelError, match=match):
            project_feasible(mrf, y)

    @pytest.mark.parametrize(
        "name, value",
        [("tol", float("nan")), ("tol", float("inf")), ("tol", -1e-9),
         ("max_rounds", 0), ("max_rounds", 2.5), ("max_rounds", True)],
    )
    def test_bad_settings_rejected(self, name, value):
        mrf = make_mrf([], [leq([(0, 1.0), (1, 1.0)], -1.0)], weights=[], n=2)
        with pytest.raises(ModelError, match=name):
            project_feasible(mrf, [0.9, 0.9], **{name: value})


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


def features_model():
    """Mixed hinges, a doubleton the presolve removes (y1 + y2 = 1), and a
    free variable, y3, in no row at all."""
    return make_mrf(
        [hinge([(0, 1.0)], -0.2, exponent=2), hinge([(0, -1.0), (1, 1.0)], 0.1, template=1),
         hinge([(1, -1.0)], 0.7, exponent=2, template=2), hinge([(2, 1.0)], -0.4, template=2)],
        [eq([(1, 1.0), (2, 1.0)], -1.0)],
        weights=[1.5, 0.7, 2.0],
        n=4,
    )


class TestAnswerReport:
    @pytest.mark.parametrize("with_linear", [False, True])
    @pytest.mark.parametrize("how", ["cold", "warm", "lazy"])
    def test_features_and_energy_are_read_at_the_answer(self, how, with_linear):
        mrf = features_model()
        linear = np.array([0.3, -0.5, 0.0, 0.2]) if with_linear else None
        if how == "lazy":
            y, diag = solve_map_lazy(mrf, TIGHT, extra_linear=linear)
        else:
            warm = WarmStart() if how == "warm" else None
            if warm is not None:  # a first solve at other weights fills it
                solve_map(mrf.with_weights([0.5, 1.0, 1.0]), TIGHT, extra_linear=linear, warm=warm)
            y, diag = solve_map(mrf, TIGHT, extra_linear=linear, warm=warm)
        assert np.array_equal(diag.features, mrf.template_features(y))
        assert diag.energy == pytest.approx(mrf.energy(y), rel=1e-12, abs=0)
        extra = 0.0 if linear is None else float(linear @ y)
        assert diag.objective == pytest.approx(mrf.energy(y) + extra, rel=1e-12, abs=0)

    def test_variable_in_no_block_keeps_its_start(self):
        mrf = features_model()
        start = np.array([0.9, 0.1, 0.8, 0.37])
        warm = WarmStart()
        y, diag = solve_map(mrf, TIGHT, initial=start, warm=warm)
        assert diag.converged and y[3] == 0.37
        assert y[1] + y[2] == pytest.approx(1.0, abs=1e-12)
        y, _ = solve_map(mrf.with_weights([1.0, 1.0, 1.0]), TIGHT, warm=warm)
        assert y[3] == 0.37

    def test_trace_sees_the_current_answer(self):
        # The trace's objective is the model's at the iterate, with the
        # substituted y2 filled in: the last one is the answer's.
        mrf = features_model()
        linear = np.array([0.3, -0.5, 0.0, 0.2])
        records = []
        opts = SolveOptions(eps_abs=1e-9, eps_rel=1e-9, trace=lambda *r: records.append(r))
        y, diag = solve_map(mrf, opts, extra_linear=linear)
        assert len(records) == diag.iterations
        assert records[-1][3] == pytest.approx(diag.objective, rel=1e-12, abs=0)
        assert records[0][3] != pytest.approx(diag.objective, rel=1e-6)

    def test_stall_message_sees_the_current_answer(self):
        # y0 = 0.3 and y0 = 0.7 cannot both hold: ADMM settles at 0.5, a
        # violation of 0.2, not the 0.7 of the start y0 = 0. The doubleton
        # leaves y2 out of the blocks.
        mrf = make_mrf(
            [hinge([(1, 1.0)], -0.2, exponent=2)],
            [eq([(0, 1.0)], -0.3), eq([(0, 1.0)], -0.7), eq([(1, 1.0), (2, 1.0)], -1.0)],
            weights=[1.0],
            n=3,
        )
        y, diag = solve_map(mrf, SolveOptions(max_iter=4000), initial=[0.0, 0.5, 0.5])
        assert diag.infeasible and diag.eliminated_constraints == 1
        assert y[0] == pytest.approx(0.5, abs=1e-6)
        assert "violation %.3g exceeds" % diag.max_violation in diag.message

