import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from softlogic import logic
from softlogic.logic import (
    BooleanPotentialTable,
    Clause,
    ClauseError,
    boolean_score,
    boolean_table_to_clauses,
    clause_to_linfun,
    clause_value,
    derandomize,
    expected_score,
    lcr_compact_value,
    lcr_inner_lp,
    luk_eval,
    maxsat_bruteforce,
    polish_relaxed_solution,
    rounding_probs,
)


def random_clauses(rng, n_vars, n_clauses, max_len=3):
    clauses = []
    for _ in range(n_clauses):
        k = int(rng.integers(1, max_len + 1))
        variables = rng.choice(n_vars, size=k, replace=False)
        signs = rng.random(k) < 0.5
        pos = tuple(int(v) for v, s in zip(variables, signs) if s)
        neg = tuple(int(v) for v, s in zip(variables, signs) if not s)
        clauses.append(Clause(pos, neg, float(rng.uniform(0.0, 1.0) + 1e-9)))
    return clauses


class TestLukasiewicz:
    def test_and(self):
        assert luk_eval("and", 0.3, 0.9) == pytest.approx(0.2)

    def test_or_matches_boolean(self):
        assert luk_eval("or", 1.0, 0.0) == 1.0
        for a, b in itertools.product((0.0, 1.0), repeat=2):
            assert luk_eval("or", a, b) == float(bool(a) or bool(b))
            assert luk_eval("and", a, b) == float(bool(a) and bool(b))

    def test_neg(self):
        assert luk_eval("neg", 0.25) == 0.75

    def test_arity_checked(self):
        with pytest.raises(ClauseError):
            luk_eval("neg", 0.1, 0.2)
        with pytest.raises(ClauseError):
            luk_eval("and", 0.1)

    def test_domain_checked(self):
        with pytest.raises(ClauseError):
            luk_eval("neg", 1.5)


class TestClauseValue:
    def test_satisfied(self):
        assert clause_value(Clause((1,), (2,)), {1: 1.0, 2: 1.0}) == 1.0

    def test_fully_falsified(self):
        assert clause_value(Clause((1,), (2,)), {1: 0.0, 2: 1.0}) == 0.0

    def test_partial(self):
        assert clause_value(Clause((1, 2), ()), {1: 0.3, 2: 0.4}) == pytest.approx(0.7)

    def test_unknown_variable(self):
        with pytest.raises(ClauseError):
            clause_value(Clause((5,), ()), [0.0, 1.0])

    def test_boolean_agreement_exhaustive(self):
        # Every clause over three variables with length <= 3, every 0/1 point.
        indices = (0, 1, 2)
        for k in (1, 2, 3):
            for variables in itertools.combinations(indices, k):
                for signs in itertools.product((True, False), repeat=k):
                    pos = tuple(v for v, s in zip(variables, signs) if s)
                    neg = tuple(v for v, s in zip(variables, signs) if not s)
                    clause = Clause(pos, neg)
                    for point in itertools.product((0.0, 1.0), repeat=3):
                        relaxed = clause_value(clause, point)
                        assert relaxed == float(clause.satisfied(point))

    def test_matches_lukasiewicz_or_fold_on_grid(self):
        clause = Clause((0, 2), (1,))
        grid = np.arange(0.0, 1.0 + 1e-9, 0.25)
        for point in itertools.product(grid, repeat=3):
            literals = [point[0], point[2], luk_eval("neg", point[1])]
            folded = literals[0]
            for lit in literals[1:]:
                folded = luk_eval("or", folded, lit)
            assert clause_value(clause, point) == pytest.approx(folded)


class TestClauseToLinfun:
    def test_mixed_signs(self):
        lf = clause_to_linfun(Clause((1,), (2,)))
        assert dict(lf.terms) == {1: -1.0, 2: 1.0}
        assert lf.offset == 0.0

    def test_all_positive(self):
        lf = clause_to_linfun(Clause((1, 2, 3), ()))
        assert lf.offset == 1.0
        assert all(c == -1.0 for _, c in lf.terms)

    def test_empty_clause_flagged(self):
        with pytest.warns(UserWarning):
            lf = clause_to_linfun(Clause((), ()))
        assert lf.offset == 1.0 and not lf.terms

    def test_distance_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            clause = random_clauses(rng, 5, 1)[0]
            y = rng.uniform(0, 1, size=5)
            lf = clause_to_linfun(clause)
            assert max(lf.value(y), 0.0) == pytest.approx(1.0 - clause_value(clause, y))


class TestMaxSat:
    def test_two_clause_example(self):
        clauses = [Clause((0, 1), (), 1.0), Clause((), (0,), 1.0)]
        assignment, best = maxsat_bruteforce(clauses, 2)
        assert assignment == (0, 1)
        assert best == 2.0

    def test_single_positive_unit(self):
        assignment, best = maxsat_bruteforce([Clause((0,), (), 5.0)], 1)
        assert assignment == (1,)
        assert best == 5.0

    def test_contradiction_tie_breaks_low(self):
        clauses = [Clause((0,), (), 1.0), Clause((), (0,), 1.0)]
        assignment, best = maxsat_bruteforce(clauses, 1)
        assert best == 1.0
        assert assignment == (0,)

    def test_variable_guard(self):
        with pytest.raises(ClauseError):
            maxsat_bruteforce([], 21)


class TestExpectedScore:
    def test_noisy_or(self):
        assert expected_score([Clause((0, 1), (), 1.0)], [0.5, 0.5]) == pytest.approx(0.75)

    def test_integral_probabilities_reduce_to_boolean(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            clauses = random_clauses(rng, 6, 5)
            bits = tuple(int(b) for b in rng.integers(0, 2, size=6))
            assert expected_score(clauses, bits) == pytest.approx(
                boolean_score(clauses, bits)
            )

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(17)
        clauses = random_clauses(rng, 6, 2)
        probs = rng.uniform(0, 1, size=6)
        samples = 100_000
        draws = rng.random((samples, 6)) < probs
        scores = np.fromiter(
            (boolean_score(clauses, row) for row in draws), dtype=float, count=samples
        )
        sigma = scores.std(ddof=1) / np.sqrt(samples)
        assert abs(scores.mean() - expected_score(clauses, probs)) < 3 * sigma + 1e-12


class TestRounding:
    def test_endpoint_probabilities(self):
        assert rounding_probs([0.0])[0] == pytest.approx(0.25)
        assert rounding_probs([1.0])[0] == pytest.approx(0.75)
        assert rounding_probs([0.5])[0] == pytest.approx(0.5)

    def test_derandomize_unit_clause(self):
        clauses = [Clause((0,), (), 1.0)]
        assignment = derandomize(clauses, [0.75])
        assert assignment == (1,)
        assert boolean_score(clauses, assignment) >= 0.75

    def test_derandomize_tie_prefers_zero(self):
        # Contradictory unit clauses: either value scores 1, so the tie rule decides.
        clauses = [Clause((0,), (), 1.0), Clause((), (0,), 1.0)]
        assert derandomize(clauses, [0.5]) == (0,)

    def test_derandomize_dominates_expectation(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            clauses = random_clauses(rng, 8, 10)
            probs = rng.uniform(0, 1, size=8)
            assignment = derandomize(clauses, probs)
            assert boolean_score(clauses, assignment) >= expected_score(
                clauses, probs
            ) - 1e-9


class TestInnerLp:
    def test_two_literal_example(self):
        value = lcr_inner_lp(Clause((0, 1), (), 1.0), [0.3, 0.4])
        assert value == pytest.approx(0.7, abs=1e-10)
        assert value == pytest.approx(lcr_compact_value(Clause((0, 1), (), 1.0), [0.3, 0.4]))

    def test_fully_satisfiable_returns_weight(self):
        assert lcr_inner_lp(Clause((0, 1), (), 2.5), [1.0, 1.0]) == pytest.approx(2.5)

    def test_zero_weight(self):
        assert lcr_inner_lp(Clause((0,), (1,), 0.0), [0.2, 0.9]) == pytest.approx(0.0)

    def test_compact_form_examples(self):
        assert lcr_compact_value(Clause((0, 1), (), 1.0), [0.3, 0.4]) == pytest.approx(0.7)
        assert lcr_compact_value(Clause((0, 1), (), 1.0), [0.9, 0.8]) == pytest.approx(1.0)

    def test_matches_compact_form_on_random_inputs(self):
        # The inner program of the local relaxation collapses to the
        # truncated linear form, clause by clause.
        rng = np.random.default_rng(12)
        for _ in range(500):
            k = int(rng.integers(1, 5))
            variables = rng.choice(10, size=k, replace=False)
            signs = rng.random(k) < 0.5
            pos = tuple(int(v) for v, s in zip(variables, signs) if s)
            neg = tuple(int(v) for v, s in zip(variables, signs) if not s)
            clause = Clause(pos, neg, float(rng.uniform(0, 2)))
            mu = rng.uniform(0, 1, size=k)
            assert lcr_inner_lp(clause, mu) == pytest.approx(
                lcr_compact_value(clause, mu), abs=1e-8
            )

    def test_length_guard(self):
        with pytest.raises(ClauseError):
            lcr_inner_lp(Clause((0, 1, 2, 3, 4), ()), [0.5] * 5)

    @pytest.mark.parametrize("mu", [[1.5, 0.4], [0.3, -0.1], [float("nan"), 0.5]])
    def test_out_of_range_pseudomarginal_rejected(self, mu):
        with pytest.raises(ClauseError, match="outside"):
            lcr_inner_lp(Clause((0, 1), (), 1.0), mu)


class TestPolish:
    def test_never_decreases_objective(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            clauses = random_clauses(rng, 6, 8)
            y = rng.uniform(0, 1, size=6)
            before = logic.relaxed_total_score(clauses, y)
            after = logic.relaxed_total_score(clauses, polish_relaxed_solution(clauses, y))
            assert after >= before - 1e-12


class TestBooleanTable:
    def test_single_entry_gives_three_clauses(self):
        table = BooleanPotentialTable((0, 1), {(1, 1): 2.0})
        clauses, constant = boolean_table_to_clauses(table)
        assert len(clauses) == 3
        assert all(c.weight == pytest.approx(2.0) for c in clauses)
        for state in itertools.product((0, 1), repeat=2):
            total = boolean_score(clauses, state)
            assert total == pytest.approx(table.score(state) + constant)

    def test_all_zero_table(self):
        table = BooleanPotentialTable((0, 1), {})
        clauses, constant = boolean_table_to_clauses(table)
        assert constant == 0.0
        assert all(c.weight == 0.0 for c in clauses)
        for state in itertools.product((0, 1), repeat=2):
            assert boolean_score(clauses, state) == pytest.approx(constant)

    def test_random_tables_keep_per_state_identity(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            scores = {
                state: float(rng.normal())
                for state in itertools.product((0, 1), repeat=2)
            }
            table = BooleanPotentialTable((0, 1), scores)
            clauses, constant = boolean_table_to_clauses(table)
            assert all(c.weight >= 0.0 for c in clauses)
            for state in itertools.product((0, 1), repeat=2):
                assert boolean_score(clauses, state) == pytest.approx(
                    table.score(state) + constant
                )

    def test_size_guard(self):
        with pytest.raises(ClauseError):
            BooleanPotentialTable((0, 1, 2, 3, 4), {})

    def test_preserves_maximizer(self):
        rng = np.random.default_rng(78)
        for _ in range(20):
            scores = {
                state: float(rng.normal())
                for state in itertools.product((0, 1), repeat=2)
            }
            table = BooleanPotentialTable((0, 1), scores)
            clauses, _ = boolean_table_to_clauses(table)
            states = list(itertools.product((0, 1), repeat=2))
            direct = max(states, key=table.score)
            via = max(states, key=lambda s: boolean_score(clauses, s))
            assert table.score(via) == pytest.approx(table.score(direct))


unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestOperatorProperties:
    @given(unit, unit)
    def test_de_morgan(self, a, b):
        lhs = luk_eval("neg", luk_eval("and", a, b))
        rhs = luk_eval("or", luk_eval("neg", a), luk_eval("neg", b))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(unit, unit)
    def test_results_stay_in_unit_interval(self, a, b):
        for op, args in (("and", (a, b)), ("or", (a, b)), ("neg", (a,))):
            assert 0.0 <= luk_eval(op, *args) <= 1.0

    @given(unit, unit, unit)
    def test_clause_distance_identity(self, a, b, c):
        clause = Clause((0, 2), (1,))
        lf = clause_to_linfun(clause)
        point = (a, b, c)
        assert max(lf.value(point), 0.0) == pytest.approx(
            1.0 - clause_value(clause, point), abs=1e-12
        )


class TestClauseValidation:
    def test_overlapping_literals_rejected(self):
        with pytest.raises(ClauseError):
            Clause((0,), (0,))

    def test_negative_weight_rejected(self):
        with pytest.raises(ClauseError):
            Clause((0,), (), -1.0)
