import itertools
import re

import numpy as np
import pytest

import softlogic.infer
import softlogic.learn
from softlogic.ground import ground_program, load_data
from softlogic.infer import solve_map
from softlogic.lang import parse_program
from softlogic.learn import (
    CutRecord,
    CuttingPlaneSet,
    TrainingInstance,
    UnsupportedStructureError,
    lme_separation_oracle,
    lme_train,
    mle_gradient,
    mple_log_and_gradient,
    perceptron_train,
    solve_margin_qp,
)
from softlogic.model import ModelError
from softlogic.synth import SynthNetworkSpec, generate_network

from helpers import TIGHT, eq, hinge, leq, make_mrf, reference_mple


class TestTrainingInstance:
    def test_rejects_out_of_range_truth(self):
        mrf = make_mrf([hinge([(0, 1.0)], 0.0)], weights=[1.0])
        with pytest.raises(ModelError):
            TrainingInstance(mrf, np.array([1.2]))

    def test_rejects_infeasible_truth(self):
        mrf = make_mrf([], [eq([(0, 1.0), (1, 1.0)], -1.0)], weights=[], n=2)
        with pytest.raises(ModelError):
            TrainingInstance(mrf, np.array([0.9, 0.9]))

    def test_rejects_non_finite_truth(self):
        mrf = make_mrf([], [eq([(0, 1.0), (1, 1.0)], -1.0)], weights=[], n=2)
        with pytest.raises(ModelError, match="finite"):
            TrainingInstance(mrf, np.array([np.nan, np.nan]))


class TestMleGradient:
    def test_zero_when_map_equals_truth(self):
        mrf = make_mrf(
            [
                hinge([(0, 1.0)], 0.0, exponent=2),
                hinge([(0, -1.0)], 1.0, exponent=2, template=1),
            ],
            weights=[3.0, 1.0],
        )
        inst = TrainingInstance(mrf, np.array([0.25]))
        grad = mle_gradient(inst, np.array([3.0, 1.0]), TIGHT)
        np.testing.assert_allclose(grad, 0.0, atol=1e-6)

    def test_empty_template_contributes_zero(self):
        mrf = make_mrf([hinge([(0, 1.0)], 0.0, template=1)], weights=[2.0, 1.0])
        inst = TrainingInstance(mrf, np.array([0.0]))
        grad = mle_gradient(inst, np.array([2.0, 1.0]), TIGHT)
        assert grad[0] == 0.0
        assert np.isfinite(grad).all()

    def test_hand_computed_one_variable_model(self):
        # Squared pair with weights (w0, w1): the optimum is w1/(w0+w1).
        # With truth t, the ascent direction is phi(MAP) - phi(t) per template.
        w = np.array([3.0, 1.0])
        mrf = make_mrf(
            [
                hinge([(0, 1.0)], 0.0, exponent=2),
                hinge([(0, -1.0)], 1.0, exponent=2, template=1),
            ],
            weights=w,
        )
        truth = 0.6
        inst = TrainingInstance(mrf, np.array([truth]))
        grad = mle_gradient(inst, w, TIGHT)
        y_map = w[1] / (w[0] + w[1])
        np.testing.assert_allclose(
            grad,
            [y_map**2 - truth**2, (1 - y_map) ** 2 - (1 - truth) ** 2],
            atol=1e-6,
        )

    def test_nonnegative_weights_required(self):
        mrf = make_mrf([hinge([(0, 1.0)], 0.0)], weights=[1.0])
        inst = TrainingInstance(mrf, np.array([0.0]))
        with pytest.raises(ModelError):
            mle_gradient(inst, np.array([-1.0]))

    def test_truth_features_give_the_same_gradient(self):
        # The gradient reads the MAP state's features from its solve and
        # the truth's from ``truth_features`` when given.
        mrf = make_mrf(
            [hinge([(0, 1.0), (1, -1.0)], 0.1, exponent=2), hinge([(0, -1.0)], 0.8, template=1),
             hinge([(1, 1.0)], -0.3, exponent=2, template=2)],
            [leq([(0, 1.0), (1, 1.0)], -1.2)],
            weights=[1.0, 2.0, 0.5],
            n=2,
        )
        inst = TrainingInstance(mrf, np.array([0.7, 0.2]))
        weights = np.array([0.8, 1.5, 0.4])
        plain = mle_gradient(inst, weights, TIGHT)
        given = mle_gradient(
            inst, weights, TIGHT, truth_features=mrf.template_features(inst.truth)
        )
        assert np.array_equal(plain, given)
        y, _ = solve_map(mrf.with_weights(weights), TIGHT)
        expected = mrf.template_features(y) - mrf.template_features(inst.truth)
        assert np.array_equal(plain, expected)  # one grounding per template


class TestPerceptron:
    def test_zero_gradient_leaves_weights(self):
        mrf = make_mrf(
            [
                hinge([(0, 1.0)], 0.0, exponent=2),
                hinge([(0, -1.0)], 1.0, exponent=2, template=1),
            ],
            weights=[3.0, 1.0],
        )
        inst = TrainingInstance(mrf, np.array([0.25]))
        learned = perceptron_train(
            [inst], steps=5, step_size=1.0, init=np.array([3.0, 1.0]), opts=TIGHT
        )
        np.testing.assert_allclose(learned, [3.0, 1.0], atol=1e-4)

    def test_default_hyperparameters(self):
        import inspect

        sig = inspect.signature(perceptron_train)
        assert sig.parameters["steps"].default == 100
        assert sig.parameters["step_size"].default == 1.0

    def test_weights_stay_nonnegative(self):
        mrf = make_mrf(
            [hinge([(0, 1.0)], 0.0), hinge([(0, -1.0)], 1.0, template=1)],
            weights=[1.0, 1.0],
        )
        inst = TrainingInstance(mrf, np.array([0.0]))
        learned = perceptron_train([inst], steps=20, step_size=5.0, opts=TIGHT)
        assert np.all(learned >= 0.0)

    def test_recovers_weight_ordering_from_synthetic_data(self):
        # Data generated under strong template 0 and weak template 1: the MAP
        # state of the generator weights serves as training truth.
        gen = np.array([5.0, 1.0])
        pots = []
        rng = np.random.default_rng(42)
        n = 6
        for i in range(n):
            evid = float(rng.uniform(0.3, 0.9))
            pots.append(hinge([(i, -1.0)], evid, template=0))  # pull up to evidence
            pots.append(hinge([(i, 1.0)], 0.0, template=1))  # pull down
        mrf = make_mrf(pots, weights=gen, n=n)
        truth, _ = solve_map(mrf.with_weights(gen), TIGHT)
        inst = TrainingInstance(mrf, truth)
        learned = perceptron_train([inst], steps=40, step_size=0.5, opts=TIGHT)
        assert learned[0] > learned[1]


    def test_a_second_call_compiles_nothing(self, monkeypatch):
        # The compiled model outlives a call: it is kept with the instance's
        # rows, and the next call's first solve restarts it cold.
        mrf = make_mrf(
            [hinge([(0, -1.0)], 0.7, exponent=2), hinge([(0, 1.0), (1, -1.0)], 0.0, exponent=2)],
            weights=[1.0], n=2,
        )
        instance = TrainingInstance(mrf, np.array([0.6, 0.4]))
        first = perceptron_train([instance], steps=3, opts=TIGHT)
        built = []
        compiled_model = softlogic.infer._CompiledModel

        def counting(*args):
            built.append(args)
            return compiled_model(*args)

        monkeypatch.setattr(softlogic.infer, "_CompiledModel", counting)
        second = perceptron_train([instance], steps=3, opts=TIGHT)
        assert built == []
        np.testing.assert_array_equal(second, first)
        # Loss-augmented solves have linear terms: another support, compiled once.
        margin = lme_train([instance], max_rounds=3, opts=TIGHT).weights
        assert len(built) == 1
        np.testing.assert_array_equal(lme_train([instance], max_rounds=3, opts=TIGHT).weights, margin)
        assert len(built) == 1

    def test_warm_started_training_matches_cold_loop(self):
        # Each instance keeps its own solver state across steps; at TIGHT the
        # weights match a loop of cold solves.
        rng = np.random.default_rng(7)
        instances = []
        for n in (5, 7):
            pots = []
            for i in range(n):
                evid = float(rng.uniform(0.2, 0.9))
                pots.append(hinge([(i, -1.0)], evid, exponent=2, template=0))
                pots.append(hinge([(i, 1.0)], 0.0, exponent=2, template=1))
                pots.append(hinge([(i, 1.0), ((i + 1) % n, -1.0)], 0.0, exponent=2, template=2))
            mrf = make_mrf(pots, weights=[1.0, 1.0, 1.0], n=n)
            instances.append(TrainingInstance(mrf, rng.uniform(0.0, 1.0, size=n)))
        steps, step_size = 10, 0.5
        learned = perceptron_train(instances, steps=steps, step_size=step_size, opts=TIGHT)

        weights = np.ones(3)
        averaged = np.zeros(3)
        for _ in range(steps):
            gradient = np.zeros(3)
            for inst in instances:
                model = inst.mrf.with_weights(weights)
                y, _ = solve_map(model, TIGHT)
                counts = np.array([t.groundings for t in model.templates], dtype=float)
                gradient += (
                    model.template_features(y) - model.template_features(inst.truth)
                ) / counts
            weights = np.maximum(weights + step_size * gradient, 0.0)
            averaged += weights
        np.testing.assert_allclose(learned, averaged / steps, rtol=0, atol=1e-6)


@pytest.mark.parametrize(
    "train, kwargs, name",
    [
        (perceptron_train, {"steps": 2.5}, "steps"),
        (perceptron_train, {"steps": True}, "steps"),
        (perceptron_train, {"steps": 0}, "steps"),
        (perceptron_train, {"step_size": float("inf")}, "step_size"),
        (perceptron_train, {"step_size": float("nan")}, "step_size"),
        (perceptron_train, {"step_size": 0.0}, "step_size"),
        (perceptron_train, {"step_size": True}, "step_size"),
        (perceptron_train, {"instances": []}, "instances"),
        (lme_train, {"instances": []}, "instances"),
        (lme_train, {"max_rounds": 0}, "max_rounds"),
        (lme_train, {"max_rounds": 1.5}, "max_rounds"),
        (lme_train, {"max_rounds": True}, "max_rounds"),
        (lme_train, {"C": float("nan")}, "C"),
        (lme_train, {"C": float("inf")}, "C"),
        (lme_train, {"C": 0.0}, "C"),
        (lme_train, {"C": -1.0}, "C"),
        (lme_train, {"tol": float("nan")}, "tol"),
        (lme_train, {"tol": float("inf")}, "tol"),
        (lme_train, {"tol": -1.0}, "tol"),
    ],
)
def test_learner_arguments_validated(train, kwargs, name):
    mrf = make_mrf([hinge([(0, 1.0)], 0.0)], weights=[1.0])
    arguments = {"instances": [TrainingInstance(mrf, np.array([0.0]))], **kwargs}
    with pytest.raises(ModelError, match=name):
        train(**arguments)


class TestMple:
    def test_no_potentials_gives_zero_log_pseudolikelihood(self):
        mrf = make_mrf([], [], weights=[], n=3)
        inst = TrainingInstance(mrf, np.array([0.2, 0.5, 0.9]))
        log_pl, grad = mple_log_and_gradient(inst, np.array([]))
        assert log_pl == pytest.approx(0.0)
        assert grad.size == 0

    def test_exponential_normalizer_closed_form(self):
        # One potential w*max(y,0) with w=2: Z = (1 - exp(-2)) / 2.
        mrf = make_mrf([hinge([(0, 1.0)], 0.0)], weights=[2.0])
        truth = 0.3
        inst = TrainingInstance(mrf, np.array([truth]))
        log_pl, _ = mple_log_and_gradient(inst, np.array([2.0]), quadrature=2049)
        z = np.exp(-log_pl - 2.0 * truth)
        assert z == pytest.approx((1 - np.exp(-2.0)) / 2.0, abs=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(314)
        for _ in range(5):
            n = int(rng.integers(2, 4))
            pots = []
            for _ in range(int(rng.integers(2, 5))):
                k = int(rng.integers(1, 3))
                idx = rng.choice(n, size=k, replace=False)
                coeffs = rng.uniform(-1, 1, size=k)
                pots.append(
                    hinge(
                        list(zip(idx.tolist(), coeffs)),
                        float(rng.uniform(-0.3, 0.5)),
                        exponent=int(rng.integers(1, 3)),
                        template=int(rng.integers(0, 2)),
                    )
                )
            mrf = make_mrf(pots, weights=[1.0, 1.0], n=n)
            inst = TrainingInstance(mrf, rng.uniform(0, 1, size=n))
            w = rng.uniform(0.2, 1.5, size=2)
            _, grad = mple_log_and_gradient(inst, w)
            scale = np.array(
                [max(t.groundings, 1) for t in mrf.templates], dtype=float
            )
            eps = 1e-5
            for q in range(2):
                up, down = w.copy(), w.copy()
                up[q] += eps
                down[q] -= eps
                fd = (
                    mple_log_and_gradient(inst, up)[0]
                    - mple_log_and_gradient(inst, down)[0]
                ) / (2 * eps)
                assert grad[q] == pytest.approx(fd / scale[q], rel=1e-3, abs=1e-9)

    def test_block_gradient_matches_finite_differences(self):
        # both potentials share template 0 (2 groundings)
        mrf = make_mrf(
            [
                hinge([(0, 1.0)], -0.2, exponent=2, template=0),
                hinge([(2, 1.0), (0, 0.5)], -0.1, template=0),
            ],
            [eq([(0, 1.0), (1, 1.0)], -1.0)],
            weights=[1.2],
            n=3,
        )
        inst = TrainingInstance(mrf, np.array([0.6, 0.4, 0.3]))
        w = np.array([1.2])
        _, grad = mple_log_and_gradient(inst, w)
        eps = 1e-4
        fd = (
            mple_log_and_gradient(inst, w + eps)[0]
            - mple_log_and_gradient(inst, w - eps)[0]
        ) / (2 * eps)
        assert grad[0] == pytest.approx(fd / 2.0, rel=1e-3)

    def test_inequality_constraints_rejected(self):
        mrf = make_mrf([], [leq([(0, 1.0), (1, 1.0)], -1.0)], weights=[], n=2)
        inst = TrainingInstance(mrf, np.array([0.2, 0.2]))
        with pytest.raises(UnsupportedStructureError):
            mple_log_and_gradient(inst, np.array([]))

    def test_overlapping_blocks_rejected(self):
        mrf = make_mrf(
            [],
            [eq([(0, 1.0), (1, 1.0)], -1.0), eq([(1, 1.0), (2, 1.0)], -1.0)],
            weights=[],
            n=3,
        )
        inst = TrainingInstance(mrf, np.array([0.5, 0.5, 0.5]))
        with pytest.raises(UnsupportedStructureError):
            mple_log_and_gradient(inst, np.array([]))

    @pytest.mark.parametrize(
        "weights, match",
        [([1.0], "length"), ([1.0, np.nan], "finite"), ([1.0, -0.5], "nonnegative")],
    )
    def test_bad_weights_rejected(self, weights, match):
        mrf = make_mrf([hinge([(0, 1.0)], 0.0), hinge([(0, -1.0)], 0.5, template=1)],
                       weights=[1.0, 1.0])
        inst = TrainingInstance(mrf, np.array([0.3]))
        with pytest.raises(ModelError, match=match):
            mple_log_and_gradient(inst, weights)

    @pytest.mark.parametrize(
        "name, value",
        [("quadrature", 1), ("quadrature", 2.5), ("quadrature", True),
         ("block_samples", 0), ("block_samples", 2.5)],
    )
    def test_bad_sample_counts_rejected(self, name, value):
        # A sum-to-one block, so that block_samples is read.
        mrf = make_mrf([hinge([(0, 1.0)], -0.2)], [eq([(0, 1.0), (1, 1.0)], -1.0)],
                       weights=[1.0], n=2)
        inst = TrainingInstance(mrf, np.array([0.6, 0.4]))
        with pytest.raises(ModelError, match=name):
            mple_log_and_gradient(inst, [1.0], **{name: value})

    def test_matches_full_assignment_reference(self):
        # Each conditional only moves the potentials touching the varied
        # variables; the reference re-evaluates every touching potential on
        # full copies of the truth. Models mix singletons, sum-to-one
        # blocks, observed variables and potentials spanning a block.
        rng = np.random.default_rng(2718)
        for _ in range(25):
            n = int(rng.integers(4, 9))
            order = rng.permutation(n)
            observed = {int(i): float(rng.uniform()) for i in order[: rng.integers(0, 3)]}
            free = [int(i) for i in order[len(observed):]]
            blocks, rest = [], list(free)
            while len(rest) >= 2 and rng.random() < 0.6:
                size = int(rng.integers(2, min(3, len(rest)) + 1))
                blocks.append(sorted(rest[:size]))
                rest = rest[size:]
            pots = []
            for _ in range(int(rng.integers(2, 9))):
                if blocks and rng.random() < 0.3:
                    idx = np.array(blocks[int(rng.integers(len(blocks)))][:2])
                else:
                    idx = rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)), replace=False)
                pots.append(
                    hinge(
                        list(zip(idx.tolist(), rng.uniform(-1, 1, size=idx.size))),
                        float(rng.uniform(-0.5, 0.8)),
                        exponent=int(rng.integers(1, 3)),
                        template=int(rng.integers(0, 3)),
                    )
                )
            cons = [eq([(i, 1.0) for i in block], -1.0) for block in blocks]
            mrf = make_mrf(pots, cons, weights=[1.0, 1.0, 1.0], n=n, observed=observed)
            values = dict(zip(free, rng.uniform(0, 1, size=len(free))))
            for block in blocks:
                values.update(zip(block, rng.dirichlet(np.ones(len(block)))))
            truth = np.array([values[i] for i in mrf.table.free_indices])
            inst = TrainingInstance(mrf, truth)
            w = rng.uniform(0.2, 2.0, size=3)
            sizes = dict(quadrature=65, block_samples=200, seed=int(rng.integers(100)))
            log_pl, grad = mple_log_and_gradient(inst, w, **sizes)
            ref_log_pl, ref_grad = reference_mple(inst, w, **sizes)
            assert log_pl == pytest.approx(ref_log_pl, rel=1e-10, abs=1e-10)
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-10, atol=1e-10)


class TestSeparationOracle:
    def test_pure_loss_maximization(self):
        n = 3
        mrf = make_mrf([hinge([(i, 1.0)], 0.0) for i in range(n)], weights=[0.0], n=n)
        inst = TrainingInstance(mrf, np.ones(n))
        result = lme_separation_oracle(inst, np.array([0.0]), TIGHT)
        np.testing.assert_allclose(result.violator, 0.0, atol=1e-6)
        assert result.loss == pytest.approx(n, abs=1e-5)

    def test_interior_truth_reaches_boundary(self):
        mrf = make_mrf([hinge([(0, 1.0)], 0.0)], weights=[0.0])
        inst = TrainingInstance(mrf, np.array([0.5]))
        result = lme_separation_oracle(inst, np.array([0.0]), TIGHT)
        assert result.converged
        assert min(abs(result.violator[0]), abs(result.violator[0] - 1.0)) < 1e-6
        assert result.loss == pytest.approx(0.5, abs=1e-6)

    def test_matches_grid_for_binary_truth(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            pots = [
                hinge(
                    [(int(i), float(rng.uniform(-1, 1)))],
                    float(rng.uniform(-0.3, 0.5)),
                    exponent=int(rng.integers(1, 3)),
                )
                for i in rng.integers(0, n, size=3)
            ]
            weights = np.array([float(rng.uniform(0, 1.5))])
            mrf = make_mrf(pots, weights=weights, n=n)
            truth = rng.integers(0, 2, size=n).astype(float)
            inst = TrainingInstance(mrf, truth)
            result = lme_separation_oracle(inst, weights, TIGHT)
            model = mrf.with_weights(weights)

            def objective(y):
                return float(
                    weights @ model.template_features(np.asarray(y, dtype=float))
                ) - float(np.abs(truth - y).sum())

            grid = np.arange(0.0, 1.0 + 1e-9, 0.05)
            best = min(
                objective(np.array(p)) for p in itertools.product(grid, repeat=n)
            )
            got = objective(result.violator)
            assert got <= best + 1e-3

    def test_binary_truth_takes_one_solve(self, monkeypatch):
        # The loss terms of a {0,1} truth are exact: the first solve pushes
        # each variable away from its truth and no direction can flip.
        mrf = make_mrf(
            [hinge([(0, 1.0), (1, -1.0)], 0.1, exponent=2), hinge([(1, -1.0)], 0.4, template=1)],
            weights=[1.0, 2.0],
            n=2,
        )
        inst = TrainingInstance(mrf, np.array([1.0, 0.0]))
        calls = []

        def counted(*args, **kwargs):
            calls.append(np.array(kwargs["extra_linear"]))
            return solve_map(*args, **kwargs)

        monkeypatch.setattr(softlogic.learn, "solve_map", counted)
        result = lme_separation_oracle(inst, np.array([0.6, 1.1]), TIGHT)
        assert result.converged
        assert len(calls) == 1
        assert np.array_equal(calls[0], [1.0, -1.0])

    @pytest.mark.parametrize("truth", [[1.0, 0.0], [0.3, 0.6]])
    def test_gap_is_read_from_the_solves(self, truth):
        mrf = make_mrf(
            [hinge([(0, 1.0), (1, -1.0)], 0.1, exponent=2), hinge([(1, -1.0)], 0.4, template=1)],
            weights=[1.0, 2.0],
            n=2,
        )
        inst = TrainingInstance(mrf, np.array(truth))
        weights = np.array([0.6, 1.1])
        plain = lme_separation_oracle(inst, weights, TIGHT)
        given = lme_separation_oracle(
            inst, weights, TIGHT, truth_features=mrf.template_features(inst.truth)
        )
        assert np.array_equal(plain.feature_gap, given.feature_gap)
        expected = mrf.template_features(inst.truth) - mrf.template_features(plain.violator)
        assert np.array_equal(plain.feature_gap, expected)


class TestMarginQp:
    def test_no_cuts_returns_zero(self):
        w, slack, obj = solve_margin_qp(CuttingPlaneSet(C=0.5), 3)
        np.testing.assert_allclose(w, 0.0)
        assert slack == 0.0 and obj == 0.0

    def test_matches_dense_grid_on_two_templates(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            cuts = CuttingPlaneSet(C=float(rng.uniform(0.05, 1.0)))
            for _ in range(int(rng.integers(1, 6))):
                cuts.records.append(
                    CutRecord(rng.uniform(-1, 1, size=2), float(rng.uniform(0, 2)))
                )
            w, slack, obj = solve_margin_qp(cuts, 2)
            gaps = np.array([r.feature_gap for r in cuts.records])
            losses = np.array([r.loss for r in cuts.records])
            axis = np.arange(0.0, 3.0 + 1e-9, 0.01)
            best = np.inf
            for w0 in axis:
                xi = np.maximum(0.0, losses + gaps @ np.array([w0, 0.0]))
                # vectorize the second coordinate
                xi2 = np.maximum(
                    0.0, losses[None, :] + w0 * gaps[None, :, 0] + axis[:, None] * gaps[None, :, 1]
                ).max(axis=1)
                vals = 0.5 * (w0**2 + axis**2) + cuts.C * xi2
                best = min(best, float(vals.min()))
            assert obj <= best + 1e-4
            assert np.all(w >= 0.0)
            assert slack >= -1e-12

    def test_qp_tolerance(self):
        cuts = CuttingPlaneSet(C=0.1)
        cuts.records.append(CutRecord(np.array([-1.0]), 1.0))
        w, slack, obj = solve_margin_qp(cuts, 1)
        # closed form: minimize 0.5 w^2 + 0.1 max(0, 1 - w) -> w = 0.1
        assert w[0] == pytest.approx(0.1, abs=1e-6)
        assert slack == pytest.approx(0.9, abs=1e-6)

    def test_matches_closed_form_on_two_templates(self):
        # At w = (0, 5/14) cuts 2 and 3 both reach the slack 52/35, and no
        # move of w lowers the objective.
        cuts = CuttingPlaneSet(C=0.6)
        for gap, loss in [([-0.4, 0.8], 1.0), ([1.0, -0.6], 1.7), ([-0.6, 0.8], 1.2)]:
            cuts.records.append(CutRecord(np.array(gap), loss))
        w, slack, obj = solve_margin_qp(cuts, 2)
        np.testing.assert_allclose(w, [0.0, 5 / 14], atol=1e-7)
        assert slack == pytest.approx(52 / 35, abs=1e-7)
        assert obj == pytest.approx(0.5 * (5 / 14) ** 2 + 0.6 * 52 / 35, abs=1e-9)

    def test_weights_at_the_bound_are_exact_zeros(self):
        # The third template's gap is 0 in every cut, as a hard rule's is,
        # so it stays out of the QP; no weight is left at SLSQP's noise.
        rng = np.random.default_rng(0)
        for _ in range(50):
            cuts = CuttingPlaneSet(C=float(rng.uniform(0.05, 1.0)))
            for _ in range(int(rng.integers(1, 6))):
                gap = np.append(rng.uniform(-1, 1, size=2), 0.0)
                cuts.records.append(CutRecord(gap, float(rng.uniform(0, 2))))
            w, _, _ = solve_margin_qp(cuts, 3)
            assert w[2] == 0.0
            assert np.all((w == 0.0) | (w > 1e-12))

    @pytest.mark.parametrize(
        "field, cuts",
        [
            ("C", lambda: CuttingPlaneSet(C=float("nan"))),
            ("C", lambda: CuttingPlaneSet(C=float("inf"))),
            ("slack", lambda: CuttingPlaneSet(slack=float("nan"))),
            ("feature_gap", lambda: CuttingPlaneSet([CutRecord(np.array([np.nan]), 1.0)])),
            ("loss", lambda: CuttingPlaneSet([CutRecord(np.array([-1.0]), float("inf"))])),
            ("feature_gap", lambda: CuttingPlaneSet([CutRecord(np.array([-1.0, 0.5]), 1.0)])),
        ],
        ids=["nan-C", "inf-C", "nan-slack", "nan-gap", "inf-loss", "wide-gap"],
    )
    def test_malformed_input_rejected(self, field, cuts):
        with pytest.raises(ModelError, match=r"^%s\b" % field):
            solve_margin_qp(cuts(), 1)


class TestLmeTrain:
    def test_separable_problem_terminates(self):
        # Truth is the MAP state for any positive weight: zero loss puts the
        # oracle at (or near) the truth and the cut violation collapses.
        mrf = make_mrf(
            [hinge([(0, 1.0)], -0.0, exponent=1)],
            weights=[1.0],
        )
        inst = TrainingInstance(mrf, np.array([0.0]))
        result = lme_train([inst], C=0.1, tol=1e-4, opts=TIGHT)
        assert result.converged
        assert result.rounds <= 10

    def test_default_regularization_constant(self):
        import inspect

        assert inspect.signature(lme_train).parameters["C"].default == 0.1

    def test_squared_fixture_needs_slack(self):
        mrf = make_mrf([hinge([(0, 1.0)], 0.0, exponent=2)], weights=[1.0])
        inst = TrainingInstance(mrf, np.array([0.0]))
        result = lme_train([inst], C=0.1, tol=1e-6, opts=TIGHT)
        assert result.converged
        assert result.cuts.slack > 0.0

    def test_objective_history_non_decreasing(self):
        mrf = make_mrf(
            [hinge([(0, 1.0)], 0.0, exponent=2), hinge([(0, -1.0)], 1.0, exponent=2, template=1)],
            weights=[1.0, 1.0],
        )
        inst = TrainingInstance(mrf, np.array([0.3]))
        result = lme_train([inst], C=0.5, tol=1e-5, opts=TIGHT)
        history = result.objective_history
        assert all(b >= a - 1e-9 for a, b in zip(history, history[1:]))

    def test_hard_rule_weight_is_exactly_zero(self):
        data_text, program_text = generate_network(SynthNetworkSpec(n_users=300, seed=1))
        mrf = ground_program(parse_program(program_text), load_data(data_text), prune=True)
        opinion = dict(re.findall(r'^Opinion\("(\w+)"\) = (\S+)', data_text, re.M))
        labels = [mrf.table.labels[i] for i in mrf.table.free_indices]
        truth = np.array([(float(opinion[a.args[0]]) > 0.5) == (a.predicate == "Liberal")
                          for a in labels], dtype=float)
        weights = lme_train([TrainingInstance(mrf, truth)]).weights
        assert mrf.templates[-1].source == "Liberal(U) + Conservative(U) = 1 ."
        assert weights[-1] == 0.0
        assert np.all((weights == 0.0) | (weights > 1e-12))

    def test_accepted_cuts_were_violated(self):
        mrf = make_mrf([hinge([(0, 1.0)], 0.0, exponent=2)], weights=[1.0])
        inst = TrainingInstance(mrf, np.array([0.0]))
        tol = 1e-6
        result = lme_train([inst], C=0.2, tol=tol, opts=TIGHT)
        # replay: each recorded cut must have been violated when added
        for k, record in enumerate(result.cuts.records):
            kept = CuttingPlaneSet(records=result.cuts.records[:k], C=0.2)
            w, slack, _ = solve_margin_qp(kept, 1)
            violation = float(w @ record.feature_gap) + record.loss - slack
            assert violation > tol
