import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softlogic.ground import ground_program, load_data
from softlogic.infer import SolveOptions, solve_map
from softlogic.lang import parse_program
from softlogic.model import (
    ConstraintRows,
    FoldedRows,
    GroundAtom,
    HingePotential,
    HlMrf,
    LinearConstraint,
    LinearFunction,
    ModelError,
    PotentialRows,
    Relation,
    TemplateInfo,
    VariableTable,
)

from softlogic.synth import SynthNetworkSpec, generate_network

from helpers import (
    batch_energy,
    batch_feasible,
    eq,
    fold_observed,
    hinge,
    leq,
    make_mrf,
    random_mrf,
    reference_to_dict,
)


class TestLinearFunction:
    def test_merges_duplicates_and_drops_zeros(self):
        lf = LinearFunction([(2, 1.0), (2, -1.0), (0, 0.5), (1, 0.0)], 0.3)
        assert lf.terms == ((0, 0.5),)
        assert lf.offset == 0.3

    def test_value(self):
        lf = LinearFunction([(0, 2.0), (1, -1.0)], 0.5)
        assert lf.value([0.5, 0.25]) == pytest.approx(1.25)

    def test_fold_observed(self):
        table = VariableTable([GroundAtom("a"), GroundAtom("b")], {1: 0.25})
        lf = LinearFunction([(0, 1.0), (1, 2.0)], -0.5)
        folded = fold_observed(lf, table)
        assert folded.terms == ((0, 1.0),)
        assert folded.offset == pytest.approx(0.0)


class TestVariableTable:
    def test_partition_covers_all_indices(self):
        table = VariableTable([GroundAtom("a"), GroundAtom("b"), GroundAtom("c")], {1: 0.5})
        assert table.free_indices == (0, 2)
        assert set(table.observed) | set(table.free_indices) == {0, 1, 2}

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ModelError):
            VariableTable([GroundAtom("a")], {0: 1.5})

    def test_assignment_dimension_checked(self):
        table = VariableTable([GroundAtom("a"), GroundAtom("b")], {0: 1.0})
        with pytest.raises(ModelError):
            table.full_values(np.array([0.1, 0.2]))


class TestEnergy:
    def test_hinge_flat_region(self):
        mrf = make_mrf([hinge([(0, 1.0)], 0.0)], weights=[3.0])
        assert mrf.energy([0.0]) == 0.0

    def test_hinge_active_region(self):
        mrf = make_mrf([hinge([(0, 1.0)], 0.0)], weights=[3.0])
        assert mrf.energy([0.5]) == pytest.approx(1.5)

    def test_squared_hinge(self):
        mrf = make_mrf([hinge([(0, -1.0)], 1.0, exponent=2)], weights=[1.0])
        assert mrf.energy([0.4]) == pytest.approx(0.36)

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            mrf = random_mrf(rng)
            y = rng.uniform(0.0, 1.0, size=mrf.n_free)
            assert mrf.energy(y) >= 0.0

    def test_convexity_on_random_instances(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            mrf = random_mrf(rng)
            y1 = rng.uniform(0, 1, size=mrf.n_free)
            y2 = rng.uniform(0, 1, size=mrf.n_free)
            lam = rng.uniform()
            mixed = mrf.energy(lam * y1 + (1 - lam) * y2)
            bound = lam * mrf.energy(y1) + (1 - lam) * mrf.energy(y2)
            assert mixed <= bound + 1e-12


class TestFeasibility:
    def test_equality_satisfied(self):
        mrf = make_mrf([], [eq([(0, 1.0), (1, 1.0)], -1.0)], weights=[], n=2)
        feasible, violated = mrf.check_feasible([0.65, 0.35], tol=1e-9)
        assert feasible and not violated

    def test_inequality_violated_is_reported(self):
        con = leq([(0, 1.0), (1, 1.0)], -1.0)
        mrf = make_mrf([], [con], weights=[], n=2)
        feasible, violated = mrf.check_feasible([0.9, 0.6], tol=1e-9)
        assert not feasible
        assert violated == [con]

    def test_empty_constraint_set_is_vacuous(self):
        mrf = make_mrf([hinge([(0, 1.0)], 0.0)], weights=[1.0])
        assert mrf.check_feasible([0.7])[0]

    def test_negative_tolerance_rejected(self):
        mrf = make_mrf([], [], weights=[], n=1)
        with pytest.raises(ModelError):
            mrf.check_feasible([0.5], tol=-1.0)


class TestTemplateFeatures:
    def test_features_sum_within_template(self):
        pots = [hinge([(0, 1.0)], -0.3), hinge([(0, 1.0)], -0.2)]
        mrf = make_mrf(pots, weights=[2.0])
        phi = mrf.template_features([0.5])
        assert phi[0] == pytest.approx(0.2 + 0.3)

    def test_template_with_zero_groundings(self):
        mrf = make_mrf([hinge([(0, 1.0)], 0.0, template=1)], weights=[4.0, 1.0])
        phi = mrf.template_features([0.25])
        assert phi[0] == 0.0
        assert phi[1] == pytest.approx(0.25)

    def test_energy_is_weight_dot_features(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            mrf = random_mrf(rng)
            y = rng.uniform(0, 1, size=mrf.n_free)
            energy = mrf.energy(y)
            via_phi = float(mrf.weights @ mrf.template_features(y))
            assert energy == pytest.approx(via_phi, rel=1e-12, abs=1e-300)


class TestValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ModelError):
            make_mrf([hinge([(0, 1.0)], 0.0)], weights=[-1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ModelError, match="finite"):
            make_mrf([hinge([(0, 1.0)], 0.0)], weights=[bad])
        mrf = make_mrf([hinge([(0, 1.0)], 0.0)], weights=[1.0])
        with pytest.raises(ModelError, match="finite"):
            mrf.with_weights([bad])
        doc = mrf.to_dict()
        doc["templates"][0]["weight"] = bad
        with pytest.raises(ModelError, match="finite"):
            HlMrf.from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, index",
        [("variable", 10**30), ("variable", 0.5), ("template", 10**30), ("template", 0.5)],
    )
    def test_bad_index_in_json_rejected(self, field, index):
        doc = make_mrf([hinge([(0, 1.0)], 0.0)], weights=[1.0]).to_dict()
        if field == "variable":
            doc["potentials"][0]["linfun"]["terms"][0][0] = index
        else:
            doc["potentials"][0]["template"] = index
        with pytest.raises(ModelError, match="unknown " + field):
            HlMrf.from_json(json.dumps(doc))

    def test_bad_exponent_rejected(self):
        with pytest.raises(ModelError):
            HingePotential(LinearFunction([(0, 1.0)], 0.0), exponent=3)

    def test_grounding_count_mismatch(self):
        table = VariableTable([GroundAtom("a")])
        with pytest.raises(ModelError):
            HlMrf(table, [hinge([(0, 1.0)], 0.0)], [], [TemplateInfo("t", 2)], [1.0])

    def test_constant_potential_warns_but_contributes_zero(self):
        with pytest.warns(UserWarning):
            mrf = make_mrf([hinge([], -1.0)], weights=[1.0])
        assert mrf.energy([0.3]) == 0.0

    def test_potential_over_observed_variables_warns(self):
        with pytest.warns(UserWarning, match="constant linear function"):
            mrf = make_mrf([hinge([(0, 1.0)], -1.0)], weights=[1.0], n=2, observed={0: 0.5})
        assert mrf.energy([0.3]) == 0.0

    def test_constant_potentials_warn_once_per_template(self):
        data_text, program_text = generate_network(SynthNetworkSpec(n_users=60, seed=1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mrf = ground_program(parse_program(program_text), load_data(data_text), prune=False)
        rows = mrf.potential_rows
        constant_tids = set(rows.template_id[rows.arity == 0].tolist())
        messages = [str(w.message) for w in caught if "constant linear function" in str(w.message)]
        assert constant_tids and len(messages) == len(constant_tids) <= len(mrf.templates)
        total = sum(int(m.split(" has ")[1].split()[0]) for m in messages)
        assert total == int((rows.arity == 0).sum())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_coefficients_and_offsets_rejected(self, bad):
        cases = [
            ([hinge([(0, bad)], 0.0)], [], "potential 0 has non-finite coefficient"),
            ([hinge([(0, 1.0)], 0.0), hinge([(0, 1.0)], bad)], [],
             "potential 1 has non-finite offset"),
            ([], [leq([(0, 1.0)], 0.0), leq([(0, bad)], 0.0)],
             "constraint 1 has non-finite coefficient"),
            ([], [eq([(0, 1.0)], bad)], "constraint 0 has non-finite offset"),
        ]
        for potentials, constraints, message in cases:
            with pytest.raises(ModelError, match=message):
                make_mrf(potentials, constraints, weights=[1.0] if potentials else [])
        doc = make_mrf([hinge([(0, 1.0)], 0.0)], [leq([(0, 1.0)], -1.0)], weights=[1.0]).to_dict()
        for kind in ("potential", "constraint"):
            for field in ("coefficient", "offset"):
                edited = json.loads(json.dumps(doc))
                linfun = edited[kind + "s"][0]["linfun"]
                if field == "offset":
                    linfun["offset"] = bad
                else:
                    linfun["terms"][0][1] = bad
                with pytest.raises(ModelError, match="%s 0 has non-finite %s" % (kind, field)):
                    HlMrf.from_json(json.dumps(edited))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["constraints"][0].update(relation="geq"),
             "'geq' is not a valid Relation"),
            (lambda d: d.pop("potentials"), "missing key 'potentials'"),
            (lambda d: d["templates"][0].update(groundings="1"),
             "template 0 groundings is not a finite number: '1'"),
            (lambda d: d["templates"][0].update(weight="1"),
             "template 0 weight is not a finite number: '1'"),
            (lambda d: d["potentials"][0].update(exponent=True),
             "potential 0 has an exponent other than 1 or 2: True"),
            (lambda d: d["potentials"][0].update(template=False), "unknown template False"),
            (lambda d: d["variables"][0].update(observed=True), "observed value True"),
            (lambda d: d["variables"][0].update(args="ab"), "variable 0 needs"),
            (lambda d: d["potentials"][0]["linfun"]["terms"][0].append(1.0),
             "document: too many values to unpack"),
            (lambda d: d["constraints"][0]["linfun"].update(terms=3),
             "document: object of type 'int' has no len"),
            (lambda d: d["potentials"][0]["linfun"]["terms"][0].__setitem__(0, True),
             "potential 0 references unknown variable True"),
            (lambda d: d["potentials"].__setitem__(0, []), "malformed"),
            (lambda d: d.update(variables=5), "malformed"),
        ],
    )
    def test_malformed_document_rejected(self, edit, message):
        doc = make_mrf([hinge([(0, 1.0)], 0.0)], [leq([(0, 1.0)], -1.0)], weights=[1.0]).to_dict()
        edit(doc)
        with pytest.raises(ModelError, match=message):
            HlMrf.from_json(json.dumps(doc))

    @pytest.mark.parametrize("text", ["[]", "1", '"softlogic-ground-model"', "null"])
    def test_document_must_be_an_object(self, text):
        with pytest.raises(ModelError, match="not a softlogic-ground-model document"):
            HlMrf.from_json(text)


class TestSerialization:
    def test_round_trip_bytes(self):
        rng = np.random.default_rng(7)
        mrf = random_mrf(rng, constrained=True)
        text = mrf.to_json()
        again = HlMrf.from_json(text)
        assert again.to_json() == text

    def test_round_trip_preserves_energy(self):
        rng = np.random.default_rng(9)
        mrf = random_mrf(rng, constrained=True)
        again = HlMrf.from_json(mrf.to_json())
        y = rng.uniform(0, 1, size=mrf.n_free)
        assert again.energy(y) == mrf.energy(y)

    def test_version_check(self):
        rng = np.random.default_rng(3)
        doc = random_mrf(rng).to_dict()
        doc["version"] = 99
        with pytest.raises(ModelError):
            HlMrf.from_dict(doc)

    def test_format_is_versioned_json(self):
        doc = json.loads(make_mrf([hinge([(0, 1.0)], 0.0)], weights=[1.0]).to_json())
        assert doc["format"] == "softlogic-ground-model"
        assert doc["version"] == 1

    def test_object_model_saves_folded_rows(self):
        mrf = make_mrf(
            [hinge([(1, -2.0), (0, 1.0)], 0.25)], [leq([(0, 1.0), (1, 1.0)], -1.0)],
            weights=[1.0], n=2, observed={1: 0.5},
        )
        doc = mrf.to_dict()
        assert doc["potentials"][0]["linfun"] == {"terms": [[0, 1.0]], "offset": -0.75}
        assert doc["constraints"][0]["linfun"] == {"terms": [[0, 1.0]], "offset": -0.5}
        text = mrf.to_json()
        assert HlMrf.from_json(text).to_json() == text


ARITHMETIC_PROGRAM = """0.5 : Opinion(U) -> Liberal(U) ^2
0.9 : Liberal(A) & Edge1(A, B) & (A != B) -> Liberal(B)
Liberal(U) + Conservative(U) = 1 .
10 : Extroverted(X) <= 1 / |Y| Extroverted(+Y) ^2
{Y : Edge1(X, Y) || Edge1(Y, X)}
2 : Liberal(U) >= 0.3 Opinion(U)
1 : Liberal(U) = Conservative(U)
"""

ARITHMETIC_DATA = """User = {"u1", "u2", "u3", "u4"}
Opinion(User) (closed)
Edge1(User, User) (closed)
Liberal(User)
Conservative(User)
Extroverted(User)
Opinion("u1") = 0.25
Opinion("u2") = 0.1
Edge1("u1", "u2") = 1
Edge1("u2", "u3") = 1
Edge1("u4", "u3") = 0.5
Liberal("u3") = 0.5
Extroverted("u2") = 0.75
"""


def grounded_model(source, prune):
    """A grounded synth network ``(users, squared)`` or the arithmetic program."""
    if source == "arithmetic":
        program_text, data_text = ARITHMETIC_PROGRAM, ARITHMETIC_DATA
    else:
        data_text, program_text = generate_network(
            SynthNetworkSpec(n_users=source[0], seed=1), squared=source[1]
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return ground_program(parse_program(program_text), load_data(data_text), prune=prune)


SAVED_MODELS = [
    ((200, False), True),
    ((200, True), True),
    ((15, False), False),
    ((15, True), False),
    ("arithmetic", True),
    ("arithmetic", False),
]


class TestSavedModelsMatchObjectWriter:
    """Model files written from rows against the object-based reference writer."""

    @pytest.mark.parametrize("source, prune", SAVED_MODELS)
    def test_documents_identical(self, source, prune):
        mrf = grounded_model(source, prune)
        text = mrf.to_json()
        assert text == json.dumps(reference_to_dict(mrf), sort_keys=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert HlMrf.from_json(text).to_json() == text

    @pytest.mark.parametrize("source, prune", SAVED_MODELS)
    def test_loaded_rows_and_solution_identical(self, source, prune):
        mrf = grounded_model(source, prune)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            loaded = HlMrf.from_json(mrf.to_json())
        fields = ["positions", "coeffs", "arity", "offsets", "indptr", "norm2"]
        for name, extra in [("potential_rows", ["exponent", "template_id"]),
                            ("constraint_rows", ["is_eq"])]:
            for field in fields + extra:
                saved = getattr(getattr(mrf, name), field)
                again = getattr(getattr(loaded, name), field)
                assert saved.dtype == again.dtype, (name, field)
                np.testing.assert_array_equal(saved, again, err_msg="%s.%s" % (name, field))
        y, diag = solve_map(mrf, SolveOptions())
        y_loaded, diag_loaded = solve_map(loaded, SolveOptions())
        assert diag_loaded.iterations == diag.iterations
        assert y_loaded.tobytes() == y.tobytes()


unit = st.floats(0.0, 1.0)
coeff = st.floats(-2.0, 2.0).filter(lambda c: c != 0.0)


@st.composite
def folded_models(draw):
    """A model over free and observed variables, with its free assignment.

    Some rows touch only observed variables, so they fold to constants.
    """
    n = draw(st.integers(2, 6))
    observed = draw(st.dictionaries(st.integers(0, n - 1), unit, max_size=n - 1))

    def linfun():
        indices = draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True))
        return LinearFunction([(i, draw(coeff)) for i in indices], draw(st.floats(-1.5, 1.5)))

    n_templates = draw(st.integers(1, 3))
    potentials = [
        HingePotential(
            linfun(), draw(st.sampled_from([1, 2])), draw(st.integers(0, n_templates - 1))
        )
        for _ in range(draw(st.integers(0, 8)))
    ]
    constraints = [
        LinearConstraint(linfun(), draw(st.sampled_from([Relation.EQ, Relation.LEQ])))
        for _ in range(draw(st.integers(0, 4)))
    ]
    counts = np.bincount([p.template_id for p in potentials], minlength=n_templates)
    table = VariableTable([GroundAtom("v", (str(i),)) for i in range(n)], observed)
    templates = [TemplateInfo("t%d" % t, int(c)) for t, c in enumerate(counts)]
    weights = draw(st.lists(st.floats(0.0, 5.0), min_size=n_templates, max_size=n_templates))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mrf = HlMrf(table, potentials, constraints, templates, weights)
    y = np.array(draw(st.lists(unit, min_size=mrf.n_free, max_size=mrf.n_free)))
    return mrf, y


def reference_features(mrf, y):
    """Per-template sums, from the scalar energy of one-hot weightings."""
    features = []
    for t in range(len(mrf.templates)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            one_hot = HlMrf(mrf.table, mrf.potentials, mrf.constraints, mrf.templates,
                            np.eye(len(mrf.templates))[t])
        features.append(batch_energy(one_hot, y[None, :])[0])
    return np.array(features)


class TestFoldedRowsConcatenation:
    @pytest.mark.parametrize("cls", [FoldedRows, PotentialRows, ConstraintRows])
    def test_no_parts_give_empty_rows_of_each_dtype(self, cls):
        dtypes = dict(positions=np.intp, coeffs=np.float64, arity=np.intp, offsets=np.float64,
                      exponent=np.intp, template_id=np.intp, is_eq=np.bool_)
        rows = cls.concatenate([])
        assert rows.size == 0
        for name, _ in cls.FIELDS:
            array = getattr(rows, name)
            assert array.shape == (0,) and array.dtype == dtypes[name], name
        assert rows.indptr.tolist() == [0]
        assert rows.values(np.zeros(3)).shape == (0,)

    def test_parts_keep_their_rows_in_order(self):
        first = PotentialRows(np.array([0, 1]), np.array([1.0, -2.0]), np.array([2]),
                              np.array([0.5]), np.array([1]), np.array([0]))
        second = PotentialRows(np.array([1]), np.array([3.0]), np.array([0, 1]),
                               np.array([0.25, -1.0]), np.array([2, 1]), np.array([1, 1]))
        rows = PotentialRows.concatenate([first, second])
        y = np.array([0.3, 0.7])
        np.testing.assert_array_equal(rows.values(y), np.append(first.values(y), second.values(y)))
        np.testing.assert_allclose(rows.values(y), [0.3 - 1.4 + 0.5, 0.25, 2.1 - 1.0])
        assert rows.indptr.tolist() == [0, 2, 2, 3]
        assert rows.exponent.tolist() == [1, 2, 1] and rows.template_id.tolist() == [0, 1, 1]
        np.testing.assert_array_equal(rows.norm2, [5.0, 0.0, 9.0])


class TestFoldedRowsMatchScalarOracles:
    @settings(max_examples=300, deadline=None)
    @given(folded_models(), st.lists(st.floats(0.0, 5.0), min_size=3, max_size=3))
    def test_energy_features_feasibility(self, case, new_weights):
        mrf, y = case
        close = dict(rel=1e-12, abs=1e-12)
        assert mrf.energy(y) == pytest.approx(batch_energy(mrf, y[None, :])[0], **close)
        np.testing.assert_allclose(
            mrf.template_features(y), reference_features(mrf, y), rtol=1e-12, atol=1e-12
        )
        values = mrf.table.full_values(y)
        tol = 1e-9
        feasible, violated = mrf.check_feasible(y, tol)
        assert feasible == batch_feasible(mrf, y[None, :], tol)[0]
        assert violated == [
            c for c in mrf.constraints
            if (abs if c.relation is Relation.EQ else lambda v: max(v, 0.0))(c.linfun.value(values))
            > tol
        ]

        weights = np.array(new_weights[: len(mrf.templates)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no structure re-validation, no repeated warnings
            copy = mrf.with_weights(weights)
        assert copy.potential_rows is mrf.potential_rows
        assert copy.constraint_rows is mrf.constraint_rows
        np.testing.assert_array_equal(copy.weights, weights)
        assert copy.energy(y) == pytest.approx(batch_energy(copy, y[None, :])[0], **close)
        np.testing.assert_array_equal(copy.template_features(y), mrf.template_features(y))
        assert copy.check_feasible(y, tol) == (feasible, violated)
