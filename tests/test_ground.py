import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from softlogic.ground import (
    DataError,
    DataSet,
    GroundingError,
    GroundingWarning,
    PredicateDef,
    build_variable_table,
    ground_arithmetic_rule,
    ground_logical_rule,
    ground_program,
    load_data,
)
from softlogic.ground.grounder import _find, _keys
from softlogic.infer import SolveOptions, solve_map
from softlogic.lang import parse_program
from softlogic.model import ConstraintRows, GroundAtom, HlMrf, PotentialRows, Relation
from softlogic.synth import DEFAULT_EDGE_WEIGHTS, SynthNetworkSpec, generate_network

from helpers import fold_observed, reference_ground_program

DOCUMENT_DATA = """
Document = {"d1", "d2"}
Cat_Name = {"politics", "sports"}
Category(Document, Cat_Name)
"""

ADVISOR_DATA = """
Person = {"Alexis", "Bob", "Claudia", "Don"}
Professor = {"Alexis", "Bob"}
Student = {"Claudia", "Don"}
Subject = {"Computer_Science", "Statistics"}
Advises(Professor, Student)
Department(Person, Subject) (closed)
Advises("Alexis", "Don") = 1
Department("Alexis", "Computer_Science") = 1
Department("Bob", "Computer_Science") = 1
Department("Claudia", "Statistics") = 1
Department("Don", "Statistics") = 1
"""

FRIENDS_DATA = """
Person = {"p1", "p2", "p3"}
Friends(Person, Person)
"""


class TestLoadData:
    def test_document_base(self):
        data = load_data(DOCUMENT_DATA)
        assert data.base_size() == 4
        atoms = sorted(str(a) for a in data.base())
        assert atoms[0] == 'Category("d1", "politics")'

    def test_open_predicate_without_observations(self):
        data = load_data(DOCUMENT_DATA)
        for atom in data.base():
            assert data.observed_value(atom) is None

    def test_observation_parsing(self):
        data = load_data(ADVISOR_DATA)
        assert data.observed_value(GroundAtom("Advises", ("Alexis", "Don"))) == 1.0

    def test_closed_defaults_to_zero(self):
        data = load_data(ADVISOR_DATA)
        assert data.observed_value(GroundAtom("Department", ("Alexis", "Statistics"))) == 0.0

    def test_open_unlisted_stays_unobserved(self):
        data = load_data(ADVISOR_DATA)
        assert data.observed_value(GroundAtom("Advises", ("Bob", "Don"))) is None

    def test_observation_for_undeclared_predicate(self):
        with pytest.raises(DataError):
            load_data('T = {"a"}\nP(T)\nQ("a") = 1')

    def test_value_out_of_range(self):
        with pytest.raises(DataError):
            load_data('T = {"a"}\nP(T)\nP("a") = 1.5')

    def test_unknown_constant(self):
        with pytest.raises(DataError):
            load_data('T = {"a"}\nP(T)\nP("zz") = 1')

    def test_undefined_type_in_predicate(self):
        with pytest.raises(DataError):
            load_data("P(Missing)")

    def test_constructor_declares_predicates_through_the_loader_checks(self):
        with pytest.raises(DataError, match="predicate P uses undefined type Missing"):
            DataSet({"T": ["a"]}, [PredicateDef("P", ("Missing",))])
        with pytest.raises(DataError, match="predicate P declared twice"):
            DataSet({"T": ["a"]}, [PredicateDef("P", ("T",)), PredicateDef("P", ("T",), True)])

    def test_functional_predicate_declared_once(self):
        data = load_data('T = {"a"}\nP(T)\n')
        with pytest.raises(DataError, match="predicate P declared twice"):
            data.register_functional("P", ("T",), lambda a: 1.0)
        with pytest.raises(DataError, match="uses undefined type U"):
            data.register_functional("Q", ("U",), lambda a: 1.0)

    def test_multi_typed_constants(self):
        data = load_data(ADVISOR_DATA)
        assert "Alexis" in data.universe["Person"]
        assert "Alexis" in data.universe["Professor"]

    def test_registered_functional_predicate(self):
        data = load_data('Name = {"ann", "ana", "bob"}\nSame(Name, Name)\n')
        data.register_functional(
            "Similar",
            ("Name", "Name"),
            lambda a, b: sum(x == y for x, y in zip(a, b)) / max(len(a), len(b)),
        )
        value = data.observed_value(GroundAtom("Similar", ("ann", "ana")))
        assert value == pytest.approx(2 / 3)
        # functional atoms never become variables
        table, index = build_variable_table(data)
        assert all(atom.predicate == "Same" for atom in table.labels)
        prog = parse_program("1 : Similar(A, B) -> Same(A, B)")
        grounds = ground_logical_rule(prog.rules[0], data)
        by_sub = {
            (dict(g.substitution)["A"], dict(g.substitution)["B"]): g for g in grounds
        }
        (pot,) = by_sub[("ann", "ana")].potentials
        assert pot.linfun.offset == pytest.approx(2 / 3)  # similarity folded in


    @pytest.mark.parametrize("value", ["0.5", None, True, [0.5]])
    def test_observed_value_must_be_a_real_number(self, value):
        data = load_data('T = {"a"}\nP(T)\n')
        with pytest.raises(DataError, match=r'P\("a"\) is not a real number'):
            data.add_observation(GroundAtom("P", ("a",)), value)
        assert len(data.observations) == 0

    @pytest.mark.parametrize("args", ["a", ["a"], ("a", 1)])
    def test_observed_arguments_must_be_a_tuple_of_strings(self, args):
        data = load_data('T = {"a"}\nP(T)\nP("a") = 1\n')
        with pytest.raises(DataError, match="predicate='P'.*must be a tuple of strings"):
            data.add_observation(GroundAtom("P", args), 0.5)
        assert dict(data.observations) == {GroundAtom("P", ("a",)): 1.0}

    def test_predicate_needs_an_argument_type(self):
        data = load_data('T = {"a"}\n')
        with pytest.raises(DataError, match="predicate P has no argument types"):
            data.declare_predicate("P", ())
        with pytest.raises(DataError, match="predicate F has no argument types"):
            data.register_functional("F", iter(()), lambda: 1.0)
        assert not data.predicates


class TestObservationRows:
    def test_view_shows_later_observations(self):
        data = load_data(FRIENDS_DATA)
        view = data.observations
        assert len(view) == 0 and GroundAtom("Friends", ("p1", "p2")) not in view
        data.add_observation(GroundAtom("Friends", ("p1", "p2")), 0.25)
        assert view[GroundAtom("Friends", ("p1", "p2"))] == 0.25
        assert list(view) == [GroundAtom("Friends", ("p1", "p2"))]

    def test_view_is_read_only(self):
        data = load_data(ADVISOR_DATA)
        coding = data.coding()
        atom = GroundAtom("Advises", ("Bob", "Don"))
        with pytest.raises(TypeError):
            data.observations[atom] = 1.0
        with pytest.raises((TypeError, AttributeError)):
            del data.observations[GroundAtom("Advises", ("Alexis", "Don"))]
        assert atom not in data.observations
        assert data.coding() is coding

    def test_repeated_atom_keeps_its_last_value_and_counts_once(self):
        data = load_data(
            'T = {"a", "b"}\nP(T)\nQ(T, T) (closed)\n'
            'P("b") = 1\nQ("a", "b") = 0.5\nP("a") = 0.25\nP("b") = 0\n'
        )
        assert len(data.observations) == 3
        assert dict(data.observations) == {
            GroundAtom("P", ("a",)): 0.25,
            GroundAtom("P", ("b",)): 0.0,
            GroundAtom("Q", ("a", "b")): 0.5,
        }
        codes, values = data.coding().observed["P"]
        assert codes.tolist() == [[0], [1]] and values.tolist() == [0.25, 0.0]

    def test_rows_too_wide_for_one_key_merge_alike(self):
        # 600 ** 7 atoms: more than one int64 key can number.
        data = DataSet({"T": ["c%03d" % i for i in range(600)]},
                       [PredicateDef("W", ("T",) * 7, closed=True)])
        for k, c in enumerate(["c001", "c000", "c001"]):
            data.add_observation(GroundAtom("W", (c,) * 7), k / 4)
        assert list(data.observations.items()) == [
            (GroundAtom("W", ("c001",) * 7), 0.5), (GroundAtom("W", ("c000",) * 7), 0.25)
        ]
        codes, values = data.coding().observed["W"]
        assert codes.tolist() == [[0] * 7, [1] * 7] and values.tolist() == [0.25, 0.5]

    def test_coding_matches_the_view_on_a_synth_network(self):
        data = load_data(generate_network(SynthNetworkSpec(n_users=60, seed=2))[0])
        coding = data.coding()
        by_predicate = {}
        for atom, value in data.observations.items():
            codes = [coding.code[a] for a in atom.args]
            by_predicate.setdefault(atom.predicate, []).append((codes, value))
        assert sorted(coding.observed) == sorted(by_predicate)
        for name, rows in by_predicate.items():
            rows.sort()
            codes, values = coding.observed[name]
            assert codes.dtype == np.intp and values.dtype == np.float64
            np.testing.assert_array_equal(codes, np.array([r[0] for r in rows], dtype=np.intp))
            np.testing.assert_array_equal(values, np.array([r[1] for r in rows]))


class TestVariableTable:
    def test_open_atoms_indexed_closed_folded(self):
        data = load_data(ADVISOR_DATA)
        table, index = build_variable_table(data)
        assert table.size == 4  # Advises over 2 professors x 2 students
        assert GroundAtom("Department", ("Alexis", "Computer_Science")) not in index
        observed_atoms = {table.labels[i] for i in table.observed}
        assert observed_atoms == {GroundAtom("Advises", ("Alexis", "Don"))}


class TestCachedCoding:
    def test_grounding_reuses_the_data_sets_coding(self):
        data = load_data(FRIENDS_DATA)
        mrf = ground_program(parse_program("0.5 : Friends(A, B) -> Friends(B, A)"), data)
        assert mrf.table is data.coding().table

    def test_predicate_declared_after_grounding_enters_the_table(self):
        data = load_data(FRIENDS_DATA)
        first = ground_program(parse_program("0.5 : Friends(A, B) -> Friends(B, A)"), data)
        data.declare_predicate("Likes", ("Person",))
        second = ground_program(parse_program("0.5 : Friends(A, B) -> Likes(B)"), data)
        likes = [GroundAtom("Likes", (p,)) for p in ("p1", "p2", "p3")]
        assert not set(likes) & set(first.table.labels)
        assert second.table.labels == first.table.labels + tuple(likes)  # Likes sorts after
        assert second.potentials[0].linfun.terms == ((0, 1.0), (9, -1.0))  # Friends - Likes

    def test_functional_registered_after_grounding_stays_out_of_the_table(self):
        data = load_data(FRIENDS_DATA)
        first = ground_program(parse_program("0.5 : Friends(A, B) -> Friends(B, A)"), data)
        data.register_functional("Near", ("Person", "Person"), lambda a, b: 0.5 + 0.5 * (a == b))
        second = ground_program(parse_program("0.5 : Near(A, B) -> Friends(A, B)"), data)
        assert second.table.labels == first.table.labels
        assert [p.linfun.offset for p in second.potentials[:3]] == [1.0, 0.5, 0.5]
        assert second.potentials[1].linfun.terms == ((1, -1.0),)


SHARED_DATA = """
Person = {"p1", "p2", "p3", "p4"}
Knows(Person, Person) (closed)
Likes(Person)
Trusts(Person)
Knows("p1", "p2") = 1
Knows("p2", "p3") = 0.5
Knows("p3", "p1") = 0
Knows("p4", "p4") = 1
"""
# Both rules join the same closed atom; the p4 self-loop puts one table
# index twice in a row.
SHARED_PROGRAM = """
1 : Likes(A) & Knows(A, B) -> Likes(B)
0.5 : Trusts(A) & Knows(A, B) -> Trusts(B) ^2
"""


class TestSharedJoins:
    @pytest.mark.parametrize("prune", [False, True])
    def test_rules_sharing_a_closed_atom_ground_as_each_alone(self, prune):
        rules = parse_program(SHARED_PROGRAM).rules
        data = load_data(SHARED_DATA)
        together = [ground_logical_rule(r, data, rule_id=k, prune=prune) for k, r in enumerate(rules)]
        assert len(data.coding().memo) == 1  # one substitution matrix for both
        for k, rule in enumerate(rules):
            alone = ground_logical_rule(rule, load_data(SHARED_DATA), rule_id=k, prune=prune)
            assert together[k].codes.tolist() == alone.codes.tolist()
            assert together[k].row_ground.tolist() == alone.row_ground.tolist()
            for name, _ in PotentialRows.FIELDS:
                shared, own = getattr(together[k].rows, name), getattr(alone.rows, name)
                assert shared.dtype == own.dtype and shared.tolist() == own.tolist(), name

    def test_memo_does_not_outlive_a_data_change(self):
        program = parse_program(SHARED_PROGRAM)
        data = load_data(SHARED_DATA)
        first = ground_program(program, data, prune=True)
        coding = data.coding()
        data.add_observation(GroundAtom("Knows", ("p2", "p4")), 1.0)
        second = ground_program(program, data, prune=True)
        assert data.coding() is not coding
        fresh = load_data(SHARED_DATA + 'Knows("p2", "p4") = 1\n')
        assert second.to_json() == ground_program(program, fresh, prune=True).to_json()
        assert second.to_json() != first.to_json()


class TestLogicalGrounding:
    def test_friends_transitivity_full_enumeration(self):
        data = load_data(FRIENDS_DATA)
        prog = parse_program("3 : Friends(A, B) & Friends(B, C) -> Friends(C, A) ^2")
        grounds = ground_logical_rule(prog.rules[0], data)
        assert len(grounds) == 27  # all substitutions over the 3-constant type

    def test_friends_fixture_six_groundings(self):
        # The worked three-person example: distinct persons only, expressed
        # with the inequality comparisons that blocking rules use.
        data = load_data(FRIENDS_DATA)
        prog = parse_program(
            "3 : Friends(A, B) & Friends(B, C) & (A != B) & (B != C) & (A != C)"
            " -> Friends(C, A) ^2"
        )
        grounds = ground_logical_rule(prog.rules[0], data, prune=True)
        assert len(grounds) == 6
        _, index = build_variable_table(data)
        for g in grounds:
            (pot,) = g.potentials
            assert pot.exponent == 2
            assert sorted(c for _, c in pot.linfun.terms) == [-1.0, 1.0, 1.0]
            assert pot.linfun.offset == -1.0
        sub = dict(grounds[0].substitution)
        assert set(sub) == {"A", "B", "C"}

    def test_specific_grounding_coefficients(self):
        data = load_data(FRIENDS_DATA)
        prog = parse_program(
            "3 : Friends(A, B) & Friends(B, C) & (A != B) & (B != C) & (A != C)"
            " -> Friends(C, A) ^2"
        )
        grounds = ground_logical_rule(prog.rules[0], data, prune=True)
        _, index = build_variable_table(data)
        target = {
            ("A", "p1"): index[GroundAtom("Friends", ("p1", "p2"))],
            ("B", "p2"): index[GroundAtom("Friends", ("p2", "p3"))],
        }
        match = [g for g in grounds if dict(g.substitution) == {"A": "p1", "B": "p2", "C": "p3"}]
        (g,) = match
        (pot,) = g.potentials
        terms = dict(pot.linfun.terms)
        assert terms[index[GroundAtom("Friends", ("p1", "p2"))]] == 1.0
        assert terms[index[GroundAtom("Friends", ("p2", "p3"))]] == 1.0
        assert terms[index[GroundAtom("Friends", ("p3", "p1"))]] == -1.0

    def test_observed_body_atom_constant_potential_emitted(self):
        data = load_data(
            'T = {"a"}\nEvidence(T) (closed)\nOut(T)\n'
        )  # Evidence("a") defaults to 0
        prog = parse_program("1 : Evidence(X) -> Out(X)")
        grounds = ground_logical_rule(prog.rules[0], data)
        assert len(grounds) == 1  # emitted even though never active
        (pot,) = grounds[0].potentials
        values = np.zeros(1)
        table, _ = build_variable_table(data)
        assert max(fold_observed(pot.linfun, table).offset, 0.0) == 0.0
        pruned = ground_logical_rule(prog.rules[0], data, prune=True)
        assert pruned == []

    def test_prior_rule_counts(self):
        data = load_data('T = {"a", "b"}\nLink(T, T)\n')
        prog = parse_program("0.1 : !Link(A, B)")
        mrf = ground_program(prog, data)
        assert len(mrf.potentials) == 4
        assert len(mrf.templates) == 1
        assert mrf.templates[0].groundings == 4

    def test_hard_logical_rule_becomes_inequality(self):
        data = load_data(FRIENDS_DATA)
        prog = parse_program("Friends(A, B) -> Friends(B, A) .")
        grounds = ground_logical_rule(prog.rules[0], data)
        assert all(g.constraints for g in grounds)
        assert all(g.constraints[0].relation is Relation.LEQ for g in grounds)

    def test_arity_mismatch(self):
        data = load_data(FRIENDS_DATA)
        prog = parse_program("1 : Friends(A) -> Friends(A, A)")
        with pytest.raises(GroundingError):
            ground_logical_rule(prog.rules[0], data)

    def test_comparison_only_variable_rejected(self):
        data = load_data(FRIENDS_DATA)
        prog = parse_program("1 : (A != B) -> Friends(A, A)")
        with pytest.raises(GroundingError, match="comparison"):
            ground_logical_rule(prog.rules[0], data)

    def test_inequality_functional_semantics(self):
        # A != B contributes 1 for distinct constants and 0 for equal ones.
        data = load_data('T = {"a", "b"}\nSame(T, T)\n')
        prog = parse_program("1 : (A != B) -> Same(A, B)")
        grounds = ground_logical_rule(prog.rules[0], data)
        table, index = build_variable_table(data)
        for g in grounds:
            sub = dict(g.substitution)
            (pot,) = g.potentials
            idx = index[GroundAtom("Same", (sub["A"], sub["B"]))]
            # l = v - y: distinct pairs (v=1) demand Same, equal pairs are vacuous
            expected_offset = 1.0 if sub["A"] != sub["B"] else 0.0
            assert dict(pot.linfun.terms)[idx] == -1.0
            assert pot.linfun.offset == expected_offset


class TestArithmeticGrounding:
    def test_mutual_exclusivity_constraints(self):
        data = load_data('Person = {"a", "b"}\nLiberal(Person)\nConservative(Person)\n')
        prog = parse_program("Liberal(P) + Conservative(P) = 1 .")
        grounds = ground_arithmetic_rule(prog.rules[0], data)
        assert len(grounds) == 2
        for g in grounds:
            (con,) = g.constraints
            assert con.relation is Relation.EQ
            assert sorted(c for _, c in con.linfun.terms) == [1.0, 1.0]
            assert con.linfun.offset == -1.0

    def test_extroversion_select_and_average(self):
        data = load_data(
            'P = {"e", "f1", "f2", "f3"}\n'
            "Friends(P, P) (closed)\n"
            "Extroverted(P)\n"
            'Friends("e", "f1") = 1\n'
            'Friends("f2", "e") = 1\n'
        )
        prog = parse_program(
            "10 : Extroverted(X) <= 1 / |Y| Extroverted(+Y) ^2\n"
            "{Y : Friends(X, Y) | Friends(Y, X)}"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GroundingWarning)
            grounds = ground_arithmetic_rule(prog.rules[0], data, prune=True)
        table, index = build_variable_table(data)
        by_sub = {dict(g.substitution)["X"]: g for g in grounds}
        g = by_sub["e"]
        (pot,) = g.potentials
        assert pot.exponent == 2
        terms = dict(pot.linfun.terms)
        # friends of "e" are f1 (outgoing) and f2 (incoming): average of two
        assert terms[index[GroundAtom("Extroverted", ("e",))]] == pytest.approx(1.0)
        assert terms[index[GroundAtom("Extroverted", ("f1",))]] == pytest.approx(-0.5)
        assert terms[index[GroundAtom("Extroverted", ("f2",))]] == pytest.approx(-0.5)

    def test_empty_neighborhood_dropped_with_warning(self):
        data = load_data(
            'P = {"x", "y"}\nFriends(P, P) (closed)\nExtroverted(P)\n'
        )
        prog = parse_program(
            "10 : Extroverted(X) <= 1 / |Y| Extroverted(+Y) ^2\n{Y : Friends(X, Y)}"
        )
        with pytest.warns(GroundingWarning, match="division by an empty sum"):
            grounds = ground_arithmetic_rule(prog.rules[0], data)
        assert grounds == []

    def test_min_builtin_with_cardinalities(self):
        data = load_data(
            'A = {"a1", "a2"}\nB = {"b1", "b2", "b3"}\nMatched(A, B)\n'
        )
        prog = parse_program("Matched(+X, +Y) = @Min[|X|, |Y|] .")
        grounds = ground_arithmetic_rule(prog.rules[0], data)
        (g,) = grounds
        (con,) = g.constraints
        assert con.linfun.offset == -2.0  # min(|X|=2, |Y|=3) moved across
        assert len(con.linfun.terms) == 6

    def test_weighted_equality_emits_two_potentials(self):
        data = load_data('T = {"a"}\nP(T)\nQ(T)\n')
        prog = parse_program("2 : P(X) = Q(X)")
        grounds = ground_arithmetic_rule(prog.rules[0], data)
        (g,) = grounds
        assert len(g.potentials) == 2
        first, second = g.potentials
        assert dict(first.linfun.terms) == {
            k: -v for k, v in dict(second.linfun.terms).items()
        }

    def test_weighted_geq_flips_direction(self):
        data = load_data('T = {"a"}\nP(T)\n')
        prog = parse_program("1 : P(X) >= 0.5")
        grounds = ground_arithmetic_rule(prog.rules[0], data)
        (pot,) = grounds[0].potentials
        # distance to satisfaction of 0.5 - P(X) <= 0
        assert dict(pot.linfun.terms)[0] == -1.0
        assert pot.linfun.offset == 0.5

    def test_select_referencing_open_predicate_rejected(self):
        data = load_data('T = {"a"}\nOpenP(T)\nTarget(T, T)\n')
        prog = parse_program("Target(X, +Y) = 1 .\n{Y : OpenP(Y)}")
        with pytest.raises(GroundingError, match="open predicate"):
            ground_arithmetic_rule(prog.rules[0], data)

    def test_select_truth_is_nonzero_not_threshold(self):
        data = load_data(
            'T = {"a", "b", "c"}\nX = {"x"}\nW(T) (closed)\nTarget(X, T)\n'
            'W("a") = 0.3\nW("b") = 0\n'
        )
        prog = parse_program("Target(X, +Y) = 1 .\n{Y : W(Y)}")
        grounds = ground_arithmetic_rule(prog.rules[0], data)
        (g,) = grounds
        (con,) = g.constraints
        # only "a" survives: 0.3 counts as true, explicit 0 and default 0 do not
        assert len(con.linfun.terms) == 1

    def test_violated_constant_constraint_errors(self):
        data = load_data('T = {"a"}\nLabel(T, T) (closed)\n')
        prog = parse_program("Label(X, +L) = 1 .")
        with pytest.raises(GroundingError, match="violated"):
            ground_arithmetic_rule(prog.rules[0], data)

    def test_variable_both_plain_and_summed_rejected(self):
        data = load_data('P = {"a", "b"}\nG(P, P)\n')
        prog = parse_program("G(X, +X) <= 1 .")
        with pytest.raises(GroundingError) as err:
            ground_program(prog, data)
        assert str(err.value) == "1:1: variable X is used both plain and as a sum variable"

    @pytest.mark.parametrize("clause, message", [
        ("F(Y)", "F takes 2 arguments, rule supplies 1"),
        ('F(Y, "zzz")', 'constant "zzz" does not have type P'),
    ])
    def test_select_atoms_checked_like_rule_atoms(self, clause, message):
        data = load_data('P = {"a", "b"}\nF(P, P) (closed)\nE(P)\nG(P, P)\n')
        prog = parse_program("G(X, +Y) <= 1 .\n{Y : %s}" % clause)
        with pytest.raises(GroundingError) as err:
            ground_program(prog, data)
        assert str(err.value) == "1:1: " + message


class TestGroundProgram:
    def test_empty_program(self):
        data = load_data(DOCUMENT_DATA)
        mrf = ground_program(parse_program(""), data)
        assert mrf.table.size == 4
        assert not mrf.potentials and not mrf.constraints

    def test_counts_and_evaluation_build_no_objects(self, monkeypatch):
        data = load_data(FRIENDS_DATA)
        prog = parse_program(
            "1 : Friends(A, B) -> Friends(B, A)\nFriends(A, B) -> Friends(B, A) ."
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # constant A=B groundings
            mrf = ground_program(prog, data)

        def refuse(*args):
            raise AssertionError("objects built")

        with monkeypatch.context() as patch:
            patch.setattr(PotentialRows, "objects", refuse)
            patch.setattr(ConstraintRows, "objects", refuse)
            assert len(mrf.potentials) == 9 and len(mrf.constraints) == 9
            assert mrf.energy(np.full(mrf.n_free, 0.5)) == 0.0
            assert mrf.check_feasible(np.full(mrf.n_free, 0.5))[0]
        origins = [p.origin for p in mrf.potentials]
        assert origins[:2] == ["rule 0 {A=p1, B=p1}", "rule 0 {A=p1, B=p2}"]
        assert mrf.constraints[1].linfun.terms == ((1, 1.0), (3, -1.0))

    def test_template_per_rule_with_weights(self):
        data = load_data('T = {"a", "b"}\nLink(T, T)\n')
        prog = parse_program("0.1 : !Link(A, B)\nLink(A, A) = 0 .")
        mrf = ground_program(prog, data)
        assert len(mrf.templates) == 2
        assert mrf.weights[0] == pytest.approx(0.1)
        assert mrf.weights[1] == 0.0  # hard rules carry no weight
        assert mrf.templates[1].groundings == 0

    def test_determinism_byte_identical(self):
        data_text = (
            'T = {"b", "a", "c"}\nLink(T, T)\nSeed(T) (closed)\nSeed("a") = 1\n'
        )
        prog_text = "0.2 : Seed(A) & Link(A, B) -> Link(B, A)\nLink(A, +B) <= 1 .\n"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # degenerate A=B groundings
            one = ground_program(parse_program(prog_text), load_data(data_text))
            two = ground_program(parse_program(prog_text), load_data(data_text))
        assert one.to_json() == two.to_json()

    def test_error_aggregation_carries_location(self):
        data = load_data(DOCUMENT_DATA)
        prog = parse_program("1 : Missing(A) -> Category(A, A)\n2 : Also(B) -> Category(B, B)")
        with pytest.raises(GroundingError) as err:
            ground_program(prog, data)
        assert "Missing" in str(err.value) and "Also" in str(err.value)
        assert "1:1" in str(err.value) and "2:1" in str(err.value)

    def test_citation_network_hand_count(self):
        # Six documents, two labels, four citation links. By hand:
        # unpruned propagation = 6 docs x 6 docs x 2 labels = 72 groundings,
        # pruned propagation = 4 links x 2 labels = 8, one sum constraint
        # per document = 6.
        data = load_data(
            'Doc = {"d1", "d2", "d3", "d4", "d5", "d6"}\n'
            'Label = {"politics", "sports"}\n'
            "Cites(Doc, Doc) (closed)\n"
            "Category(Doc, Label)\n"
            'Cites("d1", "d2") = 1\n'
            'Cites("d2", "d3") = 1\n'
            'Cites("d4", "d5") = 1\n'
            'Cites("d5", "d6") = 1\n'
        )
        prog = parse_program(
            "1 : Category(A, C) & Cites(A, B) -> Category(B, C)\n"
            "Category(D, +C) = 1 .\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # degenerate self-cite groundings
            full = ground_program(prog, data)
        assert len(full.potentials) == 72
        assert len(full.constraints) == 6
        pruned = ground_program(prog, data, prune=True)
        assert len(pruned.potentials) == 8
        assert len(pruned.constraints) == 6

    def test_observation_substitution_equivalence(self):
        # Observing an atom at v gives the same energies as leaving it free
        # and pinning its coordinate to v.
        base = 'T = {"a", "b"}\nLink(T, T)\n%s'
        prog = parse_program("0.7 : Link(A, B) -> Link(B, A)\n0.2 : !Link(A, A)")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # degenerate A=B groundings
            observed = ground_program(prog, load_data(base % 'Link("a", "b") = 0.8\n'))
            free = ground_program(prog, load_data(base % ""))
        pinned_idx = [
            i
            for i, atom in enumerate(free.table.labels)
            if atom == GroundAtom("Link", ("a", "b"))
        ][0]
        rng = np.random.default_rng(0)
        for _ in range(20):
            y_free = rng.uniform(0, 1, size=free.n_free)
            y_free[free.table.position[pinned_idx]] = 0.8
            y_obs = np.array(
                [
                    y_free[free.table.position[i]]
                    for i, atom in enumerate(free.table.labels)
                    if atom != GroundAtom("Link", ("a", "b"))
                ]
            )
            assert observed.energy(y_obs) == pytest.approx(free.energy(y_free))


# -- differential check against the brute-force reference grounder ----------

CONSTANTS = ("a", "b", "c", "d")
PREDICATES = (("P", ("T1",)), ("Q", ("T1", "T2")), ("R", ("T2", "T2")), ("S", ("T2",)))
RULE_POOL = (
    "0.7 : P(A) & Q(A, B) -> S(B)",
    "0.5 : Q(B, A) -> R(A, A) ^2",
    "1.2 : R(A, B) & R(B, C) -> R(A, C)",
    "0.4 : !P(A)",
    "0.9 : S(B) & !Q(A, B) -> P(A)",
    "Q(A, B) -> S(B) .",
    "!R(A, B) | Q(B, A) .",
    '0.3 : Q("a", B) -> S(B)',
    '0.8 : R(A, "c") & P(A) -> S(A)',
    "P(A) + S(A) <= 1 .",
    "0.6 : P(A) + S(A) >= 1 ^2",
    "0.5 : Q(A, B) = R(B, B)",
    "S(A) + 2 R(A, A) <= 2 .",
    "0.5 : Q(A, B) & A != B -> S(B)",
    'Q(A, B) & (A != "b") -> S(B) .',
    "0.4 : P(A) & Q(A, B) -> P(A)",
    "0.3 : P(A) & P(A) & Q(A, B) -> S(B)",
    "0.2 : R(A, A) -> S(A) ^2",
    "Q(A, +B) <= 1 .",
    "0.6 : P(A) + Q(A, +B) >= 1 ^2",
    "0.6 : S(B) <= 1 / |A| Q(+A, B)\n{A : P(A)}",
    "Q(A, +B) = 1 .\n{B : R(B, B) | !S(B)}",
    '0.4 : Q(+A, +B) <= @Min[|A|, |B|]\n{A : P(A) & A != "b"}\n{B : S(B) -> R(B, B)}',
    "0.7 : R(A, +B) >= @Max[|B| / 2, 0.5] S(A)\n{B : R(A, B) -> !Q(A, B)}",
    "0.3 : P(A) = 2 / (|B| - 1) S(+B)\n{B : !(S(B) & R(B, B))}",
    '0.5 : P(A) + P(A) + Q(A, +B) <= |B| S("c")',
    'Q(A, +B) <= 1 .\n{B : R(B, "c")}',
)


@st.composite
def grounding_cases(draw):
    """(data text, expected load error or None, program text)."""
    types = {}
    for name in ("T1", "T2"):
        members = draw(st.lists(st.sampled_from(CONSTANTS), min_size=1, max_size=4, unique=True))
        types[name] = members  # drawn order, so the loader has to sort
    lines = ["%s = {%s}" % (t, ", ".join('"%s"' % c for c in cs)) for t, cs in types.items()]
    for name, arg_types in PREDICATES:
        closed = " (closed)" if draw(st.booleans()) else ""
        lines.append("%s(%s)%s" % (name, ", ".join(arg_types), closed))
    observations = []
    for _ in range(draw(st.integers(0, 12))):
        name, arg_types = draw(st.sampled_from(PREDICATES))
        args = [draw(st.sampled_from(types[t])) for t in arg_types]
        observations.append((name, args, draw(st.sampled_from([0.0, 0.25, 1.0]))))
    error = None
    if observations and draw(st.integers(0, 4)) == 0:
        # One constant outside its argument's type: of the other type, or of none.
        k = draw(st.integers(0, len(observations) - 1))
        name, args, value = observations[k]
        position = draw(st.integers(0, len(args) - 1))
        type_name = dict(PREDICATES)[name][position]
        outside = [c for c in CONSTANTS + ("e",) if c not in types[type_name]]
        args[position] = draw(st.sampled_from(outside))
        error = '%d:1: constant "%s" is not declared with type %s' % (
            len(lines) + k + 1, args[position], type_name,
        )
    for name, args, value in observations:
        lines.append("%s(%s) = %g" % (name, ", ".join('"%s"' % c for c in args), value))
    rules = draw(st.lists(st.sampled_from(RULE_POOL), min_size=1, max_size=4))
    return "\n".join(lines) + "\n", error, "\n".join(rules) + "\n"


def _ground_or_error(grounder, program, data, prune):
    """The model's JSON or the error text, and the texts of the grounding warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("ignore", UserWarning)  # constant potentials when not pruning
        warnings.simplefilter("always", GroundingWarning)
        try:
            result = grounder(program, data, prune=prune).to_json()
        except GroundingError as exc:
            result = "GroundingError: %s" % exc
    return result, [str(w.message) for w in caught]


@settings(max_examples=150, deadline=None)
@given(case=grounding_cases(), prune=st.booleans())
def test_grounding_matches_brute_force_reference(case, prune):
    data_text, load_error, program_text = case
    if load_error is not None:
        with pytest.raises(DataError) as err:
            load_data(data_text)
        assert str(err.value) == load_error
        return
    data = load_data(data_text)
    # The drawn program, then every rule of the pool on its own, so that each
    # example exercises each rule whatever errors the others raise.
    for text in [program_text, *RULE_POOL]:
        program = parse_program(text)
        assert _ground_or_error(ground_program, program, data, prune) == _ground_or_error(
            reference_ground_program, program, data, prune
        ), text


# A functional predicate over (T1, T2), registered on the drawn data sets.
FUNCTIONAL_RULES = (
    "0.6 : F(A, B) -> Q(A, B)",
    "0.7 : F(A, B) & R(B, B) -> S(B) ^2",
    "F(A, B) & P(A) -> S(B) .",
)


def _letter_distance(a, b):
    return abs(ord(a) - ord(b)) / 4


@settings(max_examples=60, deadline=None)
@given(case=grounding_cases(), prune=st.booleans())
def test_functional_grounding_matches_brute_force_reference(case, prune):
    data_text, load_error, program_text = case
    assume(load_error is None)
    data = load_data(data_text)
    data.register_functional("F", ("T1", "T2"), _letter_distance)
    for text in [program_text + "\n".join(FUNCTIONAL_RULES), *FUNCTIONAL_RULES]:
        program = parse_program(text)
        assert _ground_or_error(ground_program, program, data, prune) == _ground_or_error(
            reference_ground_program, program, data, prune
        ), text


def _opposing_program(squared):
    """Opinion priors pulling each way plus opposing propagation per edge type."""
    suffix = " ^2" if squared else ""
    rules = [
        "0.5 : Opinion(U) -> Liberal(U)" + suffix,
        "0.5 : !Opinion(U) -> Conservative(U)" + suffix,
    ]
    for t, w in enumerate(DEFAULT_EDGE_WEIGHTS, start=1):
        rules.append("%g : Liberal(A) & Edge%d(A, B) -> Liberal(B)%s" % (w, t, suffix))
        rules.append("%g : Conservative(A) & Edge%d(A, B) -> Conservative(B)%s" % (w, t, suffix))
    rules.append("Liberal(U) + Conservative(U) = 1 .")
    return "\n".join(rules) + "\n"


# Unpruned, every edge rule grounds over all user pairs: at 300 users that
# is over a million potentials, so the unpruned case uses a smaller network.
@pytest.mark.parametrize("users, prune", [(300, True), (60, False)])
@pytest.mark.parametrize("squared", [False, True])
def test_synthetic_network_matches_reference(users, prune, squared):
    data_text, _ = generate_network(SynthNetworkSpec(n_users=users, seed=5))
    program = parse_program(_opposing_program(squared))
    data = load_data(data_text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # constant potentials when not pruning
        model = ground_program(program, data, prune=prune)
        text = model.to_json()
        assert text == reference_ground_program(program, data, prune=prune).to_json()
        loaded = HlMrf.from_json(text)
    opts = SolveOptions(max_iter=200)  # equal iterates, converged or not
    y, diag = solve_map(model, opts)
    y_loaded, diag_loaded = solve_map(loaded, opts)
    assert diag.iterations == diag_loaded.iterations
    np.testing.assert_array_equal(y, y_loaded)


@pytest.mark.parametrize("program_text", [
    # only hard rules: no potential rows
    "Liberal(U) + Conservative(U) = 1 .\nLiberal(A) & Edge1(A, B) -> Liberal(B) .\n",
    # no hard rules: no constraint rows
    "0.5 : Opinion(U) -> Liberal(U)\n0.9 : Liberal(A) & Edge1(A, B) -> Liberal(B) ^2\n",
])
@pytest.mark.parametrize("prune", [False, True])
def test_one_sided_programs_match_reference(program_text, prune):
    data_text, _ = generate_network(SynthNetworkSpec(n_users=30, seed=2))
    program = parse_program(program_text)
    data = load_data(data_text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # constant potentials when not pruning
        model = ground_program(program, data, prune=prune)
        text = model.to_json()
        assert text == reference_ground_program(program, data, prune=prune).to_json()
        assert HlMrf.from_json(text).to_json() == text
    hard = program.rules[0].weight is None
    empty = model.potential_rows if hard else model.constraint_rows
    assert empty.size == 0 and empty.positions.dtype == np.intp
    assert len(model.constraints if hard else model.potentials) > 0


def test_wide_rows_are_ranked_in_order():
    # Rows too wide to pack into int64 keys are ranked together instead;
    # the keys must order and match rows exactly as packed keys do.
    rng = np.random.default_rng(0)
    rows = np.unique(rng.integers(0, 5, size=(60, 3)), axis=0)
    queries = rng.integers(0, 5, size=(30, 3))
    packed = _keys(5, rows, queries)
    ranked = _keys(2**30, rows, queries)
    assert np.all(np.diff(ranked[0]) > 0)
    np.testing.assert_array_equal(_find(*ranked)[1], _find(*packed)[1])
