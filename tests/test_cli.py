import dataclasses
import json

import numpy as np
import pytest

from softlogic.cli import _solve_options, build_parser, run_cli
from softlogic.ground import ground_program, load_data
from softlogic.infer import SolveOptions
from softlogic.lang import parse_program
from softlogic.learn import TrainingInstance, perceptron_train
from softlogic.model import HlMrf

from test_lang import PATTERN_CORPUS

FIXTURE_PROGRAM = """
1 : High1(X) -> On(X) ^2
1 : High2(X) -> Also(X) ^2
On(X) + Also(X) <= 1 .
"""

FIXTURE_DATA = """
Item = {"a"}
High1(Item) (closed)
High2(Item) (closed)
On(Item)
Also(Item)
High1("a") = 0.9
High2("a") = 0.6
"""


@pytest.fixture
def fixture_paths(tmp_path):
    program = tmp_path / "model.psl"
    data = tmp_path / "model.data"
    program.write_text(FIXTURE_PROGRAM)
    data.write_text(FIXTURE_DATA)
    return program, data


def run(capsys, *argv):
    code = run_cli([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_pattern_corpus_validates(self, tmp_path, capsys):
        path = tmp_path / "patterns.psl"
        path.write_text(PATTERN_CORPUS)
        code, out, _ = run(capsys, "validate", "--program", path)
        assert code == 0

    def test_syntax_error_exit_one_with_location(self, tmp_path, capsys):
        path = tmp_path / "bad.psl"
        path.write_text("1 : A(X) ->")
        code, _, err = run(capsys, "validate", "--program", path)
        assert code == 1
        assert "error:" in err and "1:" in err

    def test_unknown_flag_exits_two(self, fixture_paths):
        with pytest.raises(SystemExit) as exc:
            run_cli(["infer", "--bogus"])
        assert exc.value.code == 2

    def test_workers_flag_is_gone(self, fixture_paths, capsys):
        program, data = fixture_paths
        with pytest.raises(SystemExit) as exc:
            run(capsys, "infer", "--program", program, "--data", data, "--workers", "2")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "--workers" in err and "Traceback" not in err


class TestGround:
    @pytest.mark.parametrize("command", ["ground", "learn"])
    @pytest.mark.parametrize("missing", ["--program", "--data"])
    def test_program_and_data_are_required(
        self, fixture_paths, tmp_path, capsys, command, missing
    ):
        program, data = fixture_paths
        sources = {"--program": program, "--data": data}
        del sources[missing]
        argv = [command, *(x for pair in sources.items() for x in pair)]
        if command == "learn":
            argv += ["--truth", tmp_path / "truth.data"]
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and missing in err and "Traceback" not in err

    def test_weights_file_sets_the_saved_weights(self, fixture_paths, tmp_path, capsys):
        program, data = fixture_paths
        weights = tmp_path / "weights.txt"
        weights.write_text("# softlogic-weights v1\n1\t2.5\tsource\n")
        out = tmp_path / "model.json"
        code, _, _ = run(
            capsys, "ground", "--program", program, "--data", data, "--weights", weights,
            "--out", out,
        )
        assert code == 0
        assert HlMrf.from_json(out.read_text()).weights[:2].tolist() == [1.0, 2.5]


class TestInfer:
    def test_constrained_squared_fixture(self, fixture_paths, capsys):
        program, data = fixture_paths
        code, out, _ = run(
            capsys,
            "infer", "--program", program, "--data", data,
            "--eps-abs", "1e-9", "--eps-rel", "1e-9",
        )
        assert code == 0
        assert "0.650000" in out and "0.350000" in out
        line = [l for l in out.splitlines() if l.startswith("On\t")][0]
        assert line == "On\ta\t0.650000"

    def test_ground_then_infer_matches_one_shot(self, fixture_paths, tmp_path, capsys):
        program, data = fixture_paths
        model_path = tmp_path / "ground.json"
        code, _, _ = run(
            capsys, "ground", "--program", program, "--data", data, "--out", model_path
        )
        assert code == 0
        mrf = HlMrf.from_json(model_path.read_text())

        code, out_model, _ = run(
            capsys, "infer", "--model", model_path, "--eps-abs", "1e-9", "--eps-rel", "1e-9"
        )
        code2, out_direct, _ = run(
            capsys,
            "infer", "--program", program, "--data", data,
            "--eps-abs", "1e-9", "--eps-rel", "1e-9",
        )
        assert out_model == out_direct

        def objective(text):
            values = {}
            for line in text.strip().splitlines():
                pred, args, value = line.split("\t")
                values[(pred, args)] = float(value)
            y = [
                values[(atom.predicate, ",".join(atom.args))]
                for i, atom in enumerate(mrf.table.labels)
                if i in mrf.table.free_indices
            ]
            return mrf.energy(np.array(y))

        assert objective(out_model) == pytest.approx(objective(out_direct), abs=1e-9)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["constraints"][0].update(relation="geq"),
             "'geq' is not a valid Relation"),
            (lambda d: d["potentials"][0]["linfun"]["terms"][0].__setitem__(1, float("nan")),
             "potential 0 has non-finite coefficient nan"),
            (lambda d: d.pop("potentials"), "missing key 'potentials'"),
        ],
    )
    def test_malformed_model_file_reported(self, fixture_paths, tmp_path, capsys, edit, message):
        program, data = fixture_paths
        model_path = tmp_path / "ground.json"
        run(capsys, "ground", "--program", program, "--data", data, "--out", model_path)
        doc = json.loads(model_path.read_text())
        edit(doc)
        model_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "infer", "--model", model_path)
        assert code == 1 and not out
        assert err.startswith("error: ") and message in err

    def test_end_to_end_determinism(self, fixture_paths, capsys):
        program, data = fixture_paths
        _, first, _ = run(capsys, "infer", "--program", program, "--data", data)
        _, second, _ = run(capsys, "infer", "--program", program, "--data", data)
        assert first == second

    def test_lazy_flag(self, fixture_paths, capsys):
        program, data = fixture_paths
        code, out, _ = run(
            capsys,
            "infer", "--program", program, "--data", data, "--lazy",
            "--eps-abs", "1e-9", "--eps-rel", "1e-9",
        )
        assert code == 0
        assert "0.650000" in out

    def test_trace_stream(self, fixture_paths, capsys):
        program, data = fixture_paths
        code, _, err = run(
            capsys, "infer", "--program", program, "--data", data, "--trace"
        )
        lines = [l for l in err.splitlines() if l.startswith("iter=")]
        assert lines
        assert "primal=" in lines[0] and "dual=" in lines[0] and "objective=" in lines[0]

    def test_missing_inputs_reported(self, capsys):
        code, _, err = run(capsys, "infer")
        assert code == 1
        assert "provide either" in err


class TestConfig:
    def test_flag_beats_config(self, fixture_paths, tmp_path, capsys):
        program, data = fixture_paths
        config = tmp_path / "softlogic.conf"
        # huge tolerances converge on the first iteration
        config.write_text("eps-abs = 100\neps_rel = 100\n")
        _, _, err_config = run(
            capsys,
            "--config", config, "infer", "--program", program, "--data", data, "--trace",
        )
        assert len([l for l in err_config.splitlines() if l.startswith("iter=")]) == 1
        _, _, err_flag = run(
            capsys,
            "--config", config, "infer", "--program", program, "--data", data,
            "--trace", "--eps-abs", "1e-8", "--eps-rel", "1e-8",
        )
        assert len([l for l in err_flag.splitlines() if l.startswith("iter=")]) > 1

    def test_malformed_config(self, fixture_paths, tmp_path, capsys):
        program, data = fixture_paths
        config = tmp_path / "bad.conf"
        config.write_text("rho\n")
        code, _, err = run(
            capsys, "--config", config, "infer", "--program", program, "--data", data
        )
        assert code == 1 and "key = value" in err

    @pytest.mark.parametrize("command", ["infer", "round", "learn"])
    def test_unset_solver_options_are_the_library_defaults(self, command):
        argv = [command, "--program", "p.psl", "--data", "d.data"]
        args = build_parser().parse_args(argv + (["--truth", "t"] if command == "learn" else []))
        defaults = SolveOptions()
        for config, changed in (({}, {}), ({"max_iter": "7"}, {"max_iter": 7})):
            opts = _solve_options(args, config)
            for field in dataclasses.fields(SolveOptions):
                if field.name != "trace":
                    expected = changed.get(field.name, getattr(defaults, field.name))
                    assert getattr(opts, field.name) == expected, field.name

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_config_value_names_key(self, fixture_paths, tmp_path, capsys, value):
        program, data = fixture_paths
        config = tmp_path / "bad.conf"
        config.write_text("eps-abs = %s\n" % value)
        code, _, err = run(
            capsys, "--config", config, "infer", "--program", program, "--data", data
        )
        assert code == 1 and "eps_abs" in err and "finite" in err


    @pytest.mark.parametrize("line", ["workers = 2", "epsabs = 5"])
    def test_unknown_config_key_names_file_and_line(
        self, fixture_paths, tmp_path, capsys, line
    ):
        program, data = fixture_paths
        config = tmp_path / "stale.conf"
        config.write_text("eps-abs = 1e-6\n%s\n" % line)
        code, _, err = run(
            capsys, "--config", config, "infer", "--program", program, "--data", data
        )
        key = line.split(" =")[0]
        assert code == 1
        assert err == "error: %s:2: unknown option %s\n" % (config, key)

    def test_config_keys_of_other_subcommands_are_ignored(
        self, fixture_paths, tmp_path, capsys
    ):
        program, data = fixture_paths
        config = tmp_path / "shared.conf"
        config.write_text("users = 40\nstep-size = 0.5\nC = 0.1\nmax_iter = 500\n")
        code, out, _ = run(
            capsys, "--config", config, "infer", "--program", program, "--data", data
        )
        assert code == 0 and out


class TestWeightsFile:
    @pytest.mark.parametrize(
        "line", ["0\tnan\tsource", "0\tinf\tsource", "zero\t1.0\tsource", "0\tabc\tsource"]
    )
    def test_bad_number_names_line(self, fixture_paths, tmp_path, capsys, line):
        program, data = fixture_paths
        weights = tmp_path / "weights.txt"
        weights.write_text("# softlogic-weights v1\n# comment\n%s\n" % line)
        code, _, err = run(
            capsys, "infer", "--program", program, "--data", data, "--weights", weights
        )
        assert code == 1 and "weights line 3" in err

class TestOutput:
    @pytest.mark.parametrize("command", ["ground", "infer"])
    def test_unwritable_out_reported(self, fixture_paths, tmp_path, capsys, command):
        program, data = fixture_paths
        out = tmp_path / "missing" / "out.txt"
        code, _, err = run(
            capsys, command, "--program", program, "--data", data, "--out", out
        )
        assert code == 1
        assert err.startswith("error: cannot write %s: " % out)
        assert "Traceback" not in err


class TestLearnCommand:
    def test_mle_writes_versioned_weights(self, fixture_paths, tmp_path, capsys):
        program, data = fixture_paths
        truth = tmp_path / "truth.data"
        truth.write_text('On("a") = 1\nAlso("a") = 0\n')
        out = tmp_path / "weights.txt"
        code, _, _ = run(
            capsys,
            "learn", "--program", program, "--data", data, "--truth", truth,
            "--method", "mle", "--steps", "5", "--out", out,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# softlogic-weights v1"
        assert len(lines) == 4  # header + three templates

    def test_learned_weights_feed_back_into_infer(self, fixture_paths, tmp_path, capsys):
        program, data = fixture_paths
        truth = tmp_path / "truth.data"
        truth.write_text('On("a") = 1\nAlso("a") = 0\n')
        weights = tmp_path / "weights.txt"
        run(
            capsys,
            "learn", "--program", program, "--data", data, "--truth", truth,
            "--method", "lme", "--out", weights,
        )
        code, out, _ = run(
            capsys,
            "infer", "--program", program, "--data", data, "--weights", weights,
        )
        assert code == 0 and out.count("\t") >= 4

    def test_missing_truth_atom_reported(self, fixture_paths, tmp_path, capsys):
        program, data = fixture_paths
        truth = tmp_path / "truth.data"
        truth.write_text('On("a") = 1\n')
        code, _, err = run(
            capsys,
            "learn", "--program", program, "--data", data, "--truth", truth,
        )
        assert code == 1 and "missing" in err

    @pytest.mark.parametrize(
        "text, where",
        [
            ('On("a") = 1\nAlso("a" = 0\n', ":2:1: malformed observation"),
            ('On("a") = 1\nItem = {"a"}\nAlso("a") = 0\n', ":2:1: expected an observation"),
            ('On("a") = 1\nAlso("a") = 0 ²\n', ":2:15: unexpected character"),
        ],
    )
    def test_malformed_truth_file_located(self, fixture_paths, tmp_path, capsys, text, where):
        program, data = fixture_paths
        truth = tmp_path / "truth.data"
        truth.write_text(text)
        code, _, err = run(
            capsys,
            "learn", "--program", program, "--data", data, "--truth", truth,
        )
        assert code == 1 and "truth file %s%s" % (truth, where) in err

    @pytest.mark.parametrize(
        "text, where",
        [
            ('On("a") = 1\nOnn("zz") = 1\nAlso("a") = 0\n', ":2:1: no predicate Onn/1"),
            ('On("a", "a") = 1\nAlso("a") = 0\n', ":1:1: no predicate On/2"),
            ('On("a") = 1\nAlso("a") = 0\nOn("a") = 0\n', ':3:1: On("a") given twice'),
            ('On("a") = 1\nAlso("a") = 1.5\n', ":2:1: truth value 1.5 outside [0, 1]"),
        ],
        ids=["unknown-predicate", "wrong-arity", "repeated-atom", "out-of-range"],
    )
    def test_truth_statement_off_the_model_located(
        self, fixture_paths, tmp_path, capsys, text, where
    ):
        # Each of these used to be ignored, overwritten, or rejected later
        # without naming the file.
        program, data = fixture_paths
        truth = tmp_path / "truth.data"
        truth.write_text(text)
        code, _, err = run(
            capsys,
            "learn", "--program", program, "--data", data, "--truth", truth,
        )
        assert code == 1 and "truth file %s%s" % (truth, where) in err

    def test_truth_file_with_comments(self, fixture_paths, tmp_path, capsys):
        program, data = fixture_paths
        truth = tmp_path / "truth.data"
        truth.write_text('// labels\nOn("a") = 1 /* on */\nAlso(/* a */ \'a\') = 0 // off\n')
        code, _, _ = run(
            capsys,
            "learn", "--program", program, "--data", data, "--truth", truth,
            "--method", "mle", "--steps", "2", "--out", tmp_path / "weights.txt",
        )
        assert code == 0

    def test_mle_starts_from_the_weights_file(self, fixture_paths, tmp_path, capsys):
        program, data = fixture_paths
        truth = tmp_path / "truth.data"
        truth.write_text('On("a") = 1\nAlso("a") = 0\n')
        weights = tmp_path / "start.txt"
        weights.write_text("# softlogic-weights v1\n0\t5\tfirst\n1\t3\tsecond\n")

        def learned(*flags):
            out = tmp_path / "learned.txt"
            code, _, _ = run(
                capsys,
                "learn", "--program", program, "--data", data, "--truth", truth,
                "--method", "mle", "--steps", "1", "--out", out, *flags,
            )
            assert code == 0
            return [float(line.split("\t")[1]) for line in out.read_text().splitlines()[1:]]

        mrf = ground_program(parse_program(FIXTURE_PROGRAM), load_data(FIXTURE_DATA))
        start = np.array(mrf.weights, dtype=float)
        start[:2] = [5.0, 3.0]
        labels = [mrf.table.labels[i].predicate for i in mrf.table.free_indices]
        instance = TrainingInstance(
            mrf.with_weights(start), np.array([float(p == "On") for p in labels])
        )
        expected = perceptron_train([instance], init=start, opts=SolveOptions(), steps=1)
        given = learned("--weights", weights)
        assert given == pytest.approx(expected.tolist(), rel=1e-11, abs=1e-12)
        assert given[:2] != pytest.approx(learned()[:2], abs=1e-3)

    def test_lme_rejects_a_weights_file(self, fixture_paths, tmp_path, capsys):
        program, data = fixture_paths
        truth = tmp_path / "truth.data"
        truth.write_text('On("a") = 1\nAlso("a") = 0\n')
        weights = tmp_path / "start.txt"
        weights.write_text("# softlogic-weights v1\n0\t5\tfirst\n")
        out = tmp_path / "learned.txt"
        code, _, err = run(
            capsys,
            "learn", "--program", program, "--data", data, "--truth", truth,
            "--method", "lme", "--weights", weights, "--out", out,
        )
        assert code == 1 and err == "error: --weights is not used by --method lme\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "method, flags, name",
        [
            ("mple", ["--steps", "0"], "steps"),
            ("mple", ["--steps", "-3"], "steps"),
            ("mple", ["--step-size", "-1"], "step_size"),
            ("mple", ["--step-size", "nan"], "step_size"),
            ("mle", ["--steps", "0"], "steps"),
            ("lme", ["--C", "nan"], "C"),
            ("lme", ["--C", "0"], "C"),
            ("lme", ["--tol", "nan"], "tol"),
            ("lme", ["--tol", "-1"], "tol"),
        ],
    )
    def test_bad_learning_arguments_rejected(
        self, fixture_paths, tmp_path, capsys, method, flags, name
    ):
        program, data = fixture_paths
        truth = tmp_path / "truth.data"
        truth.write_text('On("a") = 1\nAlso("a") = 0\n')
        out = tmp_path / "weights.txt"
        code, _, err = run(
            capsys,
            "learn", "--program", program, "--data", data, "--truth", truth,
            "--method", method, *flags, "--out", out,
        )
        assert code == 1 and err.startswith("error: %s must be" % name)
        assert not out.exists()


class TestRound:
    def test_boolean_output(self, tmp_path, capsys):
        program = tmp_path / "clauses.psl"
        data = tmp_path / "clauses.data"
        program.write_text("2 : A(X) | B(X)\n1 : !A(X)\n")
        data.write_text('Item = {"i1", "i2"}\nA(Item)\nB(Item)\n')
        code, out, _ = run(
            capsys,
            "round", "--program", program, "--data", data,
            "--eps-abs", "1e-8", "--eps-rel", "1e-8",
        )
        assert code == 0
        values = [line.split("\t")[2] for line in out.strip().splitlines()]
        assert set(values) <= {"0.000000", "1.000000"}
        b_values = [
            line.split("\t")[2] for line in out.strip().splitlines() if line.startswith("B")
        ]
        assert b_values == ["1.000000", "1.000000"]

    def test_squared_model_rejected(self, fixture_paths, capsys):
        program, data = fixture_paths
        code, _, err = run(capsys, "round", "--program", program, "--data", data)
        assert code == 1
        assert "constraint" in err or "linear" in err


class TestSynthCommand:
    def test_deterministic_files(self, tmp_path, capsys):
        outputs = []
        for run_index in range(2):
            data_path = tmp_path / ("d%d.data" % run_index)
            program_path = tmp_path / ("p%d.psl" % run_index)
            code, _, _ = run(
                capsys,
                "synth-network", "--users", "30", "--seed", "11",
                "--out-data", data_path, "--out-program", program_path,
            )
            assert code == 0
            outputs.append((data_path.read_text(), program_path.read_text()))
        assert outputs[0] == outputs[1]

    def test_generated_network_runs_through_infer(self, tmp_path, capsys):
        data_path = tmp_path / "net.data"
        program_path = tmp_path / "net.psl"
        run(
            capsys,
            "synth-network", "--users", "25", "--seed", "2",
            "--out-data", data_path, "--out-program", program_path,
        )
        code, out, _ = run(
            capsys,
            "infer", "--program", program_path, "--data", data_path, "--prune",
        )
        assert code == 0
        assert out.count("\n") >= 10

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--alpha", "5", "alpha must lie in (0, 1]"),
            ("--users", "1", "n_users must be an integer >= 2"),
            ("--gammas", "9", "gamma must lie in [2, 3]"),
            ("--gammas", "x", "--gammas must be comma-separated numbers"),
            ("--seed", "-1", "seed must be an integer >= 0"),
        ],
    )
    def test_bad_values_reported(self, tmp_path, capsys, flag, value, message):
        code, _, err = run(
            capsys,
            "synth-network", flag, value,
            "--out-data", tmp_path / "net.data", "--out-program", tmp_path / "net.psl",
        )
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "net.data").exists()
