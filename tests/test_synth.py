import pytest

from softlogic.ground import ground_program, load_data
from softlogic.lang import parse_program
from softlogic.model import ModelError
from softlogic.synth import SynthNetworkSpec, generate_edges, generate_network


class TestSpecValidation:
    def test_gamma_range(self):
        with pytest.raises(ValueError):
            SynthNetworkSpec(n_users=10, edge_params=((1.5, 0.3),), lambda_edges=(0.5,))

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            SynthNetworkSpec(n_users=10, edge_params=((2.5, 0.0),), lambda_edges=(0.5,))

    def test_alpha_mass_guard(self):
        # alpha = 1 at gamma = 2 would need more than unit probability mass
        with pytest.raises(ValueError):
            generate_edges(
                SynthNetworkSpec(n_users=10, edge_params=((2.0, 1.0),), lambda_edges=(0.5,))
            )

    def test_minimum_users(self):
        with pytest.raises(ValueError):
            SynthNetworkSpec(n_users=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_count(self, seed):
        with pytest.raises(ModelError, match="seed"):
            SynthNetworkSpec(n_users=10, seed=seed)


class TestGeneration:
    def test_deterministic_output(self):
        spec = SynthNetworkSpec(n_users=60, seed=9)
        assert generate_network(spec) == generate_network(spec)

    def test_different_seeds_differ(self):
        a = generate_network(SynthNetworkSpec(n_users=60, seed=1))
        b = generate_network(SynthNetworkSpec(n_users=60, seed=2))
        assert a != b

    def test_opinions_rescaled_to_unit_interval(self):
        data_text, _ = generate_network(SynthNetworkSpec(n_users=60, seed=3))
        data = load_data(data_text)
        values = [
            v
            for atom, v in data.observations.items()
            if atom.predicate == "Opinion"
        ]
        assert values and all(0.0 <= v <= 1.0 for v in values)

    def test_no_isolated_users(self):
        spec = SynthNetworkSpec(n_users=80, seed=5)
        kept, edges = generate_edges(spec)
        touched = set()
        for edge_list in edges:
            for src, dst in edge_list:
                touched.add(src)
                touched.add(dst)
        assert set(kept) == touched

    def test_higher_gamma_lowers_mean_degree(self):
        def mean_degree(gamma):
            total = 0.0
            for seed in range(20):
                spec = SynthNetworkSpec(
                    n_users=120,
                    edge_params=((gamma, 0.33),),
                    lambda_edges=(0.5,),
                    seed=seed,
                )
                kept, edges = generate_edges(spec)
                total += len(edges[0]) / max(len(kept), 1)
            return total / 20

        assert mean_degree(3.0) < mean_degree(2.0)

    def test_program_parses_and_grounds(self):
        data_text, program_text = generate_network(SynthNetworkSpec(n_users=50, seed=4))
        mrf = ground_program(
            parse_program(program_text), load_data(data_text), prune=True
        )
        assert len(mrf.potentials) > 0
        assert len(mrf.constraints) > 0

    def test_potential_constraint_mix_near_paper_range(self):
        # Reported mix at full scale is 83-85% potentials; desk-scale
        # networks are checked loosely within five points of that window.
        fractions = []
        for seed in range(3):
            data_text, program_text = generate_network(
                SynthNetworkSpec(n_users=150, seed=seed)
            )
            mrf = ground_program(
                parse_program(program_text), load_data(data_text), prune=True
            )
            total = len(mrf.potentials) + len(mrf.constraints)
            fractions.append(len(mrf.potentials) / total)
        assert all(0.78 <= f <= 0.90 for f in fractions)

    def test_squared_variant(self):
        _, program_text = generate_network(
            SynthNetworkSpec(n_users=50, seed=4), squared=True
        )
        prog = parse_program(program_text)
        assert all(r.squared for r in prog.rules if r.weight is not None)
