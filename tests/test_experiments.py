import json

import numpy as np
import pytest

from sgnn_lab import (
    ConfigError,
    DegenerateInputError,
    DivergenceError,
    NORMALIZED_ADJACENCY,
    Rng,
    build_disc_graph,
    build_sbm,
    to_shift,
)
from sgnn_lab.experiments import (
    FlockingConfig,
    SourceLocConfig,
    centralized_controller,
    collect_expert_dataset,
    gen_source_dataset,
    make_policies,
    random_swarm_state,
    run_flock_seed,
    run_source_seed,
    simulate_swarm,
    swarm_features,
)
from sgnn_lab.experiments.flocking import SwarmState, velocity_variance
from sgnn_lab.common import rows_to_records, write_results


@pytest.fixture
def norm20():
    adj = build_sbm(20, 4, 0.8, 0.2, Rng(42).child(0))
    return to_shift(adj, NORMALIZED_ADJACENCY)


class TestSourceDataset:
    def test_undiffused_noiseless_sample_is_a_delta(self, norm20):
        ds = gen_source_dataset(norm20, 4, (40, 8, 8), 0, 0.0, Rng(1))
        for x, label in zip(ds.train.inputs, ds.train.labels):
            expect = np.zeros(20)
            expect[label * 5] = 1.0
            assert np.array_equal(x[0], expect)

    def test_single_step_support_is_the_neighborhood(self, norm20):
        ds = gen_source_dataset(norm20, 4, (30, 8, 8), 1, 0.0, Rng(2))
        for x, label, tau in zip(ds.train.inputs, ds.train.labels, ds.train.taus):
            if tau == 1:
                source = label * 5
                support = set(np.nonzero(x[0])[0])
                neighbors = set(np.nonzero(norm20.mat[source])[0])
                assert support == neighbors

    def test_labels_balanced_within_one(self, norm20):
        ds = gen_source_dataset(norm20, 4, (101, 50, 26), 10, 0.01, Rng(3))
        for split in (ds.train, ds.val, ds.test):
            counts = np.bincount(split.labels, minlength=4)
            assert counts.max() - counts.min() <= 1

    def test_deterministic_under_seed(self, norm20):
        a = gen_source_dataset(norm20, 4, (30, 10, 10), 5, 0.01, Rng(7, 3))
        b = gen_source_dataset(norm20, 4, (30, 10, 10), 5, 0.01, Rng(7, 3))
        assert np.array_equal(a.train.inputs, b.train.inputs)
        assert np.array_equal(a.test.labels, b.test.labels)

    def test_paper_scale_sizes_construct(self):
        adj = build_sbm(40, 4, 0.8, 0.2, Rng(9).child(0))
        base = to_shift(adj, NORMALIZED_ADJACENCY)
        ds = gen_source_dataset(base, 4, (10_000, 2400, 1000), 40, 0.01, Rng(9).child(1))
        assert len(ds.train.inputs) == 10_000
        assert len(ds.val.inputs) == 2400
        assert len(ds.test.inputs) == 1000
        assert ds.train.taus.max() <= 40

    def test_requires_normalized_base(self):
        adj = build_sbm(20, 4, 0.8, 0.2, Rng(0).child(0))
        with pytest.raises(ConfigError):
            gen_source_dataset(adj, 4, (10, 5, 5), 5, 0.0, Rng(1))


class TestSourcePipeline:
    def _tiny_cfg(self):
        return SourceLocConfig(nodes=8, communities=2, tau_max=4, train_size=80,
                               val_size=16, test_size=40, features=8, order=2,
                               iterations=60, batch_size=40, lr=1e-2,
                               test_p=(1.0, 0.7), seeds=(0,))

    def test_rows_schema_and_determinism(self):
        cfg = self._tiny_cfg()
        a = run_source_seed(cfg, 0)
        b = run_source_seed(cfg, 0)
        assert [r["value"] for r in a["rows"]] == [r["value"] for r in b["rows"]]
        for row in a["rows"]:
            assert set(row) == {"p", "method", "seed", "metric", "value"}
            assert row["metric"] == "accuracy"
            assert 0.0 <= row["value"] <= 1.0
        methods = {(r["method"], r["p"]) for r in a["rows"]}
        assert methods == {(m, p) for m in ("sgnn", "gnn") for p in (1.0, 0.7)}

    def test_intact_evaluation_is_deterministic(self, norm20):
        # at p=1 the evaluation forward ignores the rng entirely
        from sgnn_lab.experiments.source import evaluate_accuracy
        from sgnn_lab.model import init_tensor

        cfg = SourceLocConfig()
        tensor = init_tensor(cfg.model_config(), Rng(0), 0.5)
        ds = gen_source_dataset(norm20, 4, (10, 5, 20), 5, 0.01, Rng(1))
        acc1 = evaluate_accuracy(tensor, norm20, ds.test.inputs, ds.test.labels, 1.0, Rng(2))
        acc2 = evaluate_accuracy(tensor, norm20, ds.test.inputs, ds.test.labels, 1.0, Rng(99))
        assert acc1 == acc2


class TestCentralizedController:
    def test_consensus_at_equal_velocities_far_apart(self):
        state = SwarmState(z=np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]),
                           v=np.ones((3, 2)), u=np.zeros((3, 2)), dt=0.05)
        assert np.array_equal(centralized_controller(state), np.zeros((3, 2)))

    def test_two_agents_velocity_term(self):
        state = SwarmState(z=np.array([[0.0, 0.0], [10.0, 0.0]]),
                           v=np.array([[1.0, 0.0], [0.0, 0.0]]),
                           u=np.zeros((2, 2)), dt=0.05)
        u = centralized_controller(state)
        assert np.allclose(u[0], [-1.0, 0.0])
        assert np.allclose(u[1], [1.0, 0.0])

    def test_close_static_agents_repel_symmetrically(self):
        state = SwarmState(z=np.array([[0.0, 0.0], [0.5, 0.0]]),
                           v=np.zeros((2, 2)), u=np.zeros((2, 2)), dt=0.05)
        u = centralized_controller(state, u_max=100.0, cutoff=1.0)
        assert u[0][0] < 0 < u[1][0]            # repulsion along the joining line
        assert np.allclose(u[0], -u[1])
        assert u[0][1] == 0.0

    def test_clipping(self):
        state = SwarmState(z=np.array([[0.0, 0.0], [0.11, 0.0]]),
                           v=np.zeros((2, 2)), u=np.zeros((2, 2)), dt=0.05)
        u = centralized_controller(state, u_max=10.0)
        assert np.abs(u).max() == 10.0

    def test_coincident_agents_rejected(self):
        state = SwarmState(z=np.zeros((2, 2)), v=np.zeros((2, 2)),
                           u=np.zeros((2, 2)), dt=0.05)
        with pytest.raises(DegenerateInputError):
            centralized_controller(state)


class TestSwarmFeatures:
    def test_isolated_node_has_zero_feature(self):
        state = SwarmState(z=np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 1.0]]),
                           v=Rng(0).normal(size=(3, 2)), u=np.zeros((3, 2)), dt=0.05)
        graph = build_disc_graph(state.z, 3.0)
        feats = swarm_features(state, graph.mat)
        assert feats.shape == (6, 3)
        assert np.array_equal(feats[:, 0], np.zeros(6))

    def test_equal_velocities_zero_velocity_block(self):
        state = SwarmState(z=np.array([[0.0, 0.0], [1.0, 0.0]]),
                           v=np.ones((2, 2)), u=np.zeros((2, 2)), dt=0.05)
        graph = build_disc_graph(state.z, 3.0)
        feats = swarm_features(state, graph.mat)
        assert np.array_equal(feats[:2], np.zeros((2, 2)))
        assert np.any(feats[2:] != 0)

    def test_translation_invariance(self):
        rng = Rng(5)
        z = rng.uniform(-2, 2, (6, 2))
        v = rng.normal(size=(6, 2))
        state = SwarmState(z=z, v=v, u=np.zeros((6, 2)), dt=0.05)
        shifted = SwarmState(z=z + np.array([100.0, -50.0]), v=v,
                             u=np.zeros((6, 2)), dt=0.05)
        graph = build_disc_graph(z, 3.0)
        a = swarm_features(state, graph.mat)
        b = swarm_features(shifted, graph.mat)
        assert np.abs(a - b).max() <= 1e-9

    def test_zero_distance_neighbor_rejected(self):
        state = SwarmState(z=np.zeros((2, 2)), v=np.zeros((2, 2)),
                           u=np.zeros((2, 2)), dt=0.05)
        with pytest.raises(DegenerateInputError):
            swarm_features(state, np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestSimulateSwarm:
    def test_zero_policy_keeps_velocities(self):
        cfg = FlockingConfig(agents=6, steps=20)
        state0 = random_swarm_state(cfg, Rng(0))
        initial_var = velocity_variance(state0.v)

        def zero_policy(state, graph, p, rng):
            return np.zeros_like(state.v)

        cost = simulate_swarm(zero_policy, state0, 20, 0.7, Rng(1))
        assert cost == pytest.approx(initial_var, rel=1e-12)

    def test_expert_reaches_consensus(self):
        cfg = FlockingConfig(agents=8, steps=100)
        state0 = random_swarm_state(cfg, Rng(3))
        initial_var = velocity_variance(state0.v)

        def expert(state, graph, p, rng):
            return centralized_controller(state, cfg.u_max, cfg.potential_cutoff)

        cost, history = simulate_swarm(expert, state0, 100, 1.0, Rng(4), record=True)
        final_var = velocity_variance(history[-1].v)
        assert final_var < initial_var
        assert cost < initial_var
        # bounded flight under the expert
        vmax0 = np.abs(state0.v).max()
        assert max(np.abs(s.v).max() for s in history) < 10 * max(vmax0, 1.0)

    def test_paper_baseline_config_constructs(self):
        cfg = FlockingConfig(agents=50, comm_radius=3.0, min_separation=0.1,
                             max_speed=3.0, steps=5)
        state0 = random_swarm_state(cfg, Rng(7))
        assert state0.z.shape == (50, 2)
        diff = state0.z[:, None] - state0.z[None, :]
        dist = np.sqrt((diff**2).sum(-1)) + np.eye(50)
        assert dist.min() >= 0.1
        assert np.abs(state0.v).max() <= 3.0

        def zero_policy(state, graph, p, rng):
            return np.zeros_like(state.v)

        simulate_swarm(zero_policy, state0, 5, 0.7, Rng(8))

    def test_divergence_guard(self):
        cfg = FlockingConfig(agents=4, steps=50)
        state0 = random_swarm_state(cfg, Rng(1))

        def runaway(state, graph, p, rng):
            return np.full_like(state.v, 1e9)

        with pytest.raises(DivergenceError):
            simulate_swarm(runaway, state0, 50, 1.0, Rng(2),
                           u_max=1e9, velocity_guard=50.0)


class TestFlockingPipeline:
    def _tiny_cfg(self):
        return FlockingConfig(agents=6, steps=15, train_trajectories=3,
                              eval_trajectories=2, features=8, order=2,
                              iterations=40, batch_size=15, test_p=(1.0, 0.7),
                              seeds=(0,))

    def test_expert_dataset_shapes(self):
        cfg = self._tiny_cfg()
        inputs, targets, bases, scaler = collect_expert_dataset(cfg, Rng(0))
        assert inputs.shape == (45, 6, 6)
        assert targets.shape == (45, 2, 6)
        assert len(bases) == 45
        mean, std = scaler
        assert mean.shape == (6,) and std.shape == (6,)
        assert np.all(std > 0)

    def test_run_rows_and_reproducibility(self):
        cfg = self._tiny_cfg()
        a = run_flock_seed(cfg, 0)
        b = run_flock_seed(cfg, 0)
        assert [r["value"] for r in a["rows"]] == [r["value"] for r in b["rows"]]
        methods = {r["method"] for r in a["rows"]}
        assert methods == {"sgnn", "gnn", "expert", "zero"}
        for row in a["rows"]:
            assert row["metric"] == "velocity_variance_cost"
            assert row["value"] >= 0.0

    def test_policies_share_interface(self):
        cfg = self._tiny_cfg()
        inputs, targets, bases, scaler = collect_expert_dataset(cfg, Rng(0))
        from sgnn_lab.model import init_tensor

        tensor = init_tensor(cfg.model_config(), Rng(1), 0.1)
        policies = make_policies(tensor, tensor, scaler, cfg, scaler)
        state = random_swarm_state(cfg, Rng(2))
        graph = build_disc_graph(state.z, cfg.comm_radius)
        for name, policy in policies.items():
            u = policy(state, graph, 0.7, Rng(3))
            assert np.asarray(u).shape == (6, 2), name


class TestNoDatasetCache:
    def test_source_seed_writes_nothing_to_the_old_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SGNN_LAB_DATA_DIR", str(tmp_path))
        cfg = SourceLocConfig(nodes=8, communities=2, tau_max=3, train_size=20, val_size=6,
                              test_size=6, features=4, order=2, iterations=3,
                              batch_size=10, test_p=(1.0,), seeds=(0,))
        run_source_seed(cfg, 0)
        assert list(tmp_path.iterdir()) == []


class TestResultsIO:
    def test_csv_and_json(self, tmp_path):
        rows = [{"p": 0.7, "method": "sgnn", "seed": 0, "metric": "accuracy", "value": 0.5}]
        write_results(rows, tmp_path / "r.csv", "csv")
        text = (tmp_path / "r.csv").read_text()
        assert text.splitlines()[0] == "p,method,seed,metric,value"
        assert "0.5" in text
        write_results(rows, tmp_path / "r.json", "json")
        assert "accuracy" in (tmp_path / "r.json").read_text()

    def test_custom_columns(self, tmp_path):
        rows = [{"case": 1, "err": 0.25, "extra": "dropped"}]
        path = write_results(rows, tmp_path / "sub" / "t.csv", "csv", columns=("err", "case"))
        assert path.read_text() == "err,case\n0.25,1\n"
        write_results(rows, tmp_path / "t.json", "json", columns=("err", "case"))
        assert json.loads((tmp_path / "t.json").read_text()) == [{"case": 1, "err": 0.25}]

    def test_record_normalization_rejects_missing_columns(self):
        with pytest.raises(KeyError):
            rows_to_records([{"p": 1.0}])
