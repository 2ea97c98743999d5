import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgnn_lab import (
    ConfigError,
    DegenerateInputError,
    DivergenceError,
    NORMALIZED_ADJACENCY,
    Rng,
    build_disc_graph,
    build_sbm,
    forward,
    init_tensor,
    sample_architecture,
    to_shift,
)
from sgnn_lab.experiments import (
    FlockingConfig,
    SourceLocConfig,
    centralized_controller,
    collect_expert_dataset,
    evaluate_accuracy,
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

    # these once raised ZeroDivisionError, numpy's "high <= 0" and "repeats may not
    # contain negative values"
    @pytest.mark.parametrize("communities, sizes, tau_max", [
        (0, (10, 5, 5), 5), (-4, (10, 5, 5), 5), (3, (10, 5, 5), 5), (4, (10, 5, 5), -1),
        (4, (-1, 5, 5), 5), (4, (10, 5, -2), 5),
    ])
    def test_bad_counts_rejected_before_any_draw(self, norm20, communities, sizes, tau_max):
        rng = Rng(1)
        with pytest.raises(ConfigError, match="need communities that divide the 20 nodes"):
            gen_source_dataset(norm20, communities, sizes, tau_max, 0.0, rng)
        assert np.array_equal(rng.random(4), Rng(1).random(4))


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

    @pytest.mark.parametrize("size, labels", [(0, 0), (6, 5), (5, 6)])
    def test_malformed_test_set_rejected(self, norm20, size, labels):
        tensor = init_tensor(SourceLocConfig(features=4).model_config(), Rng(0), 0.5)
        inputs = Rng(1).normal(size=(size, 1, 20))
        with pytest.raises(ValueError, match=f"{size} test inputs with {labels} labels"):
            evaluate_accuracy(tensor, norm20, inputs, np.zeros(labels, dtype=int), 0.7, Rng(2))


@pytest.mark.parametrize("p", [1.0, 0.7])
@pytest.mark.parametrize("readout", ["none", "pooled", "per_node"])
def test_accuracy_needs_a_pooled_head_and_its_classes(norm20, readout, p):
    # the argmax runs over the pooled head's classes: without one it ran over a
    # (D, N, B) output and scored 3.17 or 4.0, and labels that are no class (0.5, -1,
    # readout_dim) scored 0 silently; each refusal comes before any draw
    cfg = replace(SourceLocConfig(features=4).model_config(), readout=readout,
                  readout_dim=0 if readout == "none" else 4)
    tensor = init_tensor(cfg, Rng(0), 0.5)
    test = gen_source_dataset(norm20, 4, (1, 1, 12), 3, 0.01, Rng(1)).test
    bad_labels = [np.full(12, 0.5), np.full(12, -1), np.full(12, 4)]
    rng = Rng(2)
    if readout != "pooled":
        for labels in [test.labels] + bad_labels:
            with pytest.raises(ConfigError, match=f"pooled readout head, got '{readout}'"):
                evaluate_accuracy(tensor, norm20, test.inputs, labels, p, rng)
    else:
        for labels in bad_labels:
            with pytest.raises(ValueError, match=r"labels must be classes 0 \.\. 3"):
                evaluate_accuracy(tensor, norm20, test.inputs, labels, p, rng)
    assert rng.random(4).tobytes() == Rng(2).random(4).tobytes()
    if readout == "pooled":
        acc = evaluate_accuracy(tensor, norm20, test.inputs, test.labels.astype(float), p,
                                Rng(2))
        assert acc == evaluate_accuracy(tensor, norm20, test.inputs, test.labels, p, Rng(2))
        assert 0.0 <= acc <= 1.0


@pytest.mark.parametrize("p", [0.7, 1.0])
def test_accuracy_is_one_forward_call_over_the_test_set(monkeypatch, norm20, p):
    # the per-sample loop must not come back: one pass carries every test sample
    from sgnn_lab.experiments import source

    columns = []

    def counting(tensor, reals, x, *args, **kwargs):
        columns.append(x.shape[2])
        return forward(tensor, reals, x, *args, **kwargs)

    monkeypatch.setattr(source, "forward", counting)
    tensor = init_tensor(SourceLocConfig(features=4).model_config(), Rng(0), 0.5)
    test = gen_source_dataset(norm20, 4, (1, 1, 30), 3, 0.01, Rng(1)).test
    evaluate_accuracy(tensor, norm20, test.inputs, test.labels, p, Rng(2))
    assert columns == [30]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(2, 4), st.integers(1, 6), st.integers(0, 3),
       st.sampled_from(["relu", "abs", "tanh"]), st.integers(1, 40), st.integers(0, 2**16))
def test_intact_accuracy_equals_a_per_sample_loop(per_community, communities, features, order,
                                                   nonlinearity, size, seed):
    # at p = 1 one batched pass scores the set; it draws no random numbers
    cfg = SourceLocConfig(nodes=per_community * communities, communities=communities,
                          features=features, order=order, nonlinearity=nonlinearity)
    rng = Rng(seed)
    base = to_shift(build_sbm(cfg.nodes, communities, 1.0, 0.2, rng.child(0)),
                    NORMALIZED_ADJACENCY)
    test = gen_source_dataset(base, communities, (1, 1, size), 3, 0.01, rng.child(1)).test
    tensor = init_tensor(cfg.model_config(), rng.child(2), 1.0)
    reals = sample_architecture(base, 1.0, tensor.cfg, rng.child(3))
    hits = [np.argmax(forward(tensor, reals, x[..., None], return_cache=False)[0]) == y
            for x, y in zip(test.inputs, test.labels)]
    eval_rng = rng.child(4)
    assert evaluate_accuracy(tensor, base, test.inputs, test.labels, 1.0, eval_rng) == (
        sum(hits) / size)
    assert eval_rng.random(4).tobytes() == rng.child(4).random(4).tobytes()  # nothing drawn


# the expert's and the plant's settings at the flocking defaults
EXPERT = {"u_max": FlockingConfig.u_max, "cutoff": FlockingConfig.potential_cutoff}


def _plant(cfg):
    return {"comm_radius": cfg.comm_radius, "u_max": cfg.u_max,
            "velocity_guard": cfg.velocity_guard}


class TestCentralizedController:
    def test_consensus_at_equal_velocities_far_apart(self):
        state = SwarmState(z=np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]),
                           v=np.ones((3, 2)), dt=0.05)
        assert np.array_equal(centralized_controller(state, **EXPERT), np.zeros((3, 2)))

    def test_two_agents_velocity_term(self):
        state = SwarmState(z=np.array([[0.0, 0.0], [10.0, 0.0]]),
                           v=np.array([[1.0, 0.0], [0.0, 0.0]]), dt=0.05)
        u = centralized_controller(state, **EXPERT)
        assert np.allclose(u[0], [-1.0, 0.0])
        assert np.allclose(u[1], [1.0, 0.0])

    def test_close_static_agents_repel_symmetrically(self):
        state = SwarmState(z=np.array([[0.0, 0.0], [0.5, 0.0]]),
                           v=np.zeros((2, 2)), dt=0.05)
        u = centralized_controller(state, u_max=100.0, cutoff=1.0)
        assert u[0][0] < 0 < u[1][0]            # repulsion along the joining line
        assert np.allclose(u[0], -u[1])
        assert u[0][1] == 0.0

    def test_clipping(self):
        state = SwarmState(z=np.array([[0.0, 0.0], [0.11, 0.0]]),
                           v=np.zeros((2, 2)), dt=0.05)
        u = centralized_controller(state, **EXPERT)
        assert np.abs(u).max() == 10.0

    def test_coincident_agents_rejected(self):
        state = SwarmState(z=np.zeros((2, 2)), v=np.zeros((2, 2)), dt=0.05)
        with pytest.raises(DegenerateInputError):
            centralized_controller(state, **EXPERT)


class TestSwarmFeatures:
    def test_isolated_node_has_zero_feature(self):
        state = SwarmState(z=np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 1.0]]),
                           v=Rng(0).normal(size=(3, 2)), dt=0.05)
        graph = build_disc_graph(state.z, 3.0)
        feats = swarm_features(state, graph.mat)
        assert feats.shape == (6, 3)
        assert np.array_equal(feats[:, 0], np.zeros(6))

    def test_equal_velocities_zero_velocity_block(self):
        state = SwarmState(z=np.array([[0.0, 0.0], [1.0, 0.0]]),
                           v=np.ones((2, 2)), dt=0.05)
        graph = build_disc_graph(state.z, 3.0)
        feats = swarm_features(state, graph.mat)
        assert np.array_equal(feats[:2], np.zeros((2, 2)))
        assert np.any(feats[2:] != 0)

    def test_translation_invariance(self):
        rng = Rng(5)
        z = rng.uniform(-2, 2, (6, 2))
        v = rng.normal(size=(6, 2))
        state = SwarmState(z=z, v=v, dt=0.05)
        shifted = SwarmState(z=z + np.array([100.0, -50.0]), v=v, dt=0.05)
        graph = build_disc_graph(z, 3.0)
        a = swarm_features(state, graph.mat)
        b = swarm_features(shifted, graph.mat)
        assert np.abs(a - b).max() <= 1e-9

    def test_zero_distance_neighbor_rejected(self):
        state = SwarmState(z=np.zeros((2, 2)), v=np.zeros((2, 2)), dt=0.05)
        with pytest.raises(DegenerateInputError):
            swarm_features(state, np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestSimulateSwarm:
    def test_zero_policy_keeps_velocities(self):
        cfg = FlockingConfig(agents=6, steps=20)
        state0 = random_swarm_state(cfg, Rng(0))
        initial_var = velocity_variance(state0.v)

        def zero_policy(state, graph, p, rng):
            return np.zeros_like(state.v)

        cost = simulate_swarm(zero_policy, state0, 20, 0.7, Rng(1), **_plant(cfg))
        assert cost == pytest.approx(initial_var, rel=1e-12)

    def test_expert_reaches_consensus(self):
        cfg = FlockingConfig(agents=8, steps=100)
        state0 = random_swarm_state(cfg, Rng(3))
        initial_var = velocity_variance(state0.v)

        seen = []

        def expert(state, graph, p, rng):
            seen.append(state.v.copy())
            return centralized_controller(state, u_max=cfg.u_max, cutoff=cfg.potential_cutoff)

        cost = simulate_swarm(expert, state0, 100, 1.0, Rng(4), **_plant(cfg))
        assert len(seen) == 100
        final_var = velocity_variance(seen[-1])
        assert final_var < initial_var
        assert cost < initial_var
        # bounded flight under the expert
        vmax0 = np.abs(state0.v).max()
        assert max(np.abs(v).max() for v in seen) < 10 * max(vmax0, 1.0)

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

        simulate_swarm(zero_policy, state0, 5, 0.7, Rng(8), **_plant(cfg))

    def test_divergence_guard(self):
        cfg = FlockingConfig(agents=4, steps=50)
        state0 = random_swarm_state(cfg, Rng(1))

        def runaway(state, graph, p, rng):
            return np.full_like(state.v, 1e9)

        with pytest.raises(DivergenceError):
            simulate_swarm(runaway, state0, 50, 1.0, Rng(2),
                           comm_radius=cfg.comm_radius, u_max=1e9, velocity_guard=50.0)


# 1-D positions and velocities once raised a bare IndexError
@pytest.mark.parametrize("shape", [(2,), (), (2, 3), (2, 2, 1)])
def test_swarm_state_rejects_arrays_that_are_not_n_by_2(shape):
    with pytest.raises(ConfigError, match=r"z and v must share shape \(N, 2\)"):
        SwarmState(z=np.zeros(shape), v=np.zeros(shape), dt=0.05)


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -0.05])
def test_swarm_state_rejects_a_non_finite_or_nonpositive_step(dt):
    with pytest.raises(ConfigError, match="dt must be finite and > 0"):
        SwarmState(z=np.zeros((2, 2)), v=np.zeros((2, 2)), dt=dt)


@pytest.mark.parametrize("config", [SourceLocConfig, FlockingConfig])
@pytest.mark.parametrize("field, value", [
    ("train_p", 1.5), ("train_p", -0.1), ("train_p", np.nan),
    ("test_p", (1.0, 1.5)), ("test_p", (-1e-9,)), ("test_p", (0.7, np.nan)),
])
def test_edge_probability_outside_unit_interval_rejected(config, field, value):
    # test_p=1.5 once trained both models before the evaluation rejected it
    with pytest.raises(ConfigError, match=r"edge probability p=.* outside \[0, 1\]"):
        config(**{field: value})


@pytest.mark.parametrize("config", [SourceLocConfig, FlockingConfig])
def test_edge_probabilities_at_the_ends_accepted(config):
    cfg = config(train_p=0.0, test_p=(1.0, 0.0))
    assert cfg.train_p == 0.0 and cfg.test_p == (1.0, 0.0)


class TestFlockingConfig:
    # comm_radius=nan once ran a whole experiment on edgeless graphs and exited 0
    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["comm_radius", "dt", "max_speed", "u_max",
                                      "potential_cutoff", "velocity_guard"])
    def test_non_finite_or_nonpositive_scale_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite and > 0"):
            FlockingConfig(**{name: value})


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

    def test_expert_dataset_pairs_each_state_once(self, monkeypatch):
        # the expert and each feature variant of a recorded state share one _pairwise,
        # and the recorded actions are the public controller's on that state
        from sgnn_lab.experiments import flocking

        cfg = replace(self._tiny_cfg(), steps=4)
        pairs, states = [], []
        real_pairwise, real_controller = flocking._pairwise, flocking._controller

        def pairwise(z):
            pairs.append(z)
            return real_pairwise(z)

        def controller(state, *args):
            states.append(SwarmState(z=state.z.copy(), v=state.v.copy(), dt=state.dt))
            return real_controller(state, *args)

        monkeypatch.setattr(flocking, "_pairwise", pairwise)
        monkeypatch.setattr(flocking, "_controller", controller)
        _, targets, _, _ = collect_expert_dataset(cfg, Rng(0), feature_p=0.7, variants=3)
        assert len(pairs) == len(states) == cfg.train_trajectories * cfg.steps
        for state, target in zip(states, targets[::3]):
            want = centralized_controller(state, u_max=cfg.u_max, cutoff=cfg.potential_cutoff)
            assert want.T.tobytes() == target.tobytes()

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
