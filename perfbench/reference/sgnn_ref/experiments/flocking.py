"""Imitation-learned flocking control under failing communication links.

A team of planar agents should reach velocity consensus without collisions.
The expert is a centralized controller that steers every agent toward the
mean velocity plus a short-range collision-avoidance term,

    u*_i = - sum_j (v_i - v_j) - sum_j rho(z_i, z_j),

with rho the gradient of the potential U(d) = 1/d^2 + log d^2 below a cutoff
distance.  The expert needs global state, so a network policy is trained by
regression onto expert actions using only neighborhood features exchanged
over the communication graph (agents within a fixed radius).  At execution
time every exchange crosses a link that may fail, so features are gathered
over a sampled realization of the graph and the policy's filters run on
further realizations.  The performance metric is the across-agent velocity
variance averaged along the trajectory, which measures distance from
consensus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DegenerateInputError, DivergenceError
from ..graphs import (
    ADJACENCY,
    NORMALIZED_ADJACENCY,
    ShiftOperator,
    build_disc_graph,
    sample_realization,
    to_shift,
)
from ..model import SgnnConfig, forward, init_tensor, sample_architecture
from ..rng import Rng
from ..training import TrainConfig, TrainingSet, train
from . import common


@dataclass
class SwarmState:
    """Positions, velocities, and accelerations of the team (meters, m/s,
    m/s^2), plus the integration step."""

    z: np.ndarray
    v: np.ndarray
    u: np.ndarray
    dt: float

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        if self.z.shape != self.v.shape or self.z.shape != self.u.shape or self.z.shape[1] != 2:
            raise ConfigError("z, v, u must share shape (N, 2)")
        if not (np.all(np.isfinite(self.z)) and np.all(np.isfinite(self.v))
                and np.all(np.isfinite(self.u))):
            raise ConfigError("swarm state must be finite")
        if self.dt <= 0:
            raise ConfigError("dt must be > 0")


@dataclass(frozen=True)
class FlockingConfig:
    agents: int = 12
    comm_radius: float = 3.0
    min_separation: float = 0.1
    max_speed: float = 3.0
    dt: float = 0.05
    steps: int = 50
    train_trajectories: int = 20
    eval_trajectories: int = 4
    u_max: float = 10.0
    potential_cutoff: float = 1.0
    velocity_guard: float = 50.0
    feature_variants: int = 4
    features: int = 32
    order: int = 3
    nonlinearity: str = "tanh"
    init_scale: float = 0.05
    iterations: int = 600
    batch_size: int = 20
    lr: float = 1e-3
    train_p: float = 0.7
    test_p: tuple = (1.0, 0.9, 0.7, 0.5)
    seeds: tuple = (0, 1, 2, 3, 4)

    @property
    def init_radius(self) -> float:
        # Constant density: N agents in a disc of area pi * N.
        return float(np.sqrt(self.agents))

    def model_config(self) -> SgnnConfig:
        return SgnnConfig(
            layers=1, features=self.features, order=self.order,
            nonlinearity=self.nonlinearity, in_features=6,
            out_features=self.features, readout="per_node", readout_dim=2,
        )

    def train_config(self, link_p: float, seed: int) -> TrainConfig:
        return TrainConfig(
            iterations=self.iterations, batch_size=self.batch_size, lr=self.lr,
            optimizer="adam", link_p=link_p, seed=seed, loss="mse",
        )


def random_swarm_state(cfg: FlockingConfig, rng: Rng) -> SwarmState:
    """Agents uniform in a disc with a minimum separation (rejection
    sampling); velocities uniform per axis in +/- max_speed."""
    n = cfg.agents
    positions = np.zeros((n, 2))
    placed = 0
    for _ in range(100000):
        radius = cfg.init_radius * np.sqrt(rng.random())
        angle = 2.0 * np.pi * rng.random()
        candidate = np.array([radius * np.cos(angle), radius * np.sin(angle)])
        if placed == 0 or np.linalg.norm(positions[:placed] - candidate, axis=1).min() >= cfg.min_separation:
            positions[placed] = candidate
            placed += 1
            if placed == n:
                break
    else:
        raise ConfigError("could not place agents with the requested separation")
    velocities = rng.uniform(-cfg.max_speed, cfg.max_speed, (n, 2))
    return SwarmState(z=positions, v=velocities, u=np.zeros((n, 2)), dt=cfg.dt)


def _pairwise(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    diff = z[:, None, :] - z[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    return diff, dist


def centralized_controller(state: SwarmState, u_max: float = 10.0,
                           cutoff: float = 1.0) -> np.ndarray:
    """Expert accelerations: global velocity consensus plus short-range
    repulsion, clipped per axis to +/- u_max."""
    n = len(state.z)
    diff, dist = _pairwise(state.z)
    off = ~np.eye(n, dtype=bool)
    if np.any(dist[off] < 1e-6):
        raise DegenerateInputError("coincident agents: controller potential is singular")
    vel_term = n * state.v - state.v.sum(axis=0)            # sum_j (v_i - v_j)
    # grad of U(d) = d^-2 + log d^2 toward z_i: (-2/d^4 + 2/d^2) (z_i - z_j)
    active = off & (dist < cutoff)
    coeff = np.zeros_like(dist)
    coeff[active] = -2.0 / dist[active] ** 4 + 2.0 / dist[active] ** 2
    pot_term = (coeff[:, :, None] * diff).sum(axis=1)
    return np.clip(-vel_term - pot_term, -u_max, u_max)


def swarm_features(state: SwarmState, adjacency: np.ndarray) -> np.ndarray:
    """Per-node 6-dim feature from neighborhood sums over the given graph:
    velocity differences, and position offsets weighted by 1/d^4 and 1/d^2.
    Returns an array of shape (6, N)."""
    adjacency = np.asarray(adjacency, dtype=float)
    n = len(state.z)
    neighbor = adjacency != 0
    np.fill_diagonal(neighbor, False)
    diff, dist = _pairwise(state.z)
    if np.any(dist[neighbor] < 1e-9):
        raise DegenerateInputError("zero-distance neighbor in feature computation")
    deg = neighbor.sum(axis=1)
    vel = deg[:, None] * state.v - neighbor @ state.v       # sum_j (v_i - v_j)
    with np.errstate(divide="ignore"):
        inv4 = np.where(neighbor, 1.0 / dist**4, 0.0)
        inv2 = np.where(neighbor, 1.0 / dist**2, 0.0)
    pos4 = (inv4[:, :, None] * diff).sum(axis=1)
    pos2 = (inv2[:, :, None] * diff).sum(axis=1)
    return np.concatenate([vel.T, pos4.T, pos2.T], axis=0)


def velocity_variance(v: np.ndarray) -> float:
    """Across-agent variance of the velocity vectors (consensus metric)."""
    dev = v - v.mean(axis=0)
    return float(np.mean((dev**2).sum(axis=1)))


def simulate_swarm(policy, init_state: SwarmState, steps: int, p: float, rng: Rng,
                   comm_radius: float = 3.0, u_max: float = 10.0,
                   velocity_guard: float = 50.0, record: bool = False):
    """Closed-loop rollout: rebuild the disc graph each step, let the policy
    act through link failures at probability ``p``, integrate with explicit
    Euler.  Returns the trajectory cost (mean velocity variance), plus the
    visited states when ``record`` is true.

    ``policy(state, graph, p, rng) -> (N, 2) accelerations``; the plant
    saturates accelerations at +/- u_max per axis.
    """
    if steps < 1:
        raise ConfigError("steps must be >= 1")
    state = SwarmState(z=init_state.z.copy(), v=init_state.v.copy(),
                       u=np.zeros_like(init_state.u), dt=init_state.dt)
    history = [SwarmState(state.z.copy(), state.v.copy(), state.u.copy(), state.dt)]
    total = 0.0
    for step in range(steps):
        graph = build_disc_graph(state.z, comm_radius)
        accel = np.clip(np.asarray(policy(state, graph, p, rng), dtype=float),
                        -u_max, u_max)
        state.z = state.z + state.dt * state.v
        state.v = state.v + state.dt * accel
        state.u = accel
        if not np.all(np.isfinite(state.v)) or np.abs(state.v).max() > velocity_guard:
            raise DivergenceError(f"velocity blow-up at step {step}: "
                                  f"max |v| = {np.abs(state.v).max():.3g}")
        total += velocity_variance(state.v)
        if record:
            history.append(SwarmState(state.z.copy(), state.v.copy(), state.u.copy(), state.dt))
    cost = total / steps
    if record:
        return cost, history
    return cost


def _filter_base(graph: ShiftOperator) -> ShiftOperator:
    # An edgeless snapshot cannot be normalized; the zero shift is correct.
    if graph.num_edges == 0:
        return graph
    return to_shift(graph, NORMALIZED_ADJACENCY)


def collect_expert_dataset(cfg: FlockingConfig, rng: Rng, feature_p: float = 1.0,
                           variants: int = 1):
    """Roll out the expert and record (features, expert action, graph) per
    step.

    With ``feature_p < 1`` each recorded state contributes ``variants``
    samples whose features are gathered over independent link-failure
    realizations of the communication graph; this is how a network that is
    supposed to account for randomness during training gets to see the
    degraded neighborhood sums it will face in deployment.  The expert
    itself always acts on full state, so the rollout is unaffected.
    """
    inputs, targets, bases = [], [], []
    feat_rng = rng.child(10**6)
    for traj in range(cfg.train_trajectories):
        state = random_swarm_state(cfg, rng.child(traj))
        for _ in range(cfg.steps):
            graph = build_disc_graph(state.z, cfg.comm_radius)
            expert = centralized_controller(state, cfg.u_max, cfg.potential_cutoff)
            shift = _filter_base(graph)
            copies = variants if feature_p < 1.0 else 1
            for _ in range(copies):
                if feature_p < 1.0:
                    feat_graph = sample_realization(graph, feature_p, feat_rng).mat
                else:
                    feat_graph = graph.mat
                inputs.append(swarm_features(state, feat_graph))
                targets.append(expert.T)
                bases.append(shift)
            state.z = state.z + state.dt * state.v
            state.v = state.v + state.dt * expert
    inputs = np.stack(inputs)                               # (R, 6, N)
    targets = np.stack(targets)                             # (R, 2, N)
    mean = inputs.mean(axis=(0, 2))
    std = np.maximum(inputs.std(axis=(0, 2)), 1e-6)
    return inputs, targets, bases, (mean, std)


def _standardize(feats: np.ndarray, scaler) -> np.ndarray:
    mean, std = scaler
    return (feats - mean[:, None]) / std[:, None]


def make_policies(sgnn_tensor, gnn_tensor, scaler, cfg: FlockingConfig,
                  gnn_scaler=None) -> dict:
    """Closed-loop policies under a common interface: the two learned
    policies (features over a sampled link realization, filters over fresh
    realizations), the centralized expert, and the do-nothing baseline."""
    if gnn_scaler is None:
        gnn_scaler = scaler

    def learned(tensor, own_scaler):
        def policy(state, graph, p, rng):
            feat_graph = sample_realization(graph, p, rng)
            feats = _standardize(swarm_features(state, feat_graph.mat), own_scaler)
            reals = sample_architecture(_filter_base(graph), p, tensor.cfg, rng)
            out, _ = forward(tensor, reals, feats, return_cache=False)
            return out.T
        return policy

    def expert_policy(state, graph, p, rng):
        return centralized_controller(state, cfg.u_max, cfg.potential_cutoff)

    def zero_policy(state, graph, p, rng):
        return np.zeros_like(state.v)

    return {"sgnn": learned(sgnn_tensor, scaler), "gnn": learned(gnn_tensor, gnn_scaler),
            "expert": expert_policy, "zero": zero_policy}


def _expert_data_for_seed(cfg: FlockingConfig, rng: Rng, feature_p: float,
                          variants: int):
    key = common.cache_key(
        f"flock|{cfg.agents}|{cfg.comm_radius}|{cfg.min_separation}|{cfg.max_speed}|"
        f"{cfg.dt}|{cfg.steps}|{cfg.train_trajectories}|{cfg.u_max}|{cfg.potential_cutoff}|"
        f"{feature_p}|{variants}|{rng.seed}|{rng.stream}")
    cached = common.cache_load(f"flock_{key}")
    if cached is not None:
        inputs, targets = cached["inputs"], cached["targets"]
        adjacency = cached["adjacency"]
        bases = [_filter_base(ShiftOperator(ADJACENCY, adjacency[i]))
                 for i in range(len(adjacency))]
        return inputs, targets, bases, (cached["mean"], cached["std"])
    inputs, targets, bases, scaler = collect_expert_dataset(cfg, rng, feature_p, variants)
    adjacency = np.stack([
        (b.mat != 0).astype(float) if b.kind != ADJACENCY else b.mat for b in bases
    ])
    common.cache_store(f"flock_{key}", {
        "inputs": inputs, "targets": targets, "adjacency": adjacency,
        "mean": scaler[0], "std": scaler[1],
    })
    return inputs, targets, bases, scaler


def run_flock_seed(cfg: FlockingConfig, seed: int) -> dict:
    """One full run: expert dataset, train both policies, closed-loop costs
    over the probability grid (plus the zero-policy floor).

    Both models imitate the same expert rollouts.  The failure-aware model
    trains on features gathered over link realizations at ``train_p`` with
    its filters running on realizations at ``train_p``; the baseline trains
    on the intact graph end to end.
    """
    rng = Rng(seed, stream=202)
    inputs, targets, bases, scaler = _expert_data_for_seed(
        cfg, rng.child(0), cfg.train_p, cfg.feature_variants)
    clean_in, clean_tg, clean_bases, clean_scaler = _expert_data_for_seed(
        cfg, rng.child(0), 1.0, 1)
    train_set = TrainingSet(_standardize_batch(inputs, scaler), targets, bases=bases)
    clean_set = TrainingSet(_standardize_batch(clean_in, clean_scaler), clean_tg,
                            bases=clean_bases)

    model_cfg = cfg.model_config()
    tensor0 = init_tensor(model_cfg, rng.child(1), cfg.init_scale)
    sgnn_trace = train(tensor0, None, train_set, cfg.train_config(cfg.train_p, seed))
    gnn_trace = train(tensor0, None, clean_set, cfg.train_config(1.0, seed))

    policies = make_policies(sgnn_trace.tensor, gnn_trace.tensor, scaler, cfg,
                             gnn_scaler=clean_scaler)
    init_states = [random_swarm_state(cfg, rng.child(50 + e))
                   for e in range(cfg.eval_trajectories)]
    rows = []
    for p_idx, p in enumerate(cfg.test_p):
        for m_idx, (method, policy) in enumerate(policies.items()):
            eval_rng = rng.child(1000 + 20 * p_idx + m_idx)
            costs = [
                simulate_swarm(policy, state0, cfg.steps, p, eval_rng,
                               comm_radius=cfg.comm_radius, u_max=cfg.u_max,
                               velocity_guard=cfg.velocity_guard)
                for state0 in init_states
            ]
            rows.append({"p": p, "method": method, "seed": seed,
                         "metric": "velocity_variance_cost",
                         "value": float(np.mean(costs))})
    return {"rows": rows, "sgnn_trace": sgnn_trace, "gnn_trace": gnn_trace,
            "scaler": scaler}


def _standardize_batch(inputs: np.ndarray, scaler) -> np.ndarray:
    mean, std = scaler
    return (inputs - mean[None, :, None]) / std[None, :, None]


def run_flocking(cfg: FlockingConfig, jobs: int = 1) -> list[dict]:
    """Closed-loop cost rows over the probability grid for every seed."""
    results = common.map_over_seeds(run_flock_seed, cfg, cfg.seeds, jobs)
    rows = []
    for result in results:
        rows.extend(result["rows"])
    return rows
