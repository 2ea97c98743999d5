"""Desk-scale flocking by imitation learning: a centralized consensus expert
is distilled into a distributed policy that only uses neighborhood features
exchanged over failing links.

This reduced version (one seed, fewer trajectories) finishes in about a
minute; ``sgnn-lab train-flock`` runs the full five-seed comparison.

Run:  python3 demos/06_flocking.py
"""

import dataclasses

from sgnn_lab.experiments import (
    FlockingConfig,
    centralized_controller,
    random_swarm_state,
    run_flock_seed,
    simulate_swarm,
)
from sgnn_lab.experiments.flocking import velocity_variance
from sgnn_lab import Rng

cfg = dataclasses.replace(FlockingConfig(), train_trajectories=10, iterations=300,
                          eval_trajectories=2, test_p=(1.0, 0.7), seeds=(0,))

# The expert drives the velocity variance down; doing nothing leaves it flat.
state0 = random_swarm_state(cfg, Rng(123))
print(f"initial velocity variance: {velocity_variance(state0.v):.3f}")
expert_cost = simulate_swarm(
    lambda s, g, p, r: centralized_controller(s, u_max=cfg.u_max, cutoff=cfg.potential_cutoff),
    state0, cfg.steps, 1.0, Rng(0), comm_radius=cfg.comm_radius, u_max=cfg.u_max,
    velocity_guard=cfg.velocity_guard)
print(f"centralized expert trajectory cost: {expert_cost:.3f}")

result = run_flock_seed(cfg, seed=0)
print("\nclosed-loop velocity-variance cost (seed 0, lower is better):")
print("  p      failure-aware   intact-trained   expert    zero policy")
for p in cfg.test_p:
    row = {r["method"]: r["value"] for r in result["rows"] if r["p"] == p}
    print(f"  {p:4.2f}   {row['sgnn']:13.3f}   {row['gnn']:14.3f}"
          f"   {row['expert']:7.3f}   {row['zero']:10.3f}")
