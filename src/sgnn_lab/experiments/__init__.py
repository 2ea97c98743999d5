"""Desk-scale experiment pipelines: diffusion-source localization on a
stochastic block model, and imitation-learned flocking control, each
comparing a network trained under link failures with a baseline trained on
the intact graph."""

from ..common import RESULT_COLUMNS, write_results, rows_to_records
from .source import (
    SourceLocConfig,
    SourceLocDataset,
    evaluate_accuracy,
    gen_source_dataset,
    run_source_localization,
    run_source_seed,
)
from .flocking import (
    FlockingConfig,
    SwarmState,
    centralized_controller,
    collect_expert_dataset,
    make_policies,
    random_swarm_state,
    run_flock_seed,
    run_flocking,
    simulate_swarm,
    swarm_features,
)
