"""Stochastic graph filters and graph neural networks over unreliable links.

The package builds graph shift operators, samples random edge-failure
realizations of them, runs stochastic graph filters and layered networks on
those realizations, trains the networks with SGD/Adam, and verifies the
variance and convergence theory empirically with brute-force oracles at desk
scale.  See the README and the demos/ directory for worked examples.
"""

from .errors import (
    ConfigError,
    DegenerateInputError,
    DivergenceError,
    DomainViolationError,
    SizeGuardError,
    StaleCacheError,
    UnsupportedKindError,
)
from .rng import Rng
from .graphs import (
    ADJACENCY,
    KINDS,
    LAPLACIAN,
    NORMALIZED_ADJACENCY,
    ShiftOperator,
    build_disc_graph,
    build_sbm,
    check_edge_probability,
    expected_shift,
    expected_shift_square,
    load_edge_list,
    sample_realization,
    sample_realizations,
    save_edge_list,
    to_shift,
)
from .spectral import (
    EigPair,
    FilterConstants,
    default_domain,
    eig_sym,
    estimate_response_bound,
    estimate_response_lipschitz,
    filter_norm_check,
    freq_response,
    generalized_freq_response,
    gfr_partial,
    gft,
    igft,
)
from .filters import (
    Message,
    apply_deterministic,
    apply_distributed,
    apply_filter,
    diffuse,
    diffusion_stages,
    write_message_trace,
)
from .model import (
    FilterTensor,
    SgnnConfig,
    apply_nonlinearity,
    backward,
    forward,
    forward_expected,
    init_tensor,
    load_checkpoint,
    sample_architecture,
    save_checkpoint,
)
from .training import (
    TrainConfig,
    TrainingSet,
    TrainTrace,
    convergence_metric,
    convergence_step_size,
    estimate_cost_gap,
    estimate_grad_bound,
    train,
)
from .variance import (
    VarianceReport,
    check_nonlinearity_variance,
    enumerate_expected_shift_square,
    exact_filter_variance,
    filter_constants,
    filter_variance_bound,
    make_sgnn_report,
    mc_sgnn_variance,
    mc_variance,
    sgnn_variance_bound,
    shift_alpha,
    tensor_constants,
    variance_std_error,
)

__version__ = "0.1.0"
