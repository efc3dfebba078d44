"""Optional public goods game: deterministic and stochastic evolutionary dynamics."""

from .agent_sim import (
    AbmTrajectory,
    LearningParams,
    Population,
    fermi_probability,
    gillespie_select,
    run_abm,
)
from .analysis import TrajectoryStats, stats, trajectory_distance
from .config import RunConfig, load_config
from .dynamics import (
    DynamicsKind,
    DynamicsMode,
    Trajectory,
    integrate,
    mutator_rhs,
    network_scaled_rhs,
    replicator_rhs,
)
from .errors import ConfigError, IntegrationError, NoEventError
from .game_core import (
    Matrix2x2,
    MixedStrategy2,
    equilibrium_profile_abc,
    expected_payoffs,
    mixed_equilibrium_abc,
    outcome_distribution,
)
from .network import Graph, GraphParams, edge_list_text, generate_er
from .payoffs import (
    PayoffProfile,
    PGGParams,
    SimplexState,
    average_payoff,
    expected_profile,
    realized_payoffs,
)
from .plotting import plot_simplex

__version__ = "0.1.0"
