"""Exact absorbing Markov chain analytics for the four-step
Retrieve/Reuse/Revise/Retain problem-solving cycle.

The package has four layers:

* :mod:`cbrchain.markov`: a general finite-chain engine over exact
  rationals (validation, classification, evolution, canonical form,
  fundamental matrix, absorption statistics);
* :mod:`cbrchain.cbr`: the specific 4-state process chain, its closed
  forms, trajectory validation, and maximum-likelihood estimation;
* :mod:`cbrchain.library`: case-library efficiency over
  generalized-episode hierarchies, with JSON ingestion;
* :mod:`cbrchain.simulate`: seeded, reproducible Monte Carlo sampling
  that cross-validates the exact results.

The ``cbrchain`` command-line tool exposes all of it.
"""

from .cbr import (
    CbrParameters,
    Trajectory,
    cbr_transition_matrix,
    count_r3_exits,
    estimate_parameters,
    format_trajectories,
    mean_phases,
    parse_trajectories,
    phase_distribution,
    read_trajectories,
    trajectory_step_count,
    validate_trajectory,
)
from .errors import CbrChainError
from .library import (
    CaseLibrary,
    CaseRecord,
    EfficiencyReport,
    GeneralizedEpisode,
    case_measure,
    dumps_library,
    efficiency_report,
    efficiency_trend,
    library_to_dict,
    load_library,
    loads_library,
    save_library,
)
from .markov import (
    CanonicalChain,
    ProbabilityVector,
    StateClassification,
    TransitionMatrix,
    absorption_probabilities,
    canonical_form,
    classify_states,
    distribution_at,
    evolve,
    expected_absorption_steps,
    fundamental_matrix,
    invert_matrix,
    step_distribution,
    validate_stochastic,
)
from .rationals import decimal_str, format_rational, parse_rational
from .simulate import (
    SimulationConfig,
    SimulationReport,
    derive_trajectory_seed,
    iter_trajectories,
    run_simulation,
    sample_trajectory,
)

__version__ = "0.1.0"
